"""Dialect registry: declarative definitions of operations per dialect.

A :class:`Dialect` groups :class:`OpDef` entries.  Registration is optional
for *constructing* IR (the core is fully generic) but required for
*verification*: :func:`repro.ir.verifier.verify` checks every op whose
dialect is registered against its definition (arity, regions, required
attributes, custom verifier) and rejects a name the dialect does not
define.

This mirrors MLIR's ODS layer at a level of detail appropriate for the SDK.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import IRError
from repro.ir.core import Operation

# A variadic arity marker: ops may take any number of operands/results.
VARIADIC = -1


@dataclass
class OpDef:
    """Definition of one operation kind.

    ``num_operands``/``num_results`` use :data:`VARIADIC` for "any number".
    ``required_attrs`` maps attribute name to a human-readable description.
    ``verify`` is an optional callable raising :class:`IRError` on violation.
    ``traits`` is a free-form set of markers (e.g. ``"terminator"``,
    ``"pure"``, ``"symbol"``, ``"interface"``) that passes may query.

    ``fold`` is the canonicalization hook (MLIR's ``fold``): given an op it
    returns ``None`` (no fold), an existing :class:`~repro.ir.core.Value`
    to replace the op's single result, or a constant (an
    :class:`~repro.ir.attributes.Attribute` or a plain int/float/bool) that
    the driver materializes as an ``arith.constant``.  Fold hooks must not
    create or mutate operations — value-returning simplifications only.

    ``transfer`` is the abstract-interpretation hook used by
    :mod:`repro.ir.analysis`: ``transfer(op, operands, ctx)`` receives the
    abstract values of the op's operands and returns one abstract value per
    result (or ``None`` to fall back to the declared result types).  It
    raises :class:`~repro.ir.analysis.AnalysisError` when the operand
    abstracts are inconsistent with the op's semantics — this is what makes
    the typed verifier reject miscompiles the structural checks accept.
    """

    name: str
    summary: str = ""
    num_operands: int = VARIADIC
    num_results: int = VARIADIC
    num_regions: int = 0
    required_attrs: Dict[str, str] = field(default_factory=dict)
    traits: Tuple[str, ...] = ()
    verify: Optional[Callable[[Operation], None]] = None
    fold: Optional[Callable[[Operation], object]] = None
    transfer: Optional[Callable] = None

    def __post_init__(self) -> None:
        #: (what, getter, count) of each arity that is not variadic.
        self._arity = tuple(
            (what, attrgetter(slot), want) for what, slot, want in (
                ("operands", "_operands", self.num_operands),
                ("results", "results", self.num_results),
                ("regions", "regions", self.num_regions))
            if want != VARIADIC)

    def check(self, op: Operation) -> None:
        """Structural check of ``op`` against this definition."""
        for what, getter, want in self._arity:
            have = getter(op)
            # Too many, or too few: exactly ``want`` without a len() per op.
            if have[want:] or want and not have[want - 1:]:
                raise IRError(
                    f"{op.name}: expected {want} {what}, got {len(have)}")
        for attr_name in self.required_attrs:
            if attr_name not in op.attributes:
                raise IRError(
                    f"{op.name}: missing required attribute "
                    f"'{attr_name}' ({self.required_attrs[attr_name]})"
                )
        if self.verify is not None:
            self.verify(op)


class Dialect:
    """A named collection of operation definitions."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.ops: Dict[str, OpDef] = {}
        # The ``opdefs`` tables of the registries holding this dialect.
        self._opdef_tables: list = []

    def op(
        self,
        opname: str,
        summary: str = "",
        num_operands: int = VARIADIC,
        num_results: int = VARIADIC,
        num_regions: int = 0,
        required_attrs: Optional[Dict[str, str]] = None,
        traits: Iterable[str] = (),
        verify: Optional[Callable[[Operation], None]] = None,
        fold: Optional[Callable[[Operation], object]] = None,
        transfer: Optional[Callable] = None,
    ) -> OpDef:
        """Define and register an operation in this dialect."""
        full = f"{self.name}.{opname}"
        if opname in self.ops:
            raise IRError(f"duplicate op definition: {full}")
        opdef = OpDef(
            name=full,
            summary=summary,
            num_operands=num_operands,
            num_results=num_results,
            num_regions=num_regions,
            required_attrs=dict(required_attrs or {}),
            traits=tuple(traits),
            verify=verify,
            fold=fold,
            transfer=transfer,
        )
        self.ops[opname] = opdef
        for table in self._opdef_tables:
            table[full] = opdef
        return opdef

    def __contains__(self, opname: str) -> bool:
        return opname in self.ops

    def __iter__(self):
        return iter(self.ops.values())


class DialectRegistry:
    """Holds registered dialects; one global default registry exists."""

    def __init__(self) -> None:
        self.dialects: Dict[str, Dialect] = {}
        #: Full op name -> OpDef over this registry's dialects; hot loops
        #: read it directly.  ``Dialect.op`` adds late definitions.
        self.opdefs: Dict[str, OpDef] = {}

    def register(self, dialect: Dialect) -> Dialect:
        if dialect.name in self.dialects:
            raise IRError(f"dialect already registered: {dialect.name}")
        self.dialects[dialect.name] = dialect
        for opdef in dialect:
            self.opdefs[opdef.name] = opdef
        dialect._opdef_tables.append(self.opdefs)
        return dialect

    def get(self, name: str) -> Optional[Dialect]:
        return self.dialects.get(name)

    def opdef_for(self, op: Operation) -> Optional[OpDef]:
        """Find the definition for ``op``, or None if its dialect/op is
        unregistered."""
        return self.opdefs.get(op.name)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.dialects))


# The default global registry.  ``repro.dialects`` populates it on import.
REGISTRY = DialectRegistry()


def register_dialect(name: str, description: str = "") -> Dialect:
    """Create and register a dialect in the global registry.

    Idempotent per name: calling twice raises, so modules guard with
    ``REGISTRY.get``.
    """
    existing = REGISTRY.get(name)
    if existing is not None:
        return existing
    return REGISTRY.register(Dialect(name, description))
