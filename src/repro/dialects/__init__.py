"""EVEREST dialect registrations and the Fig. 5 dialect graph.

Importing this package registers every dialect used by the SDK into
:data:`repro.ir.dialect.REGISTRY`.  :data:`DIALECT_GRAPH` encodes the
lowering edges of the paper's Fig. 5; :func:`lowering_for` resolves an edge
to the function implementing it (implemented across the frontends, the
tensor pipeline and Olympus).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.dialects import builtin as _builtin  # noqa: F401 (registers)
from repro.dialects import system as _system  # noqa: F401 (registers)
from repro.dialects import tensorlang as _tensorlang  # noqa: F401 (registers)
from repro.errors import LoweringError

# Edges of the paper's Fig. 5: (source dialect, target dialect).
# "entry" edges come from frontends (outside MLIR) and are included so the
# graph is the whole figure; dialect-to-dialect edges are IR passes.
DIALECT_GRAPH: Tuple[Tuple[str, str], ...] = (
    # EVEREST frontends into entry dialects.
    ("ekl-frontend", "ekl"),
    ("cfdlang-frontend", "cfdlang"),
    ("condrust-frontend", "dfg"),
    # Entry dialects into the tensor intermediate language.
    ("ekl", "esn"),
    ("esn", "teil"),
    ("cfdlang", "teil"),
    # Tensor IL into core loop dialects.
    ("teil", "affine"),
    # Olympus system IR into the EVP deployment sequence.
    ("olympus", "evp"),
)

_LOWERINGS: Dict[Tuple[str, str], Callable] = {}


def register_lowering(source: str, target: str):
    """Decorator: register ``fn`` as the implementation of an edge."""

    def wrap(fn: Callable) -> Callable:
        _LOWERINGS[(source, target)] = fn
        return fn

    return wrap


def lowering_for(source: str, target: str) -> Callable:
    """Resolve a Fig. 5 edge to its implementation.

    Imports the implementing module lazily (frontends and Olympus depend
    on the dialects, not vice versa).
    """
    key = (source, target)
    if key not in _LOWERINGS:
        _load_implementations()
    if key not in _LOWERINGS:
        raise LoweringError(f"no lowering registered for {source} -> {target}")
    return _LOWERINGS[key]


def _load_implementations() -> None:
    # Each import populates _LOWERINGS via register_lowering decorators.
    import repro.frontends.cfdlang.lower  # noqa: F401
    import repro.frontends.condrust.lower  # noqa: F401
    import repro.frontends.ekl.lower  # noqa: F401
    import repro.olympus.arch_gen  # noqa: F401
    import repro.tensorpipe.lower_esn  # noqa: F401
    import repro.tensorpipe.lower_teil  # noqa: F401


def registered_edges() -> Tuple[Tuple[str, str], ...]:
    """All edges with an implementation loaded (``basecamp dialects``
    marks each :data:`DIALECT_GRAPH` edge against them)."""
    _load_implementations()
    return tuple(sorted(_LOWERINGS))
