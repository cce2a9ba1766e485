"""Type system for the EVEREST IR (a deliberately small MLIR).

Types are immutable, hashable value objects.  The textual syntax follows
MLIR: ``i32``, ``f64``, ``index``, ``tensor<4x?xf64>``, ``memref<16xf32,
"hbm0">``, ``(f64, i32) -> f64``.  Dialect types use the ``!dialect.name<...>``
form, e.g. ``!base2.fixed<8, 8, signed>`` and ``!dfg.stream<f64>``.

Every type prints itself in this syntax via ``str()``; types are built in
code, never read back from text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.errors import IRError


class kept:
    """``functools.cached_property`` without its lock (one per property,
    shared by every instance, taken on each miss): for immutable objects,
    whose value any thread may compute.  The first read stores it in the
    instance ``__dict__``, which then shadows this descriptor."""

    def __init__(self, method):
        self.method = method

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


#: ``Type`` and every subclass: an exact-class test that stands in for
#: ``isinstance(x, Type)`` where IR is built.
TYPE_CLASSES: Set[type] = set()


def fields_key(obj) -> tuple:
    """The class and dataclass fields of ``obj``, a type field by its
    ``_key``: equal exactly when the objects are, and (but for a tuple of
    types) hashed without running Python code."""
    return (obj.__class__, *[
        v._key if v.__class__ in TYPE_CLASSES else v
        for v in map(obj.__getattribute__, obj.__dataclass_fields__)])


class Type:
    """Base class for all IR types."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        TYPE_CLASSES.add(cls)

    _key = kept(fields_key)

    def __str__(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


@dataclass(frozen=True)
class IntegerType(Type):
    """An integer type of a fixed bit width.

    ``signed`` distinguishes ``i32`` (signed/signless, printed ``i32``) from
    unsigned ``ui32``.
    """

    width: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise IRError(f"integer width must be positive, got {self.width}")

    def __str__(self) -> str:
        return f"i{self.width}" if self.signed else f"ui{self.width}"


@dataclass(frozen=True)
class FloatType(Type):
    """An IEEE-ish floating point type: f16, bf16, f32 or f64."""

    bits: int
    brain: bool = False  # True selects bfloat16 when bits == 16

    _VALID = (16, 32, 64)

    def __post_init__(self) -> None:
        if self.bits not in self._VALID:
            raise IRError(f"unsupported float width: {self.bits}")
        if self.brain and self.bits != 16:
            raise IRError("brain floats are 16-bit only")

    def __str__(self) -> str:
        return "bf16" if self.brain else f"f{self.bits}"


@dataclass(frozen=True)
class IndexType(Type):
    """Target-width integer used for subscripts and loop bounds."""

    def __str__(self) -> str:
        return "index"


@dataclass(frozen=True)
class NoneOpType(Type):
    """The unit type; used by ops that produce no meaningful value."""

    def __str__(self) -> str:
        return "none"


@dataclass(frozen=True)
class TensorType(Type):
    """An immutable multidimensional array.

    ``shape`` entries are ``int`` for static extents or ``None`` for dynamic
    ones (printed ``?``).  A rank-0 tensor prints as ``tensor<f64>``.
    """

    shape: Tuple[Optional[int], ...]
    element: Type

    def __post_init__(self) -> None:
        for dim in self.shape:
            if dim is not None and dim < 0:
                raise IRError(f"negative tensor extent: {dim}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_static(self) -> bool:
        return all(dim is not None for dim in self.shape)

    def num_elements(self) -> int:
        """Element count; raises for dynamic shapes."""
        if not self.is_static:
            raise IRError(f"dynamic shape has no static element count: {self}")
        count = 1
        for dim in self.shape:
            count *= dim  # type: ignore[operator]
        return count

    def __str__(self) -> str:
        dims = "x".join("?" if d is None else str(d) for d in self.shape)
        if dims:
            return f"tensor<{dims}x{self.element}>"
        return f"tensor<{self.element}>"


@dataclass(frozen=True)
class MemRefType(Type):
    """A reference to a buffer in a concrete memory space.

    ``space`` names the memory the buffer lives in (e.g. ``"hbm0"``,
    ``"plm"``, ``"host"``); an empty space means the default device memory.
    """

    shape: Tuple[Optional[int], ...]
    element: Type
    space: str = ""

    @property
    def rank(self) -> int:
        return len(self.shape)

    def num_elements(self) -> int:
        count = 1
        for dim in self.shape:
            if dim is None:
                raise IRError(f"dynamic shape has no static element count: {self}")
            count *= dim
        return count

    def __str__(self) -> str:
        dims = "x".join("?" if d is None else str(d) for d in self.shape)
        body = f"{dims}x{self.element}" if dims else str(self.element)
        if self.space:
            return f'memref<{body}, "{self.space}">'
        return f"memref<{body}>"


@dataclass(frozen=True)
class FunctionType(Type):
    """A function signature ``(inputs) -> (results)``."""

    inputs: Tuple[Type, ...]
    results: Tuple[Type, ...]

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        if len(self.results) == 1:
            result = self.results[0]
            # A bare function-type result would print as "(i64) -> (f64)
            # -> f64", which reads as either grouping; parenthesize it,
            # as MLIR does.
            if isinstance(result, FunctionType):
                return f"({ins}) -> ({result})"
            return f"({ins}) -> {result}"
        outs = ", ".join(str(t) for t in self.results)
        return f"({ins}) -> ({outs})"


@dataclass(frozen=True)
class StreamType(Type):
    """A FIFO stream of elements; the carrier type of the ``dfg`` dialect."""

    element: Type

    def __str__(self) -> str:
        return f"!dfg.stream<{self.element}>"


@dataclass(frozen=True)
class FixedPointType(Type):
    """base2 fixed-point numeral type: ``!base2.fixed<int, frac, signed>``."""

    int_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise IRError("fixed-point field widths must be non-negative")
        if self.int_bits + self.frac_bits == 0:
            raise IRError("fixed-point type must have at least one bit")

    @property
    def width(self) -> int:
        return self.int_bits + self.frac_bits

    def __str__(self) -> str:
        sign = "signed" if self.signed else "unsigned"
        return f"!base2.fixed<{self.int_bits}, {self.frac_bits}, {sign}>"


@dataclass(frozen=True)
class PositType(Type):
    """base2 posit numeral type: ``!base2.posit<nbits, es>``."""

    nbits: int
    es: int

    def __post_init__(self) -> None:
        if self.nbits < 2:
            raise IRError("posit needs at least 2 bits")
        if self.es < 0:
            raise IRError("posit exponent size must be non-negative")

    def __str__(self) -> str:
        return f"!base2.posit<{self.nbits}, {self.es}>"


# Commonly used singletons.
i1 = IntegerType(1)
i8 = IntegerType(8)
i16 = IntegerType(16)
i32 = IntegerType(32)
i64 = IntegerType(64)
f16 = FloatType(16)
bf16 = FloatType(16, brain=True)
f32 = FloatType(32)
f64 = FloatType(64)
index = IndexType()
none = NoneOpType()


def tensor_of(element: Type, *shape: Optional[int]) -> TensorType:
    """Convenience constructor: ``tensor_of(f64, 4, None)``."""
    return TensorType(tuple(shape), element)


def memref_of(element: Type, *shape: Optional[int], space: str = "") -> MemRefType:
    """Convenience constructor for :class:`MemRefType`."""
    return MemRefType(tuple(shape), element, space)


def bitwidth(ty: Type) -> int:
    """Bit width of a scalar type; used by resource and packing models."""
    if isinstance(ty, IntegerType):
        return ty.width
    if isinstance(ty, FloatType):
        return ty.bits
    if isinstance(ty, FixedPointType):
        return ty.width
    if isinstance(ty, PositType):
        return ty.nbits
    if isinstance(ty, IndexType):
        return 64
    raise IRError(f"type has no scalar bit width: {ty}")


def is_scalar(ty: Type) -> bool:
    """True for types representing a single numeral."""
    return isinstance(
        ty, (IntegerType, FloatType, IndexType, FixedPointType, PositType)
    )
