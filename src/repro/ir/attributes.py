"""Attributes: compile-time constant data attached to operations.

Attributes mirror MLIR's: integers, floats, strings, booleans, arrays,
dictionaries, types, dense tensor constants and symbol references.  They are
immutable and hashable (``DenseAttr`` hashes by identity of its bytes).

Printing follows MLIR's style closely enough for round-tripping through
:mod:`repro.ir.parser`::

    42 : i64            IntAttr
    3.5 : f64           FloatAttr
    "hello"             StrAttr
    true / false        BoolAttr
    unit                UnitAttr
    [1 : i64, 2 : i64]  ArrayAttr
    {a = 1 : i64}       DictAttr
    f32                 TypeAttr
    @kernel_name        SymbolRefAttr
    dense<[1.0, 2.0]> : tensor<2xf64>   DenseAttr
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple, Union

import numpy as np

from repro.errors import IRError
from repro.ir.types import TensorType, Type, f64, i64


class Attribute:
    """Base class for all attributes."""

    def __str__(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


@dataclass(frozen=True)
class IntAttr(Attribute):
    value: int
    type: Type = i64

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


@dataclass(frozen=True)
class FloatAttr(Attribute):
    value: float
    type: Type = f64

    def __str__(self) -> str:
        text = repr(float(self.value))
        return f"{text} : {self.type}"


@dataclass(frozen=True)
class BoolAttr(Attribute):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class StrAttr(Attribute):
    value: str

    def __str__(self) -> str:
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


@dataclass(frozen=True)
class UnitAttr(Attribute):
    """Presence-only attribute (e.g. marking an op as offloaded)."""

    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class TypeAttr(Attribute):
    value: Type

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SymbolRefAttr(Attribute):
    """Reference to a symbol (a named op such as a function)."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


class ArrayAttr(Attribute):
    """An ordered list of attributes."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[Attribute]):
        for element in elements:
            if not isinstance(element, Attribute):
                raise IRError(f"ArrayAttr element is not an Attribute: {element!r}")
        self.elements: Tuple[Attribute, ...] = tuple(elements)

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.elements) + "]"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrayAttr) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> Attribute:
        return self.elements[i]


class DictAttr(Attribute):
    """A string-keyed dictionary of attributes (sorted for determinism)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, Attribute]):
        for key, value in entries.items():
            if not isinstance(value, Attribute):
                raise IRError(f"DictAttr value for {key!r} is not an Attribute")
        self.entries: Tuple[Tuple[str, Attribute], ...] = tuple(
            sorted(entries.items())
        )

    def __str__(self) -> str:
        body = ", ".join(f"{k} = {v}" for k, v in self.entries)
        return "{" + body + "}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DictAttr) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def get(self, key: str, default: Attribute | None = None):
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def __contains__(self, key: str) -> bool:
        return any(k == key for k, _ in self.entries)

    def as_dict(self) -> dict:
        return dict(self.entries)


class DenseAttr(Attribute):
    """A dense tensor constant backed by a numpy array."""

    __slots__ = ("array", "type")

    def __init__(self, array: np.ndarray, type: TensorType):
        array = np.asarray(array)
        if tuple(array.shape) != tuple(type.shape):
            raise IRError(
                f"dense data shape {array.shape} does not match type {type}"
            )
        array.setflags(write=False)
        self.array = array
        self.type = type

    def __str__(self) -> str:
        flat = self.array.reshape(-1)
        if np.issubdtype(self.array.dtype, np.floating):
            body = ", ".join(repr(float(x)) for x in flat)
        elif self.array.dtype == np.bool_:
            body = ", ".join("true" if x else "false" for x in flat)
        else:
            body = ", ".join(str(int(x)) for x in flat)
        return f"dense<[{body}]> : {self.type}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseAttr)
            and self.type == other.type
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self) -> int:
        return hash((self.type, self.array.tobytes()))


AttrLike = Union[Attribute, int, float, bool, str, Type, Sequence, Mapping]


#: Exact-class shortcut past the ``isinstance`` ladder of :func:`attr`
#: (subclasses such as ``numpy.float64`` still take the ladder).
_SCALAR_ATTRS = {bool: BoolAttr, int: IntAttr, float: FloatAttr, str: StrAttr}
#: The attribute classes whose payload is their ``value`` field.
_VALUE_ATTRS = frozenset({IntAttr, FloatAttr, BoolAttr, StrAttr, TypeAttr})


def attr(value: AttrLike) -> Attribute:
    """Coerce a plain Python value into an :class:`Attribute`.

    Booleans map to :class:`BoolAttr`, ints to :class:`IntAttr`, floats to
    :class:`FloatAttr`, strings to :class:`StrAttr`, types to
    :class:`TypeAttr`, sequences to :class:`ArrayAttr` and mappings to
    :class:`DictAttr`.  Existing attributes pass through unchanged.
    """
    scalar = _SCALAR_ATTRS.get(value.__class__)
    if scalar is not None:
        return scalar(value)
    if isinstance(value, Attribute):
        return value
    if isinstance(value, bool):
        return BoolAttr(value)
    if isinstance(value, int):
        return IntAttr(value)
    if isinstance(value, float):
        return FloatAttr(value)
    if isinstance(value, str):
        return StrAttr(value)
    if isinstance(value, Type):
        return TypeAttr(value)
    if isinstance(value, (list, tuple)):
        return ArrayAttr([attr(v) for v in value])
    if isinstance(value, Mapping):
        return DictAttr({k: attr(v) for k, v in value.items()})
    raise IRError(f"cannot convert {value!r} to an attribute")


def unwrap(attribute: Attribute):
    """Inverse of :func:`attr`: recover the plain Python value."""
    if attribute.__class__ in _VALUE_ATTRS:
        return attribute.value
    if isinstance(attribute, UnitAttr):
        return True
    if isinstance(attribute, SymbolRefAttr):
        return attribute.name
    if isinstance(attribute, ArrayAttr):
        return [unwrap(e) for e in attribute.elements]
    if isinstance(attribute, DictAttr):
        return {k: unwrap(v) for k, v in attribute.entries}
    if isinstance(attribute, DenseAttr):
        return attribute.array
    raise IRError(f"cannot unwrap attribute {attribute!r}")


def exact_key(attribute: Attribute) -> object:
    """A hashable stand-in for ``attribute`` that compares floats by their
    bits.  Attribute equality is Python equality of the payload, so
    ``FloatAttr(0.0) == FloatAttr(-0.0)``: a CSE that merged those two
    constants would flip the sign of an infinity downstream."""
    kind = attribute.__class__
    if kind is FloatAttr:
        return (kind, attribute.type, struct.pack("<d", attribute.value))
    if kind is ArrayAttr:
        return (kind, *map(exact_key, attribute.elements))
    if kind is DictAttr:
        return (kind, *[(k, exact_key(v)) for k, v in attribute.entries])
    if kind is DenseAttr:
        array = attribute.array
        return (kind, attribute.type, array.dtype.str, array.tobytes())
    return attribute
