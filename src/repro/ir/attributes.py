"""Attributes: compile-time constant data attached to operations.

Attributes mirror MLIR's: integers, floats, strings, booleans, arrays,
dictionaries and types.  They are immutable and hashable.

The printer writes them in MLIR's style::

    42 : i64            IntAttr
    3.5 : f64           FloatAttr
    "hello"             StrAttr
    true / false        BoolAttr
    [1 : i64, 2 : i64]  ArrayAttr
    {a = 1 : i64}       DictAttr
    f32                 TypeAttr
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence, Set, Tuple, Union

from repro.errors import IRError
from repro.ir.types import Type, f64, fields_key, i64, kept

#: ``Attribute`` and every subclass: an exact-class test that stands in
#: for ``isinstance(x, Attribute)`` where IR is built.
ATTRIBUTE_CLASSES: Set[type] = set()


class Attribute:
    """Base class for all attributes.

    ``exact_key`` is a hashable stand-in for the attribute that compares
    floats by their bits.  Attribute equality is Python equality of the
    payload, so ``FloatAttr(0.0) == FloatAttr(-0.0)``: a CSE that merged
    those two constants would flip the sign of an infinity downstream.
    It is kept on the attribute.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        ATTRIBUTE_CLASSES.add(cls)

    exact_key = kept(fields_key)

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

    @kept
    def exact_key(self) -> tuple:
        return (FloatAttr, self.type._key, struct.pack("<d", self.value))

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
class TypeAttr(Attribute):
    value: Type

    def __str__(self) -> str:
        return str(self.value)


class ArrayAttr(Attribute):
    """An ordered list of attributes."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[Attribute]):
        for element in elements:
            if not isinstance(element, Attribute):
                raise IRError(f"ArrayAttr element is not an Attribute: {element!r}")
        self.elements: Tuple[Attribute, ...] = tuple(elements)

    @kept
    def exact_key(self) -> tuple:
        return (ArrayAttr, *map(_EXACT_KEY, self.elements))

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

    @kept
    def exact_key(self) -> tuple:
        return (DictAttr, *[(k, v.exact_key) for k, v in self.entries])

    def __str__(self) -> str:
        body = ", ".join(f"{k} = {v}" for k, v in self.entries)
        return "{" + body + "}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DictAttr) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __contains__(self, key: str) -> bool:
        return any(k == key for k, _ in self.entries)


AttrLike = Union[Attribute, int, float, bool, str, Type, Sequence, Mapping]


#: Exact-class shortcut past the ``isinstance`` ladder of :func:`attr`
#: (subclasses such as ``numpy.float64`` still take the ladder).
_SCALAR_ATTRS = {bool: BoolAttr, int: IntAttr, float: FloatAttr, str: StrAttr}
#: The attribute classes whose payload is their ``value`` field.
_VALUE_ATTRS = frozenset({IntAttr, FloatAttr, BoolAttr, StrAttr, TypeAttr})
_EXACT_KEY = attrgetter("exact_key")


def attr(value: AttrLike) -> Attribute:
    """Coerce a plain Python value into an :class:`Attribute`.

    Booleans map to :class:`BoolAttr`, ints to :class:`IntAttr`, floats to
    :class:`FloatAttr`, strings to :class:`StrAttr`, types to
    :class:`TypeAttr`, sequences to :class:`ArrayAttr` and mappings to
    :class:`DictAttr`.  Existing attributes pass through unchanged.
    """
    kind = value.__class__
    if kind in _SCALAR_ATTRS:
        return _SCALAR_ATTRS[kind](value)
    # A plain list, tuple or dict holds what this function returns, so
    # the container is built past its constructor's element checks.
    if kind is list or kind is tuple:
        array = object.__new__(ArrayAttr)
        array.elements = tuple(map(attr, value))
        return array
    if kind is dict:
        mapping = object.__new__(DictAttr)
        mapping.entries = tuple(sorted(zip(value, map(attr, value.values()))))
        return mapping
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
    kind = attribute.__class__
    if kind in _VALUE_ATTRS:
        return attribute.value
    if kind is ArrayAttr:
        return list(map(unwrap, attribute.elements))
    if isinstance(attribute, ArrayAttr):
        return [unwrap(e) for e in attribute.elements]
    if isinstance(attribute, DictAttr):
        return {k: unwrap(v) for k, v in attribute.entries}
    raise IRError(f"cannot unwrap attribute {attribute!r}")

