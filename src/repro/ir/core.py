"""Core IR structures: values, operations, blocks, regions and modules.

The design is a compact MLIR:

* an :class:`Operation` is fully generic — a dotted name (``dialect.op``),
  operands, typed results, an attribute dictionary and nested regions;
* a :class:`Region` holds :class:`Block`\\ s; blocks hold operations and
  typed block arguments;
* a module is simply an operation named ``builtin.module`` with one region.

Def-use chains are maintained eagerly so passes can query ``value.uses`` and
call ``value.replace_all_uses_with`` safely.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir.attributes import (
    ATTRIBUTE_CLASSES, Attribute, AttrLike, attr, unwrap)
from repro.ir.types import TYPE_CLASSES, Type


class Value:
    """An SSA value: either an operation result or a block argument."""

    __slots__ = ("type", "uses")

    def __init__(self, type: Type):
        if not isinstance(type, Type):
            raise IRError(f"value type must be a Type, got {type!r}")
        self.type = type
        # Each use is (operation, operand_index).
        self.uses: List[Tuple["Operation", int]] = []

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every use of ``self`` to use ``other`` instead."""
        if other is self:
            return
        for operation, idx in list(self.uses):
            operation._set_operand(idx, other)

    def owner_op(self) -> Optional["Operation"]:
        """The defining operation, or None for block arguments."""
        return None


class OpResult(Value):
    """A value produced by an operation."""

    __slots__ = ("op", "index")

    def __init__(self, op: "Operation", index: int, type: Type):
        # Value.__init__ inlined: one frame less per op result built.
        if type.__class__ not in TYPE_CLASSES and not isinstance(type, Type):
            raise IRError(f"value type must be a Type, got {type!r}")
        self.type = type
        self.uses = []
        self.op = op
        self.index = index

    def owner_op(self) -> Optional["Operation"]:
        return self.op


class BlockArgument(Value):
    """A value introduced by a block (e.g. function or loop arguments)."""

    __slots__ = ("block", "index")

    def __init__(self, block: "Block", index: int, type: Type):
        super().__init__(type)
        self.block = block
        self.index = index


#: The classes of :class:`Value` here; a subclass elsewhere is told by
#: ``isinstance``.
_VALUE_CLASSES = frozenset({Value, OpResult, BlockArgument})


class Operation:
    """A generic operation.

    Construct with :meth:`Operation.create` (or through
    :class:`repro.ir.builder.Builder`, which also inserts into a block).
    """

    __slots__ = ("name", "_operands", "results", "attributes", "regions", "parent")

    def __init__(
        self,
        name: str,
        operands: Sequence[Value],
        result_types: Sequence[Type],
        attributes: Optional[Dict[str, Attribute]] = None,
        regions: Optional[Sequence["Region"]] = None,
    ):
        if "." not in name:
            raise IRError(f"operation name must be 'dialect.op', got {name!r}")
        self.name = name
        self._operands: List[Value] = list(operands)
        self.results: List[OpResult] = list(
            map(OpResult, repeat(self), count(), result_types))
        self.attributes: Dict[str, Attribute] = dict(attributes or {})
        self.regions: List[Region] = list(regions or [])
        for region in self.regions:
            region.parent_op = self
        self.parent: Optional[Block] = None
        for idx, value in enumerate(self._operands):
            if value.__class__ not in _VALUE_CLASSES \
                    and not isinstance(value, Value):
                raise IRError(f"operand must be a Value, got {value!r}")
            value.uses.append((self, idx))

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, AttrLike]] = None,
        regions: Optional[Sequence["Region"]] = None,
    ) -> "Operation":
        """Create an operation, coercing plain attribute values."""
        coerced = dict(attributes) if attributes else {}
        for key, value in coerced.items():
            if value.__class__ not in ATTRIBUTE_CLASSES:
                coerced[key] = attr(value)
        return cls(name, operands, result_types, coerced, regions)

    # -- operand management ------------------------------------------------

    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def _set_operand(self, idx: int, value: Value) -> None:
        old = self._operands[idx]
        old.uses.remove((self, idx))
        self._operands[idx] = value
        value.uses.append((self, idx))

    # -- attribute helpers ---------------------------------------------------

    def attr(self, key: str, default=None):
        """Fetch an attribute, unwrapped to a plain Python value."""
        if key not in self.attributes:
            return default
        return unwrap(self.attributes[key])

    def set_attr(self, key: str, value: AttrLike) -> None:
        self.attributes[key] = attr(value)

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def opname(self) -> str:
        return self.name.split(".", 1)[1]

    @property
    def result(self) -> OpResult:
        """The single result; raises when the op has 0 or >1 results."""
        if len(self.results) != 1:
            raise IRError(f"{self.name} has {len(self.results)} results, not 1")
        return self.results[0]

    # -- structure manipulation ---------------------------------------------

    def erase(self) -> None:
        """Remove this op from its block; it must have no remaining uses."""
        for result in self.results:
            if result.has_uses:
                raise IRError(f"cannot erase {self.name}: result still in use")
        self.drop_all_references()
        if self.parent is not None:
            self.parent.operations.remove(self)
            self.parent = None

    def drop_all_references(self) -> None:
        """Detach this op (and nested ops) from the def-use graph."""
        for idx, operand in enumerate(self._operands):
            operand.uses.remove((self, idx))
        self._operands = []
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.operations):
                    op.drop_all_references()

    def walk(self) -> Iterator["Operation"]:
        """Iterate over this op and all nested ops, in pre-order.

        A block's operation list is copied when the walk enters it: ops
        appended to it afterwards are not visited, ops erased from it
        still are.  One generator frame, whatever the nesting depth.
        """
        yield self
        stack = [_children(self)]
        while stack:
            for op in stack[-1]:
                yield op
                if op.regions:
                    stack.append(_children(op))
                    break
            else:
                stack.pop()

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this operation.

        ``value_map`` maps values defined outside the clone to replacements;
        values defined inside are remapped automatically.
        """
        value_map = dict(value_map or {})
        return self._clone_into(value_map)

    def _clone_into(self, value_map: Dict[Value, Value]) -> "Operation":
        operands = [value_map.get(v, v) for v in self._operands]
        new_op = Operation(
            self.name,
            operands,
            [r.type for r in self.results],
            self.attributes,
        )
        for old_res, new_res in zip(self.results, new_op.results):
            value_map[old_res] = new_res
        for region in self.regions:
            new_region = Region()
            new_region.parent_op = new_op
            for block in region.blocks:
                new_block = Block([a.type for a in block.args])
                for old_arg, new_arg in zip(block.args, new_block.args):
                    value_map[old_arg] = new_arg
                new_region.add_block(new_block)
                for op in block.operations:
                    new_block.append(op._clone_into(value_map))
            new_op.regions.append(new_region)
        return new_op

    # -- misc ---------------------------------------------------------------

    def __str__(self) -> str:
        from repro.ir.printer import print_op

        return print_op(self)

    def __repr__(self) -> str:
        return f"<Operation {self.name} at {id(self):#x}>"


_BLOCKS = attrgetter("blocks")
_OPERATIONS = attrgetter("operations")


def _children(op: Operation) -> Iterator[Operation]:
    """``op``'s direct children; lazy, so a block is copied when reached."""
    blocks = chain.from_iterable(map(_BLOCKS, op.regions))
    return chain.from_iterable(map(list, map(_OPERATIONS, blocks)))


class Block:
    """A straight-line sequence of operations with typed arguments."""

    __slots__ = ("args", "operations", "parent")

    def __init__(self, arg_types: Sequence[Type] = ()):
        self.args: List[BlockArgument] = [
            BlockArgument(self, i, t) for i, t in enumerate(arg_types)
        ]
        self.operations: List[Operation] = []
        self.parent: Optional[Region] = None

    def append(self, op: Operation) -> Operation:
        if op.parent is not None:
            raise IRError(f"{op.name} already belongs to a block")
        op.parent = self
        self.operations.append(op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        if op.parent is not None:
            raise IRError(f"{op.name} already belongs to a block")
        op.parent = self
        self.operations.insert(index, op)
        return op

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)


class Region:
    """An ordered list of blocks owned by an operation."""

    __slots__ = ("blocks", "parent_op")

    def __init__(self, blocks: Optional[Sequence[Block]] = None):
        self.blocks: List[Block] = []
        self.parent_op: Optional[Operation] = None
        for block in blocks or ():
            self.add_block(block)

    def add_block(self, block: Block) -> Block:
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


class Module:
    """A top-level container: an op named ``builtin.module`` with one region.

    Provides a symbol table over directly nested symbol-defining ops (those
    carrying a ``sym_name`` attribute, e.g. ``func.func``).
    """

    def __init__(self, name: str = ""):
        region = Region([Block()])
        attrs: Dict[str, Attribute] = {}
        if name:
            attrs["sym_name"] = attr(name)
        self.op = Operation("builtin.module", [], [], attrs, [region])

    @property
    def body(self) -> Block:
        return self.op.regions[0].entry

    def append(self, op: Operation) -> Operation:
        return self.body.append(op)

    def symbols(self) -> Dict[str, Operation]:
        """Map from symbol name to the defining op at module scope."""
        table: Dict[str, Operation] = {}
        for op in self.body:
            name = op.attr("sym_name")
            if isinstance(name, str):
                if name in table:
                    raise IRError(f"duplicate symbol: {name}")
                table[name] = op
        return table

    def lookup(self, name: str) -> Operation:
        table = self.symbols()
        if name not in table:
            raise IRError(f"unknown symbol: @{name}")
        return table[name]

    def walk(self) -> Iterator[Operation]:
        return self.op.walk()

    def clone(self) -> "Module":
        """Deep-copy the whole module (passes mutate in place; clone first
        to keep an unoptimized baseline, e.g. for differential testing)."""
        copy = Module.__new__(Module)
        copy.op = self.op.clone()
        return copy

    def __str__(self) -> str:
        from repro.ir.printer import print_module

        return print_module(self)
