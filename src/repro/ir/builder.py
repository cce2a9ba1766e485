"""IR construction helpers: insertion points and a fluent builder."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.errors import IRError
from repro.ir.attributes import ATTRIBUTE_CLASSES, Attribute, AttrLike, attr
from repro.ir.core import Block, Module, Operation, Region, Value
from repro.ir.types import Type


class Builder:
    """Creates operations at a movable insertion point.

    >>> module = Module()
    >>> b = Builder.at_end(module.body)
    >>> c = b.create("arith.constant", result_types=[f64],
    ...              attributes={"value": 1.0}).result
    """

    #: When set, every op the builder inserts is also appended to it.
    sink: Optional[List[Operation]] = None

    def __init__(self, block: Optional[Block] = None, index: Optional[int] = None):
        self.block = block
        self.index = index  # None means "append at end"

    # -- positioning ---------------------------------------------------------

    @classmethod
    def at_end(cls, block: Block) -> "Builder":
        return cls(block, None)

    @classmethod
    def before(cls, op: Operation) -> "Builder":
        if op.parent is None:
            raise IRError("op has no parent block")
        return cls(op.parent, op.parent.operations.index(op))

    @contextmanager
    def at(self, block: Block, index: Optional[int] = None):
        """Temporarily move the insertion point."""
        saved = (self.block, self.index)
        self.block, self.index = block, index
        try:
            yield self
        finally:
            self.block, self.index = saved

    # -- creation -------------------------------------------------------------

    def insert(self, op: Operation) -> Operation:
        if self.block is None:
            raise IRError("builder has no insertion point")
        if self.index is None:
            self.block.append(op)
        else:
            self.block.insert(self.index, op)
            self.index += 1
        if self.sink is not None:
            self.sink.append(op)
        return op

    def create(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, AttrLike]] = None,
        regions: Optional[Sequence[Region]] = None,
    ) -> Operation:
        """Create an op and insert it at the current point, in this one
        frame (:meth:`Operation.create` and :meth:`insert` inlined)."""
        if self.block is None:
            raise IRError("builder has no insertion point")
        coerced: Dict[str, Attribute] = {}
        for key, value in attributes.items() if attributes else ():
            coerced[key] = value if value.__class__ in ATTRIBUTE_CLASSES \
                else attr(value)
        op = Operation(name, operands, result_types, coerced, regions)
        op.parent = self.block
        if self.index is None:
            self.block.operations.append(op)
        else:
            self.block.operations.insert(self.index, op)
            self.index += 1
        if self.sink is not None:
            self.sink.append(op)
        return op


def build_func(
    module: Module,
    name: str,
    arg_types: Sequence[Type],
    result_types: Sequence[Type],
    dialect: str = "func",
) -> tuple:
    """Create a function-like op with an entry block inside ``module``.

    Returns ``(func_op, entry_block, builder)`` where the builder points at
    the end of the entry block.  The function carries MLIR-style attributes:
    ``sym_name`` and ``function_type``.
    """
    from repro.ir.types import FunctionType

    entry = Block(arg_types)
    region = Region([entry])
    func_op = Operation.create(
        f"{dialect}.func",
        [],
        [],
        {
            "sym_name": name,
            "function_type": FunctionType(tuple(arg_types), tuple(result_types)),
        },
        [region],
    )
    module.append(func_op)
    return func_op, entry, Builder.at_end(entry)
