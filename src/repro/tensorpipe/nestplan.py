"""The nest plan: loop fusion, buffer contraction and arena slots.

The lowering emits one ``memref.alloc`` plus one loop nest per tensor
op, so an executor that runs the entry block statement by statement
writes every intermediate tensor to memory in full and reads it back.
:func:`plan_nests` decides, once per function, how the C emitter
(:mod:`repro.tensorpipe.cbackend`) avoids that.  The plan is a tree of
:class:`Stmt` and :class:`Group` items per *scope* (the entry block, or
the concatenated bodies of one group's member loops) plus three facts
per local buffer.

Fusion groups
-------------
Consecutive ``affine.for`` loops of one scope join a :class:`Group`
(emitted as one loop, member bodies in program order) when their
``(lower, upper, step)`` are identical and, for every buffer that one
member writes and another touches, *every* access in every member
indexes that buffer with the member's own induction variable at one
common dimension.  Iteration ``i`` of each member then touches only
slice ``i`` of the buffer, so running ``B1(i); B2(i)`` for each ``i``
instead of all of ``B1`` then all of ``B2`` reorders no dependent pair
of accesses: a transposed, gathered, shifted or broadcast access of a
group-written buffer fails the rule and starts a new group.  Each
member keeps its own iteration order, so reductions accumulate in
program order and results stay bitwise.  A straight-line statement
between two loops moves in front of the open group when it touches
nothing the group conflicts with (allocs and pure ops always do);
anything else, any op with unknown side effects, a ``memref.copy``
ends the group.  The rule is applied again to a group's body, so the
inner loops of fused nests fuse too.

Contraction
-----------
A local ``memref.alloc`` that only loads and stores use, all inside one
group and all indexed by the group's variable at one dimension, needs
one slice per iteration: that dimension is dropped, repeatedly down the
group tree, and what is left becomes a C local of the innermost such
group (a scalar when nothing is left).  A slice is bounded by
:data:`LOCAL_BYTES_MAX` (and a function by :data:`STACK_BYTES_MAX`), as
it lives on the calling thread's stack; a larger one stays in the arena.

Arena and zero-fill
-------------------
Every other alloc gets a :func:`~repro.tensorpipe.arena.plan_arena`
offset, with liveness taken over plan steps, not statements: the
members of one group run interleaved and their buffers are live
together.  ``memref.alloc`` promises zeros
(:data:`repro.ir.analysis.MEMREF_ALLOC_ZERO_INIT`); a slot or local is
in ``zeroed`` unless the plan proves that every element is stored
before any is loaded.  A load that follows a store to the same element
in one straight-line run is recorded in ``forwards`` and reads the
stored scalar instead of memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.ir import Operation, Value, types as T
from repro.ir.analysis import MEMREF_ALLOC_ZERO_INIT
from repro.ir.fusion import is_pure, loop_bounds
from repro.tensorpipe.arena import (
    ArenaPlan,
    default_element_bytes,
    plan_arena,
)

__all__ = ["Group", "NestPlan", "Stmt", "plan_nests"]

#: Largest per-iteration slice kept as a C local, and the most one
#: function may keep in locals: they live on the stack of whichever
#: thread calls the kernel (a daemon worker, not only the main thread).
LOCAL_BYTES_MAX: int = 4096
STACK_BYTES_MAX: int = 65536

# The arena and the C locals are zero-filled with memset / ``= {0}``.
assert MEMREF_ALLOC_ZERO_INIT == 0


@dataclass(frozen=True)
class _Touch:
    """How one loop (or group) accesses one buffer: whether it stores to
    it, and the dimensions that *every* access indexes with the loop's
    own induction variable."""

    written: bool
    dims: FrozenSet[int]

    def merge(self, other: "_Touch") -> "_Touch":
        return _Touch(self.written or other.written, self.dims & other.dims)


@dataclass(eq=False)
class Stmt:
    """One op emitted as it stands."""

    op: Operation


@dataclass(eq=False)
class Group:
    """Member loops emitted as one loop over their shared bounds."""

    loops: List[Operation]
    touched: Dict[Value, _Touch]
    body: List["Item"] = field(default_factory=list)
    #: Contracted buffers declared afresh in every iteration.
    locals: List[Value] = field(default_factory=list)

    @property
    def ivs(self) -> List[Value]:
        """The members' induction variables: one variable once fused."""
        return [_iv(loop) for loop in self.loops]

    @property
    def iv(self) -> Value:
        return self.ivs[0]

    @property
    def bounds(self) -> Tuple[int, int, int]:
        return loop_bounds(self.loops[0])

    def accepts(self, loop: Operation, touched: Dict[Value, _Touch]) -> bool:
        if loop_bounds(loop) != self.bounds:
            return False
        for buffer, touch in touched.items():
            mine = self.touched.get(buffer)
            if mine is not None and (mine.written or touch.written) \
                    and not mine.dims & touch.dims:
                return False
        return True

    def add(self, loop: Operation, touched: Dict[Value, _Touch]) -> None:
        self.loops.append(loop)
        for buffer, touch in touched.items():
            mine = self.touched.get(buffer)
            self.touched[buffer] = touch if mine is None \
                else mine.merge(touch)


Item = Union[Stmt, Group]


@dataclass(eq=False)
class NestPlan:
    """What :func:`plan_nests` decided for one affine function."""

    items: List[Item]
    arena: ArenaPlan
    #: Contracted buffer -> the dimensions dropped from it.
    contracted: Dict[Value, Tuple[int, ...]]
    #: Buffers (arena slots and locals) that must be zero-filled.
    zeroed: Set[Value]
    #: ``id(load op)`` -> the stored value the load reads instead.
    forwards: Dict[int, Value]

    def kept_dims(self, buffer: Value) -> List[int]:
        """The dimensions of ``buffer`` that contraction left."""
        dropped = self.contracted.get(buffer, ())
        return [d for d in range(len(_static_shape(buffer) or ()))
                if d not in dropped]

    @property
    def groups(self) -> List[Group]:
        """The loops of the entry scope, fused or not."""
        return [item for item in self.items if isinstance(item, Group)]

    @property
    def fused_groups(self) -> int:
        return sum(len(group.loops) > 1 for group in self.groups)


def _iv(loop: Operation) -> Value:
    return loop.regions[0].entry.args[0]


def _static_shape(buffer: Value) -> Optional[Tuple[int, ...]]:
    """The extents of a memref value, or None when one is dynamic."""
    ref = buffer.type
    if not isinstance(ref, T.MemRefType):
        return None
    shape = tuple(dim for dim in ref.shape if dim is not None and dim >= 0)
    return shape if len(shape) == len(ref.shape) else None


def _summarize(loop: Operation) -> Tuple[Dict[Value, _Touch], bool]:
    """Per-buffer accesses under ``loop``, and whether it holds an op
    whose effects are unknown (such a loop never fuses)."""
    iv = _iv(loop)
    touched: Dict[Value, _Touch] = {}
    opaque = False

    def note(buffer: Value, written: bool, indices: Sequence[Value]) -> None:
        touch = _Touch(written, frozenset(
            d for d, index in enumerate(indices) if index is iv))
        mine = touched.get(buffer)
        touched[buffer] = touch if mine is None else mine.merge(touch)

    for op in loop.walk():
        if op.name == "memref.load":
            note(op.operands[0], False, op.operands[1:])
        elif op.name == "memref.store":
            note(op.operands[1], True, op.operands[2:])
        elif op.name not in ("affine.for", "affine.yield") \
                and not is_pure(op):
            opaque = True
            for operand in op.operands:
                if isinstance(operand.type, T.MemRefType):
                    note(operand, True, ())
    return touched, opaque


def _touches(item: Item, buffer: Value) -> bool:
    if isinstance(item, Group):
        return buffer in item.touched
    return any(buffer in op.operands for op in item.op.walk())


def _hoists(op: Operation, group: Group) -> bool:
    """May ``op``, met after ``group`` opened, run before the group?"""
    if op.name == "memref.alloc" or is_pure(op):
        return True
    if op.name == "memref.load":
        touch = group.touched.get(op.operands[0])
        return touch is None or not touch.written
    if op.name == "memref.store":
        return op.operands[1] not in group.touched
    return False


class _Planner:
    def __init__(self) -> None:
        # Member induction variable -> its group's (they are one C
        # variable), so index tuples of different members compare equal.
        self.canon: Dict[Value, Value] = {}
        self.forwards: Dict[int, Value] = {}

    def key(self, indices: Sequence[Value]) -> Tuple[Value, ...]:
        return tuple(self.canon.get(index, index) for index in indices)

    def scope(self, ops: Sequence[Operation]) -> List[Item]:
        items: List[Item] = []
        open_group: Optional[Group] = None
        for op in ops:
            if op.name in ("affine.yield", "func.return"):
                continue
            if op.name == "affine.for":
                touched, opaque = _summarize(op)
                if open_group is not None and not opaque \
                        and open_group.accepts(op, touched):
                    open_group.add(op, touched)
                    continue
                group = Group([op], touched)
                items.append(group)
                open_group = None if opaque else group
            elif open_group is not None and _hoists(op, open_group):
                items.insert(len(items) - 1, Stmt(op))
            else:
                items.append(Stmt(op))
                open_group = None
        for item in items:
            if isinstance(item, Group):
                for iv in item.ivs:
                    self.canon[iv] = item.iv
                item.body = self.scope(
                    [op for loop in item.loops
                     for op in loop.regions[0].entry.operations])
        self._forward(items)
        return items

    def _forward(self, items: Sequence[Item]) -> None:
        stored: Dict[Tuple[Value, Tuple[Value, ...]], Value] = {}
        for item in items:
            if isinstance(item, Group):
                stored.clear()
                continue
            op = item.op
            if op.name == "memref.store":
                value, buffer = op.operands[0], op.operands[1]
                for known in [k for k in stored if k[0] is buffer]:
                    del stored[known]
                ref = buffer.type
                if isinstance(ref, T.MemRefType) and value.type == ref.element:
                    stored[buffer, self.key(op.operands[2:])] = value
            elif op.name == "memref.load":
                hit = stored.get((op.operands[0], self.key(op.operands[1:])))
                if hit is not None:
                    self.forwards[id(op)] = hit
            elif op.name != "memref.alloc" and not is_pure(op):
                stored.clear()

    def contract(self, items: Sequence[Item]) -> Dict[Value, Tuple[int, ...]]:
        contracted: Dict[Value, Tuple[int, ...]] = {}
        budget = STACK_BYTES_MAX
        for item in items:
            if isinstance(item, Group) or item.op.name != "memref.alloc":
                continue
            buffer = item.op.results[0]
            ref, shape = buffer.type, _static_shape(buffer)
            if shape is None or not isinstance(ref, T.MemRefType):
                continue
            if not all((user.name, index) in (("memref.load", 0),
                                              ("memref.store", 1))
                       for user, index in buffer.uses):
                continue
            dims: List[int] = []
            holder: Optional[Group] = None
            scope = items
            while True:
                touching = [it for it in scope if _touches(it, buffer)]
                if len(touching) != 1 or not isinstance(touching[0], Group):
                    break
                common = touching[0].touched[buffer].dims
                if not common:
                    break
                holder = touching[0]
                dims.append(min(common))
                scope = holder.body
            if holder is None:
                continue
            size = default_element_bytes(ref.element)
            for d, dim in enumerate(shape):
                if d not in dims:
                    size *= dim
            if size > min(LOCAL_BYTES_MAX, budget):
                continue
            budget -= size
            holder.locals.append(buffer)
            contracted[buffer] = tuple(sorted(dims))
        return contracted

    def stored_first(self, items: Sequence[Item], buffer: Value,
                     kept: Sequence[int]) -> bool:
        """Is every ``kept`` dimension of ``buffer`` stored in full before
        any element is loaded, in ``items`` (its declaring scope)?

        Proven for one shape: the first item touching the buffer leads,
        through loops that each run at least once, to a store indexed by
        a distinct full-extent loop variable per kept dimension, and the
        only loads under that first item come after the store in its
        scope, at the same indices (so in the iteration that stored).
        """
        loops: List[Group] = []
        while True:
            position = next((k for k, it in enumerate(items)
                             if _touches(it, buffer)), None)
            if position is None:
                return True
            first = items[position]
            if isinstance(first, Stmt):
                break
            lower, upper, step = first.bounds
            if not step or step < 0 or upper <= lower:
                return False
            loops.append(first)
            items = first.body
        store = first.op
        if store.name != "memref.store" or store.operands[1] is not buffer:
            return False
        shape = _static_shape(buffer)
        if shape is None:
            return False
        indices = self.key(store.operands[2:])
        by_iv = {group.iv: group for group in loops}
        if len({indices[d] for d in kept}) != len(kept) or any(
                indices[d] not in by_iv
                or by_iv[indices[d]].bounds != (0, shape[d], 1)
                for d in kept):
            return False
        if not loops:
            return True
        allowed = {
            id(op) for it in items[position + 1:]
            for root in (it.loops if isinstance(it, Group) else [it.op])
            for op in root.walk()
            if op.name == "memref.load" and op.operands[0] is buffer
            and self.key(op.operands[1:]) == indices}
        return all(
            op.name == "memref.store" or id(op) in allowed
            for loop in loops[0].loops for op in loop.walk()
            if buffer in op.operands)


def plan_nests(func: Operation) -> NestPlan:
    """Plan fusion, contraction and arena placement for one affine
    function (see the module docstring for the rules)."""
    planner = _Planner()
    items = planner.scope(list(func.regions[0].entry.operations))
    contracted = planner.contract(items)

    order: Dict[int, int] = {}
    for step, item in enumerate(items):
        for op in (item.loops if isinstance(item, Group) else [item.op]):
            order[id(op)] = step
    arena = plan_arena(
        func, order=order,
        skip={id(buffer.owner_op()) for buffer in contracted})

    plan = NestPlan(items=items, arena=arena, contracted=contracted,
                    zeroed=set(), forwards=planner.forwards)

    def check(scope: Sequence[Item], buffers: Sequence[Value]) -> None:
        for buffer in buffers:
            if not planner.stored_first(scope, buffer,
                                        plan.kept_dims(buffer)):
                plan.zeroed.add(buffer)
        for item in scope:
            if isinstance(item, Group):
                check(item.body, item.locals)

    check(items, [item.op.results[0] for item in items
                  if isinstance(item, Stmt)
                  and id(item.op) in arena.op_slots])
    return plan
