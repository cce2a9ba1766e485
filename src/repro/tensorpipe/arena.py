"""Static arena memory planning for lowered ``affine`` functions.

The lowering pipeline materializes every intermediate tensor as a
top-level ``memref.alloc`` in the function's entry block, so buffer
lifetimes are fully static: a buffer is born at its alloc statement and
dies after the last top-level statement that (transitively, through loop
nests) touches it.  :func:`plan_arena` turns that observation into a
classic static memory plan —

1. **liveness**: the live range of each alloc is the half-open span of
   entry-block statement indices ``[start, end]`` covering the alloc and
   every statement whose nest uses the buffer;
2. **first-fit placement**: allocs are placed in program order at the
   lowest offset (aligned to the element size) that does not overlap any
   already-placed slot with an intersecting live range.

Two buffers share bytes exactly when their live ranges are disjoint, so
the resulting :class:`ArenaPlan` is correct by construction for any
executor that runs top-level statements in program order — which all of
ours do.  The compiled backend (``compiled-arena``) carves numpy views
out of one ``np.empty(total_bytes, np.uint8)`` arena per run and
re-establishes the ``memref.alloc`` zero-init contract
(:data:`repro.ir.analysis.MEMREF_ALLOC_ZERO_INIT`) with an explicit
``.fill(0)`` on every slot — slots are *reused*, so the fill is what
keeps arena execution bitwise-identical to the per-buffer ``np.zeros``
path.

The same planner backs the HLS engine's
``KernelReport.planned_arena_bytes`` (with the number format's element
widths via ``element_bytes``), which sizes the scratch PLM of an Olympus
kernel instance: this plan is Olympus's PLM sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ir import Operation, types as T
from repro.ir.fusion import top_level_ancestor
from repro.tensorpipe.affine_interp import _dtype_for

__all__ = [
    "ArenaPlan",
    "ArenaSlot",
    "default_element_bytes",
    "plan_arena",
]


def default_element_bytes(element: T.Type) -> int:
    """Bytes per element as the numpy executors store it.

    This intentionally follows :func:`repro.tensorpipe.affine_interp.
    _dtype_for` (unknown element types run as float64) rather than the
    declared bit width, so arena views always match the arrays the
    reference interpreter would allocate.
    """
    return int(np.dtype(_dtype_for(element)).itemsize)


@dataclass(frozen=True)
class ArenaSlot:
    """One planned buffer: an aligned byte range plus its live range."""

    name: str
    offset: int
    size: int
    align: int
    start: int          # entry-block statement index of the alloc
    end: int            # last top-level statement index using the buffer
    shape: Tuple[int, ...]
    dtype: str

    def overlaps_lifetime(self, start: int, end: int) -> bool:
        return self.start <= end and start <= self.end

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape) or "scalar"
        return (f"{self.name}: [{self.offset}, {self.offset + self.size}) "
                f"{dims}:{self.dtype} live [{self.start}, {self.end}]")


@dataclass
class ArenaPlan:
    """The output of :func:`plan_arena` for one affine function.

    ``total_bytes`` is the arena's peak footprint; ``unshared_bytes`` is
    the arena the same slots would need with no sharing (each at its own
    aligned offset, in placement order), so ``saving`` is the fraction
    of memory the liveness-based sharing reclaimed.  First-fit never
    places a slot past its unshared offset, so the saving is never
    negative, even where alignment pads the arena.
    ``op_slots`` maps ``id(alloc_op)`` to its slot for the codegen that
    planned against the same in-memory function.
    """

    func_name: str
    slots: List[ArenaSlot] = field(default_factory=list)
    total_bytes: int = 0
    unshared_bytes: int = 0
    op_slots: Dict[int, ArenaSlot] = field(default_factory=dict, repr=False)

    @property
    def saving(self) -> float:
        if self.unshared_bytes <= 0:
            return 0.0
        return 1.0 - self.total_bytes / self.unshared_bytes

    def __str__(self) -> str:
        lines = [f"arena {self.func_name}: {self.total_bytes} bytes "
                 f"({len(self.slots)} slots, "
                 f"{self.saving * 100.0:.0f}% shared)"]
        lines.extend(f"  {slot}" for slot in self.slots)
        return "\n".join(lines)


def _align_up(offset: int, align: int) -> int:
    if align <= 1:
        return offset
    return -(-offset // align) * align


def _first_fit(placed: List[ArenaSlot], start: int, end: int,
               size: int, align: int) -> int:
    """Lowest aligned offset whose byte range is free for ``[start, end]``."""
    live = sorted(
        (slot for slot in placed if slot.overlaps_lifetime(start, end)),
        key=lambda slot: slot.offset,
    )
    offset = 0
    for slot in live:
        if offset + size <= slot.offset:
            break
        offset = _align_up(max(offset, slot.offset + slot.size), align)
    return offset


def plan_arena(
    func: Operation,
    *,
    element_bytes: Optional[Callable[[T.Type], int]] = None,
    order: Optional[Mapping[int, int]] = None,
    skip: Collection[int] = (),
) -> ArenaPlan:
    """Plan one arena for the top-level ``memref.alloc`` ops of ``func``.

    ``element_bytes`` maps an element type to its storage width;
    the default matches the numpy executors
    (:func:`default_element_bytes`), and the HLS engine substitutes the
    active number format's widths.  Allocs with non-static shapes (or
    nested inside loops, whose lifetime is per-iteration) receive no
    slot and keep their private allocation.

    An executor that does not run the entry block statement by statement
    passes ``order``: ``id(statement) -> execution step``, statements
    that run interleaved (one fused loop) sharing a step, so their
    buffers are live together and never share bytes.  ``skip`` holds
    the ``id`` of allocs that need no slot (contracted away).
    """
    width = element_bytes or default_element_bytes
    entry = func.regions[0].entry
    statements = list(entry.operations)
    stmt_index = order if order is not None else \
        {id(op): i for i, op in enumerate(statements)}

    plan = ArenaPlan(func_name=str(func.attr("sym_name") or "<func>"))
    for index, op in enumerate(statements):
        if op.name != "memref.alloc" or (skip and id(op) in skip):
            continue
        if order is not None:
            index = order[id(op)]
        ref = op.results[0].type
        if not isinstance(ref, T.MemRefType):
            continue
        shape = tuple(ref.shape)
        if not all(isinstance(dim, int) and dim >= 0 for dim in shape):
            continue  # dynamic shape: leave it privately allocated
        align = width(ref.element)
        elements = 1
        for dim in shape:
            elements *= dim
        size = align * elements
        plan.unshared_bytes = _align_up(plan.unshared_bytes, align) + size

        end = index
        for user, _operand_index in op.results[0].uses:
            statement = top_level_ancestor(user, entry)
            user_index = None if statement is None \
                else stmt_index.get(id(statement))
            # A user outside the entry block's statement nests (should
            # not happen for lowered functions) pins the buffer live to
            # the end of the function.
            end = max(end,
                      len(statements) if user_index is None else user_index)

        offset = _first_fit(plan.slots, index, end, size, align)
        slot = ArenaSlot(
            name=f"buf{len(plan.slots)}", offset=offset, size=size,
            align=align, start=index, end=end, shape=shape,
            dtype=str(ref.element),
        )
        plan.slots.append(slot)
        plan.op_slots[id(op)] = slot
        plan.total_bytes = max(plan.total_bytes, offset + size)
    return plan
