"""Elementwise producer/consumer fusion on lowered ``affine`` functions.

:class:`FusionPass` removes materialized intermediate arrays from the
loop nests that :mod:`repro.tensorpipe.lower_teil` emits.  The lowering
produces one ``memref.alloc`` + one perfect ``affine.for`` nest per
tensor op; a chain of elementwise ops therefore allocates, fills and
re-reads one full-size buffer per link.  When an intermediate buffer has
exactly one producer store and one consumer load, the producer's body
can instead be moved into the consumer at the load site (substituting
the producer's induction variables with the consumer's load indices),
after which the load, the producer nest and the allocation disappear.
:class:`~repro.tensorpipe.codegen.AffineCompiler` then vectorizes the
consumer nest into a single fused numpy expression — no intermediate
array traffic.

The rewrite is bit-for-bit neutral: it only ever elides a same-dtype
store/load round trip through memory, so the differential contract
(interpreter == compiled, enforced by ``irfuzz --mode exec``) gates it
at every optimization level.

What fuses
----------
A ``memref.alloc`` is a fusion candidate when

* its buffer has **exactly two uses**: one ``memref.store`` and one
  ``memref.load`` (multi-use intermediates would duplicate work — and
  reads through ``memref.copy`` are not loads — so neither fuses);
* the store sits in a **top-level perfect nest** whose body is
  straight-line pure compute (loads, arithmetic, exactly that one
  store), and the store's indices are precisely the nest's induction
  variables, each used once — i.e. the producer is *elementwise*.  A
  reduction's accumulator fails this on two counts: its store does not
  cover the zero-fill nest's IVs, and the buffer has two stores;
* every index of the consumer load is the induction variable of an
  enclosing loop with **identical bounds** to the producer loop for
  that dimension, so each read lands exactly on a written element
  (the consumer may be a deeper nest, e.g. a reduction *over* the
  fused value);
* no op between the producer nest and the consumer nest — nor anywhere
  inside the consumer nest — **writes a buffer the producer reads**:
  the producer's loads execute later after fusion, so their sources
  must be provably unchanged in between.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.core import Block, BlockArgument, Module, Operation, Value
from repro.ir.dialect import REGISTRY
from repro.ir.passes import Pass


def is_pure(op: Operation) -> bool:
    """Whether ``op`` is registered with the ``pure`` trait."""
    opdef = REGISTRY.opdefs.get(op.name)
    return opdef is not None and "pure" in opdef.traits


def loop_bounds(for_op: Operation) -> Tuple[int, int, int]:
    """``(lower, upper, step)`` of one ``affine.for``."""
    attributes = for_op.attributes
    return (attributes["lower"].value, attributes["upper"].value,
            attributes["step"].value)


def trip_count(lower: int, upper: int, step: int) -> int:
    """Iterations of ``range(lower, upper, step)``; ``step`` is not 0."""
    return max(0, -(-(upper - lower) // step))


def perfect_nest(for_op: Operation
                 ) -> Tuple[List[Operation], List[Operation]]:
    """Walk the perfect ``affine.for`` nest rooted at ``for_op`` down to
    its body.

    A level is perfect when its block holds exactly one inner loop plus
    the terminator.  Returns the loops, outermost first, and the ops of
    the first block that is not such a level (terminator included) — an
    ``affine.for`` among them means the nest is imperfect below there.
    """
    loops: List[Operation] = []
    current = for_op
    while True:
        loops.append(current)
        ops = list(current.regions[0].entry.operations)
        if len(ops) == 2 and ops[0].name == "affine.for" \
                and ops[1].name == "affine.yield":
            current = ops[0]
            continue
        return loops, ops


def _enclosing_for(value: Value) -> Optional[Operation]:
    """The ``affine.for`` whose induction variable ``value`` is, if any."""
    if not isinstance(value, BlockArgument):
        return None
    block = value.block
    region = block.parent
    owner = region.parent_op if region is not None else None
    if owner is not None and owner.name == "affine.for" \
            and block.args and value is block.args[0]:
        return owner
    return None


def top_level_ancestor(op: Operation, entry: Block) -> Optional[Operation]:
    """The ancestor of ``op`` (possibly itself) sitting directly in
    ``entry``, or None when ``op`` is not nested under it."""
    current: Optional[Operation] = op
    while current is not None:
        if current.parent is entry:
            return current
        block = current.parent
        if block is None or block.parent is None:
            return None
        current = block.parent.parent_op
    return None


_KNOWN_EFFECTS = frozenset({
    "memref.store", "memref.copy", "memref.load", "memref.alloc",
    "affine.for", "affine.yield", "func.return",
})


def _written_buffers(root: Operation) -> Optional[List[Value]]:
    """Buffers written anywhere under ``root`` (stores and copy dests).

    Returns None when ``root`` contains an op with *unknown* side effects
    (one outside the known memory ops that is not pure): callers must then
    assume everything is written.
    """
    written: List[Value] = []
    for op in root.walk():
        if op.name == "memref.store" or op.name == "memref.copy":
            written.append(op._operands[1])
        elif op.name not in _KNOWN_EFFECTS and not is_pure(op):
            return None
    return written


class _Producer:
    """A fusable producer: one top-level elementwise perfect nest."""

    def __init__(self, nest: Operation, loops: List[Operation],
                 body: List[Operation], store: Operation):
        self.nest = nest
        self.loops = loops          # outermost..innermost affine.for ops
        self.body = body            # straight-line ops, terminator excluded
        self.store = store
        # store indices are IVs, one per loop: dimension d -> its loop.
        self.dim_loops = [_enclosing_for(idx) for idx in store._operands[2:]]
        self.reads = [op._operands[0] for op in body
                      if op.name == "memref.load"]


def _match_producer(store: Operation, buffer: Value,
                    entry: Block) -> Optional[_Producer]:
    """Recognize the elementwise perfect nest that fills ``buffer``."""
    nest = top_level_ancestor(store, entry)
    if nest is None or nest.name != "affine.for":
        return None  # e.g. a rank-0 top-level store: nothing to fuse over
    loops, ops = perfect_nest(nest)
    for loop in loops:
        region = loop.regions[0]
        if len(region.blocks) != 1 or len(region.entry.args) != 1:
            return None
    if [o for o in ops if o.name == "affine.for"]:
        return None  # imperfect nest
    body = [o for o in ops if o.name != "affine.yield"]
    if store not in body:
        return None
    stores = [o for o in body if o.name == "memref.store"]
    if stores != [store]:
        return None
    for op in body:
        if op.regions:
            return None
        if op is store or op.name == "memref.load":
            continue
        if not is_pure(op):
            return None
    # Elementwise check: the store indices are exactly this nest's IVs,
    # each exactly once (reduction stores do not cover every loop).
    indices = store._operands[2:]
    ivs = [loop.regions[0].entry.args[0] for loop in loops]
    if len(indices) != len(ivs) or set(indices) != set(ivs) \
            or len(set(indices)) != len(indices):
        return None
    if buffer in [op._operands[0] for op in body
                  if op.name == "memref.load"]:
        return None  # self-referential (sequential-update) pattern
    return _Producer(nest, loops, body, store)


class FusionPass(Pass):
    """Fuse single-use elementwise producers into their consumers."""

    name = "fuse-elementwise"

    def __init__(self) -> None:
        self.fused = 0
        # Per sweep: the entry block's ops as it began (fusion only erases
        # top-level ops), their indices, and what each writes until a
        # fusion moves ops into it.
        self._top: List[Operation] = []
        self._position: Dict[Operation, int] = {}
        self._written: Dict[Operation, Optional[List[Value]]] = {}

    def run(self, module: Module) -> None:
        for op in list(module.body):
            if op.opname != "func":
                continue
            if op.attr("kernel_lang") != "affine" or not op.regions:
                continue
            self._run_on_func(op)

    def _run_on_func(self, func: Operation) -> None:
        entry = func.regions[0].entry
        changed = True
        while changed:
            changed = False
            self._top = top = list(entry.operations)
            self._position = {op: i for i, op in enumerate(top)}
            self._written = {}
            for alloc in [op for op in top if op.name == "memref.alloc"]:
                if alloc.parent is None:
                    continue  # erased by an earlier fusion this sweep
                if self._try_fuse(alloc, entry):
                    self.fused += 1
                    changed = True

    # -- one candidate ------------------------------------------------------

    def _try_fuse(self, alloc: Operation, entry: Block) -> bool:
        buffer = alloc.results[0]
        uses = list(buffer.uses)
        if len(uses) != 2:
            return False
        store = load = None
        for user, idx in uses:
            if user.name == "memref.store" and idx == 1:
                store = user
            elif user.name == "memref.load" and idx == 0:
                load = user
        if store is None or load is None:
            return False

        producer = _match_producer(store, buffer, entry)
        if producer is None:
            return False

        consumer = top_level_ancestor(load, entry)
        if consumer is None or consumer is producer.nest:
            return False
        position = self._position
        p_at, c_at = position[producer.nest], position[consumer]
        if c_at <= p_at:
            return False  # the load would have observed the zero-fill

        # Every load index must be the IV of an enclosing loop with the
        # same bounds as the producer loop for that dimension, so the
        # read provably lands on a written element.
        indices = load._operands[1:]
        if len(indices) != len(producer.dim_loops):
            return False
        for idx, dim_loop in zip(indices, producer.dim_loops):
            enclosing = _enclosing_for(idx)
            if enclosing is None or \
                    loop_bounds(enclosing) != loop_bounds(dim_loop):
                return False

        # The producer's reads execute later after fusion: every buffer
        # it loads must be untouched between the two nests and inside
        # the consumer nest itself (interleaving writes with the moved
        # reads would change which values the reads observe).
        reads = set(producer.reads)
        if reads:
            hazards = set()
            summaries = self._written
            for op in self._top[p_at + 1:c_at] + [consumer]:
                if op.parent is None:
                    continue  # erased by an earlier fusion this sweep
                if op not in summaries:
                    summaries[op] = _written_buffers(op)
                written = summaries[op]
                if written is None:
                    return False  # unknown side effects in between
                hazards.update(written)
            if hazards & reads:
                return False

        # Move the producer body to the load site, its IVs replaced by the
        # consumer's load indices; the erased nest keeps only its store.
        iv_map = dict(zip(producer.store._operands[2:], indices))
        block = load.parent
        moved = [op for op in producer.body if op is not producer.store]
        for op in moved:
            op.parent = block
            for i, operand in enumerate(op._operands):
                if operand in iv_map:
                    op._set_operand(i, iv_map[operand])
        at = block.operations.index(load)
        block.operations[at:at] = moved
        producer.store.parent.operations = [producer.store]
        stored = producer.store._operands[0]
        load.results[0].replace_all_uses_with(iv_map.get(stored, stored))
        load.erase()
        producer.nest.erase()
        alloc.erase()
        self._written.pop(consumer, None)
        return True
