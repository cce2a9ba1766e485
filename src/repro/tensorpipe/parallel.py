"""Tile runner for the ``compiled-parallel`` backend.

The tiled source that :class:`~repro.tensorpipe.codegen.AffineCompiler`
emits wraps each shardable nest in a closure ``fn(t0, t1)`` over a
half-open row range and calls ``__tile(fn, extent, work)``.  This module
provides that runner: small nests (``work`` below :data:`TILE_THRESHOLD`)
run serially as ``fn(0, extent)``; large ones split ``[0, extent)`` into
balanced contiguous chunks executed on one persistent thread pool.  The
generated numpy code releases the GIL inside array operations, so even
a modest pool overlaps memory stalls — and chunked evaluation of long
expression chains additionally keeps tiles cache-resident, which is why
the tiled path beats one full-array pass on large kernels.

Chunking never changes results: the split axis is an output (parallel)
dimension, every reduction loop runs in full inside each chunk, and
chunks write disjoint row ranges of the destination buffers.

The pool has :data:`WORKERS` threads, fixed for the process from the
host's CPU count; no caller sizes it, so no request can add threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

from repro.telemetry.trace import current_span, get_tracer

#: Worker threads of the tile pool and chunks per tiled nest.
WORKERS = min(8, os.cpu_count() or 1)

#: Minimum per-nest iteration count (loop-trip product) before the tile
#: runner fans out; below it the closure runs serially — thread handoff
#: would cost more than it buys.
TILE_THRESHOLD = 65536

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The shared pool, created on the first fan-out."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=WORKERS,
                                       thread_name_prefix="repro-tile")
        return _POOL


def split_ranges(extent: int, parts: int) -> List[tuple]:
    """Balanced contiguous half-open chunks covering ``[0, extent)``."""
    parts = max(1, min(parts, extent))
    base, rem = divmod(extent, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < rem else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def make_tile(chunks: Optional[int] = None,
              threshold: Optional[int] = None) -> Callable:
    """Build the ``__tile`` runner a tiled kernel invocation binds to;
    ``chunks`` and ``threshold`` default to :data:`WORKERS` and
    :data:`TILE_THRESHOLD`, read at call time."""
    chunks = WORKERS if chunks is None else chunks
    limit = TILE_THRESHOLD if threshold is None else threshold

    def __tile(fn: Callable[[int, int], None], extent: int,
               work: int) -> None:
        if chunks <= 1 or extent < 2 or work < limit:
            fn(0, extent)
            return
        ranges = split_ranges(extent, chunks)
        pool = _pool()
        tracer = get_tracer()
        if tracer.enabled:
            # Context vars do not cross the pool boundary, so capture the
            # submitting span here and hand it to each worker explicitly —
            # tile spans then parent under the stage/run span that fanned
            # out, and land on their worker's thread track in the trace.
            parent = current_span()

            def run_chunk(t0: int, t1: int) -> None:
                with tracer.span("tile", parent=parent, category="exec") \
                        as span:
                    span.attrs.update(rows=t1 - t0, t0=t0, work=work)
                    fn(t0, t1)

            futures = [pool.submit(run_chunk, t0, t1) for t0, t1 in ranges]
        else:
            futures = [pool.submit(fn, t0, t1) for t0, t1 in ranges]
        for future in futures:
            future.result()  # propagate worker exceptions

    return __tile
