"""Pass infrastructure: passes, pipelines and the stock DCE/CSE passes.

Passes transform a :class:`~repro.ir.core.Module` in place.  The
:class:`PassManager` runs a pipeline, optionally verifying between passes,
and records per-pass wall time (surfaced by ``basecamp compile -v``).

Greedy pattern rewriting (:class:`~repro.ir.rewrite.RewritePattern` and
its worklist driver) lives in :mod:`repro.ir.rewrite`.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from repro.ir.attributes import exact_key
from repro.ir.core import Module
from repro.ir.dialect import REGISTRY


class Pass:
    """Base class: subclasses set ``name`` and implement :meth:`run`."""

    name = "<unnamed>"

    def run(self, module: Module) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Pass {self.name}>"


class LambdaPass(Pass):
    """Wrap a plain callable as a pass."""

    def __init__(self, name: str, fn: Callable[[Module], None]):
        self.name = name
        self._fn = fn

    def run(self, module: Module) -> None:
        self._fn(module)


class PassManager:
    """Runs a pipeline of passes with optional inter-pass verification."""

    def __init__(self, verify_each: bool = True):
        self.passes: List[Pass] = []
        self.verify_each = verify_each
        self.timings: List[Tuple[str, float]] = []

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: Module) -> None:
        from repro.ir.verifier import verify

        self.timings = []
        for pass_ in self.passes:
            started = time.perf_counter()
            pass_.run(module)
            self.timings.append((pass_.name, time.perf_counter() - started))
            if self.verify_each:
                verify(module)

    def report(self) -> str:
        lines = ["pass pipeline timing:"]
        for name, seconds in self.timings:
            lines.append(f"  {name:<40s} {seconds * 1e3:8.3f} ms")
        return "\n".join(lines)


# -- stock passes ----------------------------------------------------------------
#
# DCE and CSE only ever erase; ``run`` returns whether anything was, so a
# driver iterating them to a fixpoint need not re-count the module.


class DeadCodeElimination(Pass):
    """Erase pure ops whose results are all unused (iteratively).

    Ops carrying the ``interface`` trait (kernel arguments, declarations)
    are part of a function's contract and survive even when unused.
    """

    name = "dce"

    def run(self, module: Module) -> bool:
        opdefs = REGISTRY.opdefs
        changed = False
        progress = True
        while progress:
            progress = False
            for op in list(module.walk()):
                if not op.results or op.parent is None:
                    continue
                for result in op.results:
                    if result.uses:
                        break
                else:
                    opdef = opdefs.get(op.name)
                    if (opdef is not None and "pure" in opdef.traits
                            and "interface" not in opdef.traits):
                        op.erase()
                        progress = changed = True
        return changed


class CommonSubexpressionElimination(Pass):
    """Deduplicate identical pure ops within each block (no regions)."""

    name = "cse"

    def run(self, module: Module) -> bool:
        changed = False
        for op in module.walk():
            for region in op.regions:
                for block in region.blocks:
                    changed |= self._run_on_block(block)
        return changed

    def _run_on_block(self, block) -> bool:
        opdefs = REGISTRY.opdefs
        changed = False
        seen = {}
        for op in list(block.operations):
            if op.regions:
                continue
            opdef = opdefs.get(op.name)
            if opdef is None or "pure" not in opdef.traits:
                continue
            key = (
                op.name,
                tuple(op._operands),
                tuple(sorted([(k, exact_key(v))
                              for k, v in op.attributes.items()]))
                if op.attributes else (),
                tuple([r.type for r in op.results]),
            )
            earlier = seen.setdefault(key, op)
            if earlier is not op:
                for old, new in zip(op.results, earlier.results):
                    old.replace_all_uses_with(new)
                op.erase()
                changed = True
        return changed
