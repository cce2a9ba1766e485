"""Pass infrastructure: the :class:`Pass` base and the stock CSE pass.

Passes transform a :class:`~repro.ir.core.Module` in place; a caller
runs them in sequence itself (the pipeline's ``canonicalize`` stage does,
timing each as a telemetry span).

Greedy pattern rewriting (:class:`~repro.ir.rewrite.RewritePattern` and
its worklist driver) lives in :mod:`repro.ir.rewrite`.
"""

from __future__ import annotations

from operator import attrgetter

from repro.ir.core import Module
from repro.ir.dialect import REGISTRY


class Pass:
    """Base class: subclasses set ``name`` and implement :meth:`run`."""

    name = "<unnamed>"

    def run(self, module: Module) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Pass {self.name}>"


# -- stock passes ----------------------------------------------------------------
#
# CSE only ever erases; ``run`` returns whether anything was, so a driver
# iterating it to a fixpoint need not re-count the module.


_EXACT_KEY = attrgetter("exact_key")
_TYPE_KEY = attrgetter("type._key")


class CommonSubexpressionElimination(Pass):
    """Deduplicate identical pure ops within each block (no regions):
    same name, operands, result types and attributes (by ``exact_key``;
    both keys are kept on the immutable attributes and types)."""

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
            attributes = op.attributes
            key = (
                op.name,
                tuple(op._operands),
                tuple(sorted(zip(attributes,
                                 map(_EXACT_KEY, attributes.values()))))
                if attributes else (),
                tuple(map(_TYPE_KEY, op.results)),
            )
            earlier = seen.setdefault(key, op)
            if earlier is not op:
                for old, new in zip(op.results, earlier.results):
                    old.replace_all_uses_with(new)
                op.erase()
                changed = True
        return changed
