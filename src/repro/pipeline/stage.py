"""The :class:`Stage` protocol and the per-session stage registry.

A stage is a named, pure transformation ``fn(payload, **params) -> payload``
over pipeline payloads (EKL source text, kernel ASTs, IR modules, HLS
reports, Olympus systems, runtime schedules).  Stages are the unit of
caching and instrumentation in :class:`repro.pipeline.PipelineSession`:
the session composes them into compile flows, fingerprints their inputs,
and skips re-execution on a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set

from repro.errors import PipelineError


@dataclass(frozen=True)
class Stage:
    """One named phase of the compilation pipeline.

    ``fn`` receives the upstream payload plus keyword parameters and
    returns the downstream payload.  ``cacheable=False`` opts a stage out
    of the session's content-hash cache (for stages with side effects or
    non-deterministic results).
    """

    name: str
    fn: Callable[..., Any]
    description: str = ""
    cacheable: bool = True

    def __call__(self, payload: Any, **params: Any) -> Any:
        return self.fn(payload, **params)


@dataclass
class StageRegistry:
    """Name -> :class:`Stage` mapping owned by one session.

    Each registration bumps the stage's *generation*; the session folds
    it into cache keys so replacing a stage (``replace=True``) never
    serves results cached from the previous implementation.  It also
    bumps ``epoch``, which invalidates the session's whole warm index.
    """

    _stages: Dict[str, Stage] = field(default_factory=dict)
    _generations: Dict[str, int] = field(default_factory=dict)
    epoch: int = 0
    uncached: Set[str] = field(default_factory=set)  # cacheable=False

    def register(self, stage: Stage, *, replace: bool = False) -> Stage:
        if stage.name in self._stages and not replace:
            raise PipelineError(
                f"stage {stage.name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._stages[stage.name] = stage
        self._generations[stage.name] = \
            self._generations.get(stage.name, -1) + 1
        self.epoch += 1
        self.uncached = {name for name, registered in self._stages.items()
                         if not registered.cacheable}
        return stage

    def generation(self, name: str) -> int:
        return self._generations.get(name, 0)

    def get(self, name: str) -> Stage:
        try:
            return self._stages[name]
        except KeyError:
            raise PipelineError(
                f"unknown pipeline stage {name!r}; "
                f"registered: {', '.join(sorted(self._stages)) or '(none)'}"
            ) from None

    def names(self) -> List[str]:
        return list(self._stages)

    def __contains__(self, name: str) -> bool:
        return name in self._stages
