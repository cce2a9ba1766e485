"""Unified compile orchestration: the SDK flow of paper Fig. 2 / §IV.

Where :mod:`repro.basecamp` is the *user's* single point of access to the
EVEREST SDK, this package is the *programmatic* one: a
:class:`PipelineSession` registers the SDK's phases (frontend parse,
dialect lowering, format DSE/HLS, Olympus system generation, runtime
scheduling) as named :class:`Stage` objects behind a uniform protocol and
orchestrates them with

* **content-hash stage caching** — repeated compiles of the same
  kernel/configuration skip completed phases;
* data-format and Olympus **design-space sweeps** that return their
  results in input order;
* per-stage timing as ``stage:*`` telemetry spans while tracing is on,
  printed as a table by :func:`repro.telemetry.stage_summary`.

Quick use::

    from repro import telemetry
    from repro.pipeline import PipelineSession

    tracer = telemetry.enable()                   # record stage spans
    session = PipelineSession()
    result = session.compile(ekl_source)          # parse -> lower -> HLS
    sweep = session.format_sweep(ekl_source, ["f32", "fixed<8.8>"])
    print(telemetry.stage_summary(tracer))
"""

from repro.pipeline.cache import CacheStats, StageCache, fingerprint
from repro.pipeline.session import (
    PipelineSession,
    SingleFlightStats,
    get_session,
    reset_session,
)
from repro.pipeline.stage import Stage, StageRegistry
from repro.pipeline.stages import (
    CompileResult,
    DeploymentPlan,
    ExecutionResult,
    OlympusResult,
    builtin_stages,
)

__all__ = [
    "CacheStats",
    "StageCache",
    "fingerprint",
    "PipelineSession",
    "SingleFlightStats",
    "get_session",
    "reset_session",
    "Stage",
    "StageRegistry",
    "CompileResult",
    "DeploymentPlan",
    "ExecutionResult",
    "OlympusResult",
    "builtin_stages",
]
