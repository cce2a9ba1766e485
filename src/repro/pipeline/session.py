""":class:`PipelineSession` — the SDK's compile orchestrator.

One session owns a stage registry, a content-hash stage cache and a
:class:`PipelineReport`.  High-level helpers (:meth:`compile`,
:meth:`olympus`, :meth:`deploy`, :meth:`format_sweep`,
:meth:`olympus_sweep`) compose the built-in stages into the paper's Fig. 2
flow; repeated compiles of the same kernel/config skip completed phases,
and DSE sweeps run their configurations in input order on the calling
thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EverestError, PipelineError
from repro.pipeline.cache import StageCache, fingerprint
from repro.pipeline.report import PipelineReport, StageClock
from repro.pipeline.stage import Stage, StageRegistry
from repro.telemetry.trace import get_tracer
from repro.pipeline.stages import (
    CompileResult,
    DeploymentPlan,
    ExecutionResult,
    OlympusResult,
    builtin_stages,
)


@dataclass
class SingleFlightStats:
    """Deduplication counters for concurrent identical stage runs.

    ``leaders`` counts stage executions that other callers piggybacked
    on; ``waits`` counts the callers that blocked on a leader instead of
    recomputing.  ``basecamp serve`` surfaces both under ``/stats``.
    """

    leaders: int = 0
    waits: int = 0


class _Flight:
    """One in-flight stage execution other callers can wait on.

    ``span_id`` is the leader's stage-span id when tracing is enabled;
    waiter spans record it as ``leader_span`` so a trace shows which
    flight a blocked caller piggybacked on.
    """

    __slots__ = ("done", "value", "error", "waiters", "span_id")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.waiters = 0
        self.span_id = 0


class PipelineSession:
    """Registers named stages and orchestrates cached, instrumented runs.

    Parameters
    ----------
    register_builtins:
        Install the standard Fig. 2 stages (``frontend-parse``,
        ``dialect-lowering``, ``canonicalize``, ``execute``, ``hls``,
        ``olympus``, ``schedule``).
    """

    def __init__(self, *, register_builtins: bool = True):
        self.registry = StageRegistry()
        self.cache = StageCache()
        self.report = PipelineReport()
        self.singleflight = SingleFlightStats()
        self._inflight: Dict[str, _Flight] = {}
        self._inflight_lock = threading.Lock()
        if register_builtins:
            for stage in builtin_stages():
                self.registry.register(stage)

    # -- stage management --------------------------------------------------------------

    def register(self, name: str, fn: Callable[..., Any], *,
                 description: str = "", cacheable: bool = True,
                 replace: bool = False) -> Stage:
        """Register a custom stage under ``name``."""
        return self.registry.register(
            Stage(name, fn, description, cacheable), replace=replace)

    def stages(self) -> List[str]:
        return self.registry.names()

    # -- the cached stage runner -------------------------------------------------------

    def run_stage(self, name: str, payload: Any, *, key: str,
                  params: Optional[Dict[str, Any]] = None,
                  runtime_params: Optional[Dict[str, Any]] = None,
                  detail: str = "", upstream: Optional[Callable] = None
                  ) -> Tuple[str, Any]:
        """Run one registered stage with caching and timing.

        ``key`` is the fingerprint of the upstream payload; the stage's own
        key chains it with the stage name and ``params``.
        ``runtime_params`` are forwarded to the stage function but excluded
        from the fingerprint (the session report, callbacks — values that
        do not change the result).  ``upstream``, if given, builds a payload
        the stage may consume, and only when the stage executes.

        Cacheable stages are *single-flight*: when several threads request
        the same ``stage_key`` concurrently (``basecamp serve`` tenants),
        exactly one executes the stage while the others block on its
        result — identical in-flight compiles never duplicate work.  A
        leader failure is propagated to every waiter and nothing is
        cached, so the next caller retries cleanly.

        Returns ``(stage_key, result)``.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._run_stage(name, payload, key=key, params=params,
                                   runtime_params=runtime_params,
                                   detail=detail, span=None, upstream=upstream)
        with tracer.span(f"stage:{name}", category="stage") as span:
            if detail:
                span.attrs["detail"] = detail
            return self._run_stage(name, payload, key=key, params=params,
                                   runtime_params=runtime_params,
                                   detail=detail, span=span, upstream=upstream)

    def _run_stage(self, name: str, payload: Any, *, key: str,
                   params: Optional[Dict[str, Any]],
                   runtime_params: Optional[Dict[str, Any]],
                   detail: str, span: Optional[Any],
                   upstream: Optional[Callable]) -> Tuple[str, Any]:
        """The cache/single-flight/execute core behind :meth:`run_stage`.

        ``span`` is the caller's open stage span (None when tracing is
        off); this method only annotates it — cache outcome and
        single-flight role — so the trace explains where the time went
        without a second timing source.
        """
        stage = self.registry.get(name)
        params = dict(params or {})
        stage_key = self.stage_key(name, params, key)
        flight: Optional[_Flight] = None
        if stage.cacheable:
            hit, value = self.cache.lookup(stage_key)
            if hit:
                if span is not None:
                    span.attrs["cached"] = True
                self.report.record(name, 0.0, cached=True, detail=detail)
                return stage_key, value
            with self._inflight_lock:
                leader = stage_key not in self._inflight
                if leader:
                    flight = self._inflight[stage_key] = _Flight()
                    if span is not None:
                        flight.span_id = span.span_id
                else:
                    flight = self._inflight[stage_key]
                    flight.waiters += 1
                    self.singleflight.waits += 1
            if not leader:
                if span is not None:
                    span.attrs["singleflight"] = "waiter"
                    span.attrs["leader_span"] = flight.span_id
                flight.done.wait()
                if flight.error is not None:
                    raise flight.error
                if span is not None:
                    span.attrs["cached"] = True
                self.report.record(name, 0.0, cached=True, detail=detail)
                return stage_key, flight.value
            # Leader: someone may have stored between our miss and our
            # claim of the flight slot (a non-single-flight store path);
            # re-check without skewing the hit/miss counters.
            hit, value = self.cache.peek(stage_key)
            if hit:
                self._land(stage_key, flight, value=value)
                if span is not None:
                    span.attrs["cached"] = True
                self.report.record(name, 0.0, cached=True, detail=detail)
                return stage_key, value
        call_params = {**params, **(runtime_params or {})}
        try:
            if upstream is not None:
                payload = upstream()
            with StageClock() as clock:
                try:
                    value = stage(payload, **call_params)
                except EverestError:
                    raise
                except (TypeError, ValueError, KeyError) as error:
                    raise PipelineError(
                        f"stage {name!r} failed: {error}") from error
        except BaseException as error:
            if flight is not None:
                self._land(stage_key, flight, error=error)
            raise
        if stage.cacheable:
            self.cache.store(stage_key, value)
        if flight is not None:
            self._land(stage_key, flight, value=value)
            if span is not None and flight.waiters:
                span.attrs["singleflight"] = "leader"
                span.attrs["waiters"] = flight.waiters
        self.report.record(name, clock.seconds, cached=False, detail=detail)
        return stage_key, value

    def _land(self, stage_key: str, flight: _Flight, *, value: Any = None,
              error: Optional[BaseException] = None) -> None:
        """Publish a leader's outcome and release the in-flight slot."""
        flight.value = value
        flight.error = error
        with self._inflight_lock:
            self._inflight.pop(stage_key, None)
            if flight.waiters:
                self.singleflight.leaders += 1
        flight.done.set()

    def stage_key(self, name: str,
                  params: Optional[Dict[str, Any]] = None,
                  upstream_key: str = "") -> str:
        """The cache key one stage run would use (shared by all probes).

        Includes the stage's registration generation so a stage replaced
        via ``register(..., replace=True)`` never serves results cached
        from the previous implementation.
        """
        return fingerprint(name, self.registry.generation(name),
                           params or {}, upstream_key)

    # -- high-level flows --------------------------------------------------------------
    #
    # Every ``source`` below is EKL text, never a path: the serve daemon
    # hands tenants' strings straight through, and the CLI reads kernel
    # files itself.

    def frontend(self, source: str) -> Tuple[str, Any]:
        """Parse EKL source; returns ``(key, kernel)``."""
        return self.run_stage("frontend-parse", source,
                              key=fingerprint("ekl-source", source))

    def lower(self, source: str, *, opt_level: int = 1) -> CompileResult:
        """Frontend + dialect lowering: source -> verified affine module.

        ``opt_level`` selects the optimization pipeline: 0 is the raw
        lowering, 1 (default) canonicalizes (fold + DCE + CSE through the
        worklist rewriter), 2 additionally inlines ``func.call`` ops.  Only
        the ``canonicalize`` result is cached: on a miss its leader runs the
        uncached ``dialect-lowering`` and optimizes that module in place.
        """
        parse_key, kernel = self.frontend(source)
        params = {"canonicalize": opt_level > 0}
        key, module = self.run_stage(
            "canonicalize", None,
            key=self.stage_key("dialect-lowering", params, parse_key),
            params={"opt_level": opt_level},
            runtime_params={"report": self.report}, detail=f"O{opt_level}",
            upstream=lambda: self.run_stage(
                "dialect-lowering", kernel, key=parse_key, params=params)[1])
        return CompileResult(source, kernel, module, key=key)

    def execute(self, source: str, inputs, *,
                backend: str = "compiled",
                opt_level: int = 1) -> ExecutionResult:
        """Compile to the CPU executor and run it over ``inputs``.

        The compilation itself (codegen + ``compile()``) is a cached
        ``execute`` stage keyed on the lowered module; the run over the
        given inputs is never cached (inputs are arbitrary numpy arrays)
        but is timed into the session report as an auxiliary event.
        ``backend`` names any registered executor backend
        (:func:`repro.tensorpipe.backends.registered_backends`); an
        unknown name raises with the available ones.
        """
        return self.execute_lowered(self.lower(source, opt_level=opt_level),
                                    inputs, backend=backend)

    def execute_lowered(self, lowered: CompileResult, inputs, *,
                        backend: str = "compiled") -> ExecutionResult:
        """The ``execute`` stage and one kernel run on what :meth:`lower`
        returned — for a caller that lowered first to learn the kernel's
        argument list (``basecamp run``, ``POST /execute``)."""
        key, kernel = self.run_stage(
            "execute", (lowered.kernel, lowered.module), key=lowered.key,
            params={"backend": backend}, detail=backend)
        tracer = get_tracer()
        with tracer.span("execute/run", category="exec",
                         attrs={"backend": kernel.backend}
                         if tracer.enabled else None):
            start = time.perf_counter()
            outputs = kernel.run(inputs)
            seconds = time.perf_counter() - start
        self.report.record("execute/run", seconds, cached=False,
                           detail=kernel.backend, aux=True)
        return ExecutionResult(kernel, outputs, seconds, key=key)

    def compile(self, source: str, *,
                number_format: Optional[str] = None,
                clock_mhz: float = 300.0,
                opt_level: int = 1) -> CompileResult:
        """The full compile flow: parse, lower, synthesize.

        ``number_format`` is a compact spec (``"f32"``, ``"fixed<8.8>"``,
        ``"posit<16,1>"``); ``None`` synthesizes in f64.  ``opt_level``
        is forwarded to :meth:`lower`.
        """
        result = self.lower(source, opt_level=opt_level)
        if number_format is not None:
            # One hls entry per format, not per spelling: "" is f64 too.
            number_format = "".join(number_format.split()) or "f64"
        if number_format == "f64":
            number_format = None  # share the default-format cache entry
        params = {"number_format": number_format, "clock_mhz": clock_mhz}
        key, report = self.run_stage("hls", (result.kernel, result.module),
                                     key=result.key, params=params,
                                     detail=number_format or "f64")
        # `result` is this call's own CompileResult (lower() builds a
        # fresh one); attaching the cached report to it never mutates a
        # cache-shared object.
        result.report = report
        result.key = key
        return result

    def olympus(self, source: str, *, device: str = "alveo-u55c",
                max_replicas: Optional[int] = None,
                number_format: Optional[str] = None,
                opt_level: int = 1) -> OlympusResult:
        """Compile then explore/generate the system architecture."""
        compiled = self.compile(source, number_format=number_format,
                                opt_level=opt_level)
        return self._olympus_stage(compiled, device, max_replicas)

    def _olympus_stage(self, compiled: CompileResult, device: str,
                       max_replicas: Optional[int]) -> OlympusResult:
        params = {"device": device, "max_replicas": max_replicas,
                  "system_name": f"{compiled.report.name}_system"}
        key, result = self.run_stage("olympus", compiled.report,
                                     key=compiled.key, params=params,
                                     detail=device)
        # The cached OlympusResult is shared across callers: hand each
        # call its own shallow copy instead of mutating the cached object
        # (concurrent tenants would see each other's writes).
        return replace(result, key=key)

    def deploy(self, source: str, *, device: str = "alveo-u55c",
               nodes: int = 4, opt_level: int = 1) -> DeploymentPlan:
        """The end-to-end Fig. 2 flow, through the runtime schedule."""
        olympus = self.olympus(source, device=device, opt_level=opt_level)
        _, plan = self.run_stage("schedule", olympus, key=olympus.key,
                                 params={"nodes": nodes})
        return plan

    # -- DSE sweeps --------------------------------------------------------------------

    def format_sweep(self, source: str,
                     formats: Sequence[Optional[str]], *,
                     clock_mhz: float = 300.0) -> Dict[str, Any]:
        """Synthesize one kernel under many number formats (§V-B DSE).

        Returns ``{spec: KernelReport}`` in the order ``formats`` was
        given, each spec without its whitespace.  ``None`` (or ``""``,
        or ``"f64"``) selects the default double-precision path.
        """
        compiled = self.lower(source)
        payload = (compiled.kernel, compiled.module)
        results: Dict[str, Any] = {}
        for fmt in formats:
            spec = "".join((fmt or "").split()) or "f64"
            params = {"number_format": None if spec == "f64" else spec,
                      "clock_mhz": clock_mhz}
            results[spec] = self.run_stage("hls", payload, key=compiled.key,
                                           params=params, detail=spec)[1]
        return results

    def olympus_sweep(self, source: str, devices: Sequence[str], *,
                      max_replicas: Optional[int] = None
                      ) -> Dict[str, OlympusResult]:
        """Explore the system design space across target devices (§V-C).

        Returns ``{device: OlympusResult}`` in input order.
        """
        compiled = self.compile(source)
        return {device: self._olympus_stage(compiled, device, max_replicas)
                for device in devices}


_GLOBAL_SESSION: Optional[PipelineSession] = None
_GLOBAL_SESSION_LOCK = threading.Lock()


def get_session() -> PipelineSession:
    """The process-wide default session (used by the ``basecamp`` CLI).

    Guarded by a lock: two concurrent first callers (server threads,
    parallel test workers) must share one session — an unlocked
    check-then-set would hand each its own session with a split cache.
    """
    global _GLOBAL_SESSION
    with _GLOBAL_SESSION_LOCK:
        if _GLOBAL_SESSION is None:
            _GLOBAL_SESSION = PipelineSession()
        return _GLOBAL_SESSION


def reset_session() -> None:
    """Drop the process-wide session (tests, long-lived services)."""
    global _GLOBAL_SESSION
    with _GLOBAL_SESSION_LOCK:
        _GLOBAL_SESSION = None
