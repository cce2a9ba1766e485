""":class:`PipelineSession` — the SDK's compile orchestrator.

One session owns a stage registry and a content-hash stage cache; each
stage run is timed by a ``stage:*`` span when tracing is on.  High-level
helpers (:meth:`compile`, :meth:`olympus`, :meth:`deploy`,
:meth:`format_sweep`) compose the built-in stages into the paper's
Fig. 2 flow; repeated compiles of the same kernel/config skip completed
phases, and the format sweep runs its configurations in input order on
the calling thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EverestError, PipelineError
from repro.pipeline.cache import StageCache, fingerprint
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

    A new session holds the standard Fig. 2 stages (``frontend-parse``,
    ``dialect-lowering``, ``canonicalize``, ``execute``, ``hls``,
    ``olympus``, ``schedule``).
    """

    def __init__(self) -> None:
        self.registry = StageRegistry()
        self.cache = StageCache()
        self.singleflight = SingleFlightStats()
        self._inflight: Dict[str, _Flight] = {}
        self._inflight_lock = threading.Lock()
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
                  detail: str = "", upstream: Optional[Callable] = None
                  ) -> Tuple[str, Any]:
        """Run one registered stage with caching, in a ``stage:{name}``
        span when tracing is on.

        ``key`` is the fingerprint of the upstream payload; the stage's own
        key chains it with the stage name and ``params``.  ``detail`` is
        the span's ``detail`` attribute.  ``upstream``, if given, builds a
        payload the stage may consume, and only when the stage executes.

        Cacheable stages are *single-flight*: when several threads request
        the same ``stage_key`` concurrently (``basecamp serve`` tenants),
        exactly one executes the stage while the others block on its
        result — identical in-flight compiles never duplicate work.  A
        leader failure is propagated to every waiter and nothing is
        cached, so the next caller retries cleanly.

        Returns ``(stage_key, result)``.
        """
        params = dict(params or {})
        return self._run_stage(name, payload, self.stage_key(
            name, params, key), params, detail, upstream)

    def _run_stage(self, name: str, payload: Any, stage_key: str,
                   params: Dict[str, Any], detail: str, upstream:
                   Optional[Callable], span: Any = None) -> Tuple[str, Any]:
        """:meth:`run_stage` once the stage key is known: the cache,
        single-flight and execute core.  With tracing on, a call without
        ``span`` reruns itself in a new stage span, which it annotates
        with the cache outcome and single-flight role."""
        if span is None:
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span(f"stage:{name}", category="stage") as span:
                    if detail:
                        span.attrs["detail"] = detail
                    return self._run_stage(name, payload, stage_key,
                                           params, detail, upstream, span)
        stage = self.registry.get(name)
        flight: Optional[_Flight] = None
        if stage.cacheable:
            hit, value = self.cache.lookup(stage_key)
            if hit:
                if span is not None:
                    span.attrs["cached"] = True
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
                return stage_key, flight.value
            # Leader: someone may have stored between our miss and our
            # claim of the flight slot (a non-single-flight store path);
            # re-check without skewing the hit/miss counters.
            hit, value = self.cache.peek(stage_key)
            if hit:
                self._land(stage_key, flight, value=value)
                if span is not None:
                    span.attrs["cached"] = True
                return stage_key, value
        try:
            if upstream is not None:
                payload = upstream()
            try:
                value = stage(payload, **params)
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
    # files itself.  ``lower``, ``compile`` and ``execute_lowered`` try
    # the warm index first, and index a chain's values after it ran.

    def frontend(self, source: str) -> Tuple[str, Any]:
        """Parse EKL source; returns ``(key, kernel)``."""
        return self.run_stage("frontend-parse", source,
                              key=fingerprint("ekl-source", source))

    def lower(self, source: str) -> CompileResult:
        """Frontend + dialect lowering: source -> verified affine module,
        canonicalized (fold + DCE + CSE through the worklist rewriter)
        and fused.

        Only the ``canonicalize`` result is cached: on a miss its leader
        runs the uncached ``dialect-lowering`` and optimizes that module
        in place.
        """
        request, epoch = ("lower", source), self.registry.epoch
        if (warm := self.cache.warm(request, epoch, 2)) is not None:
            return CompileResult(source, *warm)
        parse_key, kernel = self.frontend(source)
        raw_key = self.stage_key("dialect-lowering", None, parse_key)
        key, module = self.run_stage(
            "canonicalize", None, key=raw_key,
            upstream=lambda: self._run_stage(
                "dialect-lowering", kernel, raw_key, {}, "", None)[1])
        if not {"frontend-parse", "canonicalize"} & self.registry.uncached:
            self.cache.remember(request, epoch, kernel, module, None, key)
        return CompileResult(source, kernel, module, key=key)

    def execute(self, source: str, inputs, *,
                backend: str = "compiled") -> ExecutionResult:
        """Compile to the CPU executor and run it over ``inputs``.

        The compilation itself (codegen + ``compile()``) is a cached
        ``execute`` stage keyed on the lowered module; the run over the
        given inputs is never cached (inputs are arbitrary numpy arrays);
        it is timed into :attr:`ExecutionResult.seconds` and, when tracing
        is on, an ``execute/run`` span.
        ``backend`` names any registered executor backend
        (:func:`repro.tensorpipe.backends.registered_backends`); an
        unknown name raises with the available ones.
        """
        return self.execute_lowered(self.lower(source), inputs,
                                    backend=backend)

    def execute_lowered(self, lowered: CompileResult, inputs, *,
                        backend: str = "compiled") -> ExecutionResult:
        """The ``execute`` stage and one kernel run on what :meth:`lower`
        returned — for a caller that lowered first to learn the kernel's
        argument list (``basecamp run``, ``POST /execute``)."""
        request, epoch = ("execute", lowered.key, backend), \
            self.registry.epoch
        if (warm := self.cache.warm(request, epoch, 1)) is not None:
            kernel, key = warm
        else:
            key, kernel = self.run_stage(
                "execute", (lowered.kernel, lowered.module),
                key=lowered.key, params={"backend": backend},
                detail=backend)
            if "execute" not in self.registry.uncached:
                self.cache.remember(request, epoch, kernel, key)
        tracer = get_tracer()
        with tracer.span("execute/run", category="exec",
                         attrs={"backend": kernel.backend}
                         if tracer.enabled else None):
            start = time.perf_counter()
            outputs = kernel.run(inputs)
            seconds = time.perf_counter() - start
        return ExecutionResult(kernel, outputs, seconds, key=key)

    def compile(self, source: str, *,
                number_format: Optional[str] = None) -> CompileResult:
        """The full compile flow: parse, lower, synthesize.

        ``number_format`` is a compact spec (``"f32"``, ``"fixed<8.8>"``,
        ``"posit<16,1>"``); ``None`` synthesizes in f64.
        """
        spec = _format_spec(number_format)
        request, epoch = ("hls", source, spec), self.registry.epoch
        if (warm := self.cache.warm(request, epoch, 3)) is not None:
            return CompileResult(source, *warm)
        result = self.lower(source)
        key, report = self.run_stage("hls", (result.kernel, result.module),
                                     key=result.key,
                                     params={"number_format": spec},
                                     detail=spec or "f64")
        values = (result.kernel, result.module, report, key)
        if not {"frontend-parse", "canonicalize", "hls"} \
                & self.registry.uncached:
            self.cache.remember(request, epoch, *values)
        return CompileResult(source, *values)

    def olympus(self, source: str, *, device: str = "alveo-u55c",
                number_format: Optional[str] = None) -> OlympusResult:
        """Compile then explore/generate the system architecture, up to
        as many replicas as ``device`` has memory channels."""
        compiled = self.compile(source, number_format=number_format)
        key, result = self.run_stage("olympus", compiled.report,
                                     key=compiled.key,
                                     params={"device": device},
                                     detail=device)
        # The cached OlympusResult is shared across callers: hand each
        # call its own shallow copy instead of mutating the cached object
        # (concurrent tenants would see each other's writes).
        return replace(result, key=key)

    def deploy(self, source: str, *, device: str = "alveo-u55c",
               nodes: int = 4) -> DeploymentPlan:
        """The end-to-end Fig. 2 flow, through the runtime schedule."""
        olympus = self.olympus(source, device=device)
        _, plan = self.run_stage("schedule", olympus, key=olympus.key,
                                 params={"nodes": nodes})
        return plan

    # -- DSE sweep ---------------------------------------------------------------------

    def format_sweep(self, source: str,
                     formats: Sequence[Optional[str]]) -> Dict[str, Any]:
        """Synthesize one kernel under many number formats (§V-B DSE).

        Returns ``{spec: KernelReport}`` in the order ``formats`` was
        given, each spec without its whitespace.  ``None`` (or ``""``,
        or ``"f64"``) selects the default double-precision path.
        """
        compiled = self.lower(source)
        payload = (compiled.kernel, compiled.module)
        results: Dict[str, Any] = {}
        for fmt in formats:
            spec = _format_spec(fmt)
            results[spec or "f64"] = self.run_stage(
                "hls", payload, key=compiled.key,
                params={"number_format": spec}, detail=spec or "f64")[1]
        return results


def _format_spec(number_format: Optional[str]) -> Optional[str]:
    """The ``hls`` stage's ``number_format``: the spec without its
    whitespace, or None for f64 (``None``, ``""`` or ``"f64"``), so that
    each format has one cache entry whatever its spelling."""
    spec = "".join(number_format.split()) if number_format else ""
    return None if spec in ("", "f64") else spec


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
