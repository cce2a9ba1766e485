"""Tests for the PipelineSession compile-orchestration subsystem."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.errors import EverestError, FrontendError, PipelineError
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.ir import print_module
from repro.numerics import make_format
from repro.pipeline import (
    PipelineSession,
    Stage,
    fingerprint,
    get_session,
    reset_session,
)

FORMATS = ["f64", "f32", "bf16", "fixed<8.8>", "posit<16,1>"]

#: name -> (parts, digest): ``fingerprint(*parts)`` as the recursive
#: canonicalization computed it.  A stage key is a cache entry, and the
#: ``key`` of every ``/compile`` and ``/execute`` reply: a faster key path
#: must give the same hex, byte for byte.
GOLDEN = {
    "none": ((None,), "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91"),
    "str": (("hls",), "09c61fad387cd36b46a90d50d9f2f34873e68167b231bba594d8eabe74decee9"),
    "empty str": (("",), "6f49cdbd80e1b95d5e6427e1501fc217790daee87055fa5b4e71064288bddede"),
    "int": ((42,), "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049"),
    "big int": ((2**70,), "acd0f1dd559f310ffd1ff6001f395e05cb29cbc008a5b9930d28e6decd29a4bd"),
    "negative int": ((-7,), "a770d3270c9dcdedf12ed9fd70444f7c8a95c26cae3cae9bd867499090a2f14b"),
    "float": ((300.0,), "a970559125d5ccd0dbbbb7685636bbcae5ce7cac4e8d1c6954d2467616a9db8c"),
    "negative zero": ((-0.0,), "c26617c7ccbcaa6631b45d851b8cf56e21d2ca624bdb1193afdbd4b560702cec"),
    "zero": ((0.0,), "8aed642bf5118b9d3c859bd4be35ecac75b6e873cce34e7b6f554b06f75550d7"),
    "nan": ((float("nan"),), "9b2d5b4678781e53038e91ea5324530a03f27dc1d0e5f6c9bc9d493a23be9de0"),
    "inf": ((float("inf"), float("-inf")), "00bcbfbaca21773631e2103035acc8aca6f9861fd1443adc3ca1cc623bcc3435"),
    "bool next to int": ((True, 1, False, 0), "9f1bb24b69e6c77e8e82890ab9c087df601e9fa05a2c2acfaed3795977a13d78"),
    "bytes": ((b"\x00ekl\xff",), "d382412cc1d9530e43758de319276274141d157960be4e9ca91555fd42e8e700"),
    "np.float64": ((np.float64(1.5),), "9f02224c5cf02fc11ad4ea523e417a764211c4e3f31216ceda54a65c49d69031"),
    "list": (([1, "a", None, 2.5],), "3726f7bf9be5eec330c8cdfd5d572ea65071be7434cff939785488e488d18dad"),
    "tuple": (((1, ("a", b"b"), [True]),), "48d787867a4b5398f001e30d7ff431409ceba4f814d9ca9238036cb604a1f43e"),
    "nested dict": (({"outer": {"b": [1, 2], "a": (None,)}, "x": -0.0},), "95dec1c6c2bfab75e1884ccf86ca97e442d7a95c990d3a668f25d06b57b86d0c"),
    # Sorted by key: "a" < "a1" < "a_".  Sorting the "k:v" texts would
    # put "a1:2" before "a:1" (":" sorts between "1" and "_").
    "key order": (({"a_": 3, "a1": 2, "a": 1},), "0a342372cf13b9074a40faa6a7cda3afeb8a79a91e23024403c73a9cc2121395"),
    "int keys": (({10: "x", 9: "y", "1": "z"},), "c2eb42112103c9d48a211d5ba9f1c8123e1a752c626ec5ba4bee9d14477aa8e4"),
    # 1 and "1" both print as "1": the item order falls to the values.
    "colliding keys": (({1: "b", "1": "a"},), "df0bae34771b34484f4c305c897cba263229274e8097d76506f200466b933047"),
    "dict in list": (([{"b": 1, "a": {"d": 2.0, "c": None}}],), "43f8097ba4d210b936f3b9669b4dbd4ae55ea4cc7d250113ab4a920cdf454d2b"),
    "dict subclass": ((OrderedDict([("b", 1), ("a", 2)]),), "c8c943f9321eb7f98834b58391eee848d458c7b35211fc4911cdb1bbd877b74a"),
    "subclass values": (({"a": np.float64(1.5), "b": np.int64(2)},), "2f97b350c583d3684d75f9030039245c63d1aa4eccf78201716781a3d43022bd"),
    "empty dict": (({},), "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    "stage key": (("hls", 0, {"number_format": None, "clock_mhz": 300.0}, "f" * 64), "6d30bd178f0d5592752b9e48a2b561b1d33291066b39735084771c5460e1a060"),
    "number format": ((make_format("fixed<8.8>"),), "15d0de5596e943d8a8eee79501bfec77f676362a5e2976f4ff10fc42a57543a3"),
    "format in params": (("hls", {"number_format": make_format("posit<16,1>")}), "db7589776f889f1381f2d56b1e298bb2e255e487eb4fae8461ca3297d3766cdc"),
    "no parts": ((), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

#: ``PipelineSession().compile(FIG3_MAJOR_ABSORBER).key``.
FIG3_KEY = "7d242d65d8a4a02e0ab9cbfd3b2ba771bd5f6c9b606dee8829201703032d31ee"


class TestFingerprint:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_digest(self, name):
        parts, digest = GOLDEN[name]
        assert fingerprint(*parts) == digest

    def test_fig3_compile_key_is_golden(self):
        assert PipelineSession().compile(FIG3_MAJOR_ABSORBER).key == FIG3_KEY

    def test_deterministic_and_order_insensitive_for_dicts(self):
        a = fingerprint("hls", {"number_format": "f32", "clock_mhz": 300.0})
        b = fingerprint("hls", {"clock_mhz": 300.0, "number_format": "f32"})
        assert a == b

    def test_distinguishes_params(self):
        base = fingerprint("hls", {"number_format": None}, "k")
        other = fingerprint("hls", {"number_format": "f32"}, "k")
        assert base != other

    def test_distinguishes_upstream_keys(self):
        assert fingerprint("s", {}, "key1") != fingerprint("s", {}, "key2")

    def test_rejects_address_based_identity(self):
        class Opaque:  # default __str__/__repr__ print the address
            pass

        with pytest.raises(TypeError, match="fingerprint"):
            fingerprint("stage", {"param": Opaque()})

    def test_accepts_objects_with_deterministic_repr(self):
        a = fingerprint(make_format("fixed<8.8>"))
        b = fingerprint(make_format("fixed<8.8>"))
        assert a == b


class TestStageCaching:
    def test_second_compile_hits_every_stage(self):
        session = PipelineSession()
        first = session.compile(FIG3_MAJOR_ABSORBER)
        stats = session.cache.stats
        misses, hits = stats.misses, stats.hits
        second = session.compile(FIG3_MAJOR_ABSORBER)
        # All three stages (parse, lowering, hls) came from the cache.
        assert stats.misses == misses
        assert stats.hits == hits + 3
        assert second.report is first.report
        assert second.module is first.module

    def test_format_change_is_a_miss_for_hls_only(self):
        session = PipelineSession()
        session.compile(FIG3_MAJOR_ABSORBER)
        misses = session.cache.stats.misses
        session.compile(FIG3_MAJOR_ABSORBER, number_format="f32")
        assert session.cache.stats.misses == misses + 1  # the hls stage

    def test_explicit_f64_shares_default_cache_entry(self):
        session = PipelineSession()
        default = session.compile(FIG3_MAJOR_ABSORBER)
        misses = session.cache.stats.misses
        explicit = session.compile(FIG3_MAJOR_ABSORBER, number_format="f64")
        assert session.cache.stats.misses == misses
        assert explicit.report is default.report

    def test_format_spellings_share_one_hls_entry(self):
        """Whitespace and "" spell no new format: each of these used to
        synthesize the same kernel again under a key of its own."""
        session = PipelineSession()
        for spec in (None, "f64", "", " f64", "f64 ", " f 6 4\t"):
            session.compile(FIG3_MAJOR_ABSORBER, number_format=spec)
        assert len(session.cache) == 3  # parse, canonicalize, hls
        for spec in ("posit<16,1>", "posit<16, 1>", " posit< 16,1 > "):
            session.compile(FIG3_MAJOR_ABSORBER, number_format=spec)
        swept = session.format_sweep(FIG3_MAJOR_ABSORBER,
                                     ["", " f64", "posit<16, 1>"])
        assert list(swept) == ["f64", "posit<16,1>"]
        assert len(session.cache) == 4

    def test_cache_stats_exposed(self):
        session = PipelineSession()
        session.compile(FIG3_MAJOR_ABSORBER)
        session.compile(FIG3_MAJOR_ABSORBER)
        assert session.cache.stats.hits >= 3
        assert session.cache.stats.misses >= 3
        assert 0.0 < session.cache.stats.hit_rate < 1.0

    def test_distinct_sources_do_not_share_entries(self):
        session = PipelineSession()
        session.frontend(FIG3_MAJOR_ABSORBER)
        with pytest.raises(EverestError):
            session.frontend("kernel broken(x: [4]f64) -> {")
        # The failure did not poison the cache for the good kernel.
        misses = session.cache.stats.misses
        session.frontend(FIG3_MAJOR_ABSORBER)
        assert session.cache.stats.misses == misses


class TestSourceHandling:
    def test_a_path_is_parsed_as_text(self, tmp_path):
        source = tmp_path / "k.ekl"
        source.write_text(FIG3_MAJOR_ABSORBER)
        with pytest.raises(FrontendError, match="^1:"):
            PipelineSession().lower(str(source))

    def test_inline_text_accepted(self):
        result = PipelineSession().lower(FIG3_MAJOR_ABSORBER)
        assert result.kernel.name == "tau_major"


class TestCompileEquivalence:
    def test_matches_hand_chained_lowering(self):
        from repro.frontends.ekl import parse_kernel
        from repro.frontends.ekl.lower import (
            lower_ekl_to_esn,
            lower_kernel_to_ekl,
        )
        from repro.ir import FusionPass
        from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine

        kernel = parse_kernel(FIG3_MAJOR_ABSORBER)
        legacy = lower_teil_to_affine(
            lower_esn_to_teil(lower_ekl_to_esn(lower_kernel_to_ekl(kernel)))
        )
        # The session's canonicalize stage fuses elementwise chains
        # after canonicalization; mirror it for the equivalence check.
        FusionPass().run(legacy)
        result = PipelineSession().lower(FIG3_MAJOR_ABSORBER)
        assert print_module(result.module) == print_module(legacy)
        assert result.kernel.name == kernel.name

    def test_compile_report_matches_direct_synthesis(self):
        from repro.hls import synthesize_kernel

        session = PipelineSession()
        result = session.compile(FIG3_MAJOR_ABSORBER)
        direct = synthesize_kernel(result.module, result.kernel.name)
        assert result.report.total_cycles == direct.total_cycles
        assert result.report.resources.lut == direct.resources.lut


class TestParallelDSE:
    def test_format_sweep_matches_independent_compiles(self):
        sweep = PipelineSession().format_sweep(FIG3_MAJOR_ABSORBER, FORMATS)
        assert list(sweep) == FORMATS
        for spec in FORMATS:
            # The oracle shares no session (and so no cache) with the sweep.
            alone = PipelineSession().compile(
                FIG3_MAJOR_ABSORBER, number_format=spec).report
            assert sweep[spec].total_cycles == alone.total_cycles
            assert sweep[spec].resources.lut == alone.resources.lut
            assert sweep[spec].number_format == alone.number_format

    def test_olympus_sweep_over_devices(self):
        results = PipelineSession().olympus_sweep(
            FIG3_MAJOR_ABSORBER, ["alveo-u55c", "alveo-u280"])
        assert list(results) == ["alveo-u55c", "alveo-u280"]
        for device, result in results.items():
            assert result.system.fits()
            assert result.device_name == device
        # Each sweep result carries its own stage key (distinct per
        # device) so downstream run_stage chaining cannot collide.
        keys = [result.key for result in results.values()]
        assert all(keys) and len(set(keys)) == len(keys)


class TestStageProtocol:
    def test_custom_stage_registration_and_run(self, tracer):
        session = PipelineSession()
        session.register("double", lambda payload: payload * 2,
                         description="toy stage")
        key, value = session.run_stage("double", 21, key="root")
        assert value == 42
        # Cached on the second run with the same upstream key.
        _, again = session.run_stage("double", 21, key="root")
        assert again == 42
        first, second = tracer.spans()
        assert first.name == second.name == "stage:double"
        assert "cached" not in first.attrs and second.attrs["cached"]

    def test_duplicate_stage_rejected(self):
        session = PipelineSession()
        with pytest.raises(PipelineError):
            session.register("hls", lambda payload: payload)
        session.register("hls", lambda payload: payload, replace=True)

    def test_replaced_stage_does_not_serve_stale_cache(self):
        session = PipelineSession()
        session.register("shout", lambda payload: payload.upper())
        _, first = session.run_stage("shout", "hi", key="root")
        assert first == "HI"
        session.register("shout", lambda payload: payload + "!",
                         replace=True)
        _, second = session.run_stage("shout", "hi", key="root")
        assert second == "hi!"  # re-ran, not the replaced stage's cache

    def test_unknown_stage_rejected(self):
        with pytest.raises(PipelineError):
            PipelineSession().run_stage("nope", None, key="root")

    def test_builtin_stage_names(self):
        names = PipelineSession().stages()
        for expected in ("frontend-parse", "dialect-lowering", "execute",
                         "hls", "olympus", "schedule"):
            assert expected in names


class TestExecuteStage:
    SOURCE = """
    kernel scaled {
      index i: 6
      input a[i]: f64
      output y
      y = a * 3.0 + 1.0
    }
    """

    def test_execute_runs_and_matches_interpreter(self):
        import numpy as np

        session = PipelineSession()
        inputs = {"a": np.arange(6.0)}
        result = session.execute(self.SOURCE, inputs)
        assert result.backend == "compiled"
        reference = session.execute(self.SOURCE, inputs,
                                    backend="interpreter")
        assert reference.backend == "interpreter"
        np.testing.assert_array_equal(result.outputs["y"],
                                      reference.outputs["y"])
        np.testing.assert_array_equal(result.outputs["y"],
                                      np.arange(6.0) * 3.0 + 1.0)

    def test_compilation_cached_across_runs(self):
        import numpy as np

        session = PipelineSession()
        session.execute(self.SOURCE, {"a": np.zeros(6)})
        hits_before = session.cache.stats.hits
        result = session.execute(self.SOURCE, {"a": np.ones(6)})
        assert session.cache.stats.hits > hits_before
        np.testing.assert_array_equal(result.outputs["y"], np.full(6, 4.0))

    @pytest.mark.parametrize("backend", ["compiled", "cbackend"])
    def test_kernel_is_compiled_once_per_session(self, backend, tracer):
        """The stage cache is the only kernel cache: a repeat is a hit
        there, and concurrent first requests are held by single-flight
        (the backends deduplicate nothing themselves)."""
        import threading

        import numpy as np

        def compiles():
            return [span for span in tracer.spans()
                    if span.name == "stage:execute"
                    and not span.attrs.get("cached")]

        session = PipelineSession()
        first = session.execute(self.SOURCE, {"a": np.zeros(6)},
                                backend=backend)
        hits = session.cache.stats.hits
        second = session.execute(self.SOURCE, {"a": np.ones(6)},
                                 backend=backend)
        assert second.kernel is first.kernel
        assert session.cache.stats.hits > hits
        assert len(compiles()) == 1

        tracer.clear()
        session = PipelineSession()
        barrier = threading.Barrier(8)
        kernels = []

        def execute_one():
            barrier.wait(timeout=30)
            kernels.append(session.execute(
                self.SOURCE, {"a": np.ones(6)}, backend=backend).kernel)

        threads = [threading.Thread(target=execute_one) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(kernels) == 8
        assert all(kernel is kernels[0] for kernel in kernels)
        assert len(compiles()) == 1

    def test_run_time_recorded_as_aux_event(self, tracer):
        import numpy as np

        session = PipelineSession()
        result = session.execute(self.SOURCE, {"a": np.zeros(6)})
        names = [span.name for span in tracer.spans()]
        assert "stage:execute" in names and "execute/run" in names
        assert result.seconds > 0.0

    def test_backend_selects_distinct_cache_entries(self):
        import numpy as np

        session = PipelineSession()
        compiled = session.execute(self.SOURCE, {"a": np.zeros(6)})
        interp = session.execute(self.SOURCE, {"a": np.zeros(6)},
                                 backend="interpreter")
        assert compiled.key != interp.key


class TestFailurePropagation:
    def test_frontend_error_propagates(self):
        with pytest.raises(FrontendError):
            PipelineSession().compile("kernel broken(x: [4]f64) -> {")

    def test_stage_valueerror_wrapped_as_pipeline_error(self):
        session = PipelineSession()

        def explode(payload):
            raise ValueError("boom")

        session.register("explode", explode)
        with pytest.raises(PipelineError, match="explode"):
            session.run_stage("explode", None, key="root")

    def test_failed_stage_not_cached(self):
        session = PipelineSession()
        calls = []

        def flaky(payload):
            calls.append(payload)
            raise ValueError("boom")

        session.register("flaky", flaky)
        for _ in range(2):
            with pytest.raises(PipelineError):
                session.run_stage("flaky", 1, key="root")
        assert len(calls) == 2  # re-executed, not served from cache

    def test_schedule_without_system_rejected(self):
        from repro.pipeline import OlympusResult

        session = PipelineSession()
        with pytest.raises(PipelineError):
            session.run_stage("schedule", OlympusResult("alveo-u55c"),
                              key="root")


class TestDeploy:
    def test_end_to_end_deploy(self):
        session = PipelineSession()
        plan = session.deploy(FIG3_MAJOR_ABSORBER, nodes=2)
        assert plan.schedule.makespan > 0
        assert plan.cluster_nodes == 2
        assert any(op.name == "func.func"
                   for op in plan.deployment_ir.body)

    def test_report_summary_mentions_stages(self, tracer):
        from repro.telemetry.export import stage_summary

        session = PipelineSession()
        session.compile(FIG3_MAJOR_ABSORBER)
        summary = stage_summary(tracer)
        for stage in ("frontend-parse", "dialect-lowering", "canonicalize",
                      "hls"):
            assert stage in summary
        assert summary.startswith("pipeline: 4 stage events, ")
        assert summary.splitlines()[0].endswith("0 cache hits / 4 misses")
        # The canonicalize stage times its sub-passes as pass spans.
        assert "canonicalize/rewrite" in summary
        assert "canonicalize/fuse" in summary


class TestGlobalSession:
    def test_get_session_is_singleton(self):
        reset_session()
        try:
            assert get_session() is get_session()
        finally:
            reset_session()

    def test_cli_reuses_session_cache(self, tmp_path, capsys):
        from repro.basecamp.cli import main

        reset_session()
        try:
            source = tmp_path / "k.ekl"
            source.write_text(FIG3_MAJOR_ABSORBER)
            assert main(["compile", str(source)]) == 0
            session = get_session()
            misses = session.cache.stats.misses
            assert main(["synthesize", str(source)]) == 0
            # Same kernel, same (default) format: fully cache-served.
            assert session.cache.stats.misses == misses
            assert main(["olympus", str(source)]) == 0
            capsys.readouterr()
        finally:
            reset_session()

    def test_cli_nonzero_exit_on_everest_error(self, tmp_path, capsys):
        from repro.basecamp.cli import main

        source = tmp_path / "bad.ekl"
        source.write_text("kernel broken(x: [4]f64) -> {")
        assert main(["compile", str(source)]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_pipeline_subcommand(self, tmp_path, capsys):
        from repro.basecamp.cli import main

        reset_session()
        try:
            source = tmp_path / "k.ekl"
            source.write_text(FIG3_MAJOR_ABSORBER)
            assert main(["pipeline", str(source), "--nodes", "2"]) == 0
            out = capsys.readouterr().out
            assert "makespan" in out
            assert "schedule" in out
        finally:
            reset_session()


class TestConcurrency:
    """Regression tests for the multi-tenant (basecamp serve) fixes."""

    def _session_with_gate(self):
        """A session plus a cacheable stage that blocks until released."""
        import threading

        session = PipelineSession(register_builtins=False)
        calls = []
        entered = threading.Event()
        release = threading.Event()

        def gated(payload):
            calls.append(payload)
            if payload == "block":
                entered.set()
                assert release.wait(timeout=10)
            return ("result", payload)

        session.register("gated", gated)
        return session, calls, entered, release

    def test_single_flight_executes_stage_exactly_once(self):
        import threading
        import time

        session, calls, entered, release = self._session_with_gate()
        results = []

        def run():
            results.append(
                session.run_stage("gated", "block", key="k")[1])

        threads = [threading.Thread(target=run) for _ in range(6)]
        for t in threads:
            t.start()
        assert entered.wait(timeout=10)
        # Every non-leader must be parked on the leader's flight before
        # the leader is released — then dedup is deterministic.
        deadline = time.monotonic() + 10
        while session.singleflight.waits < 5:
            assert time.monotonic() < deadline
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert calls == ["block"]
        assert results == [("result", "block")] * 6
        assert session.singleflight.waits == 5
        assert session.singleflight.leaders == 1

    def test_distinct_keys_do_not_block_each_other(self):
        import threading

        session, calls, entered, release = self._session_with_gate()
        blocker = threading.Thread(
            target=session.run_stage, args=("gated", "block"),
            kwargs={"key": "kb"})
        blocker.start()
        assert entered.wait(timeout=10)
        # A different kernel compiles to completion while the first is
        # still executing.
        key, value = session.run_stage("gated", "fast", key="kf")
        assert value == ("result", "fast")
        release.set()
        blocker.join(timeout=10)
        assert sorted(calls) == ["block", "fast"]

    def test_leader_failure_propagates_and_is_not_cached(self):
        import threading
        import time

        session = PipelineSession(register_builtins=False)
        attempts = []
        entered = threading.Event()
        release = threading.Event()

        def flaky(payload):
            attempts.append(payload)
            if len(attempts) == 1:
                entered.set()
                assert release.wait(timeout=10)
                raise EverestError("first caller fails")
            return "ok"

        session.register("flaky", flaky)
        errors = []

        def waiter():
            try:
                session.run_stage("flaky", "p", key="k")
            except EverestError as error:
                errors.append(str(error))

        leader = threading.Thread(target=waiter)
        leader.start()
        assert entered.wait(timeout=10)
        follower = threading.Thread(target=waiter)
        follower.start()
        deadline = time.monotonic() + 10
        while session.singleflight.waits < 1:
            assert time.monotonic() < deadline
        release.set()
        leader.join(timeout=10)
        follower.join(timeout=10)
        assert errors == ["first caller fails"] * 2
        # The failure was not cached and the flight slot was released:
        # the next caller retries and succeeds.
        _, value = session.run_stage("flaky", "p", key="k")
        assert value == "ok"
        assert len(attempts) == 2

    def test_concurrent_compiles_share_one_stage_execution(self, tracer):
        import threading

        session = PipelineSession()
        barrier = threading.Barrier(6)
        results = []

        def compile_one():
            barrier.wait()
            results.append(session.compile(FIG3_MAJOR_ABSORBER))

        threads = [threading.Thread(target=compile_one) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 6
        # Exactly one execution per stage (single-flight or cache hit);
        # every caller sees the identical cached report object.
        executed = [span.name for span in tracer.spans()
                    if span.category == "stage"
                    and not span.attrs.get("cached")]
        assert sorted(executed) == sorted(set(executed))
        assert executed.count("stage:hls") == 1
        first = results[0]
        assert all(r.report is first.report for r in results)
        assert all(r.key == first.key for r in results)
        # ... but each caller owns its CompileResult wrapper.
        assert len({id(r) for r in results}) == 6

    def test_get_session_concurrent_first_callers_share_one(
            self, monkeypatch):
        import threading
        import time

        from repro.pipeline import session as session_mod

        class SlowInit(session_mod.PipelineSession):
            def __init__(self):
                time.sleep(0.05)  # widen the check-then-set window
                super().__init__()

        monkeypatch.setattr(session_mod, "PipelineSession", SlowInit)
        reset_session()
        try:
            sessions = []
            barrier = threading.Barrier(4)

            def grab():
                barrier.wait()
                sessions.append(session_mod.get_session())

            threads = [threading.Thread(target=grab) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert len(sessions) == 4
            assert len({id(s) for s in sessions}) == 1
        finally:
            reset_session()

    def test_olympus_returns_per_call_copies(self):
        session = PipelineSession()
        first = session.olympus(FIG3_MAJOR_ABSORBER)
        second = session.olympus(FIG3_MAJOR_ABSORBER)  # cache hit
        assert first is not second
        # Mutating one caller's view must not leak into another's.
        first.key = "mutated-by-tenant-a"
        assert second.key != "mutated-by-tenant-a"
        third = session.olympus(FIG3_MAJOR_ABSORBER)
        assert third.key == second.key

    def test_olympus_sweep_returns_per_call_copies(self):
        session = PipelineSession()
        devices = ["alveo-u55c"]
        first = session.olympus_sweep(FIG3_MAJOR_ABSORBER, devices)
        second = session.olympus_sweep(FIG3_MAJOR_ABSORBER, devices)
        a, b = first["alveo-u55c"], second["alveo-u55c"]
        assert a is not b
        a.key = "mutated"
        assert b.key != "mutated"


class TestRawLoweringIsNotCached:
    """``dialect-lowering`` runs inside the ``canonicalize`` leader and
    its module is optimized in place, never shared or stored."""

    def _gated_lowering(self, session, fail_first=False):
        """Replace ``dialect-lowering`` with a wrapper whose first call
        blocks until released (and then raises, with ``fail_first``)."""
        import threading

        from repro.errors import LoweringError
        from repro.pipeline.stages import stage_dialect_lowering

        calls = []
        entered = threading.Event()
        release = threading.Event()

        def gated(kernel, **params):
            calls.append(kernel.name)
            if len(calls) == 1:
                entered.set()
                assert release.wait(timeout=10)
                if fail_first:
                    raise LoweringError("lowering failed")
            return stage_dialect_lowering(kernel, **params)

        session.register("dialect-lowering", gated, replace=True,
                         cacheable=False)
        return calls, entered, release

    def _run_parked(self, session, entered, release, target, count):
        """Start ``count`` threads on ``target``; release the leader once
        every other thread waits on its flight."""
        import threading
        import time

        threads = [threading.Thread(target=target) for _ in range(count)]
        for thread in threads:
            thread.start()
        assert entered.wait(timeout=10)
        deadline = time.monotonic() + 10
        while session.singleflight.waits < count - 1:
            assert time.monotonic() < deadline
        release.set()
        for thread in threads:
            thread.join(timeout=10)

    def test_concurrent_cold_compiles_lower_once(self):
        session = PipelineSession()
        session.frontend(FIG3_MAJOR_ABSORBER)  # only canonicalize waits
        calls, entered, release = self._gated_lowering(session)
        modules = []
        self._run_parked(
            session, entered, release, count=8,
            target=lambda: modules.append(
                session.lower(FIG3_MAJOR_ABSORBER).module))
        assert calls == ["tau_major"]
        assert len(modules) == 8
        assert all(module is modules[0] for module in modules)

    def test_lowering_error_reaches_every_waiter_and_is_not_cached(self):
        session = PipelineSession()
        session.frontend(FIG3_MAJOR_ABSORBER)
        calls, entered, release = self._gated_lowering(session,
                                                       fail_first=True)
        errors = []

        def lower():
            try:
                session.lower(FIG3_MAJOR_ABSORBER)
            except EverestError as error:
                errors.append(str(error))

        self._run_parked(session, entered, release, lower, count=4)
        assert errors == ["lowering failed"] * 4
        assert len(session.cache) == 1  # the parse only
        assert session.lower(FIG3_MAJOR_ABSORBER).module is not None
        assert len(calls) == 2

    @pytest.mark.parametrize("opt_level", [2, -1, 7])
    def test_opt_level_outside_0_and_1_is_refused(self, opt_level):
        session = PipelineSession()
        with pytest.raises(PipelineError, match="opt_level"):
            session.lower(FIG3_MAJOR_ABSORBER, opt_level=opt_level)
        with pytest.raises(PipelineError, match="opt_level"):
            session.execute(FIG3_MAJOR_ABSORBER, {}, opt_level=opt_level)
        assert len(session.cache) == 0

    def test_other_opt_levels_leave_the_cached_module_alone(self):
        session = PipelineSession()
        cached = session.lower(FIG3_MAJOR_ABSORBER, opt_level=1).module
        text = print_module(cached)
        assert session.lower(FIG3_MAJOR_ABSORBER,
                             opt_level=0).module is not cached
        assert session.lower(FIG3_MAJOR_ABSORBER,
                             opt_level=1).module is cached
        assert print_module(cached) == text

    def test_the_cache_holds_no_raw_module(self):
        session = PipelineSession()
        sources = [FIG3_MAJOR_ABSORBER.replace("tau_major", f"tau_{n}")
                   for n in range(5)]
        for source in sources:
            session.compile(source)
        # parse, canonicalize and hls per kernel; no dialect-lowering.
        assert len(session.cache) == 3 * len(sources)
        for source in sources:
            parse_key, _ = session.frontend(source)
            raw_key = session.stage_key("dialect-lowering",
                                        {"canonicalize": True}, parse_key)
            assert session.cache.peek(raw_key) == (False, None)
