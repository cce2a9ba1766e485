"""Tests for platform models, Olympus generation, packing and PLM sharing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OlympusError, PlatformError
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.hls import synthesize_kernel
from repro.olympus import (
    ArchConfig,
    BufferRequest,
    Field,
    OlympusGenerator,
    pack_fields,
    pack_stream,
    peak_live_bytes,
    share_plm,
)
from repro.platforms import (
    MemoryChannelModel,
    PLMConfig,
    alveo_u55c,
    alveo_u280,
    cloudfpga_node,
    device_by_name,
)
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine


@pytest.fixture(scope="module")
def rrtmg_report():
    kernel = parse_kernel(FIG3_MAJOR_ABSORBER)
    module = lower_teil_to_affine(
        lower_esn_to_teil(lower_ekl_to_esn(lower_kernel_to_ekl(kernel)))
    )
    return synthesize_kernel(module, "tau_major")


class TestDevices:
    def test_catalog(self):
        assert device_by_name("alveo-u55c").pcie_gbps == 16.0
        assert device_by_name("cloudfpga-ku060").is_network_attached
        with pytest.raises(PlatformError):
            device_by_name("virtex-2")

    def test_usable_resources_subtract_shell(self):
        device = alveo_u55c()
        assert device.usable_resources().lut < device.resources.lut

    def test_u280_has_two_memories(self):
        device = alveo_u280()
        assert set(device.memories) == {"hbm", "ddr"}
        assert device.default_memory().kind == "hbm"


class TestMemoryModels:
    def test_bandwidth_scales_with_lanes(self):
        model = MemoryChannelModel(alveo_u55c().default_memory())
        one = model.transfer(2**20, lanes=1)
        four = model.transfer(2**20, lanes=4)
        assert four.seconds < one.seconds

    def test_packing_efficiency_affects_time(self):
        model = MemoryChannelModel(alveo_u55c().default_memory())
        packed = model.transfer(2**20, payload_bits_per_beat=512)
        sparse = model.transfer(2**20, payload_bits_per_beat=64)
        assert packed.seconds < sparse.seconds
        assert sparse.bus_efficiency == pytest.approx(64 / 512)

    def test_plm_bram_accounting(self):
        plm = PLMConfig("buf", bytes=8 * 2304, banks=2,
                        double_buffered=True)
        assert plm.footprint_bytes == 16 * 2304
        assert plm.bram_blocks == 16
        assert plm.ports == 4


class TestPacking:
    def test_fcd_record_packs_into_one_beat(self):
        plan = pack_fields([Field("lat", 32), Field("lon", 32),
                            Field("speed", 16), Field("ts", 64)], 512)
        assert plan.beats_per_record == 1
        assert plan.speedup_vs_naive == 4.0

    def test_packed_record_beats_naive_efficiency(self):
        plan = pack_fields([Field("lat", 32), Field("lon", 32),
                            Field("speed", 16), Field("ts", 64)], 512)
        # 144 payload bits in one 512-bit beat, against four beats naive.
        assert plan.payload_bits_per_beat == 144.0
        assert plan.efficiency == 144 / 512
        assert plan.naive_efficiency == 144 / (4 * 512)
        assert plan.efficiency > plan.naive_efficiency

    def test_wide_field_gains_nothing_from_packing(self):
        # 1124 bits fill three beats either way.
        plan = pack_fields([Field("big", 1024 + 100)], 512)
        assert plan.payload_bits_per_beat == 1124 / 3
        assert plan.efficiency == plan.naive_efficiency == 1124 / (3 * 512)
        assert plan.speedup_vs_naive == 1.0

    def test_wide_field_split(self):
        plan = pack_fields([Field("big", 1024 + 100)], 512)
        assert plan.beats_per_record == 3

    def test_stream_packing(self):
        per_beat, efficiency = pack_stream(64, 512)
        assert per_beat == 8
        assert efficiency == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 511), min_size=1, max_size=12))
    def test_packing_never_loses_bits(self, widths):
        fields = [Field(f"f{i}", w) for i, w in enumerate(widths)]
        plan = pack_fields(fields, 512)
        packed_bits = sum(w.used_bits() for w in plan.words)
        assert packed_bits == sum(widths)
        assert all(w.used_bits() <= 512 for w in plan.words)
        assert plan.beats_per_record <= plan.naive_words


class TestPLMSharing:
    def test_disjoint_lifetimes_share(self):
        alloc = share_plm([
            BufferRequest("a", 1000, 0, 1),
            BufferRequest("b", 1000, 2, 3),
        ])
        assert alloc.total_bytes == 1000
        assert alloc.saving == pytest.approx(0.5)

    def test_overlapping_lifetimes_do_not_overlap_addresses(self):
        requests = [
            BufferRequest("a", 600, 0, 2),
            BufferRequest("b", 500, 1, 3),
            BufferRequest("c", 400, 2, 4),
        ]
        alloc = share_plm(requests)
        by_name = {r.name: r for r in requests}
        for x in requests:
            for y in requests:
                if x.name >= y.name or not x.overlaps(y):
                    continue
                xa, xb = alloc.offsets[x.name], alloc.offsets[x.name] + x.bytes
                ya, yb = alloc.offsets[y.name], alloc.offsets[y.name] + y.bytes
                assert xb <= ya or yb <= xa, (x.name, y.name)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(1, 1000), st.integers(0, 5),
                  st.integers(0, 5)),
        min_size=1, max_size=10,
    ))
    def test_allocation_sound_and_bounded(self, raw):
        requests = [
            BufferRequest(f"b{i}", size, min(s, e), max(s, e))
            for i, (size, s, e) in enumerate(raw)
        ]
        alloc = share_plm(requests)
        assert alloc.total_bytes >= peak_live_bytes(requests)
        assert alloc.total_bytes <= alloc.unshared_bytes
        for x in requests:
            for y in requests:
                if x.name >= y.name or not x.overlaps(y):
                    continue
                xa = alloc.offsets[x.name]
                ya = alloc.offsets[y.name]
                assert xa + x.bytes <= ya or ya + y.bytes <= xa


class TestOlympus:
    def test_explore_produces_feasible_points(self, rrtmg_report):
        generator = OlympusGenerator(alveo_u55c())
        points = generator.explore(rrtmg_report)
        assert len(points) >= 8
        budget = alveo_u55c().usable_resources()
        for _, _, resources in points:
            assert resources.fits_in(budget)

    def test_replication_reduces_latency(self, rrtmg_report):
        generator = OlympusGenerator(alveo_u55c())
        one, _ = generator.estimate(rrtmg_report, ArchConfig(1, True, True))
        four, _ = generator.estimate(rrtmg_report, ArchConfig(4, True, True))
        assert four.total < one.total

    def test_double_buffering_helps(self, rrtmg_report):
        generator = OlympusGenerator(alveo_u55c())
        plain, _ = generator.estimate(rrtmg_report,
                                      ArchConfig(1, False, True))
        buffered, _ = generator.estimate(rrtmg_report,
                                         ArchConfig(1, True, True))
        assert buffered.total < plain.total

    def test_system_generation_and_ir(self, rrtmg_report):
        from repro.ir import verify

        generator = OlympusGenerator(alveo_u55c())
        system = generator.generate(
            "sys", [rrtmg_report], {"tau_major": ArchConfig(2, True, True)})
        assert system.fits()
        module = generator.emit_ir(system)
        verify(module)
        kernels = [op for op in module.walk()
                   if op.name == "olympus.kernel"]
        assert kernels[0].attr("callee") == "tau_major"
        assert kernels[0].attr("replicas") == 2

    def test_kernel_without_a_config_is_named(self, rrtmg_report):
        # generate() selects nothing itself: a report with no config is
        # the caller's error, named, not a KeyError or a silent choice.
        import dataclasses

        other = dataclasses.replace(rrtmg_report, name="other")
        with pytest.raises(OlympusError,
                           match="system sys: no configuration for "
                                 "kernel other"):
            OlympusGenerator(alveo_u55c()).generate(
                "sys", [rrtmg_report, other], {"tau_major": ArchConfig()})

    def test_oversized_kernel_rejected(self, rrtmg_report):
        import dataclasses

        tiny = cloudfpga_node()
        huge = dataclasses.replace(rrtmg_report)
        huge.resources = rrtmg_report.resources.scaled(500)
        with pytest.raises(OlympusError, match="in any configuration"):
            OlympusGenerator(tiny).explore(huge)
        with pytest.raises(OlympusError, match="exceeds"):
            OlympusGenerator(tiny).generate("sys", [huge],
                                            {"tau_major": ArchConfig()})
