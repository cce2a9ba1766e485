"""Tests for platform models, Olympus generation, stream packing and PLM
sharing (the compiler's arena plan)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OlympusError, PlatformError
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.hls import synthesize_kernel
from repro.ir.parser import parse_module
from repro.olympus import ArchConfig, OlympusGenerator, pack_stream
from repro.platforms import (
    MemoryChannelModel,
    PLMConfig,
    alveo_u55c,
    alveo_u280,
    cloudfpga_node,
    device_by_name,
)
from repro.platforms.device import CATALOG
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.arena import plan_arena


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


# An FCD record: lat, lon, speed, timestamp.
FCD_RECORD_BITS = 32 + 32 + 16 + 64


class TestPacking:
    def test_fcd_record_packs_into_one_beat(self):
        per_beat, efficiency = pack_stream(FCD_RECORD_BITS, 512)
        assert per_beat == 3
        assert efficiency == 3 * 144 / 512

    def test_packed_record_beats_naive_efficiency(self):
        """Three 144-bit records per beat against one per beat unpacked,
        and the channel model turns that into a shorter transfer."""
        _, efficiency = pack_stream(FCD_RECORD_BITS, 512)
        assert efficiency == 3 * (144 / 512)
        model = MemoryChannelModel(alveo_u55c().default_memory())
        packed = model.transfer(2**20, payload_bits_per_beat=int(
            512 * efficiency))
        naive = model.transfer(2**20, payload_bits_per_beat=144)
        assert packed.bus_efficiency > naive.bus_efficiency
        assert packed.seconds < naive.seconds

    def test_wide_field_gains_nothing_from_packing(self):
        """An element as wide as the bus already fills each beat: the
        packed payload the estimate uses equals the unpacked one."""
        per_beat, efficiency = pack_stream(512, 512)
        assert (per_beat, efficiency) == (1, 1.0)
        model = MemoryChannelModel(alveo_u55c().default_memory())
        packed = model.transfer(2**20,
                                payload_bits_per_beat=int(512 * efficiency))
        naive = model.transfer(2**20, payload_bits_per_beat=512)
        assert packed.seconds == naive.seconds

    def test_stream_packing(self):
        per_beat, efficiency = pack_stream(64, 512)
        assert per_beat == 8
        assert efficiency == 1.0

    @pytest.mark.parametrize("bits", [0, -64])
    def test_a_width_that_cannot_stream_is_refused(self, bits):
        with pytest.raises(OlympusError, match="element width"):
            pack_stream(bits, 512)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 512))
    def test_packing_never_loses_bits(self, bits):
        """As many whole elements as fit in a beat, never one more, and
        the efficiency is exactly the bits they carry."""
        per_beat, efficiency = pack_stream(bits, 512)
        assert per_beat * bits <= 512 < (per_beat + 1) * bits
        assert efficiency == per_beat * bits / 512


def _lifetimes_func(buffers, element="f64"):
    """An affine function with one top-level ``memref.alloc`` per
    ``(elements, start, end)`` in ``buffers``, live over the step interval
    ``[start, end]``: each step first allocates the buffers born there,
    then copies each buffer that dies there onto itself, so two buffers'
    statement ranges overlap exactly when their step intervals do.
    ``element`` is one element type for all buffers, or one per buffer."""
    types = [element] * len(buffers) if isinstance(element, str) \
        else element
    lines = []
    names = {}
    last = max(end for _, _, end in buffers)
    for step in range(last + 1):
        for index, (elements, start, _) in enumerate(buffers):
            if start == step:
                names[index] = f"%{len(names)}"
                lines.append(f'{names[index]} = "memref.alloc"() : () -> '
                             f"memref<{elements}x{types[index]}>")
        for index, (elements, _, end) in enumerate(buffers):
            if end == step:
                ref = f"memref<{elements}x{types[index]}>"
                lines.append(f'"memref.copy"({names[index]}, {names[index]})'
                             f" : ({ref}, {ref}) -> ()")
    body = "\n    ".join(lines)
    module = parse_module(f"""\
"builtin.module"() (
{{
  "func.func"() (
  {{
  ^bb0():
    {body}
    "func.return"() : () -> ()
  }}
  ) {{sym_name = "lifetimes"}} : () -> ()
}}
) : () -> ()""")
    return module.lookup("lifetimes")


def _one_byte(_element):
    return 1


def _overlap_free(plan):
    for i, a in enumerate(plan.slots):
        for b in plan.slots[i + 1:]:
            if a.overlaps_lifetime(b.start, b.end):
                assert (a.offset + a.size <= b.offset
                        or b.offset + b.size <= a.offset), (a, b)


class TestPLMSharing:
    """PLM sharing is :func:`plan_arena`, whose total sizes the scratch
    PLM; here it plans hand-built lifetimes."""

    def test_disjoint_lifetimes_share(self):
        plan = plan_arena(_lifetimes_func([(1000, 0, 1), (1000, 2, 3)]),
                          element_bytes=_one_byte)
        assert [slot.offset for slot in plan.slots] == [0, 0]
        assert plan.total_bytes == 1000
        assert plan.saving == pytest.approx(0.5)

    def test_overlapping_lifetimes_do_not_overlap_addresses(self):
        plan = plan_arena(_lifetimes_func([(600, 0, 2), (500, 1, 3),
                                           (400, 2, 4)]),
                          element_bytes=_one_byte)
        _overlap_free(plan)
        assert plan.total_bytes == plan.unshared_bytes == 1500

    def test_a_reused_offset_keeps_its_alignment(self):
        """A 3-byte i1 buffer pads the f64 buffer live beside it to offset
        8; once it is dead, a later f64 buffer takes offset 0."""
        plan = plan_arena(_lifetimes_func([(3, 0, 1), (2, 1, 2), (1, 2, 2)],
                                          element=["i1", "f64", "f64"]))
        assert [slot.offset for slot in plan.slots] == [0, 8, 0]
        assert (plan.total_bytes, plan.unshared_bytes) == (24, 32)

    def test_interleaved_statements_never_share(self):
        """The disjoint pair above, run as one fused step (``order``):
        both buffers are live together, so neither reuses the other's
        bytes."""
        func = _lifetimes_func([(1000, 0, 1), (1000, 2, 3)])
        order = {id(op): 0 for op in func.regions[0].entry.operations}
        plan = plan_arena(func, element_bytes=_one_byte, order=order)
        assert [slot.offset for slot in plan.slots] == [0, 1000]
        assert plan.total_bytes == 2000

    def test_a_dynamic_buffer_keeps_its_own_allocation(self):
        plan = plan_arena(_lifetimes_func([(4, 0, 1), ("?", 0, 1)]),
                          element_bytes=_one_byte)
        assert [slot.shape for slot in plan.slots] == [(4,)]
        assert plan.total_bytes == plan.unshared_bytes == 4

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(1, 1000), st.integers(0, 5),
                  st.integers(0, 5)),
        min_size=1, max_size=10,
    ))
    def test_allocation_sound_and_bounded(self, raw):
        buffers = [(size, min(s, e), max(s, e)) for size, s, e in raw]
        plan = plan_arena(_lifetimes_func(buffers), element_bytes=_one_byte)
        slots = plan.slots
        assert sorted(slot.size for slot in slots) \
            == sorted(size for size, _, _ in buffers)
        last = max(slot.end for slot in slots)
        peak_live = max(sum(slot.size for slot in slots
                            if slot.start <= step <= slot.end)
                        for step in range(last + 1))
        assert peak_live <= plan.total_bytes <= plan.unshared_bytes
        assert plan.unshared_bytes == sum(size for size, _, _ in buffers)
        _overlap_free(plan)


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

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_replicas_go_up_to_the_device_channels(self, rrtmg_report,
                                                   name):
        """The design space doubles the replicas up to the device's
        memory channels, four buffering/packing points per count."""
        device = device_by_name(name)
        channels = device.default_memory().channels
        generator = OlympusGenerator(device)
        configs = generator.candidate_configs()
        counts = sorted({config.replicas for config in configs})
        assert counts == [2 ** n for n in range(channels.bit_length())]
        assert len(configs) == 4 * len(counts)
        for config, _, _ in generator.explore(rrtmg_report):
            assert config.replicas <= channels

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
