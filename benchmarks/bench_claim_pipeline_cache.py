"""CLAIM: stage caching makes repeated SDK compiles effectively free.

The PipelineSession fingerprints every stage input, so recompiling the
same kernel/configuration skips the frontend, the dialect lowerings and
HLS entirely.  Timed: a cache-hot compile through the session versus the
cold hand-chained flow (the `bench_fig3` compile path), plus the
format-DSE sweep against one cold compile per format.
"""

from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.pipeline import PipelineSession

FORMATS = ["f64", "f32", "bf16", "fixed<8.8>", "posit<16,1>"]


def test_cache_hot_recompile(benchmark):
    session = PipelineSession()
    cold = session.compile(FIG3_MAJOR_ABSORBER)  # warm the cache
    stats = session.cache.stats
    misses, hits = stats.misses, stats.hits

    warm = benchmark(lambda: session.compile(FIG3_MAJOR_ABSORBER))
    assert warm.report is cold.report
    # Every timed iteration was served from the cache: frontend-parse,
    # canonicalize and hls (the raw lowering is no entry).
    assert stats.misses == misses
    assert stats.hits >= hits + 3


def test_format_sweep(benchmark):
    swept = benchmark(lambda: PipelineSession().format_sweep(
        FIG3_MAJOR_ABSORBER, FORMATS))
    assert list(swept) == FORMATS
    for spec in FORMATS:
        alone = PipelineSession().compile(FIG3_MAJOR_ABSORBER,
                                          number_format=spec).report
        assert swept[spec].total_cycles == alone.total_cycles
