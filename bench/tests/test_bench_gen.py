"""The seeded generator: repeatable, distinct, well-typed."""

import itertools

from bench import gen

from repro.pipeline import PipelineSession


def _take(seed, count):
    return list(itertools.islice(gen.kernels(seed), count))


def test_same_seed_gives_a_byte_identical_workload():
    assert _take(7, 2 * gen.CYCLE) == _take(7, 2 * gen.CYCLE)


def test_different_seeds_give_different_kernels():
    first = {source for _, _, source in _take(1, gen.CYCLE)}
    second = {source for _, _, source in _take(2, gen.CYCLE)}
    assert not first & second


def test_no_kernel_repeats_within_a_stream():
    sources = [source for _, _, source in _take(3, 5 * gen.CYCLE)]
    assert len(set(sources)) == len(sources)


def test_every_cycle_is_the_whole_corpus():
    kernels = _take(4, 3 * gen.CYCLE)
    for start in range(0, len(kernels), gen.CYCLE):
        cycle = [index for _, index, _ in kernels[start:start + gen.CYCLE]]
        assert sorted(cycle) == list(range(gen.CYCLE))


def test_corpus_is_balanced():
    counts = sorted(len(shape.statements) + 1 for shape in gen.SHAPES)
    assert counts == sorted([6, 7, 8, 9, 10] * (gen.CYCLE // 5))
    extents = [shape.extents for shape in gen.SHAPES]
    assert all(extents.count(pair) == gen.CYCLE // len(gen.EXTENTS)
               for pair in gen.EXTENTS)


def test_every_generated_kernel_passes_the_typed_verifier():
    # The dialect-lowering and canonicalize stages end in verify_typed
    # and raise on a violation.
    session = PipelineSession()
    for _, _, source in _take(5, gen.CYCLE):
        result = session.lower(source)
        func = result.module.lookup(result.kernel.name)
        assert func.attr("arg_names")[:2] == ["a", "b"]
