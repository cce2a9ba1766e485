"""The nest plan behind the C backend: what fuses, what contracts, what
stays in the arena and what is zero-filled.

Every case asserts on the :class:`~repro.tensorpipe.nestplan.NestPlan`
itself (never on C text) and then runs the generated C bit-for-bit
against :class:`~repro.tensorpipe.affine_interp.AffineInterpreter`.
The illegal-access cases are built by hand: they are exactly the access
patterns the EKL lowering (and so ``tools/irfuzz.py``) never emits next
to a same-bounds producer.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.frontends.ekl import parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.ir import CanonicalizePass, Module, Operation, types as T, verify
from repro.ir.builder import Builder
from repro.ir.core import Block, Region
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.affine_interp import run_affine
from repro.tensorpipe.arena import plan_arena
from repro.tensorpipe.cbackend import find_cc, probe_supported
from repro.tensorpipe.codegen import compile_affine
from repro.tensorpipe.nestplan import (
    LOCAL_BYTES_MAX,
    Group,
    Stmt,
    plan_nests,
)


def lower(source):
    kernel = parse_kernel(source)
    module = lower_teil_to_affine(
        lower_esn_to_teil(
            lower_ekl_to_esn(lower_kernel_to_ekl(kernel),
                             canonicalize=False),
            canonicalize=False,
        ),
        canonicalize=False,
    )
    CanonicalizePass().run(module)
    verify(module)
    return module, kernel.name


class Fn:
    """A hand-built affine function ``k`` over f64 buffers."""

    def __init__(self, inputs, outputs):
        shapes = {**inputs, **outputs}
        types = [T.memref_of(T.f64, *shape) for shape in shapes.values()]
        entry = Block(types)
        self.module = Module()
        self.module.append(Operation.create(
            "func.func", [], [],
            {"sym_name": "k",
             "function_type": T.FunctionType(tuple(types), ()),
             "kernel_lang": "affine", "arg_names": list(shapes),
             "num_outputs": len(outputs)},
            [Region([entry])]))
        self.builder = Builder.at_end(entry)
        self.arg = dict(zip(shapes, entry.args))

    def op(self, name, *operands, type=T.f64, **attrs):
        return self.builder.create(name, operands, [type], attrs).result

    def alloc(self, *shape):
        return self.op("memref.alloc", type=T.memref_of(T.f64, *shape))

    def index(self, value):
        return self.op("arith.constant", type=T.index, value=value)

    def load(self, buffer, *indices):
        return self.op("memref.load", buffer, *indices)

    def store(self, value, buffer, *indices):
        self.builder.create("memref.store", [value, buffer, *indices], [])

    @contextmanager
    def loop(self, upper, lower=0):
        body = Block([T.index])
        self.builder.create(
            "affine.for", [], [], {"lower": lower, "upper": upper, "step": 1},
            [Region([body])])
        terminator = Builder.at_end(body).create("affine.yield", [], [])
        outer, self.builder = self.builder, Builder.before(terminator)
        try:
            yield body.args[0]
        finally:
            self.builder = outer

    def done(self):
        self.builder.create("func.return", [], [])
        verify(self.module)
        return self.module


def plan_of(module, name="k"):
    return plan_nests(module.lookup(name))


def sizes(plan):
    """Member count of each entry-scope group, in order."""
    return [len(group.loops) for group in plan.groups]


def slot_of(plan, buffer):
    return plan.arena.op_slots.get(id(buffer.owner_op()))


def assert_bitwise(module, inputs, name="k"):
    """The generated C against the reference interpreter, bit for bit."""
    expected = run_affine(module, name, inputs)
    kernel = compile_affine(module, name, backend="cbackend")
    cc = find_cc()
    if cc is not None and probe_supported(cc) is not None:
        assert kernel.backend == "cbackend", kernel.fallback
    got = kernel.run(inputs)
    for key, value in expected.items():
        np.testing.assert_array_equal(got[key], value)
    return kernel


RNG = np.random.default_rng(15)

CHAIN = """
kernel chain {{
  index i: {rows}, j: 8
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = t0 * b - a
  t2 = t1 * t1 + t0
  out = sum[j](t2 * b + t1)
}}
"""


# -- what fuses ---------------------------------------------------------------


def test_chain_is_one_group_with_every_temporary_contracted():
    module, name = lower(CHAIN.format(rows=6))
    func = module.lookup(name)
    plan = plan_nests(func)
    nests = [op for op in func.regions[0].entry.operations
             if op.name == "affine.for"]
    assert sizes(plan) == [len(nests)] and plan.fused_groups == 1
    allocs = [op for op in func.regions[0].entry.operations
              if op.name == "memref.alloc"]
    # Only the buffer memref.copy reads into ``out`` is materialised
    # (eliding that copy is not this plan's job), and the reduction
    # stores it before loading it: nothing is zero-filled.
    assert len(plan.contracted) == len(allocs) - 1
    assert plan.arena.total_bytes == 6 * 8 and len(plan.arena.slots) == 1
    assert plan.zeroed == set()
    inputs = {"a": RNG.normal(size=(6, 8)), "b": RNG.normal(size=(6, 8))}
    kernel = assert_bitwise(module, inputs, name)
    if kernel.backend == "cbackend":
        assert (kernel.fused_groups, kernel.contracted_buffers,
                kernel.arena_bytes, kernel.arena_slots) == \
            (1, len(allocs) - 1, 48, 1)


def test_two_independent_chains_are_two_groups():
    module, name = lower("""
kernel k {
  index i: 6, k: 7
  input a[i]: f64
  input b[k]: f64
  output x
  output y
  t = a * a + a
  x = t * a
  u = b * b - b
  y = u * b
}
""")
    plan = plan_of(module, name)
    assert len(plan.groups) == 2 and plan.fused_groups == 2
    assert [group.bounds for group in plan.groups] == [(0, 6, 1), (0, 7, 1)]
    assert_bitwise(module, {"a": RNG.normal(size=6),
                            "b": RNG.normal(size=7)}, name)


def test_nothing_to_fuse_is_a_plan_of_singletons():
    fn = Fn({"a": (5,), "b": (7,)}, {"x": (5,), "y": (7,)})
    for src, dst, n in (("a", "x", 5), ("b", "y", 7)):
        with fn.loop(n) as i:
            fn.store(fn.load(fn.arg[src], i), fn.arg[dst], i)
    module = fn.done()
    plan = plan_of(module)
    assert sizes(plan) == [1, 1] and plan.fused_groups == 0
    assert not plan.contracted and not plan.arena.slots
    assert_bitwise(module, {"a": RNG.normal(size=5),
                            "b": RNG.normal(size=7)})


# -- what must not fuse --------------------------------------------------------


def _producer(fn, t, n):
    with fn.loop(n) as i:
        with fn.loop(n) as j:
            two = fn.op("arith.constant", value=2.0)
            fn.store(fn.op("arith.mulf", fn.load(fn.arg["a"], i, j), two),
                     t, i, j)


def _transposed(fn, t, i, j):
    return fn.load(t, j, i)


def _gathered(fn, t, i, j):
    row = fn.op("arith.index_cast",
                fn.op("arith.fptosi", fn.load(fn.arg["rows"], i),
                      type=T.i64), type=T.index)
    return fn.load(t, row, j)


def _shifted(fn, t, i, j):
    # Row i - 1; row -1 wraps to the last one, as numpy indexing does.
    return fn.load(t, fn.op("arith.subi", i, fn.index(1), type=T.index), j)


def _broadcast(fn, t, i, j):
    return fn.load(t, j, fn.index(0))


@pytest.mark.parametrize("read", [_transposed, _gathered, _shifted,
                                  _broadcast])
def test_foreign_read_of_a_group_written_buffer_ends_the_group(read):
    n = 5
    fn = Fn({"a": (n, n), "rows": (n,)}, {"out": (n, n)})
    t = fn.alloc(n, n)
    _producer(fn, t, n)
    with fn.loop(n) as i:
        with fn.loop(n) as j:
            fn.store(fn.op("arith.addf", read(fn, t, i, j),
                           fn.load(fn.arg["a"], i, j)),
                     fn.arg["out"], i, j)
    module = fn.done()
    plan = plan_of(module)
    # Same bounds, but the consumer reads rows the producer's iteration
    # i has not written yet: two loops, t in the arena in full.
    assert sizes(plan) == [1, 1]
    assert t not in plan.contracted
    assert slot_of(plan, t).size == n * n * 8
    assert_bitwise(module, {"a": RNG.normal(size=(n, n)),
                            "rows": np.array([4.0, 0.0, 3.0, 3.0, 1.0])})


def test_reduction_over_the_outer_axis_is_not_fused_with_its_producer():
    module, name = lower("""
kernel k {
  index i: 5, j: 5
  input a[i, j]: f64
  output out
  t = a * 2.0
  out = sum[i](t)
}
""")
    plan = plan_of(module, name)
    # The reduction's outer loop runs over i while its accumulator is
    # indexed by the inner j: it cannot join the loops that zero-fill
    # the accumulator row by row.
    assert len(plan.groups) == 2 and sizes(plan)[-1] == 1
    assert_bitwise(module, {"a": RNG.normal(size=(5, 5))}, name)


def test_sequential_self_update_keeps_its_own_loop():
    n = 8
    fn = Fn({"a": (n,)}, {"out": (n,)})
    x = fn.alloc(n)
    with fn.loop(n) as i:
        fn.store(fn.load(fn.arg["a"], i), x, i)
    with fn.loop(n) as i:       # x[i] += x[i - 1], x[-1] being x[n - 1]
        before = fn.load(x, fn.op("arith.subi", i, fn.index(1),
                                  type=T.index))
        fn.store(fn.op("arith.addf", before, fn.load(x, i)), x, i)
    with fn.loop(n) as i:
        fn.store(fn.load(x, i), fn.arg["out"], i)
    module = fn.done()
    plan = plan_of(module)
    assert sizes(plan) == [1, 1, 1]
    assert x not in plan.contracted and slot_of(plan, x) is not None
    assert_bitwise(module, {"a": RNG.normal(size=n)})


def test_unknown_side_effects_between_nests_end_the_group():
    n = 4
    fn = Fn({"a": (n,)}, {"out": (n,)})
    t = fn.alloc(n)
    with fn.loop(n) as i:
        fn.store(fn.load(fn.arg["a"], i), t, i)
    call = fn.builder.create("func.call", [fn.arg["a"]], [],
                             {"callee": "elsewhere"})
    with fn.loop(n) as i:
        fn.store(fn.load(t, i), fn.arg["out"], i)
    fn.builder.create("func.return", [], [])
    plan = plan_of(fn.module)
    kinds = [item.op if isinstance(item, Stmt) else len(item.loops)
             for item in plan.items]
    assert kinds == [t.owner_op(), 1, call, 1]
    assert t not in plan.contracted


def test_copy_inside_a_loop_is_never_fused_or_hoisted_over():
    n = 4
    fn = Fn({"a": (n,)}, {"out": (n,)})
    t = fn.alloc(n)
    with fn.loop(n) as i:
        fn.store(fn.load(fn.arg["a"], i), t, i)
    with fn.loop(n):
        fn.builder.create("memref.copy", [t, fn.arg["out"]], [])
    module = fn.done()
    plan = plan_of(module)
    assert sizes(plan) == [1, 1] and t not in plan.contracted
    assert_bitwise(module, {"a": RNG.normal(size=n)})


# -- contraction, arena, zero-fill ------------------------------------------


def test_buffer_read_again_after_its_group_stays_in_the_arena():
    module, name = lower("""
kernel k {
  index i: 6, j: 4
  input a[i, j]: f64
  output t
  output out
  t = a * 2.0
  out = sum[j](t * a)
}
""")
    plan = plan_of(module, name)
    assert len(plan.groups) == 1
    # t and the accumulator are read by the copies into the outputs.
    assert sorted(slot.size for slot in plan.arena.slots) == [6 * 8,
                                                             6 * 4 * 8]
    assert_bitwise(module, {"a": RNG.normal(size=(6, 4))}, name)


def test_partially_written_buffer_keeps_its_zero_fill():
    n = 6
    fn = Fn({"a": (n,)}, {"out": (n,)})
    s = fn.alloc(n, 2)
    with fn.loop(n) as i:
        fn.store(fn.load(fn.arg["a"], i), s, i, fn.index(0))
    with fn.loop(n) as i:
        fn.store(fn.op("arith.addf", fn.load(s, i, fn.index(0)),
                       fn.load(s, i, fn.index(1))), fn.arg["out"], i)
    module = fn.done()
    plan = plan_of(module)
    assert sizes(plan) == [2] and plan.contracted[s] == (0,)
    assert s in plan.zeroed         # column 1 is only ever the alloc's 0
    assert_bitwise(module, {"a": RNG.normal(size=n)})


def test_stack_then_full_read_is_bitwise():
    module, name = lower("""
kernel k {
  index i: 6
  input a[i]: f64
  input b[i]: f64
  output out
  s = [a, b * 2.0]
  out = s[i, 0] + s[i, 1]
}
""")
    assert_bitwise(module, {"a": RNG.normal(size=6),
                            "b": RNG.normal(size=6)}, name)


def test_load_before_store_keeps_the_zero_fill():
    n = 5
    fn = Fn({"a": (n,)}, {"out": (n,)})
    acc = fn.alloc(n)
    with fn.loop(n) as i:
        with fn.loop(3):    # acc[i] += a[i], three times, from the alloc's 0
            fn.store(fn.op("arith.addf", fn.load(acc, i),
                           fn.load(fn.arg["a"], i)), acc, i)
        fn.store(fn.load(acc, i), fn.arg["out"], i)
    module = fn.done()
    plan = plan_of(module)
    assert plan.contracted[acc] == (0,) and acc in plan.zeroed
    assert_bitwise(module, {"a": RNG.normal(size=n)})


@pytest.mark.parametrize("cols", [8, 1024])
def test_only_small_slices_become_locals(cols):
    """Outer loops fuse, inner ones cannot (reversed read): the slice is
    one row, a C local only while it fits LOCAL_BYTES_MAX."""
    n = 3
    fn = Fn({"a": (n, cols)}, {"out": (n, cols)})
    t = fn.alloc(n, cols)
    with fn.loop(n) as i:
        with fn.loop(cols) as j:
            fn.store(fn.load(fn.arg["a"], i, j), t, i, j)
    with fn.loop(n) as i:
        with fn.loop(cols) as j:
            back = fn.op("arith.subi", fn.index(cols - 1), j, type=T.index)
            fn.store(fn.load(t, i, back), fn.arg["out"], i, j)
    module = fn.done()
    plan = plan_of(module)
    assert sizes(plan) == [2]
    assert [len(g.loops) for g in plan.groups[0].body
            if isinstance(g, Group)] == [1, 1]
    if cols * 8 <= LOCAL_BYTES_MAX:
        assert plan.contracted[t] == (0,) and slot_of(plan, t) is None
    else:
        assert t not in plan.contracted
        assert slot_of(plan, t).size == n * cols * 8
    assert_bitwise(module, {"a": RNG.normal(size=(n, cols))})


def test_buffers_of_one_group_never_share_arena_bytes():
    """Statement by statement t dies before u is born, so they could
    share bytes; fused, iteration i + 1 of the first pair runs after
    iteration i of the second."""
    n, cols = 3, 1024       # rows too large to contract
    fn = Fn({"a": (n, cols)}, {"x": (n, cols), "y": (n, cols)})

    def reversed_copy(src, dst):
        with fn.loop(n) as i:
            with fn.loop(cols) as j:
                back = fn.op("arith.subi", fn.index(cols - 1), j,
                             type=T.index)
                fn.store(fn.load(src, i, back), dst, i, j)

    t = fn.alloc(n, cols)
    reversed_copy(fn.arg["a"], t)
    reversed_copy(t, fn.arg["x"])
    u = fn.alloc(n, cols)
    reversed_copy(fn.arg["x"], u)
    reversed_copy(u, fn.arg["y"])
    module = fn.done()
    func = module.lookup("k")
    assert plan_arena(func).total_bytes == n * cols * 8
    plan = plan_nests(func)
    assert sizes(plan) == [4]
    assert plan.arena.total_bytes == 2 * n * cols * 8
    assert_bitwise(module, {"a": RNG.normal(size=(n, cols))})


def test_store_to_load_forwarding_is_recorded_on_the_plan():
    n = 4
    fn = Fn({"a": (n,)}, {"t": (n,), "out": (n,)})
    with fn.loop(n) as i:
        value = fn.load(fn.arg["a"], i)
        fn.store(value, fn.arg["t"], i)
        again = fn.load(fn.arg["t"], i)
        fn.store(fn.op("arith.addf", again, again), fn.arg["out"], i)
    module = fn.done()
    plan = plan_of(module)
    assert plan.forwards == {id(again.owner_op()): value}
    assert_bitwise(module, {"a": RNG.normal(size=n)})


# -- degenerate shapes ---------------------------------------------------------


def test_rank0_accumulator_is_not_sliced():
    n = 6
    fn = Fn({"a": (n,)}, {"out": (n,)})
    acc = fn.alloc()
    fn.store(fn.op("arith.constant", value=0.0), acc)
    with fn.loop(n) as i:
        fn.store(fn.op("arith.addf", fn.load(acc),
                       fn.load(fn.arg["a"], i)), acc)
    with fn.loop(n) as i:       # needs the *finished* sum
        fn.store(fn.op("arith.mulf", fn.load(fn.arg["a"], i),
                       fn.load(acc)), fn.arg["out"], i)
    module = fn.done()
    plan = plan_of(module)
    assert sizes(plan) == [1, 1]
    assert acc not in plan.contracted and acc not in plan.zeroed
    assert_bitwise(module, {"a": RNG.normal(size=n)})


def test_rank0_input_kernel_from_ekl():
    module, name = lower("""
kernel k {
  index i: 6
  input a[i]: f64
  input s: f64
  output out
  t = s * 2.0
  out = sum[i](a * t)
}
""")
    assert_bitwise(module, {"a": RNG.normal(size=6),
                            "s": np.float64(1.5)}, name)


def test_zero_extent_nests():
    fn = Fn({"a": (4,), "e": (0,)}, {"out": (4,), "none": (0,)})
    t = fn.alloc(0)
    for src, dst in ((fn.arg["e"], t), (t, fn.arg["none"])):
        with fn.loop(0) as i:
            fn.store(fn.load(src, i), dst, i)
    with fn.loop(4) as i:
        fn.store(fn.load(fn.arg["a"], i), fn.arg["out"], i)
    module = fn.done()
    plan = plan_of(module)
    assert sizes(plan) == [2, 1] and plan.contracted[t] == (0,)
    assert_bitwise(module, {"a": RNG.normal(size=4), "e": np.zeros(0)})
