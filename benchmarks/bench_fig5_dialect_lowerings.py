"""FIG5: the EVEREST MLIR dialect graph (paper Fig. 5).

Verifies that every lowering edge drawn in the figure is implemented and
runs, and times the complete frontend-to-backend cascade.
"""

from repro.dialects import DIALECT_GRAPH, registered_edges
from repro.ir import REGISTRY


def test_fig5_every_edge_implemented(benchmark):
    edges = benchmark(registered_edges)
    assert set(DIALECT_GRAPH) <= set(edges)


def test_fig5_all_dialects_registered(benchmark):
    names = benchmark(REGISTRY.names)
    expected = {"ekl", "esn", "teil", "cfdlang", "dfg", "olympus", "evp",
                "base2", "cyclic", "bit", "ub", "fsm", "hw", "jabbah",
                "affine", "linalg", "tensor", "gpu", "buffer"}
    assert expected <= set(names)


def test_fig5_full_cascade(benchmark, rrtmg_affine):
    """ekl -> esn -> teil -> affine -> {fsm, hw} on the Fig. 3 kernel."""
    from repro.dialects import lowering_for

    _, affine_module = rrtmg_affine

    def cascade():
        fsm = lowering_for("affine", "fsm")(affine_module)
        hw = lowering_for("affine", "hw")(affine_module)
        return fsm, hw

    fsm, hw = benchmark(cascade)
    assert any(op.name == "fsm.machine" for op in fsm.body)
    assert any(op.name == "hw.module" for op in hw.body)


def test_fig5_affine_to_executor(benchmark, rrtmg_affine, rrtmg_inputs):
    """The CPU-executor edge out of the affine dialect: codegen + compile
    of the Fig. 3 module (a direct call compiles every time),
    bit-identical to the interpreter."""
    from repro.tensorpipe.affine_interp import run_affine
    from repro.tensorpipe.codegen import compile_affine

    kernel, module = rrtmg_affine
    compiled = benchmark(lambda: compile_affine(module, kernel.name))
    assert compiled.backend == "compiled"
    import numpy as np

    expected = run_affine(module, kernel.name, rrtmg_inputs)
    got = compiled.run(rrtmg_inputs)
    for name in expected:
        np.testing.assert_array_equal(got[name], expected[name])
