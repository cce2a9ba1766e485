"""FIG5: the EVEREST MLIR dialect graph (paper Fig. 5).

Verifies that every lowering edge drawn in the figure is implemented and
runs, and times the EKL cascade from the frontend down to affine loops.
"""

from repro.dialects import DIALECT_GRAPH, registered_edges
from repro.ir import REGISTRY


def test_fig5_every_edge_implemented(benchmark):
    edges = benchmark(registered_edges)
    assert set(DIALECT_GRAPH) <= set(edges)


def test_fig5_all_dialects_registered(benchmark):
    names = benchmark(REGISTRY.names)
    drawn = {name for edge in DIALECT_GRAPH for name in edge
             if not name.endswith("-frontend")}
    assert drawn <= set(names)


def test_fig5_full_cascade(benchmark):
    """ekl -> esn -> teil -> affine on the Fig. 3 kernel, each edge
    resolved through ``lowering_for``; the result is typed-verified."""
    from repro.dialects import lowering_for
    from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
    from repro.ir import verify_typed

    kernel = parse_kernel(FIG3_MAJOR_ABSORBER)

    def cascade():
        module = lowering_for("ekl-frontend", "ekl")(kernel)
        for source, target in (("ekl", "esn"), ("esn", "teil"),
                               ("teil", "affine")):
            module = lowering_for(source, target)(module)
        return module

    affine = benchmark(cascade)
    verify_typed(affine)
    assert affine.lookup(kernel.name).attr("kernel_lang") == "affine"


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
