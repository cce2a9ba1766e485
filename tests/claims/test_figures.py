"""The paper's figures, each checked through an SDK entry point.

Figures whose claim a tier-1 test already states through an entry point
are checked there, not again here:

* Fig. 1 (a vertical's workflow on the accelerated platform, with its
  FPGA step placed on a card): ``/runtime`` with a described workflow,
  ``tests/test_serve.py::TestService::test_runtime_described_workflow``;
* Fig. 4 (the ConDRust listing): ``basecamp condrust``,
  ``tests/test_workflows_basecamp.py::TestBasecampCLI::test_condrust``,
  and its FPGA placement in
  ``tests/frontends/test_condrust.py::TestLoweringAndExecution``;
* Fig. 5's edges and dialects: ``basecamp dialects``,
  ``tests/test_workflows_basecamp.py::TestBasecampCLI::test_dialects_graph``.
"""

import numpy as np
import pytest

from repro.autotuner import MargotManager, OperatingPoint, Rank
from repro.basecamp.serve import BasecampService
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.pipeline import PipelineSession
from repro.tensorpipe.backends import registered_backends


def test_fig2_margot_knowledge_is_the_olympus_design_space():
    """Fig. 2's runtime-management box: the DSE points Olympus explored
    are mARGOt's knowledge, and ranked by latency it picks the
    configuration Olympus selected for the system."""
    olympus = PipelineSession().olympus(FIG3_MAJOR_ABSORBER)
    assert olympus.system.fits()
    manager = MargotManager([
        OperatingPoint({"config": config.label()},
                       {"latency_s": breakdown.total,
                        "bram": float(resources.bram)})
        for config, breakdown, resources in olympus.points])
    manager.set_rank(Rank({"latency_s": 1.0}))
    assert manager.update().knobs["config"] == olympus.best.label()


@pytest.mark.parametrize("backend", sorted(registered_backends()))
def test_fig3_listing_computes_the_loop_reference(backend, rrtmg_inputs):
    """The Einstein-notation listing, compiled by the session for each
    executor, computes the optical depths of the Fortran-shaped loops."""
    from repro.apps.wrf.rrtmg import tau_major_reference

    result = PipelineSession().execute(FIG3_MAJOR_ABSORBER, rrtmg_inputs,
                                       backend=backend)
    np.testing.assert_allclose(result.outputs["tau_abs"],
                               tau_major_reference(rrtmg_inputs))


def test_fig5_cascade_through_the_lowering_registry():
    """ekl -> esn -> teil -> affine, each edge resolved through
    ``lowering_for``, is the module the session compiles."""
    from repro.dialects import lowering_for
    from repro.frontends.ekl import parse_kernel
    from repro.ir import FusionPass, print_module, verify_typed

    kernel = parse_kernel(FIG3_MAJOR_ABSORBER)
    module = kernel
    for edge in (("ekl-frontend", "ekl"), ("ekl", "esn"), ("esn", "teil"),
                 ("teil", "affine")):
        module = lowering_for(*edge)(module)
    verify_typed(module)
    assert module.lookup(kernel.name).attr("kernel_lang") == "affine"
    # The session's canonicalize stage also fuses elementwise chains.
    FusionPass().run(module)
    lowered = PipelineSession().lower(FIG3_MAJOR_ABSORBER)
    assert print_module(module) == print_module(lowered.module)


def test_fig6_fpga_task_pays_the_sriov_overhead_under_every_policy():
    """An FPGA kernel reached through an SR-IOV virtual function runs at
    near-native speed: one ``/runtime`` task of ``fpga_seconds`` takes
    that times ``SRIOV_OVERHEAD`` on a card, whichever policy places it."""
    from repro.runtime.cluster import SRIOV_OVERHEAD

    reply = BasecampService().handle("runtime", {
        "policy": "all", "nodes": 2,
        "tasks": [{"name": "kernel", "fpga": True, "fpga_seconds": 1e-3}]})
    assert [row["policy"] for row in reply["results"]] \
        == ["heft", "min-load", "round-robin"]
    for row in reply["results"]:
        placed = row["placements"]["kernel"]
        assert placed["finish"] - placed["start"] \
            == pytest.approx(1e-3 * SRIOV_OVERHEAD)
        assert row["makespan"] == pytest.approx(1e-3 * SRIOV_OVERHEAD)
