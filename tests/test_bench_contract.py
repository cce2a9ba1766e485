"""What ``python3 -m bench`` imports or patches by name still resolves.

The benchmark's workloads (``bench/workloads/``) import the program and
their ``instrument()`` methods replace attributes of it to record spans.
``bench/`` may not change in a PR that changes the program, so a rename
here — or deleting something kept alive only because a workload names
it, like ``codegen.compile_cache_stats`` — has to fail in tier-1, not
in ``make bench-selftest`` or, later still, in the benchmark run.  The
test resolves names and runs nothing.
"""

import dataclasses
import importlib
import sys
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))   # the ``bench`` package

#: module -> dotted attribute chains the workloads import or patch
NAMES = {
    "repro.tensorpipe.codegen": [
        "compile_affine", "compile_cache_stats", "count_flops",
        "CompiledKernel.run"],
    "repro.tensorpipe": ["lower_esn_to_teil", "lower_teil_to_affine"],
    "repro.ir": ["verify_typed", "CanonicalizePass.run", "FusionPass.run"],
    "repro.hls": ["synthesize_kernel"],
    "repro.frontends.ekl": [
        "parse_kernel", "run_kernel", "FIG3_MAJOR_ABSORBER"],
    "repro.frontends.ekl.lower": [
        "lower_kernel_to_ekl", "lower_ekl_to_esn"],
    "repro.pipeline": [
        "PipelineSession.register", "PipelineSession.run_stage",
        "PipelineSession.lower", "PipelineSession.compile",
        "PipelineSession.execute"],
    "repro.runtime": ["default_cluster"],
    "repro.runtime.engine": [
        "POLICIES", "RuntimeEngine", "synthetic_workflow"],
    "repro.basecamp.serve": ["BasecampServer"],
}


@pytest.mark.parametrize(
    "workload", ["compile_cold", "exec_stream", "serve_hot", "engine_plan"])
def test_workload_module_imports(workload):
    module = importlib.import_module(f"bench.workloads.{workload}")
    assert module.Workload.name == workload


@pytest.mark.parametrize("module", sorted(NAMES))
def test_named_attributes_resolve(module):
    owner = importlib.import_module(module)
    for chain in NAMES[module]:
        reduce(getattr, chain.split("."), owner)    # AttributeError fails


def test_instance_attributes_and_registered_names():
    from repro.ir import FusionPass
    from repro.pipeline import PipelineSession
    from repro.tensorpipe.backends import BACKENDS
    from repro.tensorpipe.codegen import CompiledKernel

    assert FusionPass().fused == 0
    session = PipelineSession()
    assert callable(session.registry.get)
    assert hasattr(session.cache, "stats")
    fields = {field.name for field in dataclasses.fields(CompiledKernel)}
    assert {"backend", "fallback", "flops", "arena_bytes"} <= fields
    assert {"interpreter", "compiled", "compiled-parallel",
            "compiled-arena", "cbackend"} <= set(BACKENDS)
