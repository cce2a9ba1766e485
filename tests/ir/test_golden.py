"""Golden-file tests for the Fig. 5 dialect lowerings.

Each test prints one stage of the lowering cascade and compares it against
a snapshot in ``tests/ir/golden/*.mlir``.  Any optimizer or lowering
change therefore shows up as a reviewable textual diff; refresh the
snapshots deliberately with::

    pytest tests/ir/test_golden.py --update-golden
"""

import os
import sys
from pathlib import Path

import pytest

from repro.frontends.cfdlang import (
    lower_cfdlang_to_teil,
    lower_program_to_cfdlang,
    parse_program,
)
from repro.frontends.ekl import parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.ir import print_module, verify
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
)

from oracles import dce_sweep  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"

EKL_SAMPLE = """
kernel fig5_demo {
  index i: 3, j: 4
  input a[i, j]: f64
  input v[j]: f64
  output y
  s = a * v + 0.0
  y = sum[j](s * 1.0)
}
"""

CFD_SAMPLE = """
var input A : [3 4]
var input x : [4]
var output y : [3]
y = (A # x) . [[2 3]]
"""


def _check(request, name: str, text: str) -> None:
    path = GOLDEN_DIR / f"{name}.mlir"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"{path} missing — regenerate with `pytest {__file__} "
        "--update-golden`"
    )
    assert text == path.read_text(), (
        f"lowering output changed vs {path.name}; if intended, refresh "
        "with `pytest tests/ir/test_golden.py --update-golden` and review "
        "the diff"
    )


def ekl_sample_stages():
    """The EKL sample at its four stages, each lowered from the last."""
    ekl = lower_kernel_to_ekl(parse_kernel(EKL_SAMPLE))
    esn = lower_ekl_to_esn(ekl)
    teil = lower_esn_to_teil(esn)
    affine = lower_teil_to_affine(teil)
    return {"ekl": ekl, "esn": esn, "teil": teil, "affine": affine}


def ekl_sample_raw():
    """The EKL sample through the un-canonicalized chain."""
    return lower_teil_to_affine(
        lower_esn_to_teil(
            lower_ekl_to_esn(lower_kernel_to_ekl(parse_kernel(EKL_SAMPLE)),
                             canonicalize=False),
            canonicalize=False,
        ),
        canonicalize=False,
    )


def cfd_sample_stages():
    """The CFDlang sample at its three stages, each lowered afresh."""
    def cfdlang():
        return lower_program_to_cfdlang(parse_program(CFD_SAMPLE), "matvec")

    return {"cfdlang": cfdlang(),
            "teil": lower_cfdlang_to_teil(cfdlang()),
            "affine": lower_teil_to_affine(lower_cfdlang_to_teil(cfdlang()))}


def golden_modules():
    """Every pinned module, by the name of its golden file."""
    modules = {f"fig5_demo_{stage}": module
               for stage, module in ekl_sample_stages().items()}
    modules["fig5_demo_affine_raw"] = ekl_sample_raw()
    modules.update((f"cfd_matvec_{stage}", module)
                   for stage, module in cfd_sample_stages().items())
    return modules


@pytest.fixture(scope="module")
def ekl_stages():
    stages = ekl_sample_stages()
    for module in stages.values():
        verify(module)
    return stages


class TestEKLGolden:
    @pytest.mark.parametrize("stage", ["ekl", "esn", "teil", "affine"])
    def test_stage_snapshot(self, request, ekl_stages, stage):
        _check(request, f"fig5_demo_{stage}",
               print_module(ekl_stages[stage]))

    def test_raw_lowering_snapshot(self, request):
        """The un-canonicalized chain, pinned so the optimizer's effect
        stays visible as the diff between the raw and canonical files."""
        raw = ekl_sample_raw()
        verify(raw)
        _check(request, "fig5_demo_affine_raw", print_module(raw))


    def test_canonical_stages_hold_no_dead_op(self, ekl_stages):
        """The lowerings canonicalize without a dead-code sweep; nothing
        is left for one to erase."""
        for stage in ("esn", "teil", "affine"):
            assert dce_sweep(ekl_stages[stage].clone()) is False, stage


@pytest.fixture(scope="module")
def cfd_stages():
    stages = cfd_sample_stages()
    for module in stages.values():
        verify(module)
    return stages


class TestCFDlangGolden:
    def test_cfdlang_dialect_snapshot(self, request, cfd_stages):
        _check(request, "cfd_matvec_cfdlang",
               print_module(cfd_stages["cfdlang"]))

    def test_teil_snapshot(self, request, cfd_stages):
        _check(request, "cfd_matvec_teil", print_module(cfd_stages["teil"]))

    def test_affine_snapshot(self, request, cfd_stages):
        module = cfd_stages["affine"]
        _check(request, "cfd_matvec_affine", print_module(module))
        assert dce_sweep(module) is False
