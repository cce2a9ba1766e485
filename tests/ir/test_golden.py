"""Golden-file tests for the Fig. 5 dialect lowerings.

Each test prints one stage of the lowering cascade and compares it against
a snapshot in ``tests/ir/golden/*.mlir``.  Any optimizer or lowering
change therefore shows up as a reviewable textual diff; refresh the
snapshots deliberately with::

    pytest tests/ir/test_golden.py --update-golden
"""

from pathlib import Path

import pytest

from repro.frontends.cfdlang import (
    lower_cfdlang_to_teil,
    lower_program_to_cfdlang,
    parse_program,
)
from repro.frontends.ekl import parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.ir import DeadCodeElimination, print_module, verify
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine

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


@pytest.fixture(scope="module")
def ekl_stages():
    kernel = parse_kernel(EKL_SAMPLE)
    ekl = lower_kernel_to_ekl(kernel)
    esn = lower_ekl_to_esn(ekl)
    teil = lower_esn_to_teil(esn)
    affine = lower_teil_to_affine(teil)
    for module in (ekl, esn, teil, affine):
        verify(module)
    return {"ekl": ekl, "esn": esn, "teil": teil, "affine": affine}


class TestEKLGolden:
    @pytest.mark.parametrize("stage", ["ekl", "esn", "teil", "affine"])
    def test_stage_snapshot(self, request, ekl_stages, stage):
        _check(request, f"fig5_demo_{stage}",
               print_module(ekl_stages[stage]))

    def test_raw_lowering_snapshot(self, request):
        """The un-canonicalized chain, pinned so the optimizer's effect
        stays visible as the diff between the raw and canonical files."""
        kernel = parse_kernel(EKL_SAMPLE)
        raw = lower_teil_to_affine(
            lower_esn_to_teil(
                lower_ekl_to_esn(lower_kernel_to_ekl(kernel),
                                 canonicalize=False),
                canonicalize=False,
            ),
            canonicalize=False,
        )
        verify(raw)
        _check(request, "fig5_demo_affine_raw", print_module(raw))


    def test_canonical_stages_hold_no_dead_op(self, ekl_stages):
        """The lowerings canonicalize without a dead-code sweep; nothing
        is left for one to erase."""
        for stage in ("esn", "teil", "affine"):
            assert DeadCodeElimination().run(
                ekl_stages[stage].clone()) is False, stage


class TestCFDlangGolden:
    def test_cfdlang_dialect_snapshot(self, request):
        module = lower_program_to_cfdlang(parse_program(CFD_SAMPLE), "matvec")
        verify(module)
        _check(request, "cfd_matvec_cfdlang", print_module(module))

    def test_teil_snapshot(self, request):
        module = lower_cfdlang_to_teil(
            lower_program_to_cfdlang(parse_program(CFD_SAMPLE), "matvec")
        )
        verify(module)
        _check(request, "cfd_matvec_teil", print_module(module))

    def test_affine_snapshot(self, request):
        module = lower_teil_to_affine(lower_cfdlang_to_teil(
            lower_program_to_cfdlang(parse_program(CFD_SAMPLE), "matvec")
        ))
        verify(module)
        _check(request, "cfd_matvec_affine", print_module(module))
        assert DeadCodeElimination().run(module) is False
