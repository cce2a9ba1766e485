"""Every ``benchmarks/bench_*.py`` still imports and collects.

The three oracle gates run only under ``make bench-ir``, ``bench-exec``
and ``bench-runtime``, so a gate that imports a deleted or renamed name
would otherwise break unnoticed in a plain ``pytest tests`` run.  One
``pytest --collect-only`` subprocess collects them all (imports only,
nothing is run); each script is its own test case so a failure names the
broken gate.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(path.name for path in
                 (ROOT / "benchmarks").glob("bench_*.py"))


@pytest.fixture(scope="module")
def collected():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider",
         *(f"benchmarks/{name}" for name in SCRIPTS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    return proc.stdout + proc.stderr


def test_benchmarks_exist():
    assert SCRIPTS, "no benchmarks/bench_*.py found"


@pytest.mark.parametrize("script", SCRIPTS)
def test_benchmark_collects(collected, script):
    path = f"benchmarks/{script}"
    errors = [line for line in collected.splitlines()
              if line.startswith(f"ERROR {path}")]
    assert not errors, collected[-3000:]
    assert f"{path}::" in collected, \
        f"{path} collected no test:\n{collected[-2000:]}"
