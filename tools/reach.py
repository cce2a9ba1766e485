"""Which defs of ``src/repro`` an entry point reaches, which only a test
reaches, and which nothing reaches: ``python tools/reach.py`` (make reach).

Two children run under a ``sys.settrace`` collector (the call-count tests
own ``sys.setprofile``): *entry* runs ``examples/``, the :data:`CLI` calls
and a daemon serving :data:`DAEMON`; *tests* runs tier-1.  A benchmark is
not an entry point and no phase runs ``benchmarks/``: code only a benchmark
reaches counts as unreached.  A test that fails under tracing still counts
for what it reached.  Counts are def-lines, decorators included, a nested
def in its parent's too.  The exit status is 1 when an unreached def is not
in :data:`ALLOWLIST` or an allowlist entry is reached or gone.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

# ``basecamp`` arguments; {ekl}, {rust} and {csv} name input files.
CLI = ["compile {ekl} --emit mlir",
       "synthesize {ekl} --format posit<16,1>", "olympus {ekl}",
       "pipeline {ekl} --nodes 2 --trace {tmp}/trace.json",
       "run {ekl} --random-seed 0 --backend cbackend --time", "dialects",
       "condrust {rust}", "detect {csv} --trials 4", "info",
       "runtime --tasks 30 --fpga-fraction 0.3 --fail node1@2.0"]
SMALL = "kernel k {\n index i: 8\n input a[i]: f64\n output c\n c = a * a\n}"
DAEMON = [("/compile", {"source": SMALL}),
          ("/execute", {"source": SMALL, "random_seed": 0}),
          ("/runtime", {"policy": "all", "nodes": 2, "tasks": [
              {"name": "a"}, {"name": "b", "after": ["a"], "fpga": True}]}),
          ("/stats", None), ("/metrics", None), ("/healthz", None)]
PYTEST = ["-q", "-p", "no:cacheprovider"]

# "module:qualname" -> why the def stays although nothing reaches it.
# Dunder protocol methods need no entry; constructors do (an unreached
# one is an unused class).
CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}
ALLOWLIST: Dict[str, str] = {
    "repro.anomaly.detectors:Detector.fit": "abstract; detectors override",
    "repro.anomaly.detectors:Detector.scores": "abstract; detectors override",
    "repro.ir.passes:Pass.run": "abstract; every pass overrides it",
    "repro.ir.rewrite:RewritePattern.match_and_rewrite":
        "abstract; every pattern overrides it",
    "repro.basecamp.cli:cmd_serve": "`basecamp serve` runs in the "
        "subprocess of tools/serve_smoke.py, which no tracer here sees",
    "repro.basecamp.serve:BasecampServer.serve_forever": "what "
        "`basecamp serve` blocks in (tools/serve_smoke.py, a subprocess)",
    "repro.frontends.ekl.interp:run_kernel": "the reference result of "
        "bench/workloads/compile_cold.py and serve_hot.py",
    "repro.tensorpipe.codegen:compile_cache_stats": "imported by "
        "bench/workloads/compile_cold.py; its removal follows ROADMAP's "
        "\"The benchmark compares two trees itself\"",
    "repro.telemetry.trace:NullTracer.record_span":
        "null-object parity with Tracer.record_span",
    "repro.telemetry.trace:NullTracer.clear":
        "null-object parity with Tracer.clear",
}

Key = Tuple[str, int, str]      # (real path, first line, name)


class Def(NamedTuple):
    name: str                   # "repro.pkg.module:Class.method"
    key: Key
    lines: int


def defs(src: Path) -> List[Def]:
    """Every ``def`` in the package rooted at ``src``, nested ones too."""
    found: List[Def] = []

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append(Def(prefix + child.name,
                                 (path, first, child.name),
                                 child.end_lineno - first + 1))
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            walk(child, path, f"{prefix}{child.name}." if scope else prefix)

    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        walk(ast.parse(path.read_text()), os.path.realpath(path),
             module + ":")
    return found


def reached(run: Callable[[], object]) -> Set[Key]:
    """The key of every code object entered while ``run()`` runs, in this
    thread and in threads it starts (an enclosing collector pauses)."""
    seen: dict = {}
    outer = sys.gettrace(), threading.gettrace()

    def tracer(frame, event, arg):
        seen[id(frame.f_code)] = frame.f_code

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
            for c in seen.values()}


def _entry_points() -> None:
    from repro.basecamp.cli import main
    from repro.basecamp.serve import BasecampServer
    from repro.frontends.condrust import FIG4_MAP_MATCHING
    from repro.frontends.ekl import FIG3_MAJOR_ABSORBER

    errors = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(errors), \
            tempfile.TemporaryDirectory() as tmp:
        for script in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")
        files = {"ekl": FIG3_MAJOR_ABSORBER, "rust": FIG4_MAP_MATCHING,
                 "csv": "".join(f"{i % 7},{i % 5}\n" for i in range(60))}
        for key, text in files.items():
            files[key] = f"{tmp}/input.{key}"
            Path(files[key]).write_text(text)
        for line in CLI:
            if main(line.format(tmp=tmp, **files).split()) != 0:
                raise SystemExit(f"reach: basecamp {line} failed:\n"
                                 + errors.getvalue())
    server = BasecampServer(port=0).start()
    try:
        for path, body in DAEMON:
            data = body and json.dumps(body).encode()
            with urllib.request.urlopen(server.url + path, data, 120) as r:
                r.read()
    finally:
        server.shutdown()


PHASES = {"entry": _entry_points,
          "tests": lambda: pytest.main(PYTEST + ["tests"])}


def report(found: List[Def], entry: Set[Key], tests: Set[Key],
           allowlist: Dict[str, str]) -> int:
    """Print the per-package table; return the exit status."""
    kinds = [0 if d.key in entry else 1 if d.key in tests else 2
             for d in found]
    table: Dict[str, List[int]] = {}
    for d, kind in zip(found, kinds):
        package = (d.name.split(":")[0].split(".") + ["repro"])[1]
        for row in (package, "total"):
            table.setdefault(row, [0, 0, 0])[kind] += d.lines
    print(f"{'def-lines':16s}{'entry':>8s}{'test-only':>11s}"
          f"{'unreached':>11s}")
    for package, row in sorted(table.items(), key=lambda i: i[0] == "total"):
        print(f"{package:16s}{row[0]:8d}{row[1]:11d}{row[2]:11d}")
    unreached = {d.name for d, kind in zip(found, kinds) if kind == 2}
    errors = [f"allowlisted but reached or gone: {name}"
              for name in allowlist if name not in unreached]
    for d, kind in zip(found, kinds):
        name = d.key[2]
        if kind == 2 and d.name not in allowlist and not (
                name[:2] == name[-2:] == "__" and name not in CONSTRUCTORS):
            errors.append(f"unreached, not allowlisted: {d.name} "
                          f"({d.key[0]}:{d.key[1]}, {d.lines} lines)")
    print(f"{len(found)} defs; {len(allowlist)} allowlisted")
    for error in errors:
        print(f"reach: {error}", file=sys.stderr)
    return 1 if errors else 0


def _trace(phase: str) -> Set[Key]:
    """Run one phase in a child interpreter on this tree's ``src``."""
    print(f"reach: tracing the {phase} phase ...", flush=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reached.json"
        subprocess.run([sys.executable, __file__, phase, str(out)],
                       check=True, cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL)
        return {tuple(key) for key in json.loads(out.read_text())}


def main(argv: List[str]) -> int:
    if argv:                    # PHASE OUT: the child of _trace
        phase, out = argv
        Path(out).write_text(json.dumps(sorted(reached(PHASES[phase]))))
        return 0
    return report(defs(SRC), _trace("entry"), _trace("tests"), ALLOWLIST)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
