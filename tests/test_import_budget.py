"""The layer graph of Fig. 2 only points down, and a module budget holds it.

Three checks:

* **The budget.**  Each entry point runs in a fresh interpreter and the
  ``repro.*`` modules it leaves in ``sys.modules`` are compared with the
  list below.  A module that is not listed fails (an import crept in:
  the runtime layer once loaded the whole compiler for one dataclass,
  and a one-line import in ``hls/synth.py`` twice read as +7.5 % RSS on
  a benchmark that compiles nothing).  A listed module that no longer
  loads fails too, so the lists only ever shrink: trim them when an
  import goes away, extend them only with a reason in the commit.
* **The rule.**  Over the top-level imports of every file in
  ``src/repro``: the runtime side of the stack (``platforms``,
  ``runtime``, ``telemetry``, ``errors``) imports nothing of the
  compiler, and the compiler's lower layers (``ir``, ``dialects``,
  ``tensorpipe``, ``hls``) import nothing of the orchestration above
  them (``pipeline``, ``basecamp``).  An import inside a function is
  not top-level and stays allowed: that is how an upper layer is
  reached on demand.
* **One planner.**  Under ``src/repro`` a scheduling policy's
  ``schedule`` / ``place`` is called from ``runtime/engine/core.py``
  and nowhere else: the engine owns the node timelines a policy plans
  into, and a second caller would be a second scheduler API.  And it is
  the only executor of a task graph: under ``src/repro/frontends`` a
  registered node implementation is handed to ``submit`` and never
  called, so ConDRust has no graph walker of its own.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PLATFORMS = """
    repro repro.errors repro.platforms repro.platforms.device
    repro.platforms.memory repro.platforms.network
    repro.platforms.resources repro.platforms.xrt
"""
_TELEMETRY = """
    repro.telemetry repro.telemetry.export repro.telemetry.log
    repro.telemetry.metrics repro.telemetry.trace
"""
_ENGINE = _PLATFORMS + _TELEMETRY + """
    repro.runtime repro.runtime.cluster repro.runtime.engine
    repro.runtime.engine.core repro.runtime.engine.events
    repro.runtime.engine.policies repro.runtime.engine.workloads
    repro.runtime.monitor repro.runtime.placement
    repro.runtime.taskgraph repro.runtime.timeline
    repro.runtime.virtualization
    repro.runtime.virtualization.hypervisor
    repro.runtime.virtualization.libvirt
    repro.runtime.virtualization.sriov
"""
_PIPELINE = _TELEMETRY + """
    repro repro.errors repro.pipeline repro.pipeline.cache
    repro.pipeline.report repro.pipeline.session repro.pipeline.stage
    repro.pipeline.stages
"""
_IR = """
    repro.ir repro.ir.analysis repro.ir.attributes repro.ir.builder
    repro.ir.canonicalize repro.ir.core repro.ir.dialect repro.ir.fusion
    repro.ir.parser repro.ir.passes repro.ir.printer repro.ir.rewrite
    repro.ir.symbols repro.ir.types repro.ir.verifier
    repro.dialects repro.dialects.builtin repro.dialects.system
    repro.dialects.tensorlang
"""

#: entry point -> (statement run in a fresh interpreter, allowed modules)
BUDGET = {
    "repro.platforms": ("import repro.platforms", _PLATFORMS),
    "repro.runtime.engine": ("import repro.runtime.engine", _ENGINE),
    # The LEXIS layer is the engine plus one module: nothing of the
    # daemon that deploys described workflows through it, or of the
    # compiler.
    "repro.workflows": (
        "import repro.workflows",
        _ENGINE + "repro.workflows repro.workflows.lexis"),
    # The coordination DSL reaches the runtime inside ``run()``: parsing
    # and lowering a program load no runtime or platform module.
    "repro.frontends.condrust": (
        "import repro.frontends.condrust", _IR + """
        repro repro.errors repro.frontends repro.frontends.condrust
        repro.frontends.condrust.ast repro.frontends.condrust.execute
        repro.frontends.condrust.lower repro.frontends.condrust.ownership
        repro.frontends.condrust.parser
        """),
    "repro.pipeline": ("import repro.pipeline", _PIPELINE),
    # The daemon reaches the engine and LEXIS inside ``_runtime``.
    "repro.basecamp.serve": (
        "import repro.basecamp.serve",
        _PIPELINE + "repro.basecamp repro.basecamp.serve"),
    "repro.tensorpipe.codegen": (
        "import repro.tensorpipe.codegen", _IR + _TELEMETRY + """
        repro repro.errors repro.tensorpipe
        repro.tensorpipe.affine_interp repro.tensorpipe.arena
        repro.tensorpipe.codegen repro.tensorpipe.lower_esn
        repro.tensorpipe.lower_teil
        """),
    # `python -m repro.basecamp.cli --help`: the CLI module itself runs
    # as __main__, and every subcommand imports what it needs when run.
    "basecamp --help": (
        "sys.argv[1:] = ['--help']; import runpy; "
        "runpy.run_module('repro.basecamp.cli', run_name='__main__')",
        "repro repro.basecamp repro.errors"),
}

_CHILD = """\
import sys
try:
    {statement}
except SystemExit:
    pass
print("\\nLOADED", *sorted(m for m in sys.modules
                           if m == "repro" or m.startswith("repro.")))
"""


def _python(*args):
    """Run a fresh interpreter on this tree's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _loaded(statement):
    proc = _python("-c", _CHILD.format(statement=statement))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.rsplit("LOADED", 1)[1].split())


@pytest.mark.parametrize("entry", sorted(BUDGET))
def test_entry_point_loads_only_its_budget(entry):
    statement, allowed = BUDGET[entry]
    allowed = set(allowed.split())
    loaded = _loaded(statement)
    extra = sorted(loaded - allowed)
    assert not extra, (
        f"{entry} now loads {extra}; find the import chain with\n"
        f"  python -X importtime -c \"import sys; {statement}\"\n"
        "and make it lazy or move it down the stack")
    unused = sorted(allowed - loaded)
    assert not unused, (
        f"{entry} no longer loads {unused}: trim them from BUDGET in "
        f"{Path(__file__).name} so they cannot come back unnoticed")


def test_running_the_cli_as_a_module_warns_of_nothing():
    """``repro.basecamp`` used to import its ``cli`` eagerly, so every
    documented ``python -m repro.basecamp.cli ...`` printed runpy's
    "found in sys.modules" RuntimeWarning."""
    proc = _python("-W", "error", "-m", "repro.basecamp.cli", "info")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "alveo-u55c" in proc.stdout


# -- the rule ----------------------------------------------------------------

_COMPILER = {"ir", "dialects", "numerics", "frontends", "tensorpipe", "hls",
             "olympus", "pipeline", "basecamp"}
#: first path component under src/repro -> packages it may not import
FORBIDDEN = {
    "platforms": _COMPILER, "runtime": _COMPILER, "telemetry": _COMPILER,
    "errors.py": _COMPILER,
    "tensorpipe": {"pipeline", "basecamp"}, "hls": {"pipeline", "basecamp"},
    "ir": {"pipeline", "basecamp"}, "dialects": {"pipeline", "basecamp"},
}


def _top_level_imports(path):
    """The ``repro`` sub-packages a file imports at module level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro":
                names = [f"repro.{alias.name}" for alias in node.names]
            else:
                names = [node.module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.lineno


def test_top_level_imports_point_down_the_stack():
    root = SRC / "repro"
    upward = []
    for path in sorted(root.rglob("*.py")):
        layer = path.relative_to(root).parts[0]
        for package, lineno in _top_level_imports(path):
            if package in FORBIDDEN.get(layer, ()):
                upward.append(f"{path.relative_to(SRC)}:{lineno} imports "
                              f"repro.{package}")
    assert not upward, (
        "imports that point up the Fig. 2 stack (move the shared piece "
        "down, or import inside the function that needs it):\n  "
        + "\n  ".join(upward))


def test_only_the_engine_calls_a_policy():
    root = SRC / "repro"
    engine = root / "runtime" / "engine" / "core.py"
    callers = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("schedule", "place"):
                callers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    outside = [c for c in callers if not c.startswith(
        str(engine.relative_to(SRC)) + ":")]
    assert not outside, (
        "a policy is planned through a RuntimeEngine (submit, then "
        "run()), never called directly:\n  " + "\n  ".join(outside))
    assert len(callers) == 2, callers  # one schedule(), one place()


def test_only_the_engine_calls_a_node_implementation():
    """A frontend's ``registry`` of implementations is written by
    ``register`` / ``register_all`` and read in one place: as the
    function argument of ``engine.submit``."""
    root = SRC / "repro" / "frontends"
    submitted, read, hooks = [], [], []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}"
            names = [getattr(node, field, None)
                     for field in ("id", "attr", "name", "arg")]
            if any(isinstance(name, str) and "offload" in name
                   and name != "offloaded" for name in names):
                hooks.append(where)
            of_registry = getattr(getattr(node, "value", None), "attr",
                                  None) == "registry"
            if of_registry and isinstance(node, ast.Attribute) \
                    and node.attr != "update":
                read.append(where)  # .get / .values / .items / .pop
            elif of_registry and isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Load):
                call = parent[node]
                if isinstance(call, ast.Call) and call.args[:1] == [node] \
                        and getattr(call.func, "attr", None) == "submit":
                    submitted.append(where)
                else:
                    read.append(where)
    assert not hooks, (
        "an offload hook beside the engine's FPGA placement:\n  "
        + "\n  ".join(hooks))
    assert not read, (
        "a node implementation is taken out of the registry; hand it to "
        "RuntimeEngine.submit instead:\n  " + "\n  ".join(read))
    assert len(submitted) == 1, submitted
