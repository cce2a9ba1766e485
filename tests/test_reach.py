"""``tools/reach.py`` on a fixture package of three defs: one an entry
point reaches, one only a test reaches, one nothing reaches.  The tree
itself is traced by ``make reach``, not here; only its allowlist's names
are checked against the tree's defs."""

import importlib
import inspect
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import reach  # noqa: E402

FIXTURE = '''\
def used():
    return 1


def tested():
    return 2


def dead():
    return 3


class Box:
    def __repr__(self):
        return "Box()"
'''


@pytest.fixture
def package(tmp_path, monkeypatch):
    root = tmp_path / "reachfix"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(FIXTURE)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield root, importlib.import_module("reachfix.mod")
    for name in ("reachfix.mod", "reachfix"):
        sys.modules.pop(name, None)


def test_three_classifications(package, capsys):
    root, mod = package
    entry = reach.reached(mod.used)
    tests = reach.reached(lambda: (mod.used(), mod.tested()))
    found = {d.name: d for d in reach.defs(root)}
    assert sorted(found) == ["reachfix.mod:Box.__repr__", "reachfix.mod:dead",
                             "reachfix.mod:tested", "reachfix.mod:used"]
    assert found["reachfix.mod:used"].key in entry
    assert found["reachfix.mod:tested"].key in tests - entry
    assert found["reachfix.mod:dead"].key not in entry | tests
    # def-lines per package: entry, test-only, unreached (dead + __repr__)
    assert reach.report(list(found.values()), entry, tests,
                        {"reachfix.mod:dead": "kept for the test"}) == 0
    assert "mod                    2          2          4" \
        in capsys.readouterr().out


def test_an_unreached_def_not_allowlisted_fails_the_tool(
        package, monkeypatch, capsys):
    root, mod = package
    traced = {"entry": reach.reached(mod.used),
              "tests": reach.reached(mod.tested)}
    monkeypatch.setattr(reach, "SRC", root)
    monkeypatch.setattr(reach, "_trace", traced.__getitem__)

    def run_with(allowlist):
        monkeypatch.setattr(reach, "ALLOWLIST", allowlist)
        return reach.main([]), capsys.readouterr().err

    status, err = run_with({})
    assert status == 1
    assert "unreached, not allowlisted: reachfix.mod:dead" in err
    assert "Box.__repr__" not in err           # dunder protocol method
    assert run_with({"reachfix.mod:dead": "kept for the test"}) == (0, "")
    status, err = run_with({"reachfix.mod:dead": "kept for the test",
                            "reachfix.mod:used": "stale"})
    assert status == 1
    assert "allowlisted but reached or gone: reachfix.mod:used" in err


def test_every_allowlist_entry_names_a_def_of_the_tree():
    """Static half of the stale-entry check: a deletion that leaves an
    entry behind fails here, without the traced ``make reach``."""
    names = {d.name for d in reach.defs(reach.SRC)}
    assert sorted(set(reach.ALLOWLIST) - names) == []


def test_no_phase_runs_a_benchmark():
    """A benchmark is not an entry point: ``make reach`` traces the entry
    points and tier-1 only, so code only a benchmark reaches is unreached."""
    assert sorted(reach.PHASES) == ["entry", "tests"]
    for phase in reach.PHASES.values():
        assert "benchmarks" not in inspect.getsource(phase)
