"""``python3 -m bench``: run the benchmark and print every metric by name.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it
all four workloads run with their rounds interleaved.  The exit code is
non-zero when a child fails or an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from bench import runner
from bench.workloads import NAMES


def _print_table(title: str, values: Dict[str, float],
                 units: Dict[str, str]) -> None:
    print(f"-- {title}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6g} {units.get(name, '')}")


def _contract_line(result: dict, names: List[str],
                   units: Dict[str, str]) -> str:
    metrics = result["metrics"]
    if set(metrics) != set(names):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(metrics))}, unexpected "
            f"{sorted(set(metrics) - set(names))}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    })


def _report(workload: str, seed: int, trace: int, result: dict,
            units: Dict[str, str]) -> None:
    kind = "per layer, traced" if trace else "end to end"
    print(f"== {workload} (seed {seed}, {kind}) ==")
    _print_table("metrics", result["metrics"], units)
    if result["diagnostics"]:
        _print_table("diagnostics (not gated)", result["diagnostics"], units)
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"-> {runner.write_result(workload, seed, trace, result)}")


def _selfcheck(seed: int, seconds: float, end_to_end: List[dict]) -> int:
    """Two full sets of the same code must agree within every bound."""
    sets = [runner.run_end_to_end(NAMES, seed + offset, seconds)
            for offset in (0, 1)]
    worst = 0
    print(f"{'workload':<14}{'metric':<18}{'set 1':>14}{'set 2':>14}"
          f"{'gap':>9}{'bound':>8}  round_spread")
    for workload in NAMES:
        first, second = (s[workload] for s in sets)
        for metric in end_to_end:
            name = metric["name"]
            a, b = first["metrics"][name], second["metrics"][name]
            gap = abs(a - b) / min(a, b)
            verdict = "" if gap <= metric["bound"] else "  DISAGREE"
            worst += bool(verdict)
            spreads = "/".join(
                f"{s['diagnostics']['loadgen.round_spread']:.3f}"
                for s in (first, second)) if name == "op_ms_p50" else ""
            print(f"{workload:<14}{name:<18}{a:>14.6g}{b:>14.6g}"
                  f"{gap:>9.4f}{metric['bound']:>8.2f}  {spreads}{verdict}")
        failed = first["failed"] + second["failed"]
        if failed:
            print(f"{workload:<14}{failed} op(s) failed")
            worst += 1
    return 1 if worst else 0


def main(argv=None) -> int:
    spec = runner.manifest()
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__)
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed seconds per workload, over all rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and compare them by the bounds")
    args = parser.parse_args(argv)

    layer = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[layer]]
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    try:
        if args.selfcheck:
            return _selfcheck(args.seed, args.seconds, spec["end_to_end"])
        workloads = [args.workload] if args.workload else list(NAMES)
        if args.trace:
            results = {workload: runner.run_traced(workload, args.seed,
                                                   args.seconds)
                       for workload in workloads}
        else:
            results = runner.run_end_to_end(workloads, args.seed,
                                            args.seconds)
    except runner.ChildFailed as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    for workload, result in results.items():
        _report(workload, args.seed, args.trace, result, units)
    if args.workload:
        print(_contract_line(results[args.workload], names, units))
    return 1 if any(r["failed"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
