"""The ``basecamp`` command-line interface.

Subcommands mirror the SDK's phases (paper §IV):

* ``basecamp compile <kernel.ekl>`` — frontend → MLIR → loops → HLS report;
* ``basecamp synthesize <kernel.ekl> --format fixed<8.8>`` — HLS with a
  custom data format;
* ``basecamp olympus <kernel.ekl> --device alveo-u55c`` — system-level
  architecture generation with DSE;
* ``basecamp pipeline <kernel.ekl>`` — the full Fig. 2 flow with the
  per-stage timing/caching table, read off its telemetry spans;
* ``basecamp run <kernel.ekl> --random-seed 0 --time`` — compile to a CPU
  executor backend and run it (optionally racing the reference
  interpreter);
* ``basecamp dialects`` — the registered dialect graph (Fig. 5);
* ``basecamp condrust <program.rs>`` — parse/check/lower a coordination
  program;
* ``basecamp detect <data.csv>`` — AutoML anomaly detection to JSON;
* ``basecamp runtime --policy heft|round-robin|min-load|all`` — run a
  synthetic workflow through the event-driven runtime engine, optionally
  injecting a node failure (``--fail node1@5.0``);
* ``basecamp serve`` — the long-running multi-tenant compile-and-run
  daemon (JSON over HTTP, shared stage cache, single-flight dedup,
  admission control — see :mod:`repro.basecamp.serve`);
* ``basecamp info`` — platform catalog.

``run`` and ``runtime`` are the daemon's ``/execute`` and ``/runtime``
requests, made in process: each flag is the request field of its name
(``--input`` binds ``inputs``), a flag not given is a field not sent,
and :meth:`repro.basecamp.serve.BasecampService.handle` validates and
answers.  A field the schema refuses is a usage error (exit 2) carrying
the daemon's 400 message.

The EKL-compiling subcommands all run through one process-wide
:class:`repro.pipeline.PipelineSession`, so invoking several of them on
the same kernel (or the same one twice) reuses the cached stages.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional

from repro.errors import EverestError, RequestRefused

if TYPE_CHECKING:
    from repro.telemetry.trace import Tracer


@contextmanager
def _tracing(path: Optional[str]) -> Iterator["Tracer"]:
    """Record telemetry spans for the wrapped command; yields the tracer.

    A recording tracer is installed for the duration of the command
    (``basecamp pipeline`` prints its stage table from it).  With
    ``--trace out.json`` the spans are also written as Chrome
    trace-event JSON on the way out — load it at https://ui.perfetto.dev
    (or ``chrome://tracing``).
    """
    from repro.telemetry.export import write_chrome_trace
    from repro.telemetry.trace import disable, enable

    tracer = enable()
    try:
        yield tracer
    finally:
        disable()
        if path:
            events = write_chrome_trace(path, tracer)
            print(f"trace: {events} event(s) -> {path} "
                  "(open in https://ui.perfetto.dev)", file=sys.stderr)


def _kernel_text(source_path: str) -> str:
    # The session takes EKL text only; a missing file is a
    # FileNotFoundError that main() reports as `basecamp: error`.
    with open(source_path) as handle:
        return handle.read()


def _session():
    from repro.pipeline import get_session

    return get_session()


def cmd_compile(args) -> int:
    source = _kernel_text(args.source)
    if args.emit == "mlir":
        from repro.ir import print_module

        result = _session().lower(source)
        print(print_module(result.module))
    else:
        result = _session().compile(source)
        print(result.report.summary())
    return 0


def cmd_synthesize(args) -> int:
    result = _session().compile(_kernel_text(args.source),
                                number_format=args.format)
    print(result.report.summary())
    return 0


def cmd_olympus(args) -> int:
    result = _session().olympus(_kernel_text(args.source),
                                device=args.device)
    print(f"design space for {result.system.instances[0].name} "
          f"on {args.device}:")
    for config, latency, resources in result.points:
        print(f"  {config.label():18s} latency={latency.total * 1e6:10.2f}us"
              f"  LUT={resources.lut:8d} DSP={resources.dsp:6d}"
              f" BRAM={resources.bram:5d}")
    print(f"selected: {result.best.label()}")
    return 0


def cmd_pipeline(args) -> int:
    from repro.telemetry.export import stage_summary

    with _tracing(args.trace) as tracer:
        plan = _session().deploy(_kernel_text(args.source),
                                 device=args.device, nodes=args.nodes)
        schedule = plan.schedule
        print(f"deployed on {args.nodes} nodes: "
              f"{len(schedule.placements)} task(s), "
              f"makespan {schedule.makespan * 1e6:.2f} us")
        print(stage_summary(tracer))
    return 0


def _handle(endpoint: str, **fields) -> Dict[str, Any]:
    """One in-process request to the daemon's service, the body made of
    the flags given: a flag not given is a key not sent, so the schema's
    default holds and its refusal is the message."""
    from repro.basecamp.serve import BasecampService

    body = {name: value for name, value in fields.items()
            if value is not None}
    return BasecampService(session=_session()).handle(endpoint, body)


def _number(text: str) -> Any:
    """A flag's value as a JSON number: an int, else a float, else the
    text itself, which the schema refuses as the wrong type."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def cmd_run(args) -> int:
    import numpy as np

    inputs = {}
    for spec in args.input:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise EverestError(f"--input wants NAME=FILE.npy, got {spec!r}")
        inputs[name] = np.load(path)
    request = dict(source=_kernel_text(args.source), inputs=inputs or None,
                   random_seed=args.random_seed, full_outputs=True)
    with _tracing(args.trace):
        reply = _handle("execute", backend=args.backend, **request)
        reference = _handle("execute", backend="interpreter", **request) \
            if args.time else None
    note = f" [fell back: {reply['fallback']}]" if reply["fallback"] else ""
    arena = f", arena={reply['arena_bytes']}B/{reply['arena_slots']} slots" \
        if reply["arena_bytes"] else ""
    nests = (f"{reply['fused_groups']} fused group(s) / "
             f"{reply['contracted_buffers']} contracted buffer(s)"
             if reply["backend"] == "cbackend" else
             f"{reply['vectorized_nests']} vectorized / "
             f"{reply['scalar_nests']} scalar nest(s)")
    print(f"kernel {reply['kernel']}: backend={reply['backend']} "
          f"({nests}, {reply['flops']} flops{arena}){note}")
    for name, entry in reply["outputs"].items():
        value = np.asarray(entry["values"], dtype=entry["dtype"])
        flat = np.array2string(value.ravel()[:6], precision=6,
                               separator=", ")
        suffix = " ..." if value.size > 6 else ""
        print(f"  {name}: shape={tuple(value.shape)} dtype={value.dtype} "
              f"mean={value.mean():.6g}")
        print(f"    {flat}{suffix}")
        if reference is not None:
            ref = reference["outputs"][name]
            # Bit-identical NaNs count as agreement (equal_nan trips on
            # integer dtypes, so only request it for floats).
            equal_nan = bool(np.issubdtype(value.dtype, np.floating))
            if not np.array_equal(value, np.asarray(ref["values"]),
                                  equal_nan=equal_nan):
                raise EverestError(
                    f"executor backends disagree on output {name!r}")
    if reference is not None:
        seconds = reply["seconds"]
        speedup = reference["seconds"] / seconds if seconds else float("inf")
        print(f"  run time: {seconds * 1e3:.3f} ms ({reply['backend']}) vs "
              f"{reference['seconds'] * 1e3:.3f} ms (interpreter): "
              f"{speedup:.1f}x")
    return 0


def cmd_dialects(args) -> int:
    from repro.dialects import DIALECT_GRAPH, registered_edges
    from repro.ir import REGISTRY

    print("registered dialects:", ", ".join(REGISTRY.names()))
    implemented = set(registered_edges())
    print("lowering edges (Fig. 5):")
    for source, target in DIALECT_GRAPH:
        marker = "ok" if (source, target) in implemented else "--"
        print(f"  [{marker}] {source} -> {target}")
    return 0


def cmd_condrust(args) -> int:
    from repro.frontends.condrust import lower_program_to_dfg, parse_program
    from repro.ir import print_module, verify

    with open(args.source) as handle:
        program = parse_program(handle.read())
    module = lower_program_to_dfg(program)
    verify(module)
    print(print_module(module))
    return 0


def cmd_detect(args) -> int:
    import numpy as np

    from repro.anomaly import DetectionNode, ModelSelectionNode, load_data

    data = load_data(args.data)
    split = max(8, int(len(data) * 0.6))
    selection = ModelSelectionNode(seed=0).run(
        data[:split], data[split:], n_trials=args.trials
    )
    node = DetectionNode(selection)
    report = node.detect(data, output_path=args.output)
    print(f"detector: {report.detector}; "
          f"{len(report.anomalies)}/{report.n_samples} anomalous")
    if args.output:
        print(f"wrote {args.output}")
    else:
        print(report.to_json())
    return 0


def cmd_runtime(args) -> int:
    fail = None
    if args.fail is not None:
        node, _, at = args.fail.partition("@")
        fail = {"node": node, "at": _number(at)}
    with _tracing(args.trace):
        reply = _handle("runtime", policy=args.policy, nodes=args.nodes,
                        tasks=args.tasks, seed=args.seed,
                        fpga_fraction=args.fpga_fraction,
                        fail=fail and [fail])
    print(f"runtime engine: {reply['tasks']} tasks on {reply['nodes']} "
          "node(s)" + (f", failing {fail['node']} at t={fail['at']:g}s"
                       if fail else ""))
    for row in reply["results"]:
        print(f"  {row['policy']:12s} makespan={row['makespan']:9.3f}s"
              f"  transfers={row['transfers_seconds'] * 1e3:7.2f}ms"
              f"  rescheduled={row['rescheduled']}")
    return 0


def cmd_serve(args) -> int:
    from repro.basecamp.serve import BasecampServer
    from repro.telemetry.log import configure_logging

    configure_logging(args.log_level)
    server = BasecampServer(host=args.host, port=args.port,
                            max_workers=args.max_workers,
                            queue_limit=args.queue_limit)
    host, port = server.address
    print(f"basecamp serve: listening on http://{host}:{port} "
          f"({args.max_workers} worker(s), queue {args.queue_limit}); "
          "POST /compile /execute /runtime, GET /stats /metrics /healthz",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        stats = server.service.stats()["server"]
        print(f"basecamp serve: shut down after {stats['requests']} "
              f"request(s) ({stats['rejected']} rejected)", flush=True)
    return 0


def cmd_info(args) -> int:
    from repro.platforms import CATALOG

    print("EVEREST target platforms:")
    for name, factory in sorted(CATALOG.items()):
        device = factory()
        attach = "network" if device.is_network_attached else "PCIe"
        memory = device.default_memory()
        print(f"  {name:18s} {attach:8s} LUT={device.resources.lut:>9}"
              f" DSP={device.resources.dsp:>5} {memory.kind.upper()}"
              f" {memory.bandwidth_gbps:.0f} GB/s @ {device.clock_mhz:.0f} MHz")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basecamp",
        description="Single point of access to the EVEREST SDK "
                    "(DATE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an EKL kernel")
    p.add_argument("source")
    p.add_argument("--emit", choices=["report", "mlir"], default="report")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("synthesize", help="HLS with a custom data format")
    p.add_argument("source")
    p.add_argument("--format", default=None,
                   help="f32 | bf16 | fixed<i.f> | posit<n,es>")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("olympus", help="system-level architecture DSE")
    p.add_argument("source")
    p.add_argument("--device", default="alveo-u55c")
    p.set_defaults(fn=cmd_olympus)

    p = sub.add_parser("pipeline",
                       help="full Fig. 2 flow with the stage table")
    p.add_argument("source")
    p.add_argument("--device", default="alveo-u55c")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record telemetry spans and write Chrome "
                        "trace-event JSON (view in Perfetto)")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("run",
                       help="compile and execute a kernel on the CPU "
                            "through a registered executor backend")
    p.add_argument("source")
    p.add_argument("--input", action="append", default=[],
                   metavar="NAME=FILE.npy",
                   help="bind one kernel input to a .npy file "
                        "(repeatable)")
    p.add_argument("--random-seed", type=_number,
                   help="fill unbound inputs: floats uniform [0,1), "
                        "integers zero")
    p.add_argument("--backend",
                   help="executor backend name, compiled when not given "
                        "(resolved through the "
                        "registry: interpreter, compiled, "
                        "compiled-parallel, compiled-arena, cbackend, "
                        "...); an unknown name lists the registered ones")
    p.add_argument("--time", action="store_true",
                   help="also run the interpreter backend, check the "
                        "outputs match and print the speedup")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record telemetry spans and write Chrome "
                        "trace-event JSON (view in Perfetto)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("dialects", help="the Fig. 5 dialect graph")
    p.set_defaults(fn=cmd_dialects)

    p = sub.add_parser("condrust", help="lower a coordination program")
    p.add_argument("source")
    p.set_defaults(fn=cmd_condrust)

    p = sub.add_parser("detect", help="AutoML anomaly detection")
    p.add_argument("data")
    p.add_argument("--output", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("runtime",
                       help="run a workflow through the event-driven "
                            "runtime engine")
    p.add_argument("--policy", default="all",
                   help="heft | round-robin | min-load | all")
    p.add_argument("--nodes", type=_number)
    p.add_argument("--tasks", type=_number)
    p.add_argument("--seed", type=_number)
    p.add_argument("--fpga-fraction", type=_number,
                   help="fraction of tasks marked for FPGA offload")
    p.add_argument("--fail", metavar="NODE@SIM_SECONDS",
                   help="inject a node failure mid-run at a finite "
                        "simulated time >= 0, e.g. node1@5.0")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record telemetry spans (simulated-clock task "
                        "placements included) as Chrome trace-event JSON")
    p.set_defaults(fn=cmd_runtime)

    p = sub.add_parser("serve",
                       help="run the multi-tenant compile-and-run daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="TCP port (0 binds an ephemeral port and prints it)")
    p.add_argument("--max-workers", type=int, default=4, metavar="N",
                   help="max concurrently executing requests")
    p.add_argument("--queue-limit", type=int, default=16, metavar="N",
                   help="max queued requests before 429 rejection")
    p.add_argument("--log-level", default="warning",
                   choices=["debug", "info", "warning", "error"],
                   help="threshold for the repro.* structured logger "
                        "(debug adds one access line per request)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("info", help="platform catalog")
    p.set_defaults(fn=cmd_info)
    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RequestRefused as error:
        args.usage_error(str(error))  # prints usage, exits 2
    except EverestError as error:
        print(f"basecamp: error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"basecamp: error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output truncated by a closed pipe (e.g. `basecamp ... | head`).
        return 0


if __name__ == "__main__":
    sys.exit(main())
