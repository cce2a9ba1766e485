"""ConDRust: the EVEREST coordination language (paper §V-A2, Fig. 4).

ConDRust is an imperative coordination language based on a subset of Rust.
It connects software and hardware components (EKL kernels, ONNX models,
plain host functions) into a *provably deterministic* dataflow graph:

* functions are single-assignment — every ``let`` binds a fresh name;
* immutable bindings may be read by many consumers (shared borrows);
* ``let mut`` bindings may be consumed by exactly one call (the unique
  borrow rule) — this is what makes the extracted dataflow deterministic;
* ``#[kernel(...)]`` attributes mark calls for FPGA offloading and carry
  deployment metadata (``offloaded``, ``multiplicity``, ``path``).

Programs lower to the ``dfg`` dialect (:mod:`repro.frontends.condrust.lower`)
and execute through :mod:`repro.frontends.condrust.execute`, which submits
every node, with its registered implementation, to the runtime engine
(:mod:`repro.runtime.engine`): offloaded nodes are its FPGA tasks.

:data:`FIG4_MAP_MATCHING` holds the paper's Fig. 4 listing verbatim; the
traffic use case (:mod:`repro.apps.traffic`) provides real implementations
of ``projection``, ``build_trellis``, ``viterbi`` and ``interpolate``.
"""

from repro.frontends.condrust.parser import parse_program
from repro.frontends.condrust.ownership import check_ownership
from repro.frontends.condrust.lower import lower_program_to_dfg
from repro.frontends.condrust.execute import DataflowExecutor

# The paper's Fig. 4 listing, verbatim.
FIG4_MAP_MATCHING = """
fn match_one(gv: GpsVector, mapcell: MapCell) -> RoadSpeedVector {
    #[kernel(offloaded = true, multiplicity = [1, 1, 1, 1],
             path = "projection.cpp")]
    let cv: CandiVector = projection(gv, mapcell);
    let t: Trellis = build_trellis(gv, cv, mapcell);
    let rsvbb: RoadSpeedVector = viterbi(t, cv);
    interpolate(rsvbb, mapcell)
}
"""

__all__ = [
    "parse_program",
    "check_ownership",
    "lower_program_to_dfg",
    "DataflowExecutor",
    "FIG4_MAP_MATCHING",
]
