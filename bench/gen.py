"""The seeded EKL kernel generator the benchmark owns.

Kernel *shapes* are a pinned corpus: :data:`SHAPES` holds
:data:`CYCLE` shapes — eight of each statement count 6..10, every extent
pair of {16, 24, 32, 48} x {4, 8} five times, and the six statement kinds
dealt evenly — so that one cycle is the same amount of compiler work on
every seed (measured: Python calls per op repeat exactly).  The workload
seed draws what makes each kernel *new*: the constants, so that every
fingerprint misses the caches, the order of shapes within each cycle and
the kernel inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

EXTENTS = tuple((i, j) for i in (16, 24, 32, 48) for j in (4, 8))
KINDS = ("add", "sub", "mul", "minmax", "select", "unary")
CYCLE = 40

#: Seed of the pinned corpus; changing it changes the benchmark.
_CORPUS_SEED = 20240


@dataclass(frozen=True)
class Statement:
    kind: str
    operand: int      # index into the names defined so far
    variant: int      # which of max/min or sin/cos/abs


@dataclass(frozen=True)
class Shape:
    extents: Tuple[int, int]
    statements: Tuple[Statement, ...]
    last_operand: int


def _corpus() -> Tuple[Shape, ...]:
    rng = random.Random(_CORPUS_SEED)
    counts = [6 + k % 5 for k in range(CYCLE)]
    rng.shuffle(counts)
    extents = [EXTENTS[k % len(EXTENTS)] for k in range(CYCLE)]
    rng.shuffle(extents)
    deck = [KINDS[k % len(KINDS)] for k in range(sum(c - 1 for c in counts))]
    rng.shuffle(deck)
    shapes = []
    for count, extent in zip(counts, extents):
        # Statement s may read inputs a, b and t0..t(s-1); it always reads
        # the newest name too, so no statement is dead code.
        statements = tuple(
            Statement(deck.pop(), rng.randrange(s + 1), rng.randrange(6))
            for s in range(count - 1))
        shapes.append(Shape(extent, statements, rng.randrange(count)))
    return tuple(shapes)


SHAPES = _corpus()


def render(shape: Shape, name: str, rng: random.Random) -> str:
    """EKL source of ``shape`` with constants drawn from ``rng``."""
    extent_i, extent_j = shape.extents
    lines = [f"kernel {name} {{",
             f"  index i: {extent_i}, j: {extent_j}",
             "  input a[i, j]: f64",
             "  input b[i, j]: f64",
             "  output out"]
    names = ["a", "b"]
    for s, statement in enumerate(shape.statements):
        x, y = names[-1], names[statement.operand]
        c = f"{rng.uniform(0.1, 3.0):.9f}"
        if statement.kind == "add":
            expr = f"{x} + {y} * {c}"
        elif statement.kind == "sub":
            expr = f"{x} - {y} * {c}"
        elif statement.kind == "mul":
            expr = f"{x} * {y} * {c}"
        elif statement.kind == "minmax":
            fn = ("max", "min")[statement.variant % 2]
            expr = f"{fn}({x}, {y} + {c})"
        elif statement.kind == "select":
            expr = f"select({x} <= {y}, {x} * {c}, {y})"
        else:
            fn = ("sin", "cos", "abs")[statement.variant % 3]
            expr = f"{fn}({x}) + {c}"
        lines.append(f"  t{s} = {expr}")
        names.append(f"t{s}")
    lines.append(f"  out = sum[j]({names[-1]} * {names[shape.last_operand]})")
    lines.append("}")
    return "\n".join(lines) + "\n"


def kernels(seed: int) -> Iterator[Tuple[int, int, str]]:
    """An endless stream of ``(number, index into SHAPES, source)``; no two
    sources are equal, and equal seeds give byte-identical streams."""
    rng = random.Random(seed)
    number = 0
    while True:
        order = list(range(CYCLE))
        rng.shuffle(order)
        for index in order:
            yield number, index, render(SHAPES[index], f"k{number}", rng)
            number += 1


def inputs_for(shape: Shape, rng: np.random.Generator
               ) -> Dict[str, np.ndarray]:
    """Seeded inputs for one kernel of ``shape``."""
    return {"a": rng.uniform(-2.0, 2.0, shape.extents),
            "b": rng.uniform(-2.0, 2.0, shape.extents)}
