"""Numpy reference interpreter for CFDlang programs."""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.errors import FrontendError
from repro.frontends.cfdlang.check import check_program
from repro.frontends.cfdlang.parser import Expr, Program


def _eval(expr: Expr, env: Dict[str, np.ndarray]):
    if expr.kind == "name":
        return env[expr.name]
    if expr.kind == "num":
        return np.float64(expr.value)
    if expr.kind in ("add", "sub", "mul", "div"):
        a = _eval(expr.children[0], env)
        b = _eval(expr.children[1], env)
        return {"add": np.add, "sub": np.subtract, "mul": np.multiply,
                "div": np.divide}[expr.kind](a, b)
    if expr.kind == "product":
        a = _eval(expr.children[0], env)
        b = _eval(expr.children[1], env)
        return np.tensordot(a, b, axes=0)
    if expr.kind == "contract":
        inner = np.asarray(_eval(expr.children[0], env))
        # Contract each 1-based dimension pair via an einsum: paired
        # dimensions share a letter; unpaired dimensions survive in order.
        letters = [chr(ord("a") + i) for i in range(inner.ndim)]
        contracted = set()
        for a, b in expr.pairs:
            letters[b - 1] = letters[a - 1]
            contracted.update((a - 1, b - 1))
        out = "".join(letters[i] for i in range(inner.ndim)
                      if i not in contracted)
        return np.einsum(f"{''.join(letters)}->{out}", inner)
    raise FrontendError(f"unknown expression kind {expr.kind!r}")


def run_program(program: Program,
                inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Execute the program; returns its output tensors."""
    check_program(program)
    env: Dict[str, np.ndarray] = {}
    for decl in program.decls:
        if decl.io == "input":
            if decl.name not in inputs:
                raise FrontendError(f"missing input {decl.name!r}")
            array = np.asarray(inputs[decl.name], dtype=np.float64)
            if tuple(array.shape) != decl.shape:
                raise FrontendError(
                    f"input {decl.name!r}: expected {decl.shape}, "
                    f"got {tuple(array.shape)}"
                )
            env[decl.name] = array
    for assign in program.assigns:
        env[assign.target] = np.asarray(_eval(assign.value, env))
    return {decl.name: env[decl.name] for decl in program.decls
            if decl.io == "output"}
