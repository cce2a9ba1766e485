"""CFDlang: the legacy tensor DSL for fluid-dynamics methods (paper §V-A1).

The paper lists CFDlang (Rink et al., RWDSL 2018) among the DSLs the SDK
"leverages for physics simulations"; its dialect lowers to TeIL just like
EKL.  The subset implemented here covers the published language core:

* declarations: ``var input u : [m n]`` / ``var output v : [m]`` /
  ``var t : [m n]`` (dimensions are integer extents; scalars use
  ``[]``; ``var``, ``input`` and ``output`` are keywords);
* assignments ``v = expr``;
* elementwise ``+ - * /``, outer product ``#``, and contraction
  ``expr . [[i j] [k l]]`` over 1-based integer dimension pairs.

Bad text (a float extent or pair, a declaration named by a number, a
character outside the language) is a :class:`~repro.errors.FrontendError`
that starts with its ``line:column``.  A program that parses is shape
checked by :func:`~repro.frontends.cfdlang.check.check_program` before it
is interpreted or lowered, so the two refuse the same programs, with the
same :class:`~repro.errors.TypeCheckError` for a shape error.

Example (a matrix-vector product)::

    var input A : [4 5]
    var input x : [5]
    var output y : [4]
    y = (A # x) . [[2 3]]
"""

from repro.frontends.cfdlang.parser import parse_program
from repro.frontends.cfdlang.interp import run_program
from repro.frontends.cfdlang.lower import (
    lower_program_to_cfdlang,
    lower_cfdlang_to_teil,
)

__all__ = [
    "parse_program",
    "run_program",
    "lower_program_to_cfdlang",
    "lower_cfdlang_to_teil",
]
