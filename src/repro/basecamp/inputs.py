"""Kernel input assembly shared by ``basecamp run`` and ``basecamp serve``.

Both entry points face the same problem: a lowered kernel wants one
array per input argument, but the caller supplies only some of them
(``--input name=file.npy`` on the CLI, a JSON ``inputs`` object over
HTTP) plus, optionally, a seed to fill the rest.  :func:`gather_inputs`
performs that assembly against the kernel's argument list with uniform
error reporting.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import EverestError


def gather_inputs(module: Any, func_name: str,
                  explicit: Optional[Dict[str, Any]] = None,
                  random_seed: Optional[int] = None, *,
                  missing_hint: str = "bind it explicitly or pass a "
                                      "random seed",
                  unknown_label: str = "input") -> Dict[str, Any]:
    """Build the full input dict for one kernel invocation.

    ``explicit`` binds arrays by argument name; with ``random_seed``
    every remaining float input is drawn uniform [0, 1) and every
    integer input is zero-filled (always in-range for gather tables).
    Unknown or missing names, and a bound value that is ragged or not
    numeric (both arrive as JSON over HTTP), raise :class:`EverestError`;
    ``missing_hint`` (``{name}``-formatted) and ``unknown_label`` let
    each entry point keep its own remediation wording.
    """
    import numpy as np

    from repro.ir import types as T

    func = module.lookup(func_name)
    entry = func.regions[0].entry
    arg_names = func.attr("arg_names")
    num_outputs = func.attr("num_outputs") or 0
    explicit = dict(explicit or {})
    rng = np.random.default_rng(random_seed) \
        if random_seed is not None else None
    inputs: Dict[str, Any] = {}
    for i, arg in enumerate(entry.args[:len(entry.args) - num_outputs]):
        name = arg_names[i]
        ref = arg.type
        if name in explicit:
            try:
                value = np.asarray(explicit.pop(name))
            except ValueError:  # nested lists of unequal length
                value = None
            if value is None or value.dtype.kind not in "biuf":
                raise EverestError(
                    f"{unknown_label} {name!r} must be a rectangular "
                    "array of numbers")
            inputs[name] = value
            continue
        if rng is None:
            raise EverestError(
                f"missing input {name!r} "
                f"({missing_hint.format(name=name)})")
        shape = tuple(ref.shape)
        if isinstance(ref.element, T.FloatType):
            inputs[name] = rng.uniform(0.0, 1.0, shape)
        else:
            inputs[name] = np.zeros(shape, dtype=np.int64)
    if explicit:
        raise EverestError(
            f"unknown {unknown_label} name(s): "
            + ", ".join(sorted(explicit)))
    return inputs
