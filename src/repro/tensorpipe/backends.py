"""The pluggable executor-backend registry (entry-point style).

Mirrors the scheduler policy registry
(:data:`repro.runtime.engine.POLICIES`): every backend exposes

* ``name`` — the registry key (``basecamp run --backend``,
  ``session.execute(backend=...)``);
* ``compile(module, func_name)`` — returning a
  :class:`~repro.tensorpipe.codegen.CompiledKernel` whose ``run`` is
  bit-for-bit identical to the reference
  :class:`~repro.tensorpipe.affine_interp.AffineInterpreter` on float64.
  A backend compiles every time it is asked and keeps no cache of its
  own: the session's stage cache is where a kernel is remembered.

Stock backends:

==================  ==========================================================
``interpreter``     the reference tree-walking interpreter
``compiled``        vectorized-numpy codegen (PR 4), one array op per nest
``compiled-parallel``  the tiled variant: large nests shard their outer
                    parallel axis across a worker pool
                    (:mod:`repro.tensorpipe.parallel`)
``compiled-arena``  the statically planned variant: local buffers are
                    views into one preallocated per-run arena
                    (:mod:`repro.tensorpipe.arena`), sized by liveness
                    over the entry block's ``memref.alloc`` ops
``cbackend``        generated C compiled via ``cc`` + ``ctypes`` at
                    cache-fill time; falls back cleanly to ``compiled``
                    when no C compiler exists or an op's libm result is
                    not bit-identical to numpy
==================  ==========================================================

Register custom backends with :func:`register_backend`; any object with
``name`` and a ``compile`` method qualifies.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.errors import EverestError
from repro.ir import Module
from repro.tensorpipe.codegen import CompiledKernel, compile_numpy


class NumpyBackend:
    """``interpreter`` / ``compiled`` / ``compiled-parallel`` /
    ``compiled-arena``: thin registry wrappers over
    :func:`~repro.tensorpipe.codegen.compile_numpy`."""

    def __init__(self, name: str, *, tiled: bool = False,
                 arena: bool = False):
        self.name = name
        self.tiled = tiled
        self.arena = arena

    def compile(self, module: Module, func_name: str) -> CompiledKernel:
        return compile_numpy(module, func_name, backend=self.name,
                             tiled=self.tiled, arena=self.arena)

    def __repr__(self) -> str:
        return f"<backend {self.name}>"


BACKENDS: Dict[str, object] = {}


def register_backend(backend, *, replace: bool = False):
    """Register an executor backend under ``backend.name``."""
    name = getattr(backend, "name", None)
    if not name or not isinstance(name, str):
        raise EverestError("executor backend needs a non-empty string name")
    if not callable(getattr(backend, "compile", None)):
        raise EverestError(
            f"executor backend {name!r} does not implement "
            "compile(module, func_name)")
    if name in BACKENDS and not replace:
        raise EverestError(f"executor backend {name!r} already registered "
                           "(pass replace=True to override)")
    BACKENDS[name] = backend
    return backend


def resolve_backend(backend: Union[str, object]):
    """Accept a backend instance or a registry name; raise with the
    registered names on a typo."""
    if isinstance(backend, str):
        resolved = BACKENDS.get(backend)
        if resolved is None:
            raise EverestError(
                f"unknown executor backend {backend!r}; "
                f"available: {', '.join(sorted(BACKENDS))}")
        return resolved
    if callable(getattr(backend, "compile", None)):
        return backend
    raise EverestError(
        f"{type(backend).__name__} does not implement the executor-backend "
        "interface (compile(module, func_name))")


def registered_backends() -> Dict[str, object]:
    """A snapshot of the registry (name -> backend instance)."""
    return dict(BACKENDS)


register_backend(NumpyBackend("interpreter"))
register_backend(NumpyBackend("compiled"))
register_backend(NumpyBackend("compiled-parallel", tiled=True))
register_backend(NumpyBackend("compiled-arena", arena=True))

from repro.tensorpipe.cbackend import CBackend  # noqa: E402 (needs BACKENDS)

register_backend(CBackend())
