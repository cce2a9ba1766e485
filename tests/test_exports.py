"""Every name a ``repro`` package exports must resolve.

The ``__all__`` lists are hand-maintained next to the imports they
mirror; a retired definition dropped from one but not the other only
fails on ``from repro.x import *`` — which nothing else exercises.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("package", ["repro"] + PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names nothing for {missing}"
