"""Every package's ``__all__`` names something that exists.

A deletion that leaves a stale name in a package's export list would
only surface as an ``AttributeError`` on ``from repro.<pkg> import *``;
this guard resolves every exported name of every ``repro`` package.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def test_every_package_is_collected():
    assert {"repro.core", "repro.flsim", "repro.utils"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(package, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
