"""Every name a listlbm module exports exists: star-importing a module
fails when its `__all__` still lists a deleted name."""

import pkgutil

import pytest

import listlbm

MODULES = ["listlbm"] + sorted(
    f"listlbm.{m.name}" for m in pkgutil.iter_modules(listlbm.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})
