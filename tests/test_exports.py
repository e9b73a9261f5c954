"""Every name a module lists in ``__all__`` exists, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import hessiancone

# importing __main__ would run the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(hessiancone.__path__)
                 if m.name != "__main__")


def test_every_module_is_listed():
    assert {"arrowhead", "cli", "cones", "geometry", "linsolve", "operators",
            "presets", "solve"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hessiancone.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []
