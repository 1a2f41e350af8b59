"""Contracts of the layer modules that outside tooling relies on."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffsys

LAYERS = ("field", "curves", "multiplication", "systems", "monodromy", "immersion", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    """Profilers wrap each layer's public functions by looking up every name
    in its ``__all__``; a stale entry would break them."""
    module = importlib.import_module(f"diffsys.{layer}")
    assert module.__all__
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"diffsys.{layer}.{name}"


def test_layer_module_not_shadowed():
    """The package binds no function over a layer module of the same name."""
    import diffsys.monodromy as m

    assert inspect.ismodule(m)


def test_import_leaves_scipy_out():
    """diffsys runs on numpy alone; scipy is a test dependency only.  The
    CLI module imports every layer."""
    src = str(Path(diffsys.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, diffsys.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
