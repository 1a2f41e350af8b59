"""Contracts of the layer modules that outside tooling relies on."""

import importlib

import pytest

LAYERS = ("field", "curves", "multiplication", "systems", "monodromy", "immersion", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    """Profilers wrap each layer's public functions by looking up every name
    in its ``__all__``; a stale entry would break them."""
    module = importlib.import_module(f"diffsys.{layer}")
    assert module.__all__
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"diffsys.{layer}.{name}"
