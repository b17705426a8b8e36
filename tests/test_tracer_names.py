"""The benchmark's span tracer patches pfstab entry points by name.

``perfbench/spans.py`` lists them in ``ENTRY_POINTS``; a rename or removal
in pfstab makes ``perfbench/run.py --trace 1`` fail.  This test loads that
file without changing it and resolves every listed name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


@pytest.mark.parametrize(
    "layer, dotted",
    [(layer, dotted) for layer, names in _entry_points().items() for dotted in names],
)
def test_tracer_entry_point_resolves(layer, dotted):
    owner = importlib.import_module(f"pfstab.{layer}")
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # The tracer swaps the class's own attribute, so it may not be inherited.
        assert attr in owner.__dict__, dotted
    assert callable(getattr(owner, attr)), dotted


# Aliases the tracer patches alongside the originals
# (perfbench/tests/test_helpers.py::test_tracer_patches_aliases_and_restores_them).
TRACED_ALIASES = [
    ("search", name, "code") for name in ("distance", "validate", "canonical_phases", "codespace_dim")
] + [("code", name, "zmod") for name in ("_howell_basis", "_reduce_against", "kernel_basis")]


@pytest.mark.parametrize("module, name, origin", TRACED_ALIASES)
def test_tracer_alias_is_the_original(module, name, origin):
    alias = getattr(importlib.import_module(f"pfstab.{module}"), name)
    assert alias is getattr(importlib.import_module(f"pfstab.{origin}"), name)
