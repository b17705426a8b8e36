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
