"""The names the benchmark in perfbench/ reads from the package still exist.

perfbench/spans.py wraps functions by name and reports a metric whose
function is gone as null; perfbench/checks.py imports helpers to recompute
outputs. Removing or renaming any of them breaks the benchmark's result
line, so these tests read both files (without changing them) and check the
package against them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
TRACED = sorted(
    (layer, fname)
    for table in (spans.SPAN_FUNCTIONS, spans.COUNT_FUNCTIONS)
    for layer, names in table.items()
    for fname in names
)


@pytest.mark.parametrize("layer,fname", TRACED, ids=lambda v: v)
def test_traced_name_is_callable_in_its_layer(layer, fname):
    module = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    assert callable(getattr(module, fname, None)), f"{layer}.{fname} is gone"


def test_output_checks_import():
    checks = load("checks")
    assert callable(checks.check)
