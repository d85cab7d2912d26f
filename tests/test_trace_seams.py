"""The module attributes the benchmark's traced pass wraps by name (perfbench's
trace_targets) must stay callables, or every traced operation raises."""

import importlib

import pytest

SEAMS = [
    ("mnaq.search", "is_mna_C"),
    ("mnaq.search", "is_mna_Bscaled"),
    ("mnaq.assoc", "is_mna_C"),
    ("mnaq.charside", "slice_eval"),
    ("mnaq.weil", "factorize"),
    ("mnaq.weil", "count_sign_pattern"),
    ("mnaq.field", "least_irreducible"),
]


@pytest.mark.parametrize("module, name", SEAMS)
def test_traced_attribute_is_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
