"""The module attributes and Field methods the benchmark's traced pass wraps by
name (perfbench's trace_targets) must stay callables, or every traced operation
raises."""

import importlib

import pytest

from mnaq.field import make_field

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


FIELD_SEAMS = ["vadd", "vneg", "vsub", "vmul"]


@pytest.mark.parametrize("q", [13, 27])
@pytest.mark.parametrize("name", FIELD_SEAMS)
def test_traced_field_method_wraps_on_an_instance(q, name):
    # the traced pass sets a wrapper on the instance and deletes it afterwards, so the
    # method must live on the class and accept an instance attribute over it
    F = make_field(q)
    method = getattr(F, name, None)
    assert callable(method) and name not in vars(F)
    calls = []
    setattr(F, name, lambda *args: calls.append(args) or method(*args))
    assert getattr(F, name)(*[[1, 2]] * (1 if name == "vneg" else 2)) is not None
    assert len(calls) == 1
    delattr(F, name)
    assert name not in vars(F) and callable(getattr(F, name))
