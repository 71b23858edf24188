"""The benchmark's traced runs wrap package functions by name; every name must resolve."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, qual) for layer, names in spans.TRACED.items() for qual in names]


@pytest.mark.parametrize("layer, qual", traced_names())
def test_traced_name_resolves(layer, qual):
    module = importlib.import_module(f"marketval.{layer}")
    cls_name, _, name = qual.rpartition(".")
    if cls_name:
        # The recorder wraps `cls.__dict__[name]`: the method must be defined
        # on the class itself, not inherited.
        owner = vars(getattr(module, cls_name))
        assert callable(owner[name])
    else:
        assert callable(getattr(module, name))
