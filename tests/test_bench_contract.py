"""The benchmark's traced runs wrap package functions by name; every name must
resolve, and every probe must read its result off a real run."""
from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from marketval.synth import generate_players, records_to_csv
from conftest import child_env

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_names() -> list[tuple[str, str]]:
    return [(layer, qual) for layer, names in load_spans().TRACED.items() for qual in names]


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


def test_traced_cli_probes_read_real_results(tmp_path):
    # Only the traced run calls the probes, on the objects the package returns:
    # a field they read that a refactor removed would fail nowhere else.
    csv = tmp_path / "synth.csv"
    csv.write_text(records_to_csv(generate_players(1, 105)[0]), encoding="utf-8")
    env = child_env()
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    probed: dict[str, list] = {}
    for command in (["fit"], ["select"], ["diagnose", "--select"]):
        spans_path = tmp_path / f"{command[0]}-spans.json"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), "--",
                *command, "--input", str(csv), "--out", str(tmp_path / command[0])]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for name, _, _, _, info in json.loads(spans_path.read_text())["spans"]:
            probed.setdefault(name, []).append(info)
    for name in load_spans().PROBES:
        assert name in probed, f"{name} was never called"
        assert all(info is not None for info in probed[name]), name
