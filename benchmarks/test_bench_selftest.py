"""Self-tests of the benchmark: span arithmetic, oracle sensitivity, seeding.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks``.
"""
from __future__ import annotations

import json

import pytest

import oracle
import run
import spans
from marketval import cli


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, info]


def test_self_time_arithmetic_on_hand_built_tree():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("ols.fit_ols", 1.0, 4.0, 0),
        _span("numcore.qr_pivoted", 2.0, 3.0, 1, [100, 10]),
        _span("report.json_dumps", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(tree)) == 10.0
    assert spans.has_ancestor(tree, 2, "cli.main") and not spans.has_ancestor(tree, 1, "ols.fit_ols")

    op = {"spans": tree, "start": -2.0, "imported_at": -1.0, "dumped_at": 10.5, "end": 11.0,
          "out_bytes": 7}
    m = run.layer_metrics([op, op])
    assert m["cli.import_ms"] == 2000.0  # spawn to import, twice
    assert m["cli.main.self_ms"] == 6000.0
    assert m["ols.self_ms"] == 4000.0 and m["report.self_ms"] == 8000.0
    assert m["numcore.qr_pivoted.calls"] == 2
    assert m["numcore.qr_pivoted.gflop_computed"] == pytest.approx(2 * (2 * 100 * 100 - 2 * 1000 / 3) / 1e9)
    assert m["numcore.qr_pivoted.mb_computed"] == pytest.approx(2 * 8 * 100 * 10 / 1e6)
    assert m["tracing.dump_ms"] == 1000.0 and m["cli.exit_ms"] == 1000.0
    # 10 s of main and 0.5 s of exit out of 13 s minus 1 s import minus 0.5 s dump, per op
    assert m["tracing.accounted_pct"] == pytest.approx(100.0 * 10.5 / 11.5)
    assert m["report.bytes_written"] == 14


def test_overlapping_children_are_not_subtracted_twice():
    tree = [_span("a.x", 0.0, 10.0, -1), _span("b.y", 1.0, 5.0, 0), _span("b.z", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == 5.0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """fit and diagnose outputs of one synthetic input, with its design."""
    from marketval.synth import generate_players, records_to_csv

    root = tmp_path_factory.mktemp("bench")
    records, _ = generate_players(7, 300)
    csv = root / "in.csv"
    csv.write_text(records_to_csv(records), encoding="utf-8")
    for command in ("fit", "diagnose"):
        assert cli.main([command, "--input", str(csv), "--out", str(root / command)]) == 0
    return root, oracle.load_design(csv.read_bytes(), {})


def test_oracle_accepts_real_outputs(outputs):
    root, design = outputs
    assert oracle.check_outputs("fit", root / "fit", *design) == []
    assert oracle.check_outputs("diagnose", root / "diagnose", *design) == []


@pytest.mark.parametrize("field,scale", [("coef", 1 + 1e-5), ("p", 1 + 1e-4), ("std_err", 1 + 1e-4)])
def test_oracle_flags_perturbed_fit_json(outputs, field, scale):
    root, design = outputs
    fit = json.loads((root / "fit" / "fit.json").read_text())
    fit["columns"][3][field] *= scale
    assert oracle.check_fit(fit, *design)


@pytest.mark.parametrize("perturb", [
    lambda d: d["vif"][2].__setitem__("vif", d["vif"][2]["vif"] * (1 + 1e-4)),
    lambda d: d["breusch_pagan"]["koenker"].__setitem__(
        "lm_statistic", d["breusch_pagan"]["koenker"]["lm_statistic"] * (1 + 1e-4)),
    lambda d: d["breusch_pagan"]["original"].__setitem__("df", 3),
])
def test_oracle_flags_perturbed_diagnostics(outputs, perturb):
    root, design = outputs
    diag = json.loads((root / "diagnose" / "diagnostics.json").read_text())
    perturb(diag)
    residuals = (root / "diagnose" / "residuals.csv").read_bytes()
    assert oracle.check_diagnostics(diag, residuals, *design)


def test_seed_changes_inputs_but_not_metric_names(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(run, "MIN_SETUP_SAMPLES", 1)
    workload = run.WORKLOADS["paper-105"]
    a, a2, b = (run.make_inputs(workload, seed, tmp_path / f"{k}", count=1)
                for k, seed in enumerate((1, 1, 2)))
    assert a[0].read_bytes() == a2[0].read_bytes() != b[0].read_bytes()

    # One file, fit only: the smallest run that still goes through every step.
    small = run.Workload(workload.name, workload.n, 1, (run.FIT,))
    names = []
    for seed in (1, 2):
        r = run.Run(small, seed, 0.0, trace=False)
        names.append(sorted(r.measure()))
        assert r.failed == 0 and r.failures == []
    assert names[0] == names[1] == ["fit_p50_s", "fit_p75_s", "peak_rss_mb", "rows_per_s", "setup_s"]


def test_partial_rotations_still_report_every_per_layer_metric():
    failures: list[str] = []
    combined = run.combine_rotations([{"selection.steps": 3.0}, {"selection.steps": 4.0}], failures)
    assert list(combined) == [n for n, _ in run.PER_LAYER]
    assert failures == ["exact count selection.steps changed between rotations: [3.0, 4.0]"]


def test_benchmark_json_declares_the_runner_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_oracle_jobs_report_a_perturbed_output(outputs, tmp_path, capsys):
    root, _ = outputs
    bad = tmp_path / "fit"
    bad.mkdir()
    fit = json.loads((root / "fit" / "fit.json").read_text())
    fit["rss"] *= 1 + 1e-6
    (bad / "fit.json").write_text(json.dumps(fit))
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([
        {"command": command, "out": str(out), "csv": str(root / "in.csv"), "filters": {}}
        for command, out in (("fit", root / "fit"), ("fit", bad), ("diagnose", tmp_path / "missing"))
    ]))
    oracle.main(str(jobs))
    good, perturbed, missing = json.loads(capsys.readouterr().out)
    assert good == [] and perturbed and missing
