"""End-to-end command-line behavior: files written, exit codes, determinism."""
from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketval import numcore
from marketval.cli import (
    EXIT_EMPTY,
    EXIT_NO_CONFORMING_MODEL,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)
from marketval.features import EncodedDataset
from marketval.ingest import parse_players_csv
from marketval.synth import generate_players, records_to_csv
from conftest import child_env

SEED_ARGS = ["--seed", "42", "--n", "105"]


@pytest.fixture()
def synth_csv(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", *SEED_ARGS, "--out", str(out)]) == EXIT_OK
    return out / "synth.csv"


class TestSynthCommand:
    def test_writes_csv_and_truth(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", *SEED_ARGS, "--out", str(out)]) == EXIT_OK
        csv_path = out / "synth.csv"
        truth_path = out / "synth_truth.json"
        assert csv_path.exists() and truth_path.exists()
        records = parse_players_csv(csv_path.read_bytes())
        assert len(records) == 105
        truth = json.loads(truth_path.read_text())
        assert truth["seed"] == 42
        assert truth["n"] == 105
        assert "level_effects" in truth and "continuous_slopes" in truth

    def test_small_n_rejected(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--seed", "1", "--n", "10", "--out", str(out)]) == EXIT_EMPTY
        assert not (out / "synth.csv").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--seed=-1", "--n", "105", "--out", str(out)]) == EXIT_EMPTY
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not (out / "synth.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", *SEED_ARGS, "--out", str(a)])
        main(["synth", *SEED_ARGS, "--out", str(b)])
        assert (a / "synth.csv").read_bytes() == (b / "synth.csv").read_bytes()
        assert (a / "synth_truth.json").read_bytes() == (b / "synth_truth.json").read_bytes()


class TestFitCommand:
    def test_writes_both_formats_by_default(self, tmp_path, synth_csv):
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(synth_csv), "--out", str(out)]) == EXIT_OK
        assert (out / "summary.txt").exists()
        assert (out / "fit.json").exists()
        text = (out / "summary.txt").read_text()
        assert "OLS Regression Results" in text
        payload = json.loads((out / "fit.json").read_text())
        assert payload["n_obs"] == 103

    def test_format_text_only(self, tmp_path, synth_csv):
        out = tmp_path / "t"
        assert main(["fit", "--input", str(synth_csv), "--out", str(out),
                     "--format", "text"]) == EXIT_OK
        assert (out / "summary.txt").exists()
        assert not (out / "fit.json").exists()

    def test_format_json_only(self, tmp_path, synth_csv):
        out = tmp_path / "j"
        assert main(["fit", "--input", str(synth_csv), "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        assert not (out / "summary.txt").exists()
        assert (out / "fit.json").exists()

    def test_text_and_json_agree_on_display(self, tmp_path, synth_csv):
        out = tmp_path / "c"
        main(["fit", "--input", str(synth_csv), "--out", str(out)])
        payload = json.loads((out / "fit.json").read_text())
        text = (out / "summary.txt").read_text()
        assert f"{payload['r_squared']:.3f}" in text
        assert f"{payload['adj_r_squared']:.3f}" in text
        assert str(payload["n_obs"]) in text

    def test_keep_mid_season_grows_sample(self, tmp_path, synth_csv):
        strict, loose = tmp_path / "s", tmp_path / "l"
        main(["fit", "--input", str(synth_csv), "--out", str(strict)])
        main(["fit", "--input", str(synth_csv), "--out", str(loose), "--keep-mid-season"])
        n_strict = json.loads((strict / "fit.json").read_text())["n_obs"]
        n_loose = json.loads((loose / "fit.json").read_text())["n_obs"]
        assert n_strict == 103
        assert n_loose == 105

    def test_overly_strict_filter_empties_input(self, tmp_path, synth_csv):
        out = tmp_path / "e"
        code = main(["fit", "--input", str(synth_csv), "--out", str(out),
                     "--min-value", "1e9"])
        assert code == EXIT_EMPTY
        assert not (out / "fit.json").exists()

    def test_nan_value_floor_rejected(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "e"
        code = main(["fit", "--input", str(synth_csv), "--out", str(out), "--min-value", "nan"])
        assert code == EXIT_EMPTY
        assert "min_market_value_m_eur must be >= 0" in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    def test_missing_input_file(self, tmp_path):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == EXIT_EMPTY

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,league\nKane,League A\n")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(bad), "--out", str(out)]) == EXIT_SCHEMA
        assert not out.exists()

    def test_unicode_digit_exit_code(self, tmp_path, synth_csv, capsys):
        lines = synth_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[3] = "\u00b2"  # age
        bad = tmp_path / "bad.csv"
        bad.write_text(lines[0] + ",".join(cells), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(bad), "--out", str(out)]) == EXIT_SCHEMA
        assert "row 2, column 'age'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_float_exit_code(self, tmp_path, synth_csv, capsys):
        lines = synth_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[15] = "٩٠.5"  # market_value_m_eur in Arabic-Indic digits
        bad = tmp_path / "bad.csv"
        bad.write_text(lines[0] + ",".join(cells), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(bad), "--out", str(out)]) == EXIT_SCHEMA
        assert "row 2, column 'market_value_m_eur'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_input_exit_code(self, tmp_path, synth_csv, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe" + synth_csv.read_bytes())
        out = tmp_path / "o"
        assert main(["fit", "--input", str(bad), "--out", str(out)]) == EXIT_SCHEMA
        assert "byte offset 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (14, "9" * 5000, "row 2, column 'minutes_played'"),  # past int()'s digit limit
            (9, "9" * 400, "row 2, column 'goals'"),  # past float's range
            (0, "x" * 140_000, "row 2, column 'row': field larger than field limit"),
        ],
    )
    def test_oversized_cell_exit_code(self, tmp_path, synth_csv, capsys, column, cell, message):
        lines = synth_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[column] = cell
        bad = tmp_path / "bad.csv"
        bad.write_text(lines[0] + ",".join(cells) + "".join(lines[2:]), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(bad), "--out", str(out)]) == EXIT_SCHEMA
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "column, value, flags, message",
        [
            ("height_cm", "150", [], "height 150 cm is below 160 cm, where the height bands start"),
            ("age", "18", ["--age-min", "18"], "age 18 is below 20, where the age bands start"),
        ],
    )
    def test_value_below_the_bands_names_the_player(
        self, tmp_path, synth_csv, capsys, column, value, flags, message
    ):
        # The record and the filters accept the value; only the band encoding rejects it.
        lines = synth_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = value
        bad = tmp_path / "bad.csv"
        bad.write_text(lines[0] + ",".join(cells) + "".join(lines[2:]), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(bad), "--out", str(out), *flags]) == EXIT_EMPTY
        assert capsys.readouterr().err == f"error: player {cells[0]!r}: {message}\n"
        assert not out.exists()

    def test_empty_file_exit_code(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        assert main(["fit", "--input", str(empty), "--out", str(tmp_path / "o")]) == EXIT_EMPTY


class TestSelectCommand:
    def test_writes_trace_and_final_model(self, tmp_path, synth_csv):
        out = tmp_path / "sel"
        assert main(["select", "--input", str(synth_csv), "--out", str(out)]) == EXIT_OK
        trace = json.loads((out / "trace.json").read_text())
        assert trace["alpha"] == 0.1
        assert trace["conforming"] is True
        assert len(trace["steps"]) >= 1
        final_cols = trace["final_model"]["columns"]
        payload = json.loads((out / "fit.json").read_text())
        assert [c["name"] for c in payload["columns"]] == final_cols

    def test_impossible_alpha_means_no_conforming_model(self, tmp_path, synth_csv):
        out = tmp_path / "nc"
        code = main(["select", "--input", str(synth_csv), "--out", str(out),
                     "--alpha", "1e-300"])
        assert code == EXIT_NO_CONFORMING_MODEL
        trace = json.loads((out / "trace.json").read_text())
        assert trace["conforming"] is False
        assert len(trace["final_model"]["columns"]) == 1

    def test_deterministic_outputs(self, tmp_path, synth_csv):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["select", "--input", str(synth_csv), "--out", str(out)]) == EXIT_OK
        for name in ("summary.txt", "fit.json", "trace.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestDiagnoseCommand:
    def test_writes_diagnostics_files(self, tmp_path, synth_csv):
        out = tmp_path / "diag"
        assert main(["diagnose", "--input", str(synth_csv), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "diagnostics.json").read_text())
        bp = payload["breusch_pagan"]
        assert bp["selected_variant"] == "koenker"
        assert set(bp) == {"selected_variant", "koenker", "original"}
        assert bp["koenker"]["df"] == bp["original"]["df"]
        assert payload["mape_percent"] >= 0.0
        assert all(set(e) == {"column", "r_squared_aux", "vif", "band", "infinite"}
                   for e in payload["vif"])
        residuals = (out / "residuals.csv").read_text().strip().split("\n")
        mp = (out / "measured_predicted.csv").read_text().strip().split("\n")
        assert residuals[0] == "fitted,residual"
        assert mp[0] == "actual,predicted"
        assert len(residuals) == len(mp) == 103 + 1

    def test_bp_variant_flag(self, tmp_path, synth_csv):
        out = tmp_path / "v"
        assert main(["diagnose", "--input", str(synth_csv), "--out", str(out),
                     "--bp-variant", "original"]) == EXIT_OK
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["breusch_pagan"]["selected_variant"] == "original"

    def test_select_flag_diagnoses_reduced_model(self, tmp_path, synth_csv):
        full_out, sel_out = tmp_path / "f", tmp_path / "s"
        main(["diagnose", "--input", str(synth_csv), "--out", str(full_out)])
        assert main(["diagnose", "--input", str(synth_csv), "--out", str(sel_out),
                     "--select"]) == EXIT_OK
        full = json.loads((full_out / "diagnostics.json").read_text())
        reduced = json.loads((sel_out / "diagnostics.json").read_text())
        assert len(reduced["vif"]) < len(full["vif"])

    @pytest.mark.parametrize("alpha, vif", [
        ("1e-6", [{"column": "goal_contribution", "r_squared_aux": 0.0, "vif": 1.0,
                   "band": "uncorrelated", "infinite": False}]),
        ("1e-12", []),
    ])
    def test_select_down_to_one_or_no_regressor(self, tmp_path, alpha, vif):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "1", "--n", "105", "--out", str(data)]) == EXIT_OK
        out = tmp_path / "d"
        assert main(["diagnose", "--input", str(data / "synth.csv"), "--out", str(out),
                     "--select", "--alpha", alpha]) == EXIT_OK
        assert json.loads((out / "diagnostics.json").read_text())["vif"] == vif

    def test_deterministic_outputs(self, tmp_path, synth_csv):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["diagnose", "--input", str(synth_csv), "--out", str(out), "--select"])
        for name in ("diagnostics.json", "residuals.csv", "measured_predicted.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestDiagnoseFactorizations:
    @staticmethod
    def tall_qr_calls(monkeypatch, argv):
        """Exit code and number of `qr_pivoted` calls on the full n-row design.

        Backward elimination also factors p-row compressed problems; n > p,
        so the tall calls are those with the most rows.
        """
        rows = []
        original = numcore.qr_pivoted

        def counting(*args, **kwargs):
            factors = original(*args, **kwargs)
            rows.append(factors.q.shape[0])
            return factors

        monkeypatch.setattr(numcore, "qr_pivoted", counting)
        code = main(argv)
        monkeypatch.undo()
        return code, rows.count(max(rows))

    def test_full_model_factored_once(self, tmp_path, synth_csv, monkeypatch):
        argv = ["diagnose", "--input", str(synth_csv), "--out", str(tmp_path / "d")]
        assert self.tall_qr_calls(monkeypatch, argv) == (EXIT_OK, 1)

    def test_select_adds_no_factorization(self, tmp_path, synth_csv, monkeypatch):
        # The final fit of elimination carries the factorization diagnose needs.
        common = ["--input", str(synth_csv), "--alpha", "0.05"]
        code, select_calls = self.tall_qr_calls(
            monkeypatch, ["select", *common, "--out", str(tmp_path / "s")])
        assert code == EXIT_OK and select_calls >= 1
        code, diagnose_calls = self.tall_qr_calls(
            monkeypatch, ["diagnose", "--select", *common, "--out", str(tmp_path / "d")])
        assert code == EXIT_OK
        assert diagnose_calls == select_calls

    def test_select_rebuilds_no_dataset(self, tmp_path, synth_csv, monkeypatch):
        # diagnose --select reuses the dataset elimination's final fit was fitted on.
        calls = []
        original = EncodedDataset.select_columns

        def counting(self, keep):
            calls.append(len(keep))
            return original(self, keep)

        monkeypatch.setattr(EncodedDataset, "select_columns", counting)
        common = ["--input", str(synth_csv), "--alpha", "0.1"]
        assert main(["select", *common, "--out", str(tmp_path / "s")]) == EXIT_OK
        select_calls = list(calls)
        calls.clear()
        assert main(["diagnose", "--select", *common, "--out", str(tmp_path / "d")]) == EXIT_OK
        assert select_calls and calls == select_calls


class TestOverflowingResponse:
    @pytest.mark.parametrize("command", ["fit", "select", "diagnose"])
    def test_exit_code_names_overflow(self, tmp_path, synth_csv, capsys, command):
        lines = synth_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        column = lines[0].rstrip("\n").split(",").index("market_value_m_eur")
        for i in range(1, 6):
            cells = lines[i].split(",")
            cells[column] = "1e308"
            lines[i] = ",".join(cells)
        big = tmp_path / "big.csv"
        big.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "o"
        code = main([command, "--input", str(big), "--out", str(out),
                     "--min-value", "0", "--min-minutes", "0"])
        assert code == EXIT_EMPTY
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()


class TestConfidenceFlag:
    def test_interval_labels_follow_confidence(self, tmp_path, synth_csv):
        out = tmp_path / "c90"
        assert main(["fit", "--input", str(synth_csv), "--out", str(out),
                     "--confidence", "0.90", "--format", "text"]) == EXIT_OK
        text = (out / "summary.txt").read_text()
        assert "[0.050" in text
        assert "0.950]" in text


class TestArbitraryInput:
    """Any input file ends in a documented exit code, never a traceback."""

    EXIT_CODES = (EXIT_OK, EXIT_EMPTY, EXIT_SCHEMA, EXIT_NO_CONFORMING_MODEL)
    COMMANDS = st.sampled_from(["fit", "select", "diagnose"])

    @staticmethod
    def run(command, content: bytes) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "players.csv"
            path.write_bytes(content)
            return main([command, "--input", str(path), "--out", str(Path(tmp) / "out")])

    @pytest.fixture(scope="class")
    def synth_rows(self):
        records, _ = generate_players(42, 105)
        return [line.split(",") for line in records_to_csv(records).splitlines()]

    @settings(max_examples=100)
    @given(command=COMMANDS, content=st.binary())
    def test_arbitrary_bytes(self, command, content):
        assert self.run(command, content) in self.EXIT_CODES

    @settings(max_examples=40)
    @given(seed=st.integers(), n=st.integers(-5, 60))
    def test_arbitrary_synth_arguments(self, seed, n):
        with tempfile.TemporaryDirectory() as tmp:
            code = main(["synth", f"--seed={seed}", f"--n={n}", "--out", tmp])
        assert code in (EXIT_OK, EXIT_EMPTY)
        if seed < 0 or n < 20:
            assert code == EXIT_EMPTY

    # A cell that still parses runs the whole pipeline, so fewer examples here.
    @settings(max_examples=40)
    @given(command=COMMANDS, cell=st.tuples(st.integers(1, 105), st.integers(0, 16)),
           value=st.text())
    def test_arbitrary_cell_value(self, synth_rows, command, cell, value):
        rows = [list(r) for r in synth_rows]
        assert len(rows[0]) == 17
        row, column = cell
        rows[row][column] = value
        content = "\n".join(",".join(r) for r in rows) + "\n"
        assert self.run(command, content.encode("utf-8")) in self.EXIT_CODES


def bundled_openblas() -> list[tuple[str, str]]:
    """(library path, thread-count getter) of numpy's and scipy's own OpenBLAS."""
    import numpy

    site = Path(numpy.__file__).resolve().parents[1]
    found = []
    for pattern, getter in (("numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
                            ("scipy.libs/libscipy_openblas-*.so", "scipy_openblas_get_num_threads")):
        paths = sorted(site.glob(pattern))
        if len(paths) != 1 or not hasattr(ctypes.CDLL(str(paths[0])), getter):
            pytest.skip(f"no single bundled OpenBLAS exporting {getter} at {site / pattern}")
        found.append((str(paths[0]), getter))
    return found


# Imports `module` and prints the BLAS variable it leaves set and the thread
# count each bundled OpenBLAS runs with.
PROBE = """
import ctypes, json, os, sys
import {module}
import scipy.linalg
counts = []
for path, getter in json.loads(sys.argv[1]):
    fn = getattr(ctypes.CDLL(path), getter)
    fn.argtypes, fn.restype = [], ctypes.c_int
    counts.append(fn())
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), counts]))
"""


class TestBlasThreads:
    """The CLI runs BLAS on one thread unless the user chose a count."""

    @staticmethod
    def probe(module: str, **threads: str):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE.format(module=module), json.dumps(bundled_openblas())],
            env=child_env(**threads), capture_output=True, text=True, timeout=120, check=True)
        return tuple(json.loads(proc.stdout))

    @staticmethod
    def two_cores():
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS caps its thread count at the core count; one core here")

    def test_cli_defaults_to_one_thread(self):
        assert self.probe("marketval.cli") == ("1", [1, 1])

    def test_openblas_variable_wins(self):
        self.two_cores()
        assert self.probe("marketval.cli", OPENBLAS_NUM_THREADS="2") == ("2", [2, 2])

    def test_omp_variable_wins(self):
        self.two_cores()
        assert self.probe("marketval.cli", OMP_NUM_THREADS="2") == (None, [2, 2])

    def test_library_import_sets_nothing(self):
        assert self.probe("marketval.numcore")[0] is None

    def test_fit_bytes_do_not_depend_on_the_core_count(self, tmp_path):
        # Criterion 09 across hosts: a tall QR's last digits depend on the
        # thread count, and the default run must match a one-thread run.
        assert main(["synth", "--seed", "1", "--n", "10000", "--out", str(tmp_path)]) == EXIT_OK
        outputs = []
        for name, threads in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "marketval.cli", "fit", "--input",
                 str(tmp_path / "synth.csv"), "--out", str(out)],
                env=child_env(**threads), capture_output=True, timeout=300, check=True)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert set(outputs[0]) == {"summary.txt", "fit.json"}
        assert outputs[0] == outputs[1]
