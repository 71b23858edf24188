"""tools/snapshot_outputs.py on one n = 105 case and its hand-built cell cases,
tools/code_lines.py on a small tree, tools/stage_times.py on a small CSV and
an invalid one, and tools/compare_snapshots.py on two small trees."""
from __future__ import annotations

from marketval import ingest
from marketval.cli import main
from conftest import count_csv_passes, load_tool


def test_snapshot_of_one_case(tmp_path):
    tool = load_tool("snapshot_outputs")
    tool.snapshot(tmp_path / "snap", ("n105-seed1",))
    case = tmp_path / "snap" / "n105-seed1"
    assert sorted(p.name for p in case.iterdir()) == sorted(["input", *tool.RUNS])
    codes = {run.name: (run / "exit_code").read_text() for run in case.iterdir()}
    assert codes == {name: "2\n" if "narrow" in name else "0\n" for name in codes}
    assert all((run / "stdout").read_bytes() == b"" for run in case.iterdir())
    assert (case / "select-narrow" / "stderr").read_text() == (
        "degenerate input: 0 record(s) survived filtering; need at least 2\n")
    # The snapshot holds what the CLI writes.
    assert main(["select", "--input", str(case / "input" / "synth.csv"),
                 "--out", str(tmp_path / "select")]) == 0
    for name in ("summary.txt", "fit.json", "trace.json"):
        assert (case / "select" / name).read_bytes() == (tmp_path / "select" / name).read_bytes()


def test_snapshot_of_the_cell_cases(tmp_path, monkeypatch):
    tool = load_tool("snapshot_outputs")
    errors = {
        tool.BAD_CELL: "column 'goals': expected an integer, got 'x'",
        tool.BAD_RULE: "column 'record': age must be >= 15",
        tool.RAGGED_ROW: "column 'row': expected 17 cells, got 3",
    }
    tool.snapshot(tmp_path / "snap", (tool.MESSY_CELLS, *errors))
    messy = tmp_path / "snap" / tool.MESSY_CELLS
    assert {name: (messy / name / "exit_code").read_text() for name in tool.RUNS} == {
        name: "2\n" if "narrow" in name else "0\n" for name in tool.RUNS}
    for case, error in errors.items():
        for name in tool.RUNS:
            run = tmp_path / "snap" / case / name
            assert (run / "exit_code").read_text() == "3\n"
            assert (run / "stderr").read_text() == (
                f"input error: row {tool.BAD_ROW + 1}, {error}\n")
    # The unusual cells are valid, and the CSV reader reads them once.
    passes = count_csv_passes(monkeypatch)
    table = ingest.parse_players_csv((messy / "input" / "players.csv").read_bytes())
    assert len(table) == 300
    assert sum("\n" in name for name in table.name.tolist()) == 100
    assert len(passes) == 1


SMALL_MODULE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment still leaves a code line

# A comment line.


def area(radius):
    """Function docstring."""

    return (math.pi
            * radius ** 2)


class Shape:
    """Class docstring."""
    label = """not a docstring:
both lines count"""
'''


def test_code_lines_counts_statements_only(tmp_path, capsys):
    tool = load_tool("code_lines")
    # import; def; the two lines of return; class; the two lines of label.
    assert tool.code_lines(SMALL_MODULE) == 7
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "shapes.py").write_text(SMALL_MODULE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0 pkg/empty.py", "     7 pkg/shapes.py", "     7 total"]


def test_stage_times_names_each_stage(tmp_path, capsys, monkeypatch):
    tool = load_tool("stage_times")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # restored after the test
    assert main(["synth", "--seed", "1", "--n", "105", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert tool.main([str(tmp_path / "synth.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(tool.STAGES)
    fields = [line.split()[1:] for line in lines]
    assert all(f[1] == "ms" and f[3] == "MB" and float(f[0]) >= 0.0 for f in fields)
    # The peak RSS after each stage of the first repeat never falls.
    peaks = [float(f[2]) for f in fields]
    assert peaks == sorted(peaks) and peaks[0] > 0.0
    assert tool.main([]) == 2


def test_stage_times_of_an_invalid_csv_stop_at_the_parse_error(tmp_path, capsys, monkeypatch):
    tool = load_tool("stage_times")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # restored after the test
    lines = (ingest.CSV_HEADER, ("x",) * len(ingest.CSV_HEADER))
    (tmp_path / "bad.csv").write_text("".join(",".join(line) + "\n" for line in lines))
    assert tool.main([str(tmp_path / "bad.csv")]) == 0
    parse, error = capsys.readouterr().out.splitlines()
    assert parse.split()[0] == "parse_players_csv" and parse.split()[2::2] == ["ms", "MB"]
    assert error == "RowParseError: row 2, column 'age': expected an integer, got 'x'"


def test_compare_snapshots_reports_numbers_and_text(tmp_path, capsys):
    tool = load_tool("compare_snapshots")
    files = {
        "same/fit.json": ('{"coef": 1.5, "df": 3}\n', '{"coef": 1.5, "df": 3}\n'),
        "a/fit.json": ('{"coef": 2.0, "rss": 4.0e-03}\n',
                       '{"coef": 2.000000002, "rss": 4.0e-03}\n'),
        "b/fit.json": ('{"coef": 1.0, "df": 3}\n', '{"coef": 1.1, "df": 4}\n'),
        "b/summary.txt": ("head\nDropped: club=Club 13\nx 0.5\n",
                          "head\nDropped: club=Club 36\nx 0.25\n"),
        "b/residuals.csv": ("".join(f"{i}.0,1.0\n" for i in range(500)),
                            "".join(f"{i}.0,{-1.0 if i == 7 else 1.0}\n" for i in range(500))),
        "old-only": ("1\n", None),
    }
    for rel, texts in files.items():
        for root, text in zip(("old", "new"), texts):
            if text is not None:
                (tmp_path / root / rel).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / root / rel).write_text(text)
    assert tool.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a/fit.json: largest relative difference 1e-09 (2.0 against 2.000000002)",
        # The count changed, so the line is text: its float is not compared.
        "b/fit.json: largest relative difference 0",
        '    - {"coef": 1.0, "df": 3}',
        '    + {"coef": 1.1, "df": 4}',
        "b/residuals.csv: largest relative difference 2 (1.0 against -1.0)",
        "b/summary.txt: largest relative difference 0.5 (0.5 against 0.25)",
        "    - Dropped: club=Club 13",
        "    + Dropped: club=Club 36",
        f"old-only: only in {tmp_path / 'old'}",
        "fit.json: largest relative difference 1e-09 over the tree",
        "residuals.csv: largest relative difference 2 over the tree",
        "summary.txt: largest relative difference 0.5 over the tree",
    ]
    assert tool.main([str(tmp_path / "old" / "same"), str(tmp_path / "new" / "same")]) == 0
    assert capsys.readouterr().out == ""
