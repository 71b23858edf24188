"""tools/snapshot_outputs.py on one n = 105 case and its hand-built cell cases,
tools/code_lines.py on a small tree, and tools/stage_times.py on a small CSV
and an invalid one."""
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
    assert all(line.endswith(" ms") and float(line.split()[1]) >= 0.0 for line in lines)
    assert tool.main([]) == 2


def test_stage_times_of_an_invalid_csv_stop_at_the_parse_error(tmp_path, capsys, monkeypatch):
    tool = load_tool("stage_times")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # restored after the test
    lines = (ingest.CSV_HEADER, ("x",) * len(ingest.CSV_HEADER))
    (tmp_path / "bad.csv").write_text("".join(",".join(line) + "\n" for line in lines))
    assert tool.main([str(tmp_path / "bad.csv")]) == 0
    parse, error = capsys.readouterr().out.splitlines()
    assert parse.split()[0] == "parse_players_csv" and parse.endswith(" ms")
    assert error == "RowParseError: row 2, column 'age': expected an integer, got 'x'"
