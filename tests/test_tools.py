"""tools/snapshot_outputs.py on one n = 105 case."""
from __future__ import annotations

from marketval.cli import main
from conftest import snapshot_tool


def test_snapshot_of_one_case(tmp_path):
    tool = snapshot_tool()
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
