"""Write every output of the CLI on a fixed set of inputs, for ``diff -r``.

Usage: python3 tools/snapshot_outputs.py OUT    (OUT must not exist yet)

Generates each input of `CASES` (``marketval synth`` at a fixed n and seed,
plus five hand-built CSVs: one whose eliminated model has no bias column,
one of unusual but valid cells, and one each with a bad cell, a broken
record rule and a ragged row past the first block of the columnar read),
then runs every command of `RUNS` on it.
Each command runs in a fresh interpreter on this tree's ``src/``, with the
BLAS thread count left to the CLI's default, and from the case's own
directory with relative paths, so nothing in the snapshot depends on where
OUT is.  A run's directory holds the files the command wrote plus its
``stdout``, ``stderr`` and ``exit_code``:

    OUT/<case>/input/...        the input CSV (and synth's own outputs)
    OUT/<case>/<run>/...

Two trees give the same outputs when ``diff -r`` of their snapshots is
empty.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Synthetic inputs as (n, seed).  Seed 42 at n = 105 leaves no residual df;
# seed 4 draws exact dummy twins at n = 105 and 96.
SYNTH = ((105, 1), (105, 4), (105, 7), (105, 42), (96, 4), (2000, 1), (2000, 7), (20000, 1))
NO_BIAS = "no-bias"
MESSY_CELLS = "messy-cells"
BAD_CELL = "bad-cell"
BAD_RULE = "bad-rule"
RAGGED_ROW = "ragged-row"
CASES = (*(f"n{n}-seed{seed}" for n, seed in SYNTH), NO_BIAS, MESSY_CELLS, BAD_CELL, BAD_RULE,
         RAGGED_ROW)

# Players aged exactly 25 with 3000+ minutes: a small subset of a large input.
NARROW = ("--age-min", "25", "--age-max", "25", "--min-minutes", "3000")
RUNS = {
    "fit": ("fit",),
    "fit-confidence-0.9": ("fit", "--confidence", "0.9"),
    "select": ("select",),
    "select-alpha-0.05": ("select", "--alpha", "0.05"),
    "diagnose": ("diagnose",),
    "diagnose-original": ("diagnose", "--bp-variant", "original"),
    "diagnose-select": ("diagnose", "--select"),
    "select-narrow": ("select", *NARROW),
    "diagnose-narrow": ("diagnose", *NARROW),
}
# The no-bias input holds players below the default value floor.
NO_BIAS_FLAGS = ("--min-value", "0")
# The bad data row of the bad-cell, bad-rule and ragged-row cases: past the
# first block of `ingest._BLOCK_ROWS` (4 096) rows.
BAD_ROW = 5000


def no_bias_csv() -> str:
    """60 players who differ only in league, counts and value.

    The baseline league is worth about 0.02, the other league either about
    1000 or below 1, so elimination removes `const` and keeps the league
    dummy: the final model has no bias column.  The spread within each
    group keeps e^2 from being a function of the league.
    """
    import numpy as np

    from marketval.ingest import CSV_HEADER

    rng = np.random.default_rng(18)
    lines = [",".join(CSV_HEADER)]
    for i in range(60):
        if i < 30:
            league, value = "L1", 0.02 * rng.uniform(0.5, 1.5)
        elif i % 2:
            league, value = "L2", 1000.0 * rng.uniform(0.8, 1.2)
        else:
            league, value = "L2", rng.uniform(0.01, 1.0)
        goals, assists, yellows = rng.integers(0, 10, size=3)
        lines.append(f"P{i:02d},{league},C,25,180,right,X,Y,30,{goals},{assists},"
                     f"{yellows},0,0,2000,{value:.6f},0")
    return "\n".join(lines) + "\n"


def messy_cells_csv() -> str:
    """300 synthetic players (seed 3) in cells that are valid but unusual.

    Names hold a comma, a double quote or a line feed, so the writer quotes
    them; club names are not ASCII; one cell in six of the other columns is
    padded with spaces, and one in six of the count and value columns
    carries a "+" sign.  So each int column and the flag column are read
    cell by cell; `float()` reads the value column's cells in one call.
    """
    import csv
    import io

    from marketval.features import FIELD_TYPES
    from marketval.synth import CLUBS, generate_players, records_to_csv

    header, *rows = csv.reader(io.StringIO(records_to_csv(generate_players(3, 300)[0])))
    clubs = ("München", "Beşiktaş", "Ferencváros", "Śląsk")
    for i, row in enumerate(rows):
        row[0] = (f"{row[0]}, Jr.", f'{row[0]} "No. {i}"', f"{row[0]}\n{i}")[i % 3]
        row[2] = f"{row[2]} {clubs[CLUBS.index(row[2]) % len(clubs)]}"
        for j, kind in enumerate(FIELD_TYPES.values()):
            if j and (i + j) % 6 == 0:
                row[j] = f"  {row[j]} "
            elif (i + j) % 6 == 3 and kind in (int, float):
                row[j] = f"+{row[j]}"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def _bad_row_csv(width: int | None = None, **cells: str) -> str:
    """6 000 synthetic players (seed 5) whose data row `BAD_ROW` (file row
    `BAD_ROW` + 1) has `cells` (column -> cell), and only its first `width`
    cells."""
    from marketval.ingest import CSV_HEADER
    from marketval.synth import generate_players, records_to_csv

    lines = records_to_csv(generate_players(5, 6000)[0]).split("\n")
    row = lines[BAD_ROW].split(",")
    for column, cell in cells.items():
        row[CSV_HEADER.index(column)] = cell
    lines[BAD_ROW] = ",".join(row[:width])
    return "\n".join(lines)


def bad_cell_csv() -> str:
    """`_bad_row_csv` with `x` for goals."""
    return _bad_row_csv(goals="x")


def bad_rule_csv() -> str:
    """`_bad_row_csv` with age 14, below the record rule's 15."""
    return _bad_row_csv(age="14")


def ragged_row_csv() -> str:
    """`_bad_row_csv` with 3 cells."""
    return _bad_row_csv(width=3)


# Hand-built inputs: the case's CSV text and the flags of every run on it.
HAND_BUILT = {
    NO_BIAS: (no_bias_csv, NO_BIAS_FLAGS),
    MESSY_CELLS: (messy_cells_csv, ()),
    BAD_CELL: (bad_cell_csv, ()),
    BAD_RULE: (bad_rule_csv, ()),
    RAGGED_ROW: (ragged_row_csv, ()),
}


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(case_dir: Path, name: str, args: tuple[str, ...]) -> None:
    """Run ``marketval ARGS`` in `case_dir`; record its streams and exit code in `name`/."""
    out = case_dir / name
    out.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "marketval.cli", *args], cwd=case_dir,
                          env=_child_env(), stdin=subprocess.DEVNULL, capture_output=True)
    (out / "stdout").write_bytes(proc.stdout)
    (out / "stderr").write_bytes(proc.stderr)
    (out / "exit_code").write_text(f"{proc.returncode}\n")


def snapshot(out: Path, cases: tuple[str, ...] = CASES) -> None:
    """Write the snapshot of each case in `cases` (names from `CASES`) under `out`."""
    synth = {f"n{n}-seed{seed}": (n, seed) for n, seed in SYNTH}
    for case in cases:
        case_dir = out / case
        if case in HAND_BUILT:
            build_csv, flags = HAND_BUILT[case]
            (case_dir / "input").mkdir(parents=True, exist_ok=True)
            (case_dir / "input" / "players.csv").write_text(build_csv(), encoding="utf-8")
            source = "input/players.csv"
        else:
            n, seed = synth[case]
            _run(case_dir, "input", ("synth", "--n", str(n), "--seed", str(seed),
                                     "--out", "input"))
            source, flags = "input/synth.csv", ()
        for name, args in RUNS.items():
            _run(case_dir, name, (*args, *flags, "--input", source, "--out", name))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists():  # files left from another run would show up in the diff
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the hand-built inputs
    snapshot(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
