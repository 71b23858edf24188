"""Time each in-process stage of `marketval fit` on one player CSV.

Usage: python3 tools/stage_times.py CSV

Runs the stages `REPEATS` times in this process on this tree's ``src/``,
with BLAS on one thread, and prints the median milliseconds of each, then
the process's peak RSS (`ru_maxrss`) in MB after that stage of the first
repeat:

    parse_players_csv        the CSV bytes to a table
    apply_filters            the default filters
    apply_filters_narrow     players aged exactly 25 with 3000+ minutes
    encode_dataset           the default-filtered table to a design
    fit_ols                  the full model
    fit_json                 fit.json's text (`fit_to_dict` and `json_dumps`)

Reading the file is not timed.  Each stage takes the previous stage's
result from the same repeat, so every repeat does the work of one `fit`.
For a CSV that `parse_players_csv` rejects, it prints the median time of
the parse up to its error, then the error, and runs no later stage.  The
peak RSS counts the process's own start-up, the imports and the file read.
"""
from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REPEATS = 7
STAGES = ("parse_players_csv", "apply_filters", "apply_filters_narrow", "encode_dataset",
          "fit_ols", "fit_json")


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stage_times(data: bytes) -> tuple[dict[str, tuple[float, float]], Exception | None]:
    """Median milliseconds of each stage of `STAGES` over `REPEATS` runs, and
    the peak RSS in MB after it in the first run, with None; or, if the parse
    fails, those of the parse up to the error, and the error."""
    from marketval.errors import MarketvalError
    from marketval.features import encode_dataset
    from marketval.ingest import FilterConfig, apply_filters, parse_players_csv
    from marketval.ols import fit_ols
    from marketval.report import fit_to_dict, json_dumps

    narrow = FilterConfig(min_age=25, max_age=25, min_minutes=3000)
    runs: dict[str, list[float]] = {stage: [] for stage in STAGES}
    peaks: dict[str, float] = {}

    def timed(stage, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            runs[stage].append((time.perf_counter() - start) * 1e3)
            peaks.setdefault(stage, peak_rss_mb())

    error = None
    for _ in range(REPEATS):
        try:
            table = timed("parse_players_csv", parse_players_csv, data)
        except MarketvalError as exc:
            error = exc
            continue
        accepted = timed("apply_filters", apply_filters, table).accepted
        timed("apply_filters_narrow", apply_filters, table, narrow)
        fit = timed("fit_ols", fit_ols, timed("encode_dataset", encode_dataset, accepted))
        timed("fit_json", lambda: json_dumps(fit_to_dict(fit)))
    return {stage: (statistics.median(times), peaks[stage])
            for stage, times in runs.items() if times}, error


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    # OpenBLAS reads its thread count when numpy loads it, at the first import below.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    times, error = stage_times(Path(argv[0]).read_bytes())
    for stage, (ms, mb) in times.items():
        print(f"{stage:<22}{ms:9.1f} ms{mb:9.1f} MB")
    if error is not None:
        print(f"{type(error).__name__}: {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
