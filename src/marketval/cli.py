"""Command-line pipeline: ingest -> encode -> fit/select/diagnose, plus synth.

Exit codes: 0 success; 2 empty or degenerate input or an invalid argument
(also synth with n too small or a negative seed); 3 schema, parse or encoding
error; 4 no conforming model from backward elimination.  Every command is a pure function of its inputs and flags, so
repeated runs write byte-identical files.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is
set.  The factorizations here are small, so a second thread slows them down,
and the thread count changes the last digits of a tall factorization: with
one thread, reruns are byte-identical on any number of cores.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

# OpenBLAS reads its thread count when numpy or scipy first loads it, so this
# precedes every import that loads numpy.  OPENBLAS_NUM_THREADS overrides
# OMP_NUM_THREADS, so it is set only when the user set neither.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import diagnostics as diag
from . import report
from .errors import (
    DegenerateModelError,
    DegenerateResponseError,
    EmptyDatasetError,
    EncodingError,
    MarketvalError,
    RowParseError,
    SchemaError,
)
from .features import EncodedDataset, encode_dataset
from .ingest import FilterConfig, apply_filters, parse_players_csv
from .ols import FitResult, fit_ols
from .selection import EliminationTrace, backward_eliminate
from .synth import generate_players, records_to_csv, truth_to_dict

EXIT_OK = 0
EXIT_EMPTY = 2
EXIT_SCHEMA = 3
EXIT_NO_CONFORMING_MODEL = 4


def build_parser() -> argparse.ArgumentParser:
    filters = FilterConfig()
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--input", required=True, help="player CSV file")
    inputs.add_argument("--out", default=".", help="output directory (default: current)")
    inputs.add_argument("--min-minutes", type=int, default=filters.min_minutes)
    inputs.add_argument("--min-value", type=float, default=filters.min_market_value_m_eur,
                        help="minimum market value in millions of euros")
    inputs.add_argument("--age-min", type=int, default=filters.min_age)
    inputs.add_argument("--age-max", type=int, default=filters.max_age)
    inputs.add_argument("--keep-mid-season", action="store_true",
                        help="keep players who transferred mid-season")
    fit_report = argparse.ArgumentParser(add_help=False)
    fit_report.add_argument("--format", choices=("text", "json", "both"), default="both",
                            help="which fit reports to write")
    fit_report.add_argument("--confidence", type=float, default=0.95,
                            help="confidence level for coefficient intervals")
    elimination = argparse.ArgumentParser(add_help=False)
    elimination.add_argument("--alpha", type=float, default=0.1,
                             help="significance level for elimination "
                                  "(diagnose reads it only with --select)")

    parser = argparse.ArgumentParser(
        prog="marketval",
        description="Market-value regression pipeline for football player data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[inputs, fit_report],
                           help="fit the full model and write its report")
    p_fit.set_defaults(handler=cmd_fit)

    p_select = sub.add_parser("select", parents=[inputs, fit_report, elimination],
                              help="backward elimination, then report the final model")
    p_select.set_defaults(handler=cmd_select)

    p_diag = sub.add_parser("diagnose", parents=[inputs, elimination],
                            help="heteroscedasticity, VIF and MAPE diagnostics")
    p_diag.add_argument("--select", action="store_true",
                        help="diagnose the backward-eliminated model instead of the full one")
    p_diag.add_argument("--bp-variant", choices=(diag.BP_KOENKER, diag.BP_ORIGINAL),
                        default=diag.BP_KOENKER)
    p_diag.set_defaults(handler=cmd_diagnose)

    p_synth = sub.add_parser("synth", help="generate a synthetic player CSV with known truth")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--n", type=int, default=105)
    p_synth.add_argument("--out", default=".")
    p_synth.set_defaults(handler=cmd_synth)
    return parser


def _filter_config(args: argparse.Namespace) -> FilterConfig:
    return FilterConfig(
        min_age=args.age_min,
        max_age=args.age_max,
        min_minutes=args.min_minutes,
        min_market_value_m_eur=args.min_value,
        exclude_mid_season_transfers=not args.keep_mid_season,
    )


def _load_dataset(args: argparse.Namespace) -> EncodedDataset:
    data = Path(args.input).read_bytes()
    # The parsed table is bound to no name, so it is freed before the
    # accepted one is encoded.
    result = apply_filters(parse_players_csv(data), _filter_config(args))
    if len(result.accepted) < 2:
        raise EmptyDatasetError(
            f"{len(result.accepted)} record(s) survived filtering; need at least 2"
        )
    return encode_dataset(result.accepted)


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _write_fit_outputs(fit: FitResult, out_dir: Path, fmt: str) -> None:
    if fmt in ("text", "both"):
        _write(out_dir / "summary.txt", report.render_summary(fit))
    if fmt in ("json", "both"):
        _write(out_dir / "fit.json", report.json_dumps(report.fit_to_dict(fit)))


def _elimination_exit(trace: EliminationTrace) -> int:
    """EXIT_OK for a conforming trace; otherwise say why on stderr and return 4."""
    if trace.conforming:
        return EXIT_OK
    print("no conforming model: every column was eliminated down to one "
          f"with p > {trace.alpha}", file=sys.stderr)
    return EXIT_NO_CONFORMING_MODEL


def cmd_fit(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    fit = fit_ols(dataset, confidence_level=args.confidence)
    _write_fit_outputs(fit, Path(args.out), args.format)
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    trace = backward_eliminate(dataset, args.alpha, confidence_level=args.confidence)
    out_dir = Path(args.out)
    _write_fit_outputs(trace.final_fit, out_dir, args.format)
    _write(out_dir / "trace.json", report.json_dumps(report.trace_to_dict(trace)))
    return _elimination_exit(trace)


def cmd_diagnose(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    if args.select:
        trace = backward_eliminate(dataset, args.alpha)
        fit, model_data = trace.final_fit, trace.final_data
    else:
        trace, model_data = None, dataset
        fit = fit_ols(model_data)
    bp_results = diag.breusch_pagan(fit)
    vif_report = diag.vif(model_data, fit.factors)
    actual = model_data.response
    mape_value = diag.mape(actual, fit.fitted)
    series = diag.plot_series(fit, actual)
    out_dir = Path(args.out)
    _write(
        out_dir / "diagnostics.json",
        report.json_dumps(
            report.diagnostics_to_dict(bp_results, args.bp_variant, vif_report, mape_value)
        ),
    )
    residuals_csv, mp_csv = report.plot_series_csv(series)
    _write(out_dir / "residuals.csv", residuals_csv)
    _write(out_dir / "measured_predicted.csv", mp_csv)
    return EXIT_OK if trace is None else _elimination_exit(trace)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.n < 20:
        print(f"n must be at least 20, got {args.n}", file=sys.stderr)
        return EXIT_EMPTY
    records, truth = generate_players(args.seed, args.n)
    out_dir = Path(args.out)
    _write(out_dir / "synth.csv", records_to_csv(records))
    _write(out_dir / "synth_truth.json", report.json_dumps(truth_to_dict(truth)))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, RowParseError, EncodingError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (EmptyDatasetError, DegenerateResponseError, DegenerateModelError) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (MarketvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())
