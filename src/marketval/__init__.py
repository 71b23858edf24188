"""Market-value regression pipeline for football player data.

Ingests player CSVs, encodes them into a design matrix, fits OLS with a
complete inferential summary, runs heteroscedasticity/collinearity/error
diagnostics, performs backward elimination, and generates synthetic
datasets with published ground truth.
"""
import importlib

# Public name -> the submodule that defines it.  Nothing is imported until a
# name is first read (PEP 562), so `import marketval` loads no numpy: the CLI
# must set the BLAS thread count before OpenBLAS is loaded (see `cli`).
_ORIGIN = {
    name: module
    for module, names in {
        "diagnostics": ("BreuschPaganResult", "PlotSeries", "VifEntry", "VifReport",
                        "breusch_pagan", "mape", "plot_series", "vif"),
        "features": ("ColumnMeta", "EncodedDataset", "PlayerRecord", "StandardizationParams",
                     "age_group", "card_score", "encode_dataset", "goal_contribution",
                     "height_group", "match_group"),
        "ingest": ("CSV_HEADER", "ExclusionEntry", "ExclusionLog", "FilterConfig",
                   "FilterResult", "apply_filters", "parse_players_csv"),
        "numcore": ("LeastSquaresSolution", "Matrix", "QrFactors", "least_squares_solve",
                    "qr_pivoted", "unscaled_covariance"),
        "ols": ("CoefficientRow", "FitResult", "InformationCriteria", "adjusted_r_squared",
                "coefficient_table", "f_statistic", "fit_ols", "information_criteria",
                "log_likelihood"),
        "selection": ("EliminationStep", "EliminationTrace", "ModelSummary",
                      "backward_eliminate"),
        "synth": ("SynthTruth", "generate_players", "records_to_csv", "truth_to_dict"),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
