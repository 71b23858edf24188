from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings

from marketval import ingest
from marketval.features import (
    KIND_BIAS,
    KIND_CONTINUOUS,
    ColumnMeta,
    EncodedDataset,
)
from marketval.numcore import Matrix

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def dataset_from_arrays(design, response, names=None, bias=True) -> EncodedDataset:
    """Wrap a raw design matrix as a dataset for fitting.

    When ``bias`` is true the first column must be all ones and is tagged as
    the bias column; every other column is tagged continuous.
    """
    design = np.asarray(design, dtype=float)
    n_cols = design.shape[1]
    if names is None:
        names = ["const" if bias else "x0"] + [f"x{j}" for j in range(1, n_cols)]
    columns = []
    for j, name in enumerate(names):
        kind = KIND_BIAS if bias and j == 0 else KIND_CONTINUOUS
        columns.append(ColumnMeta(name=name, kind=kind, source_attribute=name))
    return EncodedDataset(
        design=Matrix(design),
        columns=tuple(columns),
        response=np.asarray(response, dtype=float),
        standardization_params=(),
        dropped_levels={},
    )


SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**threads: str) -> dict[str, str]:
    """This environment without either BLAS thread variable, plus `threads`.

    Importing `marketval.cli` sets OPENBLAS_NUM_THREADS in the importing
    process, so the test process's own environment cannot be passed on as is.
    """
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(threads)
    return env


def count_csv_passes(monkeypatch) -> list[bytes]:
    """The inputs of every call of `ingest._csv_rows` from now on: one item
    for each pass of the CSV reader over a file."""
    passes: list[bytes] = []
    csv_rows = ingest._csv_rows

    def counted(data: bytes):
        passes.append(data)
        return csv_rows(data)

    monkeypatch.setattr(ingest, "_csv_rows", counted)
    return passes


def load_tool(name: str):
    """The module `tools/<name>.py`, which is not on the import path."""
    spec = importlib.util.spec_from_file_location(name, SRC.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
