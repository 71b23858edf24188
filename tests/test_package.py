"""The package namespace: lazy re-exports of every public name, and the
LAPACK boundary."""
from __future__ import annotations

import ast
import subprocess
import sys
import typing

import pytest

import marketval
from conftest import SRC, child_env


def test_import_loads_no_numpy():
    # The CLI sets the BLAS thread count before numpy loads OpenBLAS.
    code = "import sys, marketval; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'marketval.'))))"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", marketval.__all__)
def test_every_exported_name_resolves(name):
    value = getattr(marketval, name)
    module = sys.modules[f"marketval.{marketval._ORIGIN[name]}"]
    assert value is getattr(module, name)


def test_dir_lists_the_exports():
    assert set(marketval.__all__) <= set(dir(marketval))
    assert "__version__" in dir(marketval)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(marketval, "no_such_name")


def test_submodules_and_names_import_by_name():
    from marketval import fit_ols, numcore
    from marketval.ols import fit_ols as defined

    assert fit_ols is defined
    assert numcore.__name__ == "marketval.numcore"


def test_only_numcore_imports_scipy():
    # Every factorization and triangular solve goes through `numcore`.
    importers = []
    for path in sorted((SRC / "marketval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                importers.append(path.stem)
    assert set(importers) == {"numcore"}


def _internal_read(node: ast.AST) -> str | None:
    """The `QrFactors` internal or rank tolerance that `node` reads, if any."""
    if isinstance(node, ast.Attribute) and node.attr in ("q", "r", "permutation", "solve_r11"):
        return node.attr
    name = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
    if name and getattr(node, name) == "DEFAULT_RANK_TOL":
        return "DEFAULT_RANK_TOL"
    return None


def test_only_numcore_reads_q():
    # Other modules read a factorization only through `QrFactors` methods, so
    # the rank rule and how Q and R are stored can change inside `numcore` alone.
    readers = {
        (path.stem, _internal_read(node))
        for path in (SRC / "marketval").glob("*.py")
        if path.stem != "numcore"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _internal_read(node)
    }
    assert readers == set()


def _names_in(module: str, function: str) -> set[str]:
    """The string constants and attribute names in one function of a module."""
    path = SRC / "marketval" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    nodes = list(ast.walk(body))
    return ({n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_parser_names_no_column():
    # Each cell is read by its `PlayerRecord` field, so the parser restates no column.
    from marketval.ingest import CSV_HEADER

    assert _names_in("ingest", "parse_players_csv") & set(CSV_HEADER) == set()


def test_fit_json_names_no_scalar_field():
    # fit.json's scalar block is read off `FitResult`'s int, float and bool fields.
    from marketval.ols import FitResult

    scalars = {n for n, t in typing.get_type_hints(FitResult).items() if t in (int, float, bool)}
    assert len(scalars) == 16
    assert _names_in("report", "fit_to_dict") & scalars == set()
