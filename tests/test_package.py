"""The package namespace: lazy re-exports of every public name."""
from __future__ import annotations

import subprocess
import sys

import pytest

import marketval
from conftest import child_env


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
