"""The traced benchmark run (perfbench/shim.py) wraps functions by name
and reads a missing one as 0, so a rename would silently zero its
per-layer metric: every name it lists must exist in its module."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"


def load_shim():
    spec = importlib.util.spec_from_file_location("perfbench_shim", SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return shim


@pytest.mark.parametrize("module_name, names", sorted(load_shim().LAYER_FUNCTIONS.items()))
def test_traced_functions_exist(module_name, names):
    module = importlib.import_module(f"clickroles.{module_name}")
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"clickroles.{module_name} lacks {missing}"
