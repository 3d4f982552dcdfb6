"""The public API: what each module lists in ``__all__``, and what must stay listed.

``bench/run.py`` reads its per-layer metrics from spans named after these
functions, and ``bench/spans.py`` wraps exactly the functions a module lists
in ``__all__``, so a name dropped from a list silently loses its metric and a
private helper added to one puts spans inside the grid search's inner loop.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binquant

MODULES = ["density", "likelihood", "channel", "solver", "oracle", "cli"]

#: Functions the benchmark's per-layer metrics are read from.
TRACED = {
    "density": ["log_pdf", "cdf"],
    "likelihood": ["posterior", "find_level_set", "classify_monotonicity", "translate_log_concavity"],
    "channel": ["stationarity", "level_functionals", "channel_matrix"],
    "solver": ["solve", "predict_single_threshold"],
    "oracle": ["grid_search", "sweep_levels", "structural_checks"],
    "cli": ["main", "load_config"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"binquant.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_exports_exist():
    assert [attr for attr in binquant.__all__ if not hasattr(binquant, attr)] == []


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_functions_stay_listed(name):
    module = importlib.import_module(f"binquant.{name}")
    assert set(TRACED[name]) <= set(module.__all__)


def test_no_private_helper_is_listed():
    for name in MODULES:
        module = importlib.import_module(f"binquant.{name}")
        assert [attr for attr in module.__all__ if attr.startswith("_")] == []


def test_cli_binds_the_library_calls_the_benchmark_makes():
    from binquant import cli, oracle, solver

    for attr, owner in [
        ("solve", solver),
        ("predict_single_threshold", solver),
        ("sweep_levels", oracle),
        ("structural_checks", oracle),
        ("grid_search", oracle),
    ]:
        assert getattr(cli, attr) is getattr(owner, attr)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize would add about 0.25 s to the CLI's 0.5 s import
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, binquant.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
