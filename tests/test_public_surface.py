"""The public API: what each module lists in ``__all__``, and what must stay listed.

``bench/run.py`` reads its per-layer metrics from spans named after these
functions, and ``bench/spans.py`` wraps exactly the functions a module lists
in ``__all__``, so a name dropped from a list silently loses its metric and a
private helper added to one puts spans inside the grid search's inner loop.
The ``ast`` checks at the end stand in for a linter: no library module may
keep an unused import or an unlisted top-level name that nothing reads, or
reach for another module's private helpers beyond the few that are shared on
purpose.
"""

import ast
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


LIBRARY = sorted((Path(__file__).resolve().parent.parent / "src" / "binquant").glob("*.py"))

#: The private helpers that are shared between library modules on purpose.
#: ``_level_roots`` and ``_u_extent`` give the solver's level scan its roots,
#: the range of u and the first segment's label (``_u_extent`` gives the
#: level functionals the label too), so ``likelihood`` alone picks the
#: closed form or the search grid; ``_batch_roots`` gives a batch of level
#: functionals its checked levels and their roots, and keeps them on the
#: spec for ``find_level_set``; ``_level_batch`` is that batch as arrays,
#: which the oracle's sweep and checks read with no object per level;
#: ``_check_grid_points`` is the one range check of ``grid_points``, shared
#: by ``SolverConfig``; ``_LEVEL_MARGIN`` bounds the levels the level layer
#: admits, so ``SolverConfig`` admits no level range beyond them.
SHARED_PRIVATE = {
    "_mi_bits", "_h2", "_log_pdf_slope", "_level_roots", "_u_extent", "_batch_roots", "_level_batch",
    "_check_grid_points", "_LEVEL_MARGIN",
}


def _imports(tree):
    """(bound name, imported name, node) for every import below ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = binquant if path.stem == "__init__" else importlib.import_module(f"binquant.{path.stem}")
    used |= set(getattr(module, "__all__", ()))
    assert sorted(bound for bound, _, _ in _imports(tree) if bound not in used) == []


def _module_level_names(tree):
    """Every function, class or constant a module binds at its top level, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__"))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_no_unread_module_level_name(path):
    # a name that is neither listed nor read anywhere in the library is dead code
    read = {
        node.id
        for other in LIBRARY
        for node in ast.walk(ast.parse(other.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    module = binquant if path.stem == "__init__" else importlib.import_module(f"binquant.{path.stem}")
    listed = set(getattr(module, "__all__", ()))
    tree = ast.parse(path.read_text())
    assert sorted(name for name in _module_level_names(tree) if name not in listed | read) == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_private_names_cross_modules_only_from_the_allowlist(path):
    tree = ast.parse(path.read_text())
    crossing = [
        name
        for _, name, node in _imports(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("binquant"))
        and name.startswith("_")
        and name not in SHARED_PRIVATE
    ]
    assert crossing == []
