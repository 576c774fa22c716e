import ast
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bitsense
from bitsense import biht, core, montecarlo, raic, rng, thresholding

REMOVED = ("angular_distance", "biht_step", "h_a_j", "raic_residual")

# The file writers the library modules had before `cli` wrote every file.
WRITERS = {
    biht: ("write_trajectory_csv",),
    montecarlo: ("write_validator_csv",),
    raic.RaicReport: ("to_csv", "to_json", "summary"),
    core: ("save_matrix_csv", "save_matrix_binary", "MATRIX_MAGIC"),
}


def test_every_export_resolves():
    missing = [name for name in bitsense.__all__ if not hasattr(bitsense, name)]
    assert missing == []
    assert len(set(bitsense.__all__)) == len(bitsense.__all__)


def test_removed_names_are_gone():
    # Each was a second public path to a value the package computes another
    # way: `run_biht` for one step, `h_a` restricted by `threshold_set`,
    # `restricted_residual` of `h_a`, and `core._pair_directions`' angle.
    assert [name for name in REMOVED if hasattr(bitsense, name)] == []
    assert not set(REMOVED) & set(bitsense.__all__)


def test_index_set_restriction_is_gone():
    # A coordinate set is a bool mask; the index-set form and the solver's
    # own restriction went when `threshold_set` took masks alone.
    assert not hasattr(thresholding, "_index_array")
    assert not hasattr(raic, "_restrict")


def _calls(module, *names):
    """The lines of ``module`` that call a function or method named one of
    ``names``, by bare or dotted name."""
    tree = ast.parse(inspect.getsource(module))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in names
    ]


def _callers(module, *names):
    """The qualified names of the functions of ``module`` that call one of
    ``names``: for each line of `_calls`, the innermost def around it."""
    defs = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{prefix}{child.name}."
                if not isinstance(child, ast.ClassDef):
                    defs.append((child.lineno, child.end_lineno, inner[:-1]))
            walk(child, inner)

    walk(ast.parse(inspect.getsource(module)), "")
    return {max((lo, name) for lo, hi, name in defs if lo <= line <= hi)[1]
            for line in _calls(module, *names)}


def _modules():
    return [bitsense] + [
        import_module(f"bitsense.{info.name}") for info in pkgutil.iter_modules(bitsense.__path__)
    ]


def test_only_the_cli_opens_files():
    # The library modules return data; `cli` formats and writes every file.
    opens = {m.__name__: _calls(m, "open") for m in _modules()}
    assert opens.pop("bitsense.cli") != []
    assert opens == {name: [] for name in opens}


def test_library_writers_are_gone():
    left = [f"{owner.__name__}.{name}" for owner, names in WRITERS.items()
            for name in names if hasattr(owner, name)]
    assert left == []


def test_only_the_sampler_makes_the_pool_and_its_scratch_queue():
    # One pool and one hand-off of per-task scratch, both in `rng._map`'s
    # module; every other module goes through `_map`.
    makers = {m.__name__: _calls(m, "ThreadPoolExecutor", "SimpleQueue") for m in _modules()}
    assert makers.pop("bitsense.rng") != []
    assert makers == {name: [] for name in makers}


def test_the_pools_users_are_the_ones_map_lists():
    # `rng._map`'s docstring names each function that calls it, in
    # parentheses, by its path in the package (its own module's without
    # one); every function that calls `_map` must be named there.
    modules = {m.__name__.removeprefix("bitsense."): m for m in _modules()}
    listed = {name if name.split(".")[0] in modules else f"rng.{name}"
              for name in re.findall(r"\(`([\w.]+)`\)", rng._map.__doc__)}
    callers = {f"{short}.{name}" for short, m in modules.items() for name in _callers(m, "_map")}
    assert callers == listed


# Each subcommand at small sizes, OUT its output directory; None is a bare
# ``import bitsense``.
SUBCOMMANDS = {
    "import": None,
    "run": ["run", "--n", "20", "--k", "2", "--m", "200", "--trials", "2", "--iters", "3",
            "--output-dir", "OUT"],
    "validate": ["validate", "--output-dir", "OUT"],
    "theory": ["theory"],
    "raic": ["raic", "--n", "40", "--k", "2", "--m", "200", "--pairs", "10", "--small-pairs", "2",
             "--output-dir", "OUT"],
}


@pytest.mark.parametrize(
    "name, loads", [("import", False), ("run", False), ("validate", False), ("theory", False),
                    ("raic", True)],
)
def test_only_the_certifier_imports_scipy_sparse(name, loads, tmp_path):
    # `raic` imports `scipy.sparse` where its kernel first signs through
    # the pairs' supports; at module level it raised the peak RSS of the
    # workloads that never certify.  A fresh interpreter each, as a user's.
    code = "import sys\nimport bitsense\n"
    if SUBCOMMANDS[name] is not None:
        argv = [str(tmp_path) if a == "OUT" else a for a in SUBCOMMANDS[name]]
        code += f"from bitsense import cli\nassert cli.main({argv!r}) == 0\n"
    code += "print('scipy.sparse' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(bitsense.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == str(loads)
