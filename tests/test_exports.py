import ast
import inspect
import pkgutil
from importlib import import_module

import bitsense
from bitsense import biht, core, montecarlo, raic

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


def _opens(module):
    """The lines of ``module`` that call ``open`` or a method named so."""
    tree = ast.parse(inspect.getsource(module))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) == "open")
    ]


def test_only_the_cli_opens_files():
    # The library modules return data; `cli` formats and writes every file.
    modules = [bitsense] + [
        import_module(f"bitsense.{info.name}") for info in pkgutil.iter_modules(bitsense.__path__)
    ]
    opens = {m.__name__: _opens(m) for m in modules}
    assert opens.pop("bitsense.cli") != []
    assert opens == {name: [] for name in opens}


def test_library_writers_are_gone():
    left = [f"{owner.__name__}.{name}" for owner, names in WRITERS.items()
            for name in names if hasattr(owner, name)]
    assert left == []
