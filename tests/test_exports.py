import ast
import inspect
import pkgutil
from importlib import import_module

import bitsense
from bitsense import biht, core, montecarlo, raic, thresholding

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
