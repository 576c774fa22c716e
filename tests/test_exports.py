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
from bitsense import _parallel, biht, core, montecarlo, raic, thresholding
from test_integers import INTEGER_INPUTS
from test_reals import REAL_INPUTS
from test_vectors import VECTOR_INPUTS

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


def _tree(owner):
    """The syntax tree of a module, or of a file given by its path."""
    return ast.parse(owner.read_text() if isinstance(owner, Path) else inspect.getsource(owner))


def _calls(module, *names, where=lambda call: True):
    """The lines of ``module`` (a module or a file's path) that call a
    function or method named one of ``names``, by bare or dotted name, and
    whose call node passes ``where``."""
    tree = _tree(module)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in names
        and where(node)
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

    walk(_tree(module), "")
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


def test_only_parallel_makes_the_pool_and_its_scratch_queue():
    # One pool and one hand-off of per-task scratch, both in the module of
    # `_parallel._map`; every other module goes through `_map`.
    makers = {m.__name__: _calls(m, "ThreadPoolExecutor", "SimpleQueue") for m in _modules()}
    assert makers.pop("bitsense._parallel") != []
    assert makers == {name: [] for name in makers}


def test_the_pools_users_are_the_ones_map_lists():
    # `_parallel._map`'s docstring names each function that calls it, in
    # parentheses, by its path in the package (its own module's without
    # one); every function that calls `_map` must be named there.
    modules = {m.__name__.removeprefix("bitsense."): m for m in _modules()}
    listed = {name if name.split(".")[0] in modules else f"_parallel.{name}"
              for name in re.findall(r"\(`([\w.]+)`\)", _parallel._map.__doc__)}
    callers = {f"{short}.{name}" for short, m in modules.items() for name in _callers(m, "_map")}
    assert callers == listed


def _int8_view_of_a_comparison(call):
    """Whether ``call`` is ``(<comparison>).view(np.int8)``: sign bits."""
    return (isinstance(getattr(call.func, "value", None), ast.Compare)
            and [ast.unparse(arg) for arg in call.args] == ["np.int8"])


def test_only_core_turns_a_comparison_into_sign_bits():
    # sgn(0) = +1 is one comparison, `core._nonnegative`; `sgn`, the
    # solver's measure, the certifier and the validators all sign through it.
    views = {m.__name__: _calls(m, "view", where=_int8_view_of_a_comparison)
             for m in _modules()}
    assert len(views.pop("bitsense.core")) == 1
    assert views == {name: [] for name in views}


def _compares_a_norm_with_one(node):
    """Whether ``node`` is a comparison in which the number 1 is an operand
    and a name or attribute with "norm" or "nrm" in it appears: a unit-norm
    check, such as ``abs(np.linalg.norm(u) - 1.0) <= tol``."""
    if not isinstance(node, ast.Compare):
        return False
    inner = list(ast.walk(node))
    operands = [node.left, *node.comparators]
    operands += [side for n in inner if isinstance(n, ast.BinOp) for side in (n.left, n.right)]
    names = [getattr(n, "id", None) or getattr(n, "attr", None) or "" for n in inner]
    return (any(isinstance(o, ast.Constant) and type(o.value) in (int, float) and o.value == 1
                for o in operands)
            and any(re.search("norm|nrm", name, re.IGNORECASE) for name in names))


def test_only_the_unit_rule_compares_a_norm_with_one():
    # A unit vector is checked by one rule and one tolerance,
    # `_inputs._unit_vector`; a signal and the pair of
    # `orthogonal_decompose` both go through it.
    checks = {m.__name__: [node.lineno for node in ast.walk(_tree(m))
                           if _compares_a_norm_with_one(node)]
              for m in _modules()}
    assert len(checks.pop("bitsense._inputs")) == 1
    assert checks == {name: [] for name in checks}


def _ctypes_lines(owner):
    """The lines of ``owner`` (a module or a file's path) that import
    ``ctypes`` or call a ``CDLL``: a binding of a shared library."""
    imports = [node.lineno for node in ast.walk(_tree(owner))
               if isinstance(node, ast.Import) and "ctypes" in [a.name for a in node.names]
               or isinstance(node, ast.ImportFrom) and node.module == "ctypes"]
    return imports + _calls(owner, "CDLL")


def test_only_parallel_binds_openblas():
    # numpy's OpenBLAS is found and bound once, in `_parallel._openblas`;
    # the package (`_one_blas_thread`, `_openblas_core`) and the tests
    # (conftest's `caller_blas`, the pins' `_on_core`) reach it through it.
    owners = {m.__name__: m for m in _modules()}
    owners.update((f"tests/{path.name}", path) for path in Path(__file__).parent.glob("*.py"))
    binds = {name: _ctypes_lines(owner) for name, owner in owners.items()}
    assert binds.pop("bitsense._parallel") != []
    assert binds == {name: [] for name in binds}


def _scipy_special_lines(owner):
    """The lines of ``owner`` (a module) that import ``scipy.special`` or
    from it: by ``import``, ``from scipy.special ... import`` or
    ``from scipy import special``."""
    def names(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and not node.level and node.module:
            return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        return []

    return [node.lineno for node in ast.walk(_tree(owner))
            if any(name == "scipy.special" or name.startswith("scipy.special.")
                   for name in names(node))]


def test_only_rng_binds_scipy_special():
    # The sampler's `ndtri` is bound once, in `rng` (`rng._load_ndtri`),
    # without running scipy.special's package import; `core` takes it from
    # `rng`.  Another import of it would bring that import back.
    binds = {m.__name__: _scipy_special_lines(m) for m in _modules()}
    assert binds.pop("bitsense.rng") != []
    assert binds == {name: [] for name in binds}


# The names of the two private leaf modules: the input rules, and the
# thread pool with the binding of numpy's OpenBLAS.
HOMES = {name: home for home, names in {
    "_inputs": ("_integer", "_real", "_vector", "_norm", "_NORM_FLOOR", "_unit_vector",
                "UNIT_NORM_TOL", "_mask_checked"),
    "_parallel": ("_worker_count", "_mark_pool_thread", "_executor", "_map", "_with_block",
                  "_forget_pool", "_openblas", "_openblas_core", "_one_blas_thread", "_pool",
                  "_pool_lock", "_on_pool", "_blas_lock", "_blas_users", "_blas_saved"),
}.items() for name in names}


def _defined(tree):
    """The names a module binds at its top level by a def, a class or an
    assignment, or in a function through ``global``."""
    names = {n for node in ast.walk(tree) if isinstance(node, ast.Global) for n in node.names}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_the_leaf_modules_import_no_other_package_module():
    # The other modules import these two, so the two import none of the
    # package's modules: no import cycle, and no sampler loaded for a pool.
    for home in sorted(set(HOMES.values())):
        imports = [ast.unparse(node) for node in ast.walk(_tree(import_module(f"bitsense.{home}")))
                   if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").split(".")[0] == "bitsense")
                   or isinstance(node, ast.Import)
                   and any(a.name.split(".")[0] == "bitsense" for a in node.names)]
        assert imports == [], home


def test_each_leaf_name_is_defined_in_its_home_alone():
    owners = {}
    for m in _modules():
        for name in _defined(_tree(m)) & set(HOMES):
            owners.setdefault(name, set()).add(m.__name__.removeprefix("bitsense."))
    assert owners == {name: {home} for name, home in HOMES.items()}


def test_each_leaf_name_is_reached_from_its_home():
    # In the package and the tests alike, by ``from <home> import`` or
    # ``<home>.<name>``: a name reached through a module that imported it
    # makes that module a second home.  `core` imports UNIT_NORM_TOL from
    # `_inputs` for the benchmark, which reads `core.UNIT_NORM_TOL`.
    owners = {m.__name__: m for m in _modules()}
    owners.update((f"tests/{path.name}", path) for path in Path(__file__).parent.glob("*.py"))
    short = {m.__name__.removeprefix("bitsense.") for m in _modules()}
    wrong = []
    for label, owner in owners.items():
        for node in ast.walk(_tree(owner)):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").rpartition(".")[2]
                wrong += [f"{label}:{node.lineno} {a.name} from {node.module}"
                          for a in node.names if a.name in HOMES and source != HOMES[a.name]]
            elif (isinstance(node, ast.Attribute) and node.attr in HOMES
                  and getattr(node.value, "id", None) in short - {HOMES[node.attr]}):
                wrong.append(f"{label}:{node.lineno} {ast.unparse(node)}")
    assert wrong == []


def _uncollected(path):
    """The tests of a test file that pytest never collects: a ``test*``
    function or ``Test*`` class defined inside a function, named with that
    function, and a test name that its scope defines again, named with the
    line of the definition the later one hides."""
    lost = []

    def walk(node, scope, in_function, seen):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope, in_function, seen)  # an `if` or `with` opens no scope
                continue
            is_class = isinstance(child, ast.ClassDef)
            if child.name.startswith("Test" if is_class else "test"):
                where = f"{path.name}:{child.lineno} {child.name}"
                if in_function:
                    lost.append(f"{where} inside {scope}")
                if child.name in seen:
                    lost.append(f"{where} hides line {seen[child.name]}")
                seen[child.name] = child.lineno
            walk(child, child.name, in_function or not is_class, {})

    walk(_tree(path), path.name, False, {})
    return lost


def test_every_test_is_collected():
    # A test indented into the function above it, or defined twice under
    # one name, passes by never running.
    lost = [name for path in sorted(Path(__file__).parent.glob("*.py"))
            for name in _uncollected(path)]
    assert lost == []


# The parameter names of a count, a size, an index or a seed field.
INTEGER_PARAMETERS = {"k", "m", "n", "count", "draws", "trials", "T", "t", "max_iters",
                      "num_pairs", "max_j", "num_small", "index", "base_seed", "stream_id"}


def _parameters(owner):
    try:
        return inspect.signature(owner).parameters
    except ValueError:  # none, as for an exception class
        return {}


# The parameter names of a real input: a step size, a resolution, an error
# target, a failure probability, a constant or a nested-root argument.
REAL_PARAMETERS = {"eta", "delta", "epsilon", "rho", "b", "w", "w0", "beta", "t_param", "a1",
                   "a2"}
# Arguments of those names that are no real input: b also names an array
# (the observed signs of the solver and of the correction map, and the
# second operand of `row_dots`), and a report's delta is the one
# `raic_certify` passed through the rule.
NOT_REAL_INPUTS = {"bitsense.biht.run_biht.b", "bitsense.raic.correction.b",
                   "bitsense.core.row_dots.b", "bitsense.raic.RaicReport.delta"}


def _taken(parameters):
    """module.name.argument for each public function or class of the
    package that takes an argument named in ``parameters``."""
    return {
        f"{owner.__module__}.{name}.{argument}"
        for m in _modules()
        for name, owner in vars(m).items()
        if not name.startswith("_") and getattr(owner, "__module__", None) == m.__name__
        and (inspect.isfunction(owner) or inspect.isclass(owner))
        for argument in _parameters(owner)
        if argument in parameters
    }


def _listed(table):
    return {f"{entry.__module__}.{entry.__name__}.{argument}" for entry, argument, _ in table}


def test_every_integer_input_is_in_the_table():
    # A public function or class that takes a count, a size, an index or a
    # seed field is listed in `tests/test_integers.py`, whose table checks
    # that it goes through `_inputs._integer`.
    taken = _taken(INTEGER_PARAMETERS)
    assert taken
    assert taken - _listed(INTEGER_INPUTS) == set()


def test_every_real_input_is_in_the_table():
    # A public function or class that takes a real input is listed in
    # `tests/test_reals.py`, whose table checks that it goes through
    # `_inputs._real`.
    taken = _taken(REAL_PARAMETERS)
    assert NOT_REAL_INPUTS <= taken
    assert taken - NOT_REAL_INPUTS - _listed(REAL_INPUTS) == set()


# The parameter names of a vector input: a signal, an iterate, a direction,
# a pair's vector or a correction.
VECTOR_PARAMETERS = {"u", "v", "x", "y", "h", "values"}
# Arguments of those names that are no vector input, each with the reason.
NOT_VECTOR_INPUTS = {
    "bitsense.core.sgn.x": "a scalar or an array of any shape, signed entry by entry",
}


def test_every_vector_input_is_in_the_table():
    # A public function or class that takes a vector input is listed in
    # `tests/test_vectors.py`, whose table checks that it goes through
    # `_inputs._vector`, or is named above with the reason it is not.
    taken = _taken(VECTOR_PARAMETERS)
    assert set(NOT_VECTOR_INPUTS) <= taken
    assert taken - set(NOT_VECTOR_INPUTS) - _listed(VECTOR_INPUTS) == set()


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


# The scipy modules each subcommand may leave loaded: `scipy.sparse`, and
# under it scipy's array-API layer, only where the certifier signs through
# the pairs' supports; scipy.special's package never, as `rng` binds its
# `ndtri` without it.
SCIPY_MODULES = ("scipy.sparse", "scipy._lib._array_api", "scipy.special")


@pytest.mark.parametrize(
    "name, loads", [("import", ()), ("run", ()), ("validate", ()), ("theory", ()),
                    ("raic", ("scipy.sparse", "scipy._lib._array_api"))],
)
def test_each_subcommand_imports_only_the_scipy_it_uses(name, loads, tmp_path):
    # `raic` imports `scipy.sparse` where its kernel first signs through
    # the pairs' supports; at module level it raised the peak RSS of the
    # workloads that never certify.  scipy.special's package import loads
    # the array-API layer too, which loads most of numpy's submodules:
    # about 15 MB of the peak RSS of `validate`, `converge` and `solve`.  A
    # fresh interpreter each, as a user's.
    code = "import sys\nimport bitsense\n"
    if SUBCOMMANDS[name] is not None:
        argv = [str(tmp_path) if a == "OUT" else a for a in SUBCOMMANDS[name]]
        code += f"from bitsense import cli\nassert cli.main({argv!r}) == 0\n"
    code += f"print([m for m in {SCIPY_MODULES!r} if m in sys.modules])\n"
    env = dict(os.environ, PYTHONPATH=str(Path(bitsense.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(list(loads))
