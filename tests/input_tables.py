"""What the input tables share: one accepted call per entry and the check
of a rejection.

`tests/test_integers.py`, `tests/test_reals.py` and `tests/test_vectors.py`
each list (entry, argument) pairs of the package.  A case replaces one
argument of the entry's call in VALID with a value the argument's rule
must reject, and `assert_rejected` checks that the entry raises a
ValueError that names the argument.
"""

import re

import numpy as np
import pytest

from bitsense import biht, core, montecarlo, raic, rng, theory, thresholding
from bitsense.rng import SeedSpec

SEED = SeedSpec(31)
U, V = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
A = core.gaussian_matrix(30, 8, SEED)
B = np.where(np.arange(30) < 3, -1, 1).astype(np.int8)  # three rows differ from S
S = np.ones(30, dtype=np.int8)
KEYS = np.ones(2, dtype=np.uint64)

# Each entry's arguments in a call that is accepted.
VALID = {
    rng.SeedSpec: dict(base_seed=5, stream_id=2),
    rng.derive_seed: dict(base=SEED, index=3),
    rng._derive_rows: dict(seeds=SEED, index=3),
    rng._stream: dict(keys=KEYS, count=3, normal=True),
    rng.sample_standard_normal: dict(seed=SEED, count=3),
    rng.random_uniform_rows: dict(keys=KEYS, count=3),
    rng.sample_standard_normal_rows: dict(keys=KEYS, count=3),
    rng.sample_standard_normal_block: dict(seed=SEED, n=4, rows=range(2), columns=range(4)),
    core.dense_row_blocks: dict(m=5, n=4),
    core.DeferredGaussianMatrix: dict(m=5, n=4, seed=SEED),
    core.gaussian_matrix: dict(m=5, n=4, seed=SEED),
    core.SparseUnitVector: dict(values=np.array([0.6, 0.8, 0.0]), k=2),
    core.random_sparse_unit_rows: dict(n=6, k=2, seeds=(SEED,)),
    core.random_sparse_unit: dict(n=6, k=2, seed=SEED),
    core.sign_measure: dict(A=A, x=np.eye(8)[0]),
    core.sphere_distance: dict(u=U, v=V),
    thresholding.smallest_k: dict(keys=[3.0, 1.0, 2.0], k=2),
    thresholding.top_k: dict(v=[3.0, 1.0, 2.0], k=2),
    thresholding.normalize: dict(v=[3.0, 4.0]),
    thresholding.threshold_set: dict(v=np.ones((2, 3)), J=np.eye(3, dtype=bool)[:2]),
    biht.BIHTConfig: dict(k=2, max_iters=3, eta=1.0),
    raic.correction: dict(A=A, b=B, s=S, eta=1.0),
    raic.h_a: dict(A=A, x=np.eye(8)[0], y=np.eye(8)[1]),
    raic.orthogonal_decompose: dict(h=np.ones((2, 3)), u=U, v=V),
    raic.restricted_residual: dict(x=np.eye(3)[:2], y=np.eye(3)[1:], J=np.zeros((2, 3), dtype=bool),
                                   h=np.ones((2, 3))),
    raic.raic_certify: dict(A=A, k=2, delta=0.1, num_pairs=4, max_j=2, seed=SEED, num_small=1),
    raic.raic_bound: dict(delta=0.1, a1=1.0, a2=1.0, d_s=0.5),
    montecarlo.mismatch_probability: dict(u=U, v=V, draws=10, seed=SEED),
    montecarlo.band_count_mean: dict(u=U, beta=0.5, m=10, trials=2, seed=SEED),
    montecarlo.projection_expectation: dict(u=U, v=V, m=10, trials=2, seed=SEED),
    montecarlo.tail_frequency_check: dict(u=U, v=V, m=10, trials=2, t_param=0.2, seed=SEED),
    montecarlo.convergence_trials: dict(n=6, k=2, m=20, trials=1, T=2, seed=SEED, eta=1.0),
    theory.sample_complexity: dict(epsilon=0.1, rho=0.1, k=2, n=10),
    theory.epsilon_recurrence: dict(epsilon=0.1, t=3),
    theory.closed_form_bound: dict(epsilon=0.1, t=3),
    theory.recurrence_fixed_point: dict(epsilon=0.1),
    theory.contraction_condition_holds: dict(epsilon=0.1, b=400.0),
    theory.derived_constants: dict(b=400.0),
    theory.nested_sqrt: dict(w=1.0, w0=1.0, t=3),
    theory.nested_sqrt_limit: dict(w=1.0),
}


def name(entry):
    """An entry as a test id: its module, without the package, and its name."""
    return f"{entry.__module__.removeprefix('bitsense.')}.{entry.__qualname__}"


def entries(table):
    """The entries of a table of (entry, argument, ...) rows, each once."""
    return list(dict.fromkeys(entry for entry, *_ in table))


def assert_rejected(entry, argument, value):
    """The entry's valid call, with ``argument`` set to ``value``, raises a
    ValueError whose message names the argument as a word of its own."""
    with pytest.raises(ValueError) as exc:
        entry(**{**VALID[entry], argument: value})
    assert re.search(rf"(?<![\w-]){argument}(?![\w-])", str(exc.value)), str(exc.value)
