"""Every integer input of the package, through its one rule.

A count, a size, an index or a seed field is checked by
`thresholding._integer`: an int or a numpy integer within its bounds, never
a bool or a float.  INTEGER_INPUTS lists each (entry, argument) with the
value just past the argument's bound; each must reject that value, 2.0 and
True with a ValueError that names the argument.  `tests/test_exports.py`
fails if a public function or class of the package takes such an argument
and is not listed here.
"""

import re

import numpy as np
import pytest

from bitsense import biht, core, montecarlo, raic, rng, theory, thresholding
from bitsense.rng import SeedSpec

SEED = SeedSpec(31)
U, V = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

# Each entry's arguments in a call that is accepted; a case replaces one.
VALID = {
    rng.SeedSpec: dict(base_seed=5, stream_id=2),
    rng.derive_seed: dict(base=SEED, index=3),
    rng._derive_rows: dict(seeds=SEED, index=3),
    rng._stream: dict(keys=np.ones(2, dtype=np.uint64), count=3, normal=True),
    rng.sample_standard_normal: dict(seed=SEED, count=3),
    rng.random_uniform_rows: dict(keys=np.ones(2, dtype=np.uint64), count=3),
    rng.sample_standard_normal_rows: dict(keys=np.ones(2, dtype=np.uint64), count=3),
    rng.sample_standard_normal_block: dict(seed=SEED, n=4, rows=range(2), columns=range(4)),
    core.dense_row_blocks: dict(m=5, n=4),
    core.dense_scratch: dict(m=5, n=4),
    core.LazyGaussianMatrix: dict(m=5, n=4, seed=SEED, scratch=None),
    core.gaussian_matrix: dict(m=5, n=4, seed=SEED),
    core.SparseUnitVector: dict(values=np.array([0.6, 0.8, 0.0]), k=2),
    core.random_sparse_unit_rows: dict(n=6, k=2, seeds=(SEED,)),
    core.random_sparse_unit: dict(n=6, k=2, seed=SEED),
    thresholding.smallest_k: dict(keys=[3.0, 1.0, 2.0], k=2),
    thresholding.top_k: dict(v=[3.0, 1.0, 2.0], k=2),
    biht.BIHTConfig: dict(k=2, max_iters=3),
    raic.raic_certify: dict(A=core.gaussian_matrix(30, 8, SEED), k=2, delta=0.1, num_pairs=4,
                            max_j=2, seed=SEED, num_small=1),
    montecarlo.mismatch_probability: dict(u=U, v=V, draws=10, seed=SEED),
    montecarlo.band_count_mean: dict(u=U, beta=0.5, m=10, trials=2, seed=SEED),
    montecarlo.projection_expectation: dict(u=U, v=V, m=10, trials=2, seed=SEED),
    montecarlo.tail_frequency_check: dict(u=U, v=V, m=10, trials=2, t_param=0.2, seed=SEED),
    montecarlo.convergence_trials: dict(n=6, k=2, m=20, trials=1, T=2, seed=SEED),
    theory.sample_complexity: dict(epsilon=0.1, rho=0.1, k=2, n=10),
    theory.epsilon_recurrence: dict(epsilon=0.1, t=3),
    theory.closed_form_bound: dict(epsilon=0.1, t=3),
    theory.nested_sqrt: dict(w=1.0, w0=1.0, t=3),
}

# (entry, argument, the value just past the argument's bound).
INTEGER_INPUTS = [
    (rng.SeedSpec, "base_seed", 2**64),
    (rng.SeedSpec, "stream_id", 2**64),
    (rng.derive_seed, "index", 2**64),
    (rng._derive_rows, "index", 2**64),
    (rng._stream, "count", -1),
    (rng.sample_standard_normal, "count", -1),
    (rng.random_uniform_rows, "count", -1),
    (rng.sample_standard_normal_rows, "count", -1),
    (rng.sample_standard_normal_block, "n", 0),
    (core.dense_row_blocks, "m", 0),
    (core.dense_row_blocks, "n", 0),
    (core.dense_scratch, "m", 0),
    (core.dense_scratch, "n", 0),
    (core.LazyGaussianMatrix, "m", 0),
    (core.LazyGaussianMatrix, "n", 0),
    (core.gaussian_matrix, "m", 0),
    (core.gaussian_matrix, "n", 0),
    (core.SparseUnitVector, "k", 0),
    (core.random_sparse_unit_rows, "n", 0),
    (core.random_sparse_unit_rows, "k", 0),
    (core.random_sparse_unit, "n", 0),
    (core.random_sparse_unit, "k", 0),
    (thresholding.smallest_k, "k", -1),
    (thresholding.top_k, "k", -1),
    (biht.BIHTConfig, "k", 0),
    (biht.BIHTConfig, "max_iters", 0),
    (raic.raic_certify, "k", 0),
    (raic.raic_certify, "num_pairs", 0),
    (raic.raic_certify, "max_j", -1),
    (raic.raic_certify, "num_small", -1),
    (montecarlo.mismatch_probability, "draws", 0),
    (montecarlo.band_count_mean, "m", 0),
    (montecarlo.band_count_mean, "trials", 0),
    (montecarlo.projection_expectation, "m", 0),
    (montecarlo.projection_expectation, "trials", 1),
    (montecarlo.tail_frequency_check, "m", 0),
    (montecarlo.tail_frequency_check, "trials", 0),
    (montecarlo.convergence_trials, "n", 0),
    (montecarlo.convergence_trials, "k", 0),
    (montecarlo.convergence_trials, "m", 0),
    (montecarlo.convergence_trials, "trials", 0),
    (montecarlo.convergence_trials, "T", 0),
    (theory.sample_complexity, "k", 0),
    (theory.sample_complexity, "n", 0),
    (theory.epsilon_recurrence, "t", -1),
    (theory.closed_form_bound, "t", -1),
    (theory.nested_sqrt, "t", -1),
]


def _name(entry):
    return f"{entry.__module__.removeprefix('bitsense.')}.{entry.__qualname__}"


@pytest.mark.parametrize("entry", list(VALID), ids=_name)
def test_the_valid_call_is_accepted(entry):
    entry(**VALID[entry])


@pytest.mark.parametrize(
    "entry, argument, value",
    [pytest.param(entry, argument, value, id=f"{_name(entry)}-{argument}-{value!r}")
     for entry, argument, past in INTEGER_INPUTS for value in (2.0, True, past)],
)
def test_integer_input_rejects_a_float_a_bool_and_the_value_past_its_bound(entry, argument,
                                                                           value):
    with pytest.raises(ValueError) as exc:
        entry(**{**VALID[entry], argument: value})
    assert re.search(rf"(?<![\w-]){argument}(?![\w-])", str(exc.value)), str(exc.value)
