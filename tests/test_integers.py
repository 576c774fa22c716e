"""Every integer input of the package, through its one rule.

A count, a size, an index or a seed field is checked by
`thresholding._integer`: an int or a numpy integer within its bounds, never
a bool or a float.  INTEGER_INPUTS lists each (entry, argument) with the
values just past the argument's bounds, the upper one too where another
argument sets it (k <= n, num_small <= num_pairs); each must reject those
values, 2.0 and True with a ValueError that names the argument.  `tests/test_exports.py`
fails if a public function or class of the package takes such an argument
and is not listed here.
"""

import pytest

from bitsense import biht, core, montecarlo, raic, rng, theory, thresholding
from input_tables import VALID, assert_rejected, entries, name

# (entry, argument, the values just past the argument's bounds: the lower
# bound or a seed field's 2^64, and the upper bound another argument sets).
INTEGER_INPUTS = [
    (rng.SeedSpec, "base_seed", (2**64,)),
    (rng.SeedSpec, "stream_id", (2**64,)),
    (rng.derive_seed, "index", (2**64,)),
    (rng._derive_rows, "index", (2**64,)),
    (rng._stream, "count", (-1,)),
    (rng.sample_standard_normal, "count", (-1,)),
    (rng.random_uniform_rows, "count", (-1,)),
    (rng.sample_standard_normal_rows, "count", (-1,)),
    (rng.sample_standard_normal_block, "n", (0,)),
    (core.dense_row_blocks, "m", (0,)),
    (core.dense_row_blocks, "n", (0,)),
    (core.dense_scratch, "m", (0,)),
    (core.dense_scratch, "n", (0,)),
    (core.LazyGaussianMatrix, "m", (0,)),
    (core.LazyGaussianMatrix, "n", (0,)),
    (core.gaussian_matrix, "m", (0,)),
    (core.gaussian_matrix, "n", (0,)),
    (core.SparseUnitVector, "k", (0, 4)),
    (core.random_sparse_unit_rows, "n", (0,)),
    (core.random_sparse_unit_rows, "k", (0, 7)),
    (core.random_sparse_unit, "n", (0,)),
    (core.random_sparse_unit, "k", (0, 7)),
    (thresholding.smallest_k, "k", (-1,)),
    (thresholding.top_k, "k", (-1, 4)),
    (biht.BIHTConfig, "k", (0,)),
    (biht.BIHTConfig, "max_iters", (0,)),
    (raic.raic_certify, "k", (0, 9)),
    (raic.raic_certify, "num_pairs", (0,)),
    (raic.raic_certify, "max_j", (-1,)),
    (raic.raic_certify, "num_small", (-1, 5)),
    (montecarlo.mismatch_probability, "draws", (0,)),
    (montecarlo.band_count_mean, "m", (0,)),
    (montecarlo.band_count_mean, "trials", (0,)),
    (montecarlo.projection_expectation, "m", (0,)),
    (montecarlo.projection_expectation, "trials", (1,)),
    (montecarlo.tail_frequency_check, "m", (0,)),
    (montecarlo.tail_frequency_check, "trials", (0,)),
    (montecarlo.convergence_trials, "n", (0,)),
    (montecarlo.convergence_trials, "k", (0,)),
    (montecarlo.convergence_trials, "m", (0,)),
    (montecarlo.convergence_trials, "trials", (0,)),
    (montecarlo.convergence_trials, "T", (0,)),
    (theory.sample_complexity, "k", (0,)),
    (theory.sample_complexity, "n", (0,)),
    (theory.epsilon_recurrence, "t", (-1,)),
    (theory.closed_form_bound, "t", (-1,)),
    (theory.nested_sqrt, "t", (-1,)),
]


@pytest.mark.parametrize("entry", entries(INTEGER_INPUTS), ids=name)
def test_the_valid_call_is_accepted(entry):
    entry(**VALID[entry])


@pytest.mark.parametrize(
    "entry, argument, value",
    [pytest.param(entry, argument, value, id=f"{name(entry)}-{argument}-{value!r}")
     for entry, argument, past in INTEGER_INPUTS for value in (2.0, True, *past)],
)
def test_integer_input_rejects_a_float_a_bool_and_the_value_past_its_bound(entry, argument,
                                                                           value):
    assert_rejected(entry, argument, value)
