"""Every vector input of the package, through its one rule.

A signal, an iterate, a direction, a pair's vector or a correction is
checked by `thresholding._vector`: a list, a tuple or an integer or
floating array, one-dimensional (or, for a stack, 2-d, one vector a row),
every entry finite, and of a fixed length or shape where another argument
sets it.  VECTOR_INPUTS lists each (entry, argument) and whether its length
is fixed; an entry whose accepted value is 2-d takes a stack.  Each must
reject NaN, +inf and -inf inside an otherwise valid value, a scalar, an
array of one axis more (2-d, or 3-d for a stack), a bool array, a complex
array, a list of strings and, where the length is fixed, a vector one entry
short (a stack one row short), with a ValueError that names the argument.
`tests/test_exports.py` fails if a public function or class of the
package takes such an argument and is not listed here.

A unit vector (a signal's values, the pair of `orthogonal_decompose`) is
checked by `thresholding._unit_vector`: `_vector`, then a norm within
`UNIT_NORM_TOL` of 1.  UNIT_INPUTS lists each; each must reject norms
1 +- 2e-9, a vector of entries 1e200, one of norm 1e-200 and the zero
vector with a ValueError that names the argument.
"""

import math
import re

import numpy as np
import pytest

from bitsense import core, montecarlo, raic, thresholding
from bitsense.core import MeasurementMatrix, gaussian_matrix
from bitsense.rng import SeedSpec, sample_standard_normal
from bitsense.thresholding import UNIT_NORM_TOL, _unit_vector, _vector
from input_tables import VALID, assert_rejected, entries, name

# (entry, argument, whether another argument fixes its length).
VECTOR_INPUTS = [
    (core.SparseUnitVector, "values", False),
    (core.sign_measure, "x", True),
    (core.sphere_distance, "u", False),
    (core.sphere_distance, "v", True),
    (thresholding.top_k, "v", False),
    (thresholding.normalize, "v", False),
    (thresholding.threshold_set, "v", False),
    (raic.h_a, "x", True),
    (raic.h_a, "y", True),
    (raic.orthogonal_decompose, "h", False),
    (raic.orthogonal_decompose, "u", True),
    (raic.orthogonal_decompose, "v", True),
    (raic.restricted_residual, "h", False),
    (raic.restricted_residual, "x", True),
    (raic.restricted_residual, "y", True),
    (montecarlo.mismatch_probability, "u", False),
    (montecarlo.mismatch_probability, "v", True),
    (montecarlo.band_count_mean, "u", False),
    (montecarlo.projection_expectation, "u", False),
    (montecarlo.projection_expectation, "v", True),
    (montecarlo.tail_frequency_check, "u", False),
    (montecarlo.tail_frequency_check, "v", True),
]


def _with(vector, index, value):
    out = np.array(vector, dtype=np.float64)
    out[index] = value
    return out


# Each case: its id and the rejected value made from the valid vector.
NOT_VECTORS = [
    ("nan", lambda w: _with(w, 0, math.nan)),
    ("inf", lambda w: _with(w, -1, math.inf)),
    ("-inf", lambda w: _with(w, 0, -math.inf)),
    ("scalar", lambda w: float(np.ravel(w)[0])),
    ("2-d", lambda w: np.asarray(w, dtype=np.float64)[None]),
    ("bool", lambda w: np.asarray(w) != 0.0),
    ("complex", lambda w: np.asarray(w, dtype=np.complex128)),
    ("strings", lambda w: [str(x) for x in w]),
]
ONE_SHORT = ("one short", lambda w: np.asarray(w, dtype=np.float64)[:-1])
# The ids of the cases that differ for a stack, whose valid value is 2-d.
STACK_CASES = {"2-d": "3-d", "one short": "one row short"}


def _cases():
    for entry, argument, fixed in VECTOR_INPUTS:
        stack = np.ndim(VALID[entry][argument]) == 2
        for case, make in NOT_VECTORS + [ONE_SHORT] * fixed:
            case = STACK_CASES.get(case, case) if stack else case
            yield pytest.param(entry, argument, make,
                               id=f"{name(entry)}-{argument}-{case}")


@pytest.mark.parametrize("entry", entries(VECTOR_INPUTS), ids=name)
def test_the_valid_call_is_accepted(entry):
    entry(**VALID[entry])


@pytest.mark.parametrize("entry, argument, make", list(_cases()))
def test_vector_input_rejects_what_is_not_a_finite_vector_of_its_length(entry, argument, make):
    assert_rejected(entry, argument, make(VALID[entry][argument]))


@pytest.mark.parametrize(
    "value", [[1, 2], (1.0, 2.0), np.array([1, 2], dtype=np.int8),
              np.array([1, 2], dtype=np.uint64), np.array([1.0, 2.0], dtype=np.float32)],
    ids=["list", "tuple", "int8", "uint64", "float32"])
def test_the_rule_returns_float64(value):
    got = _vector(value, "x", 2)
    assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0]


def test_the_rule_does_not_copy_a_float64_array():
    a = np.array([1.0, 2.0])
    assert _vector(a, "x") is a


@pytest.mark.parametrize(
    "value, message",
    [(1.0, "x must be a one-dimensional array of real numbers, got an object of type float"),
     ([[1.0], [1.0, 2.0]], "x must be a one-dimensional array of real numbers, got a ragged "
                           "list"),
     ([1.0, None], "x must be a one-dimensional array of real numbers, got an array of "
                   "dtype object and shape (2,)"),
     (np.ones((2, 1)), "x must be a one-dimensional array of real numbers, got an array of "
                       "dtype float64 and shape (2, 1)"),
     ([1.0, 2.0, 3.0], "x has length 3, expected 2"),
     ([math.nan, 1.0], "x must be finite")],
    ids=["scalar", "ragged", "object", "column", "long", "nan"],
)
def test_the_rule_names_the_argument_and_the_fault(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _vector(value, "x", 2)


@pytest.mark.parametrize(
    "value, n, message",
    [(np.ones((2, 2, 3)), None, "h must be a one-dimensional array of real numbers or a 2-d "
                                "stack of them, got an array of dtype float64 and shape (2, 2, 3)"),
     (np.ones((3, 3)), (2, 3), "h has shape (3, 3), expected (2, 3)"),
     (np.ones(3), (2, 3), "h has shape (3,), expected (2, 3)"),
     (np.ones((2, 4)), 3, "h has length 4, expected 3")],
    ids=["3-d", "one row more", "one vector", "rows too long"],
)
def test_the_stack_form_names_the_argument_and_the_fault(value, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _vector(value, "h", n, stack=True)


@pytest.mark.parametrize("value", [np.ones(3), np.ones((2, 3))], ids=["vector", "stack"])
def test_the_stack_form_takes_a_vector_or_a_stack_uncopied(value):
    assert _vector(value, "h", value.shape, stack=True) is value


# (entry, argument) of each unit vector input.
UNIT_INPUTS = [
    (core.SparseUnitVector, "values"),
    (raic.orthogonal_decompose, "u"),
    (raic.orthogonal_decompose, "v"),
]

# Each case: its id and the rejected value made from the valid unit vector.
NOT_UNIT = [
    ("norm 1 + 2e-9", lambda w: np.asarray(w) * (1.0 + 2e-9)),
    ("norm 1 - 2e-9", lambda w: np.asarray(w) * (1.0 - 2e-9)),
    # Its sum of squares overflows: a norm by `np.linalg.norm` warned, an
    # error under the suite's warning filter, before the check was reached.
    ("entries 1e200", lambda w: _with(np.zeros(len(w)), [0, 1], 1e200)),
    ("norm 1e-200", lambda w: _with(np.zeros(len(w)), 0, 1e-200)),
    ("zero", lambda w: np.zeros(len(w))),
]


@pytest.mark.parametrize(
    "entry, argument, make",
    [pytest.param(entry, argument, make, id=f"{name(entry)}-{argument}-{case}")
     for entry, argument in UNIT_INPUTS for case, make in NOT_UNIT],
)
def test_unit_input_rejects_a_norm_off_one(entry, argument, make):
    assert_rejected(entry, argument, make(VALID[entry][argument]))


@pytest.mark.parametrize("scale", [1.0 - UNIT_NORM_TOL / 2, 1.0 + UNIT_NORM_TOL / 2])
def test_the_unit_rule_accepts_a_norm_within_its_tolerance(scale):
    a = np.array([0.6, 0.8]) * scale
    assert _unit_vector(a, "u", 2) is a


@pytest.mark.parametrize(
    "value, message",
    [([2.0, 0.0], "u must be a unit vector, got one of norm 2.0"),
     ([0.0, 0.0], "u must be a unit vector, got one of norm 0.0"),
     ([1e-310, 0.0], "u has a norm outside float64's normal range"),
     ([1.0], "u has length 1, expected 2")],
    ids=["norm 2", "zero", "subnormal", "short"],
)
def test_the_unit_rule_names_the_argument_and_the_fault(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _unit_vector(value, "u", 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 599], ids=["first row", "last row"])
def test_a_matrix_rejects_a_non_finite_entry(bad, row):
    # Checked a row block at a time: 600 rows of 1000 are two blocks.
    values = np.zeros((600, 1000))
    values[row, 999] = bad
    with pytest.raises(ValueError, match="^entries must be finite$"):
        MeasurementMatrix(values)


def test_a_gaussian_matrix_keeps_its_sample_uncopied(monkeypatch):
    drawn = []

    def sample(*args):
        drawn.append(sample_standard_normal(*args))
        return drawn[-1]

    monkeypatch.setattr(core, "sample_standard_normal", sample)
    assert gaussian_matrix(5, 4, SeedSpec(3)).entries is drawn[0]
