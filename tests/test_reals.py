"""Every real input of the package, through its one rule.

A step size, a resolution, an error target, a failure probability, a
constant or a nested-root argument is checked by `_inputs._real`: an
int, a float, a numpy integer or a numpy floating, finite and within the
argument's interval, never a bool, a string, an array or a complex.
REAL_INPUTS lists each (entry, argument) with its values at an open bound
or just past a closed one; each must reject those, NaN, +-inf, True, the
string "0.5", a one-element array and an int too large for a float with a
ValueError that names the argument.  `tests/test_exports.py` fails if a
public function or class of the package takes such an argument and is not
listed here.
"""

import math
import re

import numpy as np
import pytest

from bitsense import biht, montecarlo, raic, rng, theory
from bitsense._inputs import _real
from input_tables import VALID, assert_rejected, entries, name

BELOW_ZERO = -5e-324  # the float just past the closed bound 0

# (entry, argument, its values at an open bound or just past a closed one).
REAL_INPUTS = [
    (biht.BIHTConfig, "eta", (0,)),
    (raic.correction, "eta", (0,)),
    (montecarlo.convergence_trials, "eta", (0,)),
    (raic.raic_certify, "delta", (0, 1)),
    (raic.raic_bound, "delta", (BELOW_ZERO,)),
    (raic.raic_bound, "a1", (BELOW_ZERO,)),
    (raic.raic_bound, "a2", (BELOW_ZERO,)),
    (montecarlo.band_count_mean, "beta", (BELOW_ZERO, math.nextafter(math.pi / 2.0, 2.0))),
    (montecarlo.tail_frequency_check, "t_param", (0,)),
    (theory.sample_complexity, "epsilon", (0, 1)),
    (theory.sample_complexity, "rho", (0, 1)),
    (theory.epsilon_recurrence, "epsilon", (0, 1)),
    (theory.closed_form_bound, "epsilon", (0, 1)),
    (theory.recurrence_fixed_point, "epsilon", (0, 1)),
    (theory.contraction_condition_holds, "epsilon", (0, 1)),
    (theory.contraction_condition_holds, "b", (0,)),
    (theory.derived_constants, "b", (0,)),
    (theory.nested_sqrt, "w", (0,)),
    (theory.nested_sqrt, "w0", (0,)),
    (theory.nested_sqrt_limit, "w", (0,)),
]

HUGE = 10**400  # an int past float64's range
# Rejected by every real input: not finite, not a real number, or too large.
NOT_REAL = [math.nan, math.inf, -math.inf, True, "0.5", np.array([0.5]), HUGE]

# The closed bounds, each accepted.
AT_CLOSED_BOUND = [
    (raic.raic_bound, "delta", 0.0),
    (raic.raic_bound, "a1", 0.0),
    (raic.raic_bound, "a2", 0.0),
    (montecarlo.band_count_mean, "beta", 0.0),
    (montecarlo.band_count_mean, "beta", math.pi / 2.0),
]


def _shown(value):
    return "10**400" if value is HUGE else repr(value)


@pytest.mark.parametrize("entry", entries(REAL_INPUTS), ids=name)
def test_the_valid_call_is_accepted(entry):
    entry(**VALID[entry])


@pytest.mark.parametrize(
    "entry, argument, value",
    [pytest.param(entry, argument, value, id=f"{name(entry)}-{argument}-{_shown(value)}")
     for entry, argument, outside in REAL_INPUTS for value in NOT_REAL + list(outside)],
)
def test_real_input_rejects_what_is_not_a_finite_number_in_its_interval(entry, argument, value):
    assert_rejected(entry, argument, value)


@pytest.mark.parametrize("entry, argument, value", AT_CLOSED_BOUND,
                         ids=[f"{name(e)}-{a}-{v!r}" for e, a, v in AT_CLOSED_BOUND])
def test_a_closed_bound_is_accepted(entry, argument, value):
    entry(**{**VALID[entry], argument: value})


@pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), 2.0, np.float64(2.0)],
                         ids=["int", "int64", "float32", "float", "float64"])
def test_the_rule_returns_a_float(value):
    got = _real(value, "x", 0, math.inf)
    assert type(got) is float and got == 2.0


@pytest.mark.parametrize(
    "value, closed, message",
    [(0, False, "x must be a finite number in (0, inf), got 0"),
     (math.nan, True, "x must be a finite number in [0, inf), got nan"),
     (np.float64(-1.0), True, "x must be a finite number in [0, inf), got np.float64(-1.0)"),
     ("1", False, "x must be a finite number in (0, inf), got '1'"),
     (1j, False, "x must be a finite number in (0, inf), got 1j"),
     (10**400, False, "x must be a finite number in (0, inf), got an integer too large for "
                      "a float")],
)
def test_the_rule_names_the_argument_its_interval_and_the_value(value, closed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _real(value, "x", 0, math.inf, closed=closed)


@pytest.fixture
def no_draws(monkeypatch):
    """The sampler raises if it is reached."""
    def drawn(*args, **kwargs):
        raise AssertionError("the sampler was reached")

    monkeypatch.setattr(rng, "_stream", drawn)


def test_trials_check_eta_before_any_draw(no_draws):
    # eta used to be checked in each trial, after it had drawn its signal.
    with pytest.raises(ValueError, match=r"^eta must be a finite number in \(0, inf\), got nan$"):
        montecarlo.convergence_trials(**{**VALID[montecarlo.convergence_trials], "eta": math.nan})


def test_certify_checks_delta_before_any_draw(no_draws):
    # An array delta used to run every pair and fail in `raic_bound`.
    with pytest.raises(ValueError, match=r"^delta must be a finite number in \(0, 1\), got "):
        raic.raic_certify(**{**VALID[raic.raic_certify], "delta": np.array([0.01])})
