import math

import pytest

from bitsense.theory import (
    UniversalConstants,
    closed_form_bound,
    constants,
    contraction_condition_holds,
    derived_constants,
    epsilon_recurrence,
    nested_sqrt,
    nested_sqrt_limit,
    recurrence_fixed_point,
    sample_complexity,
)

# Reference values for c1, c2 at b = 379.1038, evaluated independently to
# full double precision:
#   c1 = sqrt(3 pi / b) (1 + 16 sqrt(2) / 3)
#   c2 = (3 / b) (1 + 4 pi / 3 + 8 sqrt(3 pi) / 3 + 8 sqrt(6 pi))
C1_REFERENCE = 1.346914647272732
C2_REFERENCE = 0.38069993564154575

EPS_GRID = [i / 100 for i in range(1, 100)]


class TestConstants:
    def test_constants_are_not_settable(self):
        # A c1 set apart from b disagreed with `derived_constants(b)`.
        assert UniversalConstants() == constants()
        for name in ("a", "b", "c", "c1", "c2"):
            with pytest.raises(TypeError):
                UniversalConstants(**{name: 2.0})

    def test_integer_constants(self):
        u = constants()
        assert u.a == 16.0
        assert u.c == 32.0
        assert u.b == 379.1038

    def test_c1_c2_reference_values(self):
        u = constants()
        assert u.c1 == pytest.approx(C1_REFERENCE, abs=1e-12)
        assert u.c2 == pytest.approx(C2_REFERENCE, abs=1e-12)

    def test_recompute_from_b_matches_stored(self):
        u = constants()
        c1, c2 = derived_constants(u.b)
        assert abs(c1 - u.c1) <= 1e-12
        assert abs(c2 - u.c2) <= 1e-12


class TestSampleComplexity:
    def test_halving_epsilon_needs_more_measurements(self):
        assert sample_complexity(0.05, 0.1, 5, 1000) > sample_complexity(0.1, 0.1, 5, 1000)

    def test_monotone_in_k_and_confidence(self):
        assert sample_complexity(0.1, 0.1, 6, 1000) > sample_complexity(0.1, 0.1, 5, 1000)
        assert sample_complexity(0.1, 0.05, 5, 1000) > sample_complexity(0.1, 0.1, 5, 1000)

    def test_spot_value_dual_evaluation(self):
        # Independent in-test evaluation of the same closed form.
        eps, rho, k, n = 0.1, 0.1, 5, 1000
        b, c, a = 379.1038, 32.0, 16.0
        expected = math.ceil(
            (4 * b * c * k / eps) * math.log(math.e * n / k)
            + (2 * b * c * k / eps) * math.log(12 * b * c / eps)
            + (b * c / eps) * math.log(a / rho)
        )
        assert sample_complexity(eps, rho, k, n) == expected == 33112673

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            sample_complexity(0.0, 0.1, 5, 100)
        with pytest.raises(ValueError):
            sample_complexity(0.1, 1.0, 5, 100)
        with pytest.raises(ValueError):
            sample_complexity(0.1, 0.1, 100, 100)

    @pytest.mark.parametrize("epsilon, rho", [(1e-305, 0.1), (5e-324, 0.1), (0.1, 5e-324)])
    def test_overflowing_count_rejected(self, epsilon, rho):
        # The count is inf in float64; int(ceil(inf)) raised OverflowError.
        with pytest.raises(ValueError, match="epsilon") as exc:
            sample_complexity(epsilon, rho, 5, 1000)
        assert repr(epsilon) in str(exc.value) and "rho" in str(exc.value)

    def test_smallest_epsilon_that_fits(self):
        assert sample_complexity(1e-300, 0.1, 5, 1000) > 10**305


class TestRecurrence:
    def test_starts_at_two(self):
        for eps in (0.01, 0.5, 0.99):
            assert epsilon_recurrence(eps, 0) == 2.0

    def test_strictly_decreasing_before_float_plateau(self):
        # The recurrence contracts geometrically, so float64 iterates become
        # exactly constant once they reach the representable fixed point
        # (around t = 50); strict decrease is required before that and
        # non-increase always.
        for eps in EPS_GRID:
            limit = recurrence_fixed_point(eps)
            prev = epsilon_recurrence(eps, 0)
            for t in range(1, 61):
                cur = epsilon_recurrence(eps, t)
                assert cur <= prev
                if prev > limit * (1.0 + 1e-12):
                    assert cur < prev
                prev = cur

    def test_dominated_by_closed_form(self):
        for eps in EPS_GRID:
            for t in range(61):
                assert epsilon_recurrence(eps, t) <= closed_form_bound(eps, t) + 1e-12

    def test_consecutive_gaps_shrink(self):
        for eps in (0.05, 0.4, 0.9):
            gaps = [
                abs(epsilon_recurrence(eps, t + 1) - epsilon_recurrence(eps, t))
                for t in range(12)
            ]
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            epsilon_recurrence(1.0, 3)
        with pytest.raises(ValueError):
            epsilon_recurrence(0.5, -1)


class TestClosedFormBound:
    def test_t_zero_is_two(self):
        assert closed_form_bound(0.37, 0) == 2.0

    def test_one_step_is_sqrt_two_eps(self):
        for eps in (0.04, 0.25, 0.81):
            assert closed_form_bound(eps, 1) == pytest.approx(math.sqrt(2 * eps), rel=1e-14)

    def test_limit_is_epsilon(self):
        assert closed_form_bound(0.3, 500) == pytest.approx(0.3, rel=1e-12)

    def test_table_tail_close_to_epsilon(self):
        # At t = 20 the envelope sits above epsilon by exactly
        # eps (exp(2^-20 ln(2/eps)) - 1), about 2e-6 relative at eps = 0.25.
        eps = 0.25
        exact_excess = eps * (math.exp(2.0**-20 * math.log(2.0 / eps)) - 1.0)
        diff = closed_form_bound(eps, 20) - eps
        assert diff == pytest.approx(exact_excess, rel=1e-9)
        assert diff <= 2e-6 * eps


class TestFixedPoint:
    def test_below_epsilon_on_grid(self):
        for eps in EPS_GRID:
            assert recurrence_fixed_point(eps) < eps

    def test_recurrence_converges_to_it(self):
        for eps in (0.01, 0.17, 0.5, 0.99):
            assert abs(epsilon_recurrence(eps, 200) - recurrence_fixed_point(eps)) <= 1e-9

    def test_linear_in_epsilon(self):
        base = recurrence_fixed_point(0.2)
        assert recurrence_fixed_point(0.4) == pytest.approx(2 * base, rel=1e-12)
        assert recurrence_fixed_point(0.1) == pytest.approx(base / 2, rel=1e-12)


class TestContractionCondition:
    def test_holds_at_reference_b(self):
        assert all(contraction_condition_holds(eps, 379.1038) for eps in EPS_GRID)

    def test_fails_at_b_100(self):
        assert not all(contraction_condition_holds(eps, 100.0) for eps in EPS_GRID)


class TestNestedSqrt:
    def test_constant_at_fixed_point(self):
        w = 1.7
        u = nested_sqrt_limit(w)
        for t in (1, 5, 50):
            assert nested_sqrt(w, u, t) == pytest.approx(u, abs=1e-12)

    def test_known_limit(self):
        # w = 2: the fixed point of sqrt(2 + x) is 2.
        assert nested_sqrt_limit(2.0) == 2.0
        assert nested_sqrt(2.0, 3.0, 200) == pytest.approx(2.0, abs=1e-12)

    def test_converges_from_both_sides(self):
        for w, w0 in ((0.3, 5.0), (0.3, 0.1), (4.2, 9.0), (4.2, 0.5)):
            u = nested_sqrt_limit(w)
            assert abs(nested_sqrt(w, w0, 500) - u) <= 1e-10

    def test_monotone_direction(self):
        w = 1.1
        u = nested_sqrt_limit(w)
        decreasing = [nested_sqrt(w, u + 1.0, t) for t in range(6)]
        increasing = [nested_sqrt(w, u - 0.5, t) for t in range(6)]
        assert all(b < a for a, b in zip(decreasing, decreasing[1:]))
        assert all(b > a for a, b in zip(increasing, increasing[1:]))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            nested_sqrt(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            nested_sqrt(1.0, -1.0, 3)
