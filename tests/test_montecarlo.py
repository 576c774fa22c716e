import math

import numpy as np
import pytest

from bitsense.montecarlo import (
    band_count_mean,
    convergence_experiment,
    mismatch_probability,
    projection_expectation,
    run_validator_suite,
    tail_frequency_check,
    write_validator_csv,
)
from bitsense.rng import SeedSpec
from bitsense.theory import closed_form_bound


def pair_at_angle(theta, n=8):
    u = np.zeros(n)
    v = np.zeros(n)
    u[0] = 1.0
    v[0] = math.cos(theta)
    v[1] = math.sin(theta)
    return u, v


class TestMismatchProbability:
    def test_identical_vectors_never_mismatch(self):
        u = np.array([0.6, 0.8, 0.0])
        assert mismatch_probability(u, u, 2000, SeedSpec(500)) == 0.0

    def test_orthogonal_pair_half(self):
        u, v = pair_at_angle(math.pi / 2)
        est = mismatch_probability(u, v, 100_000, SeedSpec(501))
        assert abs(est - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)

    def test_sixty_degree_pair_one_third(self):
        u, v = pair_at_angle(math.pi / 3)  # <u, v> = 1/2
        p = 1.0 / 3.0
        est = mismatch_probability(u, v, 100_000, SeedSpec(502))
        assert abs(est - p) <= 3.0 * math.sqrt(p * (1 - p) / 100_000)

    def test_symmetric_in_pair(self):
        u, v = pair_at_angle(1.0)
        assert mismatch_probability(u, v, 5000, SeedSpec(503)) == (
            mismatch_probability(v, u, 5000, SeedSpec(503))
        )

    def test_deterministic_under_seed(self):
        u, v = pair_at_angle(0.7)
        a = mismatch_probability(u, v, 20_000, SeedSpec(504))
        b = mismatch_probability(u, v, 20_000, SeedSpec(504))
        assert a == b

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            mismatch_probability(np.zeros(3), np.ones(3), 10, SeedSpec(1))


class TestBandCount:
    def test_zero_width_band_is_empty(self):
        stats = band_count_mean(np.array([1.0, 0.0]), 0.0, 300, 4, SeedSpec(510))
        assert stats.mean == 0.0

    def test_full_band_captures_everything(self):
        stats = band_count_mean(np.array([1.0, 0.0]), math.pi / 2, 300, 4, SeedSpec(511))
        assert stats.mean == 300.0

    def test_planar_expectation(self):
        stats = band_count_mean(np.array([1.0, 0.0]), math.pi / 6, 1000, 100, SeedSpec(512))
        se = stats.sample_sd / math.sqrt(100)
        assert abs(stats.mean - stats.expected) <= 3.0 * se
        assert stats.expected == pytest.approx(2 * (math.pi / 6) * 1000 / math.pi)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            band_count_mean(np.array([1.0, 0.0]), 2.0, 10, 2, SeedSpec(1))


class TestProjectionExpectation:
    def test_orthogonal_pair(self):
        u, v = pair_at_angle(math.pi / 2, n=16)
        stats = projection_expectation(u, v, 200, 3000, SeedSpec(520))
        assert stats.d_s == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(stats.mean_minus - math.sqrt(2.0)) <= 4.0 * stats.se_minus
        assert abs(stats.mean_plus) <= 4.0 * stats.se_plus

    def test_closer_pair(self):
        u, v = pair_at_angle(math.pi / 3, n=12)
        stats = projection_expectation(u, v, 150, 3000, SeedSpec(521))
        assert abs(stats.mean_minus - 1.0) <= 4.0 * stats.se_minus  # ||u-v|| = 1

    def test_degenerate_pair_rejected(self):
        u = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            projection_expectation(u, u, 10, 5, SeedSpec(1))

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        # Sampling is offset-addressed, so materializing the stream in tiny
        # blocks must reproduce the one-shot values bit for bit.
        import bitsense.montecarlo as mc

        u, v = pair_at_angle(1.0, n=6)
        whole = projection_expectation(u, v, 40, 50, SeedSpec(560))
        monkeypatch.setattr(mc, "_CHUNK_ELEMS", 512)
        chunked = projection_expectation(u, v, 40, 50, SeedSpec(560))
        assert chunked == whole
        est_whole = mismatch_probability(u, v, 5000, SeedSpec(561))
        monkeypatch.setattr(mc, "_CHUNK_ELEMS", 64)
        assert mismatch_probability(u, v, 5000, SeedSpec(561)) == est_whole


class TestTailFrequency:
    def test_huge_threshold_never_exceeded(self):
        u, v = pair_at_angle(1.1, n=10)
        rows = tail_frequency_check(u, v, 300, 200, 5.0, SeedSpec(530))
        for row in rows:
            assert row.empirical == 0.0
            assert row.passed

    def test_moderate_threshold_within_bound(self):
        u, v = pair_at_angle(1.1, n=10)
        rows = tail_frequency_check(u, v, 300, 300, 0.2, SeedSpec(531))
        names = [r.name for r in rows]
        assert names == ["proj_minus_tail", "proj_plus_tail", "residual_tail"]
        for row in rows:
            assert row.passed
            assert row.used_draws > 0

    def test_residual_threshold_includes_sparsity_term(self):
        # With t tiny, the deviation term ell t / m alone is far below the
        # typical residual norm; the 2 sqrt(2 k ell) / m term is what keeps
        # the threshold above it.  A vanishing exceedance rate here fails
        # if that term is dropped.
        u = np.zeros(20)
        v = np.zeros(20)
        u[:3] = (0.6, 0.64, 0.48)
        v[2:6] = (0.5, 0.5, 0.5, 0.5)
        rows = tail_frequency_check(u, v, 400, 200, 1e-4, SeedSpec(532))
        residual = rows[2]
        assert residual.name == "residual_tail"
        assert residual.bound == pytest.approx(1.0)  # 2 exp(-tiny) clipped
        assert residual.empirical < 1.0  # not every draw exceeds

    def test_domain_validation(self):
        u, v = pair_at_angle(0.8)
        with pytest.raises(ValueError):
            tail_frequency_check(u, v, 10, 10, 0.0, SeedSpec(1))


@pytest.fixture(scope="module")
def table():
    return convergence_experiment(100, 3, 2500, 12, 8, 0.25, SeedSpec(540))


class TestConvergenceExperiment:
    def test_shapes(self, table):
        assert table.errors.shape == (12, 9)
        assert table.t.tolist() == list(range(9))

    def test_initial_error_near_sqrt_two(self, table):
        assert 1.0 <= table.mean_ds[0] <= 2.0

    def test_early_iterations_decrease(self, table):
        assert table.mean_ds[1] < table.mean_ds[0]
        assert table.mean_ds[2] < table.mean_ds[1]
        assert table.mean_ds[-1] < 0.1

    def test_bound_column(self, table):
        for t in range(9):
            assert table.bound[t] == closed_form_bound(0.25, t)

    def test_deterministic(self, table):
        again = convergence_experiment(100, 3, 2500, 12, 8, 0.25, SeedSpec(540))
        assert np.array_equal(table.errors, again.errors)


@pytest.fixture(scope="module")
def rows():
    return run_validator_suite(SeedSpec(550))


class TestValidatorSuite:
    def test_all_pass(self, rows):
        assert all(r.passed for r in rows)

    def test_row_inventory(self, rows):
        names = [r.name for r in rows]
        assert names == [
            "mismatch_theta_pi_6",
            "mismatch_theta_pi_3",
            "mismatch_theta_pi_2",
            "band_count_beta_pi_6",
            "proj_minus_orthogonal",
            "proj_plus_orthogonal",
            "proj_minus_tail",
            "proj_plus_tail",
            "residual_tail",
        ]

    def test_fault_injection_trips_mismatch_checks(self):
        rows = run_validator_suite(SeedSpec(550), break_sgn_zero=True)
        failed = {r.name for r in rows if not r.passed}
        assert failed == {
            "mismatch_theta_pi_6",
            "mismatch_theta_pi_3",
            "mismatch_theta_pi_2",
        }

    def test_csv_layout(self, rows, tmp_path):
        path = tmp_path / "validators.csv"
        write_validator_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,estimate,theory,se,z,pass"
        assert len(lines) == 1 + len(rows)
        assert all(line.endswith(",true") for line in lines[1:])
