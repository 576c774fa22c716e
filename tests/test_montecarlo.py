import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitsense.montecarlo as mc
from bitsense import biht
from bitsense.biht import run_biht
from bitsense.core import MeasurementMatrix, gaussian_matrix, random_sparse_unit, sign_measure
from bitsense.montecarlo import (
    ErrorBoundViolation,
    band_count_mean,
    convergence_trials,
    mismatch_probability,
    projection_expectation,
    run_validator_suite,
    tail_frequency_check,
    write_validator_csv,
)
from bitsense.raic import DEFAULT_ETA, h_a, orthogonal_decompose
from bitsense.rng import SeedSpec, _openblas_thread_calls, derive_seed, sample_standard_normal


def pair_at_angle(theta, n=8):
    u = np.zeros(n)
    v = np.zeros(n)
    u[0] = 1.0
    v[0] = math.cos(theta)
    v[1] = math.sin(theta)
    return u, v


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(2, 6), st.integers(0, 2**64 - 1))
def test_corrections_match_the_correction_map(t, m, n, base):
    # Each matrix of the stack gives its mismatch count and (m / eta) h_A.
    seed = SeedSpec(base)
    Z = sample_standard_normal(derive_seed(seed, 0), t * m * n).reshape(t, m, n)
    u = sample_standard_normal(derive_seed(seed, 1), n)
    v = sample_standard_normal(derive_seed(seed, 2), n)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    ell, H = mc._corrections(Z, u, v)
    assert ell.shape == (t,) and H.shape == (t, n)
    for i in range(t):
        A = MeasurementMatrix(Z[i])
        assert ell[i] == np.count_nonzero(sign_measure(A, u).bits != sign_measure(A, v).bits)
        ref = (m / DEFAULT_ETA) * h_a(A, u, v)
        assert np.linalg.norm(H[i] - ref) <= 1e-12 * np.linalg.norm(ref)


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

    def test_one_trial_rejected(self):
        # One trial has no sample SD, so no standard error to judge it by.
        u, v = pair_at_angle(math.pi / 2)
        with pytest.raises(ValueError, match="trials"):
            projection_expectation(u, v, 10, 1, SeedSpec(1))

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


def test_pair_directions_share_one_degeneracy_rule():
    # u = +-v is rejected everywhere; a pair 1e-9 apart is accepted
    # everywhere, though arccos of its cosine (exactly 1.0) reads angle 0.
    u = np.array([1.0, 0.0, 0.0])
    close = np.array([1.0, 1e-9, 0.0])
    for v in (u, -u):
        with pytest.raises(ValueError, match="degenerate"):
            orthogonal_decompose(np.ones(3), u, v)
        with pytest.raises(ValueError, match="degenerate"):
            projection_expectation(u, v, 10, 5, SeedSpec(1))
        with pytest.raises(ValueError, match="degenerate"):
            tail_frequency_check(u, v, 10, 5, 0.2, SeedSpec(1))
    orthogonal_decompose(np.ones(3), u, close)
    projection_expectation(u, close, 10, 5, SeedSpec(1))
    assert len(tail_frequency_check(u, close, 10, 5, 0.2, SeedSpec(1))) == 3


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


def _errors(trajectories):
    return np.array([traj.error_ds for traj in trajectories])  # (trials, T+1)


@pytest.fixture(scope="module")
def errors():
    return _errors(convergence_trials(100, 3, 2500, 12, 8, SeedSpec(540)))


class TestConvergenceExperiment:
    def test_initial_error_near_sqrt_two(self, errors):
        assert 1.0 <= errors.mean(axis=0)[0] <= 2.0

    def test_early_iterations_decrease(self, errors):
        mean_ds = errors.mean(axis=0)
        assert mean_ds[1] < mean_ds[0]
        assert mean_ds[2] < mean_ds[1]
        assert mean_ds[-1] < 0.1

    def test_deterministic(self, errors):
        again = _errors(convergence_trials(100, 3, 2500, 12, 8, SeedSpec(540)))
        assert np.array_equal(errors, again)


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

    def test_one_projection_trial_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_validator_suite(
                SeedSpec(0), mismatch_draws=100, projection_trials=1, tail_trials=2
            )

    @pytest.mark.parametrize("se", [0.0, float("nan")])
    def test_row_without_spread_passes_only_an_exact_hit(self, se):
        assert not mc._mean_row("x", 0.5, 0.25, se).passed
        assert mc._mean_row("x", 0.25, 0.25, se).passed

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


def _trial_record(trajectories):
    return [
        (traj.mismatch, repr(traj.error_ds), repr(traj.lemma1_rhs),
         [x.values.tobytes() for x in traj.iterates])
        for traj in trajectories
    ]


def _small_suite(seed=SeedSpec(571)):
    return run_validator_suite(seed, mismatch_draws=2000, projection_trials=20, tail_trials=10)


@pytest.mark.skipif(_openblas_thread_calls() is None,
                    reason="numpy's BLAS thread count is not reachable")
class TestOneBlasThread:
    """The trial pipeline and the validator suite make their BLAS products on
    one thread and hand the caller's count back; a bare solver run keeps it."""

    @pytest.fixture
    def blas_get(self):
        get, put = _openblas_thread_calls()
        before = get()
        put(2)
        yield get
        put(before)

    def test_trials_run_on_one_thread(self, blas_get, monkeypatch):
        seen = []

        def recording(*args, **kwargs):
            seen.append(blas_get())
            return run_biht(*args, **kwargs)

        monkeypatch.setattr(mc, "run_biht", recording)
        convergence_trials(40, 3, 300, 3, 4, SeedSpec(570))
        assert seen == [1, 1, 1]
        assert blas_get() == 2

    def test_count_restored_after_error_bound_violation(self, blas_get, monkeypatch):
        # A zero residual makes every bound 0, below any nonzero error.
        monkeypatch.setattr(biht, "restricted_residual", lambda *args, **kwargs: 0.0)
        with pytest.raises(ErrorBoundViolation):
            convergence_trials(40, 3, 300, 2, 4, SeedSpec(570))
        assert blas_get() == 2

    def test_suite_runs_on_one_thread(self, blas_get, monkeypatch):
        seen = []

        def recording(*args, **kwargs):
            seen.append(blas_get())
            return sample_standard_normal(*args, **kwargs)

        monkeypatch.setattr(mc, "sample_standard_normal", recording)
        _small_suite()
        assert len(seen) >= 6 and set(seen) == {1}
        assert blas_get() == 2

    def test_count_restored_when_a_validator_raises(self, blas_get, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("validator")

        monkeypatch.setattr(mc, "tail_frequency_check", failing)
        with pytest.raises(RuntimeError, match="validator"):
            _small_suite()
        assert blas_get() == 2

    def test_bare_solver_keeps_the_callers_count(self, blas_get, monkeypatch):
        # `run_biht` without sampling around it gains from BLAS threads in its
        # dense first-step products, so it is left at the caller's count.
        seen = []
        correction = biht.correction

        def recording(*args, **kwargs):
            seen.append(blas_get())
            return correction(*args, **kwargs)

        monkeypatch.setattr(biht, "correction", recording)
        A = gaussian_matrix(300, 40, SeedSpec(572))
        b = sign_measure(A, random_sparse_unit(40, 3, SeedSpec(573)).values)
        run_biht(A, b, biht.BIHTConfig(k=3, max_iters=4, init=SeedSpec(574)))
        assert seen and set(seen) == {2}

    def test_results_do_not_depend_on_the_callers_count(self):
        get, put = _openblas_thread_calls()
        before = get()
        trials, suites = [], []
        try:
            for threads in (1, 2):
                put(threads)
                trials.append(_trial_record(convergence_trials(200, 5, 2000, 3, 6, SeedSpec(575))))
                suites.append(_small_suite())
                assert get() == threads
        finally:
            put(before)
        assert trials[0] == trials[1]
        assert suites[0] == suites[1]
