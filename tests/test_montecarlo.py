import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitsense.montecarlo as mc
from bitsense import biht, cli
from bitsense.biht import BIHTConfig, run_biht
from bitsense.core import (
    MeasurementMatrix,
    dense_scratch,
    gaussian_matrix,
    random_sparse_unit,
    sign_measure,
)
from bitsense.montecarlo import (
    ErrorBoundViolation,
    band_count_mean,
    convergence_trials,
    mismatch_probability,
    projection_expectation,
    run_validator_suite,
    tail_frequency_check,
)
from bitsense.raic import DEFAULT_ETA, h_a, orthogonal_decompose, raic_certify
from bitsense.rng import (
    _GOLDEN,
    _MASK64,
    SeedSpec,
    _stream_key,
    derive_seed,
    sample_standard_normal,
    sample_standard_normal_block,
    sample_standard_normal_rows,
)


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
            assert row.estimate == 0.0
            assert row.passed

    def test_moderate_threshold_within_bound(self):
        u, v = pair_at_angle(1.1, n=10)
        rows = tail_frequency_check(u, v, 300, 300, 0.2, SeedSpec(531))
        names = [r.name for r in rows]
        assert names == ["proj_minus_tail", "proj_plus_tail", "residual_tail"]
        for row in rows:
            assert row.passed
            assert row.se > 0  # a draw was used

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
        assert residual.theory == pytest.approx(1.0)  # 2 exp(-tiny) clipped
        assert residual.estimate < 1.0  # not every draw exceeds

    def test_domain_validation(self):
        u, v = pair_at_angle(0.8)
        with pytest.raises(ValueError):
            tail_frequency_check(u, v, 10, 10, 0.0, SeedSpec(1))


@pytest.mark.parametrize(
    "shape, columns, chunk",
    [((8,), (0, 2), 64), ((8,), (3, 8), 1000), ((5, 6), (1, 4), 64),
     ((5, 6), (2, 3), 95), ((5, 6), None, 512), ((4,), None, 4)],
)
def test_normal_blocks_draw_the_read_columns_of_one_stream(shape, columns, chunk, monkeypatch):
    # Every block holds the one-shot stream's read columns and no others,
    # whatever the block size.
    monkeypatch.setattr(mc, "_CHUNK_ELEMS", chunk)
    seed, count = SeedSpec(590, 2), 23
    n = shape[-1]
    c0, c1 = (0, n) if columns is None else columns
    whole = sample_standard_normal(seed, count * math.prod(shape)).reshape(count, *shape)
    shapes = []

    def stat(block):
        shapes.append(block.shape)
        return block, block[:, 0].copy()

    blocks, firsts = mc._map_normal_blocks(stat, seed, count, *shape, columns=columns)
    assert all(s[1:] == (*shape[:-1], c1 - c0) for s in shapes)
    assert sum(s[0] for s in shapes) == count
    assert blocks.shape == whole[..., c0:c1].shape
    assert np.array_equal(firsts, blocks[:, 0])
    assert np.array_equal(blocks.view(np.uint64), whole[..., c0:c1].view(np.uint64))


@pytest.mark.parametrize(
    "u_at, v_at, n",
    [({0: 0.6, 1: 0.8}, {1: 1.0}, 4),  # the span starts at column 0
     ({2: 1.0}, {2: 0.28, 3: 0.96}, 6),  # c0 > 0, the span ends before n
     ({1: 1.0}, {1: 0.6, 4: 0.8}, 8)],  # columns 2 and 3 inside the span are 0
)
def test_validators_match_zero_filled_full_rows(u_at, v_at, n, monkeypatch):
    # The validators run on the read columns only; fed full rows that hold
    # the same stream there and zeros elsewhere, as sample_standard_normal
    # gives them, they return == statistics.
    u = np.zeros(n)
    v = np.zeros(n)
    u[list(u_at)] = list(u_at.values())
    v[list(v_at)] = list(v_at.values())
    supp = np.flatnonzero(np.abs(u) + np.abs(v))
    c0, c1 = supp[0], supp[-1] + 1
    m, trials, seed = 30, 12, SeedSpec(591)

    def results():
        return (
            mismatch_probability(u, v, 500, seed),
            projection_expectation(u, v, m, trials, seed),
            tail_frequency_check(u, v, m, trials, 0.7, seed),
        )

    narrow = results()

    def zero_filled(seed, width, rows, columns):
        assert (width, columns) == (n, range(n))
        # Rows rows.start.. of the stream: the stream keyed key + rows.start * n * G.
        key = (_stream_key(seed) + rows.start * n * _GOLDEN) & _MASK64
        whole = sample_standard_normal_rows(np.array([key], dtype=np.uint64), len(rows) * n)
        whole = whole.reshape(-1, n)
        whole[:, :c0] = 0.0
        whole[:, c1:] = 0.0
        return whole

    monkeypatch.setattr(mc, "_read_columns", lambda supp: (0, n))
    monkeypatch.setattr(mc, "sample_standard_normal_block", zero_filled)
    assert results() == narrow
    assert 0 < narrow[0] < 1 and narrow[2][0].se > 0


    @pytest.mark.parametrize("t_param", [math.nan, math.inf, 0.0, -1.0])
    def test_t_param_must_be_positive_and_finite(self, t_param):
        # A NaN used to pass `t_param <= 0` and give rows of NaN.
        u, v = pair_at_angle(1.1, n=10)
        message = f"t_param must be a finite number in (0, inf), got {t_param!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tail_frequency_check(u, v, 30, 5, t_param, SeedSpec(1))


# Each validator on a pair (u, v) at small sizes; `band_count_mean` takes u alone.
VALIDATORS = {
    "mismatch": lambda u, v: mismatch_probability(u, v, 10, SeedSpec(1)),
    "band": lambda u, v: band_count_mean(u, 0.3, 10, 2, SeedSpec(1)),
    "projection": lambda u, v: projection_expectation(u, v, 10, 2, SeedSpec(1)),
    "tail": lambda u, v: tail_frequency_check(u, v, 10, 2, 0.5, SeedSpec(1)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "validator, name", [(f, w) for f in VALIDATORS for w in "uv" if (f, w) != ("band", "v")]
)
def test_validators_reject_a_non_finite_vector(validator, name, bad):
    # A NaN used to give a silent estimate (a band count of 0) and an inf
    # a RuntimeWarning from inf / inf.
    pair = dict(zip("uv", pair_at_angle(1.1, n=4)))
    pair[name][1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        VALIDATORS[validator](pair["u"], pair["v"])


class TestBlockSize:
    """The validators give `==` results however their items are blocked:
    one trial's matrix per block, a few, or fewer rows than one."""

    # t = 0.7 keeps the bounds 2 exp(-ell t^2 / 2) and 2 exp(-ell t^2 / 8)
    # below their clip at 1, so their float sums depend on the order.
    M, TRIALS, T = 60, 40, 0.7

    @pytest.fixture(params=["64", "512", "one trial", "seven trials and one"])
    def chunk(self, request, monkeypatch):
        def patch(trial_size):
            sizes = {"64": 64, "512": 512, "one trial": trial_size,
                     "seven trials and one": 7 * trial_size + 1}
            monkeypatch.setattr(mc, "_CHUNK_ELEMS", sizes[request.param])

        return patch

    def test_tail_rows_do_not_depend_on_the_block_size(self, chunk):
        u = np.zeros(10)
        v = np.zeros(10)
        u[1:4] = (0.6, 0.64, 0.48)
        v[3:6] = (0.48, 0.6, 0.64)
        whole = tail_frequency_check(u, v, self.M, self.TRIALS, self.T, SeedSpec(591))
        chunk(self.M * u.size)
        assert tail_frequency_check(u, v, self.M, self.TRIALS, self.T, SeedSpec(591)) == whole

    def test_band_counts_do_not_depend_on_the_block_size(self, chunk):
        u = np.array([1.0, 0.3])
        whole = band_count_mean(u, math.pi / 6, self.M, self.TRIALS, SeedSpec(592))
        chunk(self.M * u.size)
        band = band_count_mean(u, math.pi / 6, self.M, self.TRIALS, SeedSpec(592))
        assert (band.mean, band.sample_sd, band.expected) == (
            whole.mean, whole.sample_sd, whole.expected
        )
        assert np.array_equal(band.counts, whole.counts)

    def test_projections_do_not_depend_on_the_block_size(self, chunk):
        u, v = pair_at_angle(1.1, n=6)
        whole = projection_expectation(u, v, self.M, self.TRIALS, SeedSpec(593))
        chunk(self.M * u.size)
        assert projection_expectation(u, v, self.M, self.TRIALS, SeedSpec(593)) == whole

    def test_mismatch_rate_does_not_depend_on_the_block_size(self, chunk):
        u, v = pair_at_angle(0.9, n=6)
        whole = mismatch_probability(u, v, self.M * self.TRIALS, SeedSpec(594))
        chunk(u.size)
        assert mismatch_probability(u, v, self.M * self.TRIALS, SeedSpec(594)) == whole


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


def _certify(**counts):
    A = gaussian_matrix(60, 20, SeedSpec(541))
    counts = {"k": 2, "num_pairs": 10, "max_j": 2, **counts}
    return raic_certify(A, delta=0.1, seed=SeedSpec(542), **counts)


def _trials(**counts):
    counts = {"n": 20, "k": 2, "m": 50, "trials": 2, "T": 3, **counts}
    return convergence_trials(seed=SeedSpec(543), **counts)


@pytest.mark.parametrize(
    "pipeline, name, value",
    [(_certify, "k", 2.0), (_certify, "num_pairs", 10.0), (_certify, "max_j", 2.0),
     (_certify, "max_j", True), (_certify, "num_small", 2.0),
     (_trials, "n", 20.0), (_trials, "k", 2.0), (_trials, "m", 50.0), (_trials, "trials", 2.0),
     (_trials, "T", np.float64(3.0))],
)
def test_pipelines_reject_counts_that_are_not_integers(pipeline, name, value):
    # Each used to fail deep in the sampler, a slice or a range: a TypeError,
    # or for T a ValueError that named `max_iters`.  A count the CLI sets
    # under another name is named by both.
    label = {"num_pairs": "num_pairs (pairs)", "num_small": "num_small (small_pairs)",
             "T": "T (iters)"}.get(name, name)
    message = f"{label} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pipeline(**{name: value})


class TestTrialDrawsOnRead:
    @pytest.mark.parametrize("n, k, m, T", [(60, 3, 1200, 20), (6, 6, 300, 8)])
    def test_trial_keeps_the_record_of_the_whole_matrix(self, n, k, m, T):
        # The trial's pipeline on gaussian_matrix's matrix, bit for bit.
        for i in range(3):
            seed = derive_seed(SeedSpec(575), i)
            got = mc._convergence_trial(n, k, m, T, DEFAULT_ETA, seed, dense_scratch(m, n))
            truth = random_sparse_unit(n, k, derive_seed(seed, 0))
            A = gaussian_matrix(m, n, derive_seed(seed, 1))
            config = BIHTConfig(k=k, max_iters=T, init=derive_seed(seed, 2))
            want = run_biht(A, sign_measure(A, truth.values), config, truth=truth)
            assert [x.values.tobytes() for x in got.iterates] == [
                x.values.tobytes() for x in want.iterates
            ]
            assert got.mismatch == want.mismatch
            assert np.array(got.error_ds).tobytes() == np.array(want.error_ds).tobytes()
            assert np.array(got.lemma1_rhs).tobytes() == np.array(want.lemma1_rhs).tobytes()

    def test_trials_draw_part_of_their_matrices(self, monkeypatch):
        # The acceptance config, 10 trials at seed 0: the matrices' own
        # records add up to 59.4% of the 10 m n normals (50.3% of the rows,
        # the rows the later steps draw again, and the columns of each
        # support).  A trial that drew its whole matrix would read 100% or
        # more.
        made = []

        class Kept(mc.LazyGaussianMatrix):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(mc, "LazyGaussianMatrix", Kept)
        n, m, trials = 200, 10000, 10
        convergence_trials(n, 5, m, trials, 12, SeedSpec(0))
        assert len(made) == trials
        share = sum(A.drawn for A in made) / (trials * m * n)
        assert share <= 0.65


    def test_concurrent_experiments_on_a_wide_pool(self, wide_pool):
        # More workers than cores, each experiment's trials on the pool,
        # their dense steps three row blocks each, with frequent thread
        # switches: every caller must get the records of a one-worker pool.
        def experiment(seed):
            return _trial_record(convergence_trials(200, 5, 6000, 3, 6, seed))

        want, got = wide_pool(experiment, [SeedSpec(576, i) for i in range(4)])
        assert got == want


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
        # `bitsense validate --seed 550` writes the rows of the fixture.
        assert cli.main(["validate", "--seed", "550", "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "validators.csv").read_text().splitlines()
        assert lines[0] == "name,estimate,theory,se,z,pass"
        assert len(lines) == 1 + len(rows)
        assert all(line.endswith(",true") for line in lines[1:])

    def test_concurrent_suites_on_a_wide_pool(self, wide_pool):
        # More workers than cores, each suite six jobs wide, with frequent
        # thread switches: every caller must get the rows of a one-worker
        # pool.
        want, got = wide_pool(run_validator_suite, [SeedSpec(551, i) for i in range(5)])
        assert got == want

    def test_a_later_job_that_raises_reaches_the_caller(self, monkeypatch, caller_blas,
                                                        tmp_path):
        # The pi/3 mismatch job is submitted fifth of six, behind the tails
        # and the projection, so its error comes back while others may run.
        get, put = caller_blas
        failing_seed = derive_seed(SeedSpec(0), 1)

        def failing(u, v, draws, seed, sign_fn=None):
            if seed == failing_seed:
                raise RuntimeError("mismatch job")
            return mismatch_probability(u, v, draws, seed, sign_fn=sign_fn)

        put(2)
        monkeypatch.setattr(mc, "mismatch_probability", failing)
        with pytest.raises(RuntimeError, match="mismatch job"):
            run_validator_suite(SeedSpec(0))
        assert get() == 2
        monkeypatch.undo()
        assert cli.main(["validate", "--seed", "0", "--output-dir", str(tmp_path)]) == 0
        path = tmp_path / "validators.csv"
        # The `validate --seed 0` pin of test_known_answers.VALIDATORS_CSV.
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "be8ffc65a864939e60729dbcad7bae4dd12a0151ee5f65d111a38596b7337f91"
        )


def _trial_record(trajectories):
    return [
        (traj.mismatch, repr(traj.error_ds), repr(traj.lemma1_rhs),
         [x.values.tobytes() for x in traj.iterates])
        for traj in trajectories
    ]


class TestOneBlasThread:
    """The trial pipeline, the validator suite and a bare solver run make
    their BLAS products on one thread and hand the caller's count back."""

    def test_trials_run_on_one_thread(self, caller_blas, monkeypatch):
        get, put = caller_blas
        put(2)
        seen = []

        def recording(*args, **kwargs):
            seen.append(get())
            return run_biht(*args, **kwargs)

        monkeypatch.setattr(mc, "run_biht", recording)
        convergence_trials(40, 3, 300, 3, 4, SeedSpec(570))
        assert seen == [1, 1, 1]
        assert get() == 2

    def test_count_restored_after_error_bound_violation(self, caller_blas, monkeypatch):
        get, put = caller_blas
        put(2)
        # A zero residual makes every bound 0, below any nonzero error.
        monkeypatch.setattr(biht, "restricted_residual", lambda *args, **kwargs: 0.0)
        with pytest.raises(ErrorBoundViolation):
            convergence_trials(40, 3, 300, 2, 4, SeedSpec(570))
        assert get() == 2

    def test_suite_runs_on_one_thread(self, caller_blas, monkeypatch):
        get, put = caller_blas
        put(2)
        seen = []

        def recording(*args, **kwargs):
            seen.append(get())
            return sample_standard_normal_block(*args, **kwargs)

        monkeypatch.setattr(mc, "sample_standard_normal_block", recording)
        run_validator_suite(SeedSpec(571))
        assert len(seen) >= 6 and set(seen) == {1}
        assert get() == 2

    def test_count_restored_when_a_validator_raises(self, caller_blas, monkeypatch):
        get, put = caller_blas
        put(2)

        def failing(*args, **kwargs):
            raise RuntimeError("validator")

        monkeypatch.setattr(mc, "tail_frequency_check", failing)
        with pytest.raises(RuntimeError, match="validator"):
            run_validator_suite(SeedSpec(571))
        assert get() == 2

    def test_bare_solver_runs_on_one_thread(self, caller_blas, monkeypatch):
        # Every product of a bare `run_biht`, the first measure's too, at one
        # BLAS thread; the caller's count comes back after a return and
        # after the ValueError of a step that overflows.
        get, put = caller_blas
        put(2)
        seen = []

        class Measure(biht._Measure):
            def __call__(self, *args):
                seen.append(("measure", get()))
                return super().__call__(*args)

        correction = biht.correction

        def recording(*args, **kwargs):
            seen.append(("correction", get()))
            return correction(*args, **kwargs)

        monkeypatch.setattr(biht, "_Measure", Measure)
        monkeypatch.setattr(biht, "correction", recording)
        A = gaussian_matrix(300, 40, SeedSpec(572))
        b = sign_measure(A, random_sparse_unit(40, 3, SeedSpec(573)).values)
        run_biht(A, b, biht.BIHTConfig(k=3, max_iters=4, init=SeedSpec(574)))
        assert seen[0] == ("measure", 1) and ("correction", 1) in seen
        assert {threads for _, threads in seen} == {1}
        assert get() == 2
        seen.clear()
        with pytest.raises(ValueError, match="eta"):
            run_biht(A, b, biht.BIHTConfig(k=3, max_iters=4, eta=1e300, init=SeedSpec(574)))
        assert seen and {threads for _, threads in seen} == {1}
        assert get() == 2

    def test_results_do_not_depend_on_the_callers_count(self, caller_blas):
        get, put = caller_blas
        trials, suites = [], []
        for threads in (1, 2):
            put(threads)
            trials.append(_trial_record(convergence_trials(200, 5, 2000, 3, 6, SeedSpec(575))))
            suites.append([run_validator_suite(SeedSpec(s)) for s in (571, 0)])
            assert get() == threads
        assert trials[0] == trials[1]
        assert suites[0] == suites[1]
