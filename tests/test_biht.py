import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitsense import cli, montecarlo
from bitsense.biht import BIHTConfig, run_biht
from bitsense.core import (
    DeferredGaussianMatrix,
    MeasurementMatrix,
    SignPattern,
    SparseUnitVector,
    gaussian_matrix,
    random_sparse_unit,
    sgn,
    sign_measure,
)
from bitsense.montecarlo import convergence_trials
from bitsense.raic import DEFAULT_ETA
from bitsense.rng import SeedSpec, derive_seed, sample_standard_normal


def small_instance(seed=SeedSpec(40), n=60, k=3, m=1200):
    base = seed
    x = random_sparse_unit(n, k, derive_seed(base, 0))
    A = gaussian_matrix(m, n, derive_seed(base, 1))
    b = sign_measure(A, x.values)
    return x, A, b


class _Unread:
    """A matrix of A's shape that fails the run if the solver reads it."""

    def __init__(self, A):
        self.m, self.n = A.m, A.n

    def columns(self, cols):
        raise AssertionError("the matrix was read")

    rows = t_dot = columns


def one_step(A, b, x_prev, k, eta=DEFAULT_ETA):
    """One iteration of `run_biht` from x_prev."""
    return run_biht(A, b, BIHTConfig(k=k, max_iters=1, eta=eta, init=x_prev)).final


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BIHTConfig(k=3, max_iters=0)
        with pytest.raises(ValueError):
            BIHTConfig(k=3, max_iters=5, eta=0.0)
        with pytest.raises(ValueError):
            BIHTConfig(k=0, max_iters=5)

    @pytest.mark.parametrize(
        "field, value",
        [("k", 3.0), ("max_iters", 2.0), ("k", True), ("max_iters", True),
         ("k", np.float64(3.0)), ("max_iters", "2")],
    )
    def test_non_integer_sizes_rejected(self, field, value):
        # A float used to fail later in the sampler or the step loop's
        # range, and max_iters=True ran one step.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            BIHTConfig(**{"k": 3, "max_iters": 2, field: value})

    def test_numpy_integer_sizes_stored_as_int(self):
        config = BIHTConfig(k=np.int64(3), max_iters=np.uint8(2))
        assert type(config.k) is int and type(config.max_iters) is int
        assert config == BIHTConfig(k=3, max_iters=2)

    def test_default_step_size(self):
        assert BIHTConfig(k=2, max_iters=1).eta == pytest.approx(math.sqrt(2 * math.pi))


class TestStep:
    def test_fixed_point_when_signs_agree(self):
        x, A, _ = small_instance()
        b = sign_measure(A, x.values)
        out = one_step(A, b, x, x.k)
        assert np.array_equal(out.values, x.values)

    def test_hand_computed_single_step(self):
        # A = I_2, x_prev = (1, 0), b = (+1, -1): the correction is
        # (eta/4) * (0, -2), so the descent point is (1, -eta/2) and with
        # k = 1 the iterate lands exactly on (0, -1).
        A = MeasurementMatrix(np.eye(2))
        b = SignPattern(np.array([1, -1]))
        x_prev = SparseUnitVector(np.array([1.0, 0.0]), 1)
        out = one_step(A, b, x_prev, 1)
        assert np.allclose(out.values, [0.0, -1.0], atol=1e-15)

    def test_hand_computed_single_step_k2(self):
        # Same instance with k = 2: nothing is thresholded away, so the
        # result is (1, -eta/2) normalized by sqrt(1 + pi/2).
        A = MeasurementMatrix(np.eye(2))
        b = SignPattern(np.array([1, -1]))
        x_prev = SparseUnitVector(np.array([1.0, 0.0]), 2)
        eta = math.sqrt(2 * math.pi)
        nrm = math.sqrt(1.0 + math.pi / 2.0)
        out = one_step(A, b, x_prev, 2)
        assert np.allclose(out.values, [1.0 / nrm, -(eta / 2.0) / nrm], atol=1e-14)

    def test_output_sparse_and_unit(self):
        x, A, b = small_instance(SeedSpec(41))
        start = random_sparse_unit(A.n, x.k, SeedSpec(90))
        out = one_step(A, b, start, x.k)
        assert np.count_nonzero(out.values) <= x.k
        assert abs(np.linalg.norm(out.values) - 1.0) <= 1e-9

    def test_zero_candidate_keeps_previous_iterate(self):
        # eta = 2 makes the descent point exactly (0, 0) here.
        A = MeasurementMatrix(np.eye(2))
        b = SignPattern(np.array([-1, 1]))
        x_prev = SparseUnitVector(np.array([1.0, 0.0]), 1)
        out = one_step(A, b, x_prev, 1, eta=2.0)
        assert np.array_equal(out.values, x_prev.values)

    def test_dimension_mismatch(self):
        x, A, b = small_instance()
        with pytest.raises(ValueError):
            one_step(A, SignPattern(np.array([1, -1])), x, x.k)

    def test_step_checks_k_and_eta_as_run_does(self):
        x, A, b = small_instance()
        with pytest.raises(ValueError, match="k must be"):
            one_step(A, b, x, 0)
        message = "eta must be a finite number in (0, inf), got nan"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            one_step(A, b, x, x.k, eta=float("nan"))


class TestRun:
    def test_stationary_when_started_at_truth(self):
        x, A, b = small_instance(SeedSpec(42))
        traj = run_biht(A, b, BIHTConfig(k=x.k, max_iters=4, init=x), truth=x)
        assert traj.error_ds[0] == 0.0
        for it in traj.iterates:
            assert np.array_equal(it.values, x.values)
        assert all(m == 0 for m in traj.mismatch)

    def test_error_bound_holds_each_iteration(self):
        x, A, b = small_instance(SeedSpec(43))
        traj = run_biht(
            A, b, BIHTConfig(k=x.k, max_iters=10, init=derive_seed(SeedSpec(43), 5)), truth=x
        )
        assert math.isnan(traj.lemma1_rhs[0])
        for t in range(1, 11):
            assert traj.error_ds[t] <= traj.lemma1_rhs[t] + 1e-9

    def test_deterministic(self):
        x, A, b = small_instance(SeedSpec(44))
        config = BIHTConfig(k=x.k, max_iters=6, init=derive_seed(SeedSpec(44), 9))
        t1 = run_biht(A, b, config, truth=x)
        t2 = run_biht(A, b, config, truth=x)
        assert t1.error_ds == t2.error_ds
        assert t1.mismatch == t2.mismatch
        for a, bb in zip(t1.iterates, t2.iterates):
            assert np.array_equal(a.values, bb.values)

    def test_sign_fixed_point_stops_moving(self):
        x, A, b = small_instance(SeedSpec(45))
        traj = run_biht(
            A, b, BIHTConfig(k=x.k, max_iters=12, init=derive_seed(SeedSpec(45), 2)), truth=x
        )
        for t in range(len(traj.iterates) - 1):
            if traj.mismatch[t] == 0:
                assert np.array_equal(
                    traj.iterates[t + 1].values, traj.iterates[t].values
                )

    def test_error_decreases_on_average(self):
        errors = []
        for i in range(10):
            x, A, b = small_instance(derive_seed(SeedSpec(46), i), n=80, k=4, m=2500)
            traj = run_biht(
                A,
                b,
                BIHTConfig(k=4, max_iters=6, init=derive_seed(SeedSpec(47), i)),
                truth=x,
            )
            errors.append(traj.error_ds)
        mean = np.asarray(errors).mean(axis=0)
        assert mean[1] < mean[0]
        assert mean[2] < mean[1]
        assert mean[-1] < 0.2

    def test_sign_pattern_of_wrong_length_rejected(self):
        # Length 1 would broadcast through the mismatch count unnoticed.
        x, A, _ = small_instance()
        for length in (1, A.m + 1):
            b = SignPattern(np.ones(length, dtype=np.int8))
            expected = f"length {length}, but A has {A.m} rows"
            with pytest.raises(ValueError, match=expected):
                run_biht(A, b, BIHTConfig(k=x.k, max_iters=2, init=x))

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_start_point_of_wrong_length_rejected(self, s):
        # Unchecked, seed 0 failed to broadcast, seed 1 indexed past A's
        # columns and seed 2 ran to the end on iterates of length 50.
        A = gaussian_matrix(300, 40, SeedSpec(1))
        b = sign_measure(A, random_sparse_unit(40, 3, SeedSpec(2)).values)
        config = BIHTConfig(k=3, max_iters=3, init=random_sparse_unit(50, 3, SeedSpec(s)))
        with pytest.raises(ValueError, match="init has length 50, but A has 40 columns"):
            run_biht(A, b, config)

    @pytest.mark.parametrize(
        "change, message",
        [(lambda b, x: dict(b=b.bits), "b must be a SignPattern, got an object of type ndarray"),
         (lambda b, x: dict(truth=x.values),
          "truth must be a SparseUnitVector or None, got an object of type ndarray"),
         (lambda b, x: dict(truth=random_sparse_unit(x.n + 1, x.k, SeedSpec(7))),
          "truth has length 61, but A has 60 columns")],
        ids=["signs as an array", "truth as an array", "truth of another length"],
    )
    def test_signs_and_truth_checked_before_any_product(self, change, message):
        # An array b or truth used to raise AttributeError, and a truth of
        # another length "vectors have different lengths" after the first
        # measure.  A matrix that fails on any read shows none was made.
        x, A, b = small_instance()
        call = dict(b=b, config=BIHTConfig(k=x.k, max_iters=2, init=x), truth=x)
        call.update(change(b, x))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_biht(_Unread(A), **call)

    @pytest.mark.parametrize("eta", [1e160, 1e308])
    def test_overflowing_step_blames_eta(self, eta):
        # The candidate's norm overflows; it used to warn and then fail the
        # unit-norm check of an iterate that had become zero.
        x, A, b = small_instance()
        config = BIHTConfig(k=x.k, max_iters=5, eta=eta, init=SeedSpec(3))
        with pytest.raises(ValueError, match=re.escape(f"eta={eta!r} is too large")):
            run_biht(A, b, config, truth=x)

    def test_untracked_run_has_no_error_columns(self):
        x, A, b = small_instance(SeedSpec(49))
        traj = run_biht(A, b, BIHTConfig(k=x.k, max_iters=3, init=x))
        assert traj.error_ds is None and traj.lemma1_rhs is None
        assert len(traj.mismatch) == 4


def planted(n, k, m, seed, measured, eta, T):
    """A small instance (A, b, config, truth): b measured from the truth, or
    random signs with the truth still tracked."""
    truth = random_sparse_unit(n, k, derive_seed(seed, 0))
    A = gaussian_matrix(m, n, derive_seed(seed, 1))
    if measured:
        b = sign_measure(A, truth.values)
    else:
        b = SignPattern(sgn(sample_standard_normal(derive_seed(seed, 2), m)))
    config = BIHTConfig(k=k, max_iters=T, eta=eta, init=derive_seed(seed, 3))
    return A, b, config, truth


@st.composite
def planted_runs(draw):
    """A `planted` instance, with random signs for one draw in four."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, min(n, 6)))
    m = draw(st.integers(1, 400))
    seed = SeedSpec(draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1)))
    measured = draw(st.integers(0, 3)) > 0
    eta = draw(st.sampled_from([math.sqrt(2.0 * math.pi), 1.0, 0.3]))
    return planted(n, k, m, seed, measured, eta, draw(st.integers(1, 8)))


def assert_each_step_lands(A, b, config, truth, iterates, traj):
    """One step of (A, b) from each of ``iterates`` (the run ``traj``'s
    iterates, mapped into this problem) lands on the next within 1e-12, with
    its d_s and bound as ``traj`` has them; every mismatch count is exact."""
    for t, x in enumerate(iterates):
        step = run_biht(A, b, replace(config, max_iters=1, init=x), truth=truth)
        assert step.mismatch[0] == traj.mismatch[t]
        if t + 1 < len(iterates):
            np.testing.assert_allclose(step.final.values, iterates[t + 1].values, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(step.error_ds[1], traj.error_ds[t + 1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(step.lemma1_rhs[1], traj.lemma1_rhs[t + 1], rtol=0,
                                       atol=1e-12)


class TestMetamorphic:
    """Identities of the solver that hold at every size: any index slip in
    the column cache or the rows-only correction breaks one of them."""

    @settings(max_examples=60, deadline=None)
    @given(planted_runs())
    def test_negated_problem_gives_the_same_trajectory(self, case):
        A, b, config, truth = case
        flipped = run_biht(MeasurementMatrix(-A.entries), SignPattern(-b.bits), config,
                           truth=truth)
        traj = run_biht(A, b, config, truth=truth)
        assert [x.values.tobytes() for x in flipped.iterates] == [
            x.values.tobytes() for x in traj.iterates
        ]
        assert flipped.mismatch == traj.mismatch
        assert np.array_equal(flipped.error_ds, traj.error_ds)
        assert np.array_equal(flipped.lemma1_rhs, traj.lemma1_rhs, equal_nan=True)

    # Whole runs are compared step by step, not end to end: a step
    # normalizes a candidate x + h whose norm can be 0.1-0.3, which
    # multiplies the rounding carried in from earlier steps.  In the stored
    # example (random signs, n = 2, k = 2, m = 67, T = 6) the two runs'
    # iterates drift apart by 5e-16 at step 1 and by 2.5e-12 in d_s at
    # step 6, while each step alone agrees to 1e-15.
    @settings(max_examples=60, deadline=None)
    @given(planted_runs(), st.integers(0, 2**32 - 1))
    @example(planted(2, 2, 67, SeedSpec(0, 0), False, math.sqrt(2.0 * math.pi), 6), 0)
    def test_row_permutation_keeps_the_record(self, case, perm_seed):
        # The products sum the rows in another order, so only the floats
        # move, within the known-answer tolerance.
        A, b, config, truth = case
        perm = np.random.default_rng(perm_seed).permutation(A.m)
        traj = run_biht(A, b, config, truth=truth)
        assert_each_step_lands(MeasurementMatrix(A.entries[perm]), SignPattern(b.bits[perm]),
                               config, truth, traj.iterates, traj)

    @settings(max_examples=60, deadline=None)
    @given(planted_runs(), st.integers(0, 2**32 - 1))
    def test_column_permutation_permutes_the_record(self, case, perm_seed):
        # Permuting the columns of A and the entries of every vector with
        # them permutes the iterates; the products over the support sum in
        # another order, so only the floats move.
        A, b, config, truth = case
        perm = np.random.default_rng(perm_seed).permutation(A.n)
        traj = run_biht(A, b, config, truth=truth)
        moved = [SparseUnitVector(x.values[perm], x.k) for x in traj.iterates]
        assert_each_step_lands(MeasurementMatrix(A.entries[:, perm]), b, config,
                               SparseUnitVector(truth.values[perm], truth.k), moved, traj)

    @settings(max_examples=60, deadline=None)
    @given(planted_runs(), st.integers(-60, 60))
    def test_truth_scaled_by_a_power_of_two_gives_the_same_signs(self, case, j):
        A, _, _, truth = case
        scaled = sign_measure(A, 2.0**j * truth.values)
        assert scaled.bits.tobytes() == sign_measure(A, truth.values).bits.tobytes()


class RecordedMatrix(DeferredGaussianMatrix):
    """A DeferredGaussianMatrix that keeps a copy of every block it hands
    out, with the columns or rows asked for, and of each dense step's r and
    result."""

    def __init__(self, m, n, seed):
        super().__init__(m, n, seed)
        self.column_reads = []
        self.row_reads = []
        self.dense_reads = []

    def columns(self, cols):
        block = super().columns(cols)
        self.column_reads.append((cols.copy(), block.copy()))
        return block

    def rows(self, rows):
        block = super().rows(rows)
        self.row_reads.append((rows.copy(), block.copy()))
        return block

    def t_dot(self, r, rows):
        total = super().t_dot(r, rows)
        self.dense_reads.append((r.copy(), total.copy()))
        return total


def recorded_trial(n, k, m, T, seed, eta=DEFAULT_ETA):
    """(A, traj): a convergence trial (`montecarlo._convergence_trial`) and
    the matrix it drew, recorded."""
    made = []

    class Kept(RecordedMatrix):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "DeferredGaussianMatrix", Kept)
        traj = montecarlo._convergence_trial(n, k, m, T, eta, seed)
    (A,) = made
    return A, traj


def completed(A):
    """The whole matrix A stands for: every entry not yet drawn, drawn
    conditioned on what it handed out."""
    return MeasurementMatrix(A.columns(np.arange(A.n)))


# How far a record on the completed matrix may stray from the run that drew
# it, set before it was measured: the two differ only in rounding, as where
# the dense step drew c_j the completed matrix sums a column.
REPLAY_TOL = 1e-12


def replayed(A, truth, config, b=None):
    """(M, record): the completed matrix M and the run on it.  With b None,
    the run takes M's own signs of the truth, as a trial measures them."""
    M = completed(A)
    if b is None:
        b = sign_measure(M, truth.values)
    return M, run_biht(M, b, config, truth=truth)


def assert_same_path(got, want):
    """Two records with the same supports and mismatch counts."""
    assert [x.support().tolist() for x in got.iterates] == [
        x.support().tolist() for x in want.iterates]
    assert got.mismatch == want.mismatch


def assert_replays(A, traj, truth, config):
    """A trial's run on the completed matrix takes the path of ``traj``,
    with its d_s and bounds within REPLAY_TOL."""
    want = replayed(A, truth, config)[1]
    assert_same_path(traj, want)
    assert np.abs(np.subtract(traj.error_ds, want.error_ds)).max() <= REPLAY_TOL
    assert np.abs(np.subtract(traj.lemma1_rhs[1:], want.lemma1_rhs[1:])).max() <= REPLAY_TOL


def trial_inputs(n, k, T, seed, eta=DEFAULT_ETA):
    """A trial's truth and solver config, as `montecarlo._convergence_trial`
    derives them from its seed."""
    return (random_sparse_unit(n, k, derive_seed(seed, 0)),
            BIHTConfig(k=k, max_iters=T, eta=eta, init=derive_seed(seed, 2)))


def assert_kept(A, M):
    """Every block a recorded matrix handed out is the completed matrix M's
    entries there, bit for bit."""
    for cols, block in A.column_reads:
        assert block.tobytes() == M.entries[:, cols].tobytes()
    for rows, block in A.row_reads:
        assert block.tobytes() == M.entries[rows].tobytes()


def assert_constraints_hold(A, M):
    """Each dense step's A^T r is the completed matrix's within rounding.
    A column's residual is at most 2 m eps times the sum of |r_i a_ij|
    over its rows plus 10 sqrt(2) ||r||: the classical bound on the
    rounding of a dot product of m terms, doubled, where the conditioning
    also rounds at the scale of r . g - c_j, a normal of variance at most
    2 ||r||^2, taken at 10 of its standard deviations."""
    for r, total in A.dense_reads:
        scale = np.abs(M.entries.T) @ np.abs(r) + 10.0 * math.sqrt(2.0) * np.linalg.norm(r)
        assert (np.abs(M.entries.T @ r - total) <= 2 * A.m * np.finfo(float).eps * scale).all()


class TestDeferredDecisions:
    """A trial's matrix is drawn by deferred decisions: its dense step takes
    one normal for each column it has not drawn, and every later read is
    drawn conditioned on that.  The record replays on the completed matrix,
    every entry handed out is kept, and each dense step's constraint holds
    on the completed matrix within rounding."""

    @pytest.mark.parametrize("i", range(20))
    @pytest.mark.parametrize("eta, dense_steps", [
        (DEFAULT_ETA, 1),
        # A step so short that the iterate barely moves: every step is
        # dense, and the second completes the matrix.
        (1e-3, 20),
    ], ids=["eta", "short steps"])
    def test_trial_replays_on_the_completed_matrix(self, i, eta, dense_steps):
        n, k, m, T = 60, 3, 1200, 20
        seed = derive_seed(SeedSpec(577), i)
        A, traj = recorded_trial(n, k, m, T, seed, eta)
        assert len(A.dense_reads) == dense_steps
        assert_replays(A, traj, *trial_inputs(n, k, T, seed, eta))

    @pytest.mark.parametrize("n, k, m, T, seed", [
        (4, 4, 300, 10, 701),  # k = n: every support takes every column
        (8, 8, 200, 10, 702),
        (200, 5, 3000, 12, 701),
    ])
    def test_other_shapes_replay(self, n, k, m, T, seed):
        seed = SeedSpec(seed)
        A, traj = recorded_trial(n, k, m, T, seed)
        assert_replays(A, traj, *trial_inputs(n, k, T, seed))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_small_runs_replay(self, data):
        # Random signs b as well as measured ones: most rows then stay
        # mismatched, and the dense steps follow one another.
        n = data.draw(st.integers(1, 40))
        k = data.draw(st.integers(1, min(n, 6)))
        m = data.draw(st.integers(1, 400))
        seed = SeedSpec(data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        truth = random_sparse_unit(n, k, derive_seed(seed, 0))
        A = RecordedMatrix(m, n, derive_seed(seed, 1))
        if data.draw(st.booleans()):
            b = sign_measure(A, truth.values)
        else:
            b = SignPattern(sgn(sample_standard_normal(derive_seed(seed, 2), m)))
        eta = data.draw(st.sampled_from([math.sqrt(2.0 * math.pi), 1.0, 0.3]))
        config = BIHTConfig(k=k, max_iters=data.draw(st.integers(1, 8)), eta=eta,
                            init=derive_seed(seed, 3))
        traj = run_biht(A, b, config, truth=truth)
        # Random signs, or a tiny m, leave the steps without contraction,
        # and they can grow a rounding difference several times a step; so
        # only the path is compared here, and the floats in the trials'
        # cases above.
        M, want = replayed(A, truth, config, b)
        assert_same_path(traj, want)
        assert_kept(A, M)
        assert_constraints_hold(A, M)

    def test_every_entry_handed_out_is_kept(self):
        # Rows and columns agree where they cross, and both are the
        # completed matrix's entries.
        A, _ = recorded_trial(200, 5, 3000, 12, SeedSpec(578))
        assert A.row_reads and A.column_reads
        for rows, row_block in A.row_reads:
            for cols, col_block in A.column_reads:
                assert row_block[:, cols].tobytes() == col_block[rows].tobytes()
        assert_kept(A, completed(A))

    @pytest.mark.parametrize("eta", [DEFAULT_ETA, 1e-3], ids=["eta", "short steps"])
    def test_each_columns_constraint_holds_within_rounding(self, eta):
        A, _ = recorded_trial(200, 5, 3000, 12, SeedSpec(579), eta)
        assert A.dense_reads
        assert_constraints_hold(A, completed(A))

    def test_the_dense_step_draws_one_normal_per_column_not_drawn(self):
        # Rows and columns are drawn whole, their entries where a kept
        # column or row crosses them then replaced by its own.
        m, n = 500, 30
        A = DeferredGaussianMatrix(m, n, SeedSpec(580))
        A.columns(np.array([2, 7]))
        A.rows(np.array([4, 9, 11]))
        assert A.drawn == 2 * m + 3 * n
        r = np.where(np.arange(m) % 2 == 0, 1.0, 0.0)
        A.t_dot(r, np.flatnonzero(r))
        assert A.drawn == 2 * m + 3 * n + (n - 2)
        # A second dense step completes the matrix: each of the other
        # columns, whole.
        A.t_dot(r, np.flatnonzero(r))
        assert A.drawn == 2 * m + 3 * n + (n - 2) + (n - 2) * m

    def test_a_zero_vector_reads_no_column(self):
        A = DeferredGaussianMatrix(5, 3, SeedSpec(582))
        assert sign_measure(A, np.zeros(3)).bits.tolist() == [1] * 5
        assert A.drawn == 0

    def test_each_draw_is_keyed_by_the_matrixs_count_of_draws(self):
        # Draw e is the first normals of the stream derive_seed(seed, e).
        m, n, seed = 50, 6, SeedSpec(581)
        A = DeferredGaussianMatrix(m, n, seed)
        first = A.columns(np.array([1, 4]))
        assert first.T.tobytes() == sample_standard_normal(derive_seed(seed, 0), 2 * m).tobytes()
        rows = A.rows(np.array([3, 8]))
        fresh = sample_standard_normal(derive_seed(seed, 1), 2 * n).reshape(2, n)
        assert rows[:, [0, 2, 3, 5]].tobytes() == fresh[:, [0, 2, 3, 5]].tobytes()
        assert rows[:, [1, 4]].tobytes() == first[[3, 8]].tobytes()


class TestTrajectoryCsv:
    def test_layout(self, tmp_path):
        # `bitsense run`'s trajectory.csv against the trials it writes.
        code = cli.main(["run", "--n", "40", "--k", "2", "--m", "400", "--trials", "2",
                         "--iters", "3", "--seed", "50", "--output-dir", str(tmp_path)])
        assert code == 0
        trajs = convergence_trials(40, 2, 400, 2, 3, SeedSpec(50))
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "trial,iter,d_s,mismatch_L,lemma1_rhs"
        assert len(lines) == 1 + 2 * 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[4] == "nan"
        # d_s column round-trips as float64
        row = lines[2].split(",")
        assert float(row[2]) == trajs[0].error_ds[1]
        assert int(row[3]) == trajs[0].mismatch[1]
