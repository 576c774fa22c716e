import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitsense import cli, core
from bitsense.biht import BIHTConfig, run_biht
from bitsense.core import (
    LazyGaussianMatrix,
    MeasurementMatrix,
    SignPattern,
    SparseUnitVector,
    dense_row_blocks,
    dense_scratch,
    gaussian_matrix,
    random_sparse_unit,
    sgn,
    sign_measure,
)
from bitsense.montecarlo import convergence_trials
from bitsense.raic import DEFAULT_ETA, ROWS_ONLY_BELOW
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


class _BlockLog(np.ndarray):
    """A scratch view that keeps a copy of each block of it that ``np.dot``
    multiplies, in ``blocks``, the list its slices share."""

    def __array_finalize__(self, obj):
        self.blocks = getattr(obj, "blocks", None)

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.dot:
            return super().__array_function__(func, types, args, kwargs)
        self.blocks.append(np.array(args[0]).T)  # args[0] is a block's transpose
        return func(*(np.asarray(a) for a in args), **kwargs)


class RecordingMatrix(LazyGaussianMatrix):
    """A LazyGaussianMatrix that keeps a copy of every block it hands out:
    the column blocks, the rows-only blocks and the dense step's row blocks,
    each with the columns or rows it was asked for.  ``reads`` lists the
    row reads in order, ``"rows"`` or ``"blocks"`` with the rows asked
    for."""

    def __init__(self, m, n, seed, scratch):
        super().__init__(m, n, seed, scratch.view(_BlockLog))
        self.column_reads = []
        self.row_reads = []
        self.block_reads = []
        self.reads = []

    def columns(self, cols):
        block = super().columns(cols)
        self.column_reads.append((cols.copy(), block.copy()))
        return block

    def rows(self, rows):
        self.reads.append(("rows", rows.copy()))
        block = super().rows(rows)
        self.row_reads.append((rows.copy(), block.copy()))
        return block

    def t_dot(self, r, rows):
        self.reads.append(("blocks", rows.copy()))
        self.scratch.blocks = blocks = []
        total = super().t_dot(r, rows)
        starts = np.cumsum([0] + [len(block) for block in blocks[:-1]])
        self.block_reads.append((rows.copy(), list(zip(starts, blocks))))
        return total


def assert_same_record(got, want):
    """Two trajectories equal bit for bit."""
    assert [x.values.tobytes() for x in got.iterates] == [
        x.values.tobytes() for x in want.iterates
    ]
    assert got.mismatch == want.mismatch
    for g, w in ((got.error_ds, want.error_ds), (got.lemma1_rhs, want.lemma1_rhs)):
        assert np.array(g).tobytes() == np.array(w).tobytes()


def assert_drawn_from(lazy, A):
    """Every block ``lazy`` handed out holds A's entries where it was asked
    for them, bit for bit: the columns, the rows, and in each dense row
    block the rows asked for, with zeros on the block's other rows.  The
    dense blocks are those of `dense_row_blocks`, in order.  ``drawn``
    counts the entries asked for."""
    for cols, block in lazy.column_reads:
        assert block.tobytes() == A.entries[:, cols].tobytes()
    for rows, block in lazy.row_reads:
        assert block.tobytes() == A.entries[rows].tobytes()
    for rows, blocks in lazy.block_reads:
        assert [start for start, _ in blocks] == list(dense_row_blocks(A.m, A.n))
        for start, block in blocks:
            whole = A.entries[start : start + len(block)]
            asked = np.isin(np.arange(start, start + len(block)), rows)
            assert block.shape == whole.shape
            assert block[asked].tobytes() == whole[asked].tobytes()
            assert not block[~asked].any()
    widths = sum(cols.size for cols, _ in lazy.column_reads)
    heights = sum(rows.size for _, rows in lazy.reads)
    assert lazy.drawn == A.m * widths + A.n * heights


def lazy_and_whole(n, k, m, seed, measured=True, scratch=None):
    """(lazy, A, truth, b): one matrix drawn on read (in ``scratch``, when
    given) and as a whole, the truth, and signs measured by the lazy matrix
    or random."""
    truth = random_sparse_unit(n, k, derive_seed(seed, 0))
    if scratch is None:
        scratch = dense_scratch(m, n)
    lazy = RecordingMatrix(m, n, derive_seed(seed, 1), scratch)
    A = gaussian_matrix(m, n, derive_seed(seed, 1))
    if measured:
        b = sign_measure(lazy, truth.values)
        assert b.bits.tobytes() == sign_measure(A, truth.values).bits.tobytes()
    else:
        b = SignPattern(sgn(sample_standard_normal(derive_seed(seed, 2), m)))
    return lazy, A, truth, b


class TestDrawnOnRead:
    """The solver on a matrix drawn where it is read keeps the record of the
    whole matrix bit for bit, and reads only the whole matrix's entries."""

    @pytest.mark.parametrize("n, k, m, T, seed, stops", [
        (60, 3, 1200, 20, 700, True),  # a dense step, rows-only steps, a fixed point
        (60, 3, 1200, 20, 704, False),  # a dense step, then rows-only steps to T
        (4, 4, 300, 10, 701, True),  # k = n: every support takes every column
        (8, 8, 200, 10, 702, False),
        (200, 5, 3000, 12, 701, True),  # the first step's rows span several tiles
        # The dense step crosses row blocks of 2621 rows (n=200): four, the
        # last of 137 rows; two whole ones; and three of 3495 rows (n=150),
        # the last of 10.  At n=7 the second block starts at an address
        # that is not a multiple of 64 bytes.
        (200, 5, 8000, 12, 700, False),
        (200, 5, 5242, 12, 701, True),
        (150, 4, 7000, 12, 700, True),
        (7, 3, 80000, 8, 701, True),
    ])
    def test_run_keeps_the_record_of_the_whole_matrix(self, n, k, m, T, seed, stops):
        lazy, A, truth, b = lazy_and_whole(n, k, m, SeedSpec(seed))
        config = BIHTConfig(k=k, max_iters=T, init=derive_seed(SeedSpec(seed), 3))
        traj = run_biht(lazy, b, config, truth=truth)
        assert_same_record(traj, run_biht(A, b, config, truth=truth))
        assert_drawn_from(lazy, A)
        # Each case takes the steps it is listed for.
        dense = [kind == "blocks" for kind, _ in lazy.reads]
        assert dense == [rows.size >= ROWS_ONLY_BELOW * m for _, rows in lazy.reads]
        assert dense[0] and len(dense) > 1 and not any(dense[1:])
        assert (traj.iterates[-1] is traj.iterates[-2]) == stops
        if k == n:
            assert all(cols.size == n for cols, _ in lazy.column_reads)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_small_runs_keep_the_record_of_the_whole_matrix(self, data):
        n = data.draw(st.integers(1, 40))
        k = data.draw(st.integers(1, min(n, 6)))
        m = data.draw(st.integers(1, 400))
        seed = SeedSpec(data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        lazy, A, truth, b = lazy_and_whole(n, k, m, seed, measured=data.draw(st.booleans()))
        eta = data.draw(st.sampled_from([math.sqrt(2.0 * math.pi), 1.0, 0.3]))
        config = BIHTConfig(k=k, max_iters=data.draw(st.integers(1, 8)), eta=eta,
                            init=derive_seed(seed, 3))
        assert_same_record(run_biht(lazy, b, config, truth=truth),
                           run_biht(A, b, config, truth=truth))
        assert_drawn_from(lazy, A)

    def test_one_scratch_serves_matrix_after_matrix(self):
        # As the trials hand theirs on: each run keeps the record of its
        # whole matrix, and leaves the scratch zero for the next.
        n, k, m, T = 200, 5, 6000, 8
        scratch = dense_scratch(m, n)
        for seed in (SeedSpec(705), SeedSpec(706)):
            lazy, A, truth, b = lazy_and_whole(n, k, m, seed, scratch=scratch)
            config = BIHTConfig(k=k, max_iters=T, init=derive_seed(seed, 3))
            assert_same_record(run_biht(lazy, b, config, truth=truth),
                               run_biht(A, b, config, truth=truth))
            assert_drawn_from(lazy, A)
            assert lazy.block_reads and not scratch.any()

    def test_a_dense_read_left_early_leaves_the_scratch_zero(self, monkeypatch):
        # The second block's draw writes its rows and raises.
        draw = core.sample_standard_normal_block
        calls = []

        def failing(*args, **kwargs):
            calls.append(draw(*args, **kwargs).any())
            if len(calls) == 2:
                raise RuntimeError("draw")

        monkeypatch.setattr(core, "sample_standard_normal_block", failing)
        scratch = dense_scratch(8000, 200)
        lazy = LazyGaussianMatrix(8000, 200, SeedSpec(707), scratch)
        with pytest.raises(RuntimeError, match="draw"):
            lazy.t_dot(np.ones(8000), np.arange(0, 8000, 2))
        assert calls == [True, True]
        assert not scratch.any()


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
