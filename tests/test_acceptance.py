"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Criterion 6's monotonicity clause is asserted at its stated
1e-6 slack even though the plateau of the stochastic solver fluctuates
above that resolution; see the criterion docstring.
"""

import math
import time

import numpy as np
import pytest

from bitsense import cli
from bitsense.biht import BIHTConfig, run_biht
from bitsense.core import gaussian_matrix, random_sparse_unit, sign_measure
from bitsense.montecarlo import (
    band_count_mean,
    convergence_trials,
    mismatch_probability,
    projection_expectation,
)
from bitsense.raic import orthogonal_decompose, raic_certify
from bitsense.rng import SeedSpec, derive_seed, sample_standard_normal
from bitsense.theory import (
    closed_form_bound,
    contraction_condition_holds,
    epsilon_recurrence,
    recurrence_fixed_point,
)

EPS_GRID = [i / 100 for i in range(1, 100)]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def unit(v):
    return v / np.linalg.norm(v)


def test_criterion_1_error_bound_deterministic():
    """25 trials at (n=200, k=5, m=5000, T=15, seed=7): the per-iteration
    error bound holds at all 375 iterations with slack >= -1e-9."""
    start = time.perf_counter()
    base = SeedSpec(7)
    slacks = []
    for i in range(25):
        ts = derive_seed(base, i)
        x = random_sparse_unit(200, 5, derive_seed(ts, 0))
        A = gaussian_matrix(5000, 200, derive_seed(ts, 1))
        b = sign_measure(A, x.values)
        traj = run_biht(A, b, BIHTConfig(k=5, max_iters=15, init=derive_seed(ts, 2)), truth=x)
        slacks.extend(
            traj.lemma1_rhs[t] - traj.error_ds[t] for t in range(1, 16)
        )
    elapsed = time.perf_counter() - start
    ok = len(slacks) == 375 and min(slacks) >= -1e-9 and elapsed < 30.0
    assert report(
        1, ok, f"min slack {min(slacks):.3e} over {len(slacks)} iterations, {elapsed:.1f}s"
    )


def test_criterion_2_sign_mismatch_probability():
    """Three pairs at angles pi/6, pi/3, pi/2; 1e5 rows; 3-sigma binomial."""
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for j, theta in enumerate((math.pi / 6, math.pi / 3, math.pi / 2)):
        u = np.zeros(8)
        v = np.zeros(8)
        u[0] = 1.0
        v[0] = math.cos(theta)
        v[1] = math.sin(theta)
        p = theta / math.pi
        est = mismatch_probability(u, v, 100_000, SeedSpec(2, j))
        lim = 3.0 * math.sqrt(p * (1.0 - p) / 100_000)
        worst = max(worst, abs(est - p) / lim)
        ok = ok and abs(est - p) <= lim
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert report(2, ok, f"worst |dev|/limit {worst:.2f}, {elapsed:.1f}s")


def test_criterion_3_band_counting():
    """beta=pi/6, m=1000, 100 trials: mean within 3 sample-SE of 2 beta m / pi."""
    start = time.perf_counter()
    stats = band_count_mean(np.array([1.0, 0.0]), math.pi / 6, 1000, 100, SeedSpec(3))
    se = stats.sample_sd / math.sqrt(100)
    elapsed = time.perf_counter() - start
    ok = abs(stats.mean - stats.expected) <= 3.0 * se and elapsed < 5.0
    assert report(
        3, ok, f"mean {stats.mean:.2f} vs {stats.expected:.2f} (3se={3 * se:.2f}), {elapsed:.1f}s"
    )


def test_criterion_4_invertibility_in_expectation():
    """Orthogonal unit pair, 1e4 matrix draws at m=200: minus projection
    within 4 SE of sqrt(2), plus projection within 4 SE of 0."""
    start = time.perf_counter()
    u = np.zeros(16)
    v = np.zeros(16)
    u[0] = 1.0
    v[1] = 1.0
    stats = projection_expectation(u, v, 200, 10_000, SeedSpec(4))
    z_minus = abs(stats.mean_minus - math.sqrt(2.0)) / stats.se_minus
    z_plus = abs(stats.mean_plus) / stats.se_plus
    elapsed = time.perf_counter() - start
    ok = z_minus <= 4.0 and z_plus <= 4.0 and elapsed < 60.0
    assert report(4, ok, f"|z_minus|={z_minus:.2f}, |z_plus|={z_plus:.2f}, {elapsed:.1f}s")


def test_criterion_5_recurrence_domination():
    """Pure numeric: domination by the closed form (tolerance 1e-12),
    strict decrease, and fixed point below epsilon, over the 99-point grid
    and t = 0..60.

    Strictness caveat: the recurrence contracts by a factor of about 0.48
    per step, so float64 iterates become exactly constant at the
    representable fixed point near t = 50.  Strict decrease is therefore
    required while the iterate is more than 1e-12 (relative) above the
    limit, with non-increase required everywhere; an early plateau at a
    wrong value still fails via the limit comparison.
    """
    start = time.perf_counter()
    dominated = True
    strictly_decreasing = True
    fixed_point_below = True
    for eps in EPS_GRID:
        limit = recurrence_fixed_point(eps)
        fixed_point_below = fixed_point_below and limit < eps
        # incremental evaluation (epsilon_recurrence is O(t) per call)
        seq = [2.0]
        value = 2.0
        for _ in range(60):
            value = epsilon_step(eps, value)
            seq.append(value)
        assert seq[7] == epsilon_recurrence(eps, 7)  # same arithmetic path
        for t in range(61):
            if seq[t] > closed_form_bound(eps, t) + 1e-12:
                dominated = False
        for t in range(60):
            if seq[t + 1] > seq[t]:
                strictly_decreasing = False
            if seq[t] > limit * (1.0 + 1e-12) and not seq[t + 1] < seq[t]:
                strictly_decreasing = False
    elapsed = time.perf_counter() - start
    ok = dominated and strictly_decreasing and fixed_point_below and elapsed < 1.0
    assert report(
        5,
        ok,
        f"dominated={dominated} strict={strictly_decreasing} "
        f"fixed_point<eps={fixed_point_below}, {elapsed:.2f}s",
    )


def epsilon_step(eps, value):
    from bitsense.theory import constants

    u = constants()
    return 4.0 * u.c1 * math.sqrt(eps / u.c * value) + 4.0 * u.c2 * eps / u.c


@pytest.fixture(scope="module")
def convergence_mean():
    """Per-iteration mean error over the trials, and the seconds it took."""
    start = time.perf_counter()
    trajectories = convergence_trials(200, 5, 10_000, 50, 12, SeedSpec(7))
    mean_ds = np.mean([traj.error_ds for traj in trajectories], axis=0)
    return mean_ds, time.perf_counter() - start


def test_criterion_6_monotone_mean_error(convergence_mean):
    """(n=200, k=5, m=10000, trials=50, T=12): mean error non-increasing
    from t=1 onward at the stated 1e-6 slack.

    This clause is asserted exactly as specified.  The mean of 50 trials
    fluctuates at the 1e-5 .. 1e-4 scale once the solver reaches its noise
    plateau (the iterate keeps moving while a handful of measurement signs
    disagree), so the 1e-6 slack is below the resolution of this Monte
    Carlo statistic and the clause is expected to fail for essentially
    every seed; see the decisions ledger for the measurement.
    """
    mean_ds, elapsed = convergence_mean
    upticks = np.diff(mean_ds)[1:]
    worst = float(upticks.max())
    ok = worst <= 1e-6 and elapsed < 120.0
    assert report(
        "6 (monotone mean, slack 1e-6)",
        ok,
        f"max uptick {worst:.3e} at plateau ~{mean_ds[-1]:.1e}, {elapsed:.1f}s",
    )


def test_criterion_6_final_error(convergence_mean):
    mean_ds, elapsed = convergence_mean
    ok = mean_ds[-1] < 0.15 and elapsed < 120.0
    assert report(
        "6 (final mean error < 0.15)", ok, f"final mean {mean_ds[-1]:.4f}"
    )


def test_criterion_6_first_step_contracts(convergence_mean):
    mean_ds, _ = convergence_mean
    ok = mean_ds[1] < 0.9 * mean_ds[0]
    assert report(
        "6 (first-step contraction)",
        ok,
        f"mean d_s(1)/d_s(0) = {mean_ds[1] / mean_ds[0]:.3f}",
    )


# The window for the rate's slope, set before the seed was chosen: at seeds
# 0-20 the 21 slopes had mean -1.063 and sample SD 0.076 (min -1.188, max
# -0.906), and the window is the mean +- 4 SDs, rounded outward.
RATE_SLOPE_WINDOW = (-1.37, -0.75)


def test_paper_rate_error_falls_as_one_over_m():
    """The paper's rate: normalized BIHT reaches error eps with
    m = O((k / eps) log(n / k)) measurements, so at fixed k and n the error
    falls as 1/m.  n=200, k=5, T=30 and 20 trials at each m from 1250 to
    20000 (seed 0, the same trial seeds at each m): the log-log slope of the
    mean final d_s against m lies in RATE_SLOPE_WINDOW.  This adds to
    criterion 6's monotone clause and does not replace it."""
    start = time.perf_counter()
    ms = np.array([1250, 2500, 5000, 10_000, 20_000])
    means = [
        np.mean([traj.error_ds[-1] for traj in convergence_trials(200, 5, m, 20, 30, SeedSpec(0))])
        for m in ms
    ]
    slope = float(np.polyfit(np.log(ms), np.log(means), 1)[0])
    lo, hi = RATE_SLOPE_WINDOW
    assert report(
        "rate (d_s ~ 1/m)",
        lo <= slope <= hi,
        f"slope {slope:.3f} in [{lo}, {hi}], {time.perf_counter() - start:.1f}s",
    )


# The window for the mean of q_2, q_3 and q_4, set by RATE_SLOPE_WINDOW's
# rule before the seed was chosen: at seeds 0-20 (criterion 6's sizes) the
# 21 means had mean 0.483 and sample SD 0.037 (min 0.381, max 0.542), and
# the window is the mean +- 4 SDs, rounded outward.  It holds 1/2, and it
# is 0.31 wide: step sizes of eta/2 and eta/4 read 0.97-1.08 (seeds 0-2)
# and fall outside, but 2 eta reads 0.58-0.68 there and 0.563 at seed 7,
# inside; criterion 6's final error is what catches 2 eta.
ITERATION_RATE_WINDOW = (0.33, 0.64)


def test_paper_iteration_rate_halves_the_log_drop(convergence_mean):
    """The paper's iteration rate: after t steps the error is within the
    envelope 2^(2^-t) eps^(1 - 2^-t) (`theory.closed_form_bound`), whose
    log falls at each step by half as much as at the step before.  q_t is
    the ratio of successive drops in log(mean d_s), the drop of step t + 1
    over that of step t.  The envelope's q (at the plateau's eps) and the
    mean of q_2, q_3 and q_4 of criterion 6's trials (seed 7) lie in
    ITERATION_RATE_WINDOW.  q_1 is left out: from a random start the first
    step is slower, and q_1 reads 0.52-0.62 at seeds 0-20."""
    mean_ds, _ = convergence_mean
    drops = -np.diff(np.log(mean_ds))
    q = drops[1:] / drops[:-1]  # q[t - 1] is q_t
    rate = float(np.mean(q[1:4]))
    envelope = -np.diff(np.log([closed_form_bound(float(mean_ds[-1]), t) for t in range(3)]))
    halving = float(envelope[1] / envelope[0])
    lo, hi = ITERATION_RATE_WINDOW
    assert lo <= halving <= hi
    assert report(
        "rate (log drop halves)",
        lo <= rate <= hi,
        f"mean q_2..q_4 {rate:.3f} in [{lo}, {hi}], envelope {halving:.3f}",
    )


# The window for the slope of delta_hat against m, set by the same rule:
# at seeds s = 0-20 (the matrix from SeedSpec(s, 0), the pairs from
# SeedSpec(s, 1)) the 21 slopes had mean -0.966 and sample SD 0.047 (min
# -1.051, max -0.847); the window is the mean +- 4 SDs, rounded outward.
DELTA_SLOPE_WINDOW = (-1.16, -0.77)


def test_certificate_delta_falls_as_one_over_m():
    """The paper's invertibility condition holds at a delta of order
    k log(n/k) / m, so the delta each certificate shows
    (`RaicReport.delta_hat`) falls as 1/m.  n=200, k=5, delta=0.01, 500
    pairs with |J| <= k, at each m from 1250 to 20000 (seed 0: the same
    pairs at each m, and each matrix the first m rows of the largest): the
    log-log slope of delta_hat against m lies in DELTA_SLOPE_WINDOW."""
    start = time.perf_counter()
    ms = np.array([1250, 2500, 5000, 10_000, 20_000])
    deltas = [
        raic_certify(gaussian_matrix(m, 200, SeedSpec(0, 0)), 5, 0.01, 500, 5, SeedSpec(0, 1))
        .delta_hat
        for m in ms
    ]
    slope = float(np.polyfit(np.log(ms), np.log(deltas), 1)[0])
    lo, hi = DELTA_SLOPE_WINDOW
    assert report(
        "certificate (delta_hat ~ 1/m)",
        lo <= slope <= hi,
        f"slope {slope:.3f} in [{lo}, {hi}], {time.perf_counter() - start:.1f}s",
    )


def test_criterion_7_orthogonal_decomposition():
    """1000 random (h, u, v): reconstruction and Pythagoras to 1e-10."""
    worst_recon = 0.0
    worst_pyth = 0.0
    seed = SeedSpec(77)
    for i in range(1000):
        n = 9
        u = unit(sample_standard_normal(derive_seed(seed, 3 * i), n))
        v = unit(sample_standard_normal(derive_seed(seed, 3 * i + 1), n))
        h = sample_standard_normal(derive_seed(seed, 3 * i + 2), n)
        c_minus, c_plus, g = orthogonal_decompose(h, u, v)
        e_minus = unit(u - v)
        e_plus = unit(u + v)
        rebuilt = c_minus * e_minus + c_plus * e_plus + g
        worst_recon = max(worst_recon, float(np.max(np.abs(rebuilt - h))))
        pyth = abs(
            np.linalg.norm(h) ** 2 - (c_minus**2 + c_plus**2 + np.linalg.norm(g) ** 2)
        )
        worst_pyth = max(worst_pyth, pyth)
    ok = worst_recon <= 1e-10 and worst_pyth <= 1e-10
    assert report(7, ok, f"worst reconstruction {worst_recon:.2e}, worst split {worst_pyth:.2e}")


def test_criterion_8_sampled_invertibility_certificate():
    """(n=200, k=5, m=5000, delta=0.01, 500 pairs incl. 100 small):
    worst residual/bound ratio at most 1."""
    start = time.perf_counter()
    A = gaussian_matrix(5000, 200, SeedSpec(8, 0))
    rep = raic_certify(A, 5, 0.01, 500, 5, SeedSpec(8, 1), num_small=100)
    elapsed = time.perf_counter() - start
    small = sum(1 for r in rep.records if r.regime == "small")
    ok = rep.worst_ratio <= 1.0 and small >= 100 and elapsed < 60.0
    assert report(
        8,
        ok,
        f"worst ratio {rep.worst_ratio:.3f}, {small} small-regime pairs, {elapsed:.1f}s",
    )


def test_criterion_9_constant_pinning():
    """The contraction condition holds on the grid at b = 379.1038 and
    fails for b = 100."""
    holds = all(contraction_condition_holds(eps, 379.1038) for eps in EPS_GRID)
    fails = not all(contraction_condition_holds(eps, 100.0) for eps in EPS_GRID)
    ok = holds and fails
    assert report(9, ok, f"b=379.1038 holds={holds}, b=100 fails somewhere={fails}")


def test_criterion_10_reproducible_cli_run(tmp_path):
    """Two identical `run` invocations produce byte-identical CSV output."""
    args = ["run", "--n", "100", "--k", "4", "--m", "1500", "--trials", "4",
            "--iters", "6", "--seed", "11"]
    assert cli.main(args + ["--output-dir", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--output-dir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "trajectory.csv").read_bytes()
    second = (tmp_path / "b" / "trajectory.csv").read_bytes()
    ok = first == second and len(first) > 0
    assert report(10, ok, f"{len(first)} bytes, identical={first == second}")
