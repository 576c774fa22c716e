"""Monte Carlo validators for the probabilistic claims behind the solver.

Each validator simulates fresh Gaussian measurements under a derived seed and
compares an empirical statistic against its known value:

* sign-mismatch frequency of a vector pair  ->  angle / pi
* rows landing in an angular band of half-width beta around the equator
  ->  2 beta m / pi in expectation
* projections of the correction map onto the difference / sum directions
  ->  ||u - v|| and 0 in expectation
* conditional tail frequencies of those projections  ->  sub-Gaussian bounds

plus the end-to-end convergence trials, which run the solver on fresh random
instances (the only trial pipeline; the CLI's ``run`` uses it too).  A
trial's matrix is a `core.DeferredGaussianMatrix`: the solver reads the
columns on its supports, the rows where the signs disagree and, in its
first step, A^T r over about m/2 mismatched rows.  The matrix draws the
columns and rows it is asked for and keeps them, and answers A^T r with one
normal for each column it has not drawn; later reads are drawn conditioned
on those normals.  So a trial draws a small share of its m n normals
(`BENCH_41.json`, "normals_per_trial"), and its matrix is exactly i.i.d.
Gaussian, though not ``gaussian_matrix``'s.  The trials and the validator
suite run their BLAS products on one thread
(see `_parallel._one_blas_thread`); the validators called one by one keep
the caller's threading.  The trials and the suite's six validator calls
run side by side on the package's thread pool, whose users
`_parallel._map` lists, each drawing serially on its worker.  The
correction map of a stack of sampled matrices is formed in one place
(`_corrections`) and split along e- and e+ by `raic.orthogonal_decompose`.

The validators of a pair (u, v) draw only the columns they read, from the
first to the last on which u or v is nonzero (`_read_columns`), and run
their kernels on those columns alone: the sign products take u and v cut to
the same span.  The columns left out met u and v only as products with
zeros, so the signs, the mismatch counts and the correction map's entries
come out bit for bit as from full rows.  On the default battery this draws
2.6M normals in place of 15.4M, in blocks of at most `_CHUNK_ELEMS` drawn
normals (1 MiB), so that its peak RSS does not grow with its draw counts.
The one sum that would move is the split along e- and e+, whose row dots
over the span's 2-5 entries would round in another order than over n; so
`_corrections` hands back its stack of corrections scattered into zero rows
of full width, and the split runs on those as before.  `band_count_mean`
takes each row's norm and draws full rows, each from its own key like any
block.

Mean checks pass at |z| <= 4 (false-failure rate below 1e-4 per assertion);
tail checks pass when the empirical frequency does not exceed the theoretical
bound by more than three binomial standard errors.  Every validator is
deterministic given its SeedSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._inputs import _integer, _norm, _real, _vector
from ._parallel import _map, _one_blas_thread
from .biht import BIHTConfig, Trajectory, run_biht
from .core import (
    DeferredGaussianMatrix,
    _nonnegative,
    _pair_directions,
    random_sparse_unit,
    sign_measure,
    sphere_distance,
)
from .raic import DEFAULT_ETA, orthogonal_decompose
from .rng import SeedSpec, derive_seed, sample_standard_normal_block

# A block of `_map_normal_blocks` draws at most this many normals, 1 MiB of
# float64.  The battery's band and mismatch validators draw 2 columns a row
# and take their 100 000 rows in two blocks; projection takes 327 trials a
# block, tails 52.  Sized in elements of full width (1M), band and mismatch
# took all their rows in one block: the battery peaked 9.5 MB above its
# imports, not 7.1, and `validate` peak RSS read 0.6-0.8 MB higher (medians
# of two sets of 10 pairs of 20 s runs; 2 vCPU; BENCH_35.json).  A budget
# of 1 << 16 read 2.2-2.3 MB lower, but run_s was worse in 6 of 8 pairs.
_CHUNK_ELEMS = 1 << 17

# Deterministic slack allowed on the per-iteration error bound before a
# convergence run aborts; the bound is exact in real arithmetic.
ERROR_BOUND_SLACK = 1e-9


def _unit(v, name, n=None):
    """v / ||v||_2 for a vector v (of length n when given) that is not zero."""
    a = _vector(v, name, n)
    nrm = _norm(a, name)
    if nrm == 0.0:
        raise ValueError(f"{name} must be nonzero")
    return a / nrm


def _support(u, v) -> np.ndarray:
    """The columns on which u or v is nonzero."""
    return np.flatnonzero(np.abs(u) + np.abs(v))


def _read_columns(supp) -> tuple[int, int]:
    """(c0, c1): the span from the first to the last column of the support
    ``supp``, the columns of a sampled row that products with u and v read."""
    return int(supp[0]), int(supp[-1]) + 1


def _map_normal_blocks(stat, seed: SeedSpec, count: int, *shape: int, columns=None):
    """``stat`` over standard-normal blocks of ``count`` items (rows or whole
    trial matrices) in all, its results joined along the items.

    Each block is a fresh ``(take, *shape[:-1], c1 - c0)`` array: bit for
    bit the columns [c0, c1) = ``columns`` of the last axis (all when None)
    of one-shot sampling of ``(count, *shape)``, drawn without the other
    columns.  A block is sized by the normals it draws, ``take * rows *
    (c1 - c0)`` for ``rows`` sampled rows an item: at most ``_CHUNK_ELEMS``
    of them, or one item when an item draws more.
    ``stat`` maps a block to a tuple of arrays with one entry per item of
    the block; the result is the tuple of those arrays joined over the
    blocks, so it does not depend on how the items were blocked.
    """
    n = shape[-1]
    c0, c1 = (0, n) if columns is None else columns
    rows = math.prod(shape) // n  # sampled rows per item
    per = max(1, _CHUNK_ELEMS // (rows * (c1 - c0)))
    parts = []
    for done in range(0, count, per):
        take = min(per, count - done)
        drawn = sample_standard_normal_block(
            seed, n, range(done * rows, (done + take) * rows), range(c0, c1)
        )
        parts.append(stat(drawn.reshape(take, *shape[:-1], c1 - c0)))
    return tuple(map(np.concatenate, zip(*parts)))


def _corrections(Z, u, v, c0=0):
    """(ell, H) for a stack Z of t sampled m x n matrices and unit u, v, where
    Z holds only the columns [c0, c0 + w) of each matrix (w = Z.shape[-1])
    and u, v are zero outside them: ell[t] counts the rows of Z[t] where
    sgn(Z[t] u) != sgn(Z[t] v), and H[t] = Z[t]^T (sgn(Z[t] u) - sgn(Z[t] v)) / 2
    is (m / eta) h_{Z[t]}(u, v), a t x n array that is 0 outside [c0, c0 + w).
    """
    w = Z.shape[-1]
    bits = _nonnegative(Z @ np.stack((u[c0 : c0 + w], v[c0 : c0 + w]), axis=1))
    r = np.subtract(bits[..., 0], bits[..., 1], dtype=np.float64)  # (s_u - s_v) / 2
    H = np.zeros((Z.shape[0], u.size))
    H[:, c0 : c0 + w] = np.einsum("tmi,tm->ti", Z, r)
    return np.count_nonzero(r, axis=1), H


def mismatch_probability(u, v, draws: int, seed: SeedSpec, sign_fn=None) -> float:
    """Fraction of Gaussian rows whose signs differ between u and v.

    Converges to theta / pi, theta the angle between u and v.  ``sign_fn``
    is a fault injection hook for the CLI self-test; leave it at None for
    the real sign convention.
    """
    draws = _integer(draws, "draws", 1)
    uu = _unit(u, "u")
    vv = _unit(v, "v", uu.size)
    s = _nonnegative if sign_fn is None else sign_fn
    c0, c1 = _read_columns(_support(uu, vv))
    uc, vc = uu[c0:c1], vv[c0:c1]

    def mismatched(block):
        return (s(block @ uc) != s(block @ vc),)

    (hits,) = _map_normal_blocks(mismatched, seed, draws, uu.size, columns=(c0, c1))
    return int(np.count_nonzero(hits)) / draws


@dataclass(frozen=True)
class BandCountStats:
    """Per-trial counts of rows within beta of the equator of u."""

    mean: float
    sample_sd: float
    counts: np.ndarray
    expected: float


def band_count_mean(
    u, beta: float, m: int, trials: int, seed: SeedSpec
) -> BandCountStats:
    """Empirical mean of the equatorial band count against 2 beta m / pi.

    Counts rows whose angle to u lies within beta of perpendicular.  The
    reference expectation 2 beta m / pi is the rotationally uniform (planar)
    value, exact when u is two-dimensional; in higher ambient dimension the
    angle of a Gaussian row concentrates near the equator and the count
    exceeds it, so validate with a 2-d direction.
    """
    beta = _real(beta, "beta", 0, math.pi / 2.0, closed=True)
    m, trials = _integer(m, "m", 1), _integer(trials, "trials", 1)
    uu = _unit(u, "u")
    # The band theta in [pi/2 - beta, pi/2 + beta] is |cos(theta)| <= sin(beta).
    sin_beta = math.sin(beta)

    def in_band(block):
        return (np.abs((block @ uu) / np.linalg.norm(block, axis=1)) <= sin_beta,)

    (flags,) = _map_normal_blocks(in_band, seed, trials * m, uu.size)
    counts = flags.reshape(trials, m).sum(axis=1).astype(np.float64)
    return BandCountStats(
        mean=float(counts.mean()),
        sample_sd=float(counts.std(ddof=1)) if trials > 1 else 0.0,
        counts=counts,
        expected=2.0 * beta * m / math.pi,
    )


@dataclass(frozen=True)
class ProjectionStats:
    """Sampled projections of the correction map onto the pair directions."""

    mean_minus: float
    mean_plus: float
    se_minus: float
    se_plus: float
    d_s: float  # expected value of the minus projection; plus expects 0


def projection_expectation(u, v, m: int, trials: int, seed: SeedSpec) -> ProjectionStats:
    """Means of <e-, h_A(u, v)> and <e+, h_A(u, v)> over fresh matrices.

    With eta = sqrt(2 pi) and unit u, v the minus projection is an unbiased
    estimator of ||u - v|| and the plus projection of 0; standard errors are
    sample SDs over trials divided by sqrt(trials), so trials must be >= 2.
    """
    m, trials = _integer(m, "m", 1), _integer(trials, "trials", 2)
    uu = _unit(u, "u")
    vv = _unit(v, "v", uu.size)
    _pair_directions(uu, vv)  # rejects u = +-v before sampling
    d_s = sphere_distance(uu, vv)

    columns = _read_columns(_support(uu, vv))

    def projections(Z):
        _, H = _corrections(Z, uu, vv, columns[0])
        return orthogonal_decompose((DEFAULT_ETA / m) * H, uu, vv)[:2]

    proj_minus, proj_plus = _map_normal_blocks(
        projections, seed, trials, m, uu.size, columns=columns
    )
    return ProjectionStats(
        mean_minus=float(proj_minus.mean()),
        mean_plus=float(proj_plus.mean()),
        se_minus=float(proj_minus.std(ddof=1) / math.sqrt(trials)),
        se_plus=float(proj_plus.std(ddof=1) / math.sqrt(trials)),
        d_s=d_s,
    )


# One row of the validator battery; a tail check returns three.
@dataclass(frozen=True)
class ValidatorRow:
    name: str
    estimate: float
    theory: float
    se: float
    z: float
    passed: bool


def tail_frequency_check(
    u, v, m: int, trials: int, t_param: float, seed: SeedSpec
) -> list[ValidatorRow]:
    """Empirical tail frequencies of the three projection statistics.

    For each fresh matrix draw with realized mismatch count ell > 0, checks
    whether (per-row-normalized by 1/eta)

      * the minus projection deviates from sqrt(pi/2) (ell/m) d_S/theta
        by at least ell t / m                        (bound 2 exp(-ell t^2/2))
      * the plus projection reaches ell t / m in magnitude     (same bound)
      * the restricted residual component reaches
        2 sqrt(2 k ell)/m + ell t / m               (bound 2 exp(-ell t^2/8))

    The comparison bound for each statistic is the average of the per-draw
    bounds at the realized ell (the inequalities hold for every conditioned
    ell, so plugging in the realized one is valid).  PASS means the
    empirical frequency is at most bound + 3 binomial SEs.  Draws with
    ell = 0 carry no information about these conditional laws and are
    skipped.

    Returns the three rows of the validator battery: ``estimate`` the
    empirical frequency, ``theory`` the bound, ``se`` the binomial SE at
    the bound and ``z`` = (estimate - theory) / se.  When no draw has
    ell > 0 each row is (0.0, 1.0, 0.0, 0.0) and passes.
    """
    t_param = _real(t_param, "t_param", 0, math.inf)
    m, trials = _integer(m, "m", 1), _integer(trials, "trials", 1)
    uu = _unit(u, "u")
    vv = _unit(v, "v", uu.size)
    theta = _pair_directions(uu, vv)[2]
    d_s = sphere_distance(uu, vv)
    supp = _support(uu, vv)
    k = max(int(np.count_nonzero(uu)), int(np.count_nonzero(vv)))

    # Per-trial statistics first, then every count and bound from them at
    # once, so that no sum depends on how the trials were blocked.
    columns = _read_columns(supp)

    def statistics(Z):
        ell, H = _corrections(Z, uu, vv, columns[0])
        x_minus, x_plus, g = orthogonal_decompose(H / m, uu, vv)
        # Residual component, restricted to supp(u) u supp(v).
        return ell, x_minus, x_plus, np.linalg.norm(g[:, supp], axis=1)

    ell, x_minus, x_plus, g_norm = _map_normal_blocks(
        statistics, seed, trials, m, uu.size, columns=columns
    )

    live = ell > 0
    lm = ell[live]
    target = math.sqrt(math.pi / 2.0) * (lm / m) * (d_s / theta)
    dev = lm * t_param / m
    g_thresh = 2.0 * np.sqrt(2.0 * k * lm) / m + dev
    exceed = (
        int(np.count_nonzero(np.abs(x_minus[live] - target) >= dev)),
        int(np.count_nonzero(np.abs(x_plus[live]) >= dev)),
        int(np.count_nonzero(g_norm[live] >= g_thresh)),
    )
    half = float(np.minimum(1.0, 2.0 * np.exp(-0.5 * lm * t_param**2)).sum())
    eighth = float(np.minimum(1.0, 2.0 * np.exp(-0.125 * lm * t_param**2)).sum())
    bound_sum = (half, half, eighth)
    used = int(np.count_nonzero(live))

    rows = []
    names = ("proj_minus_tail", "proj_plus_tail", "residual_tail")
    for i, name in enumerate(names):
        if used == 0:
            rows.append(ValidatorRow(name, 0.0, 1.0, 0.0, 0.0, True))
            continue
        emp = exceed[i] / used
        bnd = bound_sum[i] / used
        se = math.sqrt(max(bnd * (1.0 - bnd), 1e-12) / used)
        rows.append(ValidatorRow(name, emp, bnd, se, (emp - bnd) / se, emp <= bnd + 3.0 * se))
    return rows


class ErrorBoundViolation(RuntimeError):
    """An iterate's error exceeded its deterministic bound beyond rounding slack."""


def _convergence_trial(n, k, m, T, eta, trial_seed) -> Trajectory:
    x = random_sparse_unit(n, k, derive_seed(trial_seed, 0))
    A = DeferredGaussianMatrix(m, n, derive_seed(trial_seed, 1))
    b = sign_measure(A, x.values)
    config = BIHTConfig(k=k, max_iters=T, eta=eta, init=derive_seed(trial_seed, 2))
    traj = run_biht(A, b, config, truth=x)
    for t in range(1, len(traj.iterates)):
        slack = traj.lemma1_rhs[t] - traj.error_ds[t]
        if slack < -ERROR_BOUND_SLACK:
            raise ErrorBoundViolation(
                "per-iteration error bound violated: "
                f"iter={t} d_s={traj.error_ds[t]!r} rhs={traj.lemma1_rhs[t]!r} "
                f"slack={slack!r} (seed={trial_seed})"
            )
    return traj


def convergence_trials(
    n: int,
    k: int,
    m: int,
    trials: int,
    T: int,
    seed: SeedSpec,
    eta: float = DEFAULT_ETA,
) -> list[Trajectory]:
    """Run the solver on fresh random instances, one trajectory per trial.

    Each trial draws its own signal, matrix, and initial point from derived
    seeds, so trials are independent and the whole experiment is
    reproducible.  The deterministic per-iteration bound is checked on every
    iterate; a violation raises ErrorBoundViolation with diagnostics, from
    the first trial in order that has one.  The trials run side by side on
    the package's thread pool (`_parallel._map`), each drawing serially on
    its worker, and come back in trial order; a lone trial runs in the calling
    thread and spreads its draws over the pool.  A trial's matrix is a
    `core.DeferredGaussianMatrix`, whose draws are keyed by the trial's own
    count of them; the products run on one BLAS thread and the caller's
    count is restored afterwards.  So the results depend on neither that
    count nor the pool's size.
    """
    # Counts as ints and eta as a float before any draw, as `BIHTConfig`
    # holds its own: a float count or a bool would fail deep in the
    # sampler, and a bad eta only once a trial had drawn its signal.
    n, k, m, trials, T = (_integer(value, name, 1) for value, name in
                          ((n, "n"), (k, "k"), (m, "m"), (trials, "trials"), (T, "T (iters)")))
    eta = _real(eta, "eta", 0, math.inf)

    def trial(i):
        return _convergence_trial(n, k, m, T, eta, derive_seed(seed, i))

    with _one_blas_thread():
        return _map(trial, range(trials))


# ---------------------------------------------------------------------------
# Validator suite (CLI `validate` subcommand).


# Fault injection used by the CLI self-test: misclassifies the band [0, 0.5)
# as negative, which shifts every mismatch frequency by far more than 4 SEs.
def _broken_sign(a):
    return np.where(np.asarray(a) >= 0.5, np.int8(1), np.int8(-1))


def _mean_row(name, estimate, theory, se) -> ValidatorRow:
    # With no spread (or a NaN one) to judge by, only an exact hit passes.
    z = (estimate - theory) / se if se > 0 else (0.0 if estimate == theory else math.inf)
    return ValidatorRow(name, estimate, theory, se, z, abs(z) <= 4.0)


def _pair_at_angle(theta: float):
    u = np.zeros(8)
    v = np.zeros(8)
    u[0] = 1.0
    v[0] = math.cos(theta)
    v[1] = math.sin(theta)
    return u, v


def run_validator_suite(seed: SeedSpec, break_sgn_zero: bool = False) -> list[ValidatorRow]:
    """The standard battery: mismatch rates, band counts, projections, tails.

    Returns one row per check; a row fails when its mean statistic strays
    past 4 SEs (or a tail frequency exceeds its bound by more than 3 SEs).
    The six validator calls are independent, each on its own derived seed,
    and run side by side on the package's thread pool (`_parallel._map`),
    longest first; a call's draws then run serially on its worker, and its
    rows come back in the battery's order.  Like `convergence_trials`, it
    runs its products on one BLAS thread, so the rows have the same bits at
    any pool size and any caller's thread count.
    """
    mismatch_draws = 100_000
    sign_fn = _broken_sign if break_sgn_zero else None

    def mismatch(i, label, theta):
        u, v = _pair_at_angle(theta)
        p = theta / math.pi
        est = mismatch_probability(u, v, mismatch_draws, derive_seed(seed, i), sign_fn=sign_fn)
        se = math.sqrt(p * (1.0 - p) / mismatch_draws)
        return [_mean_row(f"mismatch_theta_{label}", est, p, se)]

    def band():
        stats = band_count_mean(
            np.array([1.0, 0.0]), math.pi / 6, 1000, 100, derive_seed(seed, 10)
        )
        se = stats.sample_sd / math.sqrt(stats.counts.size)
        return [_mean_row("band_count_beta_pi_6", stats.mean, stats.expected, se)]

    def projection():
        u = np.zeros(16)
        v = np.zeros(16)
        u[0] = 1.0
        v[1] = 1.0
        proj = projection_expectation(u, v, 200, 2_000, derive_seed(seed, 11))
        return [
            _mean_row("proj_minus_orthogonal", proj.mean_minus, proj.d_s, proj.se_minus),
            _mean_row("proj_plus_orthogonal", proj.mean_plus, 0.0, proj.se_plus),
        ]

    def tails():
        ku = np.zeros(32)
        kv = np.zeros(32)
        ku[:3] = (0.6, 0.64, 0.48)
        kv[2:5] = (0.48, 0.6, 0.64)
        # t = 0.2 puts the sub-Gaussian bounds in a nontrivial range (roughly
        # 0.03 for the projections, 0.7 for the residual) at these draws.
        return tail_frequency_check(ku, kv, 500, 400, 0.2, derive_seed(seed, 12))

    # The jobs in the battery's row order.  On 2 vCPU, one at a time: tails
    # 40 ms, projection 35, band 15, each mismatch angle 7.
    jobs = [
        partial(mismatch, 0, "pi_6", math.pi / 6),
        partial(mismatch, 1, "pi_3", math.pi / 3),
        partial(mismatch, 2, "pi_2", math.pi / 2),
        band,
        projection,
        tails,
    ]
    # Submitted longest first, so that the workers finish close together.
    submitted = (5, 4, 3, 0, 1, 2)
    with _one_blas_thread():
        parts = dict(zip(submitted, _map(lambda j: jobs[j](), submitted)))
    return [row for j in range(len(jobs)) for row in parts[j]]
