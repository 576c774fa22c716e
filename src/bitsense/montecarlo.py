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
instances (the only trial pipeline; the CLI's ``run`` uses it too).  The
trials and the validator suite run their BLAS products on one thread (see
`rng._one_blas_thread`); the validators called one by one keep the caller's
threading.  The correction map of a stack of sampled matrices is formed in
one place (`_corrections`) and split along e- and e+ by
`raic.orthogonal_decompose`.

Mean checks pass at |z| <= 4 (false-failure rate below 1e-4 per assertion);
tail checks pass when the empirical frequency does not exceed the theoretical
bound by more than three binomial standard errors.  Every validator is
deterministic given its SeedSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biht import BIHTConfig, Trajectory, run_biht
from .core import (
    _pair_directions,
    gaussian_matrix,
    random_sparse_unit,
    sgn,
    sign_measure,
    sphere_distance,
)
from .raic import DEFAULT_ETA, orthogonal_decompose
from .rng import SeedSpec, _one_blas_thread, derive_seed, sample_standard_normal

# Keeps any single sampled block near 64 MB of float64.
_CHUNK_ELEMS = 8_000_000

# Deterministic slack allowed on the per-iteration error bound before a
# convergence run aborts; the bound is exact in real arithmetic.
ERROR_BOUND_SLACK = 1e-9


def _unit(v, name):
    a = np.asarray(v, dtype=np.float64)
    nrm = float(np.linalg.norm(a))
    if nrm == 0.0:
        raise ValueError(f"{name} must be nonzero")
    return a / nrm


def _normal_blocks(seed: SeedSpec, count: int, *shape: int):
    """Yield (take, *shape) standard-normal blocks, ``count`` items (rows or
    whole trial matrices) in all, bit-identical to one-shot sampling."""
    size = math.prod(shape)
    per = max(1, _CHUNK_ELEMS // size)
    done = 0
    while done < count:
        take = min(per, count - done)
        block = sample_standard_normal(seed, take * size, offset=done * size)
        yield block.reshape(take, *shape)
        done += take


def _corrections(Z, u, v):
    """(ell, H) for a stack Z of t sampled m x n matrices and unit u, v:
    ell[t] counts the rows of Z[t] where sgn(Z[t] u) != sgn(Z[t] v), and
    H[t] = Z[t]^T (sgn(Z[t] u) - sgn(Z[t] v)) / 2 is (m / eta) h_{Z[t]}(u, v).
    """
    S = sgn(Z @ np.stack((u, v), axis=1))
    r = 0.5 * (S[..., 0].astype(np.float64) - S[..., 1])
    return np.count_nonzero(r, axis=1), np.einsum("tmi,tm->ti", Z, r)


def mismatch_probability(u, v, draws: int, seed: SeedSpec, sign_fn=None) -> float:
    """Fraction of Gaussian rows whose signs differ between u and v.

    Converges to angular_distance(u, v) / pi.  ``sign_fn`` is a fault
    injection hook for the CLI self-test; leave it at None for the real
    sign convention.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    uu = _unit(u, "u")
    vv = _unit(v, "v")
    s = sgn if sign_fn is None else sign_fn
    hits = 0
    for block in _normal_blocks(seed, draws, uu.size):
        hits += int(np.count_nonzero(s(block @ uu) != s(block @ vv)))
    return hits / draws


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
    if not (0.0 <= beta <= math.pi / 2.0):
        raise ValueError("beta must lie in [0, pi/2]")
    if m < 1 or trials < 1:
        raise ValueError("m and trials must be >= 1")
    uu = _unit(u, "u")
    # The band theta in [pi/2 - beta, pi/2 + beta] is |cos(theta)| <= sin(beta).
    sin_beta = math.sin(beta)
    flags = np.empty(trials * m, dtype=bool)
    done = 0
    for block in _normal_blocks(seed, trials * m, uu.size):
        cosines = (block @ uu) / np.linalg.norm(block, axis=1)
        flags[done : done + block.shape[0]] = np.abs(cosines) <= sin_beta
        done += block.shape[0]
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
    if m < 1 or trials < 2:
        raise ValueError("m must be >= 1 and trials >= 2 (one trial has no standard error)")
    uu = _unit(u, "u")
    vv = _unit(v, "v")
    _pair_directions(uu, vv)  # rejects u = +-v before sampling
    d_s = sphere_distance(uu, vv)

    proj_minus = np.empty(trials)
    proj_plus = np.empty(trials)
    done = 0
    for Z in _normal_blocks(seed, trials, m, uu.size):
        nt = Z.shape[0]
        _, H = _corrections(Z, uu, vv)
        proj_minus[done : done + nt], proj_plus[done : done + nt], _ = orthogonal_decompose(
            (DEFAULT_ETA / m) * H, uu, vv
        )
        done += nt
    return ProjectionStats(
        mean_minus=float(proj_minus.mean()),
        mean_plus=float(proj_plus.mean()),
        se_minus=float(proj_minus.std(ddof=1) / math.sqrt(trials)),
        se_plus=float(proj_plus.std(ddof=1) / math.sqrt(trials)),
        d_s=d_s,
    )


@dataclass(frozen=True)
class TailCheckRow:
    name: str
    empirical: float
    bound: float
    se: float
    used_draws: int
    passed: bool


def tail_frequency_check(
    u, v, m: int, trials: int, t_param: float, seed: SeedSpec
) -> list[TailCheckRow]:
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
    """
    if t_param <= 0:
        raise ValueError("t_param must be positive")
    if m < 1 or trials < 1:
        raise ValueError("m and trials must be >= 1")
    uu = _unit(u, "u")
    vv = _unit(v, "v")
    n = uu.size
    theta = _pair_directions(uu, vv)[2]
    d_s = sphere_distance(uu, vv)
    supp = np.flatnonzero(np.abs(uu) + np.abs(vv))
    k = max(int(np.count_nonzero(uu)), int(np.count_nonzero(vv)))

    exceed = np.zeros(3, dtype=np.int64)
    bound_sum = np.zeros(3)
    used = 0
    for Z in _normal_blocks(seed, trials, m, n):
        ell, H = _corrections(Z, uu, vv)
        x_minus, x_plus, g = orthogonal_decompose(H / m, uu, vv)
        # Residual component, restricted to supp(u) u supp(v).
        g_norm = np.linalg.norm(g[:, supp], axis=1)

        live = ell > 0
        lm = ell[live]
        target = math.sqrt(math.pi / 2.0) * (lm / m) * (d_s / theta)
        dev = lm * t_param / m
        exceed[0] += int(np.count_nonzero(np.abs(x_minus[live] - target) >= dev))
        exceed[1] += int(np.count_nonzero(np.abs(x_plus[live]) >= dev))
        g_thresh = 2.0 * np.sqrt(2.0 * k * lm) / m + dev
        exceed[2] += int(np.count_nonzero(g_norm[live] >= g_thresh))
        half = np.minimum(1.0, 2.0 * np.exp(-0.5 * lm * t_param**2))
        eighth = np.minimum(1.0, 2.0 * np.exp(-0.125 * lm * t_param**2))
        bound_sum[0] += float(half.sum())
        bound_sum[1] += float(half.sum())
        bound_sum[2] += float(eighth.sum())
        used += int(np.count_nonzero(live))

    rows = []
    names = ("proj_minus_tail", "proj_plus_tail", "residual_tail")
    for i, name in enumerate(names):
        if used == 0:
            rows.append(TailCheckRow(name, 0.0, 1.0, 0.0, 0, True))
            continue
        emp = exceed[i] / used
        bnd = bound_sum[i] / used
        se = math.sqrt(max(bnd * (1.0 - bnd), 1e-12) / used)
        rows.append(
            TailCheckRow(
                name=name,
                empirical=float(emp),
                bound=float(bnd),
                se=float(se),
                used_draws=used,
                passed=bool(emp <= bnd + 3.0 * se),
            )
        )
    return rows


class ErrorBoundViolation(RuntimeError):
    """An iterate's error exceeded its deterministic bound beyond rounding slack."""


def _convergence_trial(n, k, m, T, eta, trial_seed) -> Trajectory:
    x = random_sparse_unit(n, k, derive_seed(trial_seed, 0))
    A = gaussian_matrix(m, n, derive_seed(trial_seed, 1))
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
    iterate; a violation raises ErrorBoundViolation with diagnostics.  The
    products run on one BLAS thread and the caller's count is restored
    afterwards, so the results do not depend on it.
    """
    if trials < 1 or T < 1:
        raise ValueError("trials and T (iterations) must be >= 1")
    with _one_blas_thread():
        return [
            _convergence_trial(n, k, m, T, eta, derive_seed(seed, i)) for i in range(trials)
        ]


# ---------------------------------------------------------------------------
# Validator suite (CLI `validate` subcommand).


@dataclass(frozen=True)
class ValidatorRow:
    name: str
    estimate: float
    theory: float
    se: float
    z: float
    passed: bool


# Fault injection used by the CLI self-test: misclassifies the band [0, 0.5)
# as negative, which shifts every mismatch frequency by far more than 4 SEs.
def _broken_sign(a):
    return np.where(np.asarray(a) >= 0.5, np.int8(1), np.int8(-1))


def _mean_row(name, estimate, theory, se) -> ValidatorRow:
    # With no spread (or a NaN one) to judge by, only an exact hit passes.
    z = (estimate - theory) / se if se > 0 else (0.0 if estimate == theory else math.inf)
    return ValidatorRow(name, estimate, theory, se, z, abs(z) <= 4.0)


def _pair_at_angle(theta: float, n: int = 8):
    u = np.zeros(n)
    v = np.zeros(n)
    u[0] = 1.0
    v[0] = math.cos(theta)
    v[1] = math.sin(theta)
    return u, v


def run_validator_suite(
    seed: SeedSpec,
    mismatch_draws: int = 100_000,
    projection_trials: int = 2_000,
    tail_trials: int = 400,
    break_sgn_zero: bool = False,
) -> list[ValidatorRow]:
    """The standard battery: mismatch rates, band counts, projections, tails.

    Returns one row per check; a row fails when its mean statistic strays
    past 4 SEs (or a tail frequency exceeds its bound by more than 3 SEs).
    Like `convergence_trials`, it runs its products on one BLAS thread.
    """
    sign_fn = _broken_sign if break_sgn_zero else None
    rows = []
    with _one_blas_thread():
        for label, theta in (("pi_6", math.pi / 6), ("pi_3", math.pi / 3), ("pi_2", math.pi / 2)):
            u, v = _pair_at_angle(theta)
            p = theta / math.pi
            est = mismatch_probability(
                u, v, mismatch_draws, derive_seed(seed, len(rows)), sign_fn=sign_fn
            )
            se = math.sqrt(p * (1.0 - p) / mismatch_draws)
            rows.append(_mean_row(f"mismatch_theta_{label}", est, p, se))

        band = band_count_mean(
            np.array([1.0, 0.0]), math.pi / 6, 1000, 100, derive_seed(seed, 10)
        )
        rows.append(
            _mean_row(
                "band_count_beta_pi_6",
                band.mean,
                band.expected,
                band.sample_sd / math.sqrt(band.counts.size),
            )
        )

        u = np.zeros(16)
        v = np.zeros(16)
        u[0] = 1.0
        v[1] = 1.0
        proj = projection_expectation(u, v, 200, projection_trials, derive_seed(seed, 11))
        rows.append(_mean_row("proj_minus_orthogonal", proj.mean_minus, proj.d_s, proj.se_minus))
        rows.append(_mean_row("proj_plus_orthogonal", proj.mean_plus, 0.0, proj.se_plus))

        ku = np.zeros(32)
        kv = np.zeros(32)
        ku[:3] = (0.6, 0.64, 0.48)
        kv[2:5] = (0.48, 0.6, 0.64)
        # t = 0.2 puts the sub-Gaussian bounds in a nontrivial range (roughly
        # 0.03 for the projections, 0.7 for the residual) at these draws.
        for row in tail_frequency_check(ku, kv, 500, tail_trials, 0.2, derive_seed(seed, 12)):
            z = (row.empirical - row.bound) / row.se if row.se > 0 else 0.0
            rows.append(
                ValidatorRow(row.name, row.empirical, row.bound, row.se, z, row.passed)
            )
    return rows


def write_validator_csv(path, rows: list[ValidatorRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("name,estimate,theory,se,z,pass\n")
        for r in rows:
            fh.write(
                f"{r.name},{float(r.estimate)!r},{float(r.theory)!r},"
                f"{float(r.se)!r},{float(r.z)!r},{'true' if r.passed else 'false'}\n"
            )
