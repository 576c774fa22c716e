"""Restricted approximate invertibility: correction map, residuals, certification.

The central object is the correction map

    h_A(x, y) = (eta / m) * A^T * (sgn(Ax) - sgn(Ay)) / 2

(`correction`, from the two sign patterns).  A solver step adds it to its
iterate y, with the observed signs standing in for sgn(Ax), and the step's
error bound restricts that same vector to supp(x) u supp(y) u J.  A matrix
approximately inverts the one-bit measurement map when the residual
||(x - y) - h_{A,J}(x, y)|| stays below a1 sqrt(delta d_S(x, y)) + a2 delta
uniformly over sparse unit pairs.

Checking that uniformly is combinatorially infeasible (the covering-net union
bound is astronomically large), so `raic_certify` samples pairs instead,
deliberately including pairs closer than tau = delta / b, which uniform
sampling would never produce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MeasurementMatrix,
    SparseUnitVector,
    random_sparse_unit,
    sgn,
    sphere_distance,
)
from .rng import SeedSpec, derive_seed, random_uniform, sample_standard_normal
from .theory import constants
from .thresholding import threshold_set

# Step size the contraction analysis requires; deviating far from it loses
# the contraction, so treat overrides as experimental.
DEFAULT_ETA = math.sqrt(2.0 * math.pi)


def correction(A: MeasurementMatrix, b, s, eta: float = DEFAULT_ETA) -> np.ndarray:
    """(eta / m) A^T (b - s) / 2 for sign patterns b, s over the rows of A.

    With b = sgn(Ax), s = sgn(Ay) it is h_A(x, y); with b the observed signs
    it is what a solver step adds to its iterate y.  When b == s rowwise it
    is the zero vector, returned without the product.
    """
    bv = np.asarray(b, dtype=np.float64)
    sv = np.asarray(s, dtype=np.float64)
    if bv.shape != (A.m,) or sv.shape != (A.m,):
        raise ValueError(f"sign patterns must have length {A.m}")
    r = 0.5 * (bv - sv)
    if not r.any():
        return np.zeros(A.n)
    return (eta / A.m) * (A.entries.T @ r)


def h_a(A: MeasurementMatrix, x, y, eta: float = DEFAULT_ETA) -> np.ndarray:
    """The correction map h_A(x, y); zero iff sgn(Ax) == sgn(Ay) rowwise.

    Antisymmetric in (x, y).  In expectation over a standard normal A (with
    the default eta) it equals x - y for unit x, y.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    for name, v in (("x", xv), ("y", yv)):
        if v.shape != (A.n,):
            raise ValueError(f"{name} must have length {A.n}")
    return correction(A, sgn(A.entries @ xv), sgn(A.entries @ yv), eta)


def _restrict(h, x, y, J) -> np.ndarray:
    keep = set(np.flatnonzero(x).tolist())
    keep.update(np.flatnonzero(y).tolist())
    keep.update(int(j) for j in J)
    return threshold_set(h, keep)


def h_a_j(A: MeasurementMatrix, x, y, J, eta: float = DEFAULT_ETA) -> np.ndarray:
    """h_A(x, y) restricted to supp(x) u supp(y) u J."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    return _restrict(h_a(A, xv, yv, eta), xv, yv, J)


def orthogonal_decompose(h, u, v):
    """Split h into components along (u-v), (u+v), and an orthogonal remainder.

    Returns (c_minus, c_plus, g) with
    h == c_minus * e_minus + c_plus * e_plus + g exactly (to rounding), where
    e_minus, e_plus are the normalized difference and sum directions.  The
    two directions are orthogonal for unit u, v, giving the Pythagorean
    identity ||h||^2 = c_minus^2 + c_plus^2 + ||g||^2.

    Only unit u, v are accepted; u == +-v leaves a direction undefined.
    """
    hv = np.asarray(h, dtype=np.float64)
    uv = np.asarray(u, dtype=np.float64)
    vv = np.asarray(v, dtype=np.float64)
    for name, w in (("u", uv), ("v", vv)):
        if abs(float(np.linalg.norm(w)) - 1.0) > 1e-6:
            raise ValueError(f"{name} must be a unit vector")
    diff = uv - vv
    summ = uv + vv
    nd = float(np.linalg.norm(diff))
    ns = float(np.linalg.norm(summ))
    if nd < 1e-12 or ns < 1e-12:
        raise ValueError("u = +-v: projection directions are degenerate")
    e_minus = diff / nd
    e_plus = summ / ns
    c_minus = float(np.dot(e_minus, hv))
    c_plus = float(np.dot(e_plus, hv))
    g = hv - c_minus * e_minus - c_plus * e_plus
    return c_minus, c_plus, g


def restricted_residual(x: np.ndarray, y: np.ndarray, J, h: np.ndarray) -> float:
    """||(x - y) - h_J||_2, h_J the precomputed correction h restricted to
    supp(x) u supp(y) u J: the RAIC residual, and a quarter of the solver's bound."""
    return float(np.linalg.norm((x - y) - _restrict(h, x, y, J)))


def raic_residual(
    A: MeasurementMatrix,
    x: SparseUnitVector,
    y: SparseUnitVector,
    J,
    eta: float = DEFAULT_ETA,
) -> float:
    """||(x - y) - h_{A,J}(x, y)||_2."""
    return restricted_residual(x.values, y.values, J, h_a(A, x.values, y.values, eta))


def raic_bound(delta: float, a1: float, a2: float, d_s: float) -> float:
    """The invertibility bound a1 * sqrt(delta * d_s) + a2 * delta."""
    if min(delta, a1, a2, d_s) < 0:
        raise ValueError("all arguments must be nonnegative")
    return a1 * math.sqrt(delta * d_s) + a2 * delta


@dataclass(frozen=True)
class RaicSample:
    pair_id: int
    d_s: float
    regime: str  # "small" if d_s < tau else "large"
    residual: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class RaicReport:
    """Sampled residual-vs-bound records for one measurement matrix."""

    delta: float
    tau: float
    samples: int
    records: tuple
    worst_ratio: float
    n_violations: int

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("pair_id,d_s,regime,residual,bound,ratio\n")
            for r in self.records:
                fh.write(
                    f"{r.pair_id},{float(r.d_s)!r},{r.regime},"
                    f"{float(r.residual)!r},{float(r.bound)!r},{float(r.ratio)!r}\n"
                )

    def summary(self) -> dict:
        return {
            "delta": self.delta,
            "worst_ratio": self.worst_ratio,
            "n_pairs": self.samples,
            "n_violations": self.n_violations,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _ratio(residual: float, bound: float) -> float:
    if bound > 0.0:
        return residual / bound
    return 0.0 if residual == 0.0 else math.inf


def _random_index_set(n: int, max_size: int, seed: SeedSpec) -> list[int]:
    # Size uniform on {0..max_size}, indices uniform without replacement.
    if max_size <= 0:
        return []
    u = random_uniform(seed, n + 1)
    size = int(u[0] * (max_size + 1))
    size = min(size, max_size)
    order = np.argsort(u[1:], kind="stable")
    return [int(i) for i in order[:size]]


def _perturbed_close_pair(
    x: SparseUnitVector, radius: float, seed: SeedSpec
) -> SparseUnitVector:
    """A unit vector within sphere distance ~radius of x, sharing its support."""
    supp = x.support()
    noise = sample_standard_normal(seed, supp.size)
    nrm = float(np.linalg.norm(noise))
    if nrm == 0.0:
        return x
    vals = x.values.copy()
    vals[supp] += (radius / nrm) * noise
    total = float(np.linalg.norm(vals))
    return SparseUnitVector(vals / total, x.k)


def raic_certify(
    A: MeasurementMatrix,
    k: int,
    delta: float,
    num_pairs: int,
    max_j: int,
    seed: SeedSpec,
    num_small: int | None = None,
    eta: float = DEFAULT_ETA,
) -> RaicReport:
    """Sample pairs of k-sparse unit vectors and compare residuals to the bound.

    ``num_small`` of the pairs (default: one fifth) are forced below the
    small-distance threshold tau = delta / b by perturbing a sampled vector
    within its own support at radius tau / 2; the rest are independent draws.
    Each pair also gets a random coordinate set J with ``|J| <= max_j``
    (use k for the certificate's own definition, 2k to probe the wider
    restriction the solver's error analysis relies on).

    Bound constants are the certified (c1, c2); they are loose by design, so
    any ratio above 1 at desk scale indicates an implementation bug rather
    than a theory failure.  Deterministic given ``seed``.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if max_j < 0:
        raise ValueError("max_j must be >= 0")
    if num_small is None:
        num_small = num_pairs // 5
    if not (0 <= num_small <= num_pairs):
        raise ValueError("num_small must satisfy 0 <= num_small <= num_pairs")

    u = constants()
    tau = delta / u.b
    records = []
    for pair_id in range(num_pairs):
        pair_seed = derive_seed(seed, pair_id)
        x = random_sparse_unit(A.n, k, derive_seed(pair_seed, 0))
        if pair_id < num_small:
            y = _perturbed_close_pair(x, tau / 2.0, derive_seed(pair_seed, 1))
        else:
            y = random_sparse_unit(A.n, k, derive_seed(pair_seed, 1))
        J = _random_index_set(A.n, max_j, derive_seed(pair_seed, 2))

        d_s = sphere_distance(x.values, y.values)
        residual = raic_residual(A, x, y, J, eta)
        bound = raic_bound(delta, u.c1, u.c2, d_s)
        records.append(
            RaicSample(
                pair_id=pair_id,
                d_s=d_s,
                regime="small" if d_s < tau else "large",
                residual=residual,
                bound=bound,
                ratio=_ratio(residual, bound),
            )
        )

    worst = max(r.ratio for r in records)
    return RaicReport(
        delta=delta,
        tau=tau,
        samples=num_pairs,
        records=tuple(records),
        worst_ratio=worst,
        n_violations=sum(1 for r in records if r.ratio > 1.0),
    )
