"""Normalized binary iterative hard thresholding with full diagnostics.

Each step adds the sign-mismatch correction to the current iterate, keeps the
k largest-magnitude coordinates, and projects back onto the unit sphere:

    h = raic.correction(A, b, sgn(Ax), eta) = (eta / 2m) A^T (b - sgn(Ax))
    step(x) = normalize(top_k(x + h, k))

The recorded per-iteration upper bound (`lemma1_rhs`) restricts that same h:

    4 * ||(truth - x_prev) - h_J||    with h_J = h on supp(truth) u supp(x_prev) u supp(x_next)

which holds deterministically at every iteration; a violation beyond rounding
slack always indicates an implementation bug, never bad luck.  The step is
written once, in `run_biht`'s loop; one iteration of it is a run with
``max_iters=1``.  The loop measures each iterate once and shares its signs
between the mismatch count, the step and the bound.

A step costs O(mk + ln) for k-sparse iterates and l mismatched rows, down
from O(mn).  sgn(Ax) is measured the one way `core.sign_measure` measures
it, from the k columns of A on supp(x), which top-k hands over; the solver
keeps that column block and reads it again only when the support changes.
The correction is non-zero only on the l rows where b and sgn(Ax) differ,
which the mismatch count finds once per iterate; `correction` sums over
those rows alone while l < m/5 (`raic.ROWS_ONLY_BELOW`, the measured
break-even against the dense product) and takes the dense product, summed
over fixed 4 MB row blocks, above it.  l is about m theta / pi for the
angle theta between x and the signal, so late steps are cheap and the
first, with l near m/2, take the dense product.

Those are the solver's only reads of A: the columns on a support
(``A.columns``), the mismatched rows (``A.rows``) and, for a dense step,
A^T r over the row blocks (``A.t_dot``).  So it runs the same on a
`core.MeasurementMatrix`, which answers them by indexing and views, and on
a `core.LazyGaussianMatrix`, which draws only what they ask for; the
convergence trials use the latter, and their records are bit for bit
those of the whole matrix.

A run makes every product on one BLAS thread (`rng._one_blas_thread`),
called bare or from the convergence trials, and hands the caller's count
back when it returns or raises; so its bits do not depend on that count.
The dense step on a `core.MeasurementMatrix` takes its row blocks'
products side by side on the sampler's pool, in place of a second BLAS
thread for each product.  Before, a bare run used
the caller's threading, and at OpenBLAS's default of one thread per core
the idle BLAS worker busy-waited between products: the `solve` benchmark
read ``cpu_s`` at about twice ``run_s`` (8.77 against 4.71 ms, medians
of ten 20 s runs).

A step that leaves the iterate in place (h = 0, once sgn(Ax) = b, or a zero
candidate) is an absorbing fixed point: the signs, hence h and the next
step, stay the same for good.  The loop stops there and repeats that row for
the remaining steps, so the record keeps its max_iters + 1 rows, bit for bit
what running on would give.  On the `solve` benchmark (n=200, k=5, m=10000,
T=30, seed 1) 5385 of 9000 steps were such fixed points.  A moving step
there costs about 90 us (2 vCPU, numpy 2.4): the descent (top-k, the sphere
projection and the iterate's checks) about 32 us, the product with the kept
block and its signs about 35 us, the rows-only correction about 14 us and
the mismatch rows about 7 us.  The first step's dense correction and a
gather of five columns (0.15-0.25 ms) are the largest single costs.  The
dense correction over the four row blocks at m=10000, medians of 600
inside `solve`'s calls in six sets (2 vCPU, OpenBLAS 0.3.31), took
1.24-1.58 ms with its blocks on the pool of 2, against 1.41-1.74 ms one
after another on one BLAS thread and 1.09-1.43 ms on two BLAS threads;
the blocks are what lets a trial's matrix, drawn on read, hold one block
of scratch in place of m x n zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import (
    LazyGaussianMatrix,
    MeasurementMatrix,
    SignPattern,
    SparseUnitVector,
    _Measure,
    random_sparse_unit,
    sphere_distance,
)
from .raic import DEFAULT_ETA, correction, restricted_residual
from .rng import SeedSpec, _one_blas_thread
from .thresholding import _integer, _real, _top_k, normalize


@dataclass(frozen=True)
class BIHTConfig:
    """Solver configuration.

    ``init`` is either a SeedSpec (draw the starting point uniformly at
    random from the k-sparse unit sphere) or a SparseUnitVector to start
    from.  The record always covers ``max_iters`` steps, as the analysis
    assumes a fixed iteration count; steps after an absorbing fixed point
    are filled in, not run.
    """

    k: int
    max_iters: int
    eta: float = DEFAULT_ETA
    init: Union[SeedSpec, SparseUnitVector] = field(default_factory=lambda: SeedSpec(0))

    def __post_init__(self):
        object.__setattr__(self, "eta", _real(self.eta, "eta", 0, math.inf))
        # Stored as int; a float or bool would fail in the sampler or range().
        for name in ("k", "max_iters"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        if not isinstance(self.init, (SeedSpec, SparseUnitVector)):
            raise ValueError("init must be a SeedSpec or a SparseUnitVector")


@dataclass
class Trajectory:
    """Per-iteration record of one solver run (index 0 is the initial point).

    ``error_ds`` and ``lemma1_rhs`` are populated only when the true signal
    was supplied; ``lemma1_rhs[0]`` is NaN since the bound concerns a step.
    """

    iterates: list
    mismatch: list
    error_ds: Optional[list] = None
    lemma1_rhs: Optional[list] = None

    @property
    def final(self) -> SparseUnitVector:
        return self.iterates[-1]


def _descend(x_prev: SparseUnitVector, h: np.ndarray, k: int):
    """(normalize(top_k(x_prev + h, k)), its support), or (x_prev, None)
    when h or the candidate is zero."""
    if not h.any():
        # Exact fixed point: the correction is zero and re-projecting the
        # iterate would only churn last-bit rounding.
        return x_prev, None
    candidate, keep = _top_k(x_prev.values + h, k)
    if not candidate.any():
        return x_prev, None
    x = SparseUnitVector(normalize(candidate), k)
    # top_k kept at most k entries; the support is those of them still nonzero.
    return x, keep[x.values[keep] != 0.0]


def run_biht(
    A: MeasurementMatrix | LazyGaussianMatrix,
    b: SignPattern,
    config: BIHTConfig,
    truth: Optional[SparseUnitVector] = None,
) -> Trajectory:
    """Run the solver for ``config.max_iters`` steps, recording diagnostics.

    Mismatch counts are always recorded (against ``b``).  With ``truth``
    given, the sphere-distance error and the per-step deterministic bound
    are recorded as well.  Identical inputs produce identical trajectories.

    Each step corrects the iterate with its signs s = sgn(A x), descends,
    and measures the result only if it moved, so each iterate is measured
    once.  The mismatched rows are found once per iterate, for its count
    and its correction.  A step that does not move is an absorbing fixed
    point: s, and with it h and every recorded value, stay as they are, so
    the rest of the record repeats that step's row and the loop stops.
    A step that overflows float64, which a huge ``eta`` causes, raises a
    ValueError that names ``eta``.
    """
    if not isinstance(b, SignPattern):
        raise ValueError(f"b must be a SignPattern, got an object of type {type(b).__name__}")
    if len(b) != A.m:
        raise ValueError(f"sign pattern b has length {len(b)}, but A has {A.m} rows")
    if truth is not None:
        if not isinstance(truth, SparseUnitVector):
            raise ValueError("truth must be a SparseUnitVector or None, got an object of type "
                             f"{type(truth).__name__}")
        if truth.n != A.n:
            raise ValueError(f"truth has length {truth.n}, but A has {A.n} columns")
    if isinstance(config.init, SparseUnitVector):
        x = config.init
        if x.n != A.n:
            raise ValueError(f"init has length {x.n}, but A has {A.n} columns")
    else:
        x = random_sparse_unit(A.n, config.k, config.init)

    track = truth is not None
    measure = _Measure(A)
    # Every product of the run, the first measure's too, takes one BLAS
    # thread; the caller's count comes back when it returns or raises.
    with _one_blas_thread():
        s = measure(x.values, x.support())
        rows = np.flatnonzero(b.bits != s)
        iterates = [x]
        mismatch = [rows.size]
        error_ds = [sphere_distance(truth.values, x.values)] if track else None
        lemma1 = [float("nan")] if track else None

        # A step grows with eta, and at an eta near 1e155 (n=40, m=500)
        # the candidate's norm overflows.  Such a step raises here rather
        # than leaving an iterate of norm 0.  The context is entered once a
        # run, not once a step: entering it costs about 2 us (numpy 2.4),
        # some 2% of a moving step.
        try:
            with np.errstate(over="raise"):
                for t in range(1, config.max_iters + 1):
                    x_prev = x
                    h = correction(A, b.bits, s, config.eta, rows)
                    x, moved = _descend(x_prev, h, config.k)
                    if moved is not None:
                        s = measure(x.values, moved)
                        rows = np.flatnonzero(b.bits != s)
                    iterates.append(x)
                    mismatch.append(rows.size)
                    if track:
                        error_ds.append(sphere_distance(truth.values, x.values))
                        # h is h_A(truth, x_prev) with b in place of
                        # sgn(A truth): they agree by construction of the
                        # measurement, and this keeps the bound meaningful
                        # even if a caller passes a b merely claimed to
                        # measure truth.  J is supp(x_next).
                        J = x.values != 0.0
                        residual = restricted_residual(truth.values, x_prev.values, J, h)
                        lemma1.append(4.0 * residual)
                    if moved is None:
                        rest = config.max_iters - t
                        for record in (iterates, mismatch, error_ds, lemma1):
                            if record is not None:
                                record.extend(record[-1:] * rest)
                        break
        except FloatingPointError as exc:
            raise ValueError(
                f"eta={config.eta!r} is too large: a step overflows ({exc})"
            ) from None

    return Trajectory(
        iterates=iterates, mismatch=mismatch, error_ds=error_ds, lemma1_rhs=lemma1
    )
