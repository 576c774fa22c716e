"""Restricted approximate invertibility: correction map, residuals, certification.

The central object is the correction map

    h_A(x, y) = (eta / m) * A^T * (sgn(Ax) - sgn(Ay)) / 2

(`correction`, from the two sign patterns).  `h_a` takes both patterns from
`core.sign_measure`, the one measurement the solver uses too: sgn(Ax) over
the columns of A on supp(x), O(mk) for k-sparse x.  A solver step adds the
correction to its iterate y, with the observed signs standing in for
sgn(Ax), and the step's error bound restricts that same vector to
supp(x) u supp(y) u J, which gives h_{A,J}(x, y).  A matrix approximately
inverts the one-bit measurement map when the residual
||(x - y) - h_{A,J}(x, y)|| (`restricted_residual` of h_A) stays below
a1 sqrt(delta d_S(x, y)) + a2 delta uniformly over sparse unit pairs.
A coordinate set J is a bool mask, and `restricted_residual` is the one
computation of that residual, for the solver's bound and the certificate.

Checking that uniformly is combinatorially infeasible (the covering-net union
bound is astronomically large), so `raic_certify` samples pairs instead,
deliberately including pairs closer than tau = delta / b, which uniform
sampling would never produce.  It works on blocks of PAIR_BLOCK pairs, each
in numpy passes with no Python loop over its pairs:

* the block's seeds come from array forms of `rng.derive_seed` and the
  stream keys, one pass per derivation, equal to the per-pair seeds;
* one sampler call per stream kind draws every x, y and J of the block;
* one pass over row blocks of A signs all of the block's vectors and
  accumulates all of its corrections while the rows are in cache (row
  blocks, not one product with the whole matrix, which raised the peak RSS
  of a certificate by 9-15 MB; see ROW_BLOCK).  Sparse pairs are signed
  through their supports, by `scipy.sparse` CSR products, O(k) per sign
  where a dense product takes O(n); pairs with a row of SUPPORTS_BELOW * n
  nonzeros or more by dense products.  Both give the same signs, off
  products within rounding of 0, and the correction product is the same,
  so the report has the same bytes either way.  The support products do
  not read every entry of A, which a `MeasurementMatrix` keeps finite by
  construction;
* `restricted_residual` restricts every correction of the block with one
  bool mask, and the residuals, d_s, bounds and ratios are array expressions.

Norms are taken as each row's own dot (`core.row_norms`), so every value
is the one a pair-by-pair computation gives, up to the order of the sums in
the block products.  The block products run on one BLAS thread (see
`_parallel._one_blas_thread`), and the blocks themselves side by side on
the package's thread pool (`_parallel._map`), results in pair order.  A
block's draw, residuals and d_s depend only on the seed, its first pair
and A, so the report has the same bytes at any pool size; the bounds, ratios,
``delta_hat`` and records are formed once every block has returned.
`h_a`, `correction` and `restricted_residual` stay the reference
definition, which the solver uses; `correction`'s dense product runs on
one BLAS thread, its rows-only product at the caller's threading (one
thread, within the solver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._inputs import _integer, _mask_checked, _real, _unit_vector, _vector
from ._parallel import _map, _one_blas_thread
from .core import (
    LazyGaussianMatrix,
    MeasurementMatrix,
    _live_row_norms,
    _nonnegative,
    _pair_directions,
    random_sparse_unit_rows,
    row_dots,
    row_norms,
    sign_measure,
    sphere_distance_rows,
)
from .rng import (
    SeedSpec,
    _derive_rows,
    _stream_keys,
    random_uniform_rows,
    sample_standard_normal_rows,
)
from .theory import constants
from .thresholding import _threshold_set, smallest_k

# Step size the contraction analysis requires; deviating far from it loses
# the contraction, so treat overrides as experimental.
DEFAULT_ETA = math.sqrt(2.0 * math.pi)

# `correction` sums over the mismatched rows only while they are fewer than
# this share of m, and takes the dense product, over the row blocks of
# `core.dense_row_blocks`, otherwise.  Measured on 2 vCPU with OpenBLAS
# 0.3.31, n=200, medians of 41 in two sets, under both threadings the
# solver then ran at.  Default threading (a bare `run_biht` before it took
# one BLAS thread, the `solve` benchmark): the blocked dense product took
# 0.67-0.91 ms at m=10000 (the single A.T @ r 0.60-0.73 ms), and the
# rows-only product 0.62-0.70 ms at l = m/5 and 0.90-1.08 ms at m/4; at
# m=5000, blocked 0.31-0.35 ms against rows-only 0.29-0.32 ms at m/5 and
# 0.37 ms at m/4.  One BLAS thread (`run`): blocked 0.82-1.39 ms at
# m=10000, rows-only 0.70-0.82 ms at m/5, 0.80-1.06 ms at m/4 and
# 1.18-1.47 ms at 0.3m; at m=5000, blocked 0.37-0.43 ms against rows-only
# 0.27-0.32 ms at m/5, 0.33 ms at m/4 and 0.39-0.40 ms at 0.3m.  So the break-even is between m/5 and m/4 at
# default threading and near 0.3m on one thread.  The constant stays at
# m/5, now that every run is on one thread: moving it would move the bits
# of the steps in between, and l in [m/5, 0.3m) is rare: one of the 4650
# mismatch counts the `solve` benchmark records (seed 1, 150 solves) and
# none of the acceptance run's (seed 0).
ROWS_ONLY_BELOW = 0.2

# The certifier's block kernel signs a block's pairs through their supports
# while every row of X and Y has fewer than SUPPORTS_BELOW * n nonzeros, and
# by dense products otherwise.  Measured on 2 vCPU with OpenBLAS 0.3.31, one
# BLAS thread, the thread CPU time of one 128-pair block, medians of 25
# rounds interleaved in one process (`BENCH_28.json`), support against
# dense: at n=200, m=5000, 21.3 against 29.2 ms at k=5, 24.2 / 28.3 at
# k=10, 27.4-29.6 / 26.2-26.3 at k=20, 44.5 / 27.7 at k=40 and 82.6 / 27.6
# at k=100; at n=1000, m=2000, 35.7 / 54.3 at k=10, 50.0 / 52.7 at k=50,
# 58.1-63.2 / 50.0-56.7 at k=100 and 77.5-92.4 / 48.7-54.8 at k=200.  So
# the support products lose from k = n/10 on at both sizes.
SUPPORTS_BELOW = 0.1

# `raic_certify` draws and certifies pairs in blocks of PAIR_BLOCK, and the
# block kernel reads A in blocks of ROW_BLOCK rows.  Measured at m=5000,
# n=200, 500 pairs on 2 vCPU with OpenBLAS 0.3.31, one BLAS thread, medians
# of 15 certificates in process: with a block's seeds, norms, restriction
# and records in array passes, a certificate took 187-191 ms at 32 pairs a
# block, 126-150 ms at 64 and 112-128 ms at 128, against 178-215 ms for
# the per-pair Python of before at 32 (`BENCH_13.json`).  The `certify`
# benchmark's peak RSS at 128 was 0.4 MB above that of before, with the
# block's x and y signed by separate 512-row products; one 512 x 256
# product of [X; Y] raised it by 1.9 MB (the support products take [X; Y]
# SIGN_ROWS rows at a time).  At 256 pairs 1-4 residuals per certificate
# moved by up to 2.2e-15, and so did `raic_report.csv`: OpenBLAS rounds a
# product of more columns differently.  ROW_BLOCK stays 512: at 256
# `raic_report.csv` changes too, as the corrections then sum in other
# partial sums.  One whole-matrix product A @ [X Y] per block in place of
# row blocks took about the same time at 32 pairs, but raised the peak RSS
# by 10 MB (OpenBLAS packing buffers plus the m x 2B result).  A 512-row
# block keeps both of its products on the same cache-resident rows.
PAIR_BLOCK = 128
ROW_BLOCK = 512

# On the supports, the block kernel signs a row block's pairs SIGN_ROWS
# rows at a time, with one CSR product of [X; Y] each, of the rows copied
# transposed; its result is 2 PAIR_BLOCK x SIGN_ROWS.  The correction
# product still takes all ROW_BLOCK rows at once.  Measured on 2 vCPU
# with OpenBLAS 0.3.31, n=200, k=5, m=5000, 500 pairs on a pool of 2,
# medians of 40 certificates in process, three rounds: CPU time per
# certificate 102-120 ms at 512 rows, 94-100 ms at 256, 100-105 ms at 128
# and 110-123 ms at 64 (127-130 ms with dense sign products alone), and
# peak RSS 3.3-3.7, 1.1-1.5 and 0.3-0.6 MB above that at 64 rows at 512,
# 256 and 128 (1.8-2.2 MB below it with dense sign products).  The buffers
# are made in the pool task and are gone before the
# residuals are formed: made in the calling thread, through `_parallel._map`'s
# scratch, and held to the end of the block, they read 0.3-0.8 MB higher.
SIGN_ROWS = 128

def correction(
    A: MeasurementMatrix | LazyGaussianMatrix,
    b,
    s,
    eta: float = DEFAULT_ETA,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """(eta / m) A^T (b - s) / 2 for sign patterns b, s over the rows of A.

    With b = sgn(Ax), s = sgn(Ay) it is h_A(x, y); with b the observed signs
    it is what a solver step adds to its iterate y.  Only the l rows where
    b and s differ contribute, and only those are read.  While
    l < ROWS_ONLY_BELOW * m the product runs over those rows alone
    (``A.rows``), in O(l n).  Otherwise it is the dense product
    ``A.t_dot(r, rows)``, summed as ``np.dot(A_b.T, r_b)`` over the fixed
    row blocks of `core.dense_row_blocks` and added in block order, where
    the rows it did not ask for meet zeros in r.  Its block products run
    one after another in the calling thread, on one BLAS thread
    (`_parallel._one_blas_thread`), those of a `core.LazyGaussianMatrix` as
    its blocks are drawn.  So the sum is bit for bit the one-thread blocked
    sum at any pool size and caller's BLAS thread count.  The blocks depend
    on the shape alone, so a matrix drawn on read gives the bits of the
    whole one, and a matrix of at most `core.DENSE_BLOCK_ENTRIES` entries
    the bits of the single ``A.T @ r``.
    When b == s rowwise it is the zero vector, returned without a product.
    ``rows`` is ``np.flatnonzero(b != s)``, passed by a caller that found
    the mismatched rows already (the solver counts them at every step).
    """
    eta = _real(eta, "eta", 0, math.inf)
    bv = np.asarray(b)
    sv = np.asarray(s)
    if bv.shape != (A.m,) or sv.shape != (A.m,):
        raise ValueError(f"sign patterns must have length {A.m}")
    if rows is None:
        rows = np.flatnonzero(bv != sv)
    if rows.size == 0:
        return np.zeros(A.n)
    if rows.size < ROWS_ONLY_BELOW * A.m:
        r = 0.5 * (bv[rows].astype(np.float64) - sv[rows])
        return (eta / A.m) * (A.rows(rows).T @ r)
    r = 0.5 * (bv.astype(np.float64) - sv)
    with _one_blas_thread():
        total = A.t_dot(r, rows)
    return (eta / A.m) * total


def h_a(A: MeasurementMatrix, x, y) -> np.ndarray:
    """The correction map h_A(x, y) at eta = sqrt(2 pi); zero iff
    sgn(Ax) == sgn(Ay) rowwise.

    x and y are measured by `sign_measure`.  Antisymmetric in (x, y).  In
    expectation over a standard normal A it equals x - y for unit x, y,
    which holds at this eta only.
    """
    xv = _vector(x, "x", A.n)
    yv = _vector(y, "y", A.n)
    return correction(A, sign_measure(A, xv).bits, sign_measure(A, yv).bits)


def orthogonal_decompose(h, u, v):
    """Split h into components along (u-v), (u+v), and an orthogonal remainder.

    Returns (c_minus, c_plus, g) with
    h == c_minus * e_minus + c_plus * e_plus + g exactly (to rounding), where
    e_minus, e_plus are the normalized difference and sum directions.  The
    two directions are orthogonal for unit u, v, giving the Pythagorean
    identity ||h||^2 = c_minus^2 + c_plus^2 + ||g||^2.

    h may also be a stack of vectors, one per row (t x n); then c_minus and
    c_plus have one entry per row and g is t x n, and row i of each equals,
    bit for bit, the decomposition of ``h[i]`` alone.

    h is a vector or a stack (`_inputs._vector`), and u and v are
    unit vectors (`_inputs._unit_vector`) of h's last length (numpy
    would broadcast a shorter one); u == +-v leaves a direction undefined.
    """
    hv = _vector(h, "h", stack=True)
    uv, vv = _unit_vector(u, "u", hv.shape[-1]), _unit_vector(v, "v", hv.shape[-1])
    e_minus, e_plus, _ = _pair_directions(uv, vv)
    # One dot product per row; [()] makes the result of one vector a scalar.
    c_minus, c_plus = (row_dots(hv, e)[()] for e in (e_minus, e_plus))
    g = hv - np.multiply.outer(c_minus, e_minus) - np.multiply.outer(c_plus, e_plus)
    return c_minus, c_plus, g


def restricted_residual(x: np.ndarray, y: np.ndarray, J: np.ndarray, h: np.ndarray):
    """||(x - y) - h_J||_2, h_J the precomputed correction h restricted to
    supp(x) u supp(y) u J, J a bool mask of x's shape: the RAIC residual, and
    a quarter of the solver's bound.  A float for one pair; for stacks of
    pairs, one per row, each row's residual as alone (`row_norms`).  h is a
    vector or a stack (`_inputs._vector`), x and y of h's shape, and J
    is checked as `threshold_set` checks it, before the union is formed;
    h is then restricted by `threshold_set`'s own body, once checked."""
    h = _vector(h, "h", stack=True)
    x, y = _vector(x, "x", h.shape, stack=True), _vector(y, "y", h.shape, stack=True)
    J = _mask_checked(J, h.shape)
    r = row_norms((x - y) - _threshold_set(h, (x != 0.0) | (y != 0.0) | J))
    return float(r) if r.ndim == 0 else r


def _corrections(A: MeasurementMatrix, X, Y) -> np.ndarray:
    """h_A(x, y) for the pairs in the rows of X and Y, one per row:
    `_block_residuals`' kernel.  Its buffers (the pairs in CSR form, the
    transposed copy and D) are freed when it returns, before the residuals
    make theirs (see SIGN_ROWS)."""
    count, n = X.shape
    densest = max(np.count_nonzero(X, axis=1).max(), np.count_nonzero(Y, axis=1).max())
    if densest < SUPPORTS_BELOW * n:
        from scipy import sparse

        pairs = sparse.csr_array(np.concatenate((X, Y)))
        copy = np.empty(n * SIGN_ROWS)

        def differences(rows, D):
            for first in range(0, len(rows), SIGN_ROWS):
                part = rows[first : first + SIGN_ROWS]
                part_t = copy[: part.size].reshape(n, len(part))
                part_t[...] = part.T
                bits = _nonnegative(pairs @ part_t).T
                np.subtract(bits[:, :count], bits[:, count:], out=D[first : first + len(part)])
    else:
        def differences(rows, D):
            np.subtract(_nonnegative(rows @ X.T), _nonnegative(rows @ Y.T), out=D)
    signs = np.empty(ROW_BLOCK * count)
    H = np.zeros((n, count))
    for start in range(0, A.m, ROW_BLOCK):
        rows = A.entries[start : start + ROW_BLOCK]
        D = signs[: len(rows) * count].reshape(len(rows), count)
        differences(rows, D)
        H += rows.T @ D
    H *= DEFAULT_ETA / A.m
    return H.T


def _block_residuals(A: MeasurementMatrix, X, Y, J) -> np.ndarray:
    """``restricted_residual(x, y, J_i, h_a(A, x, y))`` for the pairs in the
    rows of X and Y, with J_i the columns marked in row i of the bool mask J
    (X's shape), in one pass over row blocks of A (`_corrections`).

    Each block A_rb of ROW_BLOCK rows signs every vector at once and adds
    its share of every correction, A_rb^T D with
    D = (sgn(A_rb X^T) - sgn(A_rb Y^T)) / 2, while the rows are in cache.
    While every row of X and Y has fewer than SUPPORTS_BELOW * n nonzeros,
    the sign products run over the supports alone, O(k) per entry: [X; Y]
    becomes a CSR matrix once, and A_rb is copied transposed SIGN_ROWS
    rows A_p at a time, so that the CSR product [X; Y] A_p^T reads whole
    rows of the copy.  Otherwise they are dense products, A_rb X^T and
    A_rb Y^T (two, not one of [X; Y]: half the largest temporary).  A
    dense product adds exact zeros to the same terms, so the two can
    differ in sign only where a product is within rounding of 0.  With
    sgn(0) = +1, D is (P_x >= 0) - (P_y >= 0) exactly, for the sign
    products P (`core._nonnegative`): one pass per product in place of
    `sgn`'s three.  A non-finite product raises, as in `sgn`, so one that
    overflowed to inf from huge finite entries does.  The support products
    never meet A's entries off the supports, which a `MeasurementMatrix`
    keeps finite by construction.  `scipy.sparse` is imported on the first
    support product: at module level it raised the peak RSS of runs that
    never certify by about 2 MB.

    A_rb^T D is one product on either path, so a report has the same bytes
    on either path, off signs within rounding of 0.  Its sums run in
    another order than `correction`'s, so a residual may differ from the
    reference in the last bits.  The residuals are `restricted_residual` of
    the block's stacks, which restricts every correction with one mask
    and checks the shapes of X, Y and J, all three `_draw_pairs`' own.
    The products run at the caller's BLAS threading.
    """
    return restricted_residual(X, Y, J, _corrections(A, X, Y))


def raic_bound(delta: float, a1: float, a2: float, d_s):
    """The invertibility bound a1 * sqrt(delta * d_s) + a2 * delta, for one
    d_s (a real input, `_inputs._real`) or elementwise over a vector of
    them (`_inputs._vector`), each d_s nonnegative."""
    delta, a1, a2 = (_real(value, name, 0, math.inf, closed=True)
                     for value, name in ((delta, "delta"), (a1, "a1"), (a2, "a2")))
    if isinstance(d_s, (list, tuple, np.ndarray)):
        d_s = _vector(d_s, "d_s")
        if not (d_s >= 0.0).all():
            raise ValueError("d_s must be nonnegative")
    else:
        d_s = _real(d_s, "d_s", 0, math.inf, closed=True)
    return a1 * np.sqrt(delta * d_s) + a2 * delta


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
    # The largest delta at which some pair meets its bound with equality:
    # every ratio is at most 1 at delta_hat, and some pair's is 1.
    delta_hat: float


def _ratio(residual, bound):
    """residual / bound, elementwise; where the bound is 0, 0 for a zero
    residual and inf otherwise."""
    r = np.asarray(residual, dtype=np.float64)
    b = np.asarray(bound, dtype=np.float64)
    return np.divide(r, b, out=np.where(r == 0.0, 0.0, np.inf), where=b > 0.0)[()]


def _delta_hat(residual: np.ndarray, d_s: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """The delta at which the bound c1 sqrt(delta d_s) + c2 delta equals the
    residual, elementwise: s^2 for the root s >= 0 of
    c2 s^2 + c1 sqrt(d_s) s - residual, in the form that takes no
    difference of close numbers."""
    b = c1 * np.sqrt(d_s)
    root = b + np.sqrt(b * b + 4.0 * c2 * residual)
    s = np.divide(2.0 * residual, root, out=np.zeros_like(root), where=residual > 0.0)
    return s * s


def _draw_pairs(n, k, seed, first, count, num_small, max_j, radius):
    """Pairs ``first .. first + count - 1`` of the certificate: X, Y as rows
    and J as a bool mask of X's shape, row i marking J_i, each value as the
    per-pair draw from ``derive_seed(seed, pair_id)`` makes it.

    x comes from child 0.  A pair below ``num_small`` takes y from x by a
    perturbation at ``radius`` within supp(x), with normals from child 1;
    the others draw y from child 1 as x is drawn.  J (child 2) takes its
    size uniform on {0..max_j} from the first of n + 1 uniforms and its
    indices, without replacement, from the rank order of the rest.  The
    seeds of the whole block are derived in array passes
    (`rng._derive_rows`), the same values as ``derive_seed`` per pair.
    """
    pairs = _derive_rows(seed, np.arange(first, first + count, dtype=np.uint64))
    x_seeds, y_seeds, j_seeds = (_derive_rows(pairs, c) for c in range(3))
    X, supports = random_sparse_unit_rows(n, k, x_seeds)
    small = min(max(num_small - first, 0), count)
    Y = np.empty_like(X)
    if small < count:
        Y[small:] = random_sparse_unit_rows(n, k, tuple(s[small:] for s in y_seeds))[0]
    if small:
        Y[:small] = X[:small]
        noise = sample_standard_normal_rows(_stream_keys(y_seeds)[:small], k)
        # Norms row by row, as one vector's norm rounds; a zero noise row
        # (each normal is 0 at the uniform 1/2) becomes a row of ones.  The
        # noise lands on x's drawn support, ascending: the nonzero columns
        # of x, but also a column whose drawn value is 0.
        scale = radius / _live_row_norms(noise)
        Y[np.arange(small)[:, None], supports[:small]] += scale[:, None] * noise
        # The norm over the whole row, as the per-pair draw takes it.
        Y[:small] /= row_norms(Y[:small])[:, None]
    J = np.zeros(X.shape, dtype=bool)
    if max_j > 0:
        u = random_uniform_rows(_stream_keys(j_seeds), n + 1)
        sizes = np.minimum((u[:, 0] * (max_j + 1)).astype(np.int64), max_j)
        # The max_j smallest ranks, in rank order (index order on ties, as
        # the stable sort of all the ranks orders them); J_i is the first
        # sizes[i] of them.
        kept = smallest_k(u[:, 1:], max_j)
        ranks = np.take_along_axis(u[:, 1:], kept, axis=1)
        order = np.take_along_axis(kept, np.argsort(ranks, axis=1, kind="stable"), axis=1)
        np.put_along_axis(J, order, np.arange(order.shape[1]) < sizes[:, None], axis=1)
    return X, Y, J


def raic_certify(
    A: MeasurementMatrix,
    k: int,
    delta: float,
    num_pairs: int,
    max_j: int,
    seed: SeedSpec,
    num_small: int | None = None,
) -> RaicReport:
    """Sample pairs of k-sparse unit vectors and compare residuals to the bound.

    ``num_small`` of the pairs (default: one fifth) are forced below the
    small-distance threshold tau = delta / b by perturbing a sampled vector
    within its own support at radius tau / 2; the rest are independent draws.
    Each pair also gets a random coordinate set J with ``|J| <= max_j``
    (use k for the certificate's own definition, 2k to probe the wider
    restriction the solver's error analysis relies on).

    Pairs go PAIR_BLOCK at a time through one block draw (`_draw_pairs`)
    and one pass over row blocks of A (`_block_residuals`); the blocks run
    on the package's thread pool, under one BLAS thread, and the records
    are formed after the last has returned.  Pair i takes
    its x, y and J from ``derive_seed(seed, i)`` as a pair-by-pair draw
    would, whatever the block size, and its d_s is `sphere_distance`'s bit
    for bit; its residual agrees with
    `restricted_residual(x, y, J, h_a(A, x, y))` to the last few bits.

    Bound constants are the certified (c1, c2), which hold at the step size
    eta = sqrt(2 pi) that the residuals use.  The report's ``delta_hat``
    is the largest delta at which some pair's residual meets its bound: it
    is at most ``delta`` exactly when no ratio exceeds 1.  Every ratio is
    guaranteed to be at most 1 only when m meets the theory's sample
    complexity (`theory.sample_complexity`), far above desk-scale m; below
    it the ratios are sampled evidence, and a large-regime ratio a little
    above 1 is no fault (the CLI defaults at seed 97 give 1.061, and an
    independent long-double recomputation of that residual agrees).
    Deterministic given ``seed``.
    """
    # Counts as ints before any draw, as `BIHTConfig` holds its own: a
    # float or a bool would fail deep in the sampler or a range.
    num_pairs = _integer(num_pairs, "num_pairs (pairs)", 1)
    delta = _real(delta, "delta", 0, 1)
    # k before max_j: the CLI's max_j defaults to k.
    k = _integer(k, "k", 1, A.n)
    max_j = _integer(max_j, "max_j")
    if num_small is None:
        num_small = num_pairs // 5
    num_small = _integer(num_small, "num_small (small_pairs)", 0, num_pairs)

    u = constants()
    tau = delta / u.b

    def certify_block(first):
        count = min(PAIR_BLOCK, num_pairs - first)
        X, Y, J = _draw_pairs(A.n, k, seed, first, count, num_small, max_j, tau / 2.0)
        return _block_residuals(A, X, Y, J), sphere_distance_rows(X, Y)

    # The blocks' products run on one BLAS thread.  Each is a fraction of a
    # millisecond of work; split over 2 BLAS threads it waits at a barrier
    # per product and keeps the second core spinning, so other work on
    # either core stalls it.  `perfbench/run.py --workload certify`, 2 vCPU,
    # OpenBLAS 0.3.31, ten alternating 20 s runs: one thread gave 2618
    # pairs/s with an interquartile range of 9% of the median, default
    # threading 3008 pairs/s and 20%; with another process loading one core
    # at a duty cycle that changed every 5-40 s, 2446 pairs/s and 17%
    # against 2118 pairs/s and 45%.
    with _one_blas_thread():
        blocks = _map(certify_block, range(0, num_pairs, PAIR_BLOCK))
    residual, d_s = (np.concatenate(parts) for parts in zip(*blocks))
    bound = raic_bound(delta, u.c1, u.c2, d_s)
    ratio = _ratio(residual, bound)
    records = tuple(
        RaicSample(
            pair_id=i,
            d_s=d,
            regime="small" if d < tau else "large",
            residual=r,
            bound=b,
            ratio=q,
        )
        for i, (d, r, b, q) in enumerate(
            zip(d_s.tolist(), residual.tolist(), bound.tolist(), ratio.tolist())
        )
    )
    return RaicReport(
        delta=delta,
        tau=tau,
        samples=num_pairs,
        records=records,
        worst_ratio=float(ratio.max()),
        n_violations=int(np.count_nonzero(ratio > 1.0)),
        delta_hat=float(_delta_hat(residual, d_s, u.c1, u.c2).max()),
    )
