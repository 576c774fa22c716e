"""Vector/matrix primitives: signs, sphere geometry, sparse unit signals.

Conventions fixed here and relied on everywhere else:

* ``sgn(0) = +1`` (the sign function is total on the reals).
* Sphere distance is the Euclidean distance between radial projections,
  extended to zero vectors (0 if both zero, 1 if exactly one is zero).
* Sparse vectors are stored dense; sparsity is an invariant, not a layout.
* A vector input is a one-dimensional array of finite reals
  (`_inputs._vector`), and a `MeasurementMatrix` is finite by
  construction, so a product that reads only part of A, as the certifier's
  support products do, meets no NaN or inf.
* The solver reads a measurement matrix through three calls only:
  `columns`, the m x k block on a support; `rows`, the l x n block of the
  rows where the signs disagree; and `t_dot`, A^T r summed over the fixed
  row blocks of `dense_row_blocks`, for a correction with most rows
  mismatched.  `MeasurementMatrix` answers them by indexing and views;
  `LazyGaussianMatrix`, the matrix of a convergence trial, draws what they
  ask for from the sampler, bit for bit the entries of `gaussian_matrix`,
  and its blocks into one block of scratch.  Both take their blocks one
  after another in the calling thread: the matrix layer has no threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# UNIT_NORM_TOL is read as `core.UNIT_NORM_TOL` too: the benchmark's
# `solve` workload checks its final iterates against it.
from ._inputs import UNIT_NORM_TOL, _integer, _norm, _unit_vector, _vector
from .rng import (
    SeedSpec,
    _derive_rows,
    _stream_key,
    _stream_keys,
    derive_seed,
    ndtri,
    random_uniform_rows,
    sample_standard_normal,
    sample_standard_normal_block,
    sample_standard_normal_rows,
)
from .thresholding import smallest_k

# The most float64 entries one array can hold: its byte count is an intp.
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


# Entries per row block of the dense correction: 4 MB of float64.  Summed
# block by block, A.T @ r needs one block of scratch where the matrix is
# drawn on read, not a zero-filled m x n array, and a `MeasurementMatrix`
# hands its blocks over as views.
DENSE_BLOCK_ENTRIES = 1 << 19


def dense_row_blocks(m: int, n: int) -> range:
    """The first rows of the fixed row blocks over which the dense
    correction sums: ``max(1, DENSE_BLOCK_ENTRIES // n)`` rows a block, the
    last one shorter when that does not divide m.  They depend on the shape
    alone, so every matrix of that shape sums in the same order; a matrix
    of at most DENSE_BLOCK_ENTRIES entries is one block."""
    m, n = _check_shape(m, n)
    return range(0, m, max(1, DENSE_BLOCK_ENTRIES // n))


def _in_block_order(parts: list) -> np.ndarray:
    """The sum of the block products ``parts``, added in block order into
    the first of them: the one order every dense correction sums in."""
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


def dense_scratch(m: int, n: int) -> np.ndarray:
    """A zero-filled block of scratch for the dense reads of an m x n
    `LazyGaussianMatrix`: as many rows as a block of `dense_row_blocks`,
    or m if fewer, by n."""
    m, n = _check_shape(m, n)
    return np.zeros((min(dense_row_blocks(m, n).step, m), n))


def _check_shape(m: int, n: int) -> tuple[int, int]:
    """(m, n) as ints, once checked to be the shape of an array."""
    m, n = _integer(m, "m", 1), _integer(n, "n", 1)
    if m * n > _MAX_ENTRIES:
        raise ValueError(f"m={m} by n={n} is more entries than an array can hold")
    return m, n


@dataclass(frozen=True)
class SparseUnitVector:
    """A k-sparse vector of unit Euclidean norm.

    ``values`` is dense; at most ``k`` entries are nonzero and the norm is 1
    within ``UNIT_NORM_TOL`` (`_inputs._unit_vector`).  Instances are
    immutable (the array is marked read-only) and safe to share across
    threads.
    """

    values: np.ndarray
    k: int

    def __post_init__(self):
        v = _unit_vector(self.values, "values")
        k = _integer(self.k, "k", 1, v.size)
        if int(np.count_nonzero(v)) > k:
            raise ValueError("more than k nonzero entries")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.values.size

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)


@dataclass(frozen=True)
class MeasurementMatrix:
    """An m x n measurement matrix of finite entries.

    ``entries`` is read-only.  A writeable array, or a view of memory owned
    elsewhere, is copied first, so later writes by its owner cannot reach
    the matrix; a read-only array that owns its memory is kept as it is
    (``gaussian_matrix`` hands over its fresh sample that way).
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("entries must be a 2-d array with m, n >= 1")
        blocks = dense_row_blocks(*a.shape)  # a block at a time: no m x n temporary
        if not all(np.isfinite(a[start : start + blocks.step]).all() for start in blocks):
            raise ValueError("entries must be finite")
        if a.flags.writeable or not a.flags.owndata:
            a = a.copy()
            a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The m x |cols| block A[:, cols], for ascending column indices;
        A itself, ungathered, for all n of them."""
        a = self.entries
        return a if cols.size == a.shape[1] else a[:, cols]

    def rows(self, rows: np.ndarray) -> np.ndarray:
        """The len(rows) x n block A[rows], gathered."""
        return self.entries[rows]

    def t_dot(self, r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A^T r as ``np.dot(A_b.T, r_b)`` summed over the row blocks A_b of
        `dense_row_blocks`, views of A, one after another in the calling
        thread and added in block order; ``rows`` is not needed.  Side by
        side on the package's pool, the blocks of a bare run's dense step
        made the `solve` benchmark no faster and cost it more CPU time
        (`BENCH_39.json`).
        """
        a = self.entries
        starts = dense_row_blocks(*a.shape)
        step = starts.step
        return _in_block_order([np.dot(a[start : start + step].T, r[start : start + step])
                                for start in starts])


class LazyGaussianMatrix:
    """``gaussian_matrix(m, n, seed)``, drawn where it is read.

    It answers the solver's three reads by drawing from the sampler
    (`rng.sample_standard_normal_block`), which addresses entry (i, j) as
    element i * n + j of the seed's stream:

    * `columns`: the m x k block on a support, drawn as that block.
    * `rows`: the rows where the signs disagree, drawn as one l x n block.
    * `t_dot`: for the dense correction, each fixed row block with the
      asked-for rows in it drawn into one zero-filled block of scratch and
      the others left zero, one block after another.  The correction's
      residual r is 0 on every row it does not ask for, so
      ``np.dot(A_b.T, r_b)`` keeps the bits it has over the whole matrix's
      block.  The drawn rows are zeroed again once the product is taken,
      so the scratch serves every block.

    The caller hands over the scratch, a `dense_scratch` (4 MB at n=200):
    each dense read leaves it zero-filled again, so one scratch can serve
    matrix after matrix.  Nothing else is kept between reads, so a matrix
    never holds an m x n array, and two trials can run side by side in
    less memory than one took with such an array.

    A solver run reads only part of the matrix: at n=200, k=5, m=10000 and
    T=12, a trial draws about half of the rows (the first step's mismatched
    rows, about m/2, and about 110 more, some of them again, later) and
    about ten distinct columns, some of them more than once.  Every entry
    it hands out is ``gaussian_matrix(m, n, seed).entries`` at that place,
    bit for bit.  ``drawn`` counts the normals drawn so far.
    """

    def __init__(self, m: int, n: int, seed: SeedSpec, scratch: np.ndarray):
        self.m, self.n = _check_shape(m, n)
        self.seed = seed
        self.drawn = 0
        self.scratch = scratch

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The m x |cols| block A[:, cols], drawn as that block."""
        self.drawn += self.m * cols.size
        return sample_standard_normal_block(self.seed, self.n, range(self.m), cols)

    def rows(self, rows: np.ndarray) -> np.ndarray:
        """The len(rows) x n block A[rows], drawn as that block."""
        self.drawn += rows.size * self.n
        return sample_standard_normal_block(self.seed, self.n, rows, range(self.n))

    def t_dot(self, r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A^T r for an r that is 0 off the ascending rows ``rows``, as
        `MeasurementMatrix.t_dot` sums it: each row block of
        `dense_row_blocks` holds A's entries on the rows of ``rows`` in it,
        drawn into the scratch, and zeros on its other rows.

        The trials that call it run side by side on the package's pool, so
        the products are ``np.dot``, which releases the GIL for the product,
        and not ``@``, which does not: two threads each multiplying
        2621 x 200 blocks on one BLAS thread ran 3.0 times as fast as one
        thread with ``np.dot`` (1.4-3.7 in seven rounds), and 1.15 times
        with ``@`` (0.93-1.21), with the same bits (2 vCPU, numpy 2.4.6).
        """
        starts = dense_row_blocks(self.m, self.n)
        bounds = np.searchsorted(rows, [*starts, self.m])
        parts = []
        for start, lo, hi in zip(starts, bounds, bounds[1:]):
            block = self.scratch[: min(starts.step, self.m - start)]
            at = rows[lo:hi] - start
            try:
                sample_standard_normal_block(self.seed, self.n, rows[lo:hi], range(self.n),
                                             into=(block, at))
                self.drawn += at.size * self.n
                parts.append(np.dot(block.T, r[start : start + len(block)]))
            finally:
                block[at] = 0.0
        return _in_block_order(parts)


@dataclass(frozen=True)
class SignPattern:
    """A vector over {-1, +1}, one entry per measurement row."""

    bits: np.ndarray

    def __post_init__(self):
        b = _vector(self.bits, "bits")
        # Checked before the cast to int8, which takes 1.5 or 257 to 1.
        if np.count_nonzero(np.abs(b) == 1) != b.size:
            raise ValueError("entries must be -1 or +1")
        b = b.astype(np.int8)
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    def __len__(self) -> int:
        return self.bits.size


def _nonnegative(P: np.ndarray) -> np.ndarray:
    """(P >= 0) as int8 0/1, once P is checked finite: the one home of sgn(0) = +1."""
    if not np.isfinite(P).all():
        raise ValueError("sgn requires finite input")
    return (P >= 0.0).view(np.int8)


def _finite_signs(a: np.ndarray) -> np.ndarray:
    """sgn of a float64 array, as int8 in {-1, +1}; rejects non-finite entries."""
    # Bools are the bytes 0 and 1, so 2 * bit - 1 is the sign, in int8.
    s = _nonnegative(a)
    s += s
    s -= 1
    return s


def sgn(x):
    """Sign with sgn(0) = +1, elementwise on arrays.

    Rejects non-finite input; returns int8 in {-1, +1}.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        return int(_finite_signs(a.reshape(1))[0])
    return _finite_signs(a)


class _Measure:
    """sgn(A v) as int8 from the columns of A on supp(v): O(mk) for k nonzeros.

    The m x k column block (``A.columns``) is kept while the support stays
    the same.  Gathering k columns of the row-major matrix costs ten to
    twenty-five times the product itself (at m=10000, k=5: 0.17 ms in a warm
    loop and a median 0.41 ms inside the `solve` benchmark's calls, which
    each follow a `gc.collect()`, against 0.017 ms for the product),
    drawing them about a hundred times, and most late solver steps move the
    values within a support that has settled.  A dense v takes all n
    columns, which a `MeasurementMatrix` hands over as A itself,
    ungathered; a zero v takes no column and measures all +1.  A caller
    that already has supp(v), as the solver has from top-k, passes it and
    saves the scan for nonzeros.
    """

    def __init__(self, A: MeasurementMatrix | LazyGaussianMatrix):
        self.A = A
        self.supp = None
        self.cols = None

    def __call__(self, v: np.ndarray, supp: np.ndarray | None = None) -> np.ndarray:
        if supp is None:
            supp = np.flatnonzero(v)
        if self.supp is None or not np.array_equal(supp, self.supp):
            self.supp, self.cols = supp, self.A.columns(supp)
        return _finite_signs(self.cols @ v[supp])


def sign_measure(A: MeasurementMatrix | LazyGaussianMatrix, x) -> SignPattern:
    """One-bit measurement: the row-wise sign of A @ x, over the support of x."""
    return SignPattern(_Measure(A)(_vector(x, "x", A.n)))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[i], b[i])`` for each row i, bit for bit, in one call: one
    (1 x n)(n x 1) product per row.  ``b`` may be one vector for all rows,
    and a single vector gives a 0-d result.  A matrix-vector product, a
    norm along an axis or ``einsum`` rounds a row differently from that
    row's own dot.  (One difference: a zero dot of rows of length 1 is
    +0.0 here, where ``np.dot`` gives -0.0 for a negative product.)"""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a[i])`` for each row i, bit for bit: the square
    root of the row's own dot, as `np.linalg.norm` takes it."""
    return np.sqrt(row_dots(a, a))


def sphere_distance(u, v) -> float:
    """Distance between the radial projections of u and v onto the unit sphere.

    Total by convention: 0 when both vectors are zero, 1 when exactly one is.
    Ranges over [0, 2].
    """
    a = _vector(u, "u")
    b = _vector(v, "v", a.size)
    na = _norm(a, "u")
    nb = _norm(b, "v")
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(np.linalg.norm(a / na - b / nb))


def sphere_distance_rows(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``sphere_distance(U[i], V[i])`` for each row i of two equal-shape
    2-D arrays, bit for bit."""
    nu, nv = row_norms(U), row_norms(V)
    live = (nu != 0.0) & (nv != 0.0)
    # The conventions for zero vectors: 0 if both rows are zero, else 1.
    d = ((nu != 0.0) | (nv != 0.0)).astype(np.float64)
    d[live] = row_norms(U[live] / nu[live, None] - V[live] / nv[live, None])
    return d


def _pair_directions(u: np.ndarray, v: np.ndarray):
    """(e_minus, e_plus, theta) for unit u, v: e_minus = (u - v)/||u - v||,
    e_plus = (u + v)/||u + v|| and the angle theta = 2 atan2(||u - v||, ||u + v||)
    between u and v, which unlike arccos of the cosine stays accurate near 0
    and pi.  Rejects u = +-v, where ||u - v|| or ||u + v|| is below 1e-12.
    """
    diff = u - v
    summ = u + v
    nd = float(np.linalg.norm(diff))
    ns = float(np.linalg.norm(summ))
    if nd < 1e-12 or ns < 1e-12:
        raise ValueError("u = +-v: projection directions are degenerate")
    return diff / nd, summ / ns, 2.0 * math.atan2(nd, ns)


def _live_row_norms(vals: np.ndarray) -> np.ndarray:
    """`row_norms` of ``vals``, with each all-zero row first set to ones in
    place (norm sqrt(width)), so that every row has a direction.  A row of
    normals is all zero with probability zero, but the draws stay total."""
    norms = row_norms(vals)
    dead = norms == 0.0
    if dead.any():
        vals[dead] = 1.0
        norms[dead] = math.sqrt(vals.shape[1])
    return norms


def random_sparse_unit_rows(n: int, k: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """``random_sparse_unit(n, k, seed).values`` for each seed, as the rows
    of one ``len(seeds) x n`` array, from one sampler call per stream kind,
    and each row's support: a ``len(seeds) x k`` array of its columns,
    ascending.  ``seeds`` are SeedSpecs, or ``(bases, streams)`` uint64
    arrays as `rng._derive_rows` gives them, whose children are derived in
    one array pass instead of one call per seed.

    The support is uniform over k-subsets of [n] (rank order of i.i.d.
    uniforms); the nonzero values are i.i.d. standard normal, normalized.
    A value may be exactly 0.0 (the normal of the uniform 1/2), so the
    support is the drawn one, not the row's nonzero columns.
    """
    n = _integer(n, "n", 1)
    k = _integer(k, "k", 1, n)
    if n > _MAX_ENTRIES:
        raise ValueError(f"n={n} is more entries than an array can hold")
    if isinstance(seeds, tuple) and isinstance(seeds[0], np.ndarray):
        rank_keys, value_keys = (_stream_keys(_derive_rows(seeds, c)) for c in (0, 1))
    else:  # the int functions: for one seed, cheaper than an array pass
        rank_keys, value_keys = (np.array([_stream_key(derive_seed(s, c)) for s in seeds],
                                          dtype=np.uint64) for c in (0, 1))
    if rank_keys.size == 1:
        # One seed, as the solver's start point and a trial's truth take
        # it: one sampler call over both keys, n uniforms each, and ndtri of
        # the value row's first k, as the sampler maps them; the ranks as
        # one row, which `smallest_k` takes without row bookkeeping.  On
        # 2 vCPU (numpy 2.4.6), minimums of 9: 24 us against 41 us for the
        # two calls below; at 128 seeds the n - k uniforms more per value
        # row cost 547 us against 211 us.
        uniforms = random_uniform_rows(np.concatenate([rank_keys, value_keys]), n)
        ranks, vals = uniforms[0], ndtri(uniforms[1:, :k])
    else:
        ranks = random_uniform_rows(rank_keys, n)
        vals = sample_standard_normal_rows(value_keys, k)
    norms = _live_row_norms(vals)
    supports = smallest_k(ranks, k).reshape(len(vals), k)  # ascending in each row
    out = np.zeros((len(vals), n))
    out[np.arange(len(vals))[:, None], supports] = vals / norms[:, None]
    return out, supports


def random_sparse_unit(n: int, k: int, seed: SeedSpec) -> SparseUnitVector:
    """Uniformly random k-sparse unit vector: `random_sparse_unit_rows` for
    one seed."""
    return SparseUnitVector(random_sparse_unit_rows(n, k, (seed,))[0][0], k)


def gaussian_matrix(m: int, n: int, seed: SeedSpec) -> MeasurementMatrix:
    """An m x n matrix with i.i.d. standard normal entries, row-major."""
    m, n = _check_shape(m, n)
    entries = sample_standard_normal(seed, m * n)
    entries.shape = (m, n)  # in place: the array keeps owning its memory
    entries.setflags(write=False)
    return MeasurementMatrix(entries)
