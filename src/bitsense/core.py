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
  rows where the signs disagree; and `t_dot`, A^T r for a correction with
  most rows mismatched.  `MeasurementMatrix` answers them by indexing and
  views, and sums `t_dot` over the fixed row blocks of `dense_row_blocks`;
  `DeferredGaussianMatrix`, the matrix of a convergence trial, draws what
  they ask for by deferred decisions, and its dense step draws one normal
  for each column it has not drawn.  Both take their products in the
  calling thread: the matrix layer has no threads.
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
    sample_standard_normal_rows,
)
from .thresholding import smallest_k

# The most float64 entries one array can hold: its byte count is an intp.
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


# Entries per row block of a `MeasurementMatrix`'s dense correction: 4 MB
# of float64, handed over as views.  The blocks fix the order of the sum,
# on which the bare-run pins rest.
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


class DeferredGaussianMatrix:
    """An m x n matrix of i.i.d. standard normals, the matrix of a
    convergence trial, drawn by deferred decisions: an entry is drawn when
    a read first needs it, from its law given all that was handed out
    before, and then kept.

    It answers the solver's three reads:

    * `columns`: the m x k block on a support.  A column not yet drawn is
      drawn whole, conditioned on the dense step's record if there is one
      (below), and its entries on the rows kept are then those rows'.
    * `rows`: the rows where the signs disagree, drawn in the same way:
      whole, conditioned on the record, with the kept columns' entries.
    * `t_dot`: A^T r for a dense correction.  On the columns kept, and on
      the rows kept, it is the product of the entries.  A column j not yet
      drawn meets r on the rows U not yet drawn only through
      c_j = a_j[U] . r_U, which is N(0, ||r_U||^2) and independent of all
      that was handed out, since r depends only on what was read before.
      So it draws c_j, one normal a column in place of the column's |U|
      entries, and records the constraint: r_U, and c_j for each column.

    Under a record, a column is drawn as a_U = g - r_U (r_U . g - c_j) /
    ||r_U||^2 for standard normal g, and a row block R of U through g_R and
    r_U . g, whose part off R is one more normal a column.  A row read then
    takes R out of U, and each c_j keeps what is left once the part of
    those rows is subtracted.  This is the principle of deferred decisions,
    with the conditioning step of the Gaussian conditioning technique
    (Bolthausen, Comm. Math. Phys. 2014; Bayati and Montanari, IEEE Trans.
    IT 2011).  So the matrix realized is exactly i.i.d. Gaussian, though it
    is not ``gaussian_matrix(seed)``'s.

    A dense step that finds a record already there draws every column not
    yet drawn, conditioned on it, which completes the matrix, and then
    takes the product exactly; `BENCH_41.json` ("second_dense_step")
    records how seldom that happens, and why this is kept over a second,
    orthogonalized constraint.  `columns` of all n columns completes the
    matrix the same way.

    Draw e is the first normals of ``sample_standard_normal`` under
    ``derive_seed(seed, e)``, e counting the matrix's draws from 0, so the
    entries depend on the reads alone, not on the pool's size or the BLAS
    thread count.  ``drawn`` counts the normals drawn so far, those that
    a kept entry then replaced included.
    """

    def __init__(self, m: int, n: int, seed: SeedSpec):
        self.m, self.n = _check_shape(m, n)
        self.seed = seed
        self.drawn = 0
        self._events = 0  # the draws so far: the next draw's key index
        # Where each row and column is kept (-1 while it is not drawn): row
        # i is _rows[_row_at[i]] and column j is _cols[_col_at[j]].  The
        # columns are a list, which grows without copying those it holds:
        # one array grown by concatenation read the `converge` benchmark's
        # peak RSS about 4.5 MB higher (`BENCH_41.json`, "column_store").
        self._row_at = np.full(self.m, -1, dtype=np.intp)
        self._col_at = np.full(self.n, -1, dtype=np.intp)
        self._rows = np.empty((0, self.n))
        self._cols = []
        # The dense step's record, None when there is none: r on the rows
        # not yet drawn and 0 on the others, ||r||^2, and c_j at each
        # column j not yet drawn.
        self._r = self._r2 = self._c = None

    def _normals(self, *shape: int) -> np.ndarray:
        """A fresh block of standard normals under the matrix's next key."""
        count = math.prod(shape)
        out = sample_standard_normal(derive_seed(self.seed, self._events), count)
        self._events += 1
        self.drawn += count
        return out.reshape(shape)

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The m x |cols| block A[:, cols], each column drawn on its first
        read."""
        new = cols[self._col_at[cols] < 0]
        if new.size:
            self._draw_columns(new)
        return np.array([self._cols[i] for i in self._col_at[cols]]).reshape(-1, self.m).T

    def rows(self, rows: np.ndarray) -> np.ndarray:
        """The len(rows) x n block A[rows], each row drawn on its first
        read."""
        new = rows[self._row_at[rows] < 0]
        if new.size:
            self._draw_rows(new)
        return self._rows[self._row_at[rows]]

    def t_dot(self, r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A^T r, with one normal drawn for each column not yet drawn
        (``rows`` is not needed).  The products are ``np.dot``, which
        releases the GIL, as the trials run side by side on the pool."""
        if self._r is not None:
            # A second dense step: complete the matrix, conditioned on the
            # record, and take the product exactly.
            self._draw_columns(np.flatnonzero(self._col_at < 0))
            self._r = self._r2 = self._c = None
        kept = np.flatnonzero(self._col_at >= 0)
        out = np.empty(self.n)
        out[kept] = [np.dot(self._cols[i], r) for i in self._col_at[kept]]
        fresh = np.flatnonzero(self._col_at < 0)
        if fresh.size:
            drawn = np.flatnonzero(self._row_at >= 0)
            out[fresh] = np.dot(r[drawn], self._rows[np.ix_(self._row_at[drawn], fresh)])
            r_u = r.copy()
            r_u[drawn] = 0.0
            r2 = float(np.dot(r_u, r_u))
            if r2 > 0.0:
                self._r, self._r2, self._c = r_u, r2, np.zeros(self.n)
                self._c[fresh] = self._normals(fresh.size) * math.sqrt(r2)
                out[fresh] += self._c[fresh]
        return out

    def _draw_columns(self, new: np.ndarray) -> None:
        # Whole columns of normals, conditioned on the record where there is
        # one; r is 0 on the rows drawn, whose entries are then the rows'.
        g = self._normals(new.size, self.m)
        if self._r is not None:
            g -= np.outer((np.dot(g, self._r) - self._c[new]) / self._r2, self._r)
        drawn = np.flatnonzero(self._row_at >= 0)
        g[:, drawn] = self._rows[np.ix_(self._row_at[drawn], new)].T
        self._col_at[new] = np.arange(len(self._cols), len(self._cols) + new.size)
        self._cols.extend(g)

    def _draw_rows(self, new: np.ndarray) -> None:
        # Whole rows of normals, their entries on the columns drawn then the
        # columns'.  Under a record, the block R = new of U is drawn through
        # g_R and r_U . g, whose part off R is one more normal, z.
        if self._r is None:
            g = self._normals(new.size, self.n)
        else:
            g = self._normals(new.size + 1, self.n)
            g, z = g[:-1], g[-1]
            r_r = self._r[new]
            self._r[new] = 0.0
            r2, self._r2 = self._r2, float(np.dot(self._r, self._r))
            g -= np.outer(r_r, (np.dot(r_r, g) + math.sqrt(self._r2) * z - self._c) / r2)
            self._c -= np.dot(r_r, g)
            if self._r2 == 0.0:
                self._r = self._r2 = self._c = None
        kept = np.flatnonzero(self._col_at >= 0)
        for j, i in zip(kept, self._col_at[kept]):
            g[:, j] = self._cols[i][new]
        self._row_at[new] = np.arange(len(self._rows), len(self._rows) + new.size)
        self._rows = np.concatenate([self._rows, g])


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
    each follow a `gc.collect()`, against 0.017 ms for the product), and
    most late solver steps move the values within a support that has
    settled.  A dense v takes all n
    columns, which a `MeasurementMatrix` hands over as A itself,
    ungathered; a zero v takes no column and measures all +1.  A caller
    that already has supp(v), as the solver has from top-k, passes it and
    saves the scan for nonzeros.
    """

    def __init__(self, A: MeasurementMatrix | DeferredGaussianMatrix):
        self.A = A
        self.supp = None
        self.cols = None

    def __call__(self, v: np.ndarray, supp: np.ndarray | None = None) -> np.ndarray:
        if supp is None:
            supp = np.flatnonzero(v)
        if self.supp is None or not np.array_equal(supp, self.supp):
            self.supp, self.cols = supp, self.A.columns(supp)
        return _finite_signs(self.cols @ v[supp])


def sign_measure(A: MeasurementMatrix | DeferredGaussianMatrix, x) -> SignPattern:
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
