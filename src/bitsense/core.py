"""Vector/matrix primitives: signs, sphere geometry, sparse unit signals.

Conventions fixed here and relied on everywhere else:

* ``sgn(0) = +1`` (the sign function is total on the reals).
* Sphere distance is the Euclidean distance between radial projections,
  extended to zero vectors (0 if both zero, 1 if exactly one is zero).
* Sparse vectors are stored dense; sparsity is an invariant, not a layout.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .rng import (
    SeedSpec,
    derive_seed,
    random_uniform_rows,
    sample_standard_normal,
    sample_standard_normal_rows,
)
from .thresholding import smallest_k

UNIT_NORM_TOL = 1e-9

MATRIX_MAGIC = b"B1CS"


def _as_float_vector(x, name="vector") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return v


@dataclass(frozen=True)
class SparseUnitVector:
    """A k-sparse vector of unit Euclidean norm.

    ``values`` is dense; at most ``k`` entries are nonzero and the norm is 1
    within ``UNIT_NORM_TOL``.  Instances are immutable (the array is marked
    read-only) and safe to share across threads.
    """

    values: np.ndarray
    k: int

    def __post_init__(self):
        v = _as_float_vector(self.values, "values")
        if not (1 <= self.k <= v.size):
            raise ValueError("sparsity budget k must satisfy 1 <= k <= n")
        if int(np.count_nonzero(v)) > self.k:
            raise ValueError("more than k nonzero entries")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"norm {nrm} deviates from 1 by more than {UNIT_NORM_TOL}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)


@dataclass(frozen=True)
class MeasurementMatrix:
    """An m x n measurement matrix.

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


@dataclass(frozen=True)
class SignPattern:
    """A vector over {-1, +1}, one entry per measurement row."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=np.int8)
        if b.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if not np.all(np.abs(b) == 1):
            raise ValueError("entries must be -1 or +1")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    def __len__(self) -> int:
        return self.bits.size


def _finite_signs(a: np.ndarray) -> np.ndarray:
    """sgn of a float64 array, as int8 in {-1, +1}; rejects non-finite entries."""
    if not np.isfinite(a).all():
        raise ValueError("sgn requires finite input")
    # Bools are the bytes 0 and 1, so 2 * bit - 1 is the sign, in int8.
    s = (a >= 0.0).view(np.int8)
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

    The gathered m x k column block is kept while the support stays the
    same.  Gathering k columns of the row-major matrix costs about ten times
    the product itself (0.15 ms against 0.017 ms at m=10000, k=5), and most
    late solver steps move the values within a support that has settled.
    A dense v takes A itself, ungathered; a zero v takes no column and
    measures all +1.  A caller that already has supp(v), as the solver has
    from top-k, passes it and saves the scan for nonzeros.
    """

    def __init__(self, A: MeasurementMatrix):
        self.A = A
        self.supp = None
        self.cols = None

    def __call__(self, v: np.ndarray, supp: np.ndarray | None = None) -> np.ndarray:
        if supp is None:
            supp = np.flatnonzero(v)
        if self.supp is None or not np.array_equal(supp, self.supp):
            a = self.A.entries
            self.supp, self.cols = supp, a if supp.size == a.shape[1] else a[:, supp]
        return _finite_signs(self.cols @ v[supp])


def _length_checked(x, n: int, name: str) -> np.ndarray:
    v = _as_float_vector(x, name)
    if v.size != n:
        raise ValueError(f"{name} has length {v.size}, expected {n}")
    return v


def sign_measure(A: MeasurementMatrix, x) -> SignPattern:
    """One-bit measurement: the row-wise sign of A @ x, over the support of x."""
    return SignPattern(_Measure(A)(_length_checked(x, A.n, "x")))


def sphere_distance(u, v) -> float:
    """Distance between the radial projections of u and v onto the unit sphere.

    Total by convention: 0 when both vectors are zero, 1 when exactly one is.
    Ranges over [0, 2].
    """
    a = _as_float_vector(u, "u")
    b = _as_float_vector(v, "v")
    if a.size != b.size:
        raise ValueError("vectors have different lengths")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(np.linalg.norm(a / na - b / nb))


def angular_distance(u, v) -> float:
    """Angle between u and v in [0, pi].

    The cosine is clamped to [-1, 1] before arccos; floating-point overshoot
    at (anti)parallel vectors would otherwise leave the arccos domain.
    """
    a = _as_float_vector(u, "u")
    b = _as_float_vector(v, "v")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("angular distance undefined for the zero vector")
    cosine = float(np.dot(a, b)) / (na * nb)
    return float(np.arccos(min(1.0, max(-1.0, cosine))))


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


def random_sparse_unit_rows(n: int, k: int, seeds) -> np.ndarray:
    """``random_sparse_unit(n, k, seed).values`` for each seed, as the rows
    of one ``len(seeds) x n`` array, from one sampler call per stream kind.

    The support is uniform over k-subsets of [n] (rank order of i.i.d.
    uniforms); the nonzero values are i.i.d. standard normal, normalized.
    """
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    children = [(derive_seed(s, 0), derive_seed(s, 1)) for s in seeds]
    ranks = random_uniform_rows([c[0] for c in children], n)
    vals = sample_standard_normal_rows([c[1] for c in children], k)
    # Row by row: np.linalg.norm of one vector is a BLAS dot, whose rounding
    # a norm along an axis does not reproduce.
    norms = np.array([np.linalg.norm(v) for v in vals])
    dead = norms == 0.0
    if dead.any():  # probability zero, but stay total
        vals[dead] = 1.0
        norms[dead] = math.sqrt(k)
    supports = smallest_k(ranks, k)
    out = np.zeros((len(children), n))
    np.put_along_axis(out, supports, vals / norms[:, None], axis=1)
    return out


def random_sparse_unit(n: int, k: int, seed: SeedSpec) -> SparseUnitVector:
    """Uniformly random k-sparse unit vector: `random_sparse_unit_rows` for
    one seed."""
    return SparseUnitVector(random_sparse_unit_rows(n, k, (seed,))[0], k)


def gaussian_matrix(m: int, n: int, seed: SeedSpec) -> MeasurementMatrix:
    """An m x n matrix with i.i.d. standard normal entries, row-major."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    entries = sample_standard_normal(seed, m * n)
    entries.shape = (m, n)  # in place: the array keeps owning its memory
    entries.setflags(write=False)
    return MeasurementMatrix(entries)


# ---------------------------------------------------------------------------
# File formats: CSV (one row per line) and the little-endian binary layout
# magic "B1CS" | u32 m | u32 n | m*n float64 (row-major).


def save_matrix_csv(path, entries: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(entries, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    data = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite entry")
    return data


def save_matrix_binary(path, entries: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(entries, dtype=np.float64))
    m, n = a.shape
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(np.array([m, n], dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MATRIX_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        m, n = (int(d) for d in np.frombuffer(header, dtype="<u4"))
        if m == 0 or n == 0:
            raise ValueError(f"{path}: empty matrix ({m}x{n})")
        # Checked before reading, so a corrupt header cannot ask for more
        # memory than the file holds.
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload < 8 * m * n:
            raise ValueError(f"{path}: truncated payload ({payload} bytes for {m}x{n})")
        if payload > 8 * m * n:
            raise ValueError(f"{path}: {payload - 8 * m * n} trailing bytes after {m}x{n}")
        data = np.frombuffer(fh.read(8 * m * n), dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite entry")
    return data.reshape(m, n).astype(np.float64)
