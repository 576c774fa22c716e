"""Vector/matrix primitives: signs, sphere geometry, sparse unit signals.

Conventions fixed here and relied on everywhere else:

* ``sgn(0) = +1`` (the sign function is total on the reals).
* Sphere distance is the Euclidean distance between radial projections,
  extended to zero vectors (0 if both zero, 1 if exactly one is zero).
* Sparse vectors are stored dense; sparsity is an invariant, not a layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .rng import SeedSpec, derive_seed, random_uniform, sample_standard_normal

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


def sgn(x):
    """Sign with sgn(0) = +1, elementwise on arrays.

    Rejects non-finite input; returns int8 in {-1, +1}.
    """
    a = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("sgn requires finite input")
    out = np.where(a >= 0.0, np.int8(1), np.int8(-1))
    if np.isscalar(x) or a.ndim == 0:
        return int(out)
    return out


def sign_measure(A: MeasurementMatrix, x) -> SignPattern:
    """One-bit measurement: the row-wise sign of A @ x."""
    v = _as_float_vector(x, "x")
    if v.size != A.n:
        raise ValueError(f"x has length {v.size}, expected {A.n}")
    return SignPattern(sgn(A.entries @ v))


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


def random_sparse_unit(n: int, k: int, seed: SeedSpec) -> SparseUnitVector:
    """Uniformly random k-sparse unit vector.

    The support is uniform over k-subsets of [n] (rank order of i.i.d.
    uniforms); the nonzero values are i.i.d. standard normal, normalized.
    """
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    support_seed = derive_seed(seed, 0)
    value_seed = derive_seed(seed, 1)
    support = np.argsort(random_uniform(support_seed, n), kind="stable")[:k]
    vals = sample_standard_normal(value_seed, k)
    nrm = float(np.linalg.norm(vals))
    if nrm == 0.0:  # probability zero, but stay total
        vals = np.ones(k)
        nrm = float(np.sqrt(k))
    out = np.zeros(n)
    out[np.sort(support)] = vals / nrm
    return SparseUnitVector(out, k)


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
        # Checked before reading, so a corrupt header cannot ask for more
        # memory than the file holds.
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload < 8 * m * n:
            raise ValueError(f"{path}: truncated payload ({payload} bytes for {m}x{n})")
        if payload > 8 * m * n:
            raise ValueError(f"{path}: {payload - 8 * m * n} trailing bytes after {m}x{n}")
        data = np.frombuffer(fh.read(8 * m * n), dtype="<f8")
    return data.reshape(m, n).astype(np.float64)
