"""Hard thresholding operators and sphere normalization."""

from __future__ import annotations

import math

import numpy as np


def smallest_k(keys, k: int) -> np.ndarray:
    """For each row of ``keys`` (1-d or 2-d), the ascending indices of its k
    smallest keys, ties to the lowest index: the set that
    ``np.argsort(keys, axis=-1, kind="stable")[..., :k]`` selects.

    The keys at or below each row's k-th smallest key are that set, unless
    one ties with the k-th or the k-th is NaN; only then do the rows take
    the stable argsort.  The k-th key comes from numpy's vectorized sort of
    the values, which at n=200 was faster than a partition (2 vCPU, numpy
    2.4.6: 1.5-2.4 us against 2.2-3.3 us for one row, 21 us against 28 us
    for 32).  One row takes 5-7 us in all, against 7-9 us for the stable
    argsort; 32 rows take 35-43 us, against 240-340 us.
    """
    a = np.asarray(keys)
    n = a.shape[-1]
    k = min(_integer(k, "k"), n)
    if k == 0:
        return np.empty(a.shape[:-1] + (0,), dtype=np.intp)
    if a.ndim == 1:  # the solver's case, once a step: no row bookkeeping
        kept = np.flatnonzero(a <= np.sort(a)[k - 1])  # none if the k-th is NaN
        if kept.size == k:
            return kept
    else:
        kth = np.sort(a, axis=1)[:, k - 1 : k]
        flat = np.flatnonzero(a <= kth)
        # A row has at least k keys at or below its k-th smallest unless
        # that key is NaN, so k a row in all means no row has a tie.
        if flat.size == a.shape[0] * k and not np.isnan(kth).any():
            return (flat % n).reshape(-1, k)
    return np.sort(np.argsort(a, axis=-1, kind="stable")[..., :k], axis=-1)


def _integer(value, name: str, least=0, most=None) -> int:
    """value as an int in [least, most], or a ValueError naming it: the
    package's one rule for a count, a size or a seed field.  A bool is an
    int and a float would reach an index or a range, so both are rejected;
    a numpy integer counts.  A bound of None is no bound."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (least is not None and value < least) or (most is not None and value > most):
        span = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return value


def _real(value, name: str, low, high, closed=False) -> float:
    """value as a finite float in (low, high), or in [low, high] when
    ``closed``, or a ValueError naming it: the package's one rule for a real
    input.  An int, a float, a numpy integer or a numpy floating counts; a
    bool, a string, an array or a complex does not, and an int past
    float64's range is out of every range."""
    got = None
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            real = float(value)
        except OverflowError:
            got = "an integer too large for a float"
        else:
            if math.isfinite(real) and (low <= real <= high if closed else low < real < high):
                return real
    span = ("[" if closed and math.isfinite(low) else "(") + f"{low!r}, {high!r}" + (
        "]" if closed and math.isfinite(high) else ")")
    raise ValueError(f"{name} must be a finite number in {span}, got {got or repr(value)}")


def _vector(value, name: str, n=None) -> np.ndarray:
    """value as a one-dimensional float64 array of finite entries, of length
    n when n is given, or a ValueError naming it: the package's one rule for
    a vector input.  A list, a tuple or an integer or floating array counts,
    and a float64 array comes back uncopied."""
    try:
        a = np.asarray(value) if isinstance(value, (list, tuple, np.ndarray)) else None
    except ValueError:  # a ragged sequence, in a message that names no argument
        a = None
    if a is None or a.dtype.kind not in "iuf" or a.ndim != 1:
        got = (f"an array of dtype {a.dtype} and shape {a.shape}" if a is not None
               else f"a ragged {type(value).__name__}" if isinstance(value, (list, tuple))
               else f"an object of type {type(value).__name__}")
        raise ValueError(f"{name} must be a one-dimensional array of real numbers, got {got}")
    if n is not None and a.size != n:
        raise ValueError(f"{name} has length {a.size}, expected {n}")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


# Below this norm ||a||^2 is subnormal, or 0, and `np.linalg.norm` has lost bits.
_NORM_FLOOR = math.sqrt(np.finfo(np.float64).tiny)


def _norm(a: np.ndarray, name: str) -> float:
    """||a||_2 of a vector from `_vector`: `np.linalg.norm(a)` bit for bit,
    unless its sum of squares under- or overflows (a norm below
    `_NORM_FLOOR`, or inf) on a nonzero a; then ``s * ||a / s||_2`` with
    s = max |a_i|.  A ValueError names a vector whose norm is still past
    float64's normal range, and the zero vector has norm 0.

    The sum is the one `np.linalg.norm` takes, the dot of
    ``a.ravel(order="K")`` with itself, but through `np.vdot`, which checks
    no floating-point flag: an overflow neither warns nor costs an
    `np.errstate` (2.5 us a call on a 2-vCPU Xeon).  Where the caller made overflow an
    error it still raises, as `biht.run_biht` does to blame eta."""
    r = a.ravel(order="K")
    nrm = math.sqrt(np.vdot(r, r))
    if not _NORM_FLOOR <= nrm < math.inf and a.any():
        if nrm == math.inf and np.geterr()["over"] == "raise":
            raise FloatingPointError(f"overflow encountered in the norm of {name}")
        s = float(np.abs(a).max())
        nrm = s * float(np.linalg.norm(a / s))
        if not np.finfo(np.float64).tiny <= nrm < math.inf:
            raise ValueError(f"{name} has a norm outside float64's normal range")
    return nrm


def _top_k(a: np.ndarray, k: int):
    """(top_k(a, k), the ascending indices it kept) for a valid 1-d a."""
    out = np.zeros_like(a)
    keep = smallest_k(-np.abs(a), k)
    out[keep] = a[keep]
    return out, keep


def top_k(v, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of v, zeroing the rest.

    Ties are broken deterministically in favor of the lowest index (the
    order of a stable sort on descending magnitude, which `smallest_k`
    reproduces), so repeated runs select identical supports.
    Idempotent: top_k(top_k(v, k), k) == top_k(v, k).
    """
    a = _vector(v, "v")
    k = _integer(k, "k")
    if k > a.size:
        raise ValueError(f"k={k} outside [0, {a.size}]")
    return _top_k(a, k)[0]


def threshold_set(v, J) -> np.ndarray:
    """H_J(v): keep the coordinates that the bool mask J (v's shape) marks,
    zeroing the rest.  On a stack of vectors, row i of J restricts row i of v.

    Equivalent to multiplication by the 0/1 diagonal matrix of J, hence
    linear in v.  A J of another dtype or shape is rejected, not cast: an
    index set read as a mask would keep the wrong coordinates.
    """
    a = np.asarray(v, dtype=np.float64)
    return np.where(_mask_checked(J, a.shape), a, 0.0)


def _mask_checked(J, shape) -> np.ndarray:
    """J, once checked to be a bool mask (an ndarray, not a list) of the
    given shape; raises ValueError otherwise."""
    if not isinstance(J, np.ndarray) or J.dtype != bool or J.shape != shape:
        raise ValueError(f"J must be a bool mask of shape {shape}")
    return J


def normalize(v) -> np.ndarray:
    """v / ||v||_2; raises on the zero vector (callers choose the fallback)."""
    a = _vector(v, "v")
    nrm = _norm(a, "v")
    if nrm == 0.0:
        raise ZeroDivisionError("cannot normalize the zero vector")
    return a / nrm
