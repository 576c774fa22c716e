"""Hard thresholding operators and sphere normalization."""

from __future__ import annotations

import numpy as np

from ._inputs import _integer, _mask_checked, _norm, _vector


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
    return _top_k(a, _integer(k, "k", 0, a.size))[0]


def threshold_set(v, J) -> np.ndarray:
    """H_J(v): keep the coordinates that the bool mask J (v's shape) marks,
    zeroing the rest.  On a stack of vectors, row i of J restricts row i of v.

    Equivalent to multiplication by the 0/1 diagonal matrix of J, hence
    linear in v.  A J of another dtype or shape is rejected, not cast: an
    index set read as a mask would keep the wrong coordinates.
    """
    a = _vector(v, "v", stack=True)
    return _threshold_set(a, _mask_checked(J, a.shape))


def _threshold_set(a: np.ndarray, J: np.ndarray) -> np.ndarray:
    """threshold_set(a, J) for a checked a and J: the one restriction of a
    vector or a stack to a mask, `raic.restricted_residual`'s too."""
    return np.where(J, a, 0.0)


def normalize(v) -> np.ndarray:
    """v / ||v||_2; raises on the zero vector (callers choose the fallback)."""
    a = _vector(v, "v")
    nrm = _norm(a, "v")
    if nrm == 0.0:
        raise ZeroDivisionError("cannot normalize the zero vector")
    return a / nrm
