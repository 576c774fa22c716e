"""The package's input rules: one check for each kind of argument.

A count, a size, an index or a seed field goes through `_integer`; a real
through `_real`; a vector, or a stack of them, through `_vector`, and a
unit vector through `_unit_vector`, whose norm is `_norm`'s; a coordinate
set through `_mask_checked`.  Each returns the checked value or raises a
ValueError that names the argument.  The tables of `tests/test_integers.py`,
`test_reals.py` and `test_vectors.py` list the public arguments each rule
takes.  This module imports no other module of the package.
"""

from __future__ import annotations

import math

import numpy as np


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


def _vector(value, name: str, n=None, stack=False) -> np.ndarray:
    """value as a one-dimensional float64 array of finite entries, or with
    ``stack`` a 2-d one, a stack of such vectors, one per row, or a
    ValueError naming it: the package's one rule for a vector input.  n,
    where another argument sets it, is the length (of each row), or a tuple:
    the whole shape.  A list, a tuple or an integer or floating array
    counts, and a float64 array comes back uncopied."""
    try:
        a = np.asarray(value) if isinstance(value, (list, tuple, np.ndarray)) else None
    except ValueError:  # a ragged sequence, in a message that names no argument
        a = None
    if a is None or a.dtype.kind not in "iuf" or a.ndim not in ((1, 2) if stack else (1,)):
        got = (f"an array of dtype {a.dtype} and shape {a.shape}" if a is not None
               else f"a ragged {type(value).__name__}" if isinstance(value, (list, tuple))
               else f"an object of type {type(value).__name__}")
        raise ValueError(f"{name} must be a one-dimensional array of real numbers"
                         f"{' or a 2-d stack of them' if stack else ''}, got {got}")
    if isinstance(n, tuple):
        if a.shape != n:
            raise ValueError(f"{name} has shape {a.shape}, expected {n}")
    elif n is not None and a.shape[-1] != n:
        raise ValueError(f"{name} has length {a.shape[-1]}, expected {n}")
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


# How far a unit vector's norm may be from 1: the one tolerance of `_unit_vector`.
UNIT_NORM_TOL = 1e-9


def _unit_vector(value, name: str, n=None) -> np.ndarray:
    """value as a vector of `_vector` (of length n when given) whose norm,
    taken by `_norm`, is within UNIT_NORM_TOL of 1, or a ValueError naming
    it: the package's one rule for a unit vector input."""
    a = _vector(value, name, n)
    nrm = _norm(a, name)
    if not abs(nrm - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"{name} must be a unit vector, got one of norm {nrm!r}")
    return a


def _mask_checked(J, shape) -> np.ndarray:
    """J, once checked to be a bool mask (an ndarray, not a list) of the
    given shape; raises ValueError otherwise."""
    if not isinstance(J, np.ndarray) or J.dtype != bool or J.shape != shape:
        raise ValueError(f"J must be a bool mask of shape {shape}")
    return J
