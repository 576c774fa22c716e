"""Closed-form calculators for the convergence theory.

Everything here is pure 64-bit floating point arithmetic: sample-complexity
and error-decay formulas, the error recurrence and its doubly-exponential
closed-form envelope, fixed points, and the nested square-root recurrence
the envelope analysis rests on.

A note on precision: the error recurrence contracts geometrically (factor
about 0.48 per step near its limit), so float64 iterates reach an exactly
constant fixed point after roughly 50 steps.  Strict monotonicity therefore
holds until the iterate is within floating-point resolution of the limit,
and the sequence is non-increasing everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._inputs import _integer, _real

# Smallest certified threshold for the b constant; the contraction condition
# below is checked against exactly this literal.
B_REFERENCE = 379.1038


def _c1_of(b: float) -> float:
    return math.sqrt(3.0 * math.pi / b) * (1.0 + 16.0 * math.sqrt(2.0) / 3.0)


def _c2_of(b: float) -> float:
    return (3.0 / b) * (
        1.0
        + 4.0 * math.pi / 3.0
        + 8.0 * math.sqrt(3.0 * math.pi) / 3.0
        + 8.0 * math.sqrt(6.0 * math.pi)
    )


@dataclass(frozen=True)
class UniversalConstants:
    """The fixed constants (a, b, c, c1, c2) used by every bound in this
    module.  None is set by the constructor, so (c1, c2) are always those of
    b; `derived_constants` gives them at another b."""

    a: float = field(default=16.0, init=False)
    b: float = field(default=B_REFERENCE, init=False)
    c: float = field(default=32.0, init=False)
    c1: float = field(default=_c1_of(B_REFERENCE), init=False)
    c2: float = field(default=_c2_of(B_REFERENCE), init=False)


_CONSTANTS = UniversalConstants()


def constants() -> UniversalConstants:
    return _CONSTANTS


def derived_constants(b: float) -> tuple[float, float]:
    """(c1, c2) recomputed for an arbitrary finite b > 0."""
    b = _real(b, "b", 0, math.inf)
    return _c1_of(b), _c2_of(b)


def sample_complexity(epsilon: float, rho: float, k: int, n: int) -> int:
    """Measurement count sufficient for uniform recovery at error epsilon.

    Evaluates (4bck/eps) log(en/k) + (2bck/eps) log(12bc/eps)
    + (bc/eps) log(a/rho) and rounds up.  Monotone increasing in 1/epsilon,
    k, and 1/rho.  An epsilon or rho so small that the count overflows
    float64 (epsilon of about 1e-305 at k=5) is a ValueError.
    """
    epsilon, rho = _real(epsilon, "epsilon", 0, 1), _real(rho, "rho", 0, 1)
    n = _integer(n, "n", 2)
    k = _integer(k, "k", 1, n - 1)
    u = _CONSTANTS
    bc = u.b * u.c
    total = (
        (4.0 * bc * k / epsilon) * math.log(math.e * n / k)
        + (2.0 * bc * k / epsilon) * math.log(12.0 * bc / epsilon)
        + (bc / epsilon) * math.log(u.a / rho)
    )
    if not math.isfinite(total):
        raise ValueError(f"the count overflows float64 at epsilon={epsilon!r}, rho={rho!r}")
    return int(math.ceil(total))


def epsilon_recurrence(epsilon: float, t: int) -> float:
    """t-th term of the error recurrence e(0)=2, e(t)=4c1 sqrt((eps/c) e(t-1)) + 4c2 eps/c."""
    epsilon = _real(epsilon, "epsilon", 0, 1)
    t = _integer(t, "t")
    u = _CONSTANTS
    e = 2.0
    scale = epsilon / u.c
    for _ in range(t):
        e = 4.0 * u.c1 * math.sqrt(scale * e) + 4.0 * u.c2 * scale
    return e


def closed_form_bound(epsilon: float, t: int) -> float:
    """The envelope 2^(2^-t) * epsilon^(1 - 2^-t) that dominates the recurrence."""
    epsilon = _real(epsilon, "epsilon", 0, 1)
    t = _integer(t, "t")
    p = 2.0 ** (-t)
    return (2.0**p) * epsilon ** (1.0 - p)


def recurrence_fixed_point(epsilon: float) -> float:
    """Limit of the error recurrence: u^2 v with v = 16 c1^2 eps / c.

    Here w = c2 / (4 c1^2), u = (1 + sqrt(1 + 4w)) / 2.  The limit is linear
    in epsilon and strictly below it (barely: the ratio is about 1 - 5e-8, so
    the reference b is the smallest value for which this holds).
    """
    epsilon = _real(epsilon, "epsilon", 0, 1)
    root, v = _fixed_point_parts(epsilon, _CONSTANTS.c1, _CONSTANTS.c2, _CONSTANTS.c)
    return root * root * v


def contraction_condition_holds(epsilon: float, b: float) -> bool:
    """Whether u * sqrt(v) < sqrt(2) for the constants derived from b.

    This is the numerical condition under which the recurrence contracts
    from its starting value of 2; it holds for every epsilon in (0,1) at the
    reference b and fails for substantially smaller b.
    """
    epsilon = _real(epsilon, "epsilon", 0, 1)
    c1, c2 = derived_constants(b)
    u, v = _fixed_point_parts(epsilon, c1, c2, _CONSTANTS.c)
    return u * math.sqrt(v) < math.sqrt(2.0)


def _fixed_point_parts(epsilon: float, c1: float, c2: float, c: float) -> tuple[float, float]:
    """(u, v) with v = 16 c1^2 eps / c and u = nested_sqrt_limit(c2 / (4 c1^2))."""
    c1_sq = c1 * c1
    return nested_sqrt_limit(c2 / (4.0 * c1_sq)), 16.0 * c1_sq * epsilon / c


def nested_sqrt(w: float, w0: float, t: int) -> float:
    """t-th term of f(0) = w0, f(t) = sqrt(w + f(t-1)).

    Converges to u = (1 + sqrt(1 + 4w)) / 2; strictly decreasing when
    w0 > u, strictly increasing when w0 < u, constant when w0 == u.
    """
    w, w0 = _real(w, "w", 0, math.inf), _real(w0, "w0", 0, math.inf)
    t = _integer(t, "t")
    f = w0
    for _ in range(t):
        f = math.sqrt(w + f)
    return f


def nested_sqrt_limit(w: float) -> float:
    """Fixed point of x -> sqrt(w + x): the positive root (1 + sqrt(1 + 4w)) / 2."""
    w = _real(w, "w", 0, math.inf)
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * w))
