"""Quadrature helpers for the threshold-capacity integrals.

Two independent routes are provided for integrals of the form

    int_a^inf  f(g) * exp(-g) dg

with f a slowly growing log-type factor:

* `exp_tail_quadrature` - the primary rule.  A 64-node Gauss-Laguerre rule
  handles [a+1, inf) after shifting; the head [a, a+1] uses 64-node
  Gauss-Legendre panels whose widths grow geometrically from `scale`, so a
  branch point of f at distance `scale` below `a` never sits close to a
  panel relative to its width.  `a` and `scale` broadcast, so one call
  integrates a whole grid of lower limits.  An element of an array call may
  differ from the same scalar call in the last bit: a matrix-vector product
  may sum in another order than the scalar 1-D dot product.
* `adaptive_simpson` - classic recursive Simpson with Richardson
  extrapolation, used as the cross-check on a truncated interval.

Disagreement between the two routes beyond `AGREE_TOL` raises
QuadratureError; callers treat that as a numeric failure, not a warning.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss


class QuadratureError(ArithmeticError):
    """Raised when independent quadrature routes disagree or fail to converge."""


_LAG_X, _LAG_W = laggauss(64)
_LEG_X, _LEG_W = leggauss(64)

#: integrals truncated here for the Simpson cross-check; exp(-40) ~ 4e-18
SIMPSON_SPAN = 40.0
#: width of the Gauss-Legendre head [a, a + HEAD] before the Laguerre tail
HEAD = 1.0
#: largest accepted disagreement between the two routes, absolute
AGREE_TOL = 1e-6


def exp_tail_quadrature(f: Callable[[np.ndarray], np.ndarray], a: float | np.ndarray,
                        scale: float | np.ndarray = 1.0) -> float | np.ndarray:
    """Integrate f(g)*exp(-g) over [a, inf), one integral per element of a.

    `a` and `scale` broadcast against each other; scalars give a float,
    arrays an array of their broadcast shape.  `scale` should bound the
    distance from `a` to the nearest singularity of f below `a` (use 1.0 for
    smooth integrands).  `f` must accept arrays: it is called on `(..., 64)`
    node arrays, one row of nodes per element.
    """
    a, scale = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(scale, dtype=float))
    if not np.isfinite(a).all():
        raise QuadratureError(f"non-finite lower limit {a}")
    total = np.zeros(a.shape)
    # geometric panels covering [a, a + HEAD]; covered elements add half = 0
    lo = np.zeros(a.shape)
    width = np.minimum(np.maximum(scale, 1e-300), HEAD)
    while (lo < HEAD).any():
        hi = np.minimum(lo + width, HEAD)
        mid, half = a + 0.5 * (lo + hi), 0.5 * (hi - lo)
        g = mid[..., None] + half[..., None] * _LEG_X
        total += half * ((f(g) * np.exp(-g)) @ _LEG_W)
        lo, width = hi, 2.0 * width
    # shifted Gauss-Laguerre on [a + HEAD, inf)
    shift = a + HEAD
    total += np.exp(-shift) * (f(shift[..., None] + _LAG_X) @ _LAG_W)
    return float(total) if total.ndim == 0 else total


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-9, max_depth: int = 48) -> float:
    """Adaptive Simpson integration of f on [a, b] to absolute tolerance."""
    if b <= a:
        return 0.0

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(f0, flm, f1, x1 - x0)
        right = simpson(f1, frm, f2, x2 - x1)
        delta = left + right - whole
        if depth >= max_depth:
            raise QuadratureError(
                f"adaptive Simpson failed to converge on [{x0}, {x2}], residual {delta:.3e}"
            )
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1))

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 0)


def checked_exp_integral(f: Callable, a: float, scale: float = 1.0) -> float:
    """Primary exp-tail quadrature with an adaptive-Simpson cross-check.

    Returns the primary value; raises QuadratureError if the two routes
    differ by more than `AGREE_TOL`.
    """
    primary = exp_tail_quadrature(f, a, scale=scale)
    check = adaptive_simpson(lambda g: float(f(np.asarray(g)) * np.exp(-g)),
                             a, a + SIMPSON_SPAN, tol=AGREE_TOL * 1e-3)
    if abs(primary - check) > AGREE_TOL:
        raise QuadratureError(
            f"quadrature routes disagree: {primary!r} vs {check!r} "
            f"(|diff|={abs(primary - check):.3e} > {AGREE_TOL})"
        )
    return primary
