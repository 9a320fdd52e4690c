"""The numeric oracle of the capacity lower bound (criterion 8 of `cwf
validate`); `waterfill.capacity_lower_bound` is a closed form and integrates
nothing.  Each call computes one integral  int_a^inf f(g) exp(-g) dg,  with f
a slowly growing log-type factor called as `f(g)` on a 1-D array of nodes g.

* `exp_tail_quadrature`, the primary rule: 64-node Gauss-Legendre panels on
  the head [a, a+1], whose widths grow geometrically from `scale` so that a
  branch point of f at distance `scale` below `a` never sits close to a
  panel relative to its width, then a shifted 64-node Gauss-Laguerre rule on
  [a+1, inf).
* `adaptive_simpson`, the classic depth-first adaptive Simpson with
  Richardson extrapolation (Lyness, J. ACM 1969), is the independent
  cross-check on a truncated interval.

`checked_exp_integral` runs both; a disagreement beyond `AGREE_TOL` raises
QuadratureError, which criterion 8 reports as a failed row.
"""

import math
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
#: absolute tolerance of the Simpson cross-check, well inside AGREE_TOL
SIMPSON_TOL = AGREE_TOL * 1e-3
#: an interval this many halvings below its integral's span fails to converge
SIMPSON_MAX_DEPTH = 48


def exp_tail_quadrature(f: Callable[[np.ndarray], np.ndarray], a: float,
                        scale: float = 1.0) -> float:
    """Integrate f(g)*exp(-g) over [a, inf), calling `f` on 64 nodes at a time.

    `scale` should bound the distance from `a` to the nearest singularity of
    f below `a` (use 1.0 for smooth integrands).
    """
    if not (math.isfinite(a) and math.isfinite(scale)):
        raise QuadratureError(f"non-finite lower limit or scale: a={a}, scale={scale}")
    total = 0.0
    lo, width = 0.0, min(max(scale, 1e-300), HEAD)  # panels covering [a, a + HEAD]
    while lo < HEAD:
        hi = min(lo + width, HEAD)
        half = 0.5 * (hi - lo)
        g = (a + 0.5 * (lo + hi)) + half * _LEG_X
        total += half * np.dot(f(g) * np.exp(-g), _LEG_W)
        lo, width = hi, 2.0 * width
    # shifted Gauss-Laguerre on [a + HEAD, inf); math.exp may differ in the last bit
    shift = a + HEAD
    return float(total + np.exp(-shift) * np.dot(f(shift + _LAG_X), _LAG_W))


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Adaptive Simpson integral of f on [a, b] to absolute `SIMPSON_TOL`; 0.0 if b <= a.

    Raises QuadratureError for non-finite limits, a non-finite integrand
    value, or an interval still open after `SIMPSON_MAX_DEPTH` halvings.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"non-finite integration limits: a={a}, b={b}")
    if b <= a:
        return 0.0

    def values(*x):
        # raise at once, where the recursion would halve down to the depth limit
        g = np.array(x)
        fx = f(g)
        if not np.isfinite(fx).all():
            raise QuadratureError(f"non-finite integrand value at g={g[~np.isfinite(fx)][0]}")
        return fx

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        flm, frm = values(0.5 * (x0 + x1), 0.5 * (x1 + x2))
        left = _simpson(f0, flm, f1, x1 - x0)
        right = _simpson(f1, frm, f2, x2 - x1)
        delta = left + right - whole
        if depth >= SIMPSON_MAX_DEPTH:
            raise QuadratureError(f"adaptive Simpson failed to converge on "
                                  f"[{x0}, {x2}], residual {delta:.3e}")
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1))

    fa, fm, fb = values(a, 0.5 * (a + b), b)
    return float(recurse(a, b, fa, fm, fb, _simpson(fa, fm, fb, b - a), SIMPSON_TOL, 0))


def checked_exp_integral(f: Callable[[np.ndarray], np.ndarray], a: float,
                         scale: float = 1.0) -> float:
    """`exp_tail_quadrature`'s value, checked by `adaptive_simpson` on [a, a + SIMPSON_SPAN];
    raises QuadratureError if the two differ by more than `AGREE_TOL`."""
    primary = exp_tail_quadrature(f, a, scale)
    check = adaptive_simpson(lambda g: f(g) * np.exp(-g), a, a + SIMPSON_SPAN)
    diff = abs(primary - check)
    if not diff <= AGREE_TOL:
        raise QuadratureError(f"quadrature routes disagree: {primary!r} vs {check!r} "
                              f"(|diff|={diff:.3e} > {AGREE_TOL})")
    return primary
