"""The numeric oracle of the capacity lower bound (criterion 8 of `cwf
validate`); `waterfill.capacity_lower_bound` is a closed form and integrates
nothing.  Each call computes one integral  int_a^inf f(g) exp(-g) dg,  with f
a slowly growing log-type factor that works elementwise on floats and on 1-D
arrays of nodes g.

* `exp_tail_quadrature`, the primary rule: QUADPACK's adaptive rule on
  [a, inf) (`scipy.integrate.quad`; Piessens, de Doncker-Kapenga, Ueberhuber
  & Kahaner, 1983), which needs no hint about where f is singular.
* `adaptive_simpson`, the classic depth-first adaptive Simpson with
  Richardson extrapolation (Lyness, J. ACM 1969), is the independent
  cross-check on a truncated interval.

`checked_exp_integral` runs both; a disagreement beyond `AGREE_TOL` raises
QuadratureError, which criterion 8 reports as a failed row.
"""

import math
import warnings
from collections.abc import Callable

import numpy as np
import scipy  # scipy.integrate loads on first attribute access, not at import


class QuadratureError(ArithmeticError):
    """Raised when independent quadrature routes disagree or fail to converge."""


#: integrals truncated here for the Simpson cross-check; exp(-40) ~ 4e-18
SIMPSON_SPAN = 40.0
#: largest accepted disagreement between the two routes, absolute
AGREE_TOL = 1e-6
#: absolute tolerance of the Simpson cross-check and largest accepted
#: QUADPACK error estimate, both well inside AGREE_TOL
SIMPSON_TOL = AGREE_TOL * 1e-3
#: an interval this many halvings below its integral's span fails to converge
SIMPSON_MAX_DEPTH = 48


def exp_tail_quadrature(f: Callable[[np.ndarray], np.ndarray], a: float) -> float:
    """Integrate f(g)*exp(-g) over [a, inf) with `scipy.integrate.quad`.

    Raises QuadratureError for a non-finite `a`, on any IntegrationWarning,
    or when QUADPACK's error estimate exceeds `SIMPSON_TOL`.
    """
    if not math.isfinite(a):
        raise QuadratureError(f"non-finite lower limit: a={a}")
    integrate = scipy.integrate
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, error = integrate.quad(lambda g: f(g) * math.exp(-g), a, math.inf,
                                          epsabs=1e-13, epsrel=1e-12, limit=200)
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"QUADPACK warned on [{a}, inf): {exc}") from exc
    if not error <= SIMPSON_TOL:
        raise QuadratureError(f"QUADPACK error estimate {error:.3e} > {SIMPSON_TOL} "
                              f"on [{a}, inf)")
    return float(value)


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


def checked_exp_integral(f: Callable[[np.ndarray], np.ndarray], a: float) -> float:
    """`exp_tail_quadrature`'s value, checked by `adaptive_simpson` on [a, a + SIMPSON_SPAN];
    raises QuadratureError if the two differ by more than `AGREE_TOL`."""
    primary = exp_tail_quadrature(f, a)
    check = adaptive_simpson(lambda g: f(g) * np.exp(-g), a, a + SIMPSON_SPAN)
    diff = abs(primary - check)
    if not diff <= AGREE_TOL:
        raise QuadratureError(f"quadrature routes disagree: {primary!r} vs {check!r} "
                              f"(|diff|={diff:.3e} > {AGREE_TOL})")
    return primary
