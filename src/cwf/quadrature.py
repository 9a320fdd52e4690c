"""The numeric oracle of the threshold-capacity integrals (criterion 8 of
`cwf validate`); `waterfill.capacity_lower_bound` is a closed form and
integrates nothing.

Two independent routes are provided for integrals of the form

    int_a^inf  f(g) * exp(-g) dg

with f a slowly growing log-type factor:

* `exp_tail_quadrature` - the primary rule.  A 64-node Gauss-Laguerre rule
  handles [a+1, inf) after shifting; the head [a, a+1] uses 64-node
  Gauss-Legendre panels whose widths grow geometrically from `scale`, so a
  branch point of f at distance `scale` below `a` never sits close to a
  panel relative to its width.  `a` and `scale` broadcast, so one call
  integrates many lower limits; each panel integrates only the elements
  whose head is still open.  Each element has its scalar call's bits:
  every row of nodes is reduced by `np.vecdot`, the same dot routine a
  scalar call runs on its one row.
* `adaptive_simpson` - Simpson with Richardson extrapolation (Lyness,
  J. ACM 1969), used as the cross-check on a truncated interval.  It
  refines breadth-first: each level evaluates the two new nodes of every
  open interval of every integral in one integrand call, accepts an
  interval when |delta| <= 15 * tol / 2**depth, and splits the rest.  The
  accepted values are then summed bottom-up in the recursion's tree order
  (a split interval is its left half plus its right half), so every
  integral has the bits of the classic depth-first recursion.

Integrand contract, shared by both routes: `f(g, k)` gets flat integer
indices `k` of elements of the call (its broadcast limits, flattened) and
nodes `g` of shape `(len(k), n)`, one row of nodes per selected element.
A per-element parameter `p` of the call's shape therefore enters as
`p.ravel()[k][:, None]`.

`checked_exp_integral` runs both; a disagreement beyond `AGREE_TOL`
raises QuadratureError, which criterion 8 reports as a failed row.
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
#: absolute tolerance of the Simpson cross-check, well inside AGREE_TOL
SIMPSON_TOL = AGREE_TOL * 1e-3
#: an interval this many halvings below its integral's span fails to converge
SIMPSON_MAX_DEPTH = 48
#: open intervals per level beyond which Simpson gives up; bounds the memory
#: of the breadth-first pass as the depth bounds the recursion's stack
SIMPSON_MAX_OPEN = 1 << 16

#: f(g, k): integrand rows g for the elements k of the call (module docstring)
Integrand = Callable[[np.ndarray, object], np.ndarray]


def exp_tail_quadrature(f: Integrand, a: float | np.ndarray,
                        scale: float | np.ndarray = 1.0) -> float | np.ndarray:
    """Integrate f(g)*exp(-g) over [a, inf), one integral per element of a.

    `a` and `scale` broadcast against each other; scalars give a float,
    arrays an array of their broadcast shape.  `scale` should bound the
    distance from `a` to the nearest singularity of f below `a` (use 1.0 for
    smooth integrands).  `f` follows the module's integrand contract and is
    called on 64 nodes per element.
    """
    a, scale = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(scale, dtype=float))
    if not (np.isfinite(a).all() and np.isfinite(scale).all()):
        raise QuadratureError(f"non-finite lower limit or scale: a={a}, scale={scale}")
    x, index = a.ravel(), np.arange(a.size)
    total = np.zeros(a.size)
    # geometric panels covering [x, x + HEAD], each over the still-open elements
    lo = np.zeros(x.size)
    width = np.minimum(np.maximum(scale.ravel(), 1e-300), HEAD)
    while (k := lo < HEAD).any():
        hi = np.minimum(lo[k] + width[k], HEAD)
        mid, half = x[k] + 0.5 * (lo[k] + hi), 0.5 * (hi - lo[k])
        g = mid[:, None] + half[:, None] * _LEG_X
        total[k] += half * np.vecdot(f(g, index[k]) * np.exp(-g), _LEG_W)
        lo[k], width[k] = hi, 2.0 * width[k]
    # shifted Gauss-Laguerre on [x + HEAD, inf)
    shift = x + HEAD
    total += np.exp(-shift) * np.vecdot(f(shift[:, None] + _LAG_X, index), _LAG_W)
    return float(total[0]) if a.ndim == 0 else total.reshape(a.shape)


#: node columns of the left and right half of an interval sampled at 5 nodes
_HALVES = np.array([[0, 1, 2], [2, 3, 4]])


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _node_values(f: Integrand, g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """f at Simpson nodes; a non-finite value raises at once, where the
    recursion would keep halving its interval until the depth ran out."""
    values = f(g, k)
    if not np.isfinite(values).all():
        raise QuadratureError(f"non-finite integrand value at g={g[~np.isfinite(values)][0]}")
    return values


def adaptive_simpson(f: Integrand, a: float | np.ndarray,
                     b: float | np.ndarray) -> float | np.ndarray:
    """Adaptive Simpson integral of f on [a, b] to absolute `SIMPSON_TOL`.

    `a` and `b` broadcast; scalars give a float, arrays an array with one
    integral per element (0.0 where b <= a).  `f` follows the module's
    integrand contract.
    Raises QuadratureError for non-finite limits, a non-finite integrand
    value, or an interval still open after `SIMPSON_MAX_DEPTH` halvings.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise QuadratureError(f"non-finite integration limits: a={a}, b={b}")
    out = np.zeros(a.size)
    roots = np.flatnonzero(b.ravel() > a.ravel())
    # per open interval: nodes x0, x1, x2, their f values, its Simpson value
    k = roots
    x0, x2 = a.ravel()[k], b.ravel()[k]
    x3 = np.stack([x0, 0.5 * (x0 + x2), x2], axis=-1)
    f3 = _node_values(f, x3, k)
    whole = _simpson(*f3.T, x2 - x0)
    eps = SIMPSON_TOL
    levels = []
    depth = 0
    while k.size:
        x = np.empty((k.size, 5))  # x0, left midpoint, x1, right midpoint, x2
        x[:, 0::2] = x3
        x[:, 1::2] = 0.5 * (x3[:, :-1] + x3[:, 1:])
        fx = np.empty_like(x)
        fx[:, 0::2] = f3
        fx[:, 1::2] = _node_values(f, x[:, 1::2], k)
        halves = _simpson(fx[:, 0:3:2], fx[:, 1:4:2], fx[:, 2::2], x[:, 2::2] - x[:, 0:3:2])
        both = halves[:, 0] + halves[:, 1]
        delta = both - whole
        if depth >= SIMPSON_MAX_DEPTH:
            raise QuadratureError(f"adaptive Simpson failed to converge on "
                                  f"[{x[0, 0]}, {x[0, 4]}], residual {delta[0]:.3e}")
        split = ~(np.abs(delta) <= 15.0 * eps)
        levels.append((both + delta / 15.0, split))
        # the halves of the j-th split interval are rows 2j and 2j+1
        x3 = x[split][:, _HALVES].reshape(-1, 3)
        f3 = fx[split][:, _HALVES].reshape(-1, 3)
        whole = halves[split].ravel()
        k = np.repeat(k[split], 2)
        if k.size > SIMPSON_MAX_OPEN:
            raise QuadratureError(f"adaptive Simpson failed to converge: {k.size} "
                                  f"intervals open at depth {depth + 1}")
        eps, depth = eps / 2.0, depth + 1
    # bottom-up in tree order: a split interval is its left plus its right half
    below = np.zeros(0)
    for value, split in reversed(levels):
        value[split] = below[0::2] + below[1::2]
        below = value
    out[roots] = below
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


def checked_exp_integral(f: Integrand, a: float | np.ndarray,
                         scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Primary exp-tail quadrature with an adaptive-Simpson cross-check.

    The primary is one array `exp_tail_quadrature` call; the check
    integrates f(g)*exp(-g) over [a, a + SIMPSON_SPAN] in one
    `adaptive_simpson` call.  Returns the primary values, one per element of
    the broadcast `a` and `scale`; raises QuadratureError if the two routes
    differ by more than `AGREE_TOL` anywhere.
    """
    a, scale = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(scale, dtype=float))
    primary = np.asarray(exp_tail_quadrature(f, a, scale))
    check = np.asarray(adaptive_simpson(lambda g, k: f(g, k) * np.exp(-g), a, a + SIMPSON_SPAN))
    diff = np.abs(primary - check)
    if not (diff <= AGREE_TOL).all():
        worst = int(np.argmax(diff))  # the first NaN, if any
        raise QuadratureError(
            f"quadrature routes disagree: {primary.flat[worst]!r} vs {check.flat[worst]!r} "
            f"(|diff|={diff.flat[worst]:.3e} > {AGREE_TOL})"
        )
    return primary
