"""Adaptive Gauss-Legendre quadrature on intervals and the half line.

Scheme: 15-point Gauss-Legendre per panel, stack-based bisection. A panel is
accepted when the whole-panel estimate agrees with the sum over its halves to
panel_tol (max-abs componentwise for array integrands). Semi-infinite
integrals split at t = 1 and invert the tail (t = 1/s), so both pieces live
on [0, 1] with any integrable singularity sitting at 0, where bisection can
refine geometrically as deep as it needs (float spacing near 1.0 would cap
refinement at ~1e-16 and stall on t^(-gamma) tails).

Integrand contract: f is called once per panel, with the float array of the
panel's 15 nodes, and returns an array whose leading axis indexes those
nodes; a trailing shape, the same at every call, makes the integral an array
of that shape. The far= tail of integrate_halfline follows the same
contract.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.asarray(f(mid + half * _NODES))
    w = _WEIGHTS.reshape(_WEIGHTS.shape + (1,) * (vals.ndim - 1))
    # cumsum adds node by node, acc = acc + w_k * vals[k], so the sum has
    # the bits of a scalar loop; a pairwise sum over the nodes would not
    return half * np.cumsum(w * vals, axis=0)[-1]


def integrate(f, a: float, b: float, panel_tol: float = 1e-9,
              max_depth: int = 400):
    """Integral of f over [a, b].

    f maps the (15,) node array of a panel to an array of shape (15, ...),
    one value per node, and is called once per panel.
    """
    total = None
    stack = [(float(a), float(b), _panel(f, a, b), 0)]
    while stack:
        lo, hi, whole, depth = stack.pop()
        if depth >= max_depth:
            raise NumericalFailure(
                f"quadrature failed to converge on [{lo}, {hi}]")
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err = np.max(np.abs(whole - (left + right)))
        if err <= panel_tol:
            piece = left + right
            total = piece if total is None else total + piece
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def integrate_halfline(f, panel_tol: float = 1e-9, max_depth: int = 400,
                       far=None):
    """Integral of f over (0, inf): direct on (0, 1], t = 1/s on [1, inf).

    f, and far when given, take a panel's node array and return one value
    per node along the leading axis, as for integrate.

    far, when given, replaces f on the inverted tail. Callers pass an
    algebraically regrouped form of the same function there: tail integrands
    built from differences of resolvents lose all significant digits at large
    t unless the subtraction is carried out symbolically first, and the 1/s^2
    jacobian amplifies that noise without bound as the bisection deepens.
    """
    tail = f if far is None else far

    def inverted(s):
        vals = np.asarray(tail(1.0 / s))
        return vals / (s ** 2).reshape(s.shape + (1,) * (vals.ndim - 1))

    lower = integrate(f, 0.0, 1.0, panel_tol=panel_tol, max_depth=max_depth)
    upper = integrate(inverted, 0.0, 1.0, panel_tol=panel_tol,
                      max_depth=max_depth)
    return lower + upper
