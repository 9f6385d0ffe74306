"""Adaptive Gauss-Legendre quadrature on intervals and the half line.

Scheme: 15-point Gauss-Legendre per panel, stack-based bisection. A panel is
accepted when the whole-panel estimate agrees with the sum over its halves to
PANEL_TOL (max-abs componentwise for array integrands), and a panel still
rejected at bisection depth MAX_DEPTH raises NumericalFailure; every caller
integrates to these two module constants. A panel with a non-finite value
can never be accepted, so it raises at once.

Semi-infinite integrals split at t = 1 and invert the tail (t = 1/s), so both
pieces live on [0, 1] with any integrable singularity sitting at 0. Each
piece is then integrated in the graded variable u, t = u^GRADING on the
direct piece and s = u^GRADING on the tail (Davis & Rabinowitz, Methods of
Numerical Integration, 2.12). An endpoint behaviour x^-gamma at 0 becomes
GRADING u^(GRADING - 1 - GRADING gamma): with GRADING = 4 that is a
polynomial for every gamma that is a multiple of 1/4, which the 15-node rule
integrates exactly, and every other gamma < 1 is much less singular. The
integrands of the representation of f carry such endpoints: power densities
t^alpha, and the t^beta weight of the discrepancy identity, whose tail goes
like s^-beta. What grading leaves: gamma in (3/4, 1) keeps a u^(3 - 4 gamma)
singularity, which bisection chases as before; from gamma of about 0.95 on
it does not converge within MAX_DEPTH.

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
# exponent of the graded substitution of both half-line pieces
GRADING = 4
# acceptance tolerance of a panel, and the bisection depth that gives up
PANEL_TOL = 1e-9
MAX_DEPTH = 400


def _per_node(x, vals):
    """x, one number per node, shaped to scale vals along its leading axis."""
    return x.reshape(x.shape + (1,) * (vals.ndim - 1))


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.asarray(f(mid + half * _NODES))
    # cumsum adds node by node, acc = acc + w_k * vals[k], so the sum has
    # the bits of a scalar loop; a pairwise sum over the nodes would not
    value = half * np.cumsum(_per_node(_WEIGHTS, vals) * vals, axis=0)[-1]
    if not np.all(np.isfinite(value)):
        raise NumericalFailure(
            f"quadrature met a non-finite value on [{a}, {b}]")
    return value


def integrate(f, a: float, b: float):
    """Integral of f over [a, b].

    f maps the (15,) node array of a panel to an array of shape (15, ...),
    one value per node, and is called once per panel.
    """
    total = None
    stack = [(float(a), float(b), _panel(f, a, b), 0)]
    while stack:
        lo, hi, whole, depth = stack.pop()
        if depth >= MAX_DEPTH:
            raise NumericalFailure(
                f"quadrature failed to converge on [{lo}, {hi}]")
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err = np.max(np.abs(whole - (left + right)))
        if err <= PANEL_TOL:
            piece = left + right
            total = piece if total is None else total + piece
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def integrate_halfline(f, far=None):
    """Integral of f over (0, inf): direct on (0, 1], t = 1/s on [1, inf),
    each piece in the graded variable u of the module docstring (t = u^4 on
    the direct piece, s = u^4 on the tail).

    f, and far when given, take a panel's node array and return one value
    per node along the leading axis, as for integrate.

    far, when given, replaces f on the inverted tail. Callers pass an
    algebraically regrouped form of the same function there: tail integrands
    built from differences of resolvents lose all significant digits at large
    t unless the subtraction is carried out symbolically first, and the 1/s^2
    jacobian amplifies that noise without bound as the bisection deepens.

    Deep in a panel that chases a singularity u^GRADING underflows to 0; the
    value is then inf or nan and the panel raises NumericalFailure, so those
    overflows are not warned about.
    """
    tail = f if far is None else far

    def inverted(s):
        vals = np.asarray(tail(1.0 / s))
        return vals / _per_node(s ** 2, vals)

    def graded(g):
        def h(u):
            with np.errstate(all="ignore"):
                vals = np.asarray(g(u ** GRADING))
                return vals * _per_node(GRADING * u ** (GRADING - 1), vals)
        return h

    return (integrate(graded(f), 0.0, 1.0)
            + integrate(graded(inverted), 0.0, 1.0))
