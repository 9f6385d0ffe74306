"""Double-exponential (tanh-sinh) quadrature on intervals and the half line.

The rule (Takahasi & Mori 1974; Mori & Sugihara, J. Comput. Appl. Math. 127,
2001) is the trapezoid rule of step H on the nodes u = kH, |u| <= U_MAX,
after the substitution x = a + (b - a) / (1 + exp(-2v)), v = (pi/2) sinh u.
It integrates an endpoint behaviour x^-gamma with no extra nodes, and it
forms x - a as (b - a) times a logistic factor, with full relative precision
near a: a singular end is passed as a. U_MAX is the last step at which the
smallest offset, about 5e-148 of b - a, has a normal square, as the s^2 of
the folded half-line tail needs. Truncating there drops about
(5e-148)^(1 - gamma) / (1 - gamma): under 1e-14 for gamma <= 0.9, 5e-7 at
gamma = 0.95, order 1 at gamma = 0.99, where doubles fail any rule that does
not know gamma. No error estimate is formed; every caller compares its
integral with a closed-form value.

The half line folds onto (0, 1]: the integral of f over (0, inf) is that of
f(s) + f(1/s) / s^2 over (0, 1], so both halves have their singular end at
s = 0: the power densities t^alpha, and the s^-beta tail of the t^beta
weight of the discrepancy identity.

Integrand contract: f is called once per integrate call, with the float
array of all the nodes, and returns an array whose leading axis indexes
them; a trailing shape makes the integral an array of that shape.
integrate_halfline is one integrate call on the folded integrand: f is
called once, on the nodes s followed by 1/s, each half in the rule's
order, so the even-indexed nodes of each half are still the rule at step
2H. A non-finite value raises NumericalFailure, without a numpy warning. An
integrand built from a difference of resolvents must regroup that
difference for large t itself (as PairContext.w_t does): the two terms
agree to O(1/t^2), and the 1/s^2 jacobian of the folded tail amplifies the
lost digits without bound near s = 0.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure

# step of the trapezoid rule in u, and the truncation of the node range
H = 1.0 / 16.0
U_MAX = 5.375

_U = H * np.arange(-round(U_MAX / H), round(U_MAX / H) + 1)
_V = 0.5 * np.pi * np.sinh(_U)
# offsets x - a and weights of the nodes on an interval of unit length
_OFFSETS = 1.0 / (1.0 + np.exp(-2.0 * _V))
_WEIGHTS = H * np.pi * np.cosh(_U) * _OFFSETS / (1.0 + np.exp(2.0 * _V))


def _per_node(x, vals):
    """x, one number per node, shaped to scale vals along its leading axis."""
    return x.reshape(x.shape + (1,) * (vals.ndim - 1))


def integrate(f, a: float, b: float):
    """Integral of f over [a, b], any endpoint singularity at a."""
    width = float(b) - float(a)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(a + width * _OFFSETS))
        value = np.sum(_per_node(width * _WEIGHTS, vals) * vals, axis=0)
    if not np.all(np.isfinite(value)):
        raise NumericalFailure(
            f"quadrature met a non-finite value on [{a}, {b}]")
    return value


def integrate_halfline(f):
    """Integral of f over (0, inf), as that of f(s) + f(1/s) / s^2 over
    (0, 1]: one integrate call, which calls f once on both halves. Its
    NumericalFailure names (0, inf), the interval f is integrated on."""
    def folded(s):
        vals = np.asarray(f(np.concatenate([s, 1.0 / s])))
        head, tail = vals[:s.size], vals[s.size:]
        return head + tail / _per_node(s ** 2, tail)

    try:
        return integrate(folded, 0.0, 1.0)
    except NumericalFailure:
        raise NumericalFailure(
            "quadrature met a non-finite value on (0, inf)") from None
