"""Quasi-relative entropies S_f(rho||sigma) and their integral structure.

S_f(rho||sigma) = <sqrt(rho), f(Delta_{sigma,rho}) sqrt(rho)>
               = sum over (i, j with lambda_j > 0) of
                 f(mu_i/lambda_j) * lambda_j * |<phi_i|psi_j>|^2.

Every entropy is a float. It is math.inf exactly when ker(sigma) meets
supp(rho) with total weight above WEIGHT_TOL and f(0+) = +inf; weights at or
below WEIGHT_TOL multiply any f(0+) to zero (the 0 * inf = 0 convention).

Every function of Delta takes Delta itself, op = modular.build(sigma, rho);
reconstruct_gap takes op and op_n, the operator of (E(rho), E(sigma)), which
a PairContext holds for one (rho, sigma, spec) triple. gap and renyi_gap
take the entropies of op and op_n, so each entropy is computed once. The
relative entropy is s_f(builtin_neg_log(), op) and the power quasi-entropy
s_f(builtin_neg_power(alpha), op); their trace formulas, which take the
states, are reference oracles in tests/oracles.py. integral_reconstruction
and reconstruct_gap integrate one resolvent-sum kernel against the density
w(t) that every rep carries; both need supp rho inside supp sigma and raise
DomainError otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidInput, NumericalFailure
from .modular import RelativeModularOperator
from .monotone import MonotoneDecreasingRep, builtin_neg_power
from .quadrature import integrate_halfline

WEIGHT_TOL = 1e-14


def _kernel_weight(op: RelativeModularOperator) -> float:
    """Weight of supp rho on ker sigma (the zero modular eigenvalues)."""
    return float(np.sum(op.weights[op.eigenvalues <= 0.0]))


def s_f(rep: MonotoneDecreasingRep, op: RelativeModularOperator) -> float:
    """Quasi-entropy for an operator monotone decreasing f; math.inf when
    f(0+) = +inf and the kernel weight exceeds WEIGHT_TOL."""
    e, w = op.eigenvalues, op.weights
    pos = e > 0.0
    fv = np.asarray(rep.eval(e[pos]), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise DomainError(f"{rep.name} not finite on the positive spectrum")
    finite_part = float(np.sum(w[pos] * fv))
    zero_weight = _kernel_weight(op)
    if np.isinf(rep.f_at_zero):
        return math.inf if zero_weight > WEIGHT_TOL else finite_part
    return finite_part + rep.f_at_zero * zero_weight


def s_t(t: float, op: RelativeModularOperator) -> float:
    """<sqrt(rho), (t + Delta)^{-1} sqrt(rho)> for t > 0.

    Decreasing in t with t * S_t -> Tr[rho] = 1 as t -> inf.
    """
    if t <= 0.0:
        raise InvalidInput("S_t needs t > 0")
    return float(np.sum(op.weights / (t + op.eigenvalues)))


def renyi(alpha: float, op: RelativeModularOperator) -> float:
    """Renyi divergence (1/(alpha-1)) log Tr[rho^alpha sigma^(1-alpha)]
    for alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("Renyi order must lie in (0, 1)")
    return _renyi_of_power(alpha, s_f(builtin_neg_power(1.0 - alpha), op))


def _renyi_of_power(alpha: float, power_entropy: float) -> float:
    inner = -power_entropy
    if inner <= 0.0:
        raise NumericalFailure("power trace non-positive; states numerically "
                               "orthogonal")
    return math.log(inner) / (alpha - 1.0)


def gap(outer: float, inner: float) -> float:
    """S_f(rho||sigma) - S_f(E(rho)||E(sigma)) from the two entropies,
    outer = s_f(rep, op) and inner = s_f(rep, op_n); nonnegative by the data
    processing inequality. +inf when only the outer entropy is infinite,
    nan when both are."""
    if math.isinf(outer):
        return math.inf if not math.isinf(inner) else math.nan
    return outer - inner


def renyi_gap(alpha: float, outer: float, inner: float) -> float:
    """renyi(alpha, op) - renyi(alpha, op_n) from the power entropies
    outer = s_f(builtin_neg_power(1 - alpha), op) and inner the same of
    op_n."""
    return _renyi_of_power(alpha, outer) - _renyi_of_power(alpha, inner)


def _check_reconstructible(*ops: RelativeModularOperator) -> None:
    if any(_kernel_weight(op) > WEIGHT_TOL for op in ops):
        raise DomainError("supp sigma must contain supp rho (finite case)")


def _resolvent_sum(op: RelativeModularOperator, t: np.ndarray) -> np.ndarray:
    """sum_j w_j (1/(t+e_j) - 1/(t+1)) at each t of an array, each
    difference of resolvents written as a single fraction: the separate
    terms agree to O(1/t) at large t and cancel destructively."""
    e, w = op.eigenvalues, op.weights
    tc = t[:, None]
    return np.sum(w * (1.0 - e) / ((tc + e) * (tc + 1.0)), axis=1)


def integral_reconstruction(rep: MonotoneDecreasingRep,
                            op: RelativeModularOperator) -> float:
    """Rebuild S_f from the resolvent family, with the representation
    anchored at f(1) (see monotone):

        S_f = sum_j w_j f(e_j)
            = f(1) sum w + integral_0^inf sum_j w_j (1/(t+e_j) - 1/(t+1))
                                          w(t) dt.

    Each term of the integrand decays like 1/t^2, keeping the half-line
    quadrature stable against the w(t) ~ t^alpha growth of power densities,
    and it takes all the nodes of a quadrature piece in one call.
    """
    _check_reconstructible(op)
    integral = integrate_halfline(
        lambda t: _resolvent_sum(op, t) * rep.density(t))
    return float(rep.eval(1.0)) * float(np.sum(op.weights)) + float(integral)


def reconstruct_gap(rep: MonotoneDecreasingRep, op: RelativeModularOperator,
                    op_n: RelativeModularOperator) -> float:
    """Gap rebuilt as f(1) (sum w - sum w_n) + integral_0^inf
    (S_t(rho||sigma) - S_t(E(rho)||E(sigma))) w(t) dt, the difference of
    the two anchored reconstructions. op and op_n as for gap."""
    _check_reconstructible(op, op_n)
    integral = integrate_halfline(
        lambda t: (_resolvent_sum(op, t) - _resolvent_sum(op_n, t))
        * rep.density(t))
    return float(rep.eval(1.0)) \
        * (float(np.sum(op.weights)) - float(np.sum(op_n.weights))) \
        + float(integral)
