"""Quasi-relative entropies S_f(rho||sigma) and their integral structure.

S_f(rho||sigma) = <sqrt(rho), f(Delta_{sigma,rho}) sqrt(rho)>
               = sum over (i, j with lambda_j > 0) of
                 f(mu_i/lambda_j) * lambda_j * |<phi_i|psi_j>|^2.

Every entropy is a float. It is math.inf exactly when f(0+) = +inf and the
weight of rho on ker(sigma) (modular.kernel_weight) exceeds rho's zero
threshold; a weight at or below it is roundoff under linalg's support policy,
and multiplies f(0+) to zero (the 0 * inf = 0 convention).

Every function of Delta takes Delta itself, op = modular.build(sigma, rho);
reconstruct_gap takes op and op_n, the operator of (E(rho), E(sigma)), which
a PairContext holds for one (rho, sigma, spec) triple. entropies takes
the entropy of op for several functions in one pass over op, and s_f is
its one-function view. gap and renyi_gap take the entropies of op and
op_n, so each entropy is computed once. The relative entropy is
s_f(builtin_neg_log(), op) and the power quasi-entropy
s_f(builtin_neg_power(alpha), op); their trace formulas, which take the
states, are reference oracles in tests/oracles.py. s_t takes a number or an
array of t, elementwise. reconstructions rebuilds the entropy of op and the
gap of (op, op_n) for several functions from one shared integrand: the
resolvent sums of op and op_n, formed once per half-line integral, times
the densities w(t) of every rep on a trailing axis, so one half-line
integral serves them all; integral_reconstruction and reconstruct_gap are
its one-function views. It needs supp rho inside supp sigma, and raises
DomainError otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidInput, NumericalFailure
from .modular import RelativeModularOperator, kernel_weight
from .monotone import MonotoneDecreasingRep, builtin_neg_power
from .quadrature import integrate_halfline


def entropies(reps, op: RelativeModularOperator) -> list:
    """Quasi-entropy of op for each rep of reps, in one pass over op: the
    positive spectrum and the kernel weight are formed once, and every rep
    is evaluated on it as one row of a stack, each row summed on its own (a
    rep's entropy is the same bits whichever reps share the call). math.inf
    where f(0+) = +inf and the kernel weight exceeds rho's zero threshold."""
    if not reps:
        return []
    e, w = op.eigenvalues, op.weights
    pos = e > 0.0
    e_pos = e[pos]
    fv = np.array([rep.eval(e_pos) for rep in reps], dtype=float)
    finite = np.isfinite(fv).all(axis=1)
    if not finite.all():
        bad = reps[int(np.argmin(finite))]
        raise DomainError(f"{bad.name} not finite on the positive spectrum")
    zero_weight = kernel_weight(op)
    out = []
    for rep, finite_part in zip(reps, np.sum(w[pos] * fv, axis=1).tolist()):
        if math.isinf(rep.f_at_zero):
            out.append(math.inf if zero_weight > op.rho_dec.zero_threshold
                       else finite_part)
        else:
            out.append(finite_part + rep.f_at_zero * zero_weight)
    return out


def s_f(rep: MonotoneDecreasingRep, op: RelativeModularOperator) -> float:
    """Quasi-entropy for an operator monotone decreasing f (entropies, for
    one rep)."""
    return entropies([rep], op)[0]


def s_t(t, op: RelativeModularOperator):
    """<sqrt(rho), (t + Delta)^{-1} sqrt(rho)> for t > 0; t a number or an
    array, elementwise.

    Decreasing in t with t * S_t -> Tr[rho] = 1 as t -> inf.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise InvalidInput("S_t needs t > 0")
    return np.sum(op.weights / (t[..., None] + op.eigenvalues),
                  axis=-1)[()]  # a number for a number


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


def _resolvent_sum(op: RelativeModularOperator, t: np.ndarray) -> np.ndarray:
    """sum_j w_j (1/(t+e_j) - 1/(t+1)) at each t of an array, each
    difference of resolvents written as a single fraction: the separate
    terms agree to O(1/t) at large t and cancel destructively."""
    e, w = op.eigenvalues, op.weights
    tc = t[:, None]
    return np.sum(w * (1.0 - e) / ((tc + e) * (tc + 1.0)), axis=1)


def reconstructions(reps, op: RelativeModularOperator,
                    op_n: RelativeModularOperator) -> np.ndarray:
    """S_f(rho||sigma) and the gap S_f(rho||sigma) - S_f(E(rho)||E(sigma))
    rebuilt from the resolvent family for each rep of reps, as the columns
    of a (2, len(reps)) array: row 0 the entropies, row 1 the gaps. With the
    representation anchored at f(1) (see monotone),

        S_f = sum_j w_j f(e_j)
            = f(1) sum w + integral_0^inf sum_j w_j (1/(t+e_j) - 1/(t+1))
                                          w(t) dt,

    and the gap is the difference of the two anchored reconstructions. Each
    term of the integrand decays like 1/t^2, keeping the half-line
    quadrature stable against the w(t) ~ t^alpha growth of power densities.
    The quadrature sums each entry of the trailing (2, len(reps)) axes over
    the nodes alone, so a rep's values are the same bits whichever reps
    share the call. When op_n is op (E = id) op's resolvent sum serves both.
    """
    if any(kernel_weight(o) > o.rho_dec.zero_threshold for o in (op, op_n)):
        raise DomainError("supp sigma must contain supp rho (finite case)")

    def integrand(t):
        r = _resolvent_sum(op, t)[:, None, None]
        r_n = r if op_n is op else _resolvent_sum(op_n, t)[:, None, None]
        dens = np.stack([rep.density(t) for rep in reps], axis=-1)[:, None]
        return np.concatenate([r * dens, (r - r_n) * dens], axis=1)

    f1 = np.array([float(rep.eval(1.0)) for rep in reps])
    w, w_n = float(np.sum(op.weights)), float(np.sum(op_n.weights))
    return np.stack([f1 * w, f1 * (w - w_n)]) + integrate_halfline(integrand)


def integral_reconstruction(rep: MonotoneDecreasingRep,
                            op: RelativeModularOperator) -> float:
    """S_f rebuilt from the resolvent family (reconstructions, against op
    itself)."""
    return float(reconstructions([rep], op, op)[0, 0])


def reconstruct_gap(rep: MonotoneDecreasingRep, op: RelativeModularOperator,
                    op_n: RelativeModularOperator) -> float:
    """Gap rebuilt as f(1) (sum w - sum w_n) + integral_0^inf
    (S_t(rho||sigma) - S_t(E(rho)||E(sigma))) w(t) dt (reconstructions).
    op and op_n as for gap."""
    return float(reconstructions([rep], op, op_n)[1, 0])
