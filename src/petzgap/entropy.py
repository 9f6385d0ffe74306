"""Quasi-relative entropies S_f(rho||sigma) and their integral structure.

S_f(rho||sigma) = <sqrt(rho), f(Delta_{sigma,rho}) sqrt(rho)>
               = sum over (i, j with lambda_j > 0) of
                 f(mu_i/lambda_j) * lambda_j * |<phi_i|psi_j>|^2.

The value is +inf exactly when ker(sigma) meets supp(rho) with total weight
above WEIGHT_TOL and f(0+) = +inf; weights at or below WEIGHT_TOL multiply
any f(0+) to zero (the 0 * inf = 0 convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import modular
from .algebra import SubalgebraSpec, conditional_expectation
from .errors import DomainError, InvalidInput, NumericalFailure, Unsupported
from .linalg import psd_power
from .monotone import MonotoneDecreasingRep, builtin_neg_log, builtin_neg_power
from .quadrature import integrate_halfline
from .states import DensityMatrix, make_density

WEIGHT_TOL = 1e-14


@dataclass(eq=False)
class EntropyValue:
    """value may be +inf; finite_part_valid says whether value is the
    complete (finite) sum. diagnostics: min_weighted_eigenvalue (smallest
    modular eigenvalue carrying weight above WEIGHT_TOL), support_included
    (supp rho inside supp sigma up to weight tolerance), zero_weight (total
    weight sitting on the kernel of sigma)."""

    value: float
    finite_part_valid: bool
    diagnostics: dict = field(default_factory=dict)


def _as_density(state) -> DensityMatrix:
    if isinstance(state, DensityMatrix):
        return state
    return make_density(state)


def _joint(rho, sigma, data=None) -> modular.RelativeModularOperator:
    if data is not None:
        return data
    return modular.build(_as_density(sigma), _as_density(rho))


def s_f(rep: MonotoneDecreasingRep, rho, sigma, data=None) -> EntropyValue:
    """Quasi-entropy for an operator monotone decreasing f."""
    op = _joint(rho, sigma, data)
    e, w = op.eigenvalues, op.weights
    pos = e > 0.0
    fv = np.asarray(rep.eval(e[pos]), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise DomainError(f"{rep.name} not finite on the positive spectrum")
    finite_part = float(np.sum(w[pos] * fv))
    zero_weight = float(np.sum(w[~pos]))
    support_included = zero_weight <= WEIGHT_TOL
    heavy = w > WEIGHT_TOL
    min_weighted = float(np.min(e[heavy])) if np.any(heavy) else 0.0
    diagnostics = {
        "min_weighted_eigenvalue": min_weighted,
        "support_included": support_included,
        "zero_weight": zero_weight,
    }
    if np.isinf(rep.f_at_zero):
        if not support_included:
            return EntropyValue(value=math.inf, finite_part_valid=False,
                                diagnostics=diagnostics)
        return EntropyValue(value=finite_part, finite_part_valid=True,
                            diagnostics=diagnostics)
    value = finite_part + rep.f_at_zero * zero_weight
    return EntropyValue(value=value, finite_part_valid=True,
                        diagnostics=diagnostics)


def s_t(t: float, rho, sigma, data=None) -> float:
    """<sqrt(rho), (t + Delta)^{-1} sqrt(rho)> for t > 0.

    Decreasing in t with t * S_t -> Tr[rho] = 1 as t -> inf.
    """
    if t <= 0.0:
        raise InvalidInput("S_t needs t > 0")
    op = _joint(rho, sigma, data)
    return float(np.sum(op.weights / (t + op.eigenvalues)))


def umegaki(rho, sigma, data=None) -> EntropyValue:
    """Relative entropy Tr[rho (log rho - log sigma)] as S_f with f = -log."""
    return s_f(builtin_neg_log(), rho, sigma, data=data)


def umegaki_trace(rho, sigma) -> float:
    """Trace-formula cross-check (finite case only: supp rho in supp sigma).

    Uses pseudo-logarithms restricted to the supports; raises DomainError
    when the value is +inf.
    """
    r = _as_density(rho)
    s = _as_density(sigma)
    op = modular.build(s, r)
    zero_weight = float(np.sum(op.weights[op.eigenvalues <= 0.0]))
    if zero_weight > WEIGHT_TOL:
        raise DomainError("relative entropy is infinite (support mismatch)")
    log_r = psd_power_log(r.matrix)
    log_s = psd_power_log(s.matrix)
    return float(np.trace(r.matrix @ (log_r - log_s)).real)


def psd_power_log(a) -> np.ndarray:
    """log on the support, 0 on the kernel."""
    from .linalg import eigh
    dec = eigh(a)
    w = dec.eigenvalues.real
    vals = np.where(w > dec.zero_threshold, np.log(np.where(w > 0, w, 1.0)), 0.0)
    v = dec.eigenvectors
    out = (v * vals) @ v.conj().T
    return (out + out.conj().T) / 2.0


def power_quasi(alpha: float, rho, sigma, data=None) -> EntropyValue:
    """S_f for f(x) = -x^alpha; equals -Tr[sigma^alpha rho^(1-alpha)]
    (pseudo powers), always in [-1, 0)."""
    return s_f(builtin_neg_power(alpha), rho, sigma, data=data)


def power_trace(alpha: float, rho, sigma) -> float:
    """Trace-formula cross-check -Tr[sigma^alpha rho^(1-alpha)]."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("alpha must lie in (0, 1)")
    r = _as_density(rho)
    s = _as_density(sigma)
    return -float(np.trace(
        psd_power(s.matrix, alpha) @ psd_power(r.matrix, 1.0 - alpha)).real)


def renyi(alpha: float, rho, sigma, data=None) -> EntropyValue:
    """Renyi divergence (1/(alpha-1)) log Tr[rho^alpha sigma^(1-alpha)]
    for alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("Renyi order must lie in (0, 1)")
    inner = -power_quasi(1.0 - alpha, rho, sigma, data=data).value
    if inner <= 0.0:
        raise NumericalFailure("power trace non-positive; states numerically "
                               "orthogonal")
    value = math.log(inner) / (alpha - 1.0)
    return EntropyValue(value=value, finite_part_valid=True,
                        diagnostics={"power_trace": inner})


def _pair_ops(rho, sigma, spec: SubalgebraSpec, data=None):
    """data, or else the modular data of (rho, sigma) and of
    (E(rho), E(sigma)) computed here."""
    if data is not None:
        return data
    r, s = _as_density(rho), _as_density(sigma)
    r_n = make_density(conditional_expectation(spec, r.matrix))
    s_n = make_density(conditional_expectation(spec, s.matrix))
    return modular.build(s, r), modular.build(s_n, r_n)


def gap(rep: MonotoneDecreasingRep, rho, sigma, spec: SubalgebraSpec,
        data=None) -> float:
    """S_f(rho||sigma) - S_f(E(rho)||E(sigma)), nonnegative by the data
    processing inequality. +inf when only the outer entropy is infinite,
    nan when both are. data: the modular operators (of the pair, of its
    image under E) when the caller already has them."""
    op, op_n = _pair_ops(rho, sigma, spec, data)
    outer = s_f(rep, rho, sigma, data=op)
    inner = s_f(rep, None, None, data=op_n)
    if math.isinf(outer.value):
        return math.inf if not math.isinf(inner.value) else math.nan
    return outer.value - inner.value


def renyi_gap(alpha: float, rho, sigma, spec: SubalgebraSpec,
              data=None) -> float:
    op, op_n = _pair_ops(rho, sigma, spec, data)
    return renyi(alpha, rho, sigma, data=op).value \
        - renyi(alpha, None, None, data=op_n).value


def _check_reconstructible(rep: MonotoneDecreasingRep, op) -> None:
    if rep.a != 0.0:
        raise Unsupported("reconstruction implemented for a = 0 only")
    if rep.density is None:
        raise Unsupported(f"{rep.name} has no density")
    zero_weight = float(np.sum(op.weights[op.eigenvalues <= 0.0]))
    if zero_weight > WEIGHT_TOL:
        raise DomainError("supp sigma must contain supp rho (finite case)")


def integral_reconstruction(rep: MonotoneDecreasingRep, rho, sigma,
                            tol: float = 1e-6, data=None) -> float:
    """Rebuild S_f from the resolvent family:

        S_f = -b + integral_0^inf ( S_t - t/(t^2+1) ) w(t) dt.

    The integrand is evaluated in the regrouped form

        sum_j w_j (1/(t+e_j) - 1/(t+1)) + (sum w - 1)/(t+1)
        + (1/(t+1) - t/(t^2+1))

    whose terms each decay like 1/t^2, keeping the half-line quadrature
    stable against the w(t) ~ t^alpha growth of power densities.
    """
    op = _joint(rho, sigma, data)
    _check_reconstructible(rep, op)
    e, w = op.eigenvalues, op.weights
    # For unit-trace states sum w = 1 exactly; the float excess (~1e-16) would
    # otherwise ride a 1/(t+1) tail that diverges against growing densities.
    excess = float(np.sum(w)) - 1.0
    if abs(excess) < 1e-12:
        excess = 0.0

    def integrand(t):
        # each difference of resolvents written as a single fraction; the
        # separate terms agree to O(1/t) at large t and cancel destructively.
        core = float(np.sum(w * (1.0 - e) / ((t + e) * (t + 1.0))))
        core += excess / (t + 1.0)
        core += (1.0 - t) / ((t + 1.0) * (t * t + 1.0))
        return core * float(rep.density(t))

    panel_tol = min(1e-9, max(1e-12, tol * 1e-3))
    integral = integrate_halfline(integrand, panel_tol=panel_tol)
    return -rep.b + float(integral)


def reconstruct_gap(rep: MonotoneDecreasingRep, rho, sigma,
                    spec: SubalgebraSpec, tol: float = 1e-6,
                    data=None) -> float:
    """Gap rebuilt as integral_0^inf (S_t(rho||sigma) -
    S_t(E(rho)||E(sigma))) w(t) dt; the constant terms of the two
    reconstructions cancel. data as for gap."""
    op, op_n = _pair_ops(rho, sigma, spec, data)
    _check_reconstructible(rep, op)
    _check_reconstructible(rep, op_n)

    e_f, w_f = op.eigenvalues, op.weights
    e_r, w_r = op_n.eigenvalues, op_n.weights

    def integrand(t):
        # both resolvent sums behave like 1/t at large t with unit leading
        # coefficient, so subtract against 1/(t+1) analytically; the leftover
        # (sum w - sum w_n)/(t+1) is float roundoff riding a tail that
        # diverges against growing densities, hence dropped.
        full = float(np.sum(w_f * (1.0 - e_f) / ((t + e_f) * (t + 1.0))))
        red = float(np.sum(w_r * (1.0 - e_r) / ((t + e_r) * (t + 1.0))))
        return (full - red) * float(rep.density(t))

    panel_tol = min(1e-9, max(1e-12, tol * 1e-3))
    return float(integrate_halfline(integrand, panel_tol=panel_tol))
