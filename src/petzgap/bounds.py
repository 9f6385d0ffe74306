"""Quantitative stability bounds for the data processing inequality.

Every bound relates three quantities for a state pair (rho, sigma) and a
subalgebra with conditional expectation E:

    gap   = S_f(rho||sigma) - S_f(E rho||E sigma)        (nonnegative, DPI)
    disc  = || sigmaN^b rhoN^-b rho^{1/2} - sigma^b rho^{1/2-b} ||_2
    ||Delta|| = operator norm of the relative modular operator

with pseudo-inverse powers throughout disc (at b = 1/2 the zeroth rho power
is the support projector). The chain runs: theorem_bound controls disc by a
T-family of right-hand sides; optimizing over T (lemma_opt) inverts into
gap >= K * disc^E (the corollary bounds); disc controls the Petz recovery
errors (recovery_chain); Renyi divergences ride on the power corollary.

Bounds take a PairContext (see context.py) instead of (rho, sigma, spec):
the context computes each quantity of the triple once, caches it for the
one trial it is built for, and the bounds read from it. discrepancy_norm and
recovery_discrepancy take raw states and build a context for them.

Margins follow one sign convention everywhere: margin >= 0 means the
inequality holds, and only inequalities whose hypotheses are met appear in
the margins dict (everything else is recorded in constants/rhs_values and
explained by flags). gap_margin turns a gap into its margin and the
infinite-gap flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import entropy, modular
from .algebra import SubalgebraSpec, conditional_expectation
from .context import PairContext
from .errors import DomainError, InvalidInput, NumericalFailure
from .linalg import hs_norm
from .monotone import (MonotoneDecreasingRep, builtin_neg_log,
                       builtin_neg_power, c_constant)
from .quadrature import integrate_halfline
from .states import stream

SUPPORT_LEAK_TOL = 1e-12

FLAG_INFINITE_GAP = "infinite-gap"
FLAG_SIGMA_N_SINGULAR = "sigma_N-singular"
FLAG_SIGMA_SINGULAR = "sigma-singular"
FLAG_RHO_SINGULAR = "rho-singular"
FLAG_SUPPORT_MISMATCH = "support-mismatch"
FLAG_TRACE_LOSS = "trace-loss"
FLAG_T_STAR_BELOW_ONE = "t-star-below-one"


@dataclass(eq=False)
class BoundReport:
    """One bound family evaluated on one (rho, sigma, spec) triple."""

    name: str
    gap: float
    beta: float | None
    discrepancy: float | None
    delta_norm: float
    constants: dict = field(default_factory=dict)
    rhs_values: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def to_json(self) -> dict:
        return json_safe({
            "schema": "report_v1",
            "name": self.name,
            "gap": self.gap,
            "beta": self.beta,
            "discrepancy": self.discrepancy,
            "delta_norm": self.delta_norm,
            "constants": json_safe(self.constants),
            "rhs_values": json_safe(self.rhs_values),
            "margins": json_safe(self.margins),
            "flags": sorted(self.flags),
        })


def json_safe(values: dict) -> dict:
    """A copy of a flat dict in which each non-finite float is its marker
    string "nan", "inf" or "-inf", so that the dict is valid JSON; every
    other value is kept as it is. (v - v is 0.0 exactly when v is finite.)"""
    return {k: v if type(v) is not float or v - v == 0.0
            else "nan" if v != v else "inf" if v > 0 else "-inf"
            for k, v in values.items()}


def gap_margin(key: str, g: float, rhs: float = 0.0) -> tuple[dict, list]:
    """({key: g - rhs}, []) for a finite gap. An infinite gap holds any
    lower bound (margin inf); a nan gap (both entropies infinite) asserts
    nothing. Both carry the infinite-gap flag."""
    if math.isinf(g):
        return {key: math.inf}, [FLAG_INFINITE_GAP]
    if math.isnan(g):
        return {}, [FLAG_INFINITE_GAP]
    return {key: g - rhs}, []


def discrepancy_norm(beta: float, rho, sigma, spec: SubalgebraSpec) -> float:
    """|| sigmaN^b rhoN^-b rho^{1/2} - sigma^b rho^{1/2-b} ||_2, pseudo
    powers (rho^0 = support projector at b = 1/2)."""
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    return PairContext(rho, sigma, spec).discrepancy(beta)


def recovery_discrepancy(rho, sigma, spec: SubalgebraSpec) -> float:
    """|| sigmaN^{1/2} rhoN^{-1/2} rho^{1/2} - sigma^{1/2} ||_2 with a bare
    (unprojected) sigma^{1/2}.

    This is the quantity that controls the recovery errors; it dominates the
    projected beta = 1/2 discrepancy, and the two agree exactly when
    supp sigma lies inside supp rho.
    """
    return PairContext(rho, sigma, spec).recovery_discrepancy


def theorem_bound(rep: MonotoneDecreasingRep, beta: float, t,
                  delta_norm: float, gap: float):
    """Right-hand side of the T-family bound on (pi/sin(beta pi)) * disc:

        2 (1/beta + ||Delta||/(1-beta)) T^{-k}
          + T^{n0} sqrt(C^f_{T,beta}) sqrt(gap)

    with (k, n0) = (beta, (1-2b+2b^2)/(2(1-b))) for beta <= 1/2 and
    (1-beta, beta) for beta >= 1/2. T is a number or an array, elementwise.
    Negative numerical gaps clamp to zero; an infinite gap gives inf and a
    nan gap nan at every T.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise InvalidInput("T must be positive")
    g = max(float(gap), 0.0)
    c_f = c_constant(rep, t, beta)
    first = 2.0 * (1.0 / beta + delta_norm / (1.0 - beta))
    k, n0 = _branch(beta)
    return first * t ** (-k) + t ** n0 * np.sqrt(c_f) * math.sqrt(g)


def lemma_opt(big_k: float, k: float, big_n: float, n: float) -> tuple[float, float]:
    """min over T > 0 of K T^{-k} + N T^{n} and its minimizer.

    Closed form: (1/k + 1/n) (kK)^{n/(k+n)} (nN)^{k/(k+n)} at
    T* = (kK/(nN))^{1/(k+n)}. Degenerate coefficients: N = 0 gives (0, inf),
    K = 0 gives (0, 0).
    """
    if k <= 0.0 or n <= 0.0:
        raise InvalidInput("exponents must be positive")
    if big_k < 0.0 or big_n < 0.0:
        raise InvalidInput("coefficients must be nonnegative")
    if big_n == 0.0:
        return 0.0, math.inf
    if big_k == 0.0:
        return 0.0, 0.0
    t_star = (k * big_k / (n * big_n)) ** (1.0 / (k + n))
    value = (1.0 / k + 1.0 / n) * (k * big_k) ** (n / (k + n)) \
        * (n * big_n) ** (k / (k + n))
    return value, t_star


def _branch(beta: float) -> tuple[float, float]:
    if beta <= 0.5:
        return beta, (1.0 - 2.0 * beta + 2.0 * beta ** 2) / (2.0 * (1.0 - beta))
    return 1.0 - beta, beta


def _generic_constants(big_c: float, growth_c: float, beta: float,
                       delta_norm: float) -> dict:
    """Invert the optimized theorem into gap >= K_gap * disc^E."""
    k, n0 = _branch(beta)
    n = n0 + growth_c
    k_t = 2.0 * (1.0 / beta + delta_norm / (1.0 - beta))
    exponent = 2.0 * (k + n) / k
    b_const = (1.0 / k + 1.0 / n) * (k * k_t) ** (n / (k + n)) \
        * (n * math.sqrt(big_c)) ** (k / (k + n))
    k_gap = (math.pi / (math.sin(beta * math.pi) * b_const)) ** exponent
    return {"k": k, "n": n, "K_T": k_t, "B": b_const,
            "exponent": exponent, "K_gap": k_gap}


def _t_star(cst: dict, big_c: float, g: float) -> float:
    if not math.isfinite(g) or g <= 0.0:
        return math.inf
    return lemma_opt(cst["K_T"], cst["k"],
                     math.sqrt(big_c * g), cst["n"])[1]


def generic_corollary_bound(rep: MonotoneDecreasingRep, beta: float,
                            ctx: PairContext) -> BoundReport:
    """gap >= K_gap * disc^E using the rep's stored growth certificate
    (C, c). The certificate is only proven for T >= 1; a minimizer below 1
    is flagged rather than silently trusted."""
    big_c, growth_c = rep.growth
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    delta_norm = ctx.delta_norm
    g = ctx.gap(rep)
    disc = ctx.discrepancy(beta)
    cst = _generic_constants(big_c, growth_c, beta, delta_norm)
    t_star = _t_star(cst, big_c, g)
    rhs = cst["K_gap"] * disc ** cst["exponent"]
    margins, flags = gap_margin("gap_lower_bound", g, rhs)
    if t_star < 1.0:
        flags.append(FLAG_T_STAR_BELOW_ONE)
    return BoundReport(
        name=f"generic:{rep.name}",
        gap=g, beta=beta, discrepancy=disc, delta_norm=delta_norm,
        constants={"C": big_c, "c": growth_c, "K_gap": cst["K_gap"],
                   "exponent": cst["exponent"],
                   "gap_exponent": 1.0 / cst["exponent"],
                   "B": cst["B"], "K_T": cst["K_T"], "T_star": t_star},
        rhs_values={"gap_lower_bound": rhs},
        margins=margins,
        flags=flags,
    )


def log_corollary_constant(beta: float,
                           delta_norm: float) -> tuple[float, float, str]:
    """Printed constant and exponent of the relative-entropy corollary."""
    sb = math.sin(beta * math.pi)
    if beta <= 0.5:
        q0 = 1.0 - 2.0 * beta + 2.0 * beta ** 2
        expo = 1.0 / (beta * (1.0 - beta))
        k_print = (math.pi * q0 * beta / sb) ** expo \
            * (1.0 + beta * delta_norm / (1.0 - beta)) ** (-q0 * expo) \
            * 2.0 ** (-q0 * expo) \
            * (q0 / (2.0 * (1.0 - beta))) ** (-2.0)
        return k_print, expo, "K_L"
    expo = 2.0 / (1.0 - beta)
    k_print = (math.pi * beta * (1.0 - beta) / sb) ** expo \
        * ((1.0 - beta) / beta + delta_norm) ** (-beta * expo) \
        * 2.0 ** (-beta * expo) \
        * beta ** (-2.0)
    return k_print, expo, "K_U"


def corollary_log_bound(beta: float, ctx: PairContext) -> BoundReport:
    """Relative-entropy gap lower bound with the printed closed-form
    constant; K_generic records the generic optimization (C=1, c=0), which
    tests/test_bounds.py checks it against."""
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    delta_norm = ctx.delta_norm
    g = ctx.gap(builtin_neg_log())
    disc = ctx.discrepancy(beta)
    k_print, expo, key = log_corollary_constant(beta, delta_norm)
    cst = _generic_constants(1.0, 0.0, beta, delta_norm)
    rhs = k_print * disc ** expo
    margins, flags = gap_margin("gap_lower_bound", g, rhs)
    constants = {key: k_print, "K_generic": cst["K_gap"], "exponent": expo,
                 "T_star": _t_star(cst, 1.0, g)}
    if beta == 0.5:
        constants["K_log3"] = (math.pi / 4.0) ** 4 * (1.0 + delta_norm) ** (-2.0)
        if delta_norm > 0.0:
            try:
                e_rho, _ = ctx.recovery_errors
                constants["CV_comparison_rhs"] = \
                    (1.0 / (8.0 * math.pi)) ** 4 * delta_norm ** (-2.0) * e_rho ** 4
            except (InvalidInput, NumericalFailure):
                pass
    return BoundReport(
        name="corollary-log",
        gap=g, beta=beta, discrepancy=disc, delta_norm=delta_norm,
        constants=constants,
        rhs_values={"gap_lower_bound": rhs},
        margins=margins,
        flags=flags,
    )


def power_corollary_constant(alpha: float, beta: float, delta_norm: float
                             ) -> tuple[float, float, float, float, str]:
    """Printed constant, proof exponent, displayed exponent, effective
    growth exponent, and key for the power corollary."""
    sb = math.sin(beta * math.pi)
    sa = math.sin(alpha * math.pi)
    bb = beta * (1.0 - beta)
    if beta <= 0.5:
        p = 1.0 + alpha * (1.0 - beta)
        q = alpha * (1.0 - beta) + 1.0 - 2.0 * beta + 2.0 * beta ** 2
        expo = p / bb
        k_print = (1.0 + beta * delta_norm / (1.0 - beta)) ** (-q / bb) \
            * 2.0 ** (-q / bb) * (sa / math.pi) \
            * (math.pi * beta * q / (p * sb)) ** expo \
            * (q / (2.0 * (1.0 - beta))) ** (-2.0)
        displayed = (4.0 - 2.0 * beta + alpha * (1.0 - beta)) / (1.0 - beta ** 2)
        c_eff = alpha / 2.0
        return k_print, expo, displayed, c_eff, "K_L"
    s_ = 2.0 * beta + alpha * (1.0 - beta)
    r_ = 2.0 * beta ** 2 + alpha * (1.0 - beta)
    expo = s_ / bb
    k_print = ((1.0 - beta) / beta + delta_norm) ** (-r_ / bb) \
        * 2.0 ** (-r_ / bb) * (sa / math.pi) \
        * (math.pi * (1.0 - beta) * r_ / (s_ * sb)) ** expo \
        * (r_ / (2.0 * beta)) ** (-2.0)
    displayed = (2.0 * (1.0 + beta) + alpha * (1.0 - beta)) / (1.0 - beta ** 2)
    c_eff = alpha * (1.0 - beta) / (2.0 * beta)
    return k_print, expo, displayed, c_eff, "K_U"


def corollary_power_bound(alpha: float, beta: float,
                          ctx: PairContext) -> BoundReport:
    """Power quasi-entropy gap lower bound, proof-derived exponent.

    The exponent asserted is (1 + a(1-b))/(b(1-b)) for b <= 1/2 and
    (2b + a(1-b))/(b(1-b)) for b >= 1/2 (both 4 + 2a at b = 1/2); the
    alternative displayed family over (1 - b^2) is recorded under
    exponent_displayed but carries no margin. K_generic records the generic
    optimization with the exact regularity constant (C = pi/sin(a pi),
    effective growth a(1-b)/(2b) on the upper branch), which
    tests/test_bounds.py checks the printed constant against.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("alpha must lie in (0, 1)")
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    delta_norm = ctx.delta_norm
    g = ctx.gap(builtin_neg_power(alpha))
    disc = ctx.discrepancy(beta)
    k_print, expo, displayed, c_eff, key = power_corollary_constant(
        alpha, beta, delta_norm)
    big_c = math.pi / math.sin(alpha * math.pi)
    cst = _generic_constants(big_c, c_eff, beta, delta_norm)
    rhs = k_print * disc ** expo
    margins, flags = gap_margin("gap_lower_bound", g, rhs)
    t_star = _t_star(cst, big_c, g)
    if t_star < 1.0:
        flags.append(FLAG_T_STAR_BELOW_ONE)
    return BoundReport(
        name=f"corollary-power:{alpha:g}",
        gap=g, beta=beta, discrepancy=disc, delta_norm=delta_norm,
        constants={key: k_print, "K_generic": cst["K_gap"], "exponent": expo,
                   "exponent_displayed": displayed, "C_exact": big_c,
                   "c_effective": c_eff, "T_star": t_star},
        rhs_values={"gap_lower_bound": rhs},
        margins=margins,
        flags=flags,
    )


def renyi_bound(alpha: float, ctx: PairContext) -> BoundReport:
    """Renyi-divergence gap bounds of order alpha in (0, 1).

    Three forms share the power-corollary constant K_U at order 1 - alpha,
    beta = 1/2, exponent 6 - 2 alpha:

      renyi_disc      gap >= log(1 + K_U disc^{6-2a}) / (1-a)
      renyi_recovery  gap >= log(1 + K_hat max(e_rho, e_sigma)^{6-2a}) / (1-a)
      renyi_inverted  max(e)^{6-2a} <= (2 sqrt(||rho|| ||sigma^-1||)/K_U)
                                        (exp((1-a) gap) - 1)

    with K_hat = K_U / (2 sqrt(||rho|| ||sigma^-1||)). The disc margin is
    asserted for invertible sigma. The recovery and inverted margins
    additionally need supp sigma inside supp rho: the recovery map pushes
    sigma through the rho support, so a leak can leave e_rho > 0 at zero
    gap. A leak (or singular sigma) records values and flags instead of
    margins. The inverted right side clamps negative numerical gaps to
    zero before exponentiating; its prefactor 1/K_U can exceed 1e10 and
    would otherwise blow roundoff up into a spurious violation.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("Renyi order must lie in (0, 1)")
    r, s = ctx.rho, ctx.sigma
    delta_norm = ctx.delta_norm
    g = ctx.renyi_gap(alpha)
    disc = ctx.discrepancy(0.5)
    k_u, expo, _, _, _ = power_corollary_constant(1.0 - alpha, 0.5, delta_norm)
    rhs_disc = math.log1p(k_u * disc ** expo) / (1.0 - alpha)
    constants = {"K_U": k_u, "exponent": expo}
    rhs_values = {"renyi_disc": rhs_disc}
    margins = {}
    flags = []
    if s.is_invertible:
        margins["renyi_disc"] = g - rhs_disc
        e_rho, e_sigma = ctx.recovery_errors
        norm_rho = float(r.eigenvalues[0])
        norm_sig_inv = 1.0 / float(s.eigenvalues[-1])
        k_hat = 0.5 * k_u / math.sqrt(norm_rho * norm_sig_inv)
        mx = max(e_rho, e_sigma)
        rhs_rec = math.log1p(k_hat * mx ** expo) / (1.0 - alpha)
        rhs_inv = (2.0 * math.sqrt(norm_rho * norm_sig_inv) / k_u) \
            * math.expm1((1.0 - alpha) * max(g, 0.0))
        if ctx.support_leak <= SUPPORT_LEAK_TOL:
            margins["renyi_recovery"] = g - rhs_rec
            margins["renyi_inverted"] = rhs_inv - mx ** expo
        else:
            flags.append(FLAG_SUPPORT_MISMATCH)
        constants.update({"K_hat": k_hat, "e_rho": e_rho, "e_sigma": e_sigma})
        rhs_values.update({"renyi_recovery": rhs_rec, "renyi_inverted": rhs_inv})
    else:
        flags.append(FLAG_SIGMA_SINGULAR)
        if not ctx.sigma_n.is_invertible:
            flags.append(FLAG_SIGMA_N_SINGULAR)
    return BoundReport(
        name=f"renyi:{alpha:g}",
        gap=g, beta=0.5, discrepancy=disc, delta_norm=delta_norm,
        constants=constants,
        rhs_values=rhs_values,
        margins=margins,
        flags=flags,
    )


def recovery_chain(ctx: PairContext) -> BoundReport:
    """Recovery-error chain around the bare discrepancy
    d = || sigmaN^{1/2} rhoN^{-1/2} rho^{1/2} - sigma^{1/2} ||_2:

      rec_rho          e_rho <= 2 d                          (always)
      rec_sigma_n      e_sigma <= 2 sqrt(||rhoN|| ||sigmaN^-1||) d
      rec_sigma        e_sigma <= 2 sqrt(||rho|| ||sigma^-1||) d
      spectrum_*       spec(E(x)) inside [min eig x, max eig x]
      disc_gap_one_sided   e_rho <= 2 (gap / K_gap)^{1/4}
      disc_gap_two_sided   max(e) <= 2 sqrt(||rhoN|| ||sigmaN^-1||)
                                      (gap / K_gap)^{1/4}

    gap is the relative-entropy gap and K_gap the beta = 1/2 log-corollary
    constant. The disc_gap links additionally require supp sigma inside
    supp rho (where the bare and projected discrepancies agree); a support
    leak is flagged instead of asserted away.
    """
    r, s, r_n, s_n = ctx.rho, ctx.sigma, ctx.rho_n, ctx.sigma_n
    e_rho, e_sigma = ctx.recovery_errors
    disc_full = ctx.recovery_discrepancy
    disc_pseudo = ctx.discrepancy(0.5)
    leak = ctx.support_leak
    support_match = leak <= SUPPORT_LEAK_TOL
    delta_norm = ctx.delta_norm
    g = ctx.gap(builtin_neg_log())
    cst = _generic_constants(1.0, 0.0, 0.5, delta_norm)
    k_gap = cst["K_gap"]
    margins = {"rec_rho": 2.0 * disc_full - e_rho}
    rhs_values = {"rec_rho": 2.0 * disc_full}
    flags = []
    sigma_n_invertible = s_n.is_invertible
    norms_n = None
    if sigma_n_invertible:
        norms_n = math.sqrt(float(r_n.eigenvalues[0]) / float(s_n.eigenvalues[-1]))
        rhs_values["rec_sigma_n"] = 2.0 * norms_n * disc_full
        margins["rec_sigma_n"] = rhs_values["rec_sigma_n"] - e_sigma
    else:
        flags.append(FLAG_SIGMA_N_SINGULAR)
    if s.is_invertible:
        norms = math.sqrt(float(r.eigenvalues[0]) / float(s.eigenvalues[-1]))
        rhs_values["rec_sigma"] = 2.0 * norms * disc_full
        margins["rec_sigma"] = rhs_values["rec_sigma"] - e_sigma
    else:
        flags.append(FLAG_SIGMA_SINGULAR)
    margins["spectrum_rho"] = min(
        float(r_n.eigenvalues[-1]) - float(r.eigenvalues[-1]),
        float(r.eigenvalues[0]) - float(r_n.eigenvalues[0]))
    margins["spectrum_sigma"] = min(
        float(s_n.eigenvalues[-1]) - float(s.eigenvalues[-1]),
        float(s.eigenvalues[0]) - float(s_n.eigenvalues[0]))
    if math.isinf(g):
        flags.append(FLAG_INFINITE_GAP)
    if ctx.support_leak_n > SUPPORT_LEAK_TOL:
        flags.append(FLAG_TRACE_LOSS)
    if support_match and not math.isnan(g):
        gg = max(g, 0.0)
        rhs_one = 2.0 * (gg / k_gap) ** 0.25 if math.isfinite(gg) else math.inf
        rhs_values["disc_gap_one_sided"] = rhs_one
        margins["disc_gap_one_sided"] = rhs_one - e_rho
        if sigma_n_invertible:
            rhs_two = 2.0 * norms_n * (gg / k_gap) ** 0.25 \
                if math.isfinite(gg) else math.inf
            rhs_values["disc_gap_two_sided"] = rhs_two
            margins["disc_gap_two_sided"] = rhs_two - max(e_rho, e_sigma)
    elif not support_match:
        flags.append(FLAG_SUPPORT_MISMATCH)
    return BoundReport(
        name="recovery-chain",
        gap=g, beta=0.5, discrepancy=disc_full, delta_norm=delta_norm,
        constants={"disc_pseudo": disc_pseudo, "support_leak": leak,
                   "K_gap": k_gap, "exponent": cst["exponent"],
                   "e_rho": e_rho, "e_sigma": e_sigma},
        rhs_values=rhs_values,
        margins=margins,
        flags=flags,
    )


def beta_free_discrepancy(beta: float, ctx: PairContext) -> BoundReport:
    """|| sigmaN^b rhoN^-b - sigma^b rho^-b ||_2 <= ||rho^{-1/2}|| disc(b),
    asserted for invertible rho only (pseudo-inverses break it otherwise)."""
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    r = ctx.rho
    lhs = hs_norm(
        ctx.power("sigma_n", beta) @ ctx.power("rho_n", -beta)
        - ctx.power("sigma", beta) @ ctx.power("rho", -beta))
    disc = ctx.discrepancy(beta)
    delta_norm = ctx.delta_norm
    margins = {}
    flags = []
    rhs = math.nan
    if r.is_invertible:
        rhs = disc / math.sqrt(float(r.eigenvalues[-1]))
        margins["beta_free"] = rhs - lhs
    else:
        flags.append(FLAG_RHO_SINGULAR)
    return BoundReport(
        name="beta-free",
        gap=math.nan, beta=beta, discrepancy=disc, delta_norm=delta_norm,
        constants={"lhs": lhs},
        rhs_values={"beta_free": rhs},
        margins=margins,
        flags=flags,
    )


@dataclass(eq=False)
class InternalsReport:
    """Diagnostics for the resolvent-difference machinery behind the
    theorem. All margins follow the >= 0 convention; residuals are absolute
    errors."""

    contraction_margin: float
    per_t_gap_margin: float
    decay_margin: float
    identity_residual: float
    gap_residual: float


def _resolvent(op: modular.RelativeModularOperator):
    """t -> (t + Delta)^{-1} rho^{1/2} from the flat joint data.

    Returns (res, res_b) with res_b(t) = (t + Delta)^{-1} Delta rho^{1/2},
    the numerator of the large-t expansion res = (rho^{1/2} - res_b)/t.
    Both take an array of t and return the stack of matrices, one per t.
    """
    kept = op.kept_columns
    u_s = op.sigma_dec.eigenvectors
    u_r = op.rho_dec.eigenvectors[:, kept]
    lam = op.rho_dec.eigenvalues.real[kept]
    c0 = op.overlaps[:, kept] * np.sqrt(lam)[None, :]
    e = op.eigenvalues.reshape(op.dim, kept.size)

    def res(t: np.ndarray) -> np.ndarray:
        return u_s @ (c0 / (e + t[:, None, None])) @ u_r.conj().T

    def res_b(t: np.ndarray) -> np.ndarray:
        return u_s @ (c0 * e / (e + t[:, None, None])) @ u_r.conj().T

    return res, res_b


def proof_internals(rep: MonotoneDecreasingRep, beta: float, ctx: PairContext,
                    t_grid=None) -> InternalsReport:
    """Check the internal objects the theorem's proof is built from.

    With w_t = U((t + DeltaN)^{-1} rhoN^{1/2}) - (t + Delta)^{-1} rho^{1/2}
    and U(X) = E(X) rhoN^{-1/2} rho^{1/2}:

      contraction_margin   U is a Hilbert-Schmidt contraction
      per_t_gap_margin     S_t(rho||sigma) - S_t(rhoN||sigmaN) >= t ||w_t||^2
      decay_margin         ||w_t|| <= 2/t
      identity_residual    -(sin(b pi)/pi) int t^b w_t dt equals the
                           (unnormed) discrepancy matrix
      gap_residual         int (S_t - S_t^N) w_f(t) dt equals the gap
                           (nan when supp rho leaves supp sigma)
    """
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    spec, op, op_n = ctx.spec, ctx.op, ctx.op_n
    sqrt_rho = ctx.power("rho", 0.5)
    pinv_sqrt_rho_n = ctx.power("rho_n", -0.5)

    def u_map(x):
        return conditional_expectation(spec, x) @ pinv_sqrt_rho_n @ sqrt_rho

    res, res_b = _resolvent(op)
    res_n, res_n_b = _resolvent(op_n)

    # w_t and w_t_far take an array of t and return the stack of w_t
    def w_t(t):
        return u_map(res_n(t)) - res(t)

    def w_t_far(t):
        # same function, regrouped for large t: with B = (t+Delta)^{-1} Delta
        # rho^{1/2} one has w_t = (B - U(B_N))/t, because U(rhoN^{1/2}) =
        # P_{rhoN} rho^{1/2} = rho^{1/2} (supp rho lies inside supp E(rho)).
        # The direct form subtracts two O(1/t) matrices that agree to
        # O(1/t^2), wiping out the significant digits the tail quadrature
        # needs; here the leading 1/t parts never enter.
        return (res_b(t) - u_map(res_n_b(t))) / t[:, None, None]

    def weighted(w):
        def integrand(t):
            return (t ** beta)[:, None, None] * w(t)
        return integrand

    rng = stream(0xA11CE, spec.dim)
    contraction = math.inf
    for _ in range(5):
        x = rng.standard_normal((spec.dim, spec.dim)) \
            + 1j * rng.standard_normal((spec.dim, spec.dim))
        contraction = min(contraction,
                          float(np.linalg.norm(x) - np.linalg.norm(u_map(x))))
    if t_grid is None:
        t_grid = np.logspace(-2, 2, 20)
    t_grid = [float(t) for t in t_grid]
    grid = np.array(t_grid)
    near = grid <= 1.0
    stack = np.empty((grid.size, spec.dim, spec.dim), dtype=complex)
    stack[near] = w_t(grid[near])
    stack[~near] = w_t_far(grid[~near])
    per_t = math.inf
    decay = math.inf
    for t, wt in zip(t_grid, stack):
        nw = float(np.linalg.norm(wt))
        gap_t = entropy.s_t(t, op) - entropy.s_t(t, op_n)
        per_t = min(per_t, gap_t - t * nw * nw)
        decay = min(decay, 2.0 / t - nw)
    target = ctx.discrepancy_matrix(beta)
    integral = integrate_halfline(weighted(w_t), far=weighted(w_t_far))
    identity_residual = float(np.linalg.norm(
        -(math.sin(beta * math.pi) / math.pi) * integral - target))
    try:
        g_quad = ctx.reconstruct_gap(rep)
    except DomainError:
        gap_residual = math.nan
    else:
        gap_residual = abs(g_quad - ctx.gap(rep))
    return InternalsReport(
        contraction_margin=contraction,
        per_t_gap_margin=per_t,
        decay_margin=decay,
        identity_residual=identity_residual,
        gap_residual=gap_residual,
    )
