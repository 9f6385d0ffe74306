"""Quantitative stability bounds for the data processing inequality.

Every bound relates three quantities for a state pair (rho, sigma) and a
subalgebra with conditional expectation E:

    gap   = S_f(rho||sigma) - S_f(E rho||E sigma)        (nonnegative, DPI)
    disc  = || sigmaN^b rhoN^-b rho^{1/2} - sigma^b rho^{1/2-b} ||_2
    ||Delta|| = operator norm of the relative modular operator

with pseudo-inverse powers throughout disc (at b = 1/2 the zeroth rho power
is the support projector). The chain runs: theorem_bound controls disc by a
T-family of right-hand sides, whose exact minimum over T theorem_optimum
takes in closed form (lemma_opt on each power-law piece of C^f_{T,beta});
optimizing over T inverts into gap >= K * disc^E (the corollary bounds);
disc controls the Petz recovery errors (recovery_chain); Renyi divergences
ride on the power corollary. Everything of a (function, beta) pair that no
trial quantity changes is one record, _law(rep, beta), cached per pair: the
T-family's pi/sin(beta pi), k, n0 and C^f pieces (read from
rep.c_closed(beta)), the generic inversion's terms and grid, and the printed
corollary's name, key, exponent, terms and grid. A builder adds only the
terms of its ||Delta||, gap and discrepancy.

Bounds take a PairContext (see context.py) instead of (rho, sigma, spec):
the context computes each quantity of the triple once, caches it for the
one trial it is built for, and the bounds read from it; every discrepancy,
the beta-free left side included, comes from its one matrix per beta in
the eigenbases of sigma and rho. discrepancy_norm and recovery_discrepancy
take raw states and build a context for them.

The corollary constants K are built as logs and recorded as log_K (K is
exp(log_K)), and each right side K disc^E is exp(log K + E log disc): at a
large ||Delta|| the constant underflows and disc^E overflows while the
product is an ordinary number. The three corollaries share one report
builder, _corollary; verify runs corollary-log and corollary-power, whose
right sides are never below generic's and whose T_star is its minimizer.

Margins follow one sign convention everywhere: margin >= 0 means the
inequality holds, and only inequalities whose hypotheses are met appear in
the margins dict (everything else is recorded in constants/rhs_values and
explained by flags). Every report verify writes is built here, dpi_report
and theorem_report included, and filled through one helper,
BoundReport.bound, which records a right side and, when the inequality is
asserted, its margin; it turns a gap into its margin and the infinite-gap
flag. Under linalg's support policy, the leak of sigma (sigma_N) off supp
rho (rho_N) is flagged above sigma's (sigma_N's) zero threshold. A
BoundReport holds no trial quantity (the gap, a discrepancy, ||Delta||, a
recovery error), which a verify trial writes once, nor what a fixed rule
reads from them (the theorem's left side); the constants that depend only on
(report name, beta) it keeps in grid, a dict that nothing writes (a law's is
shared by every report of its key). A float that can be non-finite (a right
side, a margin, T_star, C_exact) is marked (mark) where it is stored, so
to_json is one pass; should any other be non-finite, the report encoder
stops the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import entropy
from .algebra import SubalgebraSpec, conditional_expectation
from .context import PairContext
from .errors import DomainError, InvalidInput
from .monotone import (MonotoneDecreasingRep, builtin_neg_log,
                       builtin_neg_power, c_constant)
from .states import stream

FLAG_INFINITE_GAP = "infinite-gap"
FLAG_SIGMA_N_SINGULAR = "sigma_N-singular"
FLAG_SIGMA_SINGULAR = "sigma-singular"
FLAG_RHO_SINGULAR = "rho-singular"
FLAG_SUPPORT_MISMATCH = "support-mismatch"
FLAG_TRACE_LOSS = "trace-loss"
FLAG_T_STAR_BELOW_ONE = "t-star-below-one"


def mark(value):
    """value as a report stores it: a non-finite float as its marker "nan",
    "inf" or "-inf", all else (a numpy float too) as it is."""
    if type(value) is not float or value - value == 0.0:  # finite
        return value
    return "nan" if value != value else "inf" if value > 0 else "-inf"


def json_safe(values: dict) -> dict:
    """A copy of values: each dict value json_safe, every other marked."""
    return {k: json_safe(v) if type(v) is dict else mark(v)
            for k, v in values.items()}


@dataclass(eq=False, slots=True)
class BoundReport:
    """One bound family on one (rho, sigma, spec) triple (module docstring)."""

    name: str
    beta: float | None
    constants: dict = field(default_factory=dict)
    rhs_values: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    grid: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The report as a verify_v4 trial writes it: no empty container."""
        out = {"name": self.name, "beta": self.beta}
        if self.constants:
            out["constants"] = self.constants
        if self.rhs_values:
            out["rhs_values"] = self.rhs_values
        if self.margins:
            out["margins"] = self.margins
        if self.flags:
            out["flags"] = sorted(self.flags)
        return out

    def bound(self, key: str, rhs: float | None, lhs: float | None = None,
              gap: float | None = None) -> None:
        """Record rhs, the right side of inequality key (None records
        nothing), and assert the inequality when its trial side is given:
        lhs <= rhs (margin rhs - lhs) or gap >= rhs (>= 0 when rhs is None;
        margin gap - rhs). An infinite gap holds any lower bound (margin
        inf), a nan gap (both entropies infinite) asserts nothing; both
        carry the infinite-gap flag."""
        if rhs is not None:
            self.rhs_values[key] = mark(rhs)
        if lhs is not None:
            self.margins[key] = mark(rhs - lhs)
        elif gap is not None:
            if math.isfinite(gap):
                self.margins[key] = mark(gap - (0.0 if rhs is None else rhs))
            else:
                self.flags.append(FLAG_INFINITE_GAP)
                if math.isinf(gap):
                    self.margins[key] = "inf"


def grid_constants(reports: list) -> dict:
    """The grid constants of a trial's reports: grid[name][repr(beta)]."""
    grid = {}
    for report in reports:
        if report.grid:
            grid.setdefault(report.name, {})[repr(report.beta)] = report.grid
    return grid


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


@dataclass(frozen=True, slots=True, eq=False)
class _Law:
    """What the bounds of one (function, beta) read that no trial quantity
    changes. The T-family K_T T^{-k} + T^{n0} sqrt(C^f_{T,beta} gap) bounds
    pi_sin disc (K_T is _k_t's); pieces holds each piece C T^{2c} of
    rep.c_closed(beta) as (start, end, C, c, n0 + c, 2c); generic is the
    T >= 1 piece's inversion gap >= K_gap disc^E as (E, log(1/k + 1/n),
    n/(k+n), k/(k+n) log(n sqrt C), log pi_sin), grid {"exponent": E}. The
    printed corollary (corollary-log or corollary-power:alpha) has name, key
    (K_L for beta <= 1/2, K_U above), exponent, grid, and log K = weight *
    _delta_log(beta, ||Delta||) plus each of terms in turn."""

    pi_sin: float
    k: float
    n0: float
    pieces: tuple
    generic: tuple
    generic_grid: dict
    name: str
    key: str
    exponent: float
    weight: float
    terms: tuple
    grid: dict


@cache
def _law(rep: MonotoneDecreasingRep, beta: float) -> _Law:
    """The _Law of rep at beta, the bounds' one check of beta: (k, n0) =
    (beta, (1-2b+2b^2)/(2(1-b))) for beta <= 1/2, (1-beta, beta) above; the
    power corollary's (p, q) of beta <= 1/2 are (s, r) above."""
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    q0 = 1.0 - 2.0 * beta + 2.0 * beta ** 2
    k, n0 = (beta, q0 / (2.0 * (1.0 - beta))) if beta <= 0.5 \
        else (1.0 - beta, beta)
    sb = math.sin(beta * math.pi)
    pi_sin = math.pi / sb
    closed = rep.c_closed(beta)
    ends = [p[0] for p in closed[1:]] + [math.inf]
    pieces = tuple((start, end, big_c, c, n0 + c, 2.0 * c)
                   for (start, big_c, c), end in zip(closed, ends))
    _, _, big_c, c, n, _ = pieces[-1]
    e_gap = 2.0 * (k + n) / k
    generic = (e_gap, math.log(1.0 / k + 1.0 / n), n / (k + n),
               k / (k + n) * math.log(n * math.sqrt(big_c)), math.log(pi_sin))
    alpha = rep.alpha
    if alpha is None:
        if beta <= 0.5:
            expo, weight = 1.0 / (beta * (1.0 - beta)), q0
            first = math.log(math.pi * q0 * beta / sb)
        else:
            expo, weight = 2.0 / (1.0 - beta), beta
            first = math.log(math.pi * beta * (1.0 - beta) / sb)
        weight, terms = -(weight * expo), (expo * first, -2.0 * math.log(n0))
        name, grid = "corollary-log", {"exponent": expo}
    else:
        bb = beta * (1.0 - beta)
        if beta <= 0.5:
            p = 1.0 + alpha * (1.0 - beta)
            q = alpha * (1.0 - beta) + 1.0 - 2.0 * beta + 2.0 * beta ** 2
            log_r = math.log(math.pi * beta * q / (p * sb))
            last = 2.0 * math.log(q / (2.0 * (1.0 - beta)))
            displayed = (4.0 - 2.0 * beta + alpha * (1.0 - beta)) \
                / (1.0 - beta ** 2)
        else:
            p = 2.0 * beta + alpha * (1.0 - beta)
            q = 2.0 * beta ** 2 + alpha * (1.0 - beta)
            log_r = math.log(math.pi * (1.0 - beta) * q / (p * sb))
            last = 2.0 * math.log(q / (2.0 * beta))
            displayed = (2.0 * (1.0 + beta) + alpha * (1.0 - beta)) \
                / (1.0 - beta ** 2)
        expo = p / bb
        weight, terms = -q / bb, (
            math.log(math.sin(alpha * math.pi) / math.pi), expo * log_r, -last)
        name, grid = f"corollary-power:{alpha!r}", {
            "exponent_displayed": displayed, "C_exact": mark(big_c),
            "c_effective": c, "exponent": expo}
    return _Law(pi_sin, k, n0, pieces, generic, {"exponent": e_gap}, name,
                "K_L" if beta <= 0.5 else "K_U", expo, weight, terms, grid)


def _k_t(beta: float, delta_norm: float) -> float:
    """K_T = 2 (1/beta + ||Delta||/(1-beta)) of the T-family (_Law)."""
    return 2.0 * (1.0 / beta + delta_norm / (1.0 - beta))


def theorem_bound(rep: MonotoneDecreasingRep, beta: float, t: float,
                  delta_norm: float, gap: float) -> float:
    """Right-hand side of the T-family bound on (pi/sin(beta pi)) * disc at
    one T > 0 (_Law):

        2 (1/beta + ||Delta||/(1-beta)) T^{-k}
          + T^{n0} sqrt(C^f_{T,beta} gap)

    Negative numerical gaps clamp to zero; an infinite gap gives inf and a
    nan gap nan.
    """
    c_f = c_constant(rep, t, beta)  # which checks T and beta
    law, g = _law(rep, beta), max(float(gap), 0.0)
    return _k_t(beta, delta_norm) * t ** (-law.k) \
        + t ** law.n0 * math.sqrt(c_f * g)


def theorem_optimum(rep: MonotoneDecreasingRep, beta: float,
                    delta_norm: float, gap: float) -> tuple[float, float]:
    """(min over T > 0 of theorem_bound, its minimizer T_star), in closed
    form. On a piece of rep.c_closed(beta), C^f_{T,beta} = C T^{2c} makes
    the family K T^{-k} + sqrt(C gap) T^{n0 + c}, whose minimum is
    lemma_opt's; a minimizer outside its piece is clamped to the piece's
    end, T = 1, and evaluated on its piece (the pieces meet at T = 1). The
    least value over the pieces is the minimum. A gap <= 0 gives 0 at
    T_star = inf; a C that overflowed to inf times such a gap is nan at
    every T, and so is the minimum.
    """
    law = _law(rep, beta)
    k_t, k = _k_t(beta, delta_norm), law.k
    g = max(float(gap), 0.0)
    best = []
    for start, end, big_c, _, n, two_c in law.pieces:
        value, t_star = lemma_opt(k_t, k, math.sqrt(big_c * g), n)
        if t_star < start or t_star > end:
            t_star = start if t_star < start else end
            value = k_t * t_star ** (-k) \
                + t_star ** law.n0 * math.sqrt(big_c * t_star ** two_c * g)
        best.append((value, t_star))
    return min(best)


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
    try:
        t_star = (k * big_k / (n * big_n)) ** (1.0 / (k + n))
    except OverflowError:  # a minimizer beyond the largest float
        t_star = math.inf
    value = (1.0 / k + 1.0 / n) * (k * big_k) ** (n / (k + n)) \
        * (n * big_n) ** (k / (k + n))
    return value, t_star


def dpi_report(rep: MonotoneDecreasingRep, ctx: PairContext) -> BoundReport:
    """The data processing inequality gap >= 0 on the trial's gap of rep."""
    report = BoundReport(f"dpi:{rep.name}", None)
    report.bound("dpi", None, gap=ctx.gap(rep))
    return report


def theorem_report(rep: MonotoneDecreasingRep, beta: float,
                   ctx: PairContext) -> BoundReport:
    """The T-family at its exact minimum over T (theorem_optimum) on the
    trial's gap: margin min_T rhs - (pi/sin(beta pi)) disc, at T_star (None
    for an inf or nan gap). A gap <= 0 has the minimum 0 at T_star = inf; a
    constant that overflowed to inf times such a gap leaves a nan margin."""
    report = BoundReport(f"theorem:{rep.name}", beta,
                         constants={"T_star": None})
    g = ctx.gap(rep)
    if math.isfinite(g):
        value, t_star = theorem_optimum(rep, beta, ctx.delta_norm, g)
        report.constants["T_star"] = mark(t_star)
        report.margins["theorem_T_opt"] = mark(
            value - _law(rep, beta).pi_sin * ctx.discrepancy(beta))
    else:
        report.bound("theorem_T_opt", None, gap=g)
    return report


def _power_law(log_k: float, x: float, expo: float) -> float:
    """K x^E for x >= 0, evaluated as exp(log K + E log x): K and x^E can
    under- and overflow apart (K = 0 and x^E = inf at a large ||Delta||)
    while their product is a normal float, so they never meet as floats."""
    return math.exp(log_k + expo * math.log(x)) if x > 0.0 else 0.0


def _log_k_gap(law: _Law, k_t: float) -> float:
    """log K_gap of law's generic inversion at K_T = k_t."""
    expo, log_kn, weight, log_c, log_pi_sin = law.generic
    return expo * (log_pi_sin
                   - (log_kn + weight * math.log(law.k * k_t) + log_c))


def _delta_log(beta: float, delta_norm: float) -> float:
    """log(2 (1 + b ||Delta||/(1-b))) for beta <= 1/2, log(2 ((1-b)/b +
    ||Delta||)) above: the ||Delta|| term of the corollary constants."""
    if beta <= 0.5:
        return math.log1p(beta * delta_norm / (1.0 - beta)) + math.log(2.0)
    return math.log((1.0 - beta) / beta + delta_norm) + math.log(2.0)


def corollary_constant(rep: MonotoneDecreasingRep, beta: float,
                       delta_norm: float) -> tuple[float, float, str]:
    """(log K, E, key) of the printed corollary gap_f >= K disc^E of rep at
    beta (_Law)."""
    law = _law(rep, beta)
    log_k = law.weight * _delta_log(beta, delta_norm)
    for term in law.terms:
        log_k += term
    return log_k, law.exponent, law.key


def _corollary(rep: MonotoneDecreasingRep, beta: float, ctx: PairContext,
               generic: bool = False) -> BoundReport:
    """The report of gap_f >= K disc^E on the trial's gap of rep and
    discrepancy at beta: the printed corollary of _law(rep, beta), or with
    generic its inversion K_gap, named "generic:" + rep.name. log K is
    recorded as "log_" + key, E in the law's grid, and as T_star the
    minimizer of the family on the last piece of C^f, which holds for
    T >= 1 only, so a T_star below 1 is flagged when c > 0 (-log x's,
    c = 0, holds at every T)."""
    law = _law(rep, beta)
    g = ctx.gap(rep)
    k_t = _k_t(beta, ctx.delta_norm)
    if generic:
        name, key, grid = "generic:" + rep.name, "K_gap", law.generic_grid
        log_k, expo = _log_k_gap(law, k_t), law.generic[0]
    else:
        name, grid = law.name, law.grid
        log_k, expo, key = corollary_constant(rep, beta, ctx.delta_norm)
    _, _, big_c, c, n, _ = law.pieces[-1]
    t_star = math.inf if not math.isfinite(g) or g <= 0.0 else lemma_opt(
        k_t, law.k, math.sqrt(big_c * g), n)[1]
    report = BoundReport(name, beta, {"log_" + key: log_k,
                                      "T_star": mark(t_star)}, grid=grid)
    report.bound("gap_lower_bound",
                 _power_law(log_k, ctx.discrepancy(beta), expo), gap=g)
    if c > 0.0 and t_star < 1.0:
        report.flags.append(FLAG_T_STAR_BELOW_ONE)
    return report


def generic_corollary_bound(rep: MonotoneDecreasingRep, beta: float,
                            ctx: PairContext) -> BoundReport:
    """gap >= K_gap * disc^E from the theorem optimized over T with the
    T >= 1 piece of C^f. verify does not run it: corollary-log and
    corollary-power assert the same inequality, with a right side never
    smaller and the same T_star."""
    return _corollary(rep, beta, ctx, generic=True)


def corollary_log_bound(beta: float, ctx: PairContext) -> BoundReport:
    """Relative-entropy gap lower bound with the printed closed-form
    constant, which tests/test_bounds.py checks against the generic
    optimization (C=1, c=0)."""
    report = _corollary(builtin_neg_log(), beta, ctx)
    if beta == 0.5 and ctx.delta_norm > 0.0:
        report.constants["CV_comparison_rhs"] = (1.0 / (8.0 * math.pi)) ** 4 \
            * ctx.delta_norm ** (-2.0) * ctx.recovery_errors[0] ** 4
    return report


def corollary_power_bound(alpha: float, beta: float,
                          ctx: PairContext) -> BoundReport:
    """Power quasi-entropy gap lower bound, proof-derived exponent.

    The exponent asserted is (1 + a(1-b))/(b(1-b)) for b <= 1/2 and
    (2b + a(1-b))/(b(1-b)) for b >= 1/2 (both 4 + 2a at b = 1/2); the
    alternative displayed family over (1 - b^2) is recorded under
    exponent_displayed but carries no margin. T_star is the generic
    optimization's with the T >= 1 piece of C^f, whose C = pi/sin(a pi) and
    growth exponent c (a/2 for b <= 1/2, a(1-b)/(2b) above) are recorded
    as C_exact and c_effective.
    """
    return _corollary(builtin_neg_power(alpha), beta, ctx)


def renyi_bound(alpha: float, ctx: PairContext) -> BoundReport:
    """Renyi-divergence gap bounds of order alpha in (0, 1).

    Three forms share the power-corollary constant K_U at order 1 - alpha,
    beta = 1/2, exponent 6 - 2 alpha:

      renyi_disc      gap >= log(1 + K_U disc^{6-2a}) / (1-a)
      renyi_recovery  gap >= log(1 + K_hat max(e_rho, e_sigma)^{6-2a}) / (1-a)
      renyi_inverted  max(e)^{6-2a} <= (2 sqrt(||rho|| ||sigma^-1||)/K_U)
                                        (exp((1-a) gap) - 1)

    with K_hat = K_U / (2 sqrt(||rho|| ||sigma^-1||)). The disc margin is
    asserted for invertible sigma. The recovery margin additionally needs
    supp sigma inside supp rho: the recovery map pushes sigma through the
    rho support, so a leak can leave e_rho > 0 at zero gap. A leak (or
    singular sigma) records values and flags instead of margins. The
    inverted form, the paper's printed one, is renyi_recovery solved for
    max(e) (the same inequality for gap >= 0), so only its right side is
    recorded; it clamps negative numerical gaps to zero before
    exponentiating.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("Renyi order must lie in (0, 1)")
    r, s = ctx.rho, ctx.sigma
    g = ctx.renyi_gap(alpha)
    log_k_u, expo, _ = corollary_constant(builtin_neg_power(1.0 - alpha),
                                          0.5, ctx.delta_norm)
    report = BoundReport(f"renyi:{float(alpha)!r}", 0.5, {"log_K_U": log_k_u},
                         grid={"exponent": expo})
    rhs_disc = math.log1p(_power_law(log_k_u, ctx.discrepancy(0.5), expo)) \
        / (1.0 - alpha)
    if not s.is_invertible:
        report.bound("renyi_disc", rhs_disc)
        report.flags.append(FLAG_SIGMA_SINGULAR)
        if not ctx.sigma_n.is_invertible:
            report.flags.append(FLAG_SIGMA_N_SINGULAR)
        return report
    report.bound("renyi_disc", rhs_disc, gap=g)
    e_rho, e_sigma = ctx.recovery_errors
    log_k_hat = log_k_u - math.log(2.0) - 0.5 * math.log(
        float(r.eigenvalues[0]) * (1.0 / float(s.eigenvalues[-1])))
    report.constants["K_hat"] = math.exp(log_k_hat)
    rhs_rec = math.log1p(_power_law(log_k_hat, max(e_rho, e_sigma), expo)) \
        / (1.0 - alpha)
    if ctx.support_leak <= s.spectrum.zero_threshold:
        report.bound("renyi_recovery", rhs_rec, gap=g)
    else:
        report.bound("renyi_recovery", rhs_rec)
        report.flags.append(FLAG_SUPPORT_MISMATCH)
    report.bound("renyi_inverted", _power_law(
        -log_k_hat, math.expm1((1.0 - alpha) * max(g, 0.0)), 1.0))
    return report


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
    neg_log = builtin_neg_log()
    g = ctx.gap(neg_log)
    law = _law(neg_log, 0.5)
    log_k_gap = _log_k_gap(law, _k_t(0.5, ctx.delta_norm))
    report = BoundReport("recovery-chain", 0.5, grid=law.generic_grid)
    report.bound("rec_rho", 2.0 * disc_full, e_rho)
    norms_n = None
    if s_n.is_invertible:
        norms_n = math.sqrt(float(r_n.eigenvalues[0]) / float(s_n.eigenvalues[-1]))
        report.bound("rec_sigma_n", 2.0 * norms_n * disc_full, e_sigma)
    else:
        report.flags.append(FLAG_SIGMA_N_SINGULAR)
    if s.is_invertible:
        norms = math.sqrt(float(r.eigenvalues[0]) / float(s.eigenvalues[-1]))
        report.bound("rec_sigma", 2.0 * norms * disc_full, e_sigma)
    else:
        report.flags.append(FLAG_SIGMA_SINGULAR)
    for key, x, x_n in (("spectrum_rho", r, r_n), ("spectrum_sigma", s, s_n)):
        report.margins[key] = min(
            float(x_n.eigenvalues[-1]) - float(x.eigenvalues[-1]),
            float(x.eigenvalues[0]) - float(x_n.eigenvalues[0]))
    if math.isinf(g):
        report.flags.append(FLAG_INFINITE_GAP)
    if ctx.support_leak_n > s_n.spectrum.zero_threshold:
        report.flags.append(FLAG_TRACE_LOSS)
    if ctx.support_leak > s.spectrum.zero_threshold:
        report.flags.append(FLAG_SUPPORT_MISMATCH)
    elif not math.isnan(g):
        root = (max(g, 0.0) / math.exp(log_k_gap)) ** 0.25 \
            if math.isfinite(g) else math.inf
        report.bound("disc_gap_one_sided", 2.0 * root, e_rho)
        if norms_n is not None:
            report.bound("disc_gap_two_sided", 2.0 * norms_n * root,
                         max(e_rho, e_sigma))
    return report


def beta_free_discrepancy(beta: float, ctx: PairContext) -> BoundReport:
    """|| sigmaN^b rhoN^-b - sigma^b rho^-b ||_2 <= ||rho^{-1/2}|| disc(b),
    asserted for invertible rho only (pseudo-inverses break it otherwise)."""
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    r = ctx.rho
    lhs = ctx.beta_free(beta)  # in the trial's quantities, asserted or not
    report = BoundReport("beta-free", beta)
    if r.is_invertible:
        report.bound("beta_free", ctx.discrepancy(beta)
                     / math.sqrt(float(r.eigenvalues[-1])), lhs)
    else:
        report.bound("beta_free", math.nan)
        report.flags.append(FLAG_RHO_SINGULAR)
    return report


def contraction_probes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, ||x||_2) of the contraction check's 5 fixed d x d probes, x = re +
    i im of one (5, 2, d, d) Gaussian draw from stream(0xA11CE, d)."""
    z = stream(0xA11CE, d).standard_normal((5, 2, d, d))
    x = z[:, 0] + 1j * z[:, 1]
    return x, np.linalg.norm(x, axis=(1, 2))


def proof_internals(rep: MonotoneDecreasingRep, beta: float, ctx: PairContext,
                    t_grid, probes) -> dict:
    """Check the internal objects the theorem's proof is built from; the
    five values below, as the fields of a reconstruct internals case. The
    margins follow the >= 0 convention, the residuals are absolute errors.

    With w_t = U((t + DeltaN)^{-1} rhoN^{1/2}) - (t + Delta)^{-1} rho^{1/2}
    and U(X) = E(X) rhoN^{-1/2} rho^{1/2}:

      contraction_margin   U is a Hilbert-Schmidt contraction
      per_t_gap_margin     S_t(rho||sigma) - S_t(rhoN||sigmaN) >= t ||w_t||^2
      decay_margin         ||w_t|| <= 2/t
      identity_residual    -(sin(b pi)/pi) int t^b w_t dt equals the
                           (unnormed) discrepancy matrix
      gap_residual         int (S_t - S_t^N) w_f(t) dt equals the gap
                           (the context's reconstruction, read from its
                           memo; nan when supp rho leaves supp sigma)

    w_t is the context's (PairContext.w_t): formed in its frame, with no E
    and no dense power; with E = id the context returns it, its moment and
    the discrepancy matrix as zeros, not computed, and the per-t gap is
    zeros too. The t grid is taken in one s_t call per distinct operator
    and one w_t stack, the identity's integral in
    one PairContext.w_t_moment call (a quadrature of scalar kernels). The
    caller builds t_grid once and probes = contraction_probes(d) once per
    d; the probes are the only input E is applied to, as one stack.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    spec, op, op_n = ctx.spec, ctx.op, ctx.op_n
    x, x_norms = probes
    u_right = ctx.kraus("rho").conj().T  # rhoN^{-1/2} rho^{1/2}
    contraction = float(np.min(
        x_norms - np.linalg.norm(conditional_expectation(spec, x) @ u_right,
                                 axis=(1, 2))))
    grid = np.asarray(t_grid, dtype=float)
    norms = np.linalg.norm(ctx.w_t(grid), axis=(1, 2))
    s_t = entropy.s_t(grid, op)
    gap_t = np.zeros_like(s_t) if ctx.e_is_identity \
        else s_t - entropy.s_t(grid, op_n)
    per_t = float(np.min(gap_t - grid * norms * norms))
    decay = float(np.min(2.0 / grid - norms))
    integral = ctx.w_t_moment(beta)
    target = ctx.discrepancy_matrix(beta)[:, op.kept_columns]
    identity_residual = float(np.linalg.norm(
        -(math.sin(beta * math.pi) / math.pi) * integral - target))
    try:
        g_quad = ctx.reconstruct_gap(rep)
    except DomainError:
        gap_residual = math.nan
    else:
        gap_residual = abs(g_quad - ctx.gap(rep))
    return {"contraction_margin": contraction, "per_t_gap_margin": per_t,
            "decay_margin": decay, "identity_residual": identity_residual,
            "gap_residual": gap_residual}
