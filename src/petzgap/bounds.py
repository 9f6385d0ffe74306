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
corollary's name, key, exponent, terms and grid.

The trial quantities are read from a PairContext (see context.py), which
computes each once for its one trial (discrepancy_norm and
recovery_discrepancy build one for raw states). Each report family is built
by one helper from values (_dpi, _theorem, _corollary for the three
corollaries, _beta_free, _renyi, _chain); a public builder (dpi_report,
theorem_report, ...) reads the values from a context and calls it. battery
builds a verify trial's reports in one pass through the same helpers: it
reads each trial quantity once, forms K_T and the ||Delta|| term of the
constants once per beta, and takes each report's _Law, name and grid from
its plan, cached per (functions, beta_grid, alpha_grid). verify runs
corollary-log and corollary-power, whose right sides are never below
generic's and whose T_star is its minimizer. The constants K are built as
logs and recorded as log_K (K is exp(log_K)), and each right side K disc^E
is exp(log K + E log disc): at a large ||Delta|| the constant underflows
and disc^E overflows while the product is an ordinary number.

Margins follow one sign convention everywhere: margin >= 0 means the
inequality holds, and only inequalities whose hypotheses are met appear in
the margins dict (everything else is recorded in constants/rhs_values and
explained by flags). Every report verify writes is built here and filled
through one helper, BoundReport.bound, which records a right side and, when
the inequality is asserted, its margin; it turns a gap into its margin and
the infinite-gap flag. Under linalg's support policy, the leak of sigma
(sigma_N) off supp rho (rho_N) is flagged above sigma's (sigma_N's) zero
threshold. A BoundReport holds no trial quantity (the gap, a discrepancy,
||Delta||, a recovery error), which a verify trial writes once, nor what a
fixed rule reads from them (the theorem's left side); the constants that
depend only on (report name, beta) it keeps in grid, a dict that nothing
writes (a law's is shared by every report of its key). A float that can be
non-finite (a right side, a margin, T_star, C_exact) is marked (mark) where
it is stored, so to_json is one pass; should any other be non-finite, the
report encoder stops the run.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
    _delta_log(beta, ||Delta||) plus each of terms in turn (log_k)."""

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

    def log_k(self, delta_log: float) -> float:
        """log K of the printed corollary at the ||Delta|| whose
        _delta_log(beta, ||Delta||) is delta_log."""
        log_k = self.weight * delta_log
        for term in self.terms:
            log_k += term
        return log_k


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
    t_star = _minimizer(big_k, k, big_n, n)
    if big_n == 0.0 or big_k == 0.0:
        return 0.0, t_star
    value = (1.0 / k + 1.0 / n) * (k * big_k) ** (n / (k + n)) \
        * (n * big_n) ** (k / (k + n))
    return value, t_star


def _minimizer(big_k: float, k: float, big_n: float, n: float) -> float:
    """lemma_opt's T_star alone, of coefficients it has checked."""
    if big_n == 0.0 or big_k == 0.0:
        return math.inf if big_n == 0.0 else 0.0
    try:
        return (k * big_k / (n * big_n)) ** (1.0 / (k + n))
    except OverflowError:  # a minimizer beyond the largest float
        return math.inf


# The trial quantities the corollary-log, Renyi, beta-free and recovery-chain
# bounds share, read from a context once (_facts); leaks (leaks_n): sigma's
# weight off supp rho (sigma_N's off supp rho_N) is above sigma's (sigma_N's)
# zero threshold; rho .. sigma_n: the state's (largest, least) eigenvalue.
_Facts = namedtuple("_Facts", "delta_norm e_rho e_sigma recovery_discrepancy "
                    "leaks leaks_n rho_invertible sigma_invertible "
                    "sigma_n_invertible rho sigma rho_n sigma_n")


def _facts(ctx: PairContext) -> _Facts:
    r, s, r_n, s_n = ctx.rho, ctx.sigma, ctx.rho_n, ctx.sigma_n
    return _Facts(
        ctx.delta_norm, *ctx.recovery_errors, ctx.recovery_discrepancy,
        ctx.support_leak > s.spectrum.zero_threshold,
        ctx.support_leak_n > s_n.spectrum.zero_threshold,
        r.is_invertible, s.is_invertible, s_n.is_invertible,
        *[(float(x.eigenvalues[0]), float(x.eigenvalues[-1]))
          for x in (r, s, r_n, s_n)])


def _dpi(name: str, g: float) -> BoundReport:
    report = BoundReport(name, None)
    report.bound("dpi", None, gap=g)
    return report


def dpi_report(rep: MonotoneDecreasingRep, ctx: PairContext) -> BoundReport:
    """The data processing inequality gap >= 0 on the trial's gap of rep."""
    return _dpi(f"dpi:{rep.name}", ctx.gap(rep))


def _theorem(rep: MonotoneDecreasingRep, beta: float, law: _Law, name: str,
             delta_norm: float, g: float, disc: float) -> BoundReport:
    report = BoundReport(name, beta, constants={"T_star": None})
    if math.isfinite(g):
        value, t_star = theorem_optimum(rep, beta, delta_norm, g)
        report.constants["T_star"] = mark(t_star)
        report.margins["theorem_T_opt"] = mark(value - law.pi_sin * disc)
    else:
        report.bound("theorem_T_opt", None, gap=g)
    return report


def theorem_report(rep: MonotoneDecreasingRep, beta: float,
                   ctx: PairContext) -> BoundReport:
    """The T-family at its exact minimum over T (theorem_optimum) on the
    trial's gap: margin min_T rhs - (pi/sin(beta pi)) disc, at T_star (None
    for an inf or nan gap). A gap <= 0 has the minimum 0 at T_star = inf; a
    constant that overflowed to inf times such a gap leaves a nan margin."""
    return _theorem(rep, beta, _law(rep, beta), f"theorem:{rep.name}",
                    ctx.delta_norm, ctx.gap(rep), ctx.discrepancy(beta))


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
    return law.log_k(_delta_log(beta, delta_norm)), law.exponent, law.key


def _corollary(law: _Law, beta: float, g: float, k_t: float,
               delta_log: float, disc: float, facts: _Facts | None = None,
               generic: str | None = None) -> BoundReport:
    """The report of gap_f >= K disc^E on gap g and discrepancy disc at
    beta, K_T = k_t and _delta_log(beta, ||Delta||) = delta_log: the printed
    corollary of law (with the trial's facts, corollary-log, which records
    the CV comparison at beta = 1/2), or its generic inversion K_gap, named
    generic. log K is recorded as "log_" + key, E in the law's grid, and as
    T_star the minimizer of the family on the last piece of C^f, which holds
    for T >= 1 only, so a T_star below 1 is flagged when c > 0 (-log x's,
    c = 0, holds at every T)."""
    if generic:
        name, key, grid = generic, "K_gap", law.generic_grid
        log_k, expo = _log_k_gap(law, k_t), law.generic[0]
    else:
        name, key, grid = law.name, law.key, law.grid
        log_k, expo = law.log_k(delta_log), law.exponent
    _, _, big_c, c, n, _ = law.pieces[-1]
    t_star = math.inf if not math.isfinite(g) or g <= 0.0 else _minimizer(
        k_t, law.k, math.sqrt(big_c * g), n)
    report = BoundReport(name, beta, {"log_" + key: log_k,
                                      "T_star": mark(t_star)}, grid=grid)
    report.bound("gap_lower_bound", _power_law(log_k, disc, expo), gap=g)
    if c > 0.0 and t_star < 1.0:
        report.flags.append(FLAG_T_STAR_BELOW_ONE)
    if facts is not None and beta == 0.5 and facts.delta_norm > 0.0:
        report.constants["CV_comparison_rhs"] = (1.0 / (8.0 * math.pi)) ** 4 \
            * facts.delta_norm ** (-2.0) * facts.e_rho ** 4
    return report


def _corollary_reads(rep: MonotoneDecreasingRep, beta: float,
                     ctx: PairContext) -> tuple:
    """_corollary's arguments for rep at beta, read from ctx."""
    dn = ctx.delta_norm
    return (_law(rep, beta), beta, ctx.gap(rep), _k_t(beta, dn),
            _delta_log(beta, dn), ctx.discrepancy(beta))


def generic_corollary_bound(rep: MonotoneDecreasingRep, beta: float,
                            ctx: PairContext) -> BoundReport:
    """gap >= K_gap * disc^E from the theorem optimized over T with the
    T >= 1 piece of C^f. verify does not run it: corollary-log and
    corollary-power assert the same inequality, with a right side never
    smaller and the same T_star."""
    return _corollary(*_corollary_reads(rep, beta, ctx),
                      generic="generic:" + rep.name)


def corollary_log_bound(beta: float, ctx: PairContext) -> BoundReport:
    """Relative-entropy gap lower bound with the printed closed-form
    constant, which tests/test_bounds.py checks against the generic
    optimization (C=1, c=0)."""
    return _corollary(*_corollary_reads(builtin_neg_log(), beta, ctx),
                      _facts(ctx))


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
    return _corollary(*_corollary_reads(builtin_neg_power(alpha), beta, ctx))


def _renyi_entry(alpha: float) -> tuple:
    """(alpha, name, _law of neg-power:1 - alpha at beta = 1/2, grid) of
    the Renyi report of order alpha."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("Renyi order must lie in (0, 1)")
    law = _law(builtin_neg_power(1.0 - alpha), 0.5)
    return alpha, f"renyi:{float(alpha)!r}", law, {"exponent": law.exponent}


def _renyi(entry: tuple, g: float, delta_log: float, disc: float,
           facts: _Facts) -> BoundReport:
    alpha, name, law, grid = entry
    log_k_u, expo = law.log_k(delta_log), law.exponent
    report = BoundReport(name, 0.5, {"log_K_U": log_k_u}, grid=grid)
    rhs_disc = math.log1p(_power_law(log_k_u, disc, expo)) / (1.0 - alpha)
    if not facts.sigma_invertible:
        report.bound("renyi_disc", rhs_disc)
        report.flags.append(FLAG_SIGMA_SINGULAR)
        if not facts.sigma_n_invertible:
            report.flags.append(FLAG_SIGMA_N_SINGULAR)
        return report
    report.bound("renyi_disc", rhs_disc, gap=g)
    log_k_hat = log_k_u - math.log(2.0) - 0.5 * math.log(
        facts.rho[0] * (1.0 / facts.sigma[1]))
    report.constants["K_hat"] = math.exp(log_k_hat)
    rhs_rec = math.log1p(_power_law(
        log_k_hat, max(facts.e_rho, facts.e_sigma), expo)) / (1.0 - alpha)
    if facts.leaks:
        report.bound("renyi_recovery", rhs_rec)
        report.flags.append(FLAG_SUPPORT_MISMATCH)
    else:
        report.bound("renyi_recovery", rhs_rec, gap=g)
    report.bound("renyi_inverted", _power_law(
        -log_k_hat, math.expm1((1.0 - alpha) * max(g, 0.0)), 1.0))
    return report


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
    return _renyi(_renyi_entry(alpha), ctx.renyi_gap(alpha),
                  _delta_log(0.5, ctx.delta_norm), ctx.discrepancy(0.5),
                  _facts(ctx))


def _chain(law: _Law, k_t: float, g: float, facts: _Facts) -> BoundReport:
    e_rho, e_sigma, disc_full = facts[1:4]
    report = BoundReport("recovery-chain", 0.5, grid=law.generic_grid)
    report.bound("rec_rho", 2.0 * disc_full, e_rho)
    norms_n = None
    if facts.sigma_n_invertible:
        norms_n = math.sqrt(facts.rho_n[0] / facts.sigma_n[1])
        report.bound("rec_sigma_n", 2.0 * norms_n * disc_full, e_sigma)
    else:
        report.flags.append(FLAG_SIGMA_N_SINGULAR)
    if facts.sigma_invertible:
        norms = math.sqrt(facts.rho[0] / facts.sigma[1])
        report.bound("rec_sigma", 2.0 * norms * disc_full, e_sigma)
    else:
        report.flags.append(FLAG_SIGMA_SINGULAR)
    for key, x, x_n in (("spectrum_rho", facts.rho, facts.rho_n),
                        ("spectrum_sigma", facts.sigma, facts.sigma_n)):
        report.margins[key] = min(x_n[1] - x[1], x[0] - x_n[0])
    if math.isinf(g):
        report.flags.append(FLAG_INFINITE_GAP)
    if facts.leaks_n:
        report.flags.append(FLAG_TRACE_LOSS)
    if facts.leaks:
        report.flags.append(FLAG_SUPPORT_MISMATCH)
    elif not math.isnan(g):
        root = (max(g, 0.0) / math.exp(_log_k_gap(law, k_t))) ** 0.25 \
            if math.isfinite(g) else math.inf
        report.bound("disc_gap_one_sided", 2.0 * root, e_rho)
        if norms_n is not None:
            report.bound("disc_gap_two_sided", 2.0 * norms_n * root,
                         max(e_rho, e_sigma))
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
    neg_log = builtin_neg_log()
    return _chain(_law(neg_log, 0.5), _k_t(0.5, ctx.delta_norm),
                  ctx.gap(neg_log), _facts(ctx))


def _beta_free(beta: float, disc: float, free: float,
               facts: _Facts) -> BoundReport:
    report = BoundReport("beta-free", beta)
    if facts.rho_invertible:
        report.bound("beta_free", disc / math.sqrt(facts.rho[1]), free)
    else:
        report.bound("beta_free", math.nan)
        report.flags.append(FLAG_RHO_SINGULAR)
    return report


def beta_free_discrepancy(beta: float, ctx: PairContext) -> BoundReport:
    """|| sigmaN^b rhoN^-b - sigma^b rho^-b ||_2 <= ||rho^{-1/2}|| disc(b),
    asserted for invertible rho only (pseudo-inverses break it otherwise);
    the left side is in the trial's quantities, asserted or not."""
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    return _beta_free(beta, ctx.discrepancy(beta), ctx.beta_free(beta),
                      _facts(ctx))


@cache
def _plan(reps: tuple, beta_grid: tuple, alpha_grid: tuple) -> tuple:
    """What battery reads and builds for (reps, beta_grid, alpha_grid) in
    any trial: the functions whose entropies it takes (in one pass per
    operator), the keys of the gaps and discrepancies it reads, and per
    report its _Law, name and grid. The power corollaries run at each alpha
    of alpha_grid, then at each neg-power:alpha of reps alpha_grid lacks."""
    neg_log = builtin_neg_log()
    powers = [builtin_neg_power(a) for a in dict.fromkeys(alpha_grid + tuple(
        rep.alpha for rep in reps if rep.alpha is not None))]
    return (
        reps + (neg_log,) + tuple(map(builtin_neg_power, alpha_grid + tuple(
            1.0 - a for a in alpha_grid))),
        tuple(dict.fromkeys(reps + (neg_log, *powers))),
        tuple(dict.fromkeys(beta_grid + (0.5,))),
        tuple((rep, f"dpi:{rep.name}", tuple(
            (beta, _law(rep, beta), f"theorem:{rep.name}")
            for beta in beta_grid)) for rep in reps),
        tuple((beta, _law(neg_log, beta),
               tuple((rep, _law(rep, beta)) for rep in powers))
              for beta in beta_grid),
        tuple(map(_renyi_entry, alpha_grid)),
        _law(neg_log, 0.5))


def battery(ctx: PairContext, reps, beta_grid, alpha_grid) -> list:
    """The reports of a verify trial, in one pass (module docstring): per
    function of reps its dpi report and its theorem at each beta; per beta
    corollary-log, beta-free and corollary-power at each alpha of _plan; the
    Renyi bound at each alpha of alpha_grid; the recovery chain."""
    entropies, gaps, betas, theorems, corollaries, renyi, chain = _plan(
        tuple(reps), tuple(beta_grid), tuple(alpha_grid))
    ctx.entropies(entropies)
    facts = _facts(ctx)
    dn = facts.delta_norm
    gap = {rep: ctx.gap(rep) for rep in gaps}
    # (K_T, _delta_log, discrepancy) per beta of the grid and 1/2
    at = {beta: (_k_t(beta, dn), _delta_log(beta, dn), ctx.discrepancy(beta))
          for beta in betas}
    reports = []
    for rep, dpi_name, by_beta in theorems:
        reports.append(_dpi(dpi_name, gap[rep]))
        for beta, law, name in by_beta:
            reports.append(_theorem(rep, beta, law, name, dn, gap[rep],
                                    at[beta][2]))
    g = gap[builtin_neg_log()]
    for beta, log_law, powers in corollaries:
        reports.append(_corollary(log_law, beta, g, *at[beta], facts))
        reports.append(_beta_free(beta, at[beta][2], ctx.beta_free(beta),
                                  facts))
        for rep, law in powers:
            reports.append(_corollary(law, beta, gap[rep], *at[beta]))
    k_t, delta_log, disc = at[0.5]
    for entry in renyi:
        reports.append(_renyi(entry, ctx.renyi_gap(entry[0]), delta_log,
                              disc, facts))
    reports.append(_chain(chain, k_t, g, facts))
    return reports


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
    and no dense power, or returned as zeros where the context's identities
    decide it (E = id). The t grid is taken in one s_t call per distinct
    operator (the per-t gap is zeros when op_n is op) and one w_t stack,
    the identity's integral in one PairContext.w_t_moment call (a
    quadrature of scalar kernels). The caller builds t_grid once and
    probes = contraction_probes(d) once per d; the probes are the only
    input E is applied to, as one stack.
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
    gap_t = np.zeros_like(s_t) if op_n is op \
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
