"""Acceptance battery.

One test per advertised guarantee, each printing a single PASS/FAIL line
with the measured numbers (written to the real stdout so the lines survive
pytest capture). Population: 200 seeded trials over dims {2, 3, 4, 6, 8}
with the harness rank policy (periodic singular rho and sigma) and the four
subalgebra kinds cycling.
"""

import math
import sys
import time

import numpy as np
import pytest

from petzgap import bounds, entropy, modular
from petzgap.algebra import conditional_expectation, factor_spec
from petzgap.context import PairContext
from petzgap.harness import (SPEC_KINDS, ExperimentConfig, draw_pair,
                             dumps_report, run_verify, spec_for)
from petzgap.linalg import psd_power
from petzgap.monotone import (builtin_neg_log, builtin_neg_power,
                              pick_coefficients, stieltjes_density,
                              verify_representation)
from petzgap.recovery import recovery_errors
from petzgap.states import SamplerConfig, make_density, sample

from conftest import exact_product_pair, ginibre

N_TRIALS = 200
POP_SEED = 20260818

REPS = (builtin_neg_log(), builtin_neg_power(0.25), builtin_neg_power(0.5),
        builtin_neg_power(0.75))


def report_line(tag: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status} {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def population():
    cfg = ExperimentConfig(trials=N_TRIALS, dims=[2, 3, 4, 6, 8],
                           specs=list(SPEC_KINDS), functions=["neg-log"],
                           seed=POP_SEED)
    pop = []
    for i in range(N_TRIALS):
        rho, sigma, dim, _, _, _ = draw_pair(cfg, i)
        pop.append((rho, sigma, dim, SPEC_KINDS[i % len(SPEC_KINDS)]))
    return pop


def test_criterion_01_dpi_suite(population):
    t0 = time.perf_counter()
    checks = 0
    violations = 0
    worst = math.inf
    for rho, sigma, dim, _ in population:
        op = modular.build(sigma, rho)
        for kind in SPEC_KINDS:
            spec = spec_for(kind, dim)
            r_n = make_density(conditional_expectation(spec, rho.matrix))
            s_n = make_density(conditional_expectation(spec, sigma.matrix))
            op_n = modular.build(s_n, r_n)
            for rep in REPS:
                outer = entropy.s_f(rep, rho, sigma, data=op).value
                inner = entropy.s_f(rep, r_n, s_n, data=op_n).value
                checks += 1
                if not inner <= outer + 1e-9:
                    violations += 1
                elif math.isfinite(outer) and math.isfinite(inner):
                    worst = min(worst, outer - inner)
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 01", violations == 0 and elapsed < 60.0,
        f"dpi: trials={N_TRIALS} checks={checks} violations={violations} "
        f"min_finite_gap={worst:.3e} time={elapsed:.1f}s (budget 60s)")


def test_criterion_02_theorem_t_family(population):
    t0 = time.perf_counter()
    t_grid = np.logspace(-3, 6, 40)
    betas = (0.2, 0.5, 0.8)
    checks = 0
    violations = 0
    skipped_undefined = 0
    worst_margin = math.inf
    for rho, sigma, dim, kind in population:
        spec = spec_for(kind, dim)
        delta_norm = modular.operator_norm(modular.build(sigma, rho))
        gaps = {rep.name: entropy.gap(rep, rho, sigma, spec) for rep in REPS}
        for beta in betas:
            disc = bounds.discrepancy_norm(beta, rho, sigma, spec)
            lhs = math.pi / math.sin(beta * math.pi) * disc
            for rep in REPS:
                g = gaps[rep.name]
                if math.isnan(g):
                    skipped_undefined += 1
                    continue
                for t in t_grid:
                    rhs = bounds.theorem_bound(rep, beta, float(t),
                                               delta_norm, g)
                    checks += 1
                    if not lhs <= rhs + 1e-8:
                        violations += 1
                    elif math.isfinite(rhs):
                        worst_margin = min(worst_margin, rhs - lhs)
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 02", violations == 0 and elapsed < 120.0,
        f"theorem T-family: checks={checks} violations={violations} "
        f"undefined_gap_skips={skipped_undefined} "
        f"min_finite_margin={worst_margin:.3e} time={elapsed:.1f}s "
        f"(budget 120s)")


def test_criterion_03_log_corollary(population):
    t0 = time.perf_counter()
    checked = 0
    skipped_undefined = 0
    violations = 0
    worst_const = 0.0
    for rho, sigma, dim, kind in population:
        spec = spec_for(kind, dim)
        rep = bounds.corollary_log_bound(0.5, PairContext(rho, sigma, spec))
        if "gap_lower_bound" not in rep.margins:
            skipped_undefined += 1
            continue
        checked += 1
        closed = rep.constants["K_log3"]
        want = (math.pi / 4.0) ** 4 * (1.0 + rep.delta_norm) ** (-2.0)
        rel = abs(closed - want) / want
        worst_const = max(worst_const, rel)
        lemma_rel = abs(rep.constants["K_L"] - rep.constants["K_generic"]) \
            / rep.constants["K_generic"]
        worst_const = max(worst_const, lemma_rel)
        margin = rep.gap - closed * rep.discrepancy ** 4
        if not margin >= -1e-8 or lemma_rel > 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 03", violations == 0,
        f"log corollary b=1/2: checked={checked} "
        f"undefined_gap_skips={skipped_undefined} violations={violations} "
        f"worst_constant_relerr={worst_const:.2e} time={elapsed:.1f}s")


def test_criterion_04_power_corollary(population):
    t0 = time.perf_counter()
    checked = 0
    violations = 0
    for rho, sigma, dim, kind in population:
        spec = spec_for(kind, dim)
        for alpha in (0.25, 0.5, 0.75):
            for beta in (0.5, 0.3, 0.7):
                rep = bounds.corollary_power_bound(
                    alpha, beta, PairContext(rho, sigma, spec))
                checked += 1
                if beta == 0.5 and abs(
                        rep.constants["exponent"] - (4.0 + 2.0 * alpha)) \
                        > 1e-12:
                    violations += 1
                if not rep.margins["gap_lower_bound"] >= -1e-8:
                    violations += 1
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 04", violations == 0,
        f"power corollary: checked={checked} violations={violations} "
        f"exponent_at_half=4+2a time={elapsed:.1f}s")


def test_criterion_05_renyi_family(population):
    t0 = time.perf_counter()
    checked = 0
    skipped_singular = 0
    support_skips = 0
    violations = 0
    worst = math.inf
    for rho, sigma, dim, kind in population:
        if not sigma.is_invertible:
            skipped_singular += 1
            continue
        spec = spec_for(kind, dim)
        for alpha in (0.25, 0.5, 0.75):
            rep = bounds.renyi_bound(alpha, PairContext(rho, sigma, spec))
            checked += 1
            if rep.constants["exponent"] != 6.0 - 2.0 * alpha:
                violations += 1
            assert "renyi_disc" in rep.margins
            for key in ("renyi_disc", "renyi_recovery", "renyi_inverted"):
                if key not in rep.margins:
                    # recovery forms need supp sigma inside supp rho;
                    # a leak is flagged, not asserted
                    support_skips += 1
                    continue
                margin = rep.margins[key]
                worst = min(worst, margin)
                if not margin >= -1e-8:
                    violations += 1
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 05", violations == 0,
        f"renyi bounds: checked={checked} singular_sigma_skips="
        f"{skipped_singular} support_skips={support_skips} "
        f"violations={violations} min_margin={worst:.3e} "
        f"time={elapsed:.1f}s")


def test_criterion_06_recovery_chain(population):
    t0 = time.perf_counter()
    checked = 0
    vacuous = 0
    violations = 0
    worst = math.inf
    for rho, sigma, dim, kind in population:
        spec = spec_for(kind, dim)
        rep = bounds.recovery_chain(PairContext(rho, sigma, spec))
        if "rec_rho" not in rep.margins:
            violations += 1
            continue
        for key in ("rec_rho", "rec_sigma_n", "rec_sigma"):
            if key not in rep.margins:
                # singular sigma(_N): the constant is infinite, the
                # inequality holds vacuously and is flagged instead
                vacuous += 1
                continue
            checked += 1
            margin = rep.margins[key]
            worst = min(worst, margin)
            if not margin >= -1e-8:
                violations += 1
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 06", violations == 0,
        f"recovery chain: trials={N_TRIALS} inequalities_checked={checked} "
        f"vacuous={vacuous} violations={violations} min_margin={worst:.3e} "
        f"time={elapsed:.1f}s")


def test_criterion_07_exact_product_pairs():
    t0 = time.perf_counter()
    shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]
    checked = 0
    violations = 0
    worst_gap = 0.0
    worst_disc = 0.0
    worst_rec = 0.0
    for seed_bump, (n1, n2) in enumerate(shapes):
        for seed in (1, 2, 3):
            rho, sigma = exact_product_pair(n1, n2, 9000 + 10 * seed_bump + seed)
            spec = factor_spec(n1, n2)
            for rep in REPS:
                g = entropy.gap(rep, rho, sigma, spec)
                checked += 1
                worst_gap = max(worst_gap, abs(g))
                if abs(g) > 1e-9:
                    violations += 1
            for beta in (0.25, 0.5, 0.75):
                disc = bounds.discrepancy_norm(beta, rho, sigma, spec)
                checked += 1
                worst_disc = max(worst_disc, disc)
                if disc > 1e-8:
                    violations += 1
            e_rho, e_sigma = recovery_errors(rho, sigma, spec)
            checked += 2
            worst_rec = max(worst_rec, e_rho, e_sigma)
            if max(e_rho, e_sigma) > 1e-8:
                violations += 1
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 07", violations == 0,
        f"exact product pairs: pairs={3 * len(shapes)} checks={checked} "
        f"violations={violations} max_gap={worst_gap:.2e} "
        f"max_disc={worst_disc:.2e} max_rec_err={worst_rec:.2e} "
        f"time={elapsed:.1f}s")


def _superoperator_value(rep, rho, sigma):
    op = modular.build(sigma, rho)
    big = modular.superoperator_matrix(op)
    evals, vecs = np.linalg.eigh(big)
    evals = np.clip(evals.real, 0.0, None)
    sq = psd_power(rho.matrix, 0.5).reshape(-1, order="F")
    coeff = np.abs(vecs.conj().T @ sq) ** 2
    pos = evals > 1e-12
    value = float(np.sum(coeff[pos] * rep.eval(evals[pos])))
    zero_mass = float(np.sum(coeff[~pos]))
    if math.isinf(rep.f_at_zero):
        return math.inf if zero_mass > 1e-12 else value
    return value + rep.f_at_zero * zero_mass


def test_criterion_08_oracle_equivalence():
    t0 = time.perf_counter()
    worst_super = 0.0
    worst_classical = 0.0
    worst_umegaki = 0.0
    # superoperator oracle, invertible pairs, dims <= 4
    for dim in (2, 3, 4):
        for seed in range(4):
            rho = ginibre(dim, dim, 9500 + seed)
            sigma = ginibre(dim, dim, 9600 + seed)
            for rep in REPS:
                got = entropy.s_f(rep, rho, sigma).value
                want = _superoperator_value(rep, rho, sigma)
                worst_super = max(worst_super, abs(got - want))
    # singular sigma, finite-at-zero functions only
    rho = ginibre(4, 4, 9700)
    sigma = ginibre(4, 3, 9701)
    for rep in REPS[1:]:
        got = entropy.s_f(rep, rho, sigma).value
        want = _superoperator_value(rep, rho, sigma)
        worst_super = max(worst_super, abs(got - want))
    # classical f-divergence on commuting (diagonal) pairs
    rng = np.random.default_rng(9800)
    for dim in (2, 3, 4, 6, 8):
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        rho = make_density(np.diag(p))
        sigma = make_density(np.diag(q))
        for rep in REPS:
            got = entropy.s_f(rep, rho, sigma).value
            want = float(sum(pi * float(rep.eval(qi / pi))
                             for pi, qi in zip(p, q)))
            worst_classical = max(worst_classical, abs(got - want))
    # umegaki against the trace formula on invertible pairs
    for dim in (2, 3, 4, 6, 8):
        for seed in range(3):
            rho = ginibre(dim, dim, 9900 + seed)
            sigma = ginibre(dim, dim, 9950 + seed)
            got = entropy.umegaki(rho, sigma).value
            want = entropy.umegaki_trace(rho, sigma)
            worst_umegaki = max(worst_umegaki, abs(got - want))
    ok = worst_super <= 1e-8 and worst_classical <= 1e-10 \
        and worst_umegaki <= 1e-9
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 08", ok,
        f"oracles: superop_err={worst_super:.2e} (tol 1e-8) "
        f"classical_err={worst_classical:.2e} (tol 1e-10) "
        f"umegaki_err={worst_umegaki:.2e} (tol 1e-9) time={elapsed:.1f}s")


def test_criterion_09_representation_machinery():
    t0 = time.perf_counter()
    rep_errs = {"neg-log": verify_representation(builtin_neg_log())}
    for alpha in (0.25, 0.5, 0.75):
        rep = builtin_neg_power(alpha)
        rep_errs[rep.name] = verify_representation(rep)
    worst_rep = max(rep_errs.values())
    worst_density = 0.0
    for t in (0.3, 1.0, 2.0, 7.0):
        got = stieltjes_density(np.log, t)
        worst_density = max(worst_density, abs(got - 1.0))
        for alpha in (0.25, 0.5, 0.75):
            want = math.sin(alpha * math.pi) / math.pi * t ** alpha
            got = stieltjes_density(lambda z: z ** alpha, t)
            worst_density = max(worst_density, abs(got - want) / want)
    a_log, b_log = pick_coefficients(np.log)
    pick_err = max(abs(a_log), abs(b_log))
    # power case exercised at alpha = 1/2, where the advertised constant
    # sin(a pi / 2) coincides with the probe of x^a at i
    a_pow, b_pow = pick_coefficients(lambda z: z ** 0.5)
    pick_err = max(pick_err, abs(a_pow),
                   abs(b_pow - math.sin(0.5 * math.pi / 2.0)))
    ok = worst_rep <= 1e-6 and worst_density <= 1e-3 and pick_err <= 1e-6
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 09", ok,
        f"representations: eval_err={worst_rep:.2e} (tol 1e-6) "
        f"density_relerr={worst_density:.2e} (tol 1e-3) "
        f"pick_err={pick_err:.2e} (tol 1e-6) time={elapsed:.1f}s")


def test_criterion_10_proof_internals():
    t0 = time.perf_counter()
    dims = (2, 3, 4, 6, 8)
    betas = (0.2, 0.5, 0.8)
    t_grid = np.logspace(-2, 2, 20)
    worst_margin = math.inf
    worst_identity = 0.0
    worst_gap_res = 0.0
    violations = 0
    for i in range(50):
        dim = dims[i % len(dims)]
        kind = SPEC_KINDS[i % len(SPEC_KINDS)]
        beta = betas[i % len(betas)]
        rep = REPS[i % len(REPS)]
        rho = ginibre(dim, dim, 7000 + 2 * i)
        sigma = ginibre(dim, dim, 7000 + 2 * i + 1)
        out = bounds.proof_internals(
            rep, beta, PairContext(rho, sigma, spec_for(kind, dim)),
            t_grid=t_grid)
        margin = min(out.contraction_margin, out.per_t_gap_margin,
                     out.decay_margin)
        worst_margin = min(worst_margin, margin)
        worst_identity = max(worst_identity, out.identity_residual)
        if not math.isnan(out.gap_residual):
            worst_gap_res = max(worst_gap_res, out.gap_residual)
        if margin < -1e-8 or out.identity_residual > 1e-5 or \
                (not math.isnan(out.gap_residual)
                 and out.gap_residual > 1e-5):
            violations += 1
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 10", violations == 0 and elapsed < 120.0,
        f"proof internals: trials=50 grid=20pts violations={violations} "
        f"min_margin={worst_margin:.3e} identity_err={worst_identity:.2e} "
        f"gap_err={worst_gap_res:.2e} (tol 1e-5) time={elapsed:.1f}s "
        f"(budget 120s)")


def test_criterion_11_determinism():
    t0 = time.perf_counter()
    kwargs = dict(trials=6, dims=[2, 3, 4], specs=list(SPEC_KINDS),
                  functions=["neg-log", "neg-power:0.5"], seed=31)
    code_a, report_a = run_verify(ExperimentConfig(**kwargs))
    code_b, report_b = run_verify(ExperimentConfig(**kwargs))
    text_a = dumps_report(report_a)
    text_b = dumps_report(report_b)
    ok = code_a == code_b == 0 \
        and text_a.encode("utf-8") == text_b.encode("utf-8")
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 11", ok,
        f"determinism: bytes={len(text_a.encode('utf-8'))} identical="
        f"{text_a == text_b} exit_codes=({code_a},{code_b}) "
        f"time={elapsed:.1f}s")
