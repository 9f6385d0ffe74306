import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from petzgap import entropy, modular
from petzgap.algebra import factor_spec, full_spec, pinching_spec, trivial_spec
from petzgap.bounds import (FLAG_INFINITE_GAP, FLAG_RHO_SINGULAR,
                            FLAG_SIGMA_SINGULAR, FLAG_SUPPORT_MISMATCH,
                            FLAG_TRACE_LOSS, BoundReport, battery,
                            beta_free_discrepancy, contraction_probes,
                            corollary_constant, corollary_log_bound,
                            corollary_power_bound, discrepancy_norm,
                            dpi_report, generic_corollary_bound, json_safe,
                            lemma_opt, proof_internals, recovery_chain,
                            recovery_discrepancy, renyi_bound, theorem_bound,
                            theorem_optimum, theorem_report)
from petzgap.context import PairContext
from petzgap.errors import DomainError, InvalidInput, NotPSD
from petzgap.harness import (SPEC_KINDS, ExperimentConfig, draw_pair,
                             run_sweep, run_trial, spec_for)
from petzgap.monotone import builtin_neg_log, builtin_neg_power, rep_from_name
from petzgap.states import (SamplerConfig, default_factors, make_density,
                            sample)

from conftest import (diagonal_state, exact_product_pair, ginibre,
                      grid_caches, near_singular)
from oracles import RecordContext, k_generic, k_log3, scalar_theorem_bound

SPEC4 = pinching_spec(4, [2, 2])
# the reconstruct command's default t grid
RECONSTRUCT_T_GRID = np.logspace(-2, 2, ExperimentConfig().t_points)


def random_pair(seed, dim=4, rank=None):
    rank = dim if rank is None else rank
    return ginibre(dim, rank, 3000 + seed), ginibre(dim, dim, 4000 + seed)


def test_lemma_opt_symmetric_case():
    value, t_star = lemma_opt(1.0, 1.0, 1.0, 1.0)
    assert value == pytest.approx(2.0, abs=1e-14)
    assert t_star == pytest.approx(1.0, abs=1e-14)


def test_lemma_opt_half_exponents():
    value, t_star = lemma_opt(4.0, 0.5, 1.0, 0.5)
    assert value == pytest.approx(4.0, abs=1e-12)
    assert t_star == pytest.approx(4.0, abs=1e-12)


def test_lemma_opt_is_value_at_minimizer():
    for big_k, k, big_n, n in [(3.0, 0.4, 0.2, 0.9), (10.0, 1.5, 5.0, 0.25)]:
        value, t_star = lemma_opt(big_k, k, big_n, n)
        direct = big_k * t_star ** (-k) + big_n * t_star ** n
        assert value == pytest.approx(direct, rel=1e-12)
        for bump in (0.9, 1.1):
            t = t_star * bump
            assert big_k * t ** (-k) + big_n * t ** n >= value - 1e-12


def test_lemma_opt_coefficient_scaling():
    v1, _ = lemma_opt(2.0, 1.0, 1.0, 1.0)
    v2, _ = lemma_opt(2.0, 1.0, 2.0, 1.0)
    assert v2 == pytest.approx(v1 * 2.0 ** 0.5, rel=1e-12)


def test_lemma_opt_degenerate_and_invalid():
    assert lemma_opt(0.0, 1.0, 1.0, 1.0) == (0.0, 0.0)
    value, t_star = lemma_opt(1.0, 1.0, 0.0, 1.0)
    assert value == 0.0 and math.isinf(t_star)
    with pytest.raises(InvalidInput):
        lemma_opt(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidInput):
        lemma_opt(-1.0, 1.0, 1.0, 1.0)


def test_theorem_bound_zero_gap_value():
    got = theorem_bound(builtin_neg_log(), 0.5, 4.0, 1.0, 0.0)
    assert got == pytest.approx(4.0, abs=1e-12)


def test_theorem_bound_branch_agreement_at_half():
    rep = builtin_neg_log()
    for t in (0.5, 2.0, 30.0):
        lo = theorem_bound(rep, 0.5 - 1e-13, t, 1.3, 0.2)
        hi = theorem_bound(rep, 0.5 + 1e-13, t, 1.3, 0.2)
        assert lo == pytest.approx(hi, rel=1e-9)


def test_theorem_bound_infinite_gap_and_validation():
    rep = builtin_neg_log()
    assert math.isinf(theorem_bound(rep, 0.5, 1.0, 1.0, math.inf))
    # negative numerical gap clamps to zero
    assert theorem_bound(rep, 0.5, 4.0, 1.0, -1e-12) == pytest.approx(4.0)
    with pytest.raises(InvalidInput):
        theorem_bound(rep, 0.0, 1.0, 1.0, 0.3)
    with pytest.raises(InvalidInput):
        theorem_bound(rep, 0.5, 0.0, 1.0, 0.3)
    with pytest.raises(InvalidInput):
        theorem_bound(rep, 0.5, math.nan, 1.0, 0.3)
    with pytest.raises(InvalidInput):
        theorem_bound(rep, 1.0, 2.0, 1.0, 0.3)
    with pytest.raises(InvalidInput):
        theorem_optimum(rep, 1.0, 1.0, 0.3)


@pytest.mark.parametrize("alpha", [None, 0.25, 0.5])
def test_theorem_bound_array_matches_scalar_formula(alpha):
    # on each T of an array that spans both pieces of C^f, from the
    # pieces' C T^(2c) against the window formula: a few ulp at most
    rep = builtin_neg_log() if alpha is None else builtin_neg_power(alpha)
    t_values = np.logspace(-6, 6, 49)
    for beta in (0.25, 0.3, 0.5, 0.7, 0.75):
        for delta_norm in (1.0, 37.5):
            for g in (0.0, 1e-12, 0.3):
                got = np.array([theorem_bound(rep, beta, float(t),
                                              delta_norm, g)
                                for t in t_values])
                want = np.array([scalar_theorem_bound(
                    alpha, beta, float(t), delta_norm, g) for t in t_values])
                assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), \
                    (beta, delta_norm, g)
            for t in t_values:
                assert math.isinf(theorem_bound(rep, beta, float(t),
                                                delta_norm, math.inf))
                assert math.isnan(theorem_bound(rep, beta, float(t),
                                                delta_norm, math.nan))


# a 200,001-point log grid over [1e-8, 1e14], with T = 1, where the two
# pieces of C^f of -x^alpha meet and a clamped minimum sits
DENSE_T = np.union1d(np.logspace(-8, 14, 200_001), [1.0])


@pytest.mark.parametrize("alpha", [None, 0.25, 0.5, 0.75])
def test_theorem_optimum_is_the_dense_grid_minimum(alpha):
    """On positive gaps the closed-form minimum over T is at or below every
    point of the dense grid (to 4 ulp of the grid's least value, which is
    computed by a second formula) and within 1e-8 relative of it. Every
    minimizer lies inside the grid; at the gap 10 the minimum of
    -x^alpha's family sits at T = 1, between its pieces."""
    rep = builtin_neg_log() if alpha is None else builtin_neg_power(alpha)
    clamped = 0
    for beta in ExperimentConfig().beta_grid:
        for delta_norm in (1.0, 100.0):
            for g in (1e-8, 0.3, 10.0):
                value, t_star = theorem_optimum(rep, beta, delta_norm, g)
                assert DENSE_T[0] < t_star < DENSE_T[-1]
                dense = scalar_theorem_bound(alpha, beta, DENSE_T,
                                             delta_norm, g)
                least = float(dense.min())
                assert value <= least + 4 * np.spacing(least), \
                    (beta, delta_norm, g)
                assert least - value <= 1e-8 * value, (beta, delta_norm, g)
                assert value == pytest.approx(theorem_bound(
                    rep, beta, t_star, delta_norm, g), rel=1e-12)
                clamped += t_star == 1.0
    assert clamped > 0 or alpha is None


def test_theorem_optimum_evaluates_a_clamped_end_on_its_piece(monkeypatch):
    """A minimizer clamped to the end of its piece of C^f is evaluated on
    that piece, with no c_constant call, and the value is theorem_bound's
    at the clamped T to the bit: the clamped end is T = 1, where the
    pieces meet."""
    from petzgap import bounds
    calls = []
    original = bounds.c_constant
    monkeypatch.setattr(bounds, "c_constant",
                        lambda *args: calls.append(args) or original(*args))
    optima = [(rep, beta, delta_norm, g,
               theorem_optimum(rep, beta, delta_norm, g))
              for rep in (builtin_neg_log(), builtin_neg_power(0.25),
                          builtin_neg_power(0.5), builtin_neg_power(0.75))
              for beta in (0.1, 0.25, 0.5, 0.75, 0.9)
              for delta_norm in (1.0, 100.0)
              for g in (1e-8, 0.3, 10.0, 1e3)]
    assert calls == []
    monkeypatch.undo()
    clamped = [(rep, beta, delta_norm, g, value)
               for rep, beta, delta_norm, g, (value, t_star) in optima
               if t_star == 1.0]
    assert clamped
    for rep, beta, delta_norm, g, value in clamped:
        assert value == theorem_bound(rep, beta, 1.0, delta_norm, g), \
            (rep.name, beta, delta_norm, g)


def test_theorem_optimum_of_a_zero_gap_is_zero():
    # the family's infimum over T, reached as T -> inf; a negative
    # numerical gap clamps to zero
    for rep in (builtin_neg_log(), builtin_neg_power(0.5)):
        for beta in (0.25, 0.5, 0.75):
            for g in (0.0, -1e-15):
                assert theorem_optimum(rep, beta, 37.5, g) == (0.0, math.inf)


def test_theorem_optimum_of_a_subnormal_gap_is_finite():
    # the low piece's minimizer (kK/(nN))^(1/(k+n)) overflows a float here:
    # lemma_opt reads it as inf, the piece clamps it to T = 1, and the
    # minimum is the high piece's
    assert lemma_opt(1.0, 0.01, 1e-300, 0.5)[1] == math.inf
    value, t_star = theorem_optimum(builtin_neg_power(0.5), 0.01, 1.0,
                                    5e-324)
    assert 0.0 < value < math.inf
    assert 1.0 < t_star < math.inf


def test_theorem_grid_min_dominates_lemma_value():
    # replace C^f(T) by its certificate C T^(2c); the sampled minimum of the
    # majorant can only sit above the continuous closed-form minimum
    gap_value = 0.37
    delta_norm = 2.1
    for beta in (0.2, 0.5, 0.8):
        if beta <= 0.5:
            k, n0 = beta, (1 - 2 * beta + 2 * beta ** 2) / (2 * (1 - beta))
        else:
            k, n0 = 1 - beta, beta
        k_t = 2.0 * (1.0 / beta + delta_norm / (1.0 - beta))
        value, _ = lemma_opt(k_t, k, math.sqrt(gap_value), n0)
        grid = np.logspace(-3, 6, 40)
        majorant = [k_t * t ** (-k) + t ** n0 * math.sqrt(gap_value)
                    for t in grid]
        assert min(majorant) >= value - 1e-9


def test_theorem_inequality_random_pairs():
    rep = builtin_neg_log()
    for seed in range(3):
        rho, sigma = random_pair(seed)
        op_norm = modular.operator_norm(modular.build(sigma, rho))
        g = PairContext(rho, sigma, SPEC4).gap(rep)
        for beta in (0.2, 0.5, 0.8):
            disc = discrepancy_norm(beta, rho, sigma, SPEC4)
            lhs = math.pi / math.sin(beta * math.pi) * disc
            for t in np.logspace(-2, 4, 7):
                assert lhs <= theorem_bound(rep, beta, float(t), op_norm, g) \
                    + 1e-8
            assert lhs <= theorem_optimum(rep, beta, op_norm, g)[0] + 1e-8


def test_discrepancy_vanishes_for_equal_states_and_full_algebra():
    rho, sigma = random_pair(10)
    assert discrepancy_norm(0.5, rho, rho, SPEC4) <= 1e-12
    assert discrepancy_norm(0.3, rho, sigma, full_spec(4)) <= 1e-10


def test_discrepancy_closed_form_diagonal_trivial():
    p, q, beta = 0.7, 0.3, 0.5
    rho = diagonal_state([p, 1 - p])
    sigma = diagonal_state([q, 1 - q])
    # E maps both states to I/2, so the first product is just rho^{1/2}
    want = math.sqrt(
        (math.sqrt(p) - q ** beta * p ** (0.5 - beta)) ** 2
        + (math.sqrt(1 - p) - (1 - q) ** beta * (1 - p) ** (0.5 - beta)) ** 2)
    got = discrepancy_norm(beta, rho, sigma, trivial_spec(2))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(math.sqrt(2.0) * abs(math.sqrt(p) - math.sqrt(q)),
                                abs=1e-12)


def test_discrepancy_validation():
    rho, sigma = random_pair(11)
    with pytest.raises(InvalidInput):
        discrepancy_norm(0.0, rho, sigma, SPEC4)
    with pytest.raises(InvalidInput):
        discrepancy_norm(0.5, rho, sigma, trivial_spec(3))


def test_recovery_discrepancy_agrees_on_matching_supports():
    rho, sigma = random_pair(12)
    assert recovery_discrepancy(rho, sigma, SPEC4) == pytest.approx(
        discrepancy_norm(0.5, rho, sigma, SPEC4), abs=1e-10)


def test_corollary_log_constants_and_margin():
    for seed in range(3):
        rho, sigma = random_pair(20 + seed)
        for beta, expo in [(0.25, 16.0 / 3.0), (0.5, 4.0), (0.75, 8.0)]:
            ctx = PairContext(rho, sigma, SPEC4)
            rep = corollary_log_bound(beta, ctx)
            assert rep.grid["exponent"] == pytest.approx(expo, rel=1e-12)
            assert rep.margins["gap_lower_bound"] >= -1e-8
            if beta == 0.5:
                # the printed constant, its closed form and the generic
                # optimization, none of which verify_v4 records beside
                # log_K_L
                k_l = math.exp(rep.constants["log_K_L"])
                assert k_l == pytest.approx(k_log3(ctx.delta_norm), rel=1e-12)
                assert k_l == pytest.approx(
                    k_generic(builtin_neg_log(), beta, ctx), rel=1e-9)


def test_corollary_log_report_shape():
    rho, sigma = random_pair(23)
    rep = corollary_log_bound(0.5, PairContext(rho, sigma, SPEC4))
    out = rep.to_json()
    # verify_v4 writes no empty container: this report has no flags
    assert rep.flags == []
    assert sorted(out) == ["beta", "constants", "margins", "name",
                           "rhs_values"]
    assert out["name"] == "corollary-log"
    rep.flags += ["b", "a"]
    assert rep.to_json()["flags"] == ["a", "b"]
    # the margin is gap - rhs, with the gap of a fresh context
    assert rep.margins["gap_lower_bound"] + rep.rhs_values["gap_lower_bound"] \
        == pytest.approx(PairContext(rho, sigma, SPEC4).gap(builtin_neg_log()),
                         abs=1e-12)


def test_corollary_power_exponents_and_margin():
    for seed in range(2):
        rho, sigma = random_pair(30 + seed)
        for alpha in (0.25, 0.5, 0.75):
            rep = corollary_power_bound(
                alpha, 0.5, PairContext(rho, sigma, SPEC4))
            assert rep.grid["exponent"] == pytest.approx(
                4.0 + 2.0 * alpha, rel=1e-12)
            assert rep.margins["gap_lower_bound"] >= -1e-8
        for beta in (0.3, 0.7):
            rep = corollary_power_bound(
                0.5, beta, PairContext(rho, sigma, SPEC4))
            assert rep.margins["gap_lower_bound"] >= -1e-8
            assert "exponent_displayed" in rep.grid


def test_corollary_power_proof_exponent_values():
    rho, sigma = random_pair(33)
    # beta <= 1/2 branch: (1 + a(1-b)) / (b(1-b))
    rep = corollary_power_bound(0.5, 0.3, PairContext(rho, sigma, SPEC4))
    assert rep.grid["exponent"] == pytest.approx(
        (1.0 + 0.5 * 0.7) / (0.3 * 0.7), rel=1e-12)
    # beta >= 1/2 branch: (2b + a(1-b)) / (b(1-b))
    rep = corollary_power_bound(0.5, 0.7, PairContext(rho, sigma, SPEC4))
    assert rep.grid["exponent"] == pytest.approx(
        (1.4 + 0.5 * 0.3) / (0.7 * 0.3), rel=1e-12)


def test_printed_constants_match_generic_optimization():
    """The printed corollary constants are the generic optimization of the
    theorem in closed form: exponents agree to 1e-12 and constants to 1e-9
    relative. Both are built as logs, so the constants are compared
    everywhere, also where they underflow as floats (log K < -708)."""
    betas = list(np.linspace(0.01, 0.99, 99)) + [0.5]
    alphas = np.linspace(0.05, 0.95, 19)
    norms = np.logspace(0, 14, 29)
    bad = []
    smallest = 0.0

    reps = [builtin_neg_log()] + [builtin_neg_power(a) for a in alphas]

    for beta in betas:
        for dn in norms:
            for rep in reps:
                log_print, expo, _ = corollary_constant(rep, beta, dn)
                smallest = min(smallest, log_print)
                # the generic inversion at this ||Delta|| (RecordContext)
                generic = generic_corollary_bound(rep, beta, RecordContext({
                    "delta_norm": dn, "gap": {rep.name: 1.0},
                    "discrepancy": {repr(beta): 0.5}}))
                log_k_gap = generic.constants["log_K_gap"]
                exponent = generic.grid["exponent"]
                where = (rep.name, beta, dn)
                if abs(exponent - expo) > 1e-12 * expo:
                    bad.append((where, "exponent", expo, exponent))
                if abs(log_k_gap - log_print) > 1e-9:
                    bad.append((where, "constant", log_print, log_k_gap))
    assert smallest < math.log(sys.float_info.min)
    for alpha in alphas:
        for dn in norms:
            expo = corollary_constant(builtin_neg_power(1.0 - alpha), 0.5,
                                      dn)[1]
            if abs(expo - (6.0 - 2.0 * alpha)) > 1e-12:
                bad.append((("renyi", alpha, dn), "exponent", expo))
    assert not bad, bad[:5]


def test_power_corollary_with_subnormal_constant_reports():
    # verify trial 54 of these settings: d = 8, trivial spec, ||Delta|| ~ 20,
    # where K_U = exp(log_K_U) = 3.772e-320 and K_generic = 3.7717e-320
    # differ in the subnormal range
    config = ExperimentConfig(trials=200, beta_grid=[0.99],
                              dims=[2, 3, 4, 6, 8])
    rho, sigma, dim, *_ = draw_pair(config, 54)
    rep = corollary_power_bound(0.25, 0.99,
                                PairContext(rho, sigma, trivial_spec(dim)))
    assert 0.0 < math.exp(rep.constants["log_K_U"]) < sys.float_info.min
    assert rep.margins["gap_lower_bound"] >= 0.0


def test_constants_of_a_large_delta_norm_are_logs():
    # verify {"trials": 60, "beta_grid": [0.99], "dims": [2, 3, 4, 6, 8]}:
    # at trials 13, 36, 48 and 56 (||Delta|| up to about 9,350) the
    # corollary constants K underflow to 0 and disc ** E overflows; the
    # product is an ordinary number, and the trial's margins hold
    config = ExperimentConfig(trials=60, beta_grid=[0.99],
                              dims=[2, 3, 4, 6, 8])
    reps = [rep_from_name(n) for n in config.functions]
    for i in (13, 36, 48, 56):
        record = run_trial(config, i, reps)
        corollaries = [r for r in record.reports
                       if r.name.startswith("corollary-")]
        assert min(v for r in corollaries for k, v in r.constants.items()
                   if k.startswith("log_K_")) < math.log(sys.float_info.min)
        for report in record.reports:
            for key, value in report.margins.items():
                assert float(value) >= -config.tolerance, (i, report.name, key)


def test_generic_corollary_matches_log_closed_form():
    rho, sigma = random_pair(34)
    gen = generic_corollary_bound(builtin_neg_log(), 0.5,
                                  PairContext(rho, sigma, SPEC4))
    log = corollary_log_bound(0.5, PairContext(rho, sigma, SPEC4))
    assert math.exp(gen.constants["log_K_gap"]) == pytest.approx(
        math.exp(log.constants["log_K_L"]), rel=1e-9)
    assert gen.rhs_values["gap_lower_bound"] == pytest.approx(
        log.rhs_values["gap_lower_bound"], rel=1e-9)


def test_generic_corollary_is_the_recorded_k_generic():
    """generic_corollary_bound optimizes the theorem with the same T >= 1
    piece of C^f as the corollaries, at every beta, so their T_star is its
    minimizer and their constant K agrees with its K_gap, which verify_v3
    recorded beside K as K_generic: on the seed-0 d = 4 pinching pair at
    beta = 0.75 and alpha = 1/2, the growth exponent a/2 in place of
    a(1-b)/(2b) once gave K_gap = 2.27e-16 against K_generic = 7.49e-14.
    The K_generic that expand_v4 rebuilds from a trial record's quantities
    is the one of the trial's context."""
    rho, sigma, *_ = draw_pair(ExperimentConfig(dims=[4]), 0)
    ctx = PairContext(rho, sigma, SPEC4)
    for beta in (0.25, 0.5, 0.75):
        pairs = [(builtin_neg_log(), corollary_log_bound(beta, ctx))]
        pairs += [(builtin_neg_power(alpha),
                   corollary_power_bound(alpha, beta, ctx))
                  for alpha in (0.25, 0.5, 0.75)]
        for rep, corollary in pairs:
            generic = generic_corollary_bound(rep, beta, ctx).constants
            log_k = [v for k, v in corollary.constants.items()
                     if k.startswith("log_K_")]
            assert len(log_k) == 1
            assert math.exp(generic["log_K_gap"]) == pytest.approx(
                math.exp(log_k[0]), rel=1e-9), (rep.name, beta)
            assert generic["T_star"] == corollary.constants["T_star"], \
                (rep.name, beta)
            assert k_generic(rep, beta, RecordContext(
                json_safe(ctx.quantities()))) \
                == k_generic(rep, beta, ctx), (rep.name, beta)


def test_renyi_bound_equal_states():
    rho, _ = random_pair(40)
    ctx = PairContext(rho, rho, SPEC4)
    rep = renyi_bound(0.5, ctx)
    assert ctx.renyi_gap(0.5) == pytest.approx(0.0, abs=1e-10)
    assert rep.grid["exponent"] == pytest.approx(5.0, rel=1e-14)
    # equal states sit at roundoff scale rather than exactly at zero; the
    # inverted form is renyi_recovery solved for max(e), a right side only
    for key in ("renyi_disc", "renyi_recovery"):
        assert rep.margins[key] >= -1e-8
    assert "renyi_inverted" in rep.rhs_values
    assert "renyi_inverted" not in rep.margins


def test_renyi_bound_margins_invertible_sigma():
    for seed in range(3):
        rho, sigma = random_pair(41 + seed)
        for alpha in (0.25, 0.5, 0.75):
            rep = renyi_bound(alpha, PairContext(rho, sigma, SPEC4))
            assert rep.grid["exponent"] == pytest.approx(
                6.0 - 2.0 * alpha, rel=1e-14)
            assert set(rep.margins) == {"renyi_disc", "renyi_recovery"}
            for key in rep.margins:
                assert rep.margins[key] >= -1e-8


def test_renyi_bound_singular_sigma_flags_not_margins():
    rho = ginibre(4, 4, 45)
    sigma = ginibre(4, 2, 46)
    rep = renyi_bound(0.5, PairContext(rho, sigma, SPEC4))
    assert FLAG_SIGMA_SINGULAR in rep.flags
    assert rep.margins == {}


def test_renyi_bound_support_leak_gates_recovery_forms():
    # singular rho under the full algebra: gap is exactly zero while the
    # recovery error e_rho = ||P sigma P - sigma||_1 stays positive, so the
    # recovery form is hypothesis-violated, not failed
    rho = ginibre(4, 3, 47)
    sigma = ginibre(4, 4, 48)
    ctx = PairContext(rho, sigma, full_spec(4))
    rep = renyi_bound(0.5, ctx)
    assert FLAG_SUPPORT_MISMATCH in rep.flags
    assert abs(ctx.renyi_gap(0.5)) <= 1e-12
    assert ctx.recovery_errors[0] > 1e-3
    assert "renyi_disc" in rep.margins
    assert rep.margins["renyi_disc"] >= -1e-8
    assert "renyi_recovery" not in rep.margins
    assert "renyi_inverted" not in rep.margins
    assert "renyi_recovery" in rep.rhs_values


@pytest.mark.parametrize("w", [5e-13, 2e-12])
def test_one_zero_cut_decides_every_support_question(w):
    """A state's zero threshold is 1e-12, and it is the one cut of every
    support question: an eigenvalue -w, rho's weight w on ker sigma and
    sigma's weight w off supp rho all count as 0 at w = 5e-13 and as
    nonzero at w = 2e-12, on 3 x 3 states."""
    above = w > 1e-12
    defect = np.diag([0.5 + w, 0.5, -w])
    if above:
        with pytest.raises(NotPSD):
            make_density(defect)
    else:
        assert make_density(defect).eigenvalues[-1] == 0.0
    # rho's eigenvector of eigenvalue lam tilted toward sigma's null vector
    # e_3 by sin^2 theta = w / lam: rho's weight on ker sigma is w
    lam = 0.6
    sin = math.sqrt(w / lam)
    psi = np.array([math.sqrt(1.0 - sin * sin), 0.0, sin])
    rho = make_density(lam * np.outer(psi, psi)
                       + np.diag([0.0, 1.0 - lam, 0.0]))
    op = modular.build(diagonal_state([0.5, 0.5, 0.0]), rho)
    assert math.isinf(entropy.s_f(builtin_neg_log(), op)) == above
    assert modular.kernel_weight(op) == pytest.approx(w, rel=1e-6)
    if above:
        with pytest.raises(DomainError):
            entropy.reconstructions([builtin_neg_log()], op, op)
    else:
        assert np.isfinite(
            entropy.reconstructions([builtin_neg_log()], op, op)).all()
    # sigma's eigenvalue w on rho's null vector e_3: sigma is invertible,
    # and its weight w off supp rho a leak, only above the cut
    ctx = PairContext(diagonal_state([0.5, 0.5, 0.0]),
                      diagonal_state([0.5, 0.5 - w, w]), full_spec(3))
    assert ctx.support_leak == pytest.approx(w, rel=1e-6)
    assert ctx.sigma.is_invertible == above
    for report in (recovery_chain(ctx), renyi_bound(0.5, ctx)):
        assert (FLAG_SUPPORT_MISMATCH in report.flags) == above, report.name


@pytest.mark.parametrize("w", [5e-13, 2e-12])
def test_both_leaks_count_a_sub_threshold_eigenvalue_as_zero(w):
    """Both leaks of a pair weigh a state's eigenvalues through its one
    zero cut: a = diag(1/2, 1/2, 0, 0, 0) and b = diag(1/2 - 3w, 1/2, w, w,
    w), whose three eigenvalues w each count as 0 at w = 5e-13 although
    their sum 1.5e-12 exceeds the cut 1e-12. Sigma = b's weight off
    supp a (support_leak) and rho = b's weight on ker a (kernel_weight) are
    then 0 and flag nothing; at w = 2e-12 both are 3w, and flagged."""
    above = w > 1e-12
    a = diagonal_state([0.5, 0.5, 0.0, 0.0, 0.0])
    b = diagonal_state([0.5 - 3.0 * w, 0.5, w, w, w])
    assert b.rank == (5 if above else 2)
    leak = modular.support_leak(modular.build(b, a))
    weight = modular.kernel_weight(modular.build(a, b))
    for value in (leak, weight):
        assert value == (pytest.approx(3.0 * w, rel=1e-6) if above else 0.0)
    assert math.isinf(entropy.s_f(builtin_neg_log(),
                                  modular.build(a, b))) == above
    report = recovery_chain(PairContext(a, b, full_spec(5)))
    for flag in (FLAG_SUPPORT_MISMATCH, FLAG_TRACE_LOSS):
        assert (flag in report.flags) == above, (flag, report.flags)


def test_recovery_chain_full_rank_margins():
    for seed in range(4):
        rho, sigma = random_pair(50 + seed)
        rep = recovery_chain(PairContext(rho, sigma, SPEC4))
        for key in ("rec_rho", "rec_sigma_n", "rec_sigma",
                    "disc_gap_one_sided", "disc_gap_two_sided"):
            assert rep.margins[key] >= -1e-8, key
        assert rep.margins["spectrum_rho"] >= -1e-12
        assert rep.margins["spectrum_sigma"] >= -1e-12
        assert rep.flags == []


def test_recovery_chain_exact_pair_has_zero_errors():
    rho, sigma = exact_product_pair(2, 2, 55)
    ctx = PairContext(rho, sigma, factor_spec(2, 2))
    recovery_chain(ctx)
    assert ctx.recovery_errors[0] <= 1e-10
    assert ctx.recovery_errors[1] <= 1e-10
    assert ctx.gap(builtin_neg_log()) == pytest.approx(0.0, abs=1e-10)


def test_recovery_chain_support_mismatch_flag():
    rho = ginibre(4, 2, 56)
    sigma = ginibre(4, 4, 57)
    rep = recovery_chain(PairContext(rho, sigma, SPEC4))
    assert FLAG_SUPPORT_MISMATCH in rep.flags
    assert "disc_gap_one_sided" not in rep.margins
    # the unconditional recovery link still holds
    assert rep.margins["rec_rho"] >= -1e-8


def test_recovery_chain_trace_loss_and_infinite_gap():
    rho = diagonal_state([1.0, 0.0])
    sigma = diagonal_state([0.0, 1.0])
    rep = recovery_chain(PairContext(rho, sigma, pinching_spec(2, [1, 1])))
    assert FLAG_TRACE_LOSS in rep.flags
    assert FLAG_SIGMA_SINGULAR in rep.flags


def test_recovery_chain_infinite_gap_flag():
    rho = make_density(np.eye(2) / 2)
    sigma = diagonal_state([1.0, 0.0])
    ctx = PairContext(rho, sigma, trivial_spec(2))
    rep = recovery_chain(ctx)
    assert FLAG_INFINITE_GAP in rep.flags
    assert math.isinf(ctx.gap(builtin_neg_log()))


def test_beta_free_invertible_margin():
    for seed in range(3):
        rho, sigma = random_pair(60 + seed)
        for beta in (0.3, 0.5, 0.8):
            rep = beta_free_discrepancy(beta, PairContext(rho, sigma, SPEC4))
            assert rep.margins["beta_free"] >= -1e-10


def test_beta_free_diagonal_closed_form():
    p, q, beta = 0.6, 0.2, 0.5
    rho = diagonal_state([p, 1 - p])
    sigma = diagonal_state([q, 1 - q])
    ctx = PairContext(rho, sigma, trivial_spec(2))
    rep = beta_free_discrepancy(beta, ctx)
    want_lhs = math.sqrt(
        (1.0 - (q / p) ** beta) ** 2
        + (1.0 - ((1 - q) / (1 - p)) ** beta) ** 2)
    assert ctx.beta_free(beta) == pytest.approx(want_lhs, abs=1e-12)
    want_rhs = ctx.discrepancy(beta) / math.sqrt(min(p, 1 - p))
    assert rep.rhs_values["beta_free"] == pytest.approx(want_rhs, abs=1e-12)


def test_beta_free_singular_rho_flags():
    rho = ginibre(4, 2, 63)
    sigma = ginibre(4, 4, 64)
    rep = beta_free_discrepancy(0.5, PairContext(rho, sigma, SPEC4))
    assert FLAG_RHO_SINGULAR in rep.flags
    assert rep.margins == {}


def test_proof_internals_random_pair():
    rho, sigma = random_pair(70)
    out = proof_internals(builtin_neg_log(), 0.5,
                          PairContext(rho, sigma, SPEC4),
                          t_grid=np.logspace(-2, 3, 12),
                          probes=contraction_probes(4))
    assert out["contraction_margin"] >= -1e-10
    assert out["per_t_gap_margin"] >= -1e-10
    assert out["decay_margin"] >= -1e-10
    assert out["identity_residual"] <= 1e-6
    assert out["gap_residual"] <= 1e-6


def test_proof_internals_power_rep_and_high_beta():
    rho, sigma = random_pair(71)
    out = proof_internals(builtin_neg_power(0.75), 0.8,
                          PairContext(rho, sigma, SPEC4), RECONSTRUCT_T_GRID,
                          contraction_probes(4))
    assert out["per_t_gap_margin"] >= -1e-10
    assert out["identity_residual"] <= 1e-6
    assert out["gap_residual"] <= 1e-6


@pytest.mark.parametrize("ranks", [(3, 4), (4, 3), (3, 3)])
@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_proof_internals_rank_deficient(kind, ranks):
    """Singular rho (w_t on the kept columns only) and singular sigma, under
    every spec kind. With E = id the N side repeats the rho side, so w_t and
    the identity residual are exactly 0."""
    rank_rho, rank_sigma = ranks
    ctx = PairContext(ginibre(4, rank_rho, 5000 + rank_rho),
                      ginibre(4, rank_sigma, 5100 + rank_sigma),
                      spec_for(kind, 4))
    out = proof_internals(builtin_neg_log(), 0.5, ctx, RECONSTRUCT_T_GRID,
                          contraction_probes(4))
    assert ctx.op.kept_columns.size == rank_rho
    assert ctx.sigma.spectrum.rank == rank_sigma
    for key in ("contraction_margin", "per_t_gap_margin", "decay_margin"):
        assert out[key] >= -1e-10, (key, out)
    assert out["identity_residual"] <= 1e-6
    assert math.isnan(out["gap_residual"]) or out["gap_residual"] <= 1e-6
    if kind == "full":
        assert out["identity_residual"] == 0.0


def test_proof_internals_exact_pair_near_zero():
    rho, sigma = exact_product_pair(2, 2, 72)
    out = proof_internals(builtin_neg_log(), 0.5,
                          PairContext(rho, sigma, factor_spec(2, 2)),
                          RECONSTRUCT_T_GRID, contraction_probes(4))
    assert out["identity_residual"] <= 1e-9
    assert out["gap_residual"] <= 1e-8
    # w_t vanishes identically, so the decay margin is the infimum of 2/t
    # over the reconstruct grid, which ends at t = 100
    assert out["decay_margin"] >= 2.0 / 100.0 - 1e-9


def cache_population() -> list:
    """Contexts whose trial quantities differ in every way the cached
    constants must not depend on: invertible pairs, a singular sigma, an
    infinite neg-log gap (rho = I/2 against a pure sigma) and ||Delta||
    above 1e6 (rho with an eigenvalue of 1e-8)."""
    rng = np.random.default_rng(20240)
    contexts = [PairContext(*random_pair(seed), SPEC4) for seed in (1, 2)]
    contexts.append(PairContext(ginibre(4, 4, 61), ginibre(4, 3, 62), SPEC4))
    contexts.append(PairContext(make_density(np.eye(2) / 2),
                                diagonal_state([1.0, 0.0]), trivial_spec(2)))
    contexts.append(PairContext(near_singular(rng, 4, 1, 1e-8),
                                ginibre(4, 4, 63), SPEC4))
    return contexts


def cached_calls(contexts: list) -> list:
    """(label, call) of every public bound builder on each context, at beta
    in {0.25, 0.5, 0.75, 0.9}, neg-log and neg-power at each alpha, and of
    the battery on those grids."""
    reps = [builtin_neg_log(), builtin_neg_power(0.3)]
    alphas = [0.1, 0.3, 0.5, 0.8]  # 1 - 0.1 = 0.9: a Renyi key off the grid
    calls = []
    for i, ctx in enumerate(contexts):
        calls.append((f"{i} battery", partial(
            battery, ctx, reps, [0.25, 0.5, 0.75, 0.9], alphas)))
        dn = ctx.delta_norm
        for rep in reps:
            g = ctx.gap(rep)
            calls.append((f"{i} dpi {rep.name}",
                          partial(dpi_report, rep, ctx)))
            for beta in (0.25, 0.5, 0.75, 0.9):
                where = f"{i} {rep.name} {beta}"
                calls += [
                    ("theorem_bound " + where,
                     partial(theorem_bound, rep, beta, 2.0, dn, g)),
                    ("theorem_report " + where,
                     partial(theorem_report, rep, beta, ctx)),
                    ("generic " + where,
                     partial(generic_corollary_bound, rep, beta, ctx))]
                if math.isfinite(g):
                    calls.append(("theorem_optimum " + where,
                                  partial(theorem_optimum, rep, beta, dn, g)))
        for beta in (0.25, 0.5, 0.75, 0.9):
            calls += [(f"{i} log_constant {beta}", partial(
                          corollary_constant, builtin_neg_log(), beta, dn)),
                      (f"{i} corollary_log {beta}",
                       partial(corollary_log_bound, beta, ctx))]
            for alpha in alphas:
                calls += [(f"{i} power_constant {alpha} {beta}", partial(
                               corollary_constant, builtin_neg_power(alpha),
                               beta, dn)),
                          (f"{i} corollary_power {alpha} {beta}",
                           partial(corollary_power_bound, alpha, beta, ctx))]
        calls += [(f"{i} renyi {alpha}", partial(renyi_bound, alpha, ctx))
                  for alpha in alphas]
        calls.append((f"{i} recovery_chain", partial(recovery_chain, ctx)))
    return calls


def snapshot(value) -> str:
    """A report's to_json() and grid, each of a list of reports', or a
    tuple's floats, as text that tells every float apart bit for bit (nan,
    -0.0 and inf included)."""
    if isinstance(value, BoundReport):
        return json.dumps([value.to_json(), value.grid], sort_keys=True)
    if isinstance(value, list):
        return "\n".join(map(snapshot, value))
    return repr(value)


def test_cached_constants_give_the_same_reports_cold_and_warm():
    """Every public bound builder gives the same to_json() and grid with the
    grid caches cleared before each call as warm from the other contexts'
    calls, in forward and reverse order. A term of ||Delta||, a gap or a
    discrepancy kept in a cache would leak into the next context's call."""
    contexts = cache_population()
    assert any(not ctx.sigma.is_invertible for ctx in contexts)
    assert any(math.isinf(ctx.gap(builtin_neg_log())) for ctx in contexts)
    assert max(ctx.delta_norm for ctx in contexts) > 1e6
    calls = cached_calls(contexts)
    caches = grid_caches().values()

    def clear():
        for cached in caches:
            cached.cache_clear()

    cold = {}
    for label, call in calls:
        clear()
        cold[label] = snapshot(call())
    for order in (calls, calls[::-1]):
        clear()
        # read after the pass, so that a later call that wrote into a
        # cached dict a report holds shows too
        warm = [(label, call()) for label, call in order]
        assert {label: snapshot(value) for label, value in warm} == cold
    # the builders' and the battery's caches; context's fill in trials only
    assert all(cached.cache_info().hits > 0 for cached in caches
               if cached.__module__ == "petzgap.bounds")


def builders_one_by_one(ctx, reps, beta_grid, alpha_grid) -> list:
    """A verify trial's reports from the public builders, each called on its
    own in the battery's order: per function its dpi report and its theorem
    at each beta; per beta corollary-log, beta-free and corollary-power at
    each alpha of alpha_grid, then at the alpha of each neg-power function
    the grid lacks; the Renyi bounds; the recovery chain."""
    alphas = dict.fromkeys(list(alpha_grid) + [
        rep.alpha for rep in reps if rep.alpha is not None])
    reports = []
    for rep in reps:
        reports.append(dpi_report(rep, ctx))
        reports += [theorem_report(rep, beta, ctx) for beta in beta_grid]
    for beta in beta_grid:
        reports.append(corollary_log_bound(beta, ctx))
        reports.append(beta_free_discrepancy(beta, ctx))
        reports += [corollary_power_bound(alpha, beta, ctx)
                    for alpha in alphas]
    reports += [renyi_bound(alpha, ctx) for alpha in alpha_grid]
    reports.append(recovery_chain(ctx))
    return reports


# the default grids; beta = 0.99, where K underflows and only its log is
# kept; Renyi orders whose 1 - alpha is off the alpha grid, with a power
# function the alpha grid lacks
TWIN_CONFIGS = [
    {"trials": 28, "dims": [2, 3, 4, 6, 8]},
    {"trials": 28, "dims": [2, 3, 4, 6, 8], "beta_grid": [0.99]},
    {"trials": 28, "dims": [5, 9, 12], "seed": 3, "alpha_grid": [0.1, 0.3],
     "functions": ["neg-log", "neg-power:0.7"]},
]


@pytest.mark.parametrize("config", TWIN_CONFIGS)
def test_battery_matches_the_public_builders_to_the_bit(config):
    """bounds.battery writes every report of a verify trial as the public
    builders do when each is called on its own, to the bit (to_json() and
    grid), on every spec kind, singular rho and singular sigma, infinite
    gaps, and reads the same trial quantities. Each report family is built
    by one helper that both paths call, so a family changed in the pass
    alone shows here."""
    config = ExperimentConfig.from_json(dict(config))
    reps = [rep_from_name(n) for n in config.functions]
    seen = set()
    for i in range(config.trials):
        rho, sigma, dim, *_ = draw_pair(config, i)
        kind = config.specs[i % len(config.specs)]
        pass_ctx, one_ctx = (PairContext(rho, sigma, spec_for(kind, dim))
                             for _ in range(2))
        got = battery(pass_ctx, reps, config.beta_grid, config.alpha_grid)
        want = builders_one_by_one(one_ctx, reps, config.beta_grid,
                                   config.alpha_grid)
        assert [snapshot(r) for r in got] == [snapshot(r) for r in want], i
        assert json.dumps(json_safe(pass_ctx.quantities()), sort_keys=True) \
            == json.dumps(json_safe(one_ctx.quantities()), sort_keys=True)
        seen.add(kind)
        seen.update(label for label, holds in (
            ("singular rho", not rho.is_invertible),
            ("singular sigma", not sigma.is_invertible),
            ("infinite gap",
             any(math.isinf(one_ctx.gap(rep)) for rep in reps))) if holds)
    assert seen == set(SPEC_KINDS) | {"singular rho", "singular sigma",
                                      "infinite gap"}


def test_sweep_rows_are_the_battery_right_sides():
    """Each sweep row's right sides (corollary-log, corollary-power at 1/2,
    Renyi at 1/2, all at beta = 1/2) are, to the bit, those of the battery's
    reports on the rung's pair, and the sweep CSV is the golden file's
    bytes."""
    config = ExperimentConfig.from_json({"dims": [4, 6, 8]})
    code, text = run_sweep(config)
    assert code == 0
    assert text == (Path(__file__).parent / "data"
                    / "sweep_golden.csv").read_text()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == len(config.epsilon_ladder)
    n1, n2 = default_factors(4)
    for eps, row in zip(config.epsilon_ladder, rows):
        rho, sigma = sample(SamplerConfig(
            dim=4, seed=config.seed, kind="perturbed-recoverable",
            factors=(n1, n2), epsilon=eps))
        reports = {r.name: r for r in battery(
            PairContext(rho, sigma, factor_spec(n1, n2)),
            [builtin_neg_log()], [0.5], [0.5])}
        assert row[5:] == [f"{v:.17g}" for v in (
            reports["corollary-log"].rhs_values["gap_lower_bound"],
            reports["corollary-power:0.5"].rhs_values["gap_lower_bound"],
            reports["renyi:0.5"].rhs_values["renyi_disc"])], eps
