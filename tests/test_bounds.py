import math

import numpy as np
import pytest

from petzgap import entropy, modular
from petzgap.algebra import factor_spec, full_spec, pinching_spec, trivial_spec
from petzgap.bounds import (FLAG_INFINITE_GAP, FLAG_RHO_SINGULAR,
                            FLAG_SIGMA_SINGULAR, FLAG_SUPPORT_MISMATCH,
                            FLAG_TRACE_LOSS, beta_free_discrepancy,
                            corollary_log_bound, corollary_power_bound,
                            discrepancy_norm, generic_corollary_bound,
                            lemma_opt, proof_internals, recovery_chain,
                            recovery_discrepancy, renyi_bound, theorem_bound)
from petzgap.context import PairContext
from petzgap.errors import InvalidInput
from petzgap.monotone import builtin_neg_log, builtin_neg_power
from petzgap.states import make_density

from conftest import diagonal_state, exact_product_pair, ginibre

SPEC4 = pinching_spec(4, [2, 2])


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
        theorem_bound(rep, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidInput):
        theorem_bound(rep, 0.5, 0.0, 1.0, 0.0)


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
        g = entropy.gap(rep, rho, sigma, SPEC4)
        for beta in (0.2, 0.5, 0.8):
            disc = discrepancy_norm(beta, rho, sigma, SPEC4)
            lhs = math.pi / math.sin(beta * math.pi) * disc
            for t in np.logspace(-2, 4, 7):
                assert lhs <= theorem_bound(rep, beta, float(t), op_norm, g) \
                    + 1e-8


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
            rep = corollary_log_bound(beta, PairContext(rho, sigma, SPEC4))
            assert rep.constants["exponent"] == pytest.approx(expo, rel=1e-12)
            assert rep.margins["gap_lower_bound"] >= -1e-8
            if beta == 0.5:
                want = (math.pi / 4.0) ** 4 * (1.0 + rep.delta_norm) ** (-2.0)
                assert rep.constants["K_log3"] == pytest.approx(want, rel=1e-12)
                assert rep.constants["K_L"] == pytest.approx(
                    rep.constants["K_generic"], rel=1e-9)


def test_corollary_log_report_shape():
    rho, sigma = random_pair(23)
    rep = corollary_log_bound(0.5, PairContext(rho, sigma, SPEC4))
    out = rep.to_json()
    assert out["schema"] == "report_v1"
    assert out["name"] == "corollary-log"
    assert out["flags"] == sorted(out["flags"])
    assert rep.gap == pytest.approx(
        entropy.gap(builtin_neg_log(), rho, sigma, SPEC4), abs=1e-12)


def test_corollary_power_exponents_and_margin():
    for seed in range(2):
        rho, sigma = random_pair(30 + seed)
        for alpha in (0.25, 0.5, 0.75):
            rep = corollary_power_bound(
                alpha, 0.5, PairContext(rho, sigma, SPEC4))
            assert rep.constants["exponent"] == pytest.approx(
                4.0 + 2.0 * alpha, rel=1e-12)
            assert rep.margins["gap_lower_bound"] >= -1e-8
        for beta in (0.3, 0.7):
            rep = corollary_power_bound(
                0.5, beta, PairContext(rho, sigma, SPEC4))
            assert rep.margins["gap_lower_bound"] >= -1e-8
            assert "exponent_displayed" in rep.constants


def test_corollary_power_proof_exponent_values():
    rho, sigma = random_pair(33)
    # beta <= 1/2 branch: (1 + a(1-b)) / (b(1-b))
    rep = corollary_power_bound(0.5, 0.3, PairContext(rho, sigma, SPEC4))
    assert rep.constants["exponent"] == pytest.approx(
        (1.0 + 0.5 * 0.7) / (0.3 * 0.7), rel=1e-12)
    # beta >= 1/2 branch: (2b + a(1-b)) / (b(1-b))
    rep = corollary_power_bound(0.5, 0.7, PairContext(rho, sigma, SPEC4))
    assert rep.constants["exponent"] == pytest.approx(
        (1.4 + 0.5 * 0.3) / (0.7 * 0.3), rel=1e-12)


def test_generic_corollary_matches_log_closed_form():
    rho, sigma = random_pair(34)
    gen = generic_corollary_bound(builtin_neg_log(), 0.5,
                                  PairContext(rho, sigma, SPEC4))
    log = corollary_log_bound(0.5, PairContext(rho, sigma, SPEC4))
    assert gen.constants["K_gap"] == pytest.approx(
        log.constants["K_L"], rel=1e-9)
    assert gen.rhs_values["gap_lower_bound"] == pytest.approx(
        log.rhs_values["gap_lower_bound"], rel=1e-9)


def test_renyi_bound_equal_states():
    rho, _ = random_pair(40)
    rep = renyi_bound(0.5, PairContext(rho, rho, SPEC4))
    assert rep.gap == pytest.approx(0.0, abs=1e-10)
    assert rep.constants["exponent"] == pytest.approx(5.0, rel=1e-14)
    # the inverted form multiplies the ~1e-12 numerical gap by 1/K_U ~ 1e4,
    # so equal states sit at roundoff scale rather than exactly at zero
    for key in ("renyi_disc", "renyi_recovery", "renyi_inverted"):
        assert rep.margins[key] >= -1e-8


def test_renyi_bound_margins_invertible_sigma():
    for seed in range(3):
        rho, sigma = random_pair(41 + seed)
        for alpha in (0.25, 0.5, 0.75):
            rep = renyi_bound(alpha, PairContext(rho, sigma, SPEC4))
            assert rep.constants["exponent"] == pytest.approx(
                6.0 - 2.0 * alpha, rel=1e-14)
            for key in ("renyi_disc", "renyi_recovery", "renyi_inverted"):
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
    # recovery and inverted forms are hypothesis-violated, not failed
    rho = ginibre(4, 3, 47)
    sigma = ginibre(4, 4, 48)
    rep = renyi_bound(0.5, PairContext(rho, sigma, full_spec(4)))
    assert FLAG_SUPPORT_MISMATCH in rep.flags
    assert abs(rep.gap) <= 1e-12
    assert rep.constants["e_rho"] > 1e-3
    assert "renyi_disc" in rep.margins
    assert rep.margins["renyi_disc"] >= -1e-8
    assert "renyi_recovery" not in rep.margins
    assert "renyi_inverted" not in rep.margins
    assert "renyi_recovery" in rep.rhs_values


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
    rep = recovery_chain(PairContext(rho, sigma, factor_spec(2, 2)))
    assert rep.constants["e_rho"] <= 1e-10
    assert rep.constants["e_sigma"] <= 1e-10
    assert rep.gap == pytest.approx(0.0, abs=1e-10)


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
    rep = recovery_chain(PairContext(rho, sigma, trivial_spec(2)))
    assert FLAG_INFINITE_GAP in rep.flags
    assert math.isinf(rep.gap)


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
    rep = beta_free_discrepancy(beta, PairContext(rho, sigma, trivial_spec(2)))
    want_lhs = math.sqrt(
        (1.0 - (q / p) ** beta) ** 2
        + (1.0 - ((1 - q) / (1 - p)) ** beta) ** 2)
    assert rep.constants["lhs"] == pytest.approx(want_lhs, abs=1e-12)
    want_rhs = rep.discrepancy / math.sqrt(min(p, 1 - p))
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
                          t_grid=np.logspace(-2, 3, 12))
    assert out.contraction_margin >= -1e-10
    assert out.per_t_gap_margin >= -1e-10
    assert out.decay_margin >= -1e-10
    assert out.identity_residual <= 1e-6
    assert out.gap_residual <= 1e-6
    assert len(out.t_grid) == 12


def test_proof_internals_power_rep_and_high_beta():
    rho, sigma = random_pair(71)
    out = proof_internals(builtin_neg_power(0.75), 0.8,
                          PairContext(rho, sigma, SPEC4))
    assert out.per_t_gap_margin >= -1e-10
    assert out.identity_residual <= 1e-6
    assert out.gap_residual <= 1e-6


def test_proof_internals_exact_pair_near_zero():
    rho, sigma = exact_product_pair(2, 2, 72)
    out = proof_internals(builtin_neg_log(), 0.5,
                          PairContext(rho, sigma, factor_spec(2, 2)))
    assert out.identity_residual <= 1e-9
    assert out.gap_residual <= 1e-8
    # w_t vanishes identically, so the decay margin is the grid infimum of 2/t
    assert out.decay_margin >= 2.0 / max(out.t_grid) - 1e-9
