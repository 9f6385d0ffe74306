import math

import numpy as np
import pytest

from petzgap.algebra import (conditional_expectation, factor_spec, full_spec,
                             pinching_spec, trivial_spec)
from petzgap.context import PairContext
from petzgap.entropy import (entropies, integral_reconstruction,
                             reconstruct_gap, reconstructions, renyi, s_f, s_t)
from petzgap.errors import DomainError, InvalidInput
from petzgap.harness import ExperimentConfig, run_reconstruct
from petzgap.linalg import psd_power
from petzgap.modular import build
from petzgap.monotone import builtin_neg_log, builtin_neg_power, rep_from_name
from petzgap.states import make_density

from conftest import diagonal_state, ginibre
from oracles import (partial_trace_view, power_trace, superoperator_matrix,
                     umegaki_trace)

COMMUTING = (diagonal_state([0.5, 0.5]), diagonal_state([0.25, 0.75]))


def test_s_f_equal_states_gives_f_of_one():
    rho = ginibre(3, 3, 1)
    op = build(rho, rho)
    assert s_f(builtin_neg_log(), op) == pytest.approx(0.0, abs=1e-12)
    assert s_f(builtin_neg_power(0.3), op) == pytest.approx(-1.0)


def test_s_f_commuting_matches_classical_divergence():
    rho, sigma = COMMUTING
    got = s_f(builtin_neg_log(), build(sigma, rho))
    assert got == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)


def test_s_f_infinite_on_kernel_overlap():
    rho = make_density(np.eye(2) / 2)
    sigma = diagonal_state([1.0, 0.0])
    assert s_f(builtin_neg_log(), build(sigma, rho)) == math.inf


def test_s_f_finite_for_power_despite_kernel():
    # f with finite limit at 0 keeps the value finite on kernel overlap
    rho = make_density(np.eye(2) / 2)
    sigma = diagonal_state([1.0, 0.0])
    out = s_f(builtin_neg_power(0.5), build(sigma, rho))
    assert out == pytest.approx(-math.sqrt(0.5), abs=1e-12)


def test_s_f_classical_oracle_random_diagonals():
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        rho, sigma = diagonal_state(p), diagonal_state(q)
        for rep in (builtin_neg_log(), builtin_neg_power(0.25)):
            want = float(np.sum(p * [rep.eval(b / a) for a, b in zip(p, q)]))
            assert s_f(rep, build(sigma, rho)) == pytest.approx(
                want, abs=1e-10)


def test_s_f_superoperator_oracle():
    rep = builtin_neg_power(0.4)
    for dim, seed in [(2, 10), (3, 11), (4, 12)]:
        rho = ginibre(dim, dim, seed)
        sigma = ginibre(dim, dim, seed + 100)
        op = build(sigma, rho)
        big = superoperator_matrix(op)
        evals, vecs = np.linalg.eigh(big)
        evals = np.clip(evals, 0.0, None)
        sq = psd_power(rho.matrix, 0.5).reshape(-1, order="F")
        coeff = vecs.conj().T @ sq
        want = float(np.sum(np.abs(coeff) ** 2 * rep.eval(evals)))
        assert s_f(rep, build(sigma, rho)) == pytest.approx(
            want, abs=1e-8)


def test_s_t_examples():
    rho = ginibre(2, 2, 2)
    assert s_t(1.0, build(rho, rho)) == pytest.approx(0.5, abs=1e-12)
    r, s = COMMUTING
    assert s_t(1.0, build(s, r)) == pytest.approx(8.0 / 15.0, abs=1e-12)


def test_s_t_large_t_scaling_and_monotonicity():
    rho = ginibre(3, 3, 3)
    sigma = ginibre(3, 3, 4)
    ts = [0.1, 1.0, 10.0, 1e4]
    vals = [s_t(t, build(sigma, rho)) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert 1e8 * s_t(1e8, build(sigma, rho)) == pytest.approx(1.0, rel=1e-7)


def test_s_t_rejects_nonpositive_t():
    rho = ginibre(2, 2, 5)
    with pytest.raises(InvalidInput):
        s_t(0.0, build(rho, rho))
    for bad in ([1.0, 0.0], [1.0, -2.0], [1.0, math.nan]):
        with pytest.raises(InvalidInput):
            s_t(np.array(bad), build(rho, rho))


def test_s_t_array_is_the_scalar_elementwise():
    op = build(ginibre(4, 4, 6), ginibre(4, 4, 7))
    ts = np.logspace(-2, 2, 20)
    got = s_t(ts, op)
    assert got.shape == ts.shape
    assert got.tolist() == [s_t(t, op) for t in ts.tolist()]
    assert s_t(ts.reshape(4, 5), op).tolist() == got.reshape(4, 5).tolist()
    assert isinstance(s_t(1.0, op), float)


def test_umegaki_matches_trace_formula():
    for seed in (6, 7, 8):
        rho = ginibre(4, 4, seed)
        sigma = ginibre(4, 4, seed + 50)
        want = umegaki_trace(rho, sigma)
        assert s_f(builtin_neg_log(), build(sigma, rho)) == pytest.approx(
            want, abs=1e-9)


def test_power_quasi_matches_trace_formula():
    rho, sigma = COMMUTING
    want = -(math.sqrt(1 / 8) + math.sqrt(3 / 8))
    assert s_f(builtin_neg_power(0.5), build(sigma, rho)) == pytest.approx(
        want, abs=1e-12)
    r = ginibre(3, 3, 9)
    s = ginibre(3, 3, 19)
    for alpha in (0.25, 0.5, 0.75):
        assert s_f(builtin_neg_power(alpha), build(s, r)) == pytest.approx(
            power_trace(alpha, r, s), abs=1e-10)


def test_power_quasi_range():
    for seed in range(5):
        r = ginibre(4, 3, 30 + seed)
        s = ginibre(4, 4, 60 + seed)
        v = s_f(builtin_neg_power(0.5), build(s, r))
        assert -1.0 - 1e-12 <= v < 0.0


def test_renyi_values():
    rho, sigma = COMMUTING
    want = -2.0 * math.log(math.sqrt(1 / 8) + math.sqrt(3 / 8))
    assert renyi(0.5, build(sigma, rho)) == pytest.approx(
        want, abs=1e-12)
    r = ginibre(3, 3, 13)
    assert renyi(0.5, build(r, r)) == pytest.approx(0.0, abs=1e-12)


def test_renyi_rejects_bad_alpha():
    r = ginibre(2, 2, 14)
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(InvalidInput):
            renyi(alpha, build(r, r))


def test_dpi_small_batch():
    reps = [builtin_neg_log(), builtin_neg_power(0.5)]
    specs = [pinching_spec(4, [2, 2]), factor_spec(2, 2), trivial_spec(4),
             full_spec(4)]
    for seed in range(5):
        rho = ginibre(4, 4, 700 + seed)
        sigma = ginibre(4, 4, 800 + seed)
        for rep in reps:
            for spec in specs:
                assert PairContext(rho, sigma, spec).gap(rep) >= -1e-9


def test_gap_zero_for_full_algebra():
    rho = ginibre(3, 3, 15)
    sigma = ginibre(3, 3, 16)
    ctx = PairContext(rho, sigma, full_spec(3))
    assert ctx.gap(builtin_neg_log()) == pytest.approx(0.0, abs=1e-10)


def test_gap_infinite_when_only_outer_diverges():
    rho = make_density(np.eye(2) / 2)
    sigma = diagonal_state([1.0, 0.0])
    # the trivial algebra maps sigma to I/2: inner entropy finite
    ctx = PairContext(rho, sigma, trivial_spec(2))
    assert ctx.gap(builtin_neg_log()) == math.inf


def test_embedding_consistency_partial_trace():
    rho = ginibre(6, 6, 17)
    sigma = ginibre(6, 6, 18)
    spec = factor_spec(3, 2)
    rep = builtin_neg_log()
    r_n = make_density(conditional_expectation(spec, rho.matrix))
    s_n = make_density(conditional_expectation(spec, sigma.matrix))
    embedded = s_f(rep, build(s_n, r_n))
    r_small = make_density(partial_trace_view(spec, rho.matrix))
    s_small = make_density(partial_trace_view(spec, sigma.matrix))
    compressed = s_f(rep, build(s_small, r_small))
    assert embedded == pytest.approx(compressed, abs=1e-9)


def test_renyi_gap_nonnegative():
    for seed in range(3):
        rho = ginibre(4, 4, 900 + seed)
        sigma = ginibre(4, 4, 950 + seed)
        ctx = PairContext(rho, sigma, factor_spec(2, 2))
        assert ctx.renyi_gap(0.5) >= -1e-9


def test_reconstruction_commuting_neg_log():
    rho, sigma = COMMUTING
    got = integral_reconstruction(builtin_neg_log(), build(sigma, rho))
    assert got == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-6)


def test_reconstruction_equal_states_power():
    rho = ginibre(2, 2, 20)
    got = integral_reconstruction(builtin_neg_power(0.5), build(rho, rho))
    assert got == pytest.approx(-1.0, abs=1e-6)


def test_reconstruction_random_invertible_pair():
    rho = ginibre(3, 3, 21)
    sigma = ginibre(3, 3, 22)
    rep = builtin_neg_power(0.3)
    op = build(sigma, rho)
    assert integral_reconstruction(rep, op) == pytest.approx(
        s_f(rep, op), abs=1e-6)


def test_reconstruction_rejects_support_leak():
    rho = make_density(np.eye(2) / 2)
    sigma = diagonal_state([1.0, 0.0])
    with pytest.raises(DomainError):
        integral_reconstruction(builtin_neg_log(), build(sigma, rho))


def test_reconstructions_share_one_integral_bit_for_bit():
    """One integral rebuilds every function's entropy and gap; each column
    is the same bits as the function's own one-function views."""
    ctx = PairContext(ginibre(4, 4, 26), ginibre(4, 4, 27),
                      pinching_spec(4, [2, 2]))
    reps = [rep_from_name(n)
            for n in ("neg-log", "neg-power:0.5", "neg-power:0.75")]
    both = reconstructions(reps, ctx.op, ctx.op_n)
    assert both.shape == (2, 3)
    for j, rep in enumerate(reps):
        assert both[0, j] == integral_reconstruction(rep, ctx.op)
        assert both[1, j] == reconstruct_gap(rep, ctx.op, ctx.op_n)
        assert both[:, j].tolist() == reconstructions(
            [rep], ctx.op, ctx.op_n)[:, 0].tolist()
    assert ctx.reconstructions(reps[::-1]) \
        == [tuple(column) for column in both.T.tolist()][::-1]


def test_entropies_take_one_pass_bit_for_bit():
    """Each entropy of the one-pass stack is the same bits as a sum over
    the positive spectrum for that function alone, whichever functions
    share the call and in whatever order; singular rho and sigma
    included."""
    def one_sum(rep, op):
        pos = op.eigenvalues > 0.0
        finite_part = float(np.sum(op.weights[pos] * rep.eval(
            op.eigenvalues[pos])))
        zero_weight = float(np.sum(op.weights[~pos]))
        if math.isinf(rep.f_at_zero):
            return math.inf if zero_weight > op.rho_dec.zero_threshold \
                else finite_part
        return finite_part + rep.f_at_zero * zero_weight

    reps = [rep_from_name(n) for n in
            ("neg-log", "neg-power:0.25", "neg-power:0.5", "neg-power:0.75")]
    for rank_rho, rank_sigma in ((4, 4), (3, 4), (4, 3)):
        op = build(ginibre(4, rank_sigma, 28), ginibre(4, rank_rho, 29))
        want = [one_sum(rep, op) for rep in reps]
        assert entropies(reps, op) == want
        assert entropies(reps[::-1], op) == want[::-1]
        assert [s_f(rep, op) for rep in reps] == want
    assert math.isinf(want[0])
    assert entropies([], op) == []


def test_reconstruct_gap_matches_direct_gap():
    rho = ginibre(4, 4, 24)
    sigma = ginibre(4, 4, 25)
    ctx = PairContext(rho, sigma, pinching_spec(4, [2, 2]))
    for rep_name in ("neg-log", "neg-power:0.5", "neg-power:0.75"):
        rep = rep_from_name(rep_name)
        assert ctx.reconstruct_gap(rep) == pytest.approx(ctx.gap(rep),
                                                         abs=1e-6)


def test_near_one_power_reconstruction_is_anchored_at_f_of_one():
    # The representation anchored at f(1) has no state-independent term,
    # whose t^(alpha - 2) tail cost neg-power:0.95 an error of 7.3e-6.
    config = ExperimentConfig.from_json(
        {"trials": 12, "functions": ["neg-power:0.95"]})
    code, report = run_reconstruct(config)
    assert code == 0
    errors = [c["entropy_error"] for c in report["cases"]
              if "entropy_error" in c]
    assert len(errors) == config.trials
    assert max(errors) <= 1e-10, max(errors)
