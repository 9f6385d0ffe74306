import numpy as np
import pytest

from petzgap.algebra import (conditional_expectation, factor_spec, full_spec,
                             pinching_spec, trivial_spec)
from petzgap.context import PairContext
from petzgap.errors import InvalidInput
from petzgap.harness import spec_for
from petzgap.recovery import apply, build_petz, recovery_errors

from conftest import diagonal_state, exact_product_pair, ginibre
from oracles import (dense_recovery_discrepancy, dense_recovery_error,
                     stacked_recovery_errors, trace_loss, validate_petz)


def test_recovers_own_expectation():
    # R_rho(E(rho)) = rho is the defining fixed point
    for spec in (pinching_spec(4, [2, 2]), factor_spec(2, 2), trivial_spec(4),
                 full_spec(4)):
        rho = ginibre(4, 4, 40)
        ch = build_petz(rho, spec)
        got = apply(ch, ch.rho_n)
        assert np.abs(got - rho.matrix).max() <= 1e-10


def test_exact_product_pair_recovers_sigma():
    rho, sigma = exact_product_pair(2, 3, 41)
    e_rho, e_sigma = recovery_errors(rho, sigma, factor_spec(2, 3))
    assert e_rho <= 1e-10
    assert e_sigma <= 1e-10


def test_trivial_algebra_dim2_closed_form():
    p, q = 0.7, 0.3
    rho = diagonal_state([p, 1 - p])
    sigma = diagonal_state([q, 1 - q])
    # E maps everything to I/2, and R_rho(I/2) = rho, so both errors are
    # the trace distance ||rho - sigma||_1 = 2|p - q|
    e_rho, e_sigma = recovery_errors(rho, sigma, trivial_spec(2))
    assert e_rho == pytest.approx(2 * abs(p - q), abs=1e-12)
    assert e_sigma == pytest.approx(2 * abs(p - q), abs=1e-12)


# E = id: the full algebra, and the partial trace at a prime dimension
IDENTITY_SPECS = [full_spec(2), full_spec(5), full_spec(8),
                  spec_for("partial-trace", 3)]


@pytest.mark.parametrize("spec", IDENTITY_SPECS)
def test_identity_errors_of_invertible_states_are_exact_zeros(spec):
    # R_x(y) = P_x y P_x = y when x is invertible
    for seed in range(3):
        ctx = PairContext(ginibre(spec.dim, spec.dim, 60 + seed),
                          ginibre(spec.dim, spec.dim, 70 + seed), spec)
        assert ctx.e_is_identity
        assert ctx.recovery_errors == (0.0, 0.0)
        assert ctx.recovery_discrepancy == 0.0


@pytest.mark.parametrize("spec", IDENTITY_SPECS)
def test_identity_error_of_a_singular_reference_is_its_sandwich(spec):
    d = spec.dim
    for rank_rho, rank_sigma in ((1, d), (d, 1), (1, 1)):
        ctx = PairContext(ginibre(d, rank_rho, 80), ginibre(d, rank_sigma, 81),
                          spec)
        got = dict(zip(("rho", "sigma"), ctx.recovery_errors))
        for role, rank in (("rho", rank_rho), ("sigma", rank_sigma)):
            if rank == d:
                assert got[role] == 0.0
            else:
                assert got[role] == pytest.approx(
                    dense_recovery_error(ctx, role), abs=1e-12)
                assert got[role] > 1e-3  # the other state leaks out of supp
        want, _ = dense_recovery_discrepancy(ctx)
        assert ctx.recovery_discrepancy == (0.0 if rank_rho == d else
                                            pytest.approx(np.linalg.norm(
                                                want), abs=1e-12))


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_trivial_algebra_errors_are_one_trace_distance(dim):
    # E(rho) = E(sigma) = 1/d, so R_rho(E(sigma)) = rho and R_sigma(E(rho))
    # = sigma: both errors are || rho - sigma ||_1, for any ranks
    for rank_rho, rank_sigma in ((dim, dim), (1, dim), (dim, 1), (1, 1)):
        ctx = PairContext(ginibre(dim, rank_rho, 90 + dim),
                          ginibre(dim, rank_sigma, 95 + dim), trivial_spec(dim))
        e_rho, e_sigma = ctx.recovery_errors
        assert e_rho == e_sigma
        for role in ("rho", "sigma"):
            assert e_rho == pytest.approx(dense_recovery_error(ctx, role),
                                          abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_trivial_algebra_errors_match_mpmath_trace_distance(dim):
    mpmath = pytest.importorskip("mpmath")
    for rank_rho, rank_sigma in ((dim, dim), (1, dim), (2, 1)):
        rho = ginibre(dim, rank_rho, 100 + dim)
        sigma = ginibre(dim, rank_sigma, 110 + dim)
        with mpmath.workdps(50):
            # the entries of the float matrices, exactly, then at 50 digits
            diff = mpmath.matrix(rho.matrix.tolist()) \
                - mpmath.matrix(sigma.matrix.tolist())
            want = float(sum(abs(w) for w in mpmath.eighe(
                (diff + diff.H) / 2, eigvals_only=True)))
        got = recovery_errors(rho, sigma, trivial_spec(dim))
        assert got[0] == got[1] == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("kind,dim", [("pinching", 4), ("pinching", 5),
                                      ("partial-trace", 4),
                                      ("partial-trace", 6)])
def test_dense_recovery_errors_keep_the_bits_of_the_stacked_form(kind, dim):
    # the dense path gives the bits of the list of both sandwiches
    for ranks in ((dim, dim), (1, dim), (dim, 2)):
        ctx = PairContext(ginibre(dim, ranks[0], 120), ginibre(
            dim, ranks[1], 121), spec_for(kind, dim))
        assert list(ctx.recovery_errors) == stacked_recovery_errors(ctx)


def test_apply_rejects_outside_algebra():
    ch = build_petz(ginibre(2, 2, 42), pinching_spec(2, [1, 1]))
    off_diagonal = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidInput):
        apply(ch, off_diagonal)


def test_apply_rejects_wrong_dimension():
    ch = build_petz(ginibre(2, 2, 43), trivial_spec(2))
    with pytest.raises(InvalidInput):
        apply(ch, np.eye(3))


def test_apply_zero_maps_to_zero():
    ch = build_petz(ginibre(3, 3, 44), trivial_spec(3))
    assert np.abs(apply(ch, np.zeros((3, 3)))).max() == 0.0


def test_apply_is_linear_and_positive():
    spec = pinching_spec(4, [2, 2])
    ch = build_petz(ginibre(4, 4, 45), spec)
    rng = np.random.default_rng(46)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    y = conditional_expectation(spec, g @ g.conj().T)
    out = apply(ch, y)
    assert np.linalg.eigvalsh(out).min() >= -1e-12
    assert np.abs(apply(ch, 2.0 * y) - 2.0 * out).max() <= 1e-10


def test_build_rejects_dim_mismatch():
    with pytest.raises(InvalidInput):
        build_petz(ginibre(3, 3, 47), trivial_spec(2))


def test_validate_petz_full_rank():
    for spec in (pinching_spec(4, [2, 2]), factor_spec(2, 2), trivial_spec(4)):
        validate_petz(build_petz(ginibre(4, 4, 48), spec))


def test_validate_petz_rank_deficient_reference():
    # rank-2 state in dim 4: trace preservation only holds on supp(E(rho)),
    # validate_petz must still accept the channel
    validate_petz(build_petz(ginibre(4, 2, 49), pinching_spec(4, [2, 2])))


def test_trace_preserving_on_supported_states():
    spec = factor_spec(2, 2)
    ch = build_petz(ginibre(4, 4, 50), spec)
    state_n = conditional_expectation(spec, ginibre(4, 4, 51).matrix)
    out = apply(ch, state_n)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


def test_trace_loss_flags_support_leak():
    spec = pinching_spec(2, [1, 1])
    ch = build_petz(diagonal_state([1.0, 0.0]), spec)
    assert trace_loss(ch, np.diag([0.0, 1.0]))
    assert not trace_loss(ch, np.diag([1.0, 0.0]))
    leaked = apply(ch, np.diag([0.5, 0.5]))
    assert np.trace(leaked).real == pytest.approx(0.5, abs=1e-12)


def test_recovery_errors_bounded_by_two():
    for seed in range(4):
        rho = ginibre(4, 4, 52 + seed)
        sigma = ginibre(4, 4, 56 + seed)
        e_rho, e_sigma = recovery_errors(rho, sigma, pinching_spec(4, [2, 2]))
        assert 0.0 <= e_rho <= 2.0 + 1e-9
        assert 0.0 <= e_sigma <= 2.0 + 1e-9
