import numpy as np
import pytest

from petzgap.errors import DomainError, InvalidInput
from petzgap.linalg import psd_power
from petzgap.modular import build, operator_norm
from petzgap.monotone import builtin_neg_log
from petzgap.states import make_density

from conftest import diagonal_state, ginibre
from oracles import apply, apply_function, hs_inner, superoperator_matrix


def test_build_identical_states():
    rho = make_density(np.eye(2) / 2)
    op = build(rho, rho)
    np.testing.assert_allclose(op.eigenvalues, np.ones(4))
    assert np.sum(op.weights) == pytest.approx(1.0)


def test_build_commuting_pair_eigenvalues():
    sigma = diagonal_state([0.25, 0.75])
    rho = diagonal_state([0.5, 0.5])
    op = build(sigma, rho)
    weighted = sorted(set(round(float(e), 12)
                          for e, w in zip(op.eigenvalues, op.weights)
                          if w > 1e-12))
    assert weighted == [0.5, 1.5]
    for e, w in zip(op.eigenvalues, op.weights):
        if w > 1e-12:
            assert w == pytest.approx(0.5)


def test_build_rank_one_rho_drops_kernel_columns():
    sigma = diagonal_state([0.5, 0.5])
    rho = diagonal_state([1.0, 0.0])
    op = build(sigma, rho)
    assert op.kept_columns.size == 1
    assert np.sum(op.weights) == pytest.approx(1.0)


def test_apply_is_sandwich():
    sigma = ginibre(3, 3, 1)
    rho = ginibre(3, 3, 2)
    op = build(sigma, rho)
    x = np.arange(9.0).reshape(3, 3)
    want = sigma.matrix @ x @ psd_power(rho.matrix, -1.0)
    np.testing.assert_allclose(apply(op, x), want, atol=1e-10)


def test_apply_fixes_sqrt_rho_when_sigma_equals_rho():
    rho = ginibre(3, 3, 3)
    op = build(rho, rho)
    s = psd_power(rho.matrix, 0.5)
    np.testing.assert_allclose(apply(op, s), s, atol=1e-10)


def test_apply_kills_rho_kernel():
    sigma = diagonal_state([0.5, 0.5])
    rho = diagonal_state([1.0, 0.0])
    op = build(sigma, rho)
    x = np.array([[0.0, 1.0], [0.0, 0.0]])  # supported on ker rho from the right
    np.testing.assert_allclose(apply(op, x), np.zeros((2, 2)), atol=1e-12)


def test_operator_norm_examples():
    assert operator_norm(build(diagonal_state([0.25, 0.75]),
                               diagonal_state([0.5, 0.5]))) == pytest.approx(1.5)
    mixed = make_density(np.eye(3) / 3)
    assert operator_norm(build(mixed, mixed)) == pytest.approx(1.0)
    assert operator_norm(build(diagonal_state([0.5, 0.5]),
                               diagonal_state([0.99, 0.01]))) == pytest.approx(50.0)


def test_superoperator_oracle_matches_flat_data():
    for seed in range(4):
        sigma = ginibre(3, 3, 40 + seed)
        rho = ginibre(3, 3, 50 + seed)
        op = build(sigma, rho)
        big = superoperator_matrix(op)
        x = np.random.default_rng(seed).standard_normal((3, 3))
        direct = apply(op, x)
        via_vec = (big @ x.reshape(-1, order="F")).reshape((3, 3), order="F")
        np.testing.assert_allclose(direct, via_vec, atol=1e-10)
        evals = np.linalg.eigvalsh(big)
        assert operator_norm(op) == pytest.approx(float(evals[-1]), rel=1e-10)


def test_modular_operator_is_positive():
    sigma = ginibre(4, 4, 6)
    rho = ginibre(4, 3, 7)
    op = build(sigma, rho)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # restrict to supp rho on the right: the flat data only sees it there
        x = x @ psd_power(rho.matrix, 0.0)
        assert hs_inner(x, apply(op, x)).real >= -1e-10


def test_apply_function_power_on_commuting_pair():
    sigma = diagonal_state([0.25, 0.75])
    rho = diagonal_state([0.5, 0.5])
    op = build(sigma, rho)
    x = np.eye(2)
    out, infinite = apply_function(op, lambda e: e ** 0.5, x)
    assert not infinite
    np.testing.assert_allclose(out, np.diag([0.5 ** 0.5, 1.5 ** 0.5]),
                               atol=1e-12)


def test_apply_function_flags_infinity_on_kernel_overlap():
    sigma = diagonal_state([1.0, 0.0])
    rho = make_density(np.eye(2) / 2)
    op = build(sigma, rho)
    rep = builtin_neg_log()
    out, infinite = apply_function(op, rep, psd_power(rho.matrix, 0.5))
    assert infinite


def test_apply_function_requires_limit_for_bare_callables():
    sigma = diagonal_state([1.0, 0.0])
    rho = make_density(np.eye(2) / 2)
    op = build(sigma, rho)
    with pytest.raises(DomainError):
        with np.errstate(divide="ignore"):
            apply_function(op, lambda e: -np.log(e),
                           psd_power(rho.matrix, 0.5))


def test_build_dim_mismatch():
    with pytest.raises(InvalidInput):
        build(make_density(np.eye(2) / 2), make_density(np.eye(3) / 3))
