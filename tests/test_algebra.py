import math

import numpy as np
import pytest

from petzgap.algebra import (SubalgebraSpec, block_cores,
                             conditional_expectation, expectation_eigh,
                             factor_spec, full_spec, pinching_spec,
                             trivial_spec)
from petzgap.context import PairContext
from petzgap.errors import InvalidInput, SpecInconsistent
from petzgap.harness import SPEC_KINDS, spec_for
from petzgap.linalg import eigh
from petzgap.monotone import builtin_neg_log
from petzgap.states import make_density

from conftest import ginibre, near_singular
from oracles import hs_inner, partial_trace_view, validate_expectation


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_full_algebra_expectation_is_identity():
    x = random_matrix(3, 0)
    np.testing.assert_allclose(conditional_expectation(full_spec(3), x), x,
                               atol=1e-12)


def test_diagonal_pinching():
    x = random_matrix(4, 1)
    spec = pinching_spec(4, [1, 1, 1, 1])
    np.testing.assert_allclose(conditional_expectation(spec, x),
                               np.diag(np.diag(x)), atol=1e-12)


def test_block_pinching_keeps_blocks():
    x = random_matrix(4, 2)
    spec = pinching_spec(4, [2, 2])
    out = conditional_expectation(spec, x)
    np.testing.assert_allclose(out[:2, :2], x[:2, :2], atol=1e-12)
    np.testing.assert_allclose(out[2:, 2:], x[2:, 2:], atol=1e-12)
    assert np.abs(out[:2, 2:]).max() <= 1e-14


def test_trivial_algebra_gives_normalized_trace():
    x = random_matrix(3, 3)
    out = conditional_expectation(trivial_spec(3), x)
    np.testing.assert_allclose(out, np.trace(x) / 3 * np.eye(3), atol=1e-12)


def test_factor_expectation_on_product():
    # algebra 1 (x) M_2 inside M_4: E(rho1 (x) rho2) = (1/2) 1 (x) rho2
    rho1 = ginibre(2, 2, 4).matrix
    rho2 = ginibre(2, 2, 5).matrix
    spec = factor_spec(2, 2)
    out = conditional_expectation(spec, np.kron(rho1, rho2))
    np.testing.assert_allclose(out, np.kron(np.eye(2) / 2, rho2), atol=1e-12)


def test_factor_spec_on_prime_left_factor_is_full():
    spec = factor_spec(1, 3)
    x = random_matrix(3, 6)
    np.testing.assert_allclose(conditional_expectation(spec, x), x, atol=1e-12)


def test_expectation_dim_mismatch():
    with pytest.raises(InvalidInput):
        conditional_expectation(full_spec(3), np.eye(4))


def random_unitary(dim, seed):
    q, r = np.linalg.qr(random_matrix(dim, seed))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("spec_builder", [
    lambda: trivial_spec(4),
    lambda: full_spec(5),
    lambda: pinching_spec(5, [3, 1, 1]),
    lambda: factor_spec(2, 3),
    lambda: factor_spec(3, 2),
    lambda: SubalgebraSpec(dim=8, blocks=[(2, 2), (1, 2), (2, 1)],
                           basis=random_unitary(8, 20)),
])
def test_batched_expectation_matches_single_calls_bitwise(spec_builder):
    spec = spec_builder()
    d = spec.dim
    rng = np.random.default_rng(21)
    xs = rng.standard_normal((2, 3, d, d)) \
        + 1j * rng.standard_normal((2, 3, d, d))
    batch = conditional_expectation(spec, xs)
    assert batch.shape == xs.shape
    for idx in np.ndindex(2, 3):
        single = conditional_expectation(spec, xs[idx])
        assert batch[idx].tobytes() == single.tobytes()


@pytest.mark.parametrize("shape", [(2, 4, 4), (2, 3, 4), (3,), ()])
def test_batched_expectation_shape_mismatch(shape):
    with pytest.raises(InvalidInput):
        conditional_expectation(full_spec(3), np.zeros(shape))


def test_partial_trace_of_kron():
    # single block (n, m): the view traces out the multiplicity factor
    a = random_matrix(2, 7)
    b = random_matrix(3, 8)
    spec = SubalgebraSpec(dim=6, blocks=[(2, 3)], basis=None)
    np.testing.assert_allclose(partial_trace_view(spec, np.kron(a, b)),
                               np.trace(b) * a, atol=1e-12)


def test_partial_trace_of_identity():
    spec = SubalgebraSpec(dim=4, blocks=[(2, 2)], basis=None)
    np.testing.assert_allclose(partial_trace_view(spec, np.eye(4) / 4),
                               np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_index_sum():
    x = random_matrix(4, 9)
    spec = SubalgebraSpec(dim=4, blocks=[(2, 2)], basis=None)
    view = partial_trace_view(spec, x)
    manual = x.reshape(2, 2, 2, 2)
    manual = manual[:, 0, :, 0] + manual[:, 1, :, 1]
    np.testing.assert_allclose(view, manual, atol=1e-12)


def test_partial_trace_requires_single_block():
    with pytest.raises(InvalidInput):
        partial_trace_view(pinching_spec(4, [2, 2]), np.eye(4))


def test_partial_trace_consistent_with_expectation():
    x = random_matrix(6, 10)
    spec = factor_spec(3, 2)
    view = partial_trace_view(spec, x)
    rebuilt = spec.basis @ np.kron(view / 3, np.eye(3)) @ spec.basis.conj().T
    np.testing.assert_allclose(conditional_expectation(spec, x), rebuilt,
                               atol=1e-12)


@pytest.mark.parametrize("spec_builder", [
    lambda: trivial_spec(4),
    lambda: full_spec(4),
    lambda: pinching_spec(4, [2, 2]),
    lambda: pinching_spec(5, [3, 1, 1]),
    lambda: factor_spec(2, 2),
    lambda: factor_spec(2, 3),
])
def test_validate_expectation_passes(spec_builder):
    validate_expectation(spec_builder())


def test_spec_rejects_bad_block_fill():
    with pytest.raises(SpecInconsistent):
        SubalgebraSpec(dim=4, blocks=[(2, 1)], basis=None)


def test_spec_rejects_non_unitary_basis():
    with pytest.raises(SpecInconsistent):
        SubalgebraSpec(dim=2, blocks=[(2, 1)], basis=np.array([[1.0, 1.0],
                                                               [0.0, 1.0]]))


def test_expectation_is_hs_contraction_and_projection():
    spec = factor_spec(2, 3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ex = conditional_expectation(spec, x)
        assert np.linalg.norm(ex) <= np.linalg.norm(x) + 1e-12
        np.testing.assert_allclose(conditional_expectation(spec, ex), ex,
                                   atol=1e-10)


def test_expectation_self_adjoint_trace_preserving():
    spec = pinching_spec(4, [3, 1])
    x = random_matrix(4, 12)
    y = random_matrix(4, 13)
    lhs = hs_inner(conditional_expectation(spec, x), y)
    rhs = hs_inner(x, conditional_expectation(spec, y))
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert np.trace(conditional_expectation(spec, x)) == pytest.approx(
        np.trace(x), abs=1e-10)


def test_expectation_spectrum_containment():
    rho = ginibre(6, 6, 14)
    out = make_density(conditional_expectation(factor_spec(3, 2), rho.matrix))
    lo, hi = rho.eigenvalues.min(), rho.eigenvalues.max()
    assert out.eigenvalues.min() >= lo - 1e-12
    assert out.eigenvalues.max() <= hi + 1e-12



def _expectation_states(dim):
    """Full-rank, rank-deficient, diagonal with zeros and near-singular
    states of one dimension."""
    rng = np.random.default_rng(1300 + dim)
    yield "seeded", ginibre(dim, dim, 1400 + dim)
    yield "rank-deficient", ginibre(dim, max(1, dim - 2), 1500 + dim)
    w = np.zeros(dim)
    w[: (dim + 1) // 2] = rng.dirichlet(np.ones((dim + 1) // 2))
    yield "diagonal", make_density(np.diag(w))
    for eps in (1e-11, 1e-13):
        yield f"near-singular:{eps:g}", near_singular(rng, dim, 1, eps)


@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_expectation_eigh_matches_dense_eigh(kind):
    """E(x) diagonalized through the block cores agrees with eigh of the
    dense conditional expectation: the spectrum, orthonormal eigenvectors,
    and the matrix they rebuild, both bare and as the context's state."""
    checked = 0
    for dim in (2, 3, 4, 5, 6, 7, 8, 9, 32):
        spec = spec_for(kind, dim)
        for label, x in _expectation_states(dim):
            dense = conditional_expectation(spec, x.matrix)
            dec = expectation_eigh(spec, x.matrix)
            assert dec.dim == dim
            assert np.all(np.diff(dec.eigenvalues) <= 0.0), (label, dim)
            np.testing.assert_allclose(dec.eigenvalues,
                                       eigh(dense).eigenvalues, rtol=0,
                                       atol=1e-14, err_msg=f"{label} {dim}")
            v = dec.eigenvectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), rtol=0,
                                       atol=1e-14, err_msg=f"{label} {dim}")
            np.testing.assert_allclose((v * dec.eigenvalues) @ v.conj().T,
                                       dense, rtol=0, atol=1e-14,
                                       err_msg=f"{label} {dim}")
            state = PairContext(x, x, spec).rho_n
            np.testing.assert_allclose(state.matrix, dense, rtol=0,
                                       atol=1e-14, err_msg=f"{label} {dim}")
            checked += 1
    assert checked == 9 * 5


def test_expectation_eigh_of_the_trivial_algebra_is_flat():
    """Every core of the trivial algebra is 1 x 1: E(x) = I/d with the
    basis vectors as eigenvectors, and no LAPACK call; expectation_eigh
    gives it to 1 ulp. A context takes E(x) = 1/d as an exact identity:
    E(rho) and E(sigma) are I/d to the bit, with eigenvalues 1/d and
    eigenvectors I, every eigenvalue of op_n is exactly 1, and so the
    neg-log entropy of op_n is exactly 0.0, at every rank of rho and
    sigma."""
    for dim in (2, 3, 5, 8, 64):
        x = ginibre(dim, dim, 1600 + dim)
        dec = expectation_eigh(trivial_spec(dim), x.matrix)
        np.testing.assert_allclose(dec.eigenvalues, np.full(dim, 1.0 / dim),
                                   rtol=1e-15, atol=0)
        assert np.array_equal(dec.eigenvectors, np.eye(dim))
        for seed, (rank_rho, rank_sigma) in enumerate(
                [(dim, dim), (dim - 1, dim), (1, dim), (dim, 1), (1, 1)]):
            rho = ginibre(dim, rank_rho, 1700 + 10 * dim + seed)
            sigma = ginibre(dim, rank_sigma, 1800 + 10 * dim + seed)
            ctx = PairContext(rho, sigma, trivial_spec(dim))
            for state in (ctx.rho_n, ctx.sigma_n):
                assert same_bits(state.matrix,
                                 np.eye(dim, dtype=complex) / dim)
                assert same_bits(state.eigenvalues, np.full(dim, 1.0 / dim))
                assert same_bits(state.spectrum.eigenvectors,
                                 np.eye(dim, dtype=complex))
            assert same_bits(ctx.op_n.eigenvalues, np.ones(dim * dim))
            inner = ctx.s_f(builtin_neg_log(), "op_n")
            assert inner == 0.0 and math.copysign(1.0, inner) == 1.0
            assert ctx.gap(builtin_neg_log()) == ctx.s_f(builtin_neg_log(),
                                                         "op")


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def test_block_cores_assemble_the_expectation():
    x = random_matrix(6, 7)
    spec = SubalgebraSpec(dim=6, blocks=[(2, 2), (1, 2)],
                          basis=np.linalg.qr(random_matrix(6, 8))[0])
    cores = block_cores(spec, x)
    assert [c.shape for c in cores] == [(2, 2), (1, 1)]
    y = spec.basis.conj().T @ conditional_expectation(spec, x) @ spec.basis
    np.testing.assert_allclose(y[:4, :4], np.kron(cores[0], np.eye(2)),
                               atol=1e-14)
    np.testing.assert_allclose(y[4:, 4:], cores[1][0, 0] * np.eye(2),
                               atol=1e-14)
