import numpy as np
import pytest

from petzgap.errors import DomainError, InvalidInput
from petzgap.linalg import (eigh, pseudo_power, psd_power, schatten_norm,
                            support_projector, trace_norm)

from oracles import hs_inner, loop_power, spectral_apply


def test_eigh_identity():
    dec = eigh(np.eye(2))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
    v = dec.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_eigh_diagonal_descending():
    dec = eigh(np.diag([1.0, 3.0]))
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])


def test_eigh_rank_one_hermitian():
    # characteristic polynomial of [[1, i], [-i, 1]] is l^2 - 2l
    a = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    dec = eigh(a)
    np.testing.assert_allclose(dec.eigenvalues, [2.0, 0.0], atol=1e-12)
    assert dec.rank == 1


def test_eigh_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_apply_pseudo_inverse_sqrt():
    out = spectral_apply(np.diag([4.0, 0.0]), lambda x: x ** -0.5, pseudo=True)
    np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)


def test_spectral_apply_sqrt():
    out = spectral_apply(np.diag([4.0, 1.0]), np.sqrt)
    np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-12)


def test_spectral_apply_neg_log():
    out = spectral_apply(np.diag([0.5, 0.5]), lambda x: -np.log(x))
    np.testing.assert_allclose(out, np.log(2.0) * np.eye(2), atol=1e-12)


def test_spectral_apply_identity_function_roundtrip():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = g + g.conj().T
    out = spectral_apply(a, lambda x: x)
    assert np.linalg.norm(out - a) <= 1e-10 * np.linalg.norm(a)


def test_spectral_apply_domain_error():
    with pytest.raises(DomainError):
        spectral_apply(np.diag([1.0, 0.0]), lambda x: -np.log(x))


def test_psd_power_pseudo_inverse_identities():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = g @ g.conj().T  # rank 2
    a_pinv = psd_power(a, -1.0)
    np.testing.assert_allclose(a @ a_pinv @ a, a, atol=1e-9)
    np.testing.assert_allclose(a_pinv @ a @ a_pinv, a_pinv, atol=1e-9)
    np.testing.assert_allclose(a @ a_pinv, (a @ a_pinv).conj().T, atol=1e-9)


def test_psd_power_zero_is_the_support_projector():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = g @ g.conj().T  # rank 2
    np.testing.assert_allclose(psd_power(a, 0.0), support_projector(a),
                               atol=1e-12)


def test_schatten_norms_of_diagonal():
    a = np.diag([3.0, -4.0])
    assert schatten_norm(a, 1) == pytest.approx(7.0)
    assert schatten_norm(a, 2) == pytest.approx(5.0)
    assert schatten_norm(a, np.inf) == pytest.approx(4.0)
    assert trace_norm(a) == pytest.approx(7.0)


def test_trace_norm_of_hermitian_matrices_matches_schatten_one():
    """Sum |eigvalsh| against the singular values, on indefinite,
    rank-deficient and difference-of-states Hermitian matrices, and a
    roundoff anti-Hermitian part, which the Hermitian part drops."""
    rng = np.random.default_rng(13)
    for dim in (1, 2, 3, 5, 8, 32, 64):
        g = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        h = rng.standard_normal((dim, max(1, dim // 2))) \
            + 1j * rng.standard_normal((dim, max(1, dim // 2)))
        for a in (g + g.conj().T, h @ h.conj().T,
                  h @ h.conj().T / np.trace(h @ h.conj().T).real
                  - (g @ g.conj().T) / np.trace(g @ g.conj().T).real):
            want = schatten_norm(a, 1)
            assert trace_norm(a) == pytest.approx(want, rel=1e-13, abs=1e-15)
            skew = 1e-15 * (g - g.conj().T)
            assert trace_norm(a + skew) == pytest.approx(want, rel=1e-13,
                                                         abs=1e-14)


def test_schatten_norm_rejects_p_below_one():
    with pytest.raises(InvalidInput):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_two_matches_hs_inner():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    n2 = schatten_norm(a, 2)
    assert n2 ** 2 == pytest.approx(hs_inner(a, a).real, rel=1e-10)


def test_hs_inner_values():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    assert hs_inner(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0)
    assert hs_inner(np.diag([1.0j, 0.0]), np.diag([1.0, 0.0])) == pytest.approx(-1.0j)


def test_hs_inner_dim_mismatch():
    with pytest.raises(InvalidInput):
        hs_inner(np.eye(2), np.eye(3))


def test_support_projector_cases():
    np.testing.assert_allclose(support_projector(np.diag([1.0, 0.0])),
                               np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(support_projector(np.eye(2) / 2), np.eye(2),
                               atol=1e-12)
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(support_projector(plus), plus, atol=1e-12)


def test_support_projector_idempotent():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((5, 3))
    p = support_projector(g @ g.T)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)



def test_pseudo_power_matches_the_scalar_loop():
    """The vector power rounds like the scalar one to a few ulp (numpy may
    take sqrt or a reciprocal for p = 0.5 or -1); the pseudo-power
    decisions, which eigenvalues map to 0, are the same exactly."""
    rng = np.random.default_rng(9)
    eps = np.finfo(float).eps
    for rank in (4, 3, 1):
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        dec = eigh(g @ g.conj().T / 7.0)
        dec.eigenvalues[-1] = min(dec.eigenvalues[-1], -1e-15)
        for p in (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0):
            want = loop_power(dec, p)
            vals = pseudo_power(dec, p)
            assert np.count_nonzero(vals) == dec.rank
            scale = max(1.0, float(np.abs(vals).max()))
            assert np.linalg.norm(psd_power(dec, p) - want) \
                <= 16 * eps * scale
