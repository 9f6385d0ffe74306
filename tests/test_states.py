import numpy as np
import pytest

from petzgap.errors import InvalidInput, NotNormalized, NotPSD
from petzgap.linalg import psd_power
from petzgap.states import (SamplerConfig, default_factors, make_density,
                            sample, stream, swap_factors_unitary)


def test_make_density_maximally_mixed():
    d = make_density(np.eye(2) / 2)
    assert d.dim == 2
    assert d.rank == 2
    assert d.is_invertible


def test_make_density_pure_state():
    d = make_density(np.diag([1.0, 0.0]))
    assert d.rank == 1
    assert not d.is_invertible


def test_invertible_exactly_when_the_pseudo_inverse_inverts_every_eigenvalue():
    d = make_density(np.diag([1.0 - 5e-11, 5e-11]))
    assert d.rank == 2
    assert d.is_invertible
    np.testing.assert_allclose(psd_power(d.spectrum, -1.0) @ d.matrix,
                               np.eye(2), atol=1e-12)
    assert not make_density(np.diag([1.0 - 5e-13, 5e-13])).is_invertible


def test_make_density_carries_the_spectrum_of_its_matrix():
    d = make_density(np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]]))
    v, w = d.spectrum.eigenvectors, d.eigenvalues
    np.testing.assert_allclose(d.matrix @ v, v * w, atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_make_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        make_density(np.diag([1.5, -0.5]))


def test_make_density_rejects_wrong_trace():
    with pytest.raises(NotNormalized):
        make_density(np.eye(2))


def test_make_density_renormalizes_tiny_trace_drift():
    d = make_density(np.eye(2) / 2 * (1.0 + 1e-10))
    assert np.trace(d.matrix).real == pytest.approx(1.0, abs=1e-14)


def test_sampler_config_validation():
    with pytest.raises(InvalidInput):
        SamplerConfig(dim=2, rank=3, seed=0, kind="ginibre")
    with pytest.raises(InvalidInput):
        SamplerConfig(dim=2, rank=2, seed=0, kind="nope")
    with pytest.raises(InvalidInput):
        SamplerConfig(dim=6, rank=6, seed=0, kind="perturbed-recoverable",
                      factors=(4, 2))
    with pytest.raises(InvalidInput):
        SamplerConfig(dim=4, rank=4, seed=0, kind="product")


def test_ginibre_deterministic():
    cfg = SamplerConfig(dim=2, rank=2, seed=123, kind="ginibre")
    a = sample(cfg)
    b = sample(cfg)
    assert np.array_equal(a.matrix, b.matrix)


def test_ginibre_trial_streams_differ():
    cfg = SamplerConfig(dim=2, rank=2, seed=123, kind="ginibre")
    a = sample(cfg, trial_index=0)
    b = sample(cfg, trial_index=1)
    assert not np.allclose(a.matrix, b.matrix)


def test_ginibre_rank_one_is_pure():
    d = sample(SamplerConfig(dim=2, rank=1, seed=5, kind="ginibre"))
    np.testing.assert_allclose(sorted(d.eigenvalues, reverse=True), [1.0, 0.0],
                               atol=1e-12)


@pytest.mark.parametrize("dim,rank", [(2, 2), (3, 2), (4, 4), (6, 5), (8, 8)])
def test_ginibre_rank_forced(dim, rank):
    d = sample(SamplerConfig(dim=dim, rank=rank, seed=17, kind="ginibre"))
    assert d.rank == rank
    assert np.sum(d.eigenvalues > 1e-10) == rank


def test_diagonal_sampler_is_diagonal():
    d = sample(SamplerConfig(dim=4, rank=4, seed=2, kind="diagonal"))
    off = d.matrix - np.diag(np.diag(d.matrix))
    assert np.abs(off).max() == 0.0


def test_perturbed_recoverable_unperturbed_factorizes():
    # at epsilon = 0, rho = rho1 (x) rho2 and sigma = rho1 (x) sigma2
    cfg = SamplerConfig(dim=6, rank=6, seed=9, kind="perturbed-recoverable",
                        factors=(3, 2), epsilon=0.0)
    lefts = []
    for d in sample(cfg, trial_index=3):
        m = d.matrix.reshape(3, 2, 3, 2)
        left = np.einsum("iaja->ij", m)   # trace out the second factor
        right = np.einsum("iaib->ab", m)  # trace out the first
        np.testing.assert_allclose(d.matrix, np.kron(left, right), atol=1e-12)
        lefts.append(left)
    np.testing.assert_allclose(lefts[0], lefts[1], atol=1e-12)


def test_perturbed_recoverable_pair_unperturbed_is_exact_product():
    cfg = SamplerConfig(dim=4, rank=4, seed=31, kind="perturbed-recoverable",
                        factors=(2, 2), epsilon=0.0)
    rho, sigma = sample(cfg)
    # both states share the same left factor at epsilon = 0
    from petzgap.algebra import factor_spec
    from petzgap.recovery import recovery_errors
    e_r, e_s = recovery_errors(rho, sigma, factor_spec(2, 2))
    assert e_r <= 1e-10
    assert e_s <= 1e-10


def test_perturbed_recoverable_epsilon_moves_sigma():
    base = dict(dim=4, rank=4, seed=31, kind="perturbed-recoverable",
                factors=(2, 2))
    _, sig0 = sample(SamplerConfig(epsilon=0.0, **base))
    _, sig1 = sample(SamplerConfig(epsilon=1e-2, **base))
    assert np.linalg.norm(sig0.matrix - sig1.matrix) > 1e-4


def test_all_sampler_kinds_produce_valid_densities():
    for kind in ("ginibre", "diagonal"):
        d = sample(SamplerConfig(dim=4, rank=4, seed=7, kind=kind))
        make_density(d.matrix)  # revalidates PSD and trace


def test_default_factors():
    assert default_factors(4) == (2, 2)
    assert default_factors(6) == (3, 2)
    assert default_factors(8) == (4, 2)
    assert default_factors(3) == (1, 3)
    assert default_factors(5) == (1, 5)


def test_swap_factors_unitary_swaps_kron_order():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    w = swap_factors_unitary(2, 3)
    np.testing.assert_allclose(w @ np.kron(a, b) @ w.conj().T, np.kron(b, a),
                               atol=1e-12)


def test_stream_is_counter_based_and_stable():
    a = stream(42, 0).standard_normal(4)
    b = stream(42, 0).standard_normal(4)
    c = stream(42, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
