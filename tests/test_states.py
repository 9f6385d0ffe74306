import random

import numpy as np
import pytest

from petzgap import states
from petzgap.algebra import expectation_eigh
from petzgap.context import PairContext
from petzgap.errors import InvalidInput, NotNormalized, NotPSD, PetzGapError
from petzgap.harness import SPEC_KINDS, spec_for
from petzgap.linalg import eigh, psd_power
from petzgap.states import (SamplerConfig, default_factors, make_density,
                            sample, sample_states, stream,
                            swap_factors_unitary)

from oracles import (reference_density, reference_expectation_eigh,
                     reference_state)

MASK = 0xFFFFFFFFFFFFFFFF
REFERENCE_DIMS = (2, 3, 4, 5, 6, 7, 8, 9, 32)


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


def fresh(seed: int, index: int) -> np.random.Generator:
    """The generator of stream (seed, index), built anew."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed & MASK, index & MASK], dtype=np.uint64)))


def test_rekeyed_streams_draw_what_fresh_generators_draw():
    """One generator, moved by stream from stream to stream, draws the
    numbers of a fresh Philox(key=(seed, index)) generator, for negative
    seeds and seeds of 64 bits and more (masked to 64 bits, as stream
    masks them), with indices drawn out of order and draws that leave a
    32-bit half word buffered."""
    keys = [(seed, index)
            for seed in (0, 42, -1, -(2 ** 70) + 3, 2 ** 64, 2 ** 64 + 5,
                         2 ** 80 + 1)
            for index in (7, 0, 3, 2 ** 64 + 1, -2)]
    random.Random(0).shuffle(keys)
    moved = stream(0, 0)
    for seed, index in keys + keys[::-1]:
        want, rng = fresh(seed, index), stream(seed, index, moved)
        assert rng is moved
        for draw in (lambda g: g.standard_normal(5),
                     lambda g: g.integers(0, 2 ** 32, 3, dtype=np.uint32),
                     lambda g: g.dirichlet(np.ones(3)),
                     lambda g: g.random(2)):
            assert draw(rng).tobytes() == draw(want).tobytes(), (seed, index)
    assert stream(-1, 2 ** 64 + 3).standard_normal(4).tobytes() \
        == fresh(MASK, 3).standard_normal(4).tobytes()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def reference_draws(seed: int = 7) -> list:
    """Ginibre and diagonal draws, full rank and rank d - 1, at each of
    REFERENCE_DIMS, the dims interleaved so that no stack is a run of
    consecutive slots."""
    kinds = [(kind, d - drop, d) for kind in ("ginibre", "diagonal")
             for drop in (0, 1) for d in REFERENCE_DIMS]
    draws = [(SamplerConfig(dim=d, rank=rank, seed=seed, kind=kind), i)
             for i, (kind, rank, d) in enumerate(kinds)]
    random.Random(seed).shuffle(draws)
    return draws


def test_stacked_states_match_one_at_a_time_to_the_bit():
    """sample_states validates and diagonalizes a block of draws in one
    stack per dimension; each state's matrix, eigenvalues and eigenvectors
    are those of the one-at-a-time reference, to the bit. So are the
    spectra of E(rho) and E(sigma), taken in one expectation_eigh of the
    pair for every spec kind, and the states the context builds of them,
    except for the trivial algebra, whose E(rho) and E(sigma) the context
    takes as the exact flat state: matrix I/d, eigenvalues 1/d and
    eigenvectors I, to the bit."""
    draws = reference_draws()
    prepared = sample_states(draws)
    by_dim = {}
    for (config, index), state in zip(draws, prepared):
        draw = states._ginibre if config.kind == "ginibre" \
            else states._diagonal
        raw = draw(fresh(config.seed, index), config.dim, config.rank)
        matrix, w, v = reference_density(raw)
        assert same_bits(state.matrix, matrix), (config, index)
        assert same_bits(state.eigenvalues, w), (config, index)
        assert same_bits(state.spectrum.eigenvectors, v), (config, index)
        by_dim.setdefault(config.dim, []).append(state)
    compared = 0
    for d, group in by_dim.items():
        for rho, sigma in zip(group, group[1:]):
            for kind in SPEC_KINDS:
                spec = spec_for(kind, d)
                decs = expectation_eigh(
                    spec, np.array([rho.matrix, sigma.matrix]))
                ctx = PairContext(rho, sigma, spec)
                for x, dec, x_n in zip((rho, sigma), decs,
                                       (ctx.rho_n, ctx.sigma_n)):
                    w, v = reference_expectation_eigh(spec, x.matrix)
                    assert same_bits(dec.eigenvalues, w), (d, kind)
                    assert same_bits(dec.eigenvectors, v), (d, kind)
                    if spec.blocks == [(d, 1)]:
                        wanted = ()
                    elif spec.blocks == [(1, d)]:
                        eye = np.eye(d, dtype=complex)
                        wanted = (eye / d, np.full(d, 1.0 / d), eye)
                    else:
                        wanted = reference_state(w, v)
                    for got, want in zip((x_n.matrix, x_n.eigenvalues,
                                          x_n.spectrum.eigenvectors), wanted):
                        assert same_bits(got, want), (d, kind)
                    compared += 1
    assert compared == 2 * 3 * len(REFERENCE_DIMS) * len(SPEC_KINDS)


def error_alone(m: np.ndarray) -> PetzGapError:
    """The error make_density raises for the matrix m alone."""
    with pytest.raises(PetzGapError) as info:
        make_density(m)
    return info.value


def test_a_stack_raises_the_error_of_its_first_bad_matrix():
    """A stack raises the error its first bad matrix raises alone, of the
    same type and message: a matrix that is not Hermitian, one of trace
    1.1 or one with an eigenvalue below -zero_threshold, wherever it
    stands among good states. The checks run in turn over the whole stack,
    so a bad trace is found before a bad eigenvalue that precedes it."""
    good = [sample(SamplerConfig(dim=3, seed=5), i).matrix for i in range(3)]
    skew = good[0].copy()
    skew[0, 1] += 1e-3
    negative = np.diag([0.6, 0.5, -0.1]).astype(complex)
    stacks = [[good[0], skew, good[1], 1.1 * good[2], negative],
              [good[0], good[1], 1.1 * good[2], 1.2 * good[0], negative],
              [good[0], negative, good[1], good[2]],
              [good[0], negative, 1.1 * good[2]]]
    raised = []
    for stack, first_bad in zip(stacks, (1, 2, 1, 2)):
        want = error_alone(stack[first_bad])
        with pytest.raises(PetzGapError) as info:
            make_density(np.array(stack))
        assert type(info.value) is type(want)
        assert str(info.value) == str(want)
        raised.append(type(want))
    assert raised == [InvalidInput, NotNormalized, NotPSD, NotNormalized]
    assert "trace 1.1" in str(error_alone(1.1 * good[2]))


def test_an_empty_stack_gives_no_states():
    empty = np.zeros((0, 3, 3), dtype=complex)
    assert make_density(empty) == eigh(empty) == []


# inf - inf in the Hermitian defect warns before the check fails it
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf,
                                   complex(0.5, np.inf), complex(np.nan, 0.5)])
def test_a_non_finite_entry_is_not_hermitian(entry):
    """A nan entry compares false in every check, and an inf entry makes
    the Hermitian tolerance inf, so the Hermitian test asks for a finite
    scale: make_density and eigh raise InvalidInput for a matrix with such
    an entry on the diagonal or off it, alone or in a stack."""
    good = sample(SamplerConfig(dim=2, seed=5), 0).matrix
    for i, j in ((0, 0), (0, 1)):
        bad = good.copy()
        bad[i, j] = entry
        bad[j, i] = np.conj(entry)
        for m in (bad, np.array([good, bad, good])):
            for validate in (make_density, eigh):
                with pytest.raises(InvalidInput, match="not Hermitian"):
                    validate(m)
    with pytest.raises(InvalidInput, match="not Hermitian"):
        make_density(np.full((2, 2), np.nan))
