"""Covariance of every trial quantity under unitaries of the subalgebra, at
the dimensions no oracle reaches.

A conditional expectation onto N commutes with conjugation by a unitary V
that normalizes N: E(V x V*) = V E(x) V*. V is block-diagonal for the
pinching, U (x) W for the partial trace (1 (x) W lies in N, and U (x) 1
leaves the partial trace as it is), and any unitary for the trivial and
the full algebra. Every quantity of a (rho, sigma, spec) triple is
unitarily invariant, so PairContext.quantities() of (V rho V*, V sigma V*)
is that of (rho, sigma) up to roundoff. The pairs are drawn at d = 32 and
d = 64, where verify-large runs and the mpmath oracle (d <= 6) does not
reach.

Roundoff grows with the condition number kappa of the states: ||Delta|| is
about lambda_max(rho) / lambda_min(sigma), and eigh leaves lambda_min
a relative error of about u * kappa. So a quantity q may move by
COV_MULTIPLE * u * kappa * max(1, |q|). Over seeds 0-8 of these draws
(kappa 5e3 to 2e6) the largest move was 1.03 u * kappa * |q| (delta_norm);
every other quantity moved by at most 0.77 u * kappa (beta_free at 3/4).

The second relation is an ancilla: (rho (x) tau, sigma (x) tau) under
N (x) M_k, for an invertible state tau of M_k. E (x) id maps x (x) tau to
E(x) (x) tau, so every gap and Renyi gap, every discrepancy with its
rho^{1/2} factor, both recovery errors and both support leaks stay as they
are (Tr tau = 1 and || tau^{1/2} ||_2 = 1). The beta-free left side
sigmaN^b rhoN^-b - sigma^b rho^-b gains a factor (x) 1_k, so it scales by
sqrt(k), and ||Delta|| scales by lambda_max(tau) / lambda_min(tau). The same
COV_MULTIPLE * u * kappa * max(1, |q|) bounds each move, with kappa that of
the ancilla states, kappa(rho or sigma) * kappa(tau). Over seeds 0-5 at
d = 5, 6, 8 and k = 2, 3 the largest move was 0.60 u * kappa * |q|
(delta_norm), and 0.24 u * kappa for every other quantity (beta_free).
"""

import numpy as np
import pytest

from petzgap.algebra import factor_spec, full_spec, pinching_spec
from petzgap.context import PairContext
from petzgap.harness import SPEC_KINDS, spec_for
from petzgap.monotone import builtin_neg_power, rep_from_name
from petzgap.states import SamplerConfig, default_factors, make_density, sample

from conftest import haar_unitary

COV_MULTIPLE = 10.0
U = np.finfo(float).eps
GRID = [0.25, 0.5, 0.75]  # the alpha and beta grids of verify's defaults
QUANTITIES = {"delta_norm", "e_rho", "e_sigma", "recovery_discrepancy",
              "support_leak", "support_leak_n", "gap", "renyi_gap",
              "discrepancy", "beta_free"}


def subalgebra_unitary(kind: str, dim: int,
                       rng: np.random.Generator) -> np.ndarray:
    """A Haar unitary of the algebra spec_for(kind, dim) normalizes."""
    if kind == "pinching":
        v = np.zeros((dim, dim), dtype=complex)
        top = dim - dim // 2
        v[:top, :top] = haar_unitary(rng, top)
        v[top:, top:] = haar_unitary(rng, dim - top)
        return v
    if kind == "partial-trace":
        n1, n2 = default_factors(dim)
        return np.kron(haar_unitary(rng, n1), haar_unitary(rng, n2))
    return haar_unitary(rng, dim)


def all_quantities(rho, sigma, spec) -> dict:
    """Every quantities() entry of the pair: the gaps of both builtin
    families, and each Renyi gap, discrepancy and beta-free bound of GRID,
    as one flat dict."""
    ctx = PairContext(rho, sigma, spec)
    reps = [rep_from_name("neg-log"), rep_from_name("neg-power:0.5")]
    ctx.entropies(reps + [builtin_neg_power(1.0 - a) for a in GRID])
    for rep in reps:
        ctx.gap(rep)
    for value in GRID:
        ctx.renyi_gap(value)
        ctx.discrepancy(value)
        ctx.beta_free(value)
    for name in ("delta_norm", "recovery_errors", "recovery_discrepancy",
                 "support_leak", "support_leak_n"):
        getattr(ctx, name)
    computed = ctx.quantities()
    assert set(computed) == QUANTITIES
    flat = {}
    for key, value in computed.items():
        if isinstance(value, dict):
            flat.update({(key, k): v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


@pytest.mark.parametrize("dim", [32, 64])
@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_quantities_are_covariant_under_subalgebra_unitaries(kind, dim):
    i = SPEC_KINDS.index(kind)
    rho = sample(SamplerConfig(dim=dim), trial_index=2 * i)
    sigma = sample(SamplerConfig(dim=dim), trial_index=2 * i + 1)
    v = subalgebra_unitary(kind, dim, np.random.default_rng([dim, i]))
    spec = spec_for(kind, dim)
    before = all_quantities(rho, sigma, spec)
    after = all_quantities(make_density(v @ rho.matrix @ v.conj().T),
                           make_density(v @ sigma.matrix @ v.conj().T), spec)
    kappa = max(x.eigenvalues.max() / x.eigenvalues.min()
                for x in (rho, sigma))
    assert set(after) == set(before)
    assert len(before) == 6 + 2 + 3 * len(GRID)
    for key, value in before.items():
        allowed = COV_MULTIPLE * U * kappa * max(1.0, abs(value))
        assert abs(after[key] - value) <= allowed, (key, value, after[key],
                                                    kappa)


def ancilla_spec(kind: str, dim: int, k: int):
    """spec_for(kind, dim) (x) M_k on C^dim (x) C^k."""
    if kind == "pinching":
        return pinching_spec(dim * k, [(dim - dim // 2) * k, dim // 2 * k])
    if kind == "partial-trace":
        n1, n2 = default_factors(dim)
        return factor_spec(n1, n2 * k)
    if kind == "trivial":
        return factor_spec(dim, k)
    return full_spec(dim * k)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("dim", [6, 8])
@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_quantities_under_an_ancilla(kind, dim, k):
    i = SPEC_KINDS.index(kind)
    rho = sample(SamplerConfig(dim=dim), trial_index=2 * i)
    sigma = sample(SamplerConfig(dim=dim), trial_index=2 * i + 1)
    tau = sample(SamplerConfig(dim=k, seed=1), trial_index=i)
    kappa_tau = tau.eigenvalues.max() / tau.eigenvalues.min()
    before = all_quantities(rho, sigma, spec_for(kind, dim))
    after = all_quantities(make_density(np.kron(rho.matrix, tau.matrix)),
                           make_density(np.kron(sigma.matrix, tau.matrix)),
                           ancilla_spec(kind, dim, k))
    kappa = kappa_tau * max(x.eigenvalues.max() / x.eigenvalues.min()
                            for x in (rho, sigma))
    assert set(after) == set(before)
    for key, value in before.items():
        if key == "delta_norm":
            value *= kappa_tau
        elif key[0] == "beta_free":
            value *= np.sqrt(k)
        allowed = COV_MULTIPLE * U * kappa * max(1.0, abs(value))
        assert abs(after[key] - value) <= allowed, (key, value, after[key],
                                                    kappa)
