import sys

import numpy as np
import pytest

import petzgap.cli  # noqa: F401  (loads every petzgap module)
from petzgap.states import SamplerConfig, make_density, sample


def grid_caches() -> dict:
    """Every functools cache in petzgap by module.name, but
    monotone._neg_power: its entries are the shared function objects that
    PairContext memos and the other caches are keyed by, so it is never
    cleared."""
    return {f"{f.__module__}.{f.__qualname__}": f
            for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "petzgap"
            for f in vars(module).values()
            if hasattr(f, "cache_clear") and f.__qualname__ != "_neg_power"}


def ginibre(dim, rank, seed):
    return sample(SamplerConfig(dim=dim, rank=rank, seed=seed, kind="ginibre"))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def near_singular(rng: np.random.Generator, dim: int, n_small: int,
                  eps: float):
    p = rng.dirichlet(np.ones(dim))
    p[:-n_small] *= (1.0 - n_small * eps) / p[:-n_small].sum()
    p[-n_small:] = eps
    u = haar_unitary(rng, dim)
    return make_density((u * p) @ u.conj().T)


def diagonal_state(values):
    return make_density(np.diag(np.asarray(values, dtype=float)))


def exact_product_pair(n1, n2, seed):
    """(rho1 x rho2, rho1 x sigma2): recovered exactly through 1 x M_n2."""
    rho1 = ginibre(n1, n1, seed)
    rho2 = ginibre(n2, n2, seed + 1)
    sig2 = ginibre(n2, n2, seed + 2)
    rho = make_density(np.kron(rho1.matrix, rho2.matrix))
    sigma = make_density(np.kron(rho1.matrix, sig2.matrix))
    return rho, sigma


@pytest.fixture
def pair3():
    return ginibre(3, 3, 11), ginibre(3, 3, 12)


@pytest.fixture
def pair4():
    return ginibre(4, 4, 21), ginibre(4, 4, 22)
