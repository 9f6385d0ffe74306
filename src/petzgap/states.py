"""Density matrices and seeded state samplers.

Sampler streams are counter-based: trial i of seed s draws from
Philox(key=(s, i)), so any trial is reproducible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NotNormalized, NotPSD
from .linalg import check_hermitian, eigh

PSD_TOL = -1e-12
TRACE_TOL = 1e-9
RANK_FLOOR = 1e-10


@dataclass(eq=False)
class DensityMatrix:
    """Validated density matrix with its cached numerical rank.

    validated is (m, eigh(m)) for the normalized input m that validation
    decomposed, so that a PairContext can reuse that eigh when the same
    bits come up again (for instance when matrix equals m).
    """

    matrix: np.ndarray
    rank: int
    eigenvalues: np.ndarray = field(repr=False, default=None)
    validated: tuple | None = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_invertible(self) -> bool:
        return self.rank == self.dim


def make_density(a, decompose=None) -> DensityMatrix:
    """Validate Hermiticity, positivity, and unit trace.

    Eigenvalues below -1e-12 raise NotPSD; small negatives are clipped to 0.
    Traces within 1e-9 of 1 are renormalized, anything further raises
    NotNormalized. decompose replaces `eigh` (a caller's cache of it).
    """
    m = check_hermitian(a)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotNormalized(f"trace {tr!r} is not 1 to tolerance")
    m = m / tr
    dec = (decompose or eigh)(m)
    w = dec.eigenvalues.real
    if w.min() < PSD_TOL:
        raise NotPSD(f"eigenvalue {w.min()!r} below PSD tolerance")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    v = dec.eigenvectors
    clean = (v * w) @ v.conj().T
    clean = (clean + clean.conj().T) / 2.0
    rank = int(np.sum(w > RANK_FLOOR))
    return DensityMatrix(matrix=clean, rank=rank, eigenvalues=w,
                         validated=(m, dec))


@dataclass
class SamplerConfig:
    """What to draw: kind in {ginibre, diagonal, product, perturbed-recoverable}.

    dim is the total dimension; rank < dim forces that many nonzero
    eigenvalues. factors (n1, n2) fixes the tensor split for the product and
    perturbed-recoverable kinds; epsilon sets the perturbation size for the
    latter.
    """

    dim: int
    rank: int | None = None
    seed: int = 0
    kind: str = "ginibre"
    factors: tuple[int, int] | None = None
    epsilon: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("dim must be >= 1")
        if self.rank is not None and not (1 <= self.rank <= self.dim):
            raise InvalidInput("rank must be in [1, dim]")
        if self.kind not in ("ginibre", "diagonal", "product",
                             "perturbed-recoverable"):
            raise InvalidInput(f"unknown sampler kind {self.kind!r}")
        if self.kind in ("product", "perturbed-recoverable"):
            n1, n2 = self.factors if self.factors else default_factors(self.dim)
            if n1 * n2 != self.dim:
                raise InvalidInput("factors must multiply to dim")
            self.factors = (n1, n2)


def default_factors(dim: int) -> tuple[int, int]:
    """dim = n1 * n2 with n2 the smallest proper factor; (1, dim) for primes."""
    for p in range(2, dim + 1):
        if dim % p == 0 and p < dim:
            return (dim // p, p)
    return (1, dim)


def stream(seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for (seed, trial_index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                    trial_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _ginibre(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _diagonal(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(rank))
    w = np.zeros(dim)
    w[:rank] = np.sort(p)[::-1]
    return np.diag(w).astype(complex)


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def swap_factors_unitary(n1: int, n2: int) -> np.ndarray:
    """Permutation taking C^{n1} (x) C^{n2} to C^{n2} (x) C^{n1}."""
    u = np.zeros((n1 * n2, n1 * n2))
    for i in range(n1):
        for a in range(n2):
            u[a * n1 + i, i * n2 + a] = 1.0
    return u.astype(complex)


def sample(config: SamplerConfig, trial_index: int = 0):
    """Draw per config.kind.

    ginibre, diagonal, product return one DensityMatrix. perturbed-recoverable
    returns (rho, sigma): a pair whose conditional-expectation entropy gap and
    discrepancies vanish at epsilon = 0 (rho = rho1 (x) rho2 and
    sigma = rho1 (x) sigma2 against the subalgebra 1 (x) M_{n2} after the
    factor swap), with sigma moved distance ~epsilon in HS norm for
    epsilon > 0.
    """
    rng = stream(config.seed, trial_index)
    dim = config.dim
    rank = config.rank if config.rank is not None else dim
    if config.kind == "ginibre":
        return make_density(_ginibre(rng, dim, rank))
    if config.kind == "diagonal":
        return make_density(_diagonal(rng, dim, rank))
    if config.kind == "product":
        n1, n2 = config.factors
        a = _ginibre(rng, n1, min(rank, n1))
        b = _ginibre(rng, n2, n2)
        return make_density(np.kron(a, b))
    if config.kind == "perturbed-recoverable":
        n1, n2 = config.factors
        r1 = _ginibre(rng, n1, min(rank, n1)) if n1 > 1 else np.ones((1, 1), dtype=complex)
        r2 = _ginibre(rng, n2, n2)
        s2 = _ginibre(rng, n2, n2)
        rho = make_density(np.kron(r1, r2))
        sig = np.kron(r1, s2)
        if config.epsilon > 0.0:
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = (h + h.conj().T) / 2.0
            h = h - np.trace(h).real / dim * np.eye(dim)
            h = h / np.linalg.norm(h)
            sig = _reproject(sig + config.epsilon * h)
        return rho, make_density(sig)
    raise InvalidInput(f"unknown sampler kind {config.kind!r}")


def _reproject(m: np.ndarray) -> np.ndarray:
    """Nearest density matrix: clip eigenvalues at 0, renormalize trace."""
    dec = eigh((m + m.conj().T) / 2.0)
    w = np.clip(dec.eigenvalues.real, 0.0, None)
    if w.sum() <= 0.0:
        raise InvalidInput("perturbation annihilated the state")
    w = w / w.sum()
    v = dec.eigenvectors
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0
