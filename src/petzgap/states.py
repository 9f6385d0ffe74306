"""Density matrices and seeded state samplers.

A DensityMatrix carries the SpectralDecomposition that make_density found
while validating it, so each state is diagonalized once: a stack of states
by one stacked eigh (sample_states makes one per dimension of a block of
draws). A state whose spectrum is known another way (E(x), from the block
cores of algebra.expectation_eigh) passes the same trace and positivity
checks through check_trace and from_spectrum. Positivity and rank follow
the zero threshold of the spectrum, under linalg's one support policy; each
state's spectrum carries its threshold and rank from from_spectrum. A
stack raises the error of its first bad matrix (see linalg).
Sampler streams are counter-based: trial i of seed s draws from
Philox(key=(s, i)), so any trial is reproducible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NotNormalized, NotPSD
from .linalg import (SpectralDecomposition, check_hermitian, eigh_stack,
                     zero_thresholds)

TRACE_TOL = 1e-9


@dataclass(eq=False)
class DensityMatrix:
    """Validated density matrix with the eigensystem it was built from.

    matrix is (v * w) @ v^H, symmetrized, for spectrum = (w, v), so spectrum
    is its eigendecomposition by construction: consumers read it instead of
    diagonalizing matrix again. rank and is_invertible follow
    spectrum.zero_threshold, as psd_power's pseudo-inverse does.
    """

    matrix: np.ndarray
    spectrum: SpectralDecomposition = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    @property
    def rank(self) -> int:
        return self.spectrum.rank

    @property
    def is_invertible(self) -> bool:
        return self.rank == self.dim


def make_density(a):
    """Validate Hermiticity, positivity, and unit trace.

    Eigenvalues below -zero_threshold are NotPSD; the rest clip to 0.
    Traces within 1e-9 of 1 are renormalized, anything further is
    NotNormalized. The clipped, renormalized eigenvalues and the
    eigenvectors become the spectrum of the rebuilt matrix. A stack is
    diagonalized by one eigh and gives the list of its states. A
    DensityMatrix comes back unchanged; its matrix, passed as an array, is
    not a fixed point to the bit (a second eigh rounds differently).
    """
    if isinstance(a, DensityMatrix):
        return a
    m = check_hermitian(a)
    tr = m.trace(0, 1, 2).real
    check_trace(tr)
    states = from_spectrum(*eigh_stack(m / tr[:, None, None]))
    return states if np.ndim(a) == 3 else states[0]


def check_trace(tr: np.ndarray) -> None:
    """NotNormalized for the first trace not within TRACE_TOL of 1."""
    for t in tr.tolist():
        if not abs(t - 1.0) <= TRACE_TOL:  # a nan trace fails too
            raise NotNormalized(f"trace {t!r} is not 1 to tolerance")


def from_spectrum(w: np.ndarray, v: np.ndarray) -> list:
    """The states of stacked spectra (w, v) of matrices of unit trace:
    NotPSD for the first whose least eigenvalue is below minus the zero
    threshold, else the eigenvectors with the eigenvalues clipped at 0 and
    renormalized. Each spectrum carries its zero threshold and rank, from
    one zero_thresholds call and one count over the stack. Each state owns
    its arrays, to be freed with its trial."""
    bad = np.flatnonzero(w[:, -1] < -zero_thresholds(w))
    if bad.size:
        raise NotPSD(f"eigenvalue {w[bad[0], -1]!r} below -zero_threshold")
    w = np.maximum(w, 0.0)
    w = w / w.sum(axis=1, keepdims=True)
    clean = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    states = [DensityMatrix((c + c.conj().T) / 2.0,
                            SpectralDecomposition(x.copy(), u.copy()))
              for c, x, u in zip(clean, w, v)]
    thresholds = zero_thresholds(w)
    for state, t, r in zip(states, thresholds.tolist(),  # w >= 0: |w| is w
                           (w > thresholds[:, None]).sum(axis=1).tolist()):
        state.spectrum.zero_threshold, state.spectrum.rank = t, r
    return states


@dataclass
class SamplerConfig:
    """What to draw: kind in {ginibre, diagonal, perturbed-recoverable}.

    dim is the total dimension; rank < dim forces that many nonzero
    eigenvalues. factors (n1, n2) fixes the tensor split and epsilon the
    perturbation size of the perturbed-recoverable kind.
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
        if self.kind not in ("ginibre", "diagonal", "perturbed-recoverable"):
            raise InvalidInput(f"unknown sampler kind {self.kind!r}")
        if self.kind == "perturbed-recoverable":
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


def stream(seed: int, trial_index: int, rng=None) -> np.random.Generator:
    """Independent generator for (seed, trial_index): rng, a Philox
    generator, moved to the stream's start, or a new one. Moving one costs
    less than building a Philox(key=...) per stream, which first draws OS
    entropy for a seed sequence it then discards."""
    rng = rng or np.random.Generator(np.random.Philox(0))
    key = [seed & 0xFFFFFFFFFFFFFFFF, trial_index & 0xFFFFFFFFFFFFFFFF]
    zero = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": zero, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
        "state": {"counter": zero, "key": np.array(key, dtype=np.uint64)}}
    return rng


def _ginibre(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = np.empty((dim, rank), dtype=complex)
    g.real, g.imag = rng.standard_normal((2, dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _diagonal(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(rank))
    w = np.zeros(dim)
    w[:rank] = np.sort(p)[::-1]
    return np.diag(w).astype(complex)


def swap_factors_unitary(n1: int, n2: int) -> np.ndarray:
    """Permutation taking C^{n1} (x) C^{n2} to C^{n2} (x) C^{n1}."""
    u = np.zeros((n1 * n2, n1 * n2))
    for i in range(n1):
        for a in range(n2):
            u[a * n1 + i, i * n2 + a] = 1.0
    return u.astype(complex)


def sample_states(draws: list) -> list:
    """The states of draws [(SamplerConfig, stream index), ...] of ginibre
    or diagonal configs, drawn by one generator moved from stream to
    stream, each dimension validated by one make_density."""
    rng = np.random.Generator(np.random.Philox(0))
    drawn = [(_ginibre if c.kind == "ginibre" else _diagonal)(
        stream(c.seed, i, rng), c.dim, c.rank or c.dim) for c, i in draws]
    out = [None] * len(draws)
    for dim in dict.fromkeys(m.shape[0] for m in drawn):
        ks = [k for k, m in enumerate(drawn) if m.shape[0] == dim]
        states = make_density(np.array([drawn[k] for k in ks]))
        for k, state in zip(ks, states):
            out[k] = state
    return out


def sample(config: SamplerConfig, trial_index: int = 0):
    """Draw per config.kind.

    ginibre and diagonal return one DensityMatrix. perturbed-recoverable
    returns (rho, sigma): a pair whose conditional-expectation entropy gap and
    discrepancies vanish at epsilon = 0 (rho = rho1 (x) rho2 and
    sigma = rho1 (x) sigma2 against the subalgebra 1 (x) M_{n2} after the
    factor swap), with sigma moved distance ~epsilon in HS norm for
    epsilon > 0.
    """
    if config.kind != "perturbed-recoverable":
        return sample_states([(config, trial_index)])[0]
    rng = stream(config.seed, trial_index)
    dim = config.dim
    rank = config.rank if config.rank is not None else dim
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
        return rho, _reproject(sig + config.epsilon * h)
    return rho, make_density(sig)


def _reproject(m: np.ndarray) -> DensityMatrix:
    """Nearest density matrix: clip eigenvalues at 0, renormalize trace."""
    w, v = eigh_stack(check_hermitian((m + m.conj().T) / 2.0))
    if w[0, 0] <= 0.0:
        raise InvalidInput("perturbation annihilated the state")
    return from_spectrum(np.maximum(w, 0.0), v)[0]
