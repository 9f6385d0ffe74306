"""Hermitian spectral calculus and matrix norms.

Every spectrum downstream is a SpectralDecomposition, from `eigh` here or,
for a state, the one `states.make_density` validated it with (for E(x),
`algebra.expectation_eigh` assembles it from the block cores). So two
conventions are fixed in one place: eigenvalues descend, and one support
policy holds. Each spectrum derives its zero threshold from its own
eigenvalues, 1e-12 * max(1, max |lambda|) (1e-12 for a state), the one cut
of every support decision: an eigenvalue, a PSD defect, or the weight of
one state outside the other's support counts as 0 at or below the
threshold of the spectrum it is measured against.
eigh, states.make_density and algebra.expectation_eigh take one matrix,
giving its value, or an (n, d, d) stack, giving a list; a stack raises the
error of its first bad matrix, each check (Hermitian, trace, positivity)
taken in turn over the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput

HERMITIAN_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    return m


def check_hermitian(a) -> np.ndarray:
    """a as an (n, d, d) complex stack; InvalidInput unless each matrix is
    Hermitian to HERMITIAN_RTOL times 1 + max |entry|, which must be
    finite: a nan or inf entry fails."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    m = m[None] if m.ndim == 2 else m
    scale = 1.0 + np.abs(m).max(axis=(1, 2))
    defect = np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    if not (np.isfinite(scale) & (defect <= HERMITIAN_RTOL * scale)).all():
        raise InvalidInput("matrix is not Hermitian to tolerance")
    return m


def zero_thresholds(w: np.ndarray) -> np.ndarray:
    """SpectralDecomposition.zero_threshold of each row of w."""
    return 1e-12 * np.fmax(1.0, np.abs(w).max(axis=-1, initial=0.0))


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvectors. Its
    zero_threshold and rank are formed on first read unless a caller that
    has them sets them (states.from_spectrum does, for a whole stack)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def zero_threshold(self) -> float:
        """1e-12 * max(1, max |eigenvalue|), formed once: the cutoff of every
        rank and pseudo-inverse decision, at or below which an eigenvalue
        counts as 0."""
        return float(zero_thresholds(self.eigenvalues))

    @cached_property
    def rank(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) > self.zero_threshold))


def eigh(a):
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending."""
    decs = list(map(SpectralDecomposition, *eigh_stack(check_hermitian(a))))
    return decs if np.ndim(a) == 3 else decs[0]


def eigh_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of an (n, d, d) stack check_hermitian passed, as two stacks."""
    w, v = np.linalg.eigh(m)
    return np.ascontiguousarray(w[:, ::-1]), np.ascontiguousarray(v[..., ::-1])


def pseudo_power(dec: SpectralDecomposition, p: float) -> np.ndarray:
    """The eigenvalues of dec raised to p, with pseudo powers: each at or
    below the zero threshold (roundoff negatives included) maps to 0 for
    every p, so p < 0 gives the pseudo-inverse power and p = 0 the support
    indicator. The one pseudo-power rule of the package."""
    w = dec.eigenvalues.real
    keep = w > dec.zero_threshold
    vals = np.zeros(dec.dim)
    vals[keep] = w[keep] ** p
    return vals


def psd_power(a, p: float) -> np.ndarray:
    """A^p for PSD A with pseudo powers (see pseudo_power): p < 0 gives the
    pseudo-inverse power and p = 0 the support projector."""
    dec = a if isinstance(a, SpectralDecomposition) else eigh(a)
    v = dec.eigenvectors
    out = (v * pseudo_power(dec, p)) @ v.conj().T
    return (out + out.conj().T) / 2.0


def support_projector(a) -> np.ndarray:
    """Orthogonal projector onto the range of a Hermitian matrix."""
    dec = a if isinstance(a, SpectralDecomposition) else eigh(a)
    mask = np.abs(dec.eigenvalues) > dec.zero_threshold
    v = dec.eigenvectors[:, mask]
    out = v @ v.conj().T
    return (out + out.conj().T) / 2.0


def schatten_norm(a, p) -> float:
    """Schatten p-norm via singular values; p in [1, inf]."""
    m = as_matrix(a)
    if p != np.inf and p < 1:
        raise InvalidInput("Schatten norm requires p >= 1")
    s = np.linalg.svd(m, compute_uv=False)
    if p == np.inf:
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s ** p) ** (1.0 / p))


def trace_norm(a):
    """Trace norm of a matrix that is Hermitian up to rounding: the sum of
    |eigenvalues| of its Hermitian part, which for a Hermitian matrix are
    its singular values (no SVD); of a list, the list of each one's, from
    one stacked eigvalsh of a preallocated stack of the Hermitian parts."""
    xs = a if isinstance(a, list) else [as_matrix(a)]
    m = np.empty((len(xs),) + xs[0].shape, dtype=complex)
    for x, part in zip(xs, m):
        np.add(x, x.conj().T, out=part)
    m /= 2.0
    w = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1).tolist()
    return w if xs is a else w[0]


def hs_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))
