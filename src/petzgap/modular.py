"""Relative modular operator Delta_{sigma,rho}: X -> sigma X rho^+.

Acting on Hilbert-Schmidt space, Delta is positive with eigenvectors
|phi_i><psi_j| (sigma- and rho-eigenvectors) and eigenvalues mu_i / lambda_j
over the support of rho (lambda_j > 0). The joint spectral data is stored
flat, row-major in (i, j) over sigma index i and kept rho index j: one
entry per pair with its eigenvalue and the weight lambda_j |<phi_i|psi_j>|^2
it carries in <sqrt(rho), . sqrt(rho)>. Entries
with mu_i = 0 are kept (eigenvalue 0), since that is where infinite
quasi-entropies come from. Both leaks of a pair are read here, rho's weight
on ker sigma (kernel_weight) and sigma's off supp rho (support_leak); under
linalg's support policy each counts as 0 up to its own state's threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import SpectralDecomposition, pseudo_power
from .states import make_density


@dataclass(eq=False)
class RelativeModularOperator:
    """Flat joint spectral data of Delta_{sigma,rho}."""

    dim: int
    sigma_dec: SpectralDecomposition
    rho_dec: SpectralDecomposition
    eigenvalues: np.ndarray   # (n_entries,) mu_i / lambda_j, zeros kept
    weights: np.ndarray       # (n_entries,) lambda_j |<phi_i|psi_j>|^2
    kept_columns: np.ndarray  # rho indices with lambda_j above threshold
    overlaps: np.ndarray      # full d x d matrix <phi_i|psi_j>


def build(sigma, rho) -> RelativeModularOperator:
    """Joint spectral data of Delta_{sigma,rho}(X) = sigma X rho^+, the one
    conversion from states to Delta. Either state may be given by its
    spectral decomposition; anything else goes through make_density."""
    sig_dec, rho_dec = (
        x if isinstance(x, SpectralDecomposition) else make_density(x).spectrum
        for x in (sigma, rho))
    if sig_dec.dim != rho_dec.dim:
        raise InvalidInput("sigma and rho dimensions differ")
    d = rho_dec.dim
    lam = rho_dec.eigenvalues.real
    mu = pseudo_power(sig_dec, 1.0)
    kept = np.flatnonzero(lam > rho_dec.zero_threshold)
    if kept.size == 0:
        raise InvalidInput("rho has empty support")
    overlaps = sig_dec.eigenvectors.conj().T @ rho_dec.eigenvectors
    lam_k = lam[kept]
    eig = mu[:, None] / lam_k[None, :]
    wts = lam_k[None, :] * np.abs(overlaps[:, kept]) ** 2
    return RelativeModularOperator(
        dim=d,
        sigma_dec=sig_dec,
        rho_dec=rho_dec,
        eigenvalues=eig.ravel(),
        weights=wts.ravel(),
        kept_columns=kept,
        overlaps=overlaps,
    )


def kernel_weight(op: RelativeModularOperator) -> float:
    """Tr[rho (1 - P_sigma)] over supp rho, the weight of rho on ker sigma:
    the weights of the zero modular eigenvalues."""
    return float(np.sum(op.weights[op.eigenvalues <= 0.0]))


def support_leak(op: RelativeModularOperator) -> float:
    """Tr[sigma (1 - P_rho)], the weight of sigma outside supp rho: over the
    rho eigenvectors j outside the kept columns, sum_i mu_i |<phi_i|psi_j>|^2
    with mu = pseudo_power(sigma, 1), as in build, read from the overlaps in
    O(d * nullity): exactly 0 when rho is invertible."""
    if op.kept_columns.size == op.dim:
        return 0.0
    dropped = np.ones(op.dim, dtype=bool)
    dropped[op.kept_columns] = False
    return float(pseudo_power(op.sigma_dec, 1.0)
                 @ (np.abs(op.overlaps[:, dropped]) ** 2).sum(axis=1))


def operator_norm(op: RelativeModularOperator) -> float:
    """||Delta|| = max mu / min positive lambda."""
    return float(np.max(op.eigenvalues)) if op.eigenvalues.size else 0.0
