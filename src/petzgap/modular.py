"""Relative modular operator Delta_{sigma,rho}: X -> sigma X rho^+.

Acting on Hilbert-Schmidt space, Delta is positive with eigenvectors
|phi_i><psi_j| (sigma- and rho-eigenvectors) and eigenvalues mu_i / lambda_j
over the support of rho (lambda_j > 0). The joint spectral data is stored
flat, row-major in (i, j) over sigma index i and kept rho index j: one
entry per pair with its eigenvalue and the weight lambda_j |<phi_i|psi_j>|^2
it carries in <sqrt(rho), . sqrt(rho)>. Entries
with mu_i = 0 are kept (eigenvalue 0), since that is where infinite
quasi-entropies come from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInput
from .linalg import SpectralDecomposition, psd_power
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
    mu = sig_dec.eigenvalues.real
    mu = np.where(mu > sig_dec.zero_threshold, mu, 0.0)
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


def apply(op: RelativeModularOperator, x) -> np.ndarray:
    """Delta(X) = sigma X rho^+ computed directly."""
    m = np.asarray(x, dtype=complex)
    if m.shape != (op.dim, op.dim):
        raise InvalidInput("matrix dimension does not match operator")
    sigma = _reassemble(op.sigma_dec)
    rho_pinv = psd_power(op.rho_dec, -1.0, pseudo=True)
    return sigma @ m @ rho_pinv


def _reassemble(dec: SpectralDecomposition) -> np.ndarray:
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T


def operator_norm(op: RelativeModularOperator) -> float:
    """||Delta|| = max mu / min positive lambda."""
    return float(np.max(op.eigenvalues)) if op.eigenvalues.size else 0.0


def superoperator_matrix(op: RelativeModularOperator) -> np.ndarray:
    """Dense d^2 x d^2 matrix of Delta under column-stacking vec.

    vec(sigma X rho^+) = (rho^+)^T (x) sigma vec(X) with vec(X) =
    X.flatten(order='F'). Intended as an independent cross-check for small
    dimensions.
    """
    sigma = _reassemble(op.sigma_dec)
    rho_pinv = psd_power(op.rho_dec, -1.0, pseudo=True)
    return np.kron(rho_pinv.T, sigma)


def apply_function(op: RelativeModularOperator, f, x,
                   f_at_zero: float = None) -> tuple[np.ndarray, bool]:
    """f(Delta) X = sum f(mu_i/lambda_j) P_i X Q_j over the support of rho.

    Returns (matrix, hit_infinity). Eigenvalue-zero terms (mu_i = 0) use
    f_at_zero; when f_at_zero is +inf they are dropped from the finite part
    (the 0 * inf = 0 convention) and hit_infinity reports whether any such
    term carried a coefficient above roundoff. Components of X outside the
    rho-support columns are annihilated.
    """
    rep_f0 = f_at_zero
    if hasattr(f, "eval"):
        rep_f0 = f.f_at_zero if rep_f0 is None else rep_f0
        f = f.eval
    m = np.asarray(x, dtype=complex)
    if m.shape != (op.dim, op.dim):
        raise InvalidInput("matrix dimension does not match operator")
    d = op.dim
    kept = op.kept_columns
    u_s = op.sigma_dec.eigenvectors
    u_r = op.rho_dec.eigenvectors[:, kept]
    coeff = u_s.conj().T @ m @ u_r
    eig = op.eigenvalues.reshape(d, kept.size)
    pos = eig > 0.0
    vals = np.zeros_like(eig)
    fv = np.asarray(f(eig[pos]), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise DomainError("function not finite on the positive spectrum")
    vals[pos] = fv
    hit_infinity = False
    if np.any(~pos):
        tol = 1e-12 * max(1.0, float(np.abs(coeff).max()) if coeff.size else 0.0)
        if rep_f0 is None:
            raise DomainError("zero modular eigenvalue needs f_at_zero")
        if np.isinf(rep_f0):
            hit_infinity = bool(np.any((~pos) & (np.abs(coeff) > tol)))
        else:
            vals[~pos] = rep_f0
    out = u_s @ (vals * coeff) @ u_r.conj().T
    return out, hit_infinity
