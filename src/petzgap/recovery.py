"""Petz recovery map for a conditional expectation with reference state rho.

For Y in the subalgebra N,

    R_rho(Y) = rho^{1/2} rhoN^{-1/2} Y rhoN^{-1/2} rho^{1/2},  rhoN = E(rho),

with pseudo-inverses on the support of rhoN. R_rho is completely positive
(single Kraus operator rho^{1/2} rhoN^{-1/2}) and trace preserving on inputs
supported inside supp(rhoN); outside that support it loses trace.

E(rho) and the powers come from a PairContext, so a channel and the
recovery errors the bounds read share one formula and one set of spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import SubalgebraSpec, conditional_expectation
from .context import PairContext
from .errors import InvalidInput, NumericalFailure
from .linalg import support_leak, support_projector
from .states import DensityMatrix

MEMBERSHIP_TOL = 1e-9
TP_TOL = 1e-9
CHOI_TOL = -1e-9


@dataclass(eq=False)
class PetzChannel:
    """R_rho(Y) = K Y K^* with the Kraus operator K = rho^{1/2} rhoN^{-1/2}."""

    rho: DensityMatrix
    spec: SubalgebraSpec
    rho_n: np.ndarray
    kraus: np.ndarray = field(repr=False)


def build_petz(rho, spec: SubalgebraSpec) -> PetzChannel:
    """R_rho from a context's E(rho) and Kraus operator, the ones the
    recovery errors use."""
    ctx = PairContext(rho, rho, spec)
    return PetzChannel(rho=ctx.rho, spec=spec, rho_n=ctx.rho_n.matrix,
                       kraus=ctx.kraus("rho"))


def apply(channel: PetzChannel, y) -> np.ndarray:
    """R_rho(Y) for Y in the subalgebra; membership is enforced via
    E(Y) = Y to 1e-9."""
    m = np.asarray(y, dtype=complex)
    if m.shape != (channel.spec.dim, channel.spec.dim):
        raise InvalidInput("input dimension does not match channel")
    scale = 1.0 + (float(np.abs(m).max()) if m.size else 0.0)
    proj = conditional_expectation(channel.spec, m)
    if np.abs(proj - m).max() > MEMBERSHIP_TOL * scale:
        raise InvalidInput("input is not in the subalgebra to tolerance")
    return channel.kraus @ m @ channel.kraus.conj().T


def recovery_errors(rho, sigma, spec: SubalgebraSpec) -> tuple[float, float]:
    """(e_rho, e_sigma) = (|| R_rho(E(sigma)) - sigma ||_1,
    || R_sigma(E(rho)) - rho ||_1), as PairContext.recovery_errors."""
    return PairContext(rho, sigma, spec).recovery_errors


def trace_loss(channel: PetzChannel, state_n) -> bool:
    """True when the input's support leaks outside supp(E(rho)), so the
    channel drops trace on it."""
    return support_leak(state_n, channel.rho_n) > 1e-12


def _algebra_units(spec: SubalgebraSpec):
    """Matrix units of N in its compressed form (+) M_{n_k}, embedded."""
    units = []
    off = 0
    for n, mult in spec.blocks:
        for a in range(n):
            for b in range(n):
                core = np.zeros((n, n), dtype=complex)
                core[a, b] = 1.0
                emb = np.zeros((spec.dim, spec.dim), dtype=complex)
                emb[off:off + n * mult, off:off + n * mult] = np.kron(
                    core, np.eye(mult))
                if spec.basis is not None:
                    emb = spec.basis @ emb @ spec.basis.conj().T
                units.append(emb)
        off += n * mult
    return units


def validate_petz(channel: PetzChannel) -> None:
    """Trace preservation on the subalgebra (on supp(rhoN)) to 1e-9 and
    complete positivity via the Choi matrix of the compressed-form channel.

    Raises NumericalFailure naming the failing property. Trace preservation
    is only required of inputs supported in supp(E(rho)); with a full-rank
    reference it is unconditional.
    """
    units = _algebra_units(channel.spec)
    p = support_projector(channel.rho_n)
    k = channel.kraus
    for u in units:
        supported = np.abs(p @ u @ p - u).max() <= 1e-12
        out = k @ u @ k.conj().T
        if supported and abs(np.trace(out) - np.trace(u)) > TP_TOL:
            raise NumericalFailure("trace preservation fails on the algebra")
    # Choi matrix over the compressed index: J[(ab)] = R(u_ab) (x) e_ab
    # blockwise per summand, stacked into one PSD check.
    blocks = []
    idx = 0
    for n, _ in channel.spec.blocks:
        j = np.zeros((channel.spec.dim * n, channel.spec.dim * n), dtype=complex)
        for a in range(n):
            for b in range(n):
                u = units[idx + a * n + b]
                e = np.zeros((n, n), dtype=complex)
                e[a, b] = 1.0
                j += np.kron(k @ u @ k.conj().T, e)
        idx += n * n
        blocks.append(j)
    for j in blocks:
        w = np.linalg.eigvalsh((j + j.conj().T) / 2.0)
        if w.size and w.min() < CHOI_TOL:
            raise NumericalFailure("complete positivity fails (Choi not PSD)")
