"""Petz recovery map for a conditional expectation with reference state rho.

For Y in the subalgebra N,

    R_rho(Y) = rho^{1/2} rhoN^{-1/2} Y rhoN^{-1/2} rho^{1/2},  rhoN = E(rho),

with pseudo-inverses on the support of rhoN. R_rho is completely positive
(single Kraus operator rho^{1/2} rhoN^{-1/2}) and trace preserving on inputs
supported inside supp(rhoN); outside that support it loses trace.

E(rho) and the Kraus operator come from a PairContext, so a channel and the
recovery errors the bounds read share one formula and one set of spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import SubalgebraSpec, conditional_expectation
from .context import PairContext
from .errors import InvalidInput
from .states import DensityMatrix

MEMBERSHIP_TOL = 1e-9


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
