"""PairContext: each quantity of one (rho, sigma, spec) trial, computed once.

The bounds all read the same few quantities of a triple. A context computes
each on first use and keeps it for its own lifetime only: build one per
trial and drop it with the trial. Its spectra are the ones its states carry
(DensityMatrix.spectrum): one eigh each for rho, sigma, E(rho), E(sigma),
and none for E(x) when E is the identity, since E(x) is then x itself and
every E = id gap is exactly 0. It owns the relative modular operators op
and op_n, keeps one entropy per (function, operator), which the gaps and
Renyi gaps share, and one power per (state, exponent), which the
discrepancies, recovery errors and proof internals share. A caller with raw
states builds a context for one quantity (as `bounds.discrepancy_norm` and
`recovery.recovery_errors` do).
"""

from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from . import entropy, modular
from .algebra import SubalgebraSpec, conditional_expectation
from .errors import InvalidInput
from .linalg import hs_norm, psd_power, support_leak, trace_norm
from .monotone import builtin_neg_power
from .states import DensityMatrix, make_density


def _memoized(method):
    """Keep method(self, *key) in self._memo. A rep key is the rep object:
    builtin_neg_log() and builtin_neg_power(alpha) return one shared object
    per function, so every bound that asks for the same gap hits."""
    @wraps(method)
    def cached(self, *key):
        slot = (method.__name__,) + key
        if slot not in self._memo:
            self._memo[slot] = method(self, *key)
        return self._memo[slot]
    return cached


class PairContext:
    """Lazily computed quantities of one (rho, sigma, spec) triple. State
    roles: "rho", "sigma", and "rho_n", "sigma_n" for E(rho), E(sigma)."""

    def __init__(self, rho, sigma, spec: SubalgebraSpec):
        self.rho = make_density(rho)
        self.sigma = make_density(sigma)
        if self.rho.dim != spec.dim or self.sigma.dim != spec.dim:
            raise InvalidInput("state dimension does not match spec")
        self.spec = spec
        self._memo = {}

    @_memoized
    def power(self, role: str, p: float) -> np.ndarray:
        """psd_power of a state with pseudo-inverse powers."""
        return psd_power(getattr(self, role).spectrum, p)

    def _expect(self, x: DensityMatrix) -> DensityMatrix:
        """E(x) as a state. E is the identity exactly when the algebra is all
        of M_d, one (dim, 1) block in any basis; then E(x) is x itself."""
        if self.spec.blocks == [(self.spec.dim, 1)]:
            return x
        return make_density(conditional_expectation(self.spec, x.matrix))

    @cached_property
    def rho_n(self) -> DensityMatrix:
        return self._expect(self.rho)

    @cached_property
    def sigma_n(self) -> DensityMatrix:
        return self._expect(self.sigma)

    @cached_property
    def op(self) -> modular.RelativeModularOperator:
        return modular.build(self.sigma.spectrum, self.rho.spectrum)

    @cached_property
    def op_n(self) -> modular.RelativeModularOperator:
        return modular.build(self.sigma_n.spectrum, self.rho_n.spectrum)

    @cached_property
    def delta_norm(self) -> float:
        return modular.operator_norm(self.op)

    @_memoized
    def s_f(self, rep, role: str) -> float:
        """entropy.s_f of the operator op or op_n (role "op" or "op_n")."""
        return entropy.s_f(rep, getattr(self, role))

    @_memoized
    def gap(self, rep) -> float:
        return entropy.gap(self.s_f(rep, "op"), self.s_f(rep, "op_n"))

    @_memoized
    def renyi_gap(self, alpha: float) -> float:
        """Read from the entropies of f(x) = -x^(1 - alpha), which the gap
        of that function shares."""
        rep = builtin_neg_power(1.0 - alpha)
        return entropy.renyi_gap(alpha, self.s_f(rep, "op"),
                                 self.s_f(rep, "op_n"))

    @_memoized
    def reconstruct_gap(self, rep) -> float:
        return entropy.reconstruct_gap(rep, self.op, self.op_n)

    def discrepancy_matrix(self, beta: float) -> np.ndarray:
        """sigmaN^b rhoN^-b rho^{1/2} - sigma^b rho^{1/2-b}, pseudo powers."""
        return self.power("sigma_n", beta) @ self.power("rho_n", -beta) \
            @ self.power("rho", 0.5) \
            - self.power("sigma", beta) @ self.power("rho", 0.5 - beta)

    @_memoized
    def discrepancy(self, beta: float) -> float:
        return hs_norm(self.discrepancy_matrix(beta))

    @cached_property
    def recovery_discrepancy(self) -> float:
        """|| sigmaN^{1/2} rhoN^{-1/2} rho^{1/2} - sigma^{1/2} ||_2."""
        return hs_norm(self.power("sigma_n", 0.5) @ self.power("rho_n", -0.5)
                       @ self.power("rho", 0.5) - self.power("sigma", 0.5))

    @_memoized
    def kraus(self, role: str) -> np.ndarray:
        """x^{1/2} E(x)^{-1/2} for x = rho or sigma: the Kraus operator of
        the Petz map R_x (see `recovery`)."""
        return self.power(role, 0.5) @ self.power(role + "_n", -0.5)

    def _recovery_error(self, x: str, y: str) -> float:
        """|| R_x(E(y)) - y ||_1."""
        k = self.kraus(x)
        return trace_norm(k @ getattr(self, y + "_n").matrix @ k.conj().T
                          - getattr(self, y).matrix)

    @cached_property
    def recovery_errors(self) -> tuple[float, float]:
        """(e_rho, e_sigma) = (|| R_rho(E(sigma)) - sigma ||_1,
        || R_sigma(E(rho)) - rho ||_1)."""
        return (self._recovery_error("rho", "sigma"),
                self._recovery_error("sigma", "rho"))

    @cached_property
    def support_leak(self) -> float:
        """The weight of sigma outside supp rho."""
        return support_leak(self.sigma.matrix, self.rho.spectrum)

    @cached_property
    def support_leak_n(self) -> float:
        """The weight of E(sigma) outside supp E(rho)."""
        return support_leak(self.sigma_n.matrix, self.rho_n.spectrum)
