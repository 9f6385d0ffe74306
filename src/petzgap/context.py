"""PairContext: each quantity of one (rho, sigma, spec) trial, computed once.

The bounds all read the same few quantities of a triple. A context computes
each on first use and keeps it for its own lifetime only: build one per
trial and drop it with the trial. It owns the triple's relative modular
operators, op and op_n, and hands them to the functions of Delta in
`entropy`. It keeps one entropy per (function, operator), which the gaps
and the Renyi gaps both read; `recovery_errors` and `support_leak` get its
cached decompositions. A caller that holds raw states and wants one quantity
builds a context for it (as `bounds.discrepancy_norm` does).
"""

from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from . import entropy, modular
from .algebra import SubalgebraSpec, conditional_expectation
from .errors import InvalidInput
from .linalg import SpectralDecomposition, as_matrix, eigh, hs_norm, psd_power
from .monotone import builtin_neg_power
from .recovery import recovery_errors, support_leak
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
    """Lazily computed quantities of one (rho, sigma, spec) triple. Matrix
    roles: "rho", "sigma", and "rho_n", "sigma_n" for the validated E(rho),
    E(sigma)."""

    def __init__(self, rho, sigma, spec: SubalgebraSpec):
        self.rho = make_density(rho)
        self.sigma = make_density(sigma)
        if self.rho.dim != spec.dim or self.sigma.dim != spec.dim:
            raise InvalidInput("state dimension does not match spec")
        self.spec = spec
        self._spectra = [x.validated for x in (self.rho, self.sigma)
                         if x.validated is not None]
        self._memo = {}

    def decompose(self, a) -> SpectralDecomposition:
        """eigh(a), once per distinct matrix: a matrix with the same bits as
        one already decomposed (E(x) = x on the full algebra, E(x) / Tr E(x)
        = E(x) at unit trace) gets that decomposition back."""
        m = as_matrix(a)
        for known, dec in self._spectra:
            if known.shape == m.shape and known.tobytes() == m.tobytes():
                return dec
        self._spectra.append((m, eigh(m)))
        return self._spectra[-1][1]

    def spectrum(self, role: str) -> SpectralDecomposition:
        return self.decompose(getattr(self, role).matrix)

    @_memoized
    def power(self, role: str, p: float) -> np.ndarray:
        """psd_power with pseudo-inverse powers."""
        return psd_power(self.spectrum(role), p)

    @cached_property
    def rho_n(self) -> DensityMatrix:
        return make_density(conditional_expectation(self.spec, self.rho.matrix),
                            self.decompose)

    @cached_property
    def sigma_n(self) -> DensityMatrix:
        return make_density(
            conditional_expectation(self.spec, self.sigma.matrix), self.decompose)

    @cached_property
    def op(self) -> modular.RelativeModularOperator:
        return modular.build(self.spectrum("sigma"), self.spectrum("rho"))

    @cached_property
    def op_n(self) -> modular.RelativeModularOperator:
        return modular.build(self.spectrum("sigma_n"), self.spectrum("rho_n"))

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

    @cached_property
    def recovery_errors(self) -> tuple[float, float]:
        return recovery_errors(self.rho, self.sigma, self.spec, self.decompose)

    @cached_property
    def support_leak(self) -> float:
        """The weight of sigma outside supp rho."""
        return support_leak(self.sigma.matrix, self.spectrum("rho"))

    @cached_property
    def support_leak_n(self) -> float:
        """The weight of E(sigma) outside supp E(rho)."""
        return support_leak(self.sigma_n.matrix, self.spectrum("rho_n"))
