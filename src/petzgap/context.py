"""PairContext: each quantity of one (rho, sigma, spec) trial, computed once.

The bounds all read the same few quantities of a triple. A context computes
each on first use and keeps it for its own lifetime only: build one per
trial and drop it with the trial. Its spectra are the ones its states carry
(DensityMatrix.spectrum), from one stacked eigh per dimension per block of
trials. E(rho) and E(sigma) are diagonalized through their block cores, in
one algebra.expectation_eigh, where no matrix is larger than the largest core:
none at all when every core is 1 x 1 (the trivial algebra), and none when E
is the identity, since E(x) is then x itself, op_n is op and every E = id
gap is exactly 0. It owns the relative modular operators op and op_n, and
keeps one entropy per (function, operator), which the gaps and Renyi gaps
share and the functions of a trial take from one pass over each operator
(entropies, entropy.entropies), and one quadrature reconstruction per
function, which they take from one shared integral
(entropy.reconstructions).
The support leaks are read from the overlaps of op and op_n, and the
recovery errors are trace norms of Hermitian matrices, from their
eigenvalues (no SVD, no support projector).

The discrepancies and Kraus operators are products of powers of the four
states, and are computed in the frame of the eigenbases of sigma (left) and
rho (right), where every power is a vector of pseudo powers of eigenvalues
(linalg.pseudo_power) and the Hilbert-Schmidt norm is the same. Two basis
changes per trial, P1 = V_sigma^H V_sigmaN and P2 = V_rhoN^H V_rho, carry the
E(sigma) and E(rho) eigenbases into that frame; each read of
D_b = P1 sigmaN^b rhoN^-b P2 - sigma^b rho^-b costs two products, and
both norms of a beta are read from one D_b, which is not kept;
discrepancy_matrix(b) is D_b rho^{1/2} in that frame. The proof's w_t
(which bounds.proof_internals reads) is formed in the same frame from the
overlaps of op and op_n and the frames, and so is its moment (w_t_moment):
one quadrature of the scalar kernels of w_t, then the frames. When E is the
identity there are no frames, the two terms of D_b are the same numbers,
and every discrepancy is exactly 0: D_b, w_t and its moment are returned
as zeros, not computed. No dense power of a state is formed. A
caller with raw states builds a context for one quantity (as
`bounds.discrepancy_norm` and `recovery.recovery_errors` do).
"""

from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from . import entropy, modular
from .algebra import SubalgebraSpec, expectation_eigh
from .errors import InvalidInput
from .linalg import hs_norm, pseudo_power, trace_norm
from .monotone import builtin_neg_power
from .quadrature import integrate_halfline
from .states import DensityMatrix, from_spectrum, make_density


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


def _kernel(t, e):
    """h(t, e) = 1/(t + e) of w_t, in its far form -e/(t (t + e)) =
    1/(t + e) - 1/t where t > 1: the 1/t parts of w_t's two sides cancel
    (U(rhoN^{1/2}) = rho^{1/2}), and left in they would wipe out the
    O(1/t^2) digits the tail quadrature needs."""
    return np.where(t <= 1.0, 1.0, -e / t) / (t + e)


def _ratio(op: modular.RelativeModularOperator, beta: float) -> np.ndarray:
    """s^b r^-b for op = Delta_{s,r}, in the eigenbasis of s on the left and
    of r on the right: diag(mu^b) O diag(lam^-b), O = op.overlaps."""
    return pseudo_power(op.sigma_dec, beta)[:, None] * op.overlaps \
        * pseudo_power(op.rho_dec, -beta)[None, :]


class PairContext:
    """Lazily computed quantities of one (rho, sigma, spec) triple. State
    roles: "rho", "sigma", and "rho_n", "sigma_n" for E(rho), E(sigma).
    e_is_identity: E is the identity, which holds exactly when the algebra
    is all of M_d, one (dim, 1) block in any basis; then E(x) is x itself,
    op_n is op, and there are no frames."""

    def __init__(self, rho, sigma, spec: SubalgebraSpec):
        self.rho = make_density(rho)
        self.sigma = make_density(sigma)
        if self.rho.dim != spec.dim or self.sigma.dim != spec.dim:
            raise InvalidInput("state dimension does not match spec")
        self.spec = spec
        self.e_is_identity = spec.blocks == [(spec.dim, 1)]
        self._memo = {}

    @cached_property
    def _expectations(self) -> list:
        """The states E(rho), E(sigma); rho and sigma themselves when E is
        the identity."""
        if self.e_is_identity:
            return [self.rho, self.sigma]
        return from_spectrum(expectation_eigh(
            self.spec, np.array([self.rho.matrix, self.sigma.matrix])))

    @cached_property
    def rho_n(self) -> DensityMatrix:
        return self._expectations[0]

    @cached_property
    def sigma_n(self) -> DensityMatrix:
        return self._expectations[1]

    @cached_property
    def op(self) -> modular.RelativeModularOperator:
        return modular.build(self.sigma.spectrum, self.rho.spectrum)

    @cached_property
    def op_n(self) -> modular.RelativeModularOperator:
        """Delta_{E(sigma),E(rho)}: op itself when E is the identity."""
        if self.e_is_identity:
            return self.op
        return modular.build(self.sigma_n.spectrum, self.rho_n.spectrum)

    @cached_property
    def delta_norm(self) -> float:
        return modular.operator_norm(self.op)

    def entropies(self, reps) -> None:
        """Compute the entropy of each rep on op and on op_n, kept per (rep,
        operator): the reps not yet computed share one pass over each
        operator (entropy.entropies); when E is the identity, op_n's
        entropies are op's."""
        for role in ("op", "op_n"):
            todo = [rep for rep in dict.fromkeys(reps)
                    if ("s_f", rep, role) not in self._memo]
            if not todo:
                continue
            if role == "op_n" and self.e_is_identity:
                values = [self._memo["s_f", rep, "op"] for rep in todo]
            else:
                values = entropy.entropies(todo, getattr(self, role))
            self._memo.update(zip([("s_f", rep, role) for rep in todo],
                                  values))

    def s_f(self, rep, role: str) -> float:
        """The entropy of rep on op or op_n (role "op" or "op_n")."""
        if ("s_f", rep, role) not in self._memo:
            self.entropies([rep])
        return self._memo["s_f", rep, role]

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

    def reconstructions(self, reps) -> list:
        """(S_f, gap) of each rep rebuilt by quadrature
        (entropy.reconstructions), kept per rep: the reps not yet rebuilt
        share one integral."""
        todo = list(dict.fromkeys(
            rep for rep in reps if ("reconstructions", rep) not in self._memo))
        if todo:
            values = entropy.reconstructions(todo, self.op, self.op_n)
            for rep, column in zip(todo, values.T.tolist()):
                self._memo["reconstructions", rep] = tuple(column)
        return [self._memo["reconstructions", rep] for rep in reps]

    def reconstruct_gap(self, rep) -> float:
        return self.reconstructions([rep])[0][1]

    @cached_property
    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        """(P1, P2) = (V_sigma^H V_sigmaN, V_rhoN^H V_rho), the basis
        changes from the eigenbases of E(sigma) and E(rho) to those of sigma
        and rho; read only when E is not the identity."""
        return (self.sigma.spectrum.eigenvectors.conj().T
                @ self.sigma_n.spectrum.eigenvectors,
                self.rho_n.spectrum.eigenvectors.conj().T
                @ self.rho.spectrum.eigenvectors)

    def _ratio_n(self, beta: float) -> np.ndarray:
        """sigmaN^b rhoN^-b in the frame of sigma (left) and rho (right)."""
        x = _ratio(self.op_n, beta)
        if self.e_is_identity:
            return x
        p1, p2 = self.frames
        return p1 @ x @ p2

    def _difference(self, beta: float) -> np.ndarray:
        """D_b = sigmaN^b rhoN^-b - sigma^b rho^-b in the frame of sigma
        (left) and rho (right), formed anew on each read. When E is the
        identity both terms are the same numbers and D_b is exactly 0."""
        if self.e_is_identity:
            return np.zeros((self.op.dim, self.op.dim), dtype=complex)
        return self._ratio_n(beta) - _ratio(self.op, beta)

    @cached_property
    def _sqrt_rho(self) -> np.ndarray:
        """rho^{1/2} in the frame, as a row that scales the columns."""
        return pseudo_power(self.rho.spectrum, 0.5)[None, :]

    def discrepancy_matrix(self, beta: float) -> np.ndarray:
        """D_b rho^{1/2}, the matrix sigmaN^b rhoN^-b rho^{1/2} -
        sigma^b rho^{1/2-b} (pseudo powers) in the frame of sigma (left) and
        rho (right); its columns outside supp rho are 0."""
        return self._difference(beta) * self._sqrt_rho

    def _combine(self, k_n, k) -> np.ndarray:
        """(P1 (O_N k_n) P2 - O k) lam^{1/2}, (T, d, kept), from kernel stacks
        (d, T, kept_N) and (d, T, kept): two GEMMs for all T. Read only
        when E is not the identity."""
        op, op_n = self.op, self.op_n
        d, kept, kept_n = op.dim, op.kept_columns, op_n.kept_columns
        p1, p2 = self.frames
        n_side = op_n.overlaps[:, kept_n][:, None, :] * k_n
        n_side = ((p1 @ n_side.reshape(d, -1)).reshape(-1, kept_n.size)
                  @ p2[kept_n][:, kept]).reshape(d, -1, kept.size)
        w = (n_side - op.overlaps[:, kept][:, None, :] * k) \
            * np.sqrt(op.rho_dec.eigenvalues.real[kept])
        return w.transpose(1, 0, 2)

    def w_t(self, t) -> np.ndarray:
        """The proof's w_t = U((t + DeltaN)^{-1} rhoN^{1/2}) - (t + Delta)^{-1}
        rho^{1/2}, U(X) = E(X) rhoN^{-1/2} rho^{1/2}, at each t of a 1-D
        array: the stack (t.size, d, kept) in the frame of sigma (left) and
        rho's kept columns (right), where t + Delta scales entry ij by
        t + e_ij. (t + Delta)^{-1} rho^{1/2} is O lam^{1/2} h(t, e), and
        (t + DeltaN)^{-1} rhoN^{1/2} lies in N, so U of it is
        P1 (O_N h(t, e_N)) P2 lam^{1/2} with no E. With E = id, w_t is 0."""
        t = np.asarray(t, dtype=float)[:, None]
        if self.e_is_identity:
            return np.zeros((t.size, self.op.dim, self.op.kept_columns.size),
                            dtype=complex)
        k_n, k = (_kernel(t, o.eigenvalues.reshape(o.dim, 1, -1))
                  for o in (self.op_n, self.op))
        return self._combine(k_n, k)

    def w_t_moment(self, beta: float) -> np.ndarray:
        """The integral of t^b w_t over (0, inf), (d, kept): one quadrature
        of t^b h(t, e) at the eigenvalues of op_n and op side by side, a real
        (nodes, d kept_N + d kept) array, then the frames, once."""
        if self.e_is_identity:
            return np.zeros((self.op.dim, self.op.kept_columns.size),
                            dtype=complex)
        e_n, e = self.op_n.eigenvalues, self.op.eigenvalues
        k = integrate_halfline(lambda t: (t ** beta)[:, None]
                               * _kernel(t[:, None], np.concatenate([e_n, e])))
        d, n = self.op.dim, e_n.size
        return self._combine(k[:n].reshape(d, 1, -1),
                             k[n:].reshape(d, 1, -1))[0]

    @_memoized
    def _norms(self, beta: float) -> tuple[float, float]:
        """(|| D_b rho^{1/2} ||_2, || D_b ||_2) from one transient D_b."""
        diff = self._difference(beta)
        return hs_norm(diff * self._sqrt_rho), hs_norm(diff)

    @_memoized
    def discrepancy(self, beta: float) -> float:
        """|| D_b rho^{1/2} ||_2, the norm of discrepancy_matrix(b): the
        Hilbert-Schmidt norm does not change under the frame's unitaries."""
        return self._norms(beta)[0]

    @_memoized
    def beta_free(self, beta: float) -> float:
        """|| sigmaN^b rhoN^-b - sigma^b rho^-b ||_2 = || D_b ||_2."""
        return self._norms(beta)[1]

    @cached_property
    def recovery_discrepancy(self) -> float:
        """|| sigmaN^{1/2} rhoN^{-1/2} rho^{1/2} - sigma^{1/2} ||_2 with a
        bare (unprojected) sigma^{1/2}, in the frame."""
        bare = pseudo_power(self.sigma.spectrum, 0.5)[:, None] \
            * self.op.overlaps
        return hs_norm(self._ratio_n(0.5) * self._sqrt_rho - bare)

    @_memoized
    def kraus(self, role: str) -> np.ndarray:
        """x^{1/2} E(x)^{-1/2} for x = rho or sigma: the Kraus operator of
        the Petz map R_x (see `recovery`), V_x diag(x^{1/2}) (V_x^H V_xN)
        diag(xN^{-1/2}) V_xN^H with the frame as the middle factor."""
        x = getattr(self, role).spectrum
        x_n = getattr(self, role + "_n").spectrum
        left = pseudo_power(x, 0.5)
        right = pseudo_power(x_n, -0.5)
        if self.e_is_identity:
            v = x.eigenvectors
            return (v * (left * right)) @ v.conj().T
        p1, p2 = self.frames
        middle = p1 if role == "sigma" else p2.conj().T
        return x.eigenvectors @ (left[:, None] * middle * right[None, :]) \
            @ x_n.eigenvectors.conj().T

    def _recovery_error(self, x: str, y: str) -> float:
        """|| R_x(E(y)) - y ||_1, the trace norm of a Hermitian matrix."""
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
        return modular.support_leak(self.op)

    @cached_property
    def support_leak_n(self) -> float:
        """The weight of E(sigma) outside supp E(rho)."""
        return modular.support_leak(self.op_n)

    def quantities(self) -> dict:
        """What is computed so far, from the memo: delta_norm, e_rho, e_sigma,
        recovery_discrepancy, the support leaks, gap by function name,
        renyi_gap by repr(alpha), discrepancy, beta_free by repr(beta)."""
        out = {"gap": {}, "renyi_gap": {}, "discrepancy": {}, "beta_free": {}}
        for slot, value in self._memo.items():
            into = out.get(slot[0])
            if into is not None:
                key = slot[1].name if slot[0] == "gap" else repr(slot[1])
                into[key] = value
        computed = vars(self)
        out.update((k, computed[k]) for k in ("delta_norm", "support_leak",
                   "recovery_discrepancy", "support_leak_n") if k in computed)
        if "recovery_errors" in computed:
            out["e_rho"], out["e_sigma"] = computed["recovery_errors"]
        return out
