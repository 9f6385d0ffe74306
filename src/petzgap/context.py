"""PairContext: each quantity of one (rho, sigma, spec) trial, computed once.

The bounds all read the same few quantities of a triple. A context computes
each on first use and keeps it for its own lifetime only: build one per
trial and drop it with the trial. Its spectra are the ones its states carry
(DensityMatrix.spectrum), from one stacked eigh per dimension per block of
trials. A context owns op and op_n and keeps one entropy per (function,
operator), which the gaps and Renyi gaps share, taken for all functions of
a trial in one pass over each operator (entropy.entropies), and one
quadrature reconstruction per function, from one shared integral
(entropy.reconstructions). The support leaks are read from the overlaps of
op and op_n.

PairContext holds the general formulas, which hold for any subalgebra.
E(rho) and E(sigma) are diagonalized through their block cores, in one
algebra.expectation_eigh (no matrix larger than the largest core). The
discrepancies and Kraus operators are products of powers of the four
states, and are computed in the frame of the eigenbases of sigma (left) and
rho (right), where every power is a vector of pseudo powers of eigenvalues
(linalg.pseudo_power) and the Hilbert-Schmidt norm is the same. Two basis
changes per trial, P1 = V_sigma^H V_sigmaN and P2 = V_rhoN^H V_rho, carry the
E(sigma) and E(rho) eigenbases into that frame; each read of
D_b = P1 sigmaN^b rhoN^-b P2 - sigma^b rho^-b costs two products, and
both norms of a beta are read from one D_b, which is not kept (its first
term is at b = 1/2, for the recovery discrepancy too);
discrepancy_matrix(b) is D_b rho^{1/2} in that frame. The proof's w_t
(which bounds.proof_internals reads) is formed in the same frame from the
overlaps of op and op_n and the frames, and so is its moment (w_t_moment):
one quadrature of the scalar kernels of w_t, then the frames. The recovery
errors are the trace norms of their Kraus sandwiches, Hermitian matrices,
from their eigenvalues, all in one linalg.trace_norm call. No dense power
of a state is formed.

Two algebras carry exact identities, and PairContext(rho, sigma, spec)
returns a subclass for each, decided once from spec.blocks: _Identity for
all of M_d (E = id) and _Trace for C 1 (E the trace). Each overrides only
what its identities decide and states them in its docstring. A caller with
raw states builds a context for one quantity (as `bounds.discrepancy_norm`
and `recovery.recovery_errors` do).
"""

from __future__ import annotations

from functools import cache, cached_property, wraps

import numpy as np

from . import entropy, modular
from .algebra import SubalgebraSpec, expectation_eigh
from .errors import InvalidInput
from .linalg import SpectralDecomposition, hs_norm, pseudo_power, trace_norm
from .monotone import builtin_neg_power
from .quadrature import integrate_halfline
from .states import DensityMatrix, from_spectrum, make_density


def _memoized(method):
    """Keep method(self, key), never None, in self._memo under (name, key):
    one lookup a read. A rep key is the rep object (one shared object per
    function), so every bound that asks for the same gap hits."""
    name = method.__name__

    @wraps(method)
    def cached(self, key):
        value = self._memo.get((name, key))
        if value is None:
            value = self._memo[name, key] = method(self, key)
        return value
    return cached


@cache
def _flat(d: int) -> tuple:
    """(the flat state 1/d, eigenvalues 1/d and eigenvectors I; the identity
    operator, eigenvalues 1 and overlaps I), exact and read-only: E(rho),
    E(sigma) and op_n of every trivial-algebra trial of dimension d."""
    eye = np.eye(d, dtype=complex)
    dec = SpectralDecomposition(np.full(d, 1.0 / d), eye)
    op = modular.RelativeModularOperator(
        d, dec, dec, np.ones(d * d), np.eye(d).ravel() / d, np.arange(d), eye)
    flat = DensityMatrix(eye / d, dec)
    for a in (eye, flat.matrix, dec.eigenvalues, op.eigenvalues, op.weights,
              op.kept_columns):
        a.flags.writeable = False
    return flat, op


@cache
def _flat_entropies(d: int, reps: tuple) -> tuple:
    """The entropies of reps on _flat(d)'s operator, in one pass, once per
    (d, reps): a rep's entropy is the same bits whichever reps share it."""
    return tuple(entropy.entropies(reps, _flat(d)[1]))


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
    """Lazily computed quantities of one (rho, sigma, spec) triple, by the
    general formulas. State roles: "rho", "sigma", and "rho_n", "sigma_n"
    for E(rho), E(sigma). Constructing one returns an _Identity or a _Trace
    where spec is all of M_d or C 1."""

    def __new__(cls, rho, sigma, spec: SubalgebraSpec):
        if cls is PairContext:
            if spec.blocks == [(spec.dim, 1)]:
                cls = _Identity
            elif spec.blocks == [(1, spec.dim)]:
                cls = _Trace
        return super().__new__(cls)

    def __init__(self, rho, sigma, spec: SubalgebraSpec):
        self.rho = make_density(rho)
        self.sigma = make_density(sigma)
        if self.rho.dim != spec.dim or self.sigma.dim != spec.dim:
            raise InvalidInput("state dimension does not match spec")
        self.spec = spec
        self._memo = {}

    @cached_property
    def _expectations(self) -> list:
        """The states E(rho), E(sigma)."""
        decs = expectation_eigh(
            self.spec, np.array([self.rho.matrix, self.sigma.matrix]))
        return from_spectrum(np.array([x.eigenvalues for x in decs]),
                             np.array([x.eigenvectors for x in decs]))

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
        """Delta_{E(sigma),E(rho)}."""
        return modular.build(self.sigma_n.spectrum, self.rho_n.spectrum)

    @cached_property
    def delta_norm(self) -> float:
        return modular.operator_norm(self.op)

    def entropies(self, reps) -> None:
        """Compute the entropy of each rep on op and on op_n, kept per (rep,
        operator): the reps not yet computed share one pass over each
        operator, op's first."""
        for role in ("op", "op_n"):
            todo = [rep for rep in dict.fromkeys(reps)
                    if ("s_f", rep, role) not in self._memo]
            if todo:
                values = self._entropies_n(todo) if role == "op_n" \
                    else entropy.entropies(todo, self.op)
                self._memo.update(zip([("s_f", rep, role) for rep in todo],
                                      values))

    def _entropies_n(self, reps) -> list:
        """The entropies of reps on op_n, in one pass."""
        return entropy.entropies(reps, self.op_n)

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
        and rho."""
        return (self.sigma.spectrum.eigenvectors.conj().T
                @ self.sigma_n.spectrum.eigenvectors,
                self.rho_n.spectrum.eigenvectors.conj().T
                @ self.rho.spectrum.eigenvectors)

    def _ratio_n(self, beta: float) -> np.ndarray:
        """sigmaN^b rhoN^-b in the frame of sigma (left) and rho (right)."""
        p1, p2 = self.frames
        return p1 @ _ratio(self.op_n, beta) @ p2

    def _difference(self, beta: float) -> np.ndarray:
        """D_b = sigmaN^b rhoN^-b - sigma^b rho^-b in the frame of sigma
        (left) and rho (right), formed anew on each read."""
        ratio_n = self._half_ratio_n if beta == 0.5 else self._ratio_n(beta)
        return ratio_n - _ratio(self.op, beta)

    @cached_property
    def _half_ratio_n(self) -> np.ndarray:
        """_ratio_n(1/2), which D_{1/2} and the recovery discrepancy share."""
        return self._ratio_n(0.5)

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
        (d, T, kept_N) and (d, T, kept): two GEMMs for all T."""
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
        P1 (O_N h(t, e_N)) P2 lam^{1/2} with no E."""
        t = np.asarray(t, dtype=float)[:, None]
        k_n, k = (_kernel(t, o.eigenvalues.reshape(o.dim, 1, -1))
                  for o in (self.op_n, self.op))
        return self._combine(k_n, k)

    def w_t_moment(self, beta: float) -> np.ndarray:
        """The integral of t^b w_t over (0, inf), (d, kept): one quadrature
        of t^b h(t, e) at the eigenvalues of op_n and op side by side, a real
        (nodes, d kept_N + d kept) array, then the frames, once."""
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
        return hs_norm(self._half_ratio_n * self._sqrt_rho - bare)

    @_memoized
    def kraus(self, role: str) -> np.ndarray:
        """x^{1/2} E(x)^{-1/2} for x = rho or sigma: the Kraus operator of
        the Petz map R_x (see `recovery`), V_x diag(x^{1/2}) (V_x^H V_xN)
        diag(xN^{-1/2}) V_xN^H with the frame as the middle factor."""
        x = getattr(self, role).spectrum
        x_n = getattr(self, role + "_n").spectrum
        left = pseudo_power(x, 0.5)
        right = pseudo_power(x_n, -0.5)
        p1, p2 = self.frames
        middle = p1 if role == "sigma" else p2.conj().T
        return x.eigenvectors @ (left[:, None] * middle * right[None, :]) \
            @ x_n.eigenvectors.conj().T

    @cached_property
    def recovery_errors(self) -> tuple[float, float]:
        """(e_rho, e_sigma) = (|| R_rho(E(sigma)) - sigma ||_1,
        || R_sigma(E(rho)) - rho ||_1), R_x(y) = K_x y K_x^* with K_x =
        kraus(x): the trace norm of K_x E(y) K_x^* - y, all of them from one
        linalg.trace_norm call (one stacked eigvalsh), but an error that
        _recovers_exactly(x) decides is 0."""
        dense = {}
        for x, y in (("rho", "sigma"), ("sigma", "rho")):
            if not self._recovers_exactly(x):
                k = self.kraus(x)
                dense[x] = k @ getattr(self, y + "_n").matrix @ k.conj().T \
                    - getattr(self, y).matrix
        errors = dict(zip(dense, trace_norm(list(dense.values())))) \
            if dense else {}
        return errors.get("rho", 0.0), errors.get("sigma", 0.0)

    def _recovers_exactly(self, role: str) -> bool:
        """Whether R_x(E(y)) = y exactly for reference state x = role and
        the other state y, whatever y is."""
        return False

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


class _Identity(PairContext):
    """E = id: the algebra is all of M_d, one (dim, 1) block in any basis
    (d = 1 included). E(x) is x itself, so op_n is op, whose entropies it
    shares, every gap is exactly 0, and the frames are exact identity
    matrices. The two terms of D_b are then the same numbers, so D_b, w_t
    and its moment are exactly 0, returned as zeros, and both norms of D_b
    as 0.0, not computed. R_x(y) = P_x y P_x with P_x the support projector
    of x, so a recovery error whose reference state x is invertible is
    exactly 0, and so is the recovery discrepancy
    || sigma^{1/2} (P_rho - 1) ||_2 when rho is."""

    @cached_property
    def _expectations(self) -> list:
        return [self.rho, self.sigma]

    @cached_property
    def op_n(self) -> modular.RelativeModularOperator:
        return self.op

    def _entropies_n(self, reps) -> list:
        return [self._memo["s_f", rep, "op"] for rep in reps]

    @cached_property
    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.eye(self.spec.dim),) * 2

    def _difference(self, beta: float) -> np.ndarray:
        return np.zeros((self.op.dim, self.op.dim), dtype=complex)

    def _norms(self, beta: float) -> tuple[float, float]:
        return 0.0, 0.0

    def w_t(self, t) -> np.ndarray:
        return np.zeros((np.size(t), self.op.dim, self.op.kept_columns.size),
                        dtype=complex)

    def w_t_moment(self, beta: float) -> np.ndarray:
        return np.zeros((self.op.dim, self.op.kept_columns.size),
                        dtype=complex)

    @cached_property
    def recovery_discrepancy(self) -> float:
        return 0.0 if self.rho.is_invertible else super().recovery_discrepancy

    def _recovers_exactly(self, role: str) -> bool:
        return getattr(self, role).is_invertible


class _Trace(PairContext):
    """E the trace: the algebra is C 1, one (1, dim) block in any basis, and
    E(x) = Tr(x) 1/d, taken exactly: E(rho) and E(sigma) are the flat state
    1/d of _flat (eigenvalues 1/d, eigenvectors I), op_n is its identity
    operator (every eigenvalue 1), and op_n's entropies are _flat_entropies',
    all built once per dimension, read-only and shared by every trivial
    context of that dimension. sigmaN^b rhoN^-b = 1 is op.overlaps in the
    frame, so D_b and the recovery discrepancy take no product.
    R_rho(E(sigma)) = rho and R_sigma(E(rho)) = sigma, so both recovery
    errors are || rho - sigma ||_1, one trace norm."""

    @cached_property
    def _expectations(self) -> list:
        return [_flat(self.spec.dim)[0]] * 2

    @cached_property
    def op_n(self) -> modular.RelativeModularOperator:
        return _flat(self.spec.dim)[1]

    def _entropies_n(self, reps) -> tuple:
        return _flat_entropies(self.spec.dim, tuple(reps))

    def _ratio_n(self, beta: float) -> np.ndarray:
        return self.op.overlaps

    @cached_property
    def recovery_errors(self) -> tuple[float, float]:
        e = trace_norm(self.rho.matrix - self.sigma.matrix)
        return e, e
