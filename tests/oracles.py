"""Reference implementations that only the tests use.

Each computes a quantity of the package a second, independent way (dense
superoperators, trace formulas, explicit Choi matrices, Pick and Stieltjes
extrapolation, the integral representation evaluated by quadrature), or
checks a structural property the package relies on. `src/petzgap` does not
import this module; tests import it as `from oracles import ...`.
"""

import math

import numpy as np

from petzgap.algebra import (SubalgebraSpec, block_cores,
                             conditional_expectation)
from petzgap.bounds import generic_corollary_bound, json_safe
from petzgap.entropy import s_f
from petzgap.errors import (DomainError, InvalidInput, NotNormalized, NotPSD,
                            NumericalFailure, SpecInconsistent)
from petzgap.harness import dumps_report
from petzgap.linalg import (HERMITIAN_RTOL, SpectralDecomposition, as_matrix,
                            eigh, psd_power, support_projector)
from petzgap.modular import RelativeModularOperator, build
from petzgap.monotone import (MonotoneDecreasingRep, builtin_neg_log,
                              builtin_neg_power)
from petzgap.quadrature import integrate_halfline
from petzgap.recovery import PetzChannel
from petzgap.states import TRACE_TOL, make_density

# conditional expectation checks (validate_expectation)
VALIDATE_TOL = 1e-10
CHOI_TOL = -1e-10
# Petz channel checks (validate_petz)
PETZ_TP_TOL = 1e-9
PETZ_CHOI_TOL = -1e-9


# linalg

def spectral_apply(a, g, pseudo: bool = False) -> np.ndarray:
    """g(A) for Hermitian A via the spectral theorem.

    pseudo=True maps eigenvalues inside the zero threshold to 0 without
    evaluating g there (pseudo-inverse style). A non-finite g value on a
    retained eigenvalue raises DomainError.
    """
    dec = a if isinstance(a, SpectralDecomposition) else eigh(a)
    vals = np.empty(dec.dim, dtype=complex)
    for i, lam in enumerate(dec.eigenvalues):
        if pseudo and abs(lam) <= dec.zero_threshold:
            vals[i] = 0.0
            continue
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y = complex(g(float(lam.real) if np.isrealobj(dec.eigenvalues) else lam))
        if not np.isfinite(y):
            raise DomainError(f"function value not finite at eigenvalue {lam}")
        vals[i] = y
    v = dec.eigenvectors
    out = (v * vals) @ v.conj().T
    if np.abs(vals.imag).max(initial=0.0) == 0.0:
        out = (out + out.conj().T) / 2.0
    return out


def support_leak(state, reference) -> float:
    """Tr[state (1 - P)], the weight of state outside the support P of
    reference (a matrix or its SpectralDecomposition), from the dense
    projector."""
    p = support_projector(reference)
    m = np.asarray(state, dtype=complex)
    return float(np.trace(m @ (np.eye(p.shape[0]) - p)).real)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr[A^* B], conjugate-linear in A."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise InvalidInput(f"shape mismatch {ma.shape} vs {mb.shape}")
    return complex(np.trace(ma.conj().T @ mb))


def loop_power(dec: SpectralDecomposition, p: float) -> np.ndarray:
    """A^p with pseudo powers, raised one eigenvalue at a time in Python
    floats: the reference of linalg.pseudo_power and psd_power."""
    vals = np.zeros(dec.dim)
    for i, lam in enumerate(dec.eigenvalues.real):
        if lam > dec.zero_threshold:
            vals[i] = float(lam) ** p
    v = dec.eigenvectors
    out = (v * vals) @ v.conj().T
    return (out + out.conj().T) / 2.0


# discrepancies, from dense powers of the states of a PairContext

def _dense(ctx, *terms) -> tuple[np.ndarray, float]:
    """(sum of sign * prod of loop_power(state, p), sum of prod of the
    factors' operator norms) over terms (sign, [(role, p), ...]). The second
    value is the scale of the first's rounding error: a product of
    pseudo-inverse powers near a singular state is far larger than the
    difference it enters."""
    total, scale = 0.0, 0.0
    for sign, factors in terms:
        mats = [loop_power(getattr(ctx, role).spectrum, p) for role, p in factors]
        prod = mats[0]
        for m in mats[1:]:
            prod = prod @ m
        total = total + sign * prod
        scale += math.prod(np.linalg.norm(m, 2) for m in mats)
    return total, scale


def dense_discrepancy(ctx, beta: float) -> tuple[np.ndarray, float]:
    """sigmaN^b rhoN^-b rho^{1/2} - sigma^b rho^{1/2-b} and its scale."""
    return _dense(ctx, (1, [("sigma_n", beta), ("rho_n", -beta), ("rho", 0.5)]),
                  (-1, [("sigma", beta), ("rho", 0.5 - beta)]))


def dense_beta_free(ctx, beta: float) -> tuple[np.ndarray, float]:
    """sigmaN^b rhoN^-b - sigma^b rho^-b and its scale."""
    return _dense(ctx, (1, [("sigma_n", beta), ("rho_n", -beta)]),
                  (-1, [("sigma", beta), ("rho", -beta)]))


def dense_recovery_discrepancy(ctx) -> tuple[np.ndarray, float]:
    """sigmaN^{1/2} rhoN^{-1/2} rho^{1/2} - sigma^{1/2} (bare) and its
    scale."""
    return _dense(ctx, (1, [("sigma_n", 0.5), ("rho_n", -0.5), ("rho", 0.5)]),
                  (-1, [("sigma", 0.5)]))


def dense_kraus(ctx, role: str) -> tuple[np.ndarray, float]:
    """x^{1/2} E(x)^{-1/2} for role x = "rho" or "sigma", and its scale."""
    return _dense(ctx, (1, [(role, 0.5), (role + "_n", -0.5)]))


def dense_recovery_error(ctx, role: str) -> float:
    """|| R_x(E(y)) - y ||_1 for the reference state x = role and y the
    other state of ctx: the dense Kraus sandwich K_x E(y) K_x^*, with E
    applied to y, and the sum of the singular values."""
    y = ctx.sigma if role == "rho" else ctx.rho
    k, _ = dense_kraus(ctx, role)
    m = k @ conditional_expectation(ctx.spec, y.matrix) @ k.conj().T \
        - y.matrix
    return float(np.linalg.svd(m, compute_uv=False).sum())


def stacked_recovery_errors(ctx) -> list:
    """(e_rho, e_sigma) as the context formed both before the exact
    identities: the list of both sandwiches K_x E(y) K_x^* - y from the
    context's Kraus operators and states, stacked, then one eigvalsh of
    the Hermitian parts."""
    m = np.array([
        ctx.kraus(x) @ getattr(ctx, y + "_n").matrix @ ctx.kraus(x).conj().T
        - getattr(ctx, y).matrix
        for x, y in (("rho", "sigma"), ("sigma", "rho"))])
    m = (m + m.conj().swapaxes(-1, -2)) / 2.0
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1).tolist()


def stacked_w_t_moment(ctx, beta: float) -> np.ndarray:
    """The integral of t^b w_t over (0, inf), taken on the operator stack
    ctx.w_t at every node: the frames are applied at each node."""
    return integrate_halfline(
        lambda t: (t ** beta)[:, None, None] * ctx.w_t(t))


# states, prepared one matrix at a time

def reference_density(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(matrix, eigenvalues, eigenvectors) of make_density(a) for one
    matrix a, as it was computed before states were prepared in stacks:
    the Hermitian check, the trace check, a second Hermitian check and eigh
    of a / tr, then clip / renormalize / rebuild. Raises the error
    make_density raises for a alone."""
    m = hermitian(a)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotNormalized(f"trace {tr!r} is not 1 to tolerance")
    w, v = np.linalg.eigh(hermitian(m / tr))
    return reference_state(np.ascontiguousarray(w[::-1]),
                           np.ascontiguousarray(v[:, ::-1]))


def reference_state(w, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(matrix, eigenvalues, eigenvectors) of the state of one spectrum
    (w, v) of a matrix of unit trace, eigenvalues descending: NotPSD when
    the least eigenvalue is below minus the zero threshold, else w clipped
    at 0 and renormalized, and the matrix rebuilt from it."""
    if w[-1] < -1e-12 * max(1.0, float(np.abs(w).max())):
        raise NotPSD(f"eigenvalue {w[-1]!r} below -zero_threshold")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    clean = (v * w) @ v.conj().T
    return (clean + clean.conj().T) / 2.0, w, v


def hermitian(a) -> np.ndarray:
    """a as a complex matrix; InvalidInput unless Hermitian to
    HERMITIAN_RTOL times 1 + max |entry|."""
    m = as_matrix(a)
    if np.abs(m - m.conj().T).max() > HERMITIAN_RTOL * (1.0 + np.abs(m).max()):
        raise InvalidInput("matrix is not Hermitian to tolerance")
    return m


def reference_expectation_eigh(spec: SubalgebraSpec, x) -> tuple:
    """(eigenvalues, eigenvectors) of E(x) / Tr E(x) for one matrix x, as
    algebra.expectation_eigh computed them one state at a time: the cores
    of one size of this x in one stacked eigh, the eigenvectors V (W (x)
    1_m) of each block, merged in descending order."""
    cores = block_cores(spec, x)
    tr = sum(float(core.trace().real) * mult
             for core, (_, mult) in zip(cores, spec.blocks))
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotNormalized(f"trace {tr!r} is not 1 to tolerance")
    by_size = {}
    for core, (n, _) in zip(cores, spec.blocks):
        by_size.setdefault(n, []).append(core)
    pairs = {}
    for n, same in by_size.items():
        stack = np.array(same) / tr
        pairs[n] = list(zip(*np.linalg.eigh(stack))) if n > 1 \
            else [(core.real[0], None) for core in stack]
    d = spec.dim
    basis = np.eye(d, dtype=complex) if spec.basis is None else spec.basis
    vals, vecs = [], []
    off = 0
    for n, mult in spec.blocks:
        w, v = pairs[n].pop(0)
        cols = basis[:, off:off + n * mult]
        if v is not None:
            cols = (cols.reshape(d, n, mult).transpose(0, 2, 1)
                    .reshape(d * mult, n) @ v) \
                .reshape(d, mult, n).transpose(0, 2, 1).reshape(d, n * mult)
        vals.append(w.repeat(mult))
        vecs.append(cols)
        off += n * mult
    w = np.concatenate(vals)
    order = (-w).argsort(kind="stable")
    return w[order], np.concatenate(vecs, axis=1)[:, order]


# algebra

def partial_trace_view(spec: SubalgebraSpec, x) -> np.ndarray:
    """For a single-block (n, m) spec: trace over the multiplicity factor.

    Returns the n x n matrix P with E(X) = (1/m) * P (x) 1_m up to the basis
    rotation. Specs with more than one block have no single such view.
    """
    if len(spec.blocks) != 1:
        raise InvalidInput("partial_trace_view needs exactly one block")
    m = as_matrix(x)
    if m.shape != (spec.dim, spec.dim):
        raise InvalidInput("matrix dimension does not match spec")
    n, mult = spec.blocks[0]
    y = m if spec.basis is None else spec.basis.conj().T @ m @ spec.basis
    return np.einsum("iaja->ij", y.reshape(n, mult, n, mult))


def validate_expectation(spec: SubalgebraSpec) -> None:
    """Check E is an idempotent, self-adjoint, unital, trace-preserving
    positive projection; raises SpecInconsistent naming the failing property.

    Linear-map properties are checked on a matrix-unit basis (exact, not
    sampled); positivity via the Choi matrix of E.
    """
    d = spec.dim
    ident = np.eye(d, dtype=complex)
    e_of_1 = conditional_expectation(spec, ident)
    if np.abs(e_of_1 - ident).max() > VALIDATE_TOL:
        raise SpecInconsistent("unitality fails")
    # the d^2 matrix units E_ab, stacked at index a * d + b
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    images = conditional_expectation(spec, units)
    twice = conditional_expectation(spec, images)
    for e, img, img2 in zip(units, images, twice):
        if abs(np.trace(img) - np.trace(e)) > VALIDATE_TOL:
            raise SpecInconsistent("trace preservation fails")
        if np.abs(img2 - img).max() > VALIDATE_TOL:
            raise SpecInconsistent("idempotence fails")
    for i, e in enumerate(units):
        for k in range(i, len(units)):
            lhs = np.trace(images[i].conj().T @ units[k])
            rhs = np.trace(e.conj().T @ images[k])
            if abs(lhs - rhs) > VALIDATE_TOL:
                raise SpecInconsistent("self-adjointness fails")
    choi = sum(np.kron(img, e) for e, img in zip(units, images))
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    if w.min() < CHOI_TOL:
        raise SpecInconsistent("complete positivity fails (Choi not PSD)")


# modular

def _reassemble(dec: SpectralDecomposition) -> np.ndarray:
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T


def apply(op: RelativeModularOperator, x) -> np.ndarray:
    """Delta(X) = sigma X rho^+ computed directly."""
    m = np.asarray(x, dtype=complex)
    if m.shape != (op.dim, op.dim):
        raise InvalidInput("matrix dimension does not match operator")
    return _reassemble(op.sigma_dec) @ m @ psd_power(op.rho_dec, -1.0)


def superoperator_matrix(op: RelativeModularOperator) -> np.ndarray:
    """Dense d^2 x d^2 matrix of Delta under column-stacking vec.

    vec(sigma X rho^+) = (rho^+)^T (x) sigma vec(X) with vec(X) =
    X.flatten(order='F'). An independent cross-check for small dimensions.
    """
    return np.kron(psd_power(op.rho_dec, -1.0).T, _reassemble(op.sigma_dec))


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
    kept = op.kept_columns
    u_s = op.sigma_dec.eigenvectors
    u_r = op.rho_dec.eigenvectors[:, kept]
    coeff = u_s.conj().T @ m @ u_r
    eig = op.eigenvalues.reshape(op.dim, kept.size)
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


# entropy

def umegaki_trace(rho, sigma) -> float:
    """Tr[rho (log rho - log sigma)] from the trace formula (finite case
    only: supp rho in supp sigma).

    Uses pseudo-logarithms restricted to the supports; raises DomainError
    when the value is +inf.
    """
    r = make_density(rho)
    s = make_density(sigma)
    if math.isinf(s_f(builtin_neg_log(), build(s, r))):
        raise DomainError("relative entropy is infinite (support mismatch)")
    log_r = spectral_apply(r.matrix, math.log, pseudo=True)
    log_s = spectral_apply(s.matrix, math.log, pseudo=True)
    return float(np.trace(r.matrix @ (log_r - log_s)).real)


def power_trace(alpha: float, rho, sigma) -> float:
    """-Tr[sigma^alpha rho^(1-alpha)] from the trace formula (pseudo
    powers)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("alpha must lie in (0, 1)")
    r = make_density(rho)
    s = make_density(sigma)
    return -float(np.trace(
        psd_power(s.matrix, alpha) @ psd_power(r.matrix, 1.0 - alpha)).real)


# recovery

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
        if supported and abs(np.trace(out) - np.trace(u)) > PETZ_TP_TOL:
            raise NumericalFailure("trace preservation fails on the algebra")
    # Choi matrix over the compressed index: J[(ab)] = R(u_ab) (x) e_ab
    # blockwise per summand, one PSD check per summand.
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
        w = np.linalg.eigvalsh((j + j.conj().T) / 2.0)
        if w.size and w.min() < PETZ_CHOI_TOL:
            raise NumericalFailure("complete positivity fails (Choi not PSD)")


# monotone

def pick_coefficients(f) -> tuple[float, float]:
    """Extract (a, b) of an upper-half-plane analytic f with Im f >= 0.

    a = lim Re[f(iy)/(iy)], accelerated with one Aitken delta-squared step
    over y in {1e4, 1e5, 1e6} (a single large-y probe carries O(1/y) error,
    too coarse); b = Re[f(i)]. For a decreasing rep, pass the negated
    function: its data live on -f.
    """
    g = [(f(1j * y) / (1j * y)).real for y in (1e4, 1e5, 1e6)]
    denom = g[2] - 2.0 * g[1] + g[0]
    if abs(denom) < 1e-14 * (abs(g[2]) + 1e-30):
        a = g[2]
    else:
        a = g[2] - (g[2] - g[1]) ** 2 / denom
    b = (f(1j)).real
    if abs(a) < 1e-12:
        a = 0.0
    return float(a), float(b)


def stieltjes_density(f, t: float) -> float:
    """Recover w(t) = lim_{y->0+} Im[f(-t + iy)] / pi by extrapolation.

    f is the upper-half-plane analytic function carrying the measure (for a
    decreasing rep, pass the negated function). Two Richardson passes
    (ratio 10) over y in {1e-4, 1e-5, 1e-6}; raises NumericalFailure when
    the raw sequence is not settling (measure with a singular part, or f
    not analytic there).
    """
    if t <= 0.0:
        raise InvalidInput("density is defined for t > 0")
    ys = (1e-4, 1e-5, 1e-6)
    vals = [(f(-t + 1j * y)).imag / math.pi for y in ys]
    for k in range(2):
        if abs(vals[k + 1] - vals[k]) > 1e-3 * (1.0 + abs(vals[k + 1])):
            raise NumericalFailure(
                f"Stieltjes inversion not converging at t={t}")
    r1 = [(10.0 * vals[k + 1] - vals[k]) / 9.0 for k in range(2)]
    r2 = (100.0 * r1[1] - r1[0]) / 99.0
    return float(r2)


def constant_coefficient(rep: MonotoneDecreasingRep) -> float:
    """b = Re G(i) of G = -f in the representation -f(x) = b +
    integral (t/(t^2+1) - 1/(t+x)) w(t) dt, in closed form: 0 for neg-log
    (Re log i) and cos(alpha pi/2) for neg-power:alpha (Re i^alpha)."""
    if rep.alpha is None:
        return 0.0
    return math.cos(rep.alpha * math.pi / 2.0)


def represent(rep: MonotoneDecreasingRep, x: float) -> float:
    """Evaluate f(x) from the representation data (not from rep.eval): the
    density and the closed-form constant_coefficient."""
    if x <= 0.0:
        raise InvalidInput("representation evaluated for x > 0")

    def integrand(t):
        # t/(t^2+1) - 1/(t+x) written as one fraction: the two terms agree
        # to O(1/t^2) at large t and subtracting them directly loses all
        # significant digits exactly where power densities amplify the tail.
        return (t * x - 1.0) / ((t * t + 1.0) * (t + x)) * rep.density(t)

    return -(constant_coefficient(rep) + float(integrate_halfline(integrand)))


def verify_representation(rep: MonotoneDecreasingRep, n_points: int = 21) -> float:
    """Max abs deviation between rep.eval and its representation on
    [1e-2, 1e2] (log-spaced grid)."""
    err = 0.0
    for x in np.logspace(-2, 2, n_points):
        direct = float(rep.eval(float(x)))
        err = max(err, abs(represent(rep, float(x)) - direct))
    return err


def grid_c_constant(rep: MonotoneDecreasingRep, t: float, beta: float) -> float:
    """Regularity constant sup 1/w over the window [T_L^{-1}, T_R] around 1,
    estimated on a 1024-point log-spaced grid from the density alone. For
    T < 1 the nominal endpoints come out reversed; the grid spans the
    enclosing interval."""
    if beta <= 0.5:
        t_l, t_r = t, t ** (beta / (1.0 - beta))
    else:
        t_l, t_r = t ** ((1.0 - beta) / beta), t
    lo, hi = sorted((1.0 / t_l, t_r))
    grid = np.logspace(math.log10(lo), math.log10(hi), 1024)
    return float(np.max(1.0 / rep.density(grid)))


# bounds

def scalar_theorem_bound(alpha, beta: float, t, delta_norm: float,
                         gap: float):
    """T-family right-hand side at one T, in Python floats (libm pow), or
    elementwise over an array of T:

        2 (1/beta + ||Delta||/(1-beta)) T^{-k}
          + T^{n0} sqrt(C^f_{T,beta}) sqrt(gap)

    for f = -x^alpha, or f = -log x (alpha None), with C^f the sup of 1/w
    at the lower end min(T_L^{-1}, T_R) of the window, in closed form."""
    g = max(float(gap), 0.0)
    if math.isinf(g):
        return math.inf
    if beta <= 0.5:
        k = beta
        n0 = (1.0 - 2.0 * beta + 2.0 * beta ** 2) / (2.0 * (1.0 - beta))
        t_l, t_r = t, t ** (beta / (1.0 - beta))
    else:
        k, n0 = 1.0 - beta, beta
        t_l, t_r = t ** ((1.0 - beta) / beta), t
    if alpha is None:
        c_f = 1.0
    else:
        c_f = np.minimum(1.0 / t_l, t_r) ** (-alpha) \
            / (math.sin(alpha * math.pi) / math.pi)
    first = 2.0 * (1.0 / beta + delta_norm / (1.0 - beta))
    return first * t ** (-k) + t ** n0 * np.sqrt(c_f) * math.sqrt(g)


# report formats

def report_text(report: dict) -> str:
    """The JSON text of a report: the parts dumps_report returns, joined,
    which are the bytes cli.main writes."""
    return "".join(dumps_report(report))


# verify_v4 -> verify_v3: the values a v4 trial record leaves out, rebuilt

class RecordContext:
    """What generic_corollary_bound and theorem_report read of a PairContext
    (||Delta||, the gap of rep and the discrepancy at beta), from the
    quantities of a verify trial record; a "nan" or "inf" marker is read as
    its float."""

    def __init__(self, quantities: dict):
        self.quantities = quantities
        self.delta_norm = float(quantities["delta_norm"])

    def gap(self, rep: MonotoneDecreasingRep) -> float:
        return float(self.quantities["gap"][rep.name])

    def discrepancy(self, beta: float) -> float:
        return float(self.quantities["discrepancy"][repr(beta)])


def k_generic(rep: MonotoneDecreasingRep, beta: float, ctx) -> float:
    """The constant K_gap of generic_corollary_bound(rep, beta, ctx), the
    theorem optimized over T with the T >= 1 piece of C^f: what a verify_v3
    corollary of rep recorded as K_generic, and recovery-chain (neg-log,
    beta = 1/2) as K_gap."""
    return math.exp(generic_corollary_bound(rep, beta, ctx)
                    .constants["log_K_gap"])


def k_log3(delta_norm: float) -> float:
    """(pi/4)^4 (1 + ||Delta||)^-2, the closed-form beta = 1/2 constant of
    the relative-entropy corollary that verify_v3 recorded as K_log3."""
    return (math.pi / 4.0) ** 4 * (1.0 + delta_norm) ** (-2.0)


def expand_v4(record: dict) -> dict:
    """The verify_v3 form of a verify_v4 trial record (parsed JSON): every
    report gets back its empty constants, rhs_values, margins and flags,
    and each dropped constant is rebuilt by its rule from the report and
    the trial's quantities:

      K_L, K_U      exp(log_K_L), exp(log_K_U)
      K_generic     k_generic of the corollary's function and beta
      K_log3        k_log3(||Delta||), corollary-log at beta = 1/2
      K_gap         k_generic(neg-log, 1/2), recovery-chain
      lhs           pi/sin(beta pi) discrepancy[beta], theorem:f

    An error record has no reports and comes back as it is."""
    if record["status"] != "ok":
        return record
    ctx = RecordContext(record["quantities"])
    reports = []
    for report in record["reports"]:
        name, beta = report["name"], report["beta"]
        family, _, arg = name.partition(":")
        constants = dict(report.get("constants", {}))
        for key in ("K_L", "K_U"):
            if "log_" + key in constants:
                constants[key] = math.exp(constants["log_" + key])
        if family in ("corollary-log", "corollary-power"):
            rep = builtin_neg_log() if family == "corollary-log" \
                else builtin_neg_power(float(arg))
            constants["K_generic"] = k_generic(rep, beta, ctx)
            if family == "corollary-log" and beta == 0.5:
                constants["K_log3"] = k_log3(ctx.delta_norm)
        elif family == "theorem":
            constants["lhs"] = math.pi / math.sin(beta * math.pi) \
                * ctx.discrepancy(beta)
        elif family == "recovery-chain":
            constants["K_gap"] = k_generic(builtin_neg_log(), 0.5, ctx)
        reports.append({"name": name, "beta": beta,
                        "constants": json_safe(constants),
                        "rhs_values": report.get("rhs_values", {}),
                        "margins": report.get("margins", {}),
                        "flags": report.get("flags", [])})
    return dict(record, reports=reports)
