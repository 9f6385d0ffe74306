"""PairContext on the identity expectation, and its discrepancies against
the dense-power oracles.

E = id gives E(x) = x itself and op_n is op, so every gap is exactly 0, with
or without a rotated basis, and so is every discrepancy: with no basis change the two
terms of D_b are the same numbers. The context then returns D_b, w_t and its
moment as zeros without forming them; a twin context whose op_n is a copy of
op (equal, but not op itself) takes the general formulas, and they must give
the same zeros bit for bit. E the trace gives E(x) = 1/d, op_n = 1 and
sigmaN^b rhoN^-b = 1, taken as exact identities; a twin told E is not the
trace takes the general formulas, and the two must agree to the rule below.

The context computes discrepancies and Kraus operators in the eigenbases of
sigma and rho; tests/oracles.py multiplies dense powers of the four states.
They must agree to 1e-12 times the larger of 1 and the oracle's scale, the
sum of the products of its factors' norms, which bounds the oracle's own
rounding: near a singular state a pseudo-inverse power is far larger than
the difference it enters.
"""

import itertools
import math

import numpy as np
import pytest

from oracles import (dense_beta_free, dense_discrepancy, dense_kraus,
                     dense_recovery_discrepancy, loop_power,
                     stacked_w_t_moment, support_leak)
from petzgap import entropy, modular
from petzgap.algebra import SubalgebraSpec, full_spec
from petzgap.bounds import beta_free_discrepancy
from petzgap.context import PairContext
from petzgap.bounds import contraction_probes, proof_internals
from petzgap.harness import (SPEC_KINDS, ExperimentConfig, run_reconstruct,
                             run_trial, spec_for)
from petzgap.monotone import builtin_neg_log, rep_from_name

from conftest import ginibre, haar_unitary, near_singular

BETAS = (0.01, 0.25, 0.5, 0.75, 0.99)
ORACLE_RTOL = 1e-12
LEAK_ATOL = 1e-14


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_identity_expectation_gaps_are_exactly_zero(dim, rotated):
    spec = full_spec(dim)
    if rotated:
        spec = SubalgebraSpec(dim=dim, blocks=[(dim, 1)],
                              basis=haar_unitary(np.random.default_rng(dim),
                                                 dim))
    ctx = PairContext(ginibre(dim, dim, 300 + dim), ginibre(dim, dim, 400 + dim),
                      spec)
    assert ctx.rho_n is ctx.rho
    assert ctx.sigma_n is ctx.sigma
    assert ctx.op_n is ctx.op
    for name in ("neg-log", "neg-power:0.5"):
        assert ctx.gap(rep_from_name(name)) == 0.0
    assert ctx.renyi_gap(0.5) == 0.0


def test_identity_expectation_discrepancies_are_exactly_zero():
    config = ExperimentConfig(trials=20, dims=[2, 3, 4, 6, 8],
                              beta_grid=list(BETAS))
    reps = [rep_from_name(n) for n in config.functions]
    checked = 0
    theorems = 0
    for i in range(config.trials):
        if config.specs[i % len(config.specs)] != "full":
            continue
        record = run_trial(config, i, reps)
        for name in ("discrepancy", "beta_free"):
            for beta, value in record.quantities[name].items():
                checked += 1
                assert value == 0.0, (i, name, beta)
        # so the theorem's left side is 0, and so is its right side at the
        # exact minimum over T (T_star = inf) of a zero gap
        for report in record.reports:
            if report.name.startswith("theorem:") and report.margins:
                theorems += 1
                assert report.margins == {"theorem_T_opt": 0.0}, (i, report)
                assert report.constants["T_star"] == "inf"
    assert checked > 0 and theorems > 0


def _pairs():
    """(label, rho, sigma): seeded, rank-deficient, near-singular down to
    eps = 1e-13 (below the zero threshold), and sigma leaking outside
    supp rho."""
    rng = np.random.default_rng(1710)
    for dim in (3, 4, 6):
        yield "seeded", ginibre(dim, dim, 500 + dim), ginibre(dim, dim, 600 + dim)
        yield ("rank-deficient", ginibre(dim, dim - 1, 700 + dim),
               ginibre(dim, dim - 1, 800 + dim))
        for eps, n_small in itertools.product((1e-9, 1e-11, 1e-12, 1e-13),
                                              (1, 2)):
            yield (f"near-singular:{eps:g}x{n_small}",
                   near_singular(rng, dim, n_small, eps),
                   near_singular(rng, dim, n_small, eps))
        yield "leak", ginibre(dim, dim - 1, 900 + dim), ginibre(dim, dim, 1000 + dim)


def _close(got, oracle) -> bool:
    want, scale = oracle
    if np.ndim(got) == 0:
        want = np.linalg.norm(want)
    return bool(np.linalg.norm(got - want) <= ORACLE_RTOL * max(1.0, scale))


@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_discrepancies_match_dense_oracles(kind):
    bad = []
    checked = 0
    for label, rho, sigma in _pairs():
        ctx = PairContext(rho, sigma, spec_for(kind, rho.dim))
        u_s = ctx.sigma.spectrum.eigenvectors
        u_r = ctx.rho.spectrum.eigenvectors
        for beta in BETAS:
            # discrepancy_matrix is in the frame: rotate it back
            checks = {
                "discrepancy_matrix": (
                    u_s @ ctx.discrepancy_matrix(beta) @ u_r.conj().T,
                    dense_discrepancy(ctx, beta)),
                "discrepancy": (ctx.discrepancy(beta),
                                dense_discrepancy(ctx, beta)),
                "beta_free": (ctx.beta_free(beta), dense_beta_free(ctx, beta)),
            }
            for name, (got, oracle) in checks.items():
                checked += 1
                if not _close(got, oracle):
                    bad.append((label, rho.dim, beta, name))
        checks = {"recovery_discrepancy": (ctx.recovery_discrepancy,
                                           dense_recovery_discrepancy(ctx)),
                  "kraus:rho": (ctx.kraus("rho"), dense_kraus(ctx, "rho")),
                  "kraus:sigma": (ctx.kraus("sigma"), dense_kraus(ctx, "sigma"))}
        for name, (got, oracle) in checks.items():
            checked += 1
            if not _close(got, oracle):
                bad.append((label, rho.dim, None, name))
        report = beta_free_discrepancy(0.5, ctx)
        if ctx.rho.is_invertible:
            assert report.margins["beta_free"] \
                == report.rhs_values["beta_free"] - ctx.beta_free(0.5)
    assert not bad, f"{len(bad)} of {checked} disagree: {bad[:5]}"


@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_support_leaks_match_the_dense_projector(kind):
    """Both leaks of op and op_n against the dense support projector: the
    support leak against Tr[sigma (1 - P_rho)] and the kernel weight against
    Tr[rho (1 - P_sigma)], on leaking, rank-deficient and near-singular
    pairs (both sides of the zero threshold). Each leak counts a state's
    eigenvalues at or below its own cut as 0, so the support leak's sigma is
    loop_power(sigma, 1) and the kernel weight's rho loop_power(rho, 1)
    (op keeps only rho's columns above its threshold)."""
    leaking = {"support_leak": 0, "kernel_weight": 0}
    for label, rho, sigma in _pairs():
        ctx = PairContext(rho, sigma, spec_for(kind, rho.dim))
        for name, got, state, ref in (
                ("support_leak", ctx.support_leak,
                 loop_power(ctx.sigma.spectrum, 1.0), ctx.rho),
                ("support_leak", ctx.support_leak_n,
                 loop_power(ctx.sigma_n.spectrum, 1.0), ctx.rho_n),
                ("kernel_weight", modular.kernel_weight(ctx.op),
                 loop_power(ctx.rho.spectrum, 1.0), ctx.sigma),
                ("kernel_weight", modular.kernel_weight(ctx.op_n),
                 loop_power(ctx.rho_n.spectrum, 1.0), ctx.sigma_n)):
            want = support_leak(state, ref.spectrum)
            assert abs(got - want) <= LEAK_ATOL, \
                (label, name, rho.dim, got, want)
            leaking[name] += want > 1e-3
    assert all(leaking.values()), leaking


# the reconstruct command's default t grid
RECONSTRUCT_T_GRID = np.logspace(-2, 2, ExperimentConfig().t_points)
PER_T_RTOL = 1e-13


@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_w_t_carries_the_per_t_gap(kind):
    """The proof's per-t identity S_t - S_t^N = <w_t, (t + Delta) w_t> =
    sum (t + e) |w_t|^2 in the context's frame, on full-rank pairs: w_t is
    the context's, on both sides of t = 1 (its far form above)."""
    for dim, seed in itertools.product((2, 3, 4, 6, 8), (0, 1, 2)):
        ctx = PairContext(ginibre(dim, dim, 6000 + 2 * seed),
                          ginibre(dim, dim, 6001 + 2 * seed),
                          spec_for(kind, dim))
        t = RECONSTRUCT_T_GRID
        e = ctx.op.eigenvalues.reshape(dim, dim)
        w = ctx.w_t(t)
        assert w.shape == (t.size, dim, dim)
        form = np.sum((t[:, None, None] + e) * np.abs(w) ** 2, axis=(1, 2))
        s_t = entropy.s_t(t, ctx.op)
        gap_t = s_t - entropy.s_t(t, ctx.op_n)
        assert np.all(np.abs(gap_t - form) <= PER_T_RTOL * s_t), \
            (dim, seed, np.max(np.abs(gap_t - form) / s_t))
        if kind == "full":
            assert not np.any(w)


MOMENT_BETAS = (0.25, 0.5, 0.75, 0.95)
MOMENT_RTOL = 1e-13


@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_w_t_moment_matches_the_stacked_integral(kind):
    """w_t_moment integrates the scalar kernels of w_t and applies the
    frames once; the oracle integrates the stack w_t, with the frames
    applied at every node. They agree to 1e-13 times the larger of 1 and
    the oracle's norm, on full-rank pairs and on a singular rho (w_t on its
    kept columns only), and with E = id both are exactly 0."""
    pairs = [(dim, ginibre(dim, dim, 7000 + dim), ginibre(dim, dim, 7100 + dim))
             for dim in (2, 3, 4, 6, 8)]
    pairs.append((4, ginibre(4, 3, 7200), ginibre(4, 4, 7201)))
    for dim, rho, sigma in pairs:
        ctx = PairContext(rho, sigma, spec_for(kind, dim))
        for beta in MOMENT_BETAS:
            got = ctx.w_t_moment(beta)
            want = stacked_w_t_moment(ctx, beta)
            assert got.shape == want.shape \
                == (dim, ctx.op.kept_columns.size)
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= MOMENT_RTOL * scale, \
                (dim, beta, np.linalg.norm(got - want) / scale)
            if kind == "full":
                assert not np.any(got)
    assert ctx.op.kept_columns.size == 3


def _same_bits(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


# (label, rho, sigma, spec) of E = id: the full algebra, the partial trace at
# the prime dims 2 and 3 (the full algebra too), and a rank-deficient rho
IDENTITY_PAIRS = [
    ("full", ginibre(4, 4, 7300), ginibre(4, 4, 7301), spec_for("full", 4)),
    ("partial-trace:2", ginibre(2, 2, 7302), ginibre(2, 2, 7303),
     spec_for("partial-trace", 2)),
    ("partial-trace:3", ginibre(3, 3, 7304), ginibre(3, 3, 7305),
     spec_for("partial-trace", 3)),
    ("rank-deficient", ginibre(4, 3, 7306), ginibre(4, 4, 7307),
     spec_for("full", 4)),
]


@pytest.mark.parametrize("label, rho, sigma, spec", IDENTITY_PAIRS,
                         ids=[p[0] for p in IDENTITY_PAIRS])
def test_identity_shortcut_gives_the_bits_of_the_general_formulas(
        label, rho, sigma, spec):
    """With E = id the context returns D_b, w_t and its moment as zeros of
    their usual shape and dtype. The twin is told E is not the identity and
    computes them by the general formulas: its E(rho), E(sigma) are rho and
    sigma, its op_n a separate build of op, and its frames exact identity
    matrices, whose products keep the bits. D_b comes from the frame
    products, w_t from its kernels through the frames, the moment by the
    twin's own quadrature and by the stacked oracle. Every one is the same
    bits (x - x is +0 for finite x), and the proof internals read exact
    zeros."""
    ctx = PairContext(rho, sigma, spec)
    assert ctx.op_n is ctx.op
    twin = PairContext(rho, sigma, spec)
    twin.e_is_identity = False
    twin.rho_n, twin.sigma_n = twin.rho, twin.sigma
    twin.frames = (np.eye(rho.dim), np.eye(rho.dim))
    twin.op_n = modular.build(twin.sigma.spectrum, twin.rho.spectrum)
    assert twin.op_n is not twin.op
    kept = ctx.op.kept_columns.size
    assert kept == (3 if label == "rank-deficient" else rho.dim)
    for beta in MOMENT_BETAS:
        got = ctx._difference(beta)
        assert _same_bits(got, twin._difference(beta)), (label, beta)
        assert got.shape == (rho.dim, rho.dim) and not np.any(got)
        got = ctx.w_t_moment(beta)
        assert got.shape == (rho.dim, kept) and not np.any(got)
        assert _same_bits(got, twin.w_t_moment(beta)), (label, beta)
        assert _same_bits(got, stacked_w_t_moment(twin, beta)), (label, beta)
    got = ctx.w_t(RECONSTRUCT_T_GRID)
    assert got.shape == (RECONSTRUCT_T_GRID.size, rho.dim, kept)
    assert _same_bits(got, twin.w_t(RECONSTRUCT_T_GRID)), label
    out = proof_internals(builtin_neg_log(), 0.5, ctx, RECONSTRUCT_T_GRID,
                          contraction_probes(rho.dim))
    assert out == proof_internals(builtin_neg_log(), 0.5, twin,
                                  RECONSTRUCT_T_GRID,
                                  contraction_probes(rho.dim))
    for key in ("identity_residual", "per_t_gap_margin", "gap_residual"):
        assert out[key] == 0.0, (label, key, out)


# (label, rho, sigma) for the trivial algebra: full rank, rank d - 1 and
# pure rho and sigma, seeded, at each d
TRACE_PAIRS = [
    (f"d{d}:{r}x{s}", ginibre(d, r, 7400 + 10 * d + k),
     ginibre(d, s, 7500 + 10 * d + k))
    for d in (2, 3, 5, 8)
    for k, (r, s) in enumerate(dict.fromkeys([(d, d), (d - 1, d), (d, d - 1),
                                              (1, d), (d, 1)]))]


@pytest.mark.parametrize("label, rho, sigma", TRACE_PAIRS,
                         ids=[p[0] for p in TRACE_PAIRS])
def test_trace_shortcut_matches_the_general_formulas(label, rho, sigma):
    """When E is the trace the context takes E(x) = 1/d, op_n = 1 and
    sigmaN^b rhoN^-b = 1 as exact identities. The twin is told E is not
    the trace and runs the general formulas: expectation_eigh, a built
    op_n, the frame products. Every quantity of the trace path agrees with
    the twin's, and with the dense oracles where there is one, to 1e-12
    times the larger of 1 and the scale (the oracle's, else the norm of the
    twin's value)."""
    ctx = PairContext(rho, sigma, spec_for("trivial", rho.dim))
    twin = PairContext(rho, sigma, ctx.spec)
    twin.e_is_trace = False
    assert ctx.e_is_trace and ctx.rho_n is ctx.sigma_n
    assert twin.rho_n is not twin.sigma_n

    def close(got, want, scale=None) -> bool:
        if np.array_equal(got, want, equal_nan=True):
            return True
        scale = np.linalg.norm(want) if scale is None else scale
        return bool(np.linalg.norm(np.subtract(got, want))
                    <= ORACLE_RTOL * max(1.0, scale))

    checks = []
    for beta in BETAS:
        for name, oracle in (("discrepancy", dense_discrepancy),
                             ("beta_free", dense_beta_free)):
            got = getattr(ctx, name)(beta)
            want = oracle(ctx, beta)
            checks.append((name, beta, _close(got, want)
                           and close(got, getattr(twin, name)(beta), want[1])))
    want = dense_recovery_discrepancy(ctx)
    checks.append(("recovery_discrepancy", None,
                   _close(ctx.recovery_discrepancy, want)
                   and close(ctx.recovery_discrepancy,
                             twin.recovery_discrepancy, want[1])))
    for name in ("neg-log", "neg-power:0.25", "neg-power:0.5",
                 "neg-power:0.75"):
        rep = rep_from_name(name)
        checks.append(("gap", name, close(ctx.gap(rep), twin.gap(rep))))
    for alpha in (0.25, 0.5, 0.75):
        checks.append(("renyi_gap", alpha, close(ctx.renyi_gap(alpha),
                                                 twin.renyi_gap(alpha))))
    leak = support_leak(loop_power(ctx.sigma_n.spectrum, 1.0),
                        ctx.rho_n.spectrum)
    checks.append(("support_leak_n", None,
                   ctx.support_leak_n == twin.support_leak_n == 0.0
                   and abs(ctx.support_leak_n - leak) <= LEAK_ATOL))
    checks.append(("w_t", None, close(ctx.w_t(RECONSTRUCT_T_GRID),
                                      twin.w_t(RECONSTRUCT_T_GRID))))
    for beta in MOMENT_BETAS:
        got = ctx.w_t_moment(beta)
        checks.append(("w_t_moment", beta,
                       close(got, twin.w_t_moment(beta))
                       and close(got, stacked_w_t_moment(ctx, beta))))
    probes = contraction_probes(rho.dim)
    out, want = (proof_internals(builtin_neg_log(), 0.5, c,
                                 RECONSTRUCT_T_GRID, probes)
                 for c in (ctx, twin))
    assert out.keys() == want.keys()
    checks.extend(("proof_internals", key, close(out[key], want[key]))
                  for key in out)
    bad = [(name, key) for name, key, ok in checks if not ok]
    assert not bad, (label, bad)


def test_identity_reconstruct_cases_read_exact_zeros():
    """The internals cases of the E = id trials of reconstruct
    {"trials": 12} (full, and partial-trace at dims 2 and 3) hold
    identity_residual, per_t_gap_margin and gap_residual at exactly 0.0."""
    code, report = run_reconstruct(ExperimentConfig(trials=12))
    assert code == 0
    identity = [case for case in report["cases"]
                if case["status"] == "internals"
                and spec_for(case["spec_kind"], case["dim"]).blocks
                == [(case["dim"], 1)]]
    assert [(c["spec_kind"], c["dim"]) for c in identity] == [
        ("partial-trace", 3), ("full", 2), ("full", 3), ("partial-trace", 2),
        ("full", 4)]
    for case in identity:
        for key in ("identity_residual", "per_t_gap_margin", "gap_residual"):
            assert case[key] == 0.0, (case, key)
