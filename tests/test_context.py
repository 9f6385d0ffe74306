"""PairContext on the exact classes, and its discrepancies against the
dense-power oracles.

E = id gives E(x) = x itself and op_n is op, so every gap is exactly 0, with
or without a rotated basis, and so is every discrepancy; a twin test runs
it and E the trace against the general formulas.

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
                     dense_recovery_discrepancy, loop_power, report_text,
                     stacked_w_t_moment, support_leak)
from petzgap import context, entropy, harness, modular
from petzgap.algebra import SubalgebraSpec, full_spec
from petzgap.bounds import beta_free_discrepancy
from petzgap.context import PairContext
from petzgap.bounds import contraction_probes, proof_internals
from petzgap.harness import (SPEC_KINDS, ExperimentConfig, run_reconstruct,
                             run_trial, run_verify, spec_for)
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


# (label, rho, sigma, spec): E = id on full, partial-trace at d = 2, 3, a
# rank-deficient rho and d = 1 (M_1 = C 1); the trivial algebra at full
# rank, rank d - 1 and pure rho and sigma, seeded, at each d
EXACT_PAIRS = [
    (label, ginibre(d, r, 7300 + 2 * k), ginibre(d, d, 7301 + 2 * k),
     spec_for(kind, d)) for k, (label, kind, d, r) in enumerate([
         ("full", "full", 4, 4), ("partial-trace:2", "partial-trace", 2, 2),
         ("partial-trace:3", "partial-trace", 3, 3),
         ("rank-deficient", "full", 4, 3), ("d1", "trivial", 1, 1)])] + [
    (f"d{d}:{r}x{s}", ginibre(d, r, 7400 + 10 * d + k),
     ginibre(d, s, 7500 + 10 * d + k), spec_for("trivial", d))
    for d in (2, 3, 5, 8)
    for k, (r, s) in enumerate(dict.fromkeys([(d, d), (d - 1, d), (d, d - 1),
                                              (1, d), (d, 1)]))]


@pytest.mark.parametrize("label, rho, sigma, spec", EXACT_PAIRS,
                         ids=[p[0] for p in EXACT_PAIRS])
def test_trace_shortcut_matches_the_general_formulas(label, rho, sigma, spec):
    """Each exact class against a twin of the general class. An _Identity's
    twin is given what E = id makes exact (E(x) = x, op_n a separate build
    of op, identity frames), and every quantity is the same bits (x - x is
    +0), D_b, w_t and three proof internals exact zeros. A _Trace's twin
    runs expectation_eigh, a built op_n and the frame products, and agrees
    to 1e-12 times the larger of 1 and the scale (the oracle's, else the
    twin's norm), as does either recovery discrepancy, which the twin
    rounds. The discrepancies match the dense oracles; at d = 1 every
    quantity is 0.0."""
    ctx = PairContext(rho, sigma, spec)
    twin = object.__new__(PairContext)
    twin.__init__(rho, sigma, spec)
    identity = spec.blocks == [(spec.dim, 1)]
    assert type(twin) is PairContext
    assert type(ctx) is (context._Identity if identity else context._Trace)
    if identity:
        assert ctx.op_n is ctx.op
        twin.rho_n, twin.sigma_n = twin.rho, twin.sigma
        twin.frames = (np.eye(rho.dim), np.eye(rho.dim))
        twin.op_n = modular.build(twin.sigma.spectrum, twin.rho.spectrum)
    else:
        assert ctx.rho_n is ctx.sigma_n and twin.rho_n is not twin.sigma_n
    d, kept, grid = rho.dim, ctx.op.kept_columns.size, RECONSTRUCT_T_GRID
    assert kept == rho.rank and twin.op_n is not twin.op

    def same(got, want, scale=None, bits=identity) -> bool:
        if bits:
            got, want = np.asarray(got), np.asarray(want)
            return (got.dtype, got.shape, got.tobytes()) \
                == (want.dtype, want.shape, want.tobytes())
        scale = np.linalg.norm(want) if scale is None else scale
        return bool(np.array_equal(got, want, equal_nan=True)
                    or np.linalg.norm(np.subtract(got, want))
                    <= ORACLE_RTOL * max(1.0, scale))

    def reads(c) -> dict:
        out = {(n, b): getattr(c, n)(b)
               for n in ("discrepancy", "beta_free") for b in BETAS}
        out.update((("gap", n), c.gap(rep_from_name(n))) for n in (
            "neg-log", "neg-power:0.25", "neg-power:0.5", "neg-power:0.75"))
        out.update((("renyi_gap", a), c.renyi_gap(a)) for a in (.25, .5, .75))
        for b in MOMENT_BETAS:
            out["D_b", b], out["w_t_moment", b] = (c._difference(b),
                                                   c.w_t_moment(b))
        out["w_t", None] = c.w_t(grid)
        out["recovery_discrepancy", None] = c.recovery_discrepancy
        out["support_leak_n", None] = c.support_leak_n
        out.update((("proof_internals", k), v) for k, v in proof_internals(
            builtin_neg_log(), 0.5, c, grid, contraction_probes(d)).items())
        return out

    got, want = reads(ctx), reads(twin)
    assert [got[k].shape for k in (("D_b", .5), ("w_t_moment", .5), (
        "w_t", None))] == [(d, d), (d, kept), (grid.size, d, kept)]
    oracles = {(n, b): oracle(ctx, b) for b in BETAS for n, oracle in (
        ("discrepancy", dense_discrepancy), ("beta_free", dense_beta_free))}
    oracles["recovery_discrepancy", None] = dense_recovery_discrepancy(ctx)
    # the twin rounds the recovery discrepancy E = id decides
    bad = [k for k in got if not same(
        got[k], want[k], oracles.get(k, (None, None))[1],
        bits=identity and k[0] != "recovery_discrepancy")
           or k in oracles and not _close(got[k], oracles[k])]
    bad += [k for k in got if k[0] == "w_t_moment" and not all(
        same(got[k], stacked_w_t_moment(c, k[1])) for c in (ctx, twin))]
    if identity:  # D_b, w_t, its moment and three proof internals are 0
        bad += [k for k in got if k[0] in ("D_b", "w_t", "w_t_moment")
                or k[1] in ("identity_residual", "per_t_gap_margin",
                            "gap_residual") if np.any(got[k])]
    leak = got["support_leak_n", None]
    assert abs(leak - support_leak(loop_power(ctx.sigma_n.spectrum, 1.0),
                                   ctx.rho_n.spectrum)) <= LEAK_ATOL
    assert identity or leak == want["support_leak_n", None] == 0.0
    if d == 1:
        assert ctx.recovery_errors == (0.0, 0.0)
        bad += [k for k, v in ctx.quantities().items()
                if (any(v.values()) if isinstance(v, dict) else v)]
    assert not bad, (label, bad)


def test_trivial_constants_are_one_read_only_object_per_dimension():
    """Every trivial-algebra context of a dimension reads the same flat
    state (E(rho) and E(sigma)) and identity operator (op_n), whose
    arrays are read-only: an in-place write raises."""
    for d in (2, 3, 5):
        spec = spec_for("trivial", d)
        a, b = (PairContext(ginibre(d, d, 7600 + 10 * d + k),
                            ginibre(d, d - 1, 7700 + 10 * d + k), spec)
                for k in range(2))
        assert a.rho_n is a.sigma_n is b.rho_n is b.sigma_n
        assert a.op_n is b.op_n and a.op_n.rho_dec is a.rho_n.spectrum
        flat, op = a.rho_n, a.op_n
        for x in (flat.matrix, flat.eigenvalues, flat.spectrum.eigenvectors,
                  op.eigenvalues, op.weights, op.kept_columns, op.overlaps):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = x[0]


def test_trivial_constants_cleared_or_shared_write_the_same_bytes(
        monkeypatch):
    """verify on the trivial algebra writes the same bytes with the
    per-dimension constants cleared before every trial as shared."""
    config = ExperimentConfig.from_json(
        {"specs": ["trivial"], "dims": [2, 3, 5, 8, 64], "trials": 10})
    shared = report_text(run_verify(config)[1])
    trial = harness.run_trial

    def cleared(*args):
        context._flat.cache_clear()
        context._flat_entropies.cache_clear()
        return trial(*args)

    monkeypatch.setattr(harness, "run_trial", cleared)
    assert report_text(run_verify(config)[1]) == shared
    assert context._flat.cache_info().misses == 1


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
