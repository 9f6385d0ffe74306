"""Work counters of verify trials.

A trial builds one PairContext, which computes each quantity of the trial
once. A state carries the eigendecomposition it was validated with. The
states of a block of consecutive trials are drawn and validated together
(harness.TrialStates, states.sample_states): one stacked LAPACK eigh per
distinct dimension of the block, where every state cost one eigh of its
own. A verify {"trials": 60, "dims": [2, 3, 4, 6, 8]} run is two blocks
(32 trials, the most the block budget holds at d = 8, and 28) of 5 eigh
each, where it made 120; verify {"trials": 12, "dims": [32, 48, 64]} is a
block per trial, whose rho and sigma share 1 eigh, 12 where it made 24. A
trial run on its own is a block of itself: 1 eigh for its rho and sigma.
E(rho) and E(sigma) are diagonalized through the block cores of the
subalgebra, in one algebra.expectation_eigh of the pair: cores of one
size, of both states, share one stacked eigh, no input is larger than the
largest core, and a 1 x 1 core needs none. So a trial makes one eigh per
distinct core size above 1, where each state made that many (4 a trial
for pinching at odd d >= 5, whose two cores differ in size), and none
where E is the identity (E(x) is x itself) or the algebra is trivial.
Neither of those two makes an expectation_eigh call at all: E(x) is x, or
the flat state 1/d taken exactly, so verify {"trials": 60, "dims": [2, 3,
4, 6, 8]} makes 24 calls, verify {"trials": 12, "dims": [32, 48, 64]} 6
and reconstruct {"trials": 12} 4, where they made 39, 9 and 7 when the
trivial algebra took one. A trivial-algebra trial builds one relative
modular operator (op_n is the identity operator, not built); its
sigmaN^b rhoN^-b is op's overlaps, so a verify trial never reads the
frames, and a reconstruct trial's are equal to V_sigma^H and V_rho. A
trial builds at most two relative modular operators, op and op_n, and
takes every entropy the battery reads (the gaps of neg-log and neg-power
at 0.25, 0.5, 0.75, which the Renyi gaps of orders 0.75, 0.5, 0.25 read
too) in one entropy.entropies pass per operator: at most 2 calls, and no direct entropy.s_f call, where it
made one s_f call per (function, operator) pair, 8 at these settings. When
E is the identity op_n is op, and its entropies are op's: such a trial
builds exactly one operator and makes exactly one entropies call, where it
built op_n again from the same spectra and took a second pass. A trial
used to make about 485 eigh, 74 modular.build and 36 s_f calls at these
settings, then up to ten eigh while a context re-diagonalized every
validated state. The counts are deterministic and asserted for every
trial, so redundancy that creeps back fails here. They include the
quantities block of the trial record, which PairContext.quantities() reads
from the memo after the bounds have run.

The theorem's T-family is minimized over T in closed form, in one
bounds.theorem_optimum call per (function, beta) and trial with a finite
gap: 6 per trial at the defaults, where the run evaluated it on a 40-point
T grid. A minimizer clamped to the end of a piece of C^f (once per
neg-power optimum on these trials) is evaluated on the piece it was found
on, so the minimization makes no bounds.theorem_bound or bounds.c_constant
call, where it made one of each per clamped end, 3 per trial. One trial of
the ten has an infinite neg-log gap, which asserts the theorem without
minimizing it.

A verify trial forms no dense power of a state: the discrepancies, the
beta-free bound and the Kraus operators are read from the eigenbases of the
four states (two basis changes per trial and two products per beta), where
linalg.psd_power made 16 dense powers per trial. Nor does a reconstruct
trial: its proof internals form w_t in the same frame, where they took two
dense powers per trial. They apply algebra.conditional_expectation once,
to the stack of the 5 random matrices of the contraction check (the N side
of w_t already lies in the subalgebra), where they called it 9 times per
trial, 4 of them on stacks inside the quadrature integrand, then once per
random matrix. They take S_t on the whole t grid in one entropy.s_t call
per distinct operator, where a scalar loop over the 20 grid points made
40: 2 on a trial, and 1 where E is the identity, whose per-t gap is 0. A verify
trial's support leaks are read from the overlaps of the two modular
operators and its recovery errors are Hermitian trace norms, so it calls
neither linalg.support_projector nor linalg.schatten_norm (24 of each on
verify {"trials": 12, "dims": [32, 48, 64]} before). The recovery errors
that no exact identity decides take their trace norms from one
linalg.trace_norm call on the stack of their matrices, one stacked
eigvalsh, where each took a call of its own. Where E is the trace, both
errors are || rho - sigma ||_1, one trace norm of one matrix; where E is
the identity, an error whose reference state is invertible is exactly 0,
so a trial with both states invertible makes no trace_norm call, and
verify {"trials": 12, "dims": [32, 48, 64]} makes 9 eigvalsh calls on 15
matrices, where it made 12 on 24. A trial forms sigmaN^b rhoN^-b
(PairContext._ratio_n, two GEMMs in the frame but on the trivial algebra)
once per beta: the beta = 1/2 norms and the recovery discrepancy share it,
where the latter formed it again (4 per trial at the default betas, now
3). Where E is the identity only the recovery discrepancy of a singular
rho forms it, once; of an invertible rho it is exactly 0.

The bound battery's grid-only constants are computed once per distinct
(function, beta) of a process, never per trial, as one record
(bounds._law): on verify {"trials": 60, "dims": [2, 3, 4, 6, 8]} it is
built 12 times, for neg-log and the three neg-power of the alpha grid at
each of the 3 betas; the Renyi bounds' keys (neg-power:1 - alpha at beta
= 1/2) are among them. Before, seven caches held the same constants, and
earlier every corollary report rebuilt its C^f pieces (720 calls per
command). The petzgap caches a verify run fills are that record, the
battery's plan (bounds._plan: the functions whose entropies it takes and
each report's law, name and grid) and the shared function objects
(monotone._neg_power); each fills exactly one entry per distinct key it
is asked for, and no key holds a trial quantity: every float in a key is a
grid value. A fresh interpreter that imports the CLI holds no cached
entry, so the cached work stays in the trials, not in setup.

A reconstruct run calls the quadrature integrand once per half-line
integral, with all the nodes of the fixed double-exponential rule folded
onto (0, 1] (the nodes s and 1/s), where it made 2 calls, one per piece of
the split at t = 1. A reconstruct trial takes 2 half-line integrals
whatever the number of functions: one shared integral that rebuilds every
function's entropy and gap (the resolvent sums of op and op_n, times each
density on a trailing axis), which the proof internals read back from the
context, and the discrepancy identity of the proof internals. It took 5 at
the default two functions, an entropy and a gap reconstruction per
function and the identity. The context makes the identity's call
(PairContext.w_t_moment), on the scalar kernels h(t, e) of w_t: its
integrand is a real float64 (nodes, d (kept + kept_N)) array, and the
frames are applied once, to the integral. When E is the identity, w_t and
its moment are 0 and the context returns them as zeros, so such a trial
takes 1 half-line integral, the shared reconstruction (which reuses op's
resolvent sum for op_n): 6 on the golden config, trials 1 and 3 of which
have E = id, and 19 on reconstruct {"trials": 12}, where every trial took
2. A trial calls PairContext.w_t once, on the t grid, where it called it
twice, the second time inside the integrand on all 346 folded nodes. The
graded bisection quadrature made 144 panels, one integrand call each, on
the reconstruct golden config, and 1,840 before it was graded.

A reconstruct run builds the t grid of the proof internals once, and draws
the 5 contraction probes and their norms once per dimension its trials use
(bounds.contraction_probes), where every trial drew both anew: 1 logspace
and 3 draws on reconstruct {"trials": 12}, where it made 12 of each. It
keeps them for the run only, so a second run in the same process draws
them again. A block of multiplicity 1 is its own core, with no einsum:
the run makes 5 einsum calls, one for the contraction draws of each trial
with a core of multiplicity above 1 (the trivial algebra, and the partial
trace at d = 4) and one for E(rho) and E(sigma) together at d = 4, whose
partial trace is not taken as exact. It made 8 when the trivial algebra
took E(rho) and E(sigma) from their cores too, 12 when E(rho) and
E(sigma) took one each, and 35 before that.
"""

import ast
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import petzgap

from petzgap import (algebra, bounds, context, entropy, linalg, modular,
                     quadrature)
from petzgap import harness
from petzgap.harness import (ExperimentConfig, draw_pair, run_reconstruct,
                             run_trial, run_verify, spec_for)
from petzgap.monotone import rep_from_name

from conftest import grid_caches

TRIALS = 10
# a trial run on its own draws and validates its rho and sigma in one block
STATE_EIGH_PER_TRIAL = 1
VERIFY_SMALL = {"trials": 60, "dims": [2, 3, 4, 6, 8]}
VERIFY_LARGE = {"trials": 12, "dims": [32, 48, 64]}
TRIVIAL_CONFIG = {"specs": ["trivial"], "dims": [2, 3, 5, 8, 64], "trials": 10}
BLOCKS_PER_RUN = {"small": 2, "large": 12}
MAX_BUILD_PER_TRIAL = 2
BUILD_PER_IDENTITY_TRIAL = 1
MAX_ENTROPIES_PER_TRIAL = 2
ENTROPIES_PER_IDENTITY_TRIAL = 1
S_F_PER_TRIAL = 0
RECONSTRUCT_CONFIG = {"trials": 4, "dims": [2, 3, 4, 6]}
# partial-trace at the prime d = 3 and full at d = 6: E = id
IDENTITY_RECONSTRUCT_TRIALS = (1, 3)
HALFLINE_PER_RECONSTRUCT_TRIAL = 2
HALFLINE_PER_IDENTITY_RECONSTRUCT_TRIAL = 1
INTEGRAND_CALLS_PER_HALFLINE = 1
W_T_PER_RECONSTRUCT_TRIAL = 1
PSD_POWER_PER_TRIAL = 0
PSD_POWER_PER_RECONSTRUCT_TRIAL = 0
MAX_EXPECTATIONS_PER_RECONSTRUCT_TRIAL = 1
S_T_PER_INTERNALS_CASE = 2
S_T_PER_IDENTITY_INTERNALS_CASE = 1
PROBE_DRAWS_PER_RECONSTRUCT_RUN = 3
LOGSPACE_PER_RECONSTRUCT_RUN = 1
EINSUM_PER_RECONSTRUCT_RUN = 5
THEOREM_BOUND_PER_TRIAL = 0
C_CONSTANT_PER_TRIAL = 0
# E = id with both states invertible: both recovery errors are exactly 0
TRACE_NORM_PER_EXACT_TRIAL = 0
TRACE_NORM_PER_TRIAL = 1
# verify-large: the recovery matrices of its 3 pinching and 3 partial-trace
# trials (2 each) and its 3 trivial ones (rho - sigma); its 3 full trials,
# whose states are invertible, take none
EIGVALSH_LARGE = {"calls": 9, "matrices": 15}
# E = id: only the recovery discrepancy of a singular rho forms the ratio
RATIO_N_PER_IDENTITY_TRIAL = {True: 0, False: 1}  # by rho.is_invertible
# || D_b rho^{1/2} ||_2 and || D_b ||_2 of a beta, from one D_b
HS_NORM_PER_BETA = 2
# E = id: D_b is exactly 0, so only the recovery discrepancy of a singular rho
# takes a Hilbert-Schmidt norm
HS_NORM_PER_IDENTITY_TRIAL = {True: 0, False: 1}  # by rho.is_invertible
# expectation_eigh calls of one command: a call per trial, except the E = id
# and the trivial-algebra trials, which take E(x) from exact identities
EXPECTATION_EIGH_PER_COMMAND = {"verify-small": 24, "verify-large": 6,
                                "reconstruct": 4}


def count_calls(monkeypatch, owner, name, calls=None) -> list:
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_run_trial_computes_each_quantity_once(monkeypatch):
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 6, 8])
    reps = [rep_from_name(n) for n in config.functions]
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    build = count_calls(monkeypatch, modular, "build")
    entropies = count_calls(monkeypatch, entropy, "entropies")
    s_f = count_calls(monkeypatch, entropy, "s_f")
    per_trial = []
    identity = []
    for i in range(TRIALS):
        dim = config.dims[i % len(config.dims)]
        spec = spec_for(config.specs[i % len(config.specs)], dim)
        identity.append(spec.blocks == [(dim, 1)])
        before = len(eigh), len(build), len(entropies), len(s_f)
        run_trial(config, i, reps)
        per_trial.append((len(eigh) - before[0], len(build) - before[1],
                          len(entropies) - before[2], len(s_f) - before[3]))
    assert any(identity) and not all(identity)
    assert [e for e, _, _, _ in per_trial] == [
        STATE_EIGH_PER_TRIAL + core_eigh(spec_for(
            config.specs[i % len(config.specs)],
            config.dims[i % len(config.dims)])) for i in range(TRIALS)], \
        per_trial
    assert all(b <= MAX_BUILD_PER_TRIAL for _, b, _, _ in per_trial), per_trial
    assert all(n <= MAX_ENTROPIES_PER_TRIAL for _, _, n, _ in per_trial), \
        per_trial
    assert all((b, n) == (BUILD_PER_IDENTITY_TRIAL,
                          ENTROPIES_PER_IDENTITY_TRIAL)
               for (_, b, n, _), ident in zip(per_trial, identity) if ident), \
        per_trial
    assert all(n == S_F_PER_TRIAL for _, _, _, n in per_trial), per_trial


def core_eigh(spec) -> int:
    """The eigh calls of E(rho) and E(sigma) together: one per distinct
    core size above 1, none when E is the identity."""
    if spec.blocks == [(spec.dim, 1)]:
        return 0
    return len({n for n, _ in spec.blocks if n > 1})


def test_expectations_diagonalize_only_block_cores(monkeypatch):
    # 9 dims, prime to the 4 spec kinds, so that every kind meets every
    # dim, pinching at the odd d = 5 and 9 among them
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 5, 6, 8, 9, 32, 7])
    reps = [rep_from_name(n) for n in config.functions]
    shapes = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    met = set()
    for i in range(len(config.dims) * len(config.specs)):
        dim = config.dims[i % len(config.dims)]
        kind = config.specs[i % len(config.specs)]
        spec = spec_for(kind, dim)
        met.add((kind, dim))
        shapes.clear()
        run_trial(config, i, reps)
        # rho and sigma, validated in one block; then each distinct core
        # size of E(rho) and E(sigma) once, both states' cores of that size
        # in one stack
        sizes = [] if spec.blocks == [(dim, 1)] else sorted(
            {n for n, _ in spec.blocks if n > 1}, key=[
                n for n, _ in spec.blocks].index)
        assert shapes == [(2, dim, dim)] + [
            (2 * sum(n == size for n, _ in spec.blocks), size, size)
            for size in sizes], (i, kind, shapes)
        assert len(shapes) == STATE_EIGH_PER_TRIAL + core_eigh(spec)
        if kind == "pinching" and dim in (5, 9):
            assert len(shapes) == 3, (i, shapes)
    assert len(met) == len(config.dims) * len(config.specs)


@pytest.mark.parametrize("label,config", [("small", VERIFY_SMALL),
                                          ("large", VERIFY_LARGE)])
def test_verify_blocks_take_one_eigh_per_dimension(monkeypatch, label,
                                                   config):
    """run_verify prepares the states of consecutive trials in blocks: each
    block makes one eigh per distinct dimension of its draws, and each
    trial's E(rho) and E(sigma) one per distinct core size above 1."""
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    blocks = []
    sample_states = harness.sample_states

    def block(draws):
        before = len(eigh)
        out = sample_states(draws)
        blocks.append((len(draws), len({c.dim for c, _ in draws}),
                       len(eigh) - before))
        return out

    monkeypatch.setattr(harness, "sample_states", block)
    expectations = []
    expectation_eigh = context.expectation_eigh

    def expectation(spec, x):
        before = len(eigh)
        out = expectation_eigh(spec, x)
        expectations.append((np.shape(x), core_eigh(spec),
                             len(eigh) - before))
        return out

    monkeypatch.setattr(context, "expectation_eigh", expectation)
    parsed = ExperimentConfig.from_json(dict(config))
    code, _ = run_verify(parsed)
    assert code == 0
    assert len(blocks) == BLOCKS_PER_RUN[label], blocks
    assert sum(draws for draws, _, _ in blocks) == 2 * parsed.trials
    assert all(calls == dims for _, dims, calls in blocks), blocks
    assert all(shape[0] == 2 and calls == want
               for shape, want, calls in expectations), expectations
    blocks = [spec_for(parsed.specs[i % len(parsed.specs)],
                       parsed.dims[i % len(parsed.dims)]).blocks
              for i in range(parsed.trials)]
    identity = sum(b == [(b[0][0], 1)] for b in blocks)
    trace = sum(b == [(1, b[0][1])] for b in blocks)
    assert len(expectations) == parsed.trials - identity - trace \
        == EXPECTATION_EIGH_PER_COMMAND["verify-" + label]


@pytest.mark.parametrize("command,config", [
    ("verify-small", VERIFY_SMALL), ("verify-large", VERIFY_LARGE),
    ("reconstruct", {"trials": 12})])
def test_trace_trials_make_no_expectation_eigh_or_frame_product(
        monkeypatch, command, config):
    """A trivial-algebra trial (a _Trace) takes E(rho) = E(sigma) = 1/d,
    op_n = 1 and sigmaN^b rhoN^-b = 1 as exact identities: no
    expectation_eigh call, one modular.build (op), no frames on a verify
    trial, and on a reconstruct trial frames equal to the eigenvectors of
    sigma and rho (the general products with E's eigenvectors I). Every
    other trial but E = id makes one expectation_eigh call."""
    expectation = count_calls(monkeypatch, context, "expectation_eigh")
    build = count_calls(monkeypatch, modular, "build")
    contexts = []

    def recording(*args):
        ctx = context.PairContext(*args)
        contexts.append((ctx, len(expectation), len(build)))
        return ctx

    monkeypatch.setattr(harness, "PairContext", recording)
    run = run_verify if command.startswith("verify") else run_reconstruct
    code, _ = run(ExperimentConfig.from_json(dict(config)))
    assert code == 0
    ends = [(n, b) for _, n, b in contexts[1:]] \
        + [(len(expectation), len(build))]
    trace = 0
    for (ctx, n, b), (n_end, b_end) in zip(contexts, ends):
        if type(ctx) is not context._Trace:
            assert n_end - n == (0 if type(ctx) is context._Identity else 1)
            continue
        trace += 1
        assert (n_end - n, b_end - b) == (0, 1), ctx.spec
        if command == "reconstruct":
            p1, p2 = ctx.frames
            assert np.array_equal(p2, ctx.rho.spectrum.eigenvectors)
            assert np.array_equal(p1, ctx.sigma.spectrum.eigenvectors.conj().T)
        else:
            assert "frames" not in vars(ctx)
            assert ctx._ratio_n(0.5) is ctx.op.overlaps
    assert trace == len(contexts) // 4
    assert len(expectation) == EXPECTATION_EIGH_PER_COMMAND[command]


def test_trivial_trials_build_their_constants_once_per_dimension(
        monkeypatch):
    """The flat state, the identity op_n and op_n's entropies are built in
    the first trivial-algebra trial of each dimension and shared by the
    rest: a later trial builds no np.eye, DensityMatrix or relative modular
    operator but op, and makes exactly 1 entropy.entropies call (over op)."""
    config = ExperimentConfig.from_json(dict(TRIVIAL_CONFIG))
    reps = [rep_from_name(n) for n in config.functions]
    context._flat.cache_clear()
    context._flat_entropies.cache_clear()
    counters = [count_calls(monkeypatch, np, "eye"),
                count_calls(monkeypatch, context, "DensityMatrix"),
                count_calls(monkeypatch, modular, "RelativeModularOperator"),
                count_calls(monkeypatch, entropy, "entropies")]
    per_trial = []
    for i in range(config.trials):
        before = [len(c) for c in counters]
        run_trial(config, i, reps)
        per_trial.append(tuple(len(c) - b for c, b in zip(counters, before)))
    dims = len(config.dims)
    assert per_trial == [(2, 1, 2, 2)] * dims + [(0, 0, 1, 1)] * dims, \
        per_trial


def count_linalg(monkeypatch, name: str, owner=linalg) -> list:
    """Count calls of owner.<name> (owner linalg by default) under every
    petzgap name bound to it."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "petzgap" \
                and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_trials_form_no_dense_power(monkeypatch):
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 6, 8])
    reps = [rep_from_name(n) for n in config.functions]
    calls = count_linalg(monkeypatch, "psd_power")
    per_trial = []
    for i in range(TRIALS):
        before = len(calls)
        run_trial(config, i, reps)
        per_trial.append(len(calls) - before)
    assert per_trial == [PSD_POWER_PER_TRIAL] * TRIALS, per_trial
    calls.clear()
    code, _ = run_reconstruct(ExperimentConfig.from_json(
        dict(RECONSTRUCT_CONFIG)))
    assert code == 0
    assert len(calls) == PSD_POWER_PER_RECONSTRUCT_TRIAL \
        * RECONSTRUCT_CONFIG["trials"], len(calls)


def test_reconstruct_applies_expectation_only_to_contraction_draws(
        monkeypatch):
    calls = count_linalg(monkeypatch, "conditional_expectation", algebra)
    per_trial = []
    original = bounds.proof_internals

    def counted(*args, **kwargs):
        before = len(calls)
        out = original(*args, **kwargs)
        per_trial.append(len(calls) - before)
        return out

    monkeypatch.setattr(bounds, "proof_internals", counted)
    code, _ = run_reconstruct(ExperimentConfig.from_json(
        dict(RECONSTRUCT_CONFIG)))
    assert code == 0
    assert len(per_trial) == RECONSTRUCT_CONFIG["trials"]
    assert all(n <= MAX_EXPECTATIONS_PER_RECONSTRUCT_TRIAL
               for n in per_trial), per_trial
    assert len(calls) == sum(per_trial), (len(calls), per_trial)


def test_internals_take_the_t_grid_in_one_s_t_call_per_operator(
        monkeypatch):
    s_t = count_calls(monkeypatch, entropy, "s_t")
    per_case = []
    original = bounds.proof_internals

    def counted(*args, **kwargs):
        before = len(s_t)
        out = original(*args, **kwargs)
        per_case.append(len(s_t) - before)
        return out

    monkeypatch.setattr(bounds, "proof_internals", counted)
    code, _ = run_reconstruct(ExperimentConfig.from_json(
        dict(RECONSTRUCT_CONFIG)))
    assert code == 0
    assert per_case == [
        S_T_PER_IDENTITY_INTERNALS_CASE if i in IDENTITY_RECONSTRUCT_TRIALS
        else S_T_PER_INTERNALS_CASE
        for i in range(RECONSTRUCT_CONFIG["trials"])], per_case
    assert len(s_t) == sum(per_case)


def test_verify_trials_take_no_svd_or_dense_support_projector(monkeypatch):
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 6, 8, 32])
    reps = [rep_from_name(n) for n in config.functions]
    calls = {name: count_linalg(monkeypatch, name)
             for name in ("support_projector", "schatten_norm")}
    trace_norm = count_linalg(monkeypatch, "trace_norm")
    per_trial, want, cases = [], [], set()
    for i in range(2 * TRIALS):
        dim = config.dims[i % len(config.dims)]
        spec = spec_for(config.specs[i % len(config.specs)], dim)
        rho, sigma, *_ = draw_pair(config, i)
        identity = spec.blocks == [(dim, 1)]
        invertible = rho.is_invertible and sigma.is_invertible
        cases.add((identity, invertible))
        before = len(trace_norm)
        run_trial(config, i, reps)
        per_trial.append(len(trace_norm) - before)
        want.append(TRACE_NORM_PER_EXACT_TRIAL if identity and invertible
                    else TRACE_NORM_PER_TRIAL)
    assert {name: len(c) for name, c in calls.items()} \
        == {"support_projector": 0, "schatten_norm": 0}
    # E = id trials with and without a singular state, and others
    assert {(True, True), (True, False), (False, True)} <= cases, cases
    assert per_trial == want, per_trial


def test_verify_large_takes_its_recovery_errors_from_9_eigvalsh(monkeypatch):
    shapes = []
    original = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    code, _ = run_verify(ExperimentConfig.from_json(dict(VERIFY_LARGE)))
    assert code == 0
    assert {"calls": len(shapes),
            "matrices": sum(s[0] if len(s) == 3 else 1 for s in shapes)} \
        == EIGVALSH_LARGE, shapes


def test_trials_form_each_frame_ratio_once_per_beta(monkeypatch):
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 6, 8])
    reps = [rep_from_name(n) for n in config.functions]
    calls = count_calls(monkeypatch, context.PairContext, "_ratio_n")
    count_calls(monkeypatch, context._Trace, "_ratio_n", calls)
    per_trial, want = [], []
    # trial 19 has E = id and a singular rho
    for i in range(2 * TRIALS):
        dim = config.dims[i % len(config.dims)]
        spec = spec_for(config.specs[i % len(config.specs)], dim)
        rho = draw_pair(config, i)[0]
        before = len(calls)
        run_trial(config, i, reps)
        per_trial.append(len(calls) - before)
        want.append(RATIO_N_PER_IDENTITY_TRIAL[rho.is_invertible]
                    if spec.blocks == [(dim, 1)]
                    else len(set(config.beta_grid) | {0.5}))
    assert {3, *RATIO_N_PER_IDENTITY_TRIAL.values()} <= set(want), want
    assert per_trial == want


def test_grid_constants_are_computed_once_per_key(monkeypatch):
    config = ExperimentConfig.from_json(dict(VERIFY_SMALL))
    caches = grid_caches()
    keys = {}
    for name, cached in caches.items():
        cached.cache_clear()
        keys[name] = []

        def recording(*args, cached=cached, seen=keys[name]):
            seen.append(args)
            return cached(*args)

        monkeypatch.setattr(sys.modules[cached.__module__],
                            cached.__name__, recording)
    code, _ = run_verify(config)
    assert code == 0
    # neg-log and neg-power at each alpha (neg-power:0.5 of functions is
    # alpha 0.5 of the grid), at each beta
    law = caches["petzgap.bounds._law"].cache_info()
    assert law.misses == law.currsize \
        == (1 + len(config.alpha_grid)) * len(config.beta_grid) == 12
    grid_values = set(config.alpha_grid) | set(config.beta_grid) | {
        1.0 - a for a in config.alpha_grid} | {0.5}
    for name, cached in caches.items():
        info = cached.cache_info()
        assert info.misses == info.currsize == len(set(keys[name])), name
        floats = [x for key in keys[name] for arg in key
                  for x in (arg if isinstance(arg, tuple) else (arg,))
                  if isinstance(x, float)]
        assert set(floats) <= grid_values, (name, set(floats) - grid_values)


def test_importing_the_cli_fills_no_cache():
    src = os.path.dirname(os.path.dirname(petzgap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    sizes = ast.literal_eval(subprocess.run(
        [sys.executable, "-c",
         "import sys, petzgap.cli; print(sorted("
         "(f'{f.__module__}.{f.__qualname__}', f.cache_info().currsize) "
         "for m, mod in list(sys.modules.items()) "
         "if m.split('.')[0] == 'petzgap' "
         "for f in vars(mod).values() if hasattr(f, 'cache_info')))"],
        env=env, capture_output=True, text=True, check=True).stdout)
    assert {name for name, _ in sizes} \
        == set(grid_caches()) | {"petzgap.monotone._neg_power"} \
        == {"petzgap.bounds._law", "petzgap.context._flat",
            "petzgap.context._flat_entropies", "petzgap.bounds._plan",
            "petzgap.monotone._neg_power"}
    assert all(size == 0 for _, size in sizes), sizes


def test_theorem_optimum_is_one_call_per_function_and_beta(monkeypatch):
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 6, 8])
    optimum = count_calls(monkeypatch, bounds, "theorem_optimum")
    theorem = count_calls(monkeypatch, bounds, "theorem_bound")
    c_constant = count_calls(monkeypatch, bounds, "c_constant")
    per_trial = []
    want = []
    original = harness.run_trial

    def counted(*args):
        before = len(optimum), len(theorem), len(c_constant)
        record = original(*args)
        per_trial.append((len(optimum) - before[0], len(theorem) - before[1],
                          len(c_constant) - before[2]))
        # an infinite gap asserts the theorem without minimizing it
        finite = [r.name for r in record.reports
                  if r.name.startswith("theorem:")
                  and r.constants["T_star"] is not None]
        want.append((len(finite), THEOREM_BOUND_PER_TRIAL,
                     C_CONSTANT_PER_TRIAL))
        return record

    monkeypatch.setattr(harness, "run_trial", counted)
    code, _ = run_verify(config)
    assert code == 0
    per_function_and_beta = len(config.functions) * len(config.beta_grid)
    assert per_function_and_beta == 6
    assert per_trial == want, per_trial
    assert want.count((per_function_and_beta, THEOREM_BOUND_PER_TRIAL,
                       C_CONSTANT_PER_TRIAL)) == TRIALS - 1, want
    assert len(theorem) == len(c_constant) == 0


def test_reconstruct_integrand_calls(monkeypatch):
    calls = []
    original = quadrature.integrate

    def counting(f, *args, **kwargs):
        def counted(t):
            calls.append(t.shape)
            return f(t)
        return original(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting)
    halflines = [count_calls(monkeypatch, module, "integrate_halfline")
                 for module in (entropy, context)]
    code, _ = run_reconstruct(ExperimentConfig.from_json(
        dict(RECONSTRUCT_CONFIG)))
    assert code == 0
    n_halfline = sum(map(len, halflines))
    n_identity = len(IDENTITY_RECONSTRUCT_TRIALS)
    assert n_halfline == HALFLINE_PER_RECONSTRUCT_TRIAL \
        * (RECONSTRUCT_CONFIG["trials"] - n_identity) \
        + HALFLINE_PER_IDENTITY_RECONSTRUCT_TRIAL * n_identity
    assert len(calls) == INTEGRAND_CALLS_PER_HALFLINE * n_halfline, len(calls)


def test_reconstruct_integrates_the_identity_on_scalar_kernels(monkeypatch):
    w_t = count_calls(monkeypatch, context.PairContext, "w_t")
    count_calls(monkeypatch, context._Identity, "w_t", w_t)
    shapes = []
    original = context.integrate_halfline

    def recording(f):
        def recorded(t):
            vals = f(t)
            shapes.append((vals.dtype, vals.shape, t.size))
            return vals
        return original(recorded)

    monkeypatch.setattr(context, "integrate_halfline", recording)
    per_trial = []
    sizes = []
    original_internals = bounds.proof_internals

    def counted(rep, beta, ctx, *args, **kwargs):
        before = len(w_t)
        out = original_internals(rep, beta, ctx, *args, **kwargs)
        per_trial.append(len(w_t) - before)
        sizes.append(ctx.op.dim
                     * (ctx.op.kept_columns.size + ctx.op_n.kept_columns.size))
        return out

    monkeypatch.setattr(bounds, "proof_internals", counted)
    code, _ = run_reconstruct(ExperimentConfig.from_json(
        dict(RECONSTRUCT_CONFIG)))
    assert code == 0
    assert per_trial == [W_T_PER_RECONSTRUCT_TRIAL] \
        * RECONSTRUCT_CONFIG["trials"], per_trial
    # an E = id trial integrates nothing for the identity
    sizes = [size for i, size in enumerate(sizes)
             if i not in IDENTITY_RECONSTRUCT_TRIALS]
    assert len(shapes) == len(sizes) == RECONSTRUCT_CONFIG["trials"] \
        - len(IDENTITY_RECONSTRUCT_TRIALS)
    assert [(dtype, shape) for dtype, shape, _ in shapes] \
        == [(np.dtype(np.float64), (nodes, size))
            for (_, _, nodes), size in zip(shapes, sizes)], shapes


def test_reconstruct_makes_its_grid_and_probes_once_per_run(monkeypatch):
    """reconstruct {"trials": 12} (dims 2, 3, 4) builds one t grid and
    draws the probes once per dimension; a second run in the same process
    builds and draws its own. Its cores of multiplicity 1 make no einsum."""
    probes = count_calls(monkeypatch, bounds, "contraction_probes")
    logspace = count_calls(monkeypatch, np, "logspace")
    einsum = count_calls(monkeypatch, np, "einsum")
    config = {"trials": 12}
    counts = []
    for _ in range(2):
        code, _ = run_reconstruct(ExperimentConfig.from_json(dict(config)))
        assert code == 0
        counts.append((len(probes), len(logspace), len(einsum)))
    assert counts == [(PROBE_DRAWS_PER_RECONSTRUCT_RUN,
                       LOGSPACE_PER_RECONSTRUCT_RUN,
                       EINSUM_PER_RECONSTRUCT_RUN),
                      (2 * PROBE_DRAWS_PER_RECONSTRUCT_RUN,
                       2 * LOGSPACE_PER_RECONSTRUCT_RUN,
                       2 * EINSUM_PER_RECONSTRUCT_RUN)], counts


class RecordingContext:
    """A PairContext as bounds.battery reads it: each attribute read is
    recorded as its name, each method call as (name, *args)."""

    def __init__(self, ctx, reads: list):
        self.ctx, self.reads = ctx, reads

    def __getattr__(self, name):
        value = getattr(self.ctx, name)
        if not callable(value):
            self.reads.append(name)
            return value

        def call(*args):
            self.reads.append((name, *args))
            return value(*args)
        return call


def test_battery_reads_each_quantity_once(monkeypatch):
    """Per verify trial the battery reads each context quantity once per
    key (where the bounds made about 50 memoized reads), forms the
    ||Delta|| term of the constants once per beta of the grid and 1/2
    (bounds._delta_log, 15 calls before) and looks up no _Law but the
    theorem minimizer's. Its discrepancies and beta-free norms take two
    linalg.hs_norm calls per beta from one D_b, and the recovery
    discrepancy one; an E = id trial takes none for the first two, whose
    D_b is exactly 0, so it calls hs_norm only for the recovery discrepancy
    of a singular rho (6 fewer calls a trial at the default grids)."""
    config = ExperimentConfig(trials=2 * TRIALS, dims=[2, 3, 4, 6, 8])
    reps = [rep_from_name(n) for n in config.functions]
    run_trial(config, 0, reps)  # the plan and its laws: once per process
    reads = []
    original = bounds.battery
    monkeypatch.setattr(bounds, "battery", lambda ctx, *args: original(
        RecordingContext(ctx, reads), *args))
    delta_log = count_calls(monkeypatch, bounds, "_delta_log")
    law = count_calls(monkeypatch, bounds, "_law")
    optimum = count_calls(monkeypatch, bounds, "theorem_optimum")
    hs_norm = count_linalg(monkeypatch, "hs_norm")
    betas = set(config.beta_grid) | {0.5}
    cases = set()
    for i in range(config.trials):
        dim = config.dims[i % len(config.dims)]
        spec = spec_for(config.specs[i % len(config.specs)], dim)
        identity = spec.blocks == [(dim, 1)]
        invertible = draw_pair(config, i)[0].is_invertible
        cases.add((identity, invertible))
        before = len(delta_log), len(law), len(optimum), len(hs_norm)
        reads.clear()
        run_trial(config, i, reps)
        counts = Counter(reads)
        assert max(counts.values()) == 1, (i, counts.most_common(3))
        assert {"delta_norm", "recovery_errors", "recovery_discrepancy",
                "support_leak", "support_leak_n"} <= set(counts), i
        assert {("discrepancy", beta) for beta in betas} \
            | {("beta_free", beta) for beta in config.beta_grid} \
            | {("renyi_gap", alpha) for alpha in config.alpha_grid} \
            <= set(counts), i
        assert len(delta_log) - before[0] == len(betas) == 3
        assert len(law) - before[1] == len(optimum) - before[2]
        assert len(hs_norm) - before[3] == (
            HS_NORM_PER_IDENTITY_TRIAL[invertible] if identity
            else HS_NORM_PER_BETA * len(betas) + 1), (i, identity, invertible)
    assert {(True, True), (True, False), (False, True)} <= cases, cases
