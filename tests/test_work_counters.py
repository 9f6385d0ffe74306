"""Work counters of verify trials.

A trial builds one PairContext, which computes each quantity of the trial
once. A state carries the eigendecomposition it was validated with, so a
trial makes one LAPACK eigh per state: the two sampled states rho and sigma,
and E(rho) and E(sigma), which are rho and sigma themselves when E is the
identity (2 eigh then). It builds exactly two relative modular operators and
one entropy.s_f per (function, operator) pair: 8 for the gaps of neg-log and
neg-power at 0.25, 0.5, 0.75, which the Renyi gaps of orders 0.75, 0.5, 0.25
read too. A trial used to make about 485 eigh, 74 modular.build and 36 s_f
calls at these settings, then up to ten eigh while a context re-diagonalized
every validated state. The counts are deterministic and asserted for every
trial, so redundancy that creeps back fails here.

The theorem's T-family is evaluated on the whole T grid in one
bounds.theorem_bound call, with one bounds.c_constant call, per (function,
beta): 6 of each per trial at the defaults, where a scalar loop over the 40
grid points made 240 and 230.

A verify trial forms no dense power of a state: the discrepancies, the
beta-free bound and the Kraus operators are read from the eigenbases of the
four states (two basis changes per trial and two products per beta), where
linalg.psd_power made 16 dense powers per trial. Only the proof internals of
reconstruct still call it, twice per trial.

A reconstruct run calls the quadrature integrand once per panel. The graded
half-line quadrature makes 144 panels on the reconstruct golden config,
against 1,840 when bisection chased the power-law endpoints of the tails.
"""

import sys

import numpy as np

from petzgap import bounds, entropy, linalg, modular, quadrature
from petzgap.harness import (ExperimentConfig, run_reconstruct, run_trial,
                             spec_for)
from petzgap.monotone import rep_from_name

TRIALS = 10
MAX_EIGH_PER_TRIAL = 4
EIGH_PER_IDENTITY_TRIAL = 2
MAX_BUILD_PER_TRIAL = 2
MAX_S_F_PER_TRIAL = 8
RECONSTRUCT_CONFIG = {"trials": 4, "dims": [2, 3, 4, 6]}
MAX_INTEGRAND_CALLS = 200
PSD_POWER_PER_TRIAL = 0
MAX_PSD_POWER_PER_RECONSTRUCT_TRIAL = 2


def count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_run_trial_computes_each_quantity_once(monkeypatch):
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 6, 8])
    reps = [rep_from_name(n) for n in config.functions]
    config_hash = config.hash()
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    build = count_calls(monkeypatch, modular, "build")
    s_f = count_calls(monkeypatch, entropy, "s_f")
    per_trial = []
    identity = []
    for i in range(TRIALS):
        dim = config.dims[i % len(config.dims)]
        spec = spec_for(config.specs[i % len(config.specs)], dim)
        identity.append(spec.blocks == [(dim, 1)])
        before = len(eigh), len(build), len(s_f)
        run_trial(config, i, reps, config_hash)
        per_trial.append((len(eigh) - before[0], len(build) - before[1],
                          len(s_f) - before[2]))
    assert any(identity) and not all(identity)
    assert all(e <= MAX_EIGH_PER_TRIAL for e, _, _ in per_trial), per_trial
    assert all(e == EIGH_PER_IDENTITY_TRIAL
               for (e, _, _), ident in zip(per_trial, identity) if ident), \
        per_trial
    assert all(b <= MAX_BUILD_PER_TRIAL for _, b, _ in per_trial), per_trial
    assert all(n <= MAX_S_F_PER_TRIAL for _, _, n in per_trial), per_trial


def count_psd_power(monkeypatch) -> list:
    """Count linalg.psd_power calls under every petzgap name bound to it."""
    calls = []
    original = linalg.psd_power

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "petzgap" \
                and getattr(module, "psd_power", None) is original:
            monkeypatch.setattr(module, "psd_power", counting)
    return calls


def test_verify_trials_form_no_dense_power(monkeypatch):
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 6, 8])
    reps = [rep_from_name(n) for n in config.functions]
    config_hash = config.hash()
    calls = count_psd_power(monkeypatch)
    per_trial = []
    for i in range(TRIALS):
        before = len(calls)
        run_trial(config, i, reps, config_hash)
        per_trial.append(len(calls) - before)
    assert per_trial == [PSD_POWER_PER_TRIAL] * TRIALS, per_trial
    calls.clear()
    code, _ = run_reconstruct(ExperimentConfig.from_json(
        dict(RECONSTRUCT_CONFIG)))
    assert code == 0
    assert len(calls) <= MAX_PSD_POWER_PER_RECONSTRUCT_TRIAL \
        * RECONSTRUCT_CONFIG["trials"], len(calls)


def test_theorem_grid_is_one_call_per_function_and_beta(monkeypatch):
    config = ExperimentConfig(trials=TRIALS, dims=[2, 3, 4, 6, 8])
    reps = [rep_from_name(n) for n in config.functions]
    config_hash = config.hash()
    theorem = count_calls(monkeypatch, bounds, "theorem_bound")
    c_constant = count_calls(monkeypatch, bounds, "c_constant")
    limit = len(config.functions) * len(config.beta_grid)
    assert limit == 6
    for i in range(TRIALS):
        before = len(theorem), len(c_constant)
        run_trial(config, i, reps, config_hash)
        assert 0 < len(theorem) - before[0] <= limit
        assert 0 < len(c_constant) - before[1] <= limit


def test_reconstruct_integrand_calls(monkeypatch):
    calls = []
    original = quadrature.integrate

    def counting(f, *args, **kwargs):
        def counted(t):
            calls.append(t.shape)
            return f(t)
        return original(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting)
    code, _ = run_reconstruct(ExperimentConfig.from_json(
        dict(RECONSTRUCT_CONFIG)))
    assert code == 0
    assert 0 < len(calls) <= MAX_INTEGRAND_CALLS, len(calls)
