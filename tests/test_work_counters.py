"""Work counters of verify trials.

A trial builds one PairContext, which computes each quantity of the trial
once: one LAPACK eigh per distinct matrix (the two sampled states, rho,
sigma, E(rho), E(sigma) and the matrices their validation decomposes),
exactly two relative modular operators, and one entropy.s_f per (function,
operator) pair: 8 for the gaps of neg-log and neg-power at 0.25, 0.5, 0.75,
which the Renyi gaps of orders 0.75, 0.5, 0.25 read too. A trial used to
make about 485 eigh, 74 modular.build and 36 s_f calls at these settings,
and 14 s_f calls while the Renyi gaps evaluated their own power entropies.
The counts are deterministic, so redundancy that creeps back fails here.
The eigh budget is an average over the trials: a trial in which none of
those matrices coincide spends ten.
"""

import numpy as np

from petzgap import entropy, modular
from petzgap.harness import ExperimentConfig, run_trial
from petzgap.monotone import rep_from_name

TRIALS = 10
MAX_EIGH_PER_TRIAL = 8
MAX_BUILD_PER_TRIAL = 2
MAX_S_F_PER_TRIAL = 8


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
    for i in range(TRIALS):
        before = len(eigh), len(build), len(s_f)
        run_trial(config, i, reps, config_hash)
        per_trial.append((len(eigh) - before[0], len(build) - before[1],
                          len(s_f) - before[2]))
    assert len(eigh) <= MAX_EIGH_PER_TRIAL * TRIALS, per_trial
    assert all(b <= MAX_BUILD_PER_TRIAL for _, b, _ in per_trial), per_trial
    assert all(n <= MAX_S_F_PER_TRIAL for _, _, n in per_trial), per_trial
