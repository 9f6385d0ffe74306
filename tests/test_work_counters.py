"""Work counters of verify trials.

A trial builds one PairContext, which computes each quantity of the trial
once: one LAPACK eigh per distinct matrix (the two sampled states, rho,
sigma, E(rho), E(sigma) and the matrices their validation decomposes) and
exactly two relative modular operators. A trial used to make about 485 eigh
and 74 modular.build calls at these settings. The counts are deterministic,
so redundancy that creeps back fails here. The eigh budget is an average
over the trials: a trial in which none of those matrices coincide spends
ten.
"""

import numpy as np

from petzgap import modular
from petzgap.harness import ExperimentConfig, run_trial
from petzgap.monotone import rep_from_name

TRIALS = 10
MAX_EIGH_PER_TRIAL = 8
MAX_BUILD_PER_TRIAL = 2


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
    per_trial = []
    for i in range(TRIALS):
        before = len(eigh), len(build)
        run_trial(config, i, reps, config_hash)
        per_trial.append((len(eigh) - before[0], len(build) - before[1]))
    assert len(eigh) <= MAX_EIGH_PER_TRIAL * TRIALS, per_trial
    assert all(b <= MAX_BUILD_PER_TRIAL for _, b in per_trial), per_trial
