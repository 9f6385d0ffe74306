"""Near-singular pairs through the verify battery of `harness.run_trial`.

Each state has a Haar eigenbasis and a Dirichlet spectrum whose last one or
two eigenvalues are set to eps. There a gap or a discrepancy that is 0 in
exact arithmetic, read through -log or a root, turns rounding into a
visible margin, so this is where an asserted margin can fail on a valid
pair. Every asserted margin of every report must hold to the run's
tolerance on the whole population: dims 3, 4, 6, all four spec kinds,
eps in EPSILONS, one or two small eigenvalues in each state.
"""

import itertools
import math

import numpy as np

from petzgap import harness
from petzgap.harness import SPEC_KINDS, ExperimentConfig, run_trial
from petzgap.monotone import rep_from_name

from conftest import near_singular

DIMS = (3, 4, 6)
EPSILONS = (1e-9, 3e-11, 1e-11, 3e-12)
SMALL_COUNTS = (1, 2)


def test_near_singular_margins_hold(monkeypatch):
    rng = np.random.default_rng(1710)
    defaults = ExperimentConfig()
    reps = [rep_from_name(n) for n in defaults.functions]
    checked = 0
    bad = []
    for dim, kind, eps, n_rho, n_sigma in itertools.product(
            DIMS, SPEC_KINDS, EPSILONS, SMALL_COUNTS, SMALL_COUNTS):
        config = ExperimentConfig(trials=1, dims=[dim], specs=[kind])
        pair = (near_singular(rng, dim, n_rho, eps),
                near_singular(rng, dim, n_sigma, eps))
        monkeypatch.setattr(harness, "draw_pair",
                            lambda *_: pair + (dim, dim, dim, "haar"))
        for report in run_trial(config, 0, reps).reports:
            for key, value in report.margins.items():
                if math.isnan(value):
                    continue
                checked += 1
                if value < -config.tolerance:
                    bad.append((dim, kind, eps, n_rho, n_sigma, report.name,
                                key, value))
    assert checked > 0
    assert not bad, f"{len(bad)} of {checked} margins fail: {bad[:5]}"
