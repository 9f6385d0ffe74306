"""Near-singular pairs through the verify battery of `harness.run_trial`.

Each state has a Haar eigenbasis and a Dirichlet spectrum whose last one or
two eigenvalues are set to eps. There a gap or a discrepancy that is 0 in
exact arithmetic, read through -log or a root, turns rounding into a
visible margin, so this is where an asserted margin can fail on a valid
pair. Every asserted margin of every report must hold to the run's
tolerance on the whole population: dims 3, 4, 6, all four spec kinds,
eps in EPSILONS, one or two small eigenvalues in each state.

An exactly singular rho is another matter (ROADMAP item 12): there the
theorem and the corollaries fail on a trial of a shipped config, which a
strict xfail pins until the bounds are mended.
"""

import itertools
import math

import numpy as np
import pytest

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
                value = float(value)  # a "nan" or "inf" marker read back
                if math.isnan(value):
                    continue
                checked += 1
                if value < -config.tolerance:
                    bad.append((dim, kind, eps, n_rho, n_sigma, report.name,
                                key, value))
    assert checked > 0
    assert not bad, f"{len(bad)} of {checked} margins fail: {bad[:5]}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 12: on a singular rho, ||Delta_N|| can exceed ||Delta||, "
    "and the theorem and corollaries then fail"))
def test_singular_rho_trial_of_a_shipped_config_holds():
    """verify {"trials": 400, "dims": [2], "specs": ["pinching"]} exits 1
    on its trial 169 (rank_rho 1, sigma of full rank, ||Delta|| 0.885 and
    ||Delta_N|| 117.2), run here alone: 5 margins at beta = 0.75 fall
    below -tolerance, theorem:neg-log at -0.434 the least. When the bounds
    hold there, this passes, and the strict xfail fails until it is made a
    plain test."""
    config = ExperimentConfig(trials=400, dims=[2], specs=["pinching"])
    reps = [rep_from_name(n) for n in config.functions]
    record = run_trial(config, 169, reps)
    assert record.drawn["rank_rho"] == 1
    bad = sorted((float(value), report.name, report.beta, key)
                 for report in record.reports
                 for key, value in report.margins.items()
                 if float(value) < -config.tolerance)
    assert not bad, bad
