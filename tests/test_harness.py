import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import petzgap
from petzgap import bounds, harness, states
from petzgap.bounds import FLAG_INFINITE_GAP, GRID_KEYS, json_safe
from petzgap.cli import main
from petzgap.context import PairContext
from petzgap.errors import InvalidInput, NumericalFailure, PetzGapError
from petzgap.harness import (CSV_HEADER, ExperimentConfig, draw_pair,
                             run_reconstruct, run_sweep, run_trial,
                             run_verify, sanitize, spec_for)
from petzgap.monotone import rep_from_name

from oracles import report_text, scalar_theorem_bound

SMALL = dict(trials=3, dims=[2, 3], specs=["pinching", "trivial"],
             functions=["neg-log"], alpha_grid=[0.5], beta_grid=[0.5],
             seed=7)


def trials_of(report) -> list:
    """The trial records of a verify report, parsed from the JSON text that
    run_verify keeps of each."""
    return [json.loads(text) for text in report["trials"]]


def test_overflowing_theorem_constant_asserts_no_nan_margin():
    # C ~ 1/alpha overflows at alpha = 1e-320 where the gap rounds to 0, so
    # the T-family's right side is inf * 0 = nan at every T: its margin is
    # nan, which the summary counts as skipped, not checked
    config = ExperimentConfig(functions=["neg-power:1e-320"], trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report = run_verify(config)
    assert code == 0
    summary = report["summary"]
    assert summary["flag_counts"] == {}
    assert summary["margins_skipped"] == 6
    theorem = [r for trial in trials_of(report) for r in trial["reports"]
               if r["name"] == "theorem:neg-power:1e-320"]
    assert len(theorem) == 6
    for r in theorem:
        assert r["margins"] == {"theorem_T_opt": "nan"}
        assert r["flags"] == []
        assert r["constants"]["T_star"] == "nan"


def test_theorem_optimum_of_an_overflowed_constant():
    # only C = pi/sin(alpha pi) = inf at alpha = 1e-320 makes a nan, and
    # only at a gap <= 0 (inf * 0); a positive gap gives an inf minimum
    for name in ("neg-log", "neg-power:0.5", "neg-power:1e-320"):
        rep = rep_from_name(name)
        for beta in (0.25, 0.5, 0.75):
            zero = bounds.theorem_optimum(rep, beta, 3.0, 0.0)
            positive = bounds.theorem_optimum(rep, beta, 3.0, 0.2)
            if name == "neg-power:1e-320":
                assert all(math.isnan(v) for v in zero), zero
                assert positive[0] == math.inf
            else:
                assert zero == (0.0, math.inf)
                assert 0.0 < positive[0] < math.inf


def test_config_validation():
    with pytest.raises(InvalidInput):
        ExperimentConfig(trials=0)
    with pytest.raises(InvalidInput):
        ExperimentConfig(dims=[1])
    with pytest.raises(InvalidInput):
        ExperimentConfig(specs=["bogus"])
    with pytest.raises(InvalidInput):
        ExperimentConfig(functions=["neg-exp"])
    with pytest.raises(InvalidInput):
        ExperimentConfig(alpha_grid=[1.0])
    with pytest.raises(InvalidInput):
        ExperimentConfig(beta_grid=[])
    with pytest.raises(InvalidInput):
        ExperimentConfig(tolerance=0.0)
    with pytest.raises(InvalidInput):
        ExperimentConfig(epsilon_ladder=[-1e-3])
    with pytest.raises(InvalidInput):
        ExperimentConfig(t_points=1)


def test_config_json_round_trip_excludes_routing():
    cfg = ExperimentConfig(output_path="/tmp/out.json", seed=3)
    blob = cfg.to_json()
    assert "output_path" not in blob
    again = ExperimentConfig.from_json(blob)
    assert again.to_json() == blob
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_json({"seed": 1, "bogus_key": 2})
    with pytest.raises(InvalidInput):
        ExperimentConfig.from_json([1, 2])


def test_config_hash_identity():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1, output_path="/elsewhere.json")
    c = ExperimentConfig(seed=2)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
    assert len(a.hash()) == 64


def test_spec_for_kinds():
    assert spec_for("trivial", 4).blocks == [(1, 4)]
    assert spec_for("full", 4).blocks == [(4, 1)]
    assert spec_for("pinching", 5).blocks == [(3, 1), (2, 1)]
    assert spec_for("partial-trace", 6).dim == 6
    # prime dimension degenerates to the full algebra
    assert spec_for("partial-trace", 5).blocks == [(5, 1)]
    with pytest.raises(InvalidInput):
        spec_for("bogus", 4)


def test_draw_pair_policies():
    cfg = ExperimentConfig(**SMALL)
    rho, sigma, dim, rank_rho, rank_sigma, kind = draw_pair(cfg, 0)
    assert dim == 2 and rank_rho == 2 and rank_sigma == 2 and kind == "ginibre"
    _, _, _, rank_rho, _, _ = draw_pair(cfg, 4)
    assert rank_rho == draw_pair(cfg, 4)[2] - 1
    _, _, _, _, rank_sigma, _ = draw_pair(cfg, 6)
    assert rank_sigma == draw_pair(cfg, 6)[2] - 1
    assert draw_pair(cfg, 3)[5] == "diagonal"
    # deterministic across calls
    a = draw_pair(cfg, 1)
    b = draw_pair(cfg, 1)
    assert np.array_equal(a[0].matrix, b[0].matrix)
    assert np.array_equal(a[1].matrix, b[1].matrix)


def test_run_trial_record_shape():
    cfg = ExperimentConfig(**SMALL)
    reps = [rep_from_name(n) for n in cfg.functions]
    record = run_trial(cfg, 0, reps)
    assert record.reports
    blob = record.to_json()
    assert "wall_time" not in blob
    assert "config_hash" not in blob
    assert blob["status"] == "ok"
    assert blob["dim"] == 2
    names = [r["name"] for r in blob["reports"]]
    assert "dpi:neg-log" in names
    assert "theorem:neg-log" in names
    assert "recovery-chain" in names


@pytest.mark.parametrize("name,alpha", [("neg-log", None),
                                        ("neg-power:0.5", 0.5)])
def test_theorem_report_margin_rules(name, alpha):
    rep = rep_from_name(name)
    beta, disc, delta_norm = 0.3, 0.02, 4.5
    lhs = math.pi / math.sin(beta * math.pi) * disc
    dense_t = np.logspace(-3, 6, 4001)
    for g in (0.0, 1e-12, 0.3, -1e-15):
        report = bounds.theorem_report(rep, beta, disc, delta_norm, g)
        value, t_star = bounds.theorem_optimum(rep, beta, delta_norm, g)
        assert report.constants["T_star"] == t_star
        assert report.margins["theorem_T_opt"] == value - lhs
        # the exact minimum lies at or below every sampled T
        assert value <= min(scalar_theorem_bound(alpha, beta, dense_t,
                                                 delta_norm, g))
        if g <= 0.0:
            assert (value, t_star) == (0.0, math.inf)
        assert report.flags == []
    infinite = bounds.theorem_report(rep, beta, disc, delta_norm, math.inf)
    assert infinite.margins == {"theorem_T_opt": math.inf}
    assert infinite.flags == [FLAG_INFINITE_GAP]
    assert infinite.constants["T_star"] is None
    undefined = bounds.theorem_report(rep, beta, disc, delta_norm, math.nan)
    assert undefined.margins == {}
    assert undefined.flags == [FLAG_INFINITE_GAP]
    assert undefined.constants["T_star"] is None
    for report in (infinite, undefined):
        assert report.constants == {"T_star": None, "lhs": lhs}


def test_theorem_margins_hold_on_the_benchmark_populations():
    # verify {"trials": 60, "dims": [2, 3, 4, 6, 8]} at seeds 0-20 and
    # verify {"trials": 12, "dims": [32, 48, 64]} at seeds 0-10: at the
    # exact minimum over T the theorem holds on every trial
    for settings, seeds in (({"trials": 60, "dims": [2, 3, 4, 6, 8]}, 21),
                            ({"trials": 12, "dims": [32, 48, 64]}, 11)):
        for seed in range(seeds):
            config = ExperimentConfig(seed=seed, **settings)
            code, report = run_verify(config)
            summary = report["summary"]
            assert code == 0, (settings, seed)
            assert summary["margins_skipped"] == 0, (settings, seed)
            assert summary["min_margin_by_family"]["theorem"] \
                >= -config.tolerance, (settings, seed)


def test_run_verify_passes_and_is_deterministic():
    cfg = ExperimentConfig(**SMALL)
    code, report = run_verify(cfg)
    assert code == 0
    summary = report["summary"]
    assert summary["trials"] == 3
    assert summary["failures"] == 0
    assert summary["margins_checked"] > 0
    assert summary["min_margin"] >= -cfg.tolerance
    code2, report2 = run_verify(ExperimentConfig(**SMALL))
    assert code2 == 0
    assert report_text(report) == report_text(report2)


def test_verify_reports_each_bound_once():
    # one gap lower bound per function: no generic report, which the
    # corollaries repeat, and corollary-power at each alpha of alpha_grid,
    # then at that of a neg-power function alpha_grid lacks
    for functions, extra in ((["neg-log", "neg-power:0.5"], []),
                             (["neg-log", "neg-power:0.3"], [0.3])):
        config = ExperimentConfig(trials=4, functions=functions)
        powers = [f"corollary-power:{a!r}" for a in config.alpha_grid + extra]
        _, report = run_verify(config)
        for trial in trials_of(report):
            keys = [(r["name"], r["beta"]) for r in trial["reports"]]
            assert len(keys) == len(set(keys))
            assert not any(name.startswith("generic:") for name, _ in keys)
            for beta in config.beta_grid:
                assert [name for name, b in keys if b == beta and
                        name.startswith("corollary-power:")] == powers


def test_reports_leave_trial_quantities_and_grid_constants_out():
    config = ExperimentConfig(trials=8, dims=[2, 3, 4])
    reps = [rep_from_name(n) for n in config.functions]
    _, report = run_verify(config)
    written = json.loads(report_text(report))
    alphas, betas = config.alpha_grid, config.beta_grid
    functions = set(config.functions) | {"neg-log"} \
        | {f"neg-power:{a:g}" for a in alphas}
    assert FLAG_INFINITE_GAP in written["summary"]["flag_counts"]
    for i, trial in enumerate(written["trials"]):
        for r in trial["reports"]:
            assert not {"schema", "gap", "discrepancy", "delta_norm"} & set(r)
            assert not GRID_KEYS & set(r["constants"])
        # the grid constants are the same in every trial
        assert bounds.grid_constants(
            run_trial(config, i, reps).reports) \
            == written["grid"]
        rho, sigma, dim, _, _, _ = draw_pair(config, i)
        ctx = PairContext(rho, sigma,
                          spec_for(config.specs[i % len(config.specs)], dim))
        e_rho, e_sigma = ctx.recovery_errors
        want = {"delta_norm": ctx.delta_norm,
                "gap": {n: ctx.gap(rep_from_name(n)) for n in functions},
                "renyi_gap": {repr(a): ctx.renyi_gap(a) for a in alphas},
                "discrepancy": {repr(b): ctx.discrepancy(b)
                                for b in betas + [0.5]},
                "beta_free": {repr(b): ctx.beta_free(b) for b in betas},
                "recovery_discrepancy": ctx.recovery_discrepancy,
                "e_rho": e_rho, "e_sigma": e_sigma,
                "support_leak": ctx.support_leak,
                "support_leak_n": ctx.support_leak_n}
        assert trial["quantities"] == json_safe(want), i


def test_bound_reports_hold_what_they_write():
    assert {f.name for f in dataclasses.fields(bounds.BoundReport)} \
        == set(bounds.BoundReport(name="dpi:neg-log", beta=None).to_json())
    config = ExperimentConfig()
    reps = [rep_from_name(n) for n in config.functions]
    record = run_trial(config, 4, reps)
    assert record.drawn["rank_rho"] < record.drawn["dim"]
    beta_free = [r for r in record.reports if r.name == "beta-free"]
    assert len(beta_free) == len(config.beta_grid)
    assert all(r.constants == {} for r in beta_free)
    for report in record.reports:
        assert not {"e_rho", "e_sigma", "support_leak", "disc_pseudo"} \
            & set(report.constants), report.name


def test_alphas_that_print_alike_keep_their_own_names():
    # at 6 significant digits both alphas print as 0.123457
    _, report = run_verify(ExperimentConfig(
        trials=1, dims=[2], specs=["pinching"], functions=["neg-log"],
        alpha_grid=[0.1234567, 0.12345671], beta_grid=[0.5]))
    trial = trials_of(report)[0]
    assert sorted(trial["quantities"]["gap"]) == [
        "neg-log", "neg-power:0.1234567", "neg-power:0.12345671"]
    assert sorted(trial["quantities"]["renyi_gap"]) == [
        "0.1234567", "0.12345671"]
    names = [r["name"] for r in trial["reports"]]
    assert len(names) == len(set(names))
    exponents = {report["grid"][f"corollary-power:{a}"]["0.5"]["exponent"]
                 for a in ("0.1234567", "0.12345671")}
    assert len(exponents) == 2


def test_summary_locates_the_least_margin_and_counts_flags(monkeypatch):
    original = bounds.recovery_chain

    def with_a_nan_margin(ctx):
        report = original(ctx)
        report.margins["planted"] = math.nan
        return report

    monkeypatch.setattr(bounds, "recovery_chain", with_a_nan_margin)
    config = ExperimentConfig(**SINGULAR)
    _, report = run_verify(config)
    summary = report["summary"]
    trials = trials_of(report)
    by_family, flags, skipped = {}, Counter(), 0
    for trial in trials:
        for r in trial["reports"]:
            flags.update(r["flags"])
            for value in map(float, r["margins"].values()):
                if math.isnan(value):
                    skipped += 1
                else:
                    by_family.setdefault(r["name"].partition(":")[0],
                                         []).append(value)
    assert summary["margins_skipped"] == skipped == config.trials
    assert summary["margins_checked"] == sum(map(len, by_family.values()))
    assert summary["min_margin_by_family"] == {
        family: min(values) for family, values in by_family.items()}
    assert summary["flag_counts"] == dict(flags)
    worst = summary["worst_margin"]
    located = [r for r in trials[worst["trial_index"]]["reports"]
               if (r["name"], r["beta"]) == (worst["report"], worst["beta"])]
    assert len(located) == 1
    assert located[0]["margins"][worst["key"]] == worst["value"] \
        == summary["min_margin"] \
        == min(summary["min_margin_by_family"].values())


def test_dumps_report_writes_a_family_of_infinite_margins(monkeypatch):
    # every trial draws the pair of trial 6, whose sigma is singular while
    # rho is not, so every gap is infinite and so is every dpi margin
    original = harness.draw_pair
    monkeypatch.setattr(harness, "draw_pair",
                        lambda config, i, states=None: original(config, 6))
    code, report = run_verify(ExperimentConfig(
        trials=2, dims=[2], specs=["trivial"], functions=["neg-log"],
        alpha_grid=[0.5], beta_grid=[0.5]))
    assert code == 0
    assert report["summary"]["min_margin_by_family"]["dpi"] == math.inf
    written = json.loads(report_text(report))
    assert written["summary"]["min_margin_by_family"]["dpi"] == "inf"
    assert written["trials"][0]["quantities"]["gap"]["neg-log"] == "inf"


def test_run_sweep_csv_contract():
    cfg = ExperimentConfig(trials=1, dims=[4], seed=11,
                           epsilon_ladder=[0.0, 1e-4, 1e-2])
    code, text = run_sweep(cfg)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert text.endswith("\n")
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert abs(first[1]) <= 1e-9
    assert first[2] <= 1e-8
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")]
        assert len(row) == 8
        assert row[1] >= -1e-9


def test_run_sweep_needs_composite_dimension():
    cfg = ExperimentConfig(trials=1, dims=[3], seed=11)
    with pytest.raises(InvalidInput):
        run_sweep(cfg)


def test_verify_runs_leave_nothing_behind_for_the_next():
    """Verify on A, then on B (other functions, alpha and beta grids), then
    on A again in one process: A's reports are the same bytes, and B's are
    those of B run first in a fresh interpreter. Nothing a run computes,
    such as its contraction probes, outlives it."""
    a = dict(trials=6, dims=[2, 3, 4])
    b = dict(trials=6, dims=[2, 3, 4], functions=["neg-power:0.3"],
             alpha_grid=[0.4], beta_grid=[0.6, 0.2])

    def verify(config):
        return report_text(run_verify(ExperimentConfig(**config))[1])

    first_a, in_process_b, second_a = verify(a), verify(b), verify(a)
    assert first_a == second_a
    src = os.path.dirname(os.path.dirname(petzgap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh_b = subprocess.run(
        [sys.executable, "-c",
         "import sys; from petzgap.harness import ExperimentConfig, "
         "dumps_report, run_verify; sys.stdout.writelines(dumps_report("
         f"run_verify(ExperimentConfig(**{b!r}))[1]))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert in_process_b == fresh_b
    assert in_process_b != first_a


def test_run_reconstruct_small_battery():
    cfg = ExperimentConfig(trials=2, dims=[3], specs=["pinching"],
                           functions=["neg-log"], beta_grid=[0.5],
                           seed=13, t_points=6)
    code, report = run_reconstruct(cfg)
    assert code == 0
    assert report["summary"]["max_error"] <= 1e-5
    statuses = [c["status"] for c in report["cases"]]
    assert statuses.count("ok") == 2
    assert statuses.count("internals") == 2


def test_run_reconstruct_integrates_the_beta_095_identity():
    # the t^0.95 weight of the discrepancy identity gives the inverted tail
    # an s^-0.95 endpoint, which the graded bisection quadrature could not
    # integrate: 7 internals cases failed on a non-finite value
    code, report = run_reconstruct(ExperimentConfig(trials=12,
                                                    beta_grid=[0.95]))
    assert code == 0
    assert report["summary"]["max_error"] <= 1e-6
    assert all(c["status"] != "failed" for c in report["cases"])


def test_run_reconstruct_beta_099_is_recorded_and_fails_the_gate():
    # s^-0.99 is beyond the truncated rule in doubles: every internals case
    # is recorded with finite values, and the identity residual fails
    code, report = run_reconstruct(ExperimentConfig(trials=12,
                                                    beta_grid=[0.99]))
    assert code == 1
    assert all(c["status"] != "failed" for c in report["cases"])
    internals = [c for c in report["cases"] if c["status"] == "internals"]
    assert len(internals) == 12
    keys = ("contraction_margin", "per_t_gap_margin", "decay_margin",
            "identity_residual", "gap_residual")
    assert all(math.isfinite(c[k]) for c in internals for k in keys)
    assert max(c["identity_residual"] for c in internals) > 1e-5


@pytest.mark.parametrize("key", ["contraction_margin", "per_t_gap_margin",
                                 "decay_margin"])
def test_nan_internals_margin_fails_the_run(monkeypatch, key):
    original = bounds.proof_internals

    def nan_margin(*args, **kwargs):
        return dict(original(*args, **kwargs), **{key: math.nan})

    monkeypatch.setattr(bounds, "proof_internals", nan_margin)
    code, report = run_reconstruct(ExperimentConfig(
        trials=2, dims=[3], functions=["neg-log"], t_points=6))
    assert code == 1
    assert report["summary"]["max_error"] == math.inf
    internals = [c for c in report["cases"] if c["status"] == "internals"]
    assert [c[key] for c in internals] == ["nan", "nan"]


def test_nan_identity_residual_fails_the_run(monkeypatch):
    # max(0.0, nan) is 0.0: folded in with max alone, the nan left the run
    # at exit 0 with max_error 2.2e-16
    original = bounds.proof_internals

    def nan_residual(*args, **kwargs):
        return dict(original(*args, **kwargs), identity_residual=math.nan)

    monkeypatch.setattr(bounds, "proof_internals", nan_residual)
    code, report = run_reconstruct(ExperimentConfig(
        trials=2, dims=[3], functions=["neg-log"], t_points=6))
    assert code == 1
    assert report["summary"]["max_error"] == math.inf
    internals = [c for c in report["cases"] if c["status"] == "internals"]
    assert [c["identity_residual"] for c in internals] == ["nan", "nan"]


def test_nan_reconstruction_error_fails_the_run(monkeypatch):
    # the gap residual reads the same reconstruction: its nan, the mark of
    # a DomainError, is the one nan the gate skips
    monkeypatch.setattr(PairContext, "reconstructions",
                        lambda self, reps: [(math.nan, math.nan)] * len(reps))
    code, report = run_reconstruct(ExperimentConfig(
        trials=2, dims=[3], functions=["neg-log"], t_points=6))
    assert code == 1
    assert report["summary"]["max_error"] == math.inf
    ok = [c for c in report["cases"] if c["status"] == "ok"]
    assert [(c["entropy_error"], c["gap_error"]) for c in ok] \
        == [("nan", "nan")] * 2


def test_nan_gap_residual_alone_is_skipped(monkeypatch):
    original = bounds.proof_internals

    def nan_gap(*args, **kwargs):
        return dict(original(*args, **kwargs), gap_residual=math.nan)

    monkeypatch.setattr(bounds, "proof_internals", nan_gap)
    code, report = run_reconstruct(ExperimentConfig(
        trials=2, dims=[3], functions=["neg-log"], t_points=6))
    assert code == 0
    assert report["summary"]["max_error"] <= 1e-5


def test_function_values_do_not_depend_on_the_config():
    """A function's case values are the same bits whether the config names
    it alone or beside others, in either order: the functions of a trial
    share one integral with a trailing axis per function."""
    def errors(functions):
        _, report = run_reconstruct(ExperimentConfig(
            trials=4, dims=[2, 3, 4, 6], functions=functions))
        return {(c["trial_index"], c["function"]):
                (c["entropy_error"], c["gap_error"])
                for c in report["cases"] if c["status"] == "ok"}

    names = ["neg-log", "neg-power:0.5", "neg-power:0.9"]
    together = errors(names)
    assert errors(names[::-1]) == together
    alone = {}
    for name in names:
        alone.update(errors([name]))
    assert alone == together
    assert len(together) == 4 * len(names)


# trials 4 and 6 draw a singular rho and a singular sigma; the run has an
# infinite-gap trial and "inf" and "nan" markers in its reports
SINGULAR = dict(trials=7, dims=[2, 3], functions=["neg-log"],
                alpha_grid=[0.5], beta_grid=[0.5])


def test_dumps_report_matches_sanitized_reconstruct_report(monkeypatch):
    original = bounds.proof_internals
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalFailure("quadrature failed to converge on [0, 1]")
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "proof_internals", fail_second)
    code, report = run_reconstruct(ExperimentConfig(
        trials=3, dims=[3], functions=["neg-log"], t_points=6))
    assert code == 1
    assert report["summary"]["max_error"] == math.inf
    parsed = json.loads(report_text(report))
    assert parsed == sanitize(report)
    assert parsed["summary"]["max_error"] == "inf"
    assert [c["status"] for c in parsed["cases"]].count("failed") == 1


def test_dumps_report_rejects_a_stray_nan(monkeypatch, tmp_path, capsys):
    # json_safe marks only Python floats: a numpy nan reaches the trial's
    # encode unmarked, and the command names the encoder's ValueError
    original = PairContext.quantities

    def with_a_stray_nan(self):
        return dict(original(self), delta_norm=np.float64(math.nan))

    monkeypatch.setattr(PairContext, "quantities", with_a_stray_nan)
    with pytest.raises(ValueError, match="JSON compliant"):
        run_verify(ExperimentConfig(**SMALL))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("petzgap: ValueError: ")
    assert "JSON compliant" in err[0]
    assert not out.exists()


def overflow_on_trial_1(monkeypatch):
    original = harness.run_trial

    def overflow_on_one(config, trial_index, *args, **kwargs):
        if trial_index == 1:
            raise OverflowError("(34, 'Numerical result out of range')")
        return original(config, trial_index, *args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", overflow_on_one)


@pytest.mark.parametrize("config,erroring", [
    (("verify", SMALL), False), (("verify", SINGULAR), False),
    (("verify", SMALL), True),
    (("reconstruct", dict(trials=2, dims=[2, 3], t_points=6)), False)])
def test_spliced_report_is_the_one_shot_encoding(monkeypatch, tmp_path,
                                                  config, erroring):
    """The file cli.main writes from dumps_report's parts, for a (command,
    settings) config, is the bytes one json.dumps of the whole report
    writes: SINGULAR has infinite-gap margins, the erroring run an error
    record between two ok trials, and a reconstruct report is one part."""
    command, settings = config
    if erroring:
        overflow_on_trial_1(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(settings))
    out = tmp_path / "report.json"
    assert main([command, "--config", str(path), "--out", str(out)]) \
        == (1 if erroring else 0)
    text = out.read_bytes().decode("utf-8")
    written = json.loads(text)
    if command == "verify":
        assert written["summary"]["error_trials"] == (1 if erroring else 0)
    assert text == json.dumps(written, sort_keys=True, separators=(",", ":"),
                              allow_nan=False) + "\n"


def test_verify_keeps_each_trial_as_its_text(tmp_path):
    """A verify command, run and write (cli.main, whose one writelines takes
    dumps_report's parts), holds at most 2 bytes of heap per byte of report:
    the run keeps each trial's record only as its JSON text, and no
    whole-report string or bytes is built (1.8 bytes). Writing one join of
    the parts took 3.2 bytes."""
    path = tmp_path / "config.json"
    out = tmp_path / "report.json"
    argv = ["verify", "--config", str(path), "--out", str(out)]
    config = dict(trials=20, dims=[2, 3, 4, 6, 8])
    # one-time allocations of a first command (imports, shared reps) are
    # not the run's
    path.write_text(json.dumps(dict(config, trials=1)))
    assert main(argv) == 0
    path.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert peak <= 2 * size, (peak, size)


def test_sanitize_and_dumps():
    blob = sanitize({"a": np.float64(1.5), "b": math.inf, "c": -math.inf,
                     "d": math.nan, "e": np.int32(4), "f": (1, 2)})
    assert blob == {"a": 1.5, "b": "inf", "c": "-inf", "d": "nan", "e": 4,
                    "f": [1, 2]}
    code, report = run_verify(ExperimentConfig(**SINGULAR))
    assert code == 0
    assert report["summary"]["infinite_gap_trials"] >= 1
    text = report_text(report)
    assert '"inf"' in text and '"nan"' in text
    assert json.loads(text) == sanitize(dict(report,
                                             trials=trials_of(report)))
    # the summary stays numeric in memory; only the written copy is converted
    assert isinstance(report["summary"]["min_margin"], float)
    # one compact line with sorted keys
    assert text.endswith("\n")
    assert text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_json_safe_marks_only_non_finite_floats():
    values = {"a": 1.5, "b": math.inf, "c": -math.inf, "d": math.nan,
              "e": 4, "f": None, "g": "x", "h": 5e-324, "i": True,
              "j": {"k": math.inf, "l": {"m": math.nan}}}
    assert json_safe(values) == {"a": 1.5, "b": "inf", "c": "-inf",
                                 "d": "nan", "e": 4, "f": None, "g": "x",
                                 "h": 5e-324, "i": True,
                                 "j": {"k": "inf", "l": {"m": "nan"}}}
    assert values["b"] == math.inf
    assert values["j"]["k"] == math.inf


def test_verify_records_an_erroring_trial_and_goes_on(monkeypatch):
    overflow_on_trial_1(monkeypatch)
    cfg = ExperimentConfig(**SMALL)
    code, report = run_verify(cfg)
    assert code == 1
    summary = report["summary"]
    assert summary["error_trials"] == 1
    assert summary["failures"] == 0
    assert summary["trials"] == 3
    trials = trials_of(report)
    assert [t["trial_index"] for t in trials] == [0, 1, 2]
    assert trials[1] == {
        "trial_index": 1, "status": "error",
        "error": "OverflowError: (34, 'Numerical result out of range')",
        "reports": []}
    assert trials[0]["reports"] and trials[2]["reports"]
    assert [t["status"] for t in trials] == ["ok", "error", "ok"]
    assert json.loads(report_text(report)) == sanitize(dict(report,
                                                            trials=trials))


@pytest.mark.parametrize("command,config", [
    (run_verify, {"trials": 60, "dims": [2, 3, 4, 6, 8]}),
    (run_verify, {"trials": 12, "dims": [16, 24, 32]}),
    (run_verify, {"trials": 40, "dims": [5, 9, 12], "seed": 3}),
    (run_reconstruct, {"trials": 12})])
def test_one_trial_per_block_writes_the_same_report(monkeypatch, command,
                                                    config):
    """The states of a run are prepared a block of trials at a time; with
    a block budget of one trial per block (its two states in one stack) the
    report is the same, byte for byte, and so is the exit code, as it is
    with no budget, one trial per block too."""
    prepared = []
    sample_states = harness.sample_states
    monkeypatch.setattr(harness, "sample_states",
                        lambda draws: prepared.append(len(draws))
                        or sample_states(draws))
    one_trial = 2 * 16 * max(config.get("dims", [2, 3, 4])) ** 2
    reports = []
    for budget, stacks in ((harness.BLOCK_BYTES, None),
                           (one_trial, [2] * config["trials"]),
                           (0, [2] * config["trials"])):
        monkeypatch.setattr(harness, "BLOCK_BYTES", budget)
        prepared.clear()
        code, report = command(ExperimentConfig.from_json(dict(config)))
        reports.append((code, report_text(report)))
        assert stacks is None or prepared == stacks
    assert reports[0] == reports[1] == reports[2]


# each makes a drawn ginibre matrix (unit trace) fail one check of
# make_density, named by the error it raises: Hermitian, trace, positivity
# (the (1, 1) entry m11 < 1 goes below 0, and so does the least
# eigenvalue), and Hermitian again for nan
DEFECTS = {
    "not-hermitian": (lambda m: m + 1e-3 * np.eye(len(m), k=1),
                      "InvalidInput"),
    "trace-1.1": (lambda m: 1.1 * m, "NotNormalized"),
    "negative-eigenvalue": (
        lambda m: m + np.diag([1.0, -1.0] + [0.0] * (len(m) - 2)), "NotPSD"),
    "nan-entry": (lambda m: m + np.diag([np.nan] + [0.0] * (len(m) - 1)),
                  "InvalidInput")}


def bad_trial_3_sigma(monkeypatch, defect: str) -> list:
    """Patch the ginibre sampler so that trial 3's sigma (stream index
    2 * 3 + 1) carries the defect; returns the list every such draw is
    appended to."""
    ginibre = states._ginibre
    drawn = []

    def draw(rng, dim, rank):
        m = ginibre(rng, dim, rank)
        if rng.bit_generator.state["state"]["key"][1] == 7:
            m = DEFECTS[defect][0](m)
            drawn.append(m)
        return m

    monkeypatch.setattr(states, "_ginibre", draw)
    return drawn


def error_text(m) -> str:
    """What make_density raises for the matrix m alone, as a verify trial
    records it."""
    with pytest.raises(PetzGapError) as info:
        petzgap.states.make_density(m)
    return f"{type(info.value).__name__}: {info.value}"


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_bad_state_fails_only_its_own_trial(monkeypatch, defect):
    """A bad drawn matrix, validated in one stack with the states of the
    other trials, makes its own trial an error with the text make_density
    raises for it alone (exit 1) and leaves every other trial's record as
    it is, to the byte. Its block raised, so each trial of the block drew
    its states again alone: trial 3's sigma is drawn twice, at its own
    dimension."""
    config = ExperimentConfig(trials=8, dims=[2, 3, 4])
    _, clean = run_verify(config)
    drawn = bad_trial_3_sigma(monkeypatch, defect)
    code, report = run_verify(config)
    assert code == 1
    assert [m.shape[0] for m in drawn] \
        == [config.dims[3 % len(config.dims)]] * 2
    assert report["summary"]["error_trials"] == 1
    assert trials_of(report)[3] == {
        "trial_index": 3, "status": "error", "error": error_text(drawn[0]),
        "reports": []}
    assert error_text(drawn[0]).startswith(DEFECTS[defect][1] + ": ")
    assert [t["status"] for t in trials_of(report)] \
        == ["ok"] * 3 + ["error"] + ["ok"] * 4
    assert [t for i, t in enumerate(report["trials"]) if i != 3] \
        == [t for i, t in enumerate(clean["trials"]) if i != 3]


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_bad_state_fails_only_its_own_reconstruct_cases(monkeypatch,
                                                          defect):
    """In reconstruct, a bad drawn matrix fails every case of its own
    trial, with the reason make_density gives for it alone, sets max_error
    to inf (exit 1), and leaves every other case as it is."""
    config = ExperimentConfig(trials=6)
    _, clean = run_reconstruct(config)
    drawn = bad_trial_3_sigma(monkeypatch, defect)
    code, report = run_reconstruct(config)
    assert code == 1
    assert report["summary"] == {"cases": len(clean["cases"]),
                                 "max_error": math.inf}
    reason = error_text(drawn[0]).partition(": ")[2]
    for case, was in zip(report["cases"], clean["cases"]):
        if case["trial_index"] == 3:
            assert case == {k: was[k] for k in (
                "trial_index", "dim", "spec_kind", "function", "beta")
                if k in was} | {"status": "failed", "reason": reason}
        else:
            assert case == was


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_a_bad_state_exits_1_and_is_no_config_error(monkeypatch, tmp_path,
                                                    capsys, command):
    bad_trial_3_sigma(monkeypatch, "not-hermitian")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 6}))
    out = tmp_path / "report.json"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert "FAIL" in printed.out and "config error" not in printed.err
    assert out.exists()
