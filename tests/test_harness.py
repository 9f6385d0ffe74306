import json
import math

import numpy as np
import pytest

from petzgap import bounds, harness
from petzgap.bounds import FLAG_INFINITE_GAP, json_safe
from petzgap.errors import InvalidInput, NumericalFailure
from petzgap.harness import (CSV_HEADER, T_GRID, ExperimentConfig,
                             _theorem_report, draw_pair, dumps_report,
                             run_reconstruct, run_sweep, run_trial,
                             run_verify, sanitize, spec_for)
from petzgap.monotone import rep_from_name

from oracles import scalar_theorem_bound

SMALL = dict(trials=3, dims=[2, 3], specs=["pinching", "trivial"],
             functions=["neg-log"], alpha_grid=[0.5], beta_grid=[0.5],
             seed=7)


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
    record = run_trial(cfg, 0, reps, cfg.hash())
    assert record.config_hash == cfg.hash()
    assert record.reports
    blob = record.to_json()
    assert "wall_time" not in blob
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
    for g in (0.0, 1e-12, 0.3, -1e-15):
        report = _theorem_report(rep, beta, disc, delta_norm, g)
        excess = [scalar_theorem_bound(alpha, beta, float(t), delta_norm, g)
                  - lhs for t in T_GRID]
        i = int(np.argmin(excess))
        assert report.constants["T_at_min_margin"] == float(T_GRID[i])
        assert report.margins["theorem_T_grid"] == pytest.approx(
            excess[i], rel=1e-15)
        assert report.flags == []
    infinite = _theorem_report(rep, beta, disc, delta_norm, math.inf)
    assert infinite.margins == {"theorem_T_grid": math.inf}
    assert infinite.flags == [FLAG_INFINITE_GAP]
    assert infinite.constants["T_at_min_margin"] is None
    undefined = _theorem_report(rep, beta, disc, delta_norm, math.nan)
    assert undefined.margins == {}
    assert undefined.flags == [FLAG_INFINITE_GAP]
    assert undefined.constants["T_at_min_margin"] is None
    for report in (infinite, undefined):
        assert report.constants["T_count"] == len(T_GRID)
        assert report.constants["lhs"] == lhs


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
    assert dumps_report(report) == dumps_report(report2)


def test_verify_reports_each_bound_once():
    _, report = run_verify(ExperimentConfig(trials=4))
    for trial in report["trials"]:
        keys = [(r["name"], r["beta"]) for r in trial["reports"]]
        assert len(keys) == len(set(keys))
        assert "generic:neg-log" not in {name for name, _ in keys}


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
    parsed = json.loads(dumps_report(report))
    assert parsed == sanitize(report)
    assert parsed["summary"]["max_error"] == "inf"
    assert [c["status"] for c in parsed["cases"]].count("failed") == 1


def test_dumps_report_rejects_a_stray_nan():
    _, report = run_verify(ExperimentConfig(**SMALL))
    report["trials"][0]["reports"][0]["gap"] = math.nan
    with pytest.raises(ValueError):
        dumps_report(report)


def test_sanitize_and_dumps():
    blob = sanitize({"a": np.float64(1.5), "b": math.inf, "c": -math.inf,
                     "d": math.nan, "e": np.int32(4), "f": (1, 2)})
    assert blob == {"a": 1.5, "b": "inf", "c": "-inf", "d": "nan", "e": 4,
                    "f": [1, 2]}
    code, report = run_verify(ExperimentConfig(**SINGULAR))
    assert code == 0
    assert report["summary"]["infinite_gap_trials"] >= 1
    text = dumps_report(report)
    assert '"inf"' in text and '"nan"' in text
    assert json.loads(text) == sanitize(report)
    # the summary stays numeric in memory; only the written copy is converted
    assert isinstance(report["summary"]["min_margin"], float)
    # one compact line with sorted keys
    assert text.endswith("\n")
    assert text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_json_safe_marks_only_non_finite_floats():
    values = {"a": 1.5, "b": math.inf, "c": -math.inf, "d": math.nan,
              "e": 4, "f": None, "g": "x", "h": 5e-324, "i": True}
    assert json_safe(values) == {"a": 1.5, "b": "inf", "c": "-inf",
                                 "d": "nan", "e": 4, "f": None, "g": "x",
                                 "h": 5e-324, "i": True}
    assert values["b"] == math.inf


def test_verify_records_an_erroring_trial_and_goes_on(monkeypatch):
    original = harness.run_trial

    def overflow_on_one(config, trial_index, *args, **kwargs):
        if trial_index == 1:
            raise OverflowError("(34, 'Numerical result out of range')")
        return original(config, trial_index, *args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", overflow_on_one)
    cfg = ExperimentConfig(**SMALL)
    code, report = run_verify(cfg)
    assert code == 1
    summary = report["summary"]
    assert summary["error_trials"] == 1
    assert summary["failures"] == 0
    assert summary["trials"] == 3
    trials = report["trials"]
    assert [t["trial_index"] for t in trials] == [0, 1, 2]
    assert trials[1] == {
        "trial_index": 1, "config_hash": cfg.hash(), "status": "error",
        "error": "OverflowError: (34, 'Numerical result out of range')",
        "reports": []}
    assert trials[0]["reports"] and trials[2]["reports"]
    assert "status" not in trials[0]
    assert json.loads(dumps_report(report)) == sanitize(report)
