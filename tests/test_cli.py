import json

import pytest

from petzgap import bounds, harness
from petzgap.cli import main
from petzgap.errors import NumericalFailure
from petzgap.harness import CSV_HEADER


def write_config(tmp_path, **overrides):
    cfg = {"trials": 2, "dims": [2], "specs": ["pinching"],
           "functions": ["neg-log"], "alpha_grid": [0.5], "beta_grid": [0.5],
           "seed": 5}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_verify_exit_zero_and_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "verify: pass" in printed
    assert f"wrote {out}" in printed
    report = json.loads(out.read_text())
    assert report["schema"] == "verify_v4"
    assert report["summary"]["failures"] == 0
    worst = report["summary"]["worst_margin"]
    assert (f"min_margin={report['summary']['min_margin']:.3e} at "
            f"trial={worst['trial_index']} report={worst['report']} "
            f"beta={worst['beta']} key={worst['key']}\n") in printed


def test_verify_writes_an_infinite_grid_constant(tmp_path, capsys):
    # corollary-power's C = pi/sin(alpha pi) overflows to inf at
    # alpha = 1e-320
    cfg = write_config(tmp_path, functions=["neg-power:1e-320"])
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    grid = json.loads(out.read_text())["grid"]
    assert grid["corollary-power:1e-320"]["0.5"]["C_exact"] == "inf"


def test_verify_survives_an_erroring_trial(tmp_path, capsys, monkeypatch):
    original = harness.run_trial

    def fail_second(config, trial_index, *args, **kwargs):
        if trial_index == 1:
            raise NumericalFailure("eigh did not converge")
        return original(config, trial_index, *args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", fail_second)
    cfg = write_config(tmp_path, trials=3)
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr().out
    assert "verify: FAIL trials=3" in printed
    assert "failures=0 infinite_gap=0 errors=1 " in printed
    report = json.loads(out.read_text())
    assert report["summary"]["error_trials"] == 1
    assert report["trials"][1] == {
        "trial_index": 1, "status": "error",
        "error": "NumericalFailure: eigh did not converge", "reports": []}
    assert [t["status"] for t in report["trials"]] == ["ok", "error", "ok"]


def test_verify_seed_override_changes_hash(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["verify", "--config", str(cfg), "--seed", "99",
                 "--out", str(out_b)]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["config_hash"] != b["config_hash"]
    assert b["config"]["seed"] == 99


def test_verify_deterministic_output_bytes(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, dims=[4], epsilon_ladder=[0.0, 1e-3])
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert "sweep: pass rows=2" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_sweep_usage_error_without_composite_dim(tmp_path, capsys):
    cfg = write_config(tmp_path, dims=[2, 3])
    code = main(["sweep", "--config", str(cfg), "--out",
                 str(tmp_path / "s.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_reconstruct_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, dims=[3], t_points=6)
    out = tmp_path / "rec.json"
    code = main(["reconstruct", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert "reconstruct: pass" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["schema"] == "reconstruct_v1"


def test_reconstruct_survives_failed_proof_internals(tmp_path, capsys,
                                                     monkeypatch):
    original = bounds.proof_internals
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalFailure("quadrature failed to converge on [0, 1]")
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "proof_internals", fail_second)
    cfg = write_config(tmp_path, trials=3, dims=[3], t_points=6)
    out = tmp_path / "rec.json"
    code = main(["reconstruct", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "reconstruct: FAIL" in capsys.readouterr().out
    report = json.loads(out.read_text())
    internals = [c for c in report["cases"] if "beta" in c]
    assert [c["trial_index"] for c in internals] == [0, 1, 2]
    assert [c["status"] for c in internals] == ["internals", "failed",
                                                "internals"]
    assert "failed to converge" in internals[1]["reason"]
    assert {c["trial_index"] for c in report["cases"]} == {0, 1, 2}
    assert report["summary"]["max_error"] == "inf"


@pytest.mark.parametrize("command,overrides", [
    ("verify", {"trials": 2.5}),
    ("verify", {"trials": True}),
    ("sweep", {"seed": 1.5, "dims": [4]}),
    ("reconstruct", {"t_points": 3.5}),
    ("verify", {"dims": [2.7]}),
    ("verify", {"trials": 4, "tolerance": float("nan")}),
    ("verify", {"tolerance": float("inf")}),
    ("verify", {"tolerance": True}),
    ("verify", {"tolerance": "1e-8"}),
    ("verify", {"alpha_grid": ["0.5"]}),
    ("verify", {"beta_grid": [0.5, float("nan")]}),
    ("reconstruct", {"beta_grid": [True]}),
    ("sweep", {"dims": [4], "epsilon_ladder": [0.0, float("nan")]}),
    ("sweep", {"dims": [4], "epsilon_ladder": [0.0, float("inf")]}),
    ("sweep", {"dims": [4], "epsilon_ladder": [0.0, True]}),
    ("verify", {"functions": [1]}),
    ("reconstruct", {"functions": [None]}),
])
def test_non_integer_config_is_usage_error(tmp_path, capsys, command,
                                           overrides):
    out = tmp_path / "out"
    code = main([command, "--config", str(write_config(tmp_path, **overrides)),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("petzgap: config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["verify", "--config", str(path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b'{"trials": 1' + b"0" * 5000 + b"}",
                                  b'{"seed": "\xff"}'],
                         ids=["long-integer", "non-utf8"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    code = main(["verify", "--config", str(path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "walltime": 3}))
    code = main(["verify", "--config", str(path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["verify", "--config", str(cfg), "--out",
                 str(tmp_path / "no_dir" / "x.json")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_arithmetic_error_is_one_line_exit_one(tmp_path, capsys,
                                              monkeypatch):
    def overflow(config):
        raise OverflowError("Numerical result out of range")

    monkeypatch.setattr("petzgap.cli.run_verify", overflow)
    code = main(["verify", "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path / "report.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "petzgap: OverflowError: Numerical result out of range\n"
    assert not (tmp_path / "report.json").exists()


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
