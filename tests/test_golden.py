"""Golden-report gate: `verify` must keep reproducing a frozen record.

tests/data/verify_golden.json holds, for a fixed config, the exit code and
per trial and bound report the name, gap, discrepancy, ||Delta||, margins,
constants and flags. The test reruns the config and compares: floats to
1e-12 relative plus 1e-14 absolute, everything else (keys, flags, names,
non-finite markers, the exit code) exactly.

The record was frozen from the code before bounds took a PairContext;
`python tests/test_golden.py` rewrites it from the current code.
"""

import json
import sys
from pathlib import Path

from petzgap.harness import ExperimentConfig, run_verify, sanitize

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"
CONFIG = {"trials": 20, "dims": [2, 3, 4, 6, 8]}
KEYS = ("name", "gap", "discrepancy", "delta_norm", "margins", "constants",
        "flags")
RTOL = 1e-12
ATOL = 1e-14


def golden_record(code: int, report: dict) -> dict:
    return sanitize({
        "config": CONFIG,
        "exit_code": code,
        "trials": [[{k: r[k] for k in KEYS} for r in trial["reports"]]
                   for trial in report["trials"]],
    })


def mismatches(got, want, path="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k],
                                                     f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= RTOL * abs(want) + ATOL:
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def current_record() -> dict:
    code, report = run_verify(ExperimentConfig.from_json(dict(CONFIG)))
    return golden_record(code, report)


def test_verify_matches_golden_record():
    want = json.loads(GOLDEN.read_text())
    assert want["config"] == CONFIG
    bad = mismatches(current_record(), want)
    assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"


def test_golden_comparison_catches_changes():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(GOLDEN.read_text())
    report = got["trials"][0][0]
    report["gap"] *= 1.0 + 1e-9
    report["flags"].append("extra")
    got["exit_code"] = 1 - want["exit_code"]
    assert len(mismatches(got, want)) == 3


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(current_record(), sort_keys=True,
                                 separators=(",", ":")) + "\n")
    sys.exit(0)
