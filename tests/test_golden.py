"""Golden-report gate: `verify` and `reconstruct` must keep reproducing
frozen records.

tests/data/verify_golden.json holds, for a fixed config, the exit code and
per trial and bound report the name, gap, discrepancy, ||Delta||, margins,
constants and flags. tests/data/reconstruct_golden.json holds, for a fixed
config, the exit code, the summary and every case (entropy and gap errors,
proof-internals margins and residuals). The tests rerun the configs and
compare: floats to 1e-12 relative plus 1e-14 absolute, everything else
(keys, flags, names, statuses, non-finite markers, the exit code) exactly.

The verify record was first frozen from the code before bounds took a
PairContext, the reconstruct record from the code before the entropy
functions took the relative modular operator instead of states. Both were
re-frozen once, when a DensityMatrix began to carry its own
eigendecomposition and E = id began to return the states themselves: that
moved 161 verify values (the E = id gaps became exactly 0, and so did what
is read from them) and one reconstruct value, each listed in CHANGES.md.
The reconstruct record alone was re-frozen once more when integrate_halfline
began to integrate both pieces in the graded variable u^4: 14 values moved,
every one an error or residual that fell toward 0 (largest 2.6e-9 to 5.6e-16).
The verify record alone was re-frozen when verify stopped reporting
generic:neg-log, which duplicated corollary-log: its 60 reports left the
record and no other value moved.
Both records are read from the bytes dumps_report writes, parsed back; when
reports became one compact line, both still passed without a re-freeze.
`python tests/test_golden.py` prints, per report family and key, how many
values moved against the records on disk and by how much, then rewrites
both from the current code.
"""

import json
import math
import sys
from pathlib import Path

from petzgap.harness import (ExperimentConfig, dumps_report, run_reconstruct,
                             run_verify)

DATA = Path(__file__).parent / "data"
VERIFY_GOLDEN = DATA / "verify_golden.json"
VERIFY_CONFIG = {"trials": 20, "dims": [2, 3, 4, 6, 8]}
RECONSTRUCT_GOLDEN = DATA / "reconstruct_golden.json"
RECONSTRUCT_CONFIG = {"trials": 4, "dims": [2, 3, 4, 6]}
KEYS = ("name", "gap", "discrepancy", "delta_norm", "margins", "constants",
        "flags")
RTOL = 1e-12
ATOL = 1e-14


def verify_record(code: int, report: dict) -> dict:
    written = json.loads(dumps_report(report))
    return {
        "config": VERIFY_CONFIG,
        "exit_code": code,
        "trials": [[{k: r[k] for k in KEYS} for r in trial["reports"]]
                   for trial in written["trials"]],
    }


def reconstruct_record(code: int, report: dict) -> dict:
    written = json.loads(dumps_report(report))
    return {
        "config": RECONSTRUCT_CONFIG,
        "exit_code": code,
        "summary": written["summary"],
        "cases": written["cases"],
    }


def mismatches(got, want, path=()) -> list:
    """(path, got, want) of every value of got that differs from want; path
    is the tuple of keys and indices that leads to the value."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [(path, got, want)]
        return [m for k in want for m in mismatches(got[k], want[k],
                                                     path + (k,))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [(path, got, want)]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, path + (i,))]
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= RTOL * abs(want) + ATOL:
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [(path, got, want)]


def describe(bad: list) -> str:
    return f"{len(bad)} mismatches, first: " + "; ".join(
        f"{path}: {got!r} != {want!r}" for path, got, want in bad[:5])


def moves(got, want) -> dict:
    """{(family, key): (count, largest absolute, largest relative move)} over
    the mismatches of got against want. The family is the name of the
    verify report, or the function or status of the reconstruct case, that
    holds the value; the key is the path below it. A value that changed
    kind (a float against a non-finite marker, keys, lengths) moves by inf.
    """
    table = {}
    for path, g, w in mismatches(got, want):
        node, family, depth = want, "", 0
        for i, step in enumerate(path):
            node = node[step]
            label = node.get("name", node.get("function", node.get(
                "status"))) if isinstance(node, dict) else None
            if label is not None:
                family, depth = label, i + 1
                break
        key = ".".join(map(str, path[depth:]))
        if isinstance(g, float) and isinstance(w, float):
            a = abs(g - w)
            r = a / abs(w) if w else math.inf
        else:
            a = r = math.inf
        n, a0, r0 = table.get((family, key), (0, 0.0, 0.0))
        table[family, key] = (n + 1, max(a0, a), max(r0, r))
    return table


def current_verify_record() -> dict:
    return verify_record(
        *run_verify(ExperimentConfig.from_json(dict(VERIFY_CONFIG))))


def current_reconstruct_record() -> dict:
    return reconstruct_record(
        *run_reconstruct(ExperimentConfig.from_json(dict(RECONSTRUCT_CONFIG))))


def test_verify_matches_golden_record():
    want = json.loads(VERIFY_GOLDEN.read_text())
    assert want["config"] == VERIFY_CONFIG
    bad = mismatches(current_verify_record(), want)
    assert not bad, describe(bad)


def test_reconstruct_matches_golden_record():
    want = json.loads(RECONSTRUCT_GOLDEN.read_text())
    assert want["config"] == RECONSTRUCT_CONFIG
    bad = mismatches(current_reconstruct_record(), want)
    assert not bad, describe(bad)


def test_golden_comparison_catches_changes():
    want = json.loads(VERIFY_GOLDEN.read_text())
    got = json.loads(VERIFY_GOLDEN.read_text())
    report = got["trials"][0][0]
    report["gap"] *= 1.0 + 1e-9
    report["flags"].append("extra")
    got["exit_code"] = 1 - want["exit_code"]
    assert len(mismatches(got, want)) == 3


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path, record in ((VERIFY_GOLDEN, current_verify_record),
                         (RECONSTRUCT_GOLDEN, current_reconstruct_record)):
        new = record()
        if path.exists():
            table = moves(new, json.loads(path.read_text()))
            print(f"{path.name}: {sum(n for n, _, _ in table.values())} "
                  "values moved")
            for (family, key), (n, a, r) in sorted(table.items()):
                print(f"  {family:24} {key:28} {n:4d}  max abs {a:.2e}  "
                      f"max rel {r:.2e}")
        path.write_text(json.dumps(new, sort_keys=True,
                                   separators=(",", ":")) + "\n")
    sys.exit(0)
