"""Golden-report gate: `verify`, `reconstruct` and `sweep` must keep
reproducing frozen records.

tests/data/verify_golden.json holds, for a fixed config, the exit code,
the grid and every trial as the verify_v3 report wrote it: what it drew,
its status, its quantities and its bound reports. The verify report is
read through oracles.expand_v4, which rebuilds the verify_v3 form of each
verify_v4 trial record.
tests/data/reconstruct_golden.json holds, for a fixed
config, the exit code, the summary and every case (entropy and gap errors,
proof-internals margins and residuals). The tests rerun the configs and
tests/data/sweep_golden.csv holds the CSV that sweep writes for a fixed
config: the gap, discrepancy, recovery errors and the right sides of the
log, power and Renyi bounds on each rung of the epsilon ladder. The tests
rerun the configs and
compare: floats to 1e-12 relative plus 1e-14 absolute, everything else
(keys, flags, names, statuses, non-finite markers, the exit code, the CSV
header and row count) exactly.

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
The verify record alone was re-frozen when the corollary constants began to
be built as logs: each of its 360 corollary, generic and Renyi constants
blocks gained its log_K key. With those keys set aside the record passed
as it was: discrepancies from the eigenbases and constants from their logs
moved 1,834 floats, each within the tolerances below.
When the verify report became verify_v2, which writes each gap,
discrepancy and ||Delta|| once per trial and each constant that depends
only on (report name, beta) once per run, the record was read through a
view that put them back into every report by a fixed rule per family; it
passed without a re-freeze, which also showed that the grid constants are
the same in every trial.
The reconstruct record alone was re-frozen when integrate became one fixed
double-exponential rule: 4 values moved beyond the tolerances, the neg-log
entropy and gap errors of one trial, the gap residual of its internals case
and the summary max_error, each an error that fell toward 0 (largest
3.5e-14 to 1.1e-16); the rewrite also froze the within-tolerance values of
every other case as the code writes them now.
The verify record alone was re-frozen, in the verify_v2 layout it is now
kept in, when verify stopped running the generic family, which repeated
corollary-power: its 60 reports and its 3 grid entries left, and against
the verify_v2 record of the code before, no other value moved.
The verify record alone was re-frozen, as verify_v3, when the theorem
began to be asserted at its exact minimum over T instead of on a 40-point
T grid, and renyi_inverted stopped repeating renyi_recovery's margin: each
theorem report's margin theorem_T_grid and T_at_min_margin became
theorem_T_opt and T_star (120 reports, each margin at or below the grid's),
the grid's T_count left, and so did 42 renyi_inverted margins; no other
value moved.
When the verify report became verify_v4, which leaves out each value
another in the record determines (K_L and K_U beside their logs, K_generic,
K_log3, recovery-chain's K_gap, the theorem's lhs) and each empty
constants, rhs_values, margins or flags, the code's record was read
through expand_v4, which rebuilds each by its rule from the report and the
trial's quantities: it matched the verify_v3 record on disk bit for bit,
without a re-freeze, so no value moved.
The sweep CSV was frozen when the bound reports began to be built through
one BoundReport helper; the rewrite left it byte-identical.
When the recovery errors of E = id and trivial-algebra trials began to be
taken from exact Petz identities (0 for an invertible reference state
under E = id, || rho - sigma ||_1 for the trivial algebra), the verify
record's e_rho, e_sigma, recovery_discrepancy and the recovery-chain,
Renyi and CV_comparison_rhs values read from them moved by at most
2.5e-15, each within the tolerances below, so it was not re-frozen; the
reconstruct record and the sweep CSV stayed byte-identical.
`python tests/test_golden.py` prints, per report family and key, how many
values moved against the records on disk and by how much, and rewrites from
the current code only a record that is missing or in which a value moved:
a record within the tolerances is left as it is on disk.
`python tests/test_golden.py --digests` writes nothing: it prints the
sha256 of the bytes the CLI writes for each config of DIGEST_CONFIGS (the
golden configs, the defaults, the three configs of bench/run.py's
workloads, and four where a cached constant under a wrong key would show:
beta = 0.99, where K underflows and only its log is kept; the pinching
config of ROADMAP item 12, which exits 1; Renyi orders whose 1 - alpha
lies off the alpha grid; and an alpha whose C_exact overflows to inf), and
a config of trivial-algebra trials alone (d from 2 to 64), so two trees can
be shown to write byte-identical reports, or to differ only where they
should.
"""

import functools
import hashlib
import json
import math
import sys
from pathlib import Path

from petzgap import cli
from petzgap.harness import (ExperimentConfig, run_reconstruct, run_sweep,
                             run_verify)

from oracles import expand_v4, report_text

DATA = Path(__file__).parent / "data"
VERIFY_GOLDEN = DATA / "verify_golden.json"
VERIFY_CONFIG = {"trials": 20, "dims": [2, 3, 4, 6, 8]}
RECONSTRUCT_GOLDEN = DATA / "reconstruct_golden.json"
RECONSTRUCT_CONFIG = {"trials": 4, "dims": [2, 3, 4, 6]}
SWEEP_GOLDEN = DATA / "sweep_golden.csv"
SWEEP_CONFIG = {"dims": [4, 6, 8]}
RTOL = 1e-12
ATOL = 1e-14
# (command, config) of each report --digests prints: the golden configs, the
# defaults, verify-small, verify-large and reconstruct of bench/run.py, the
# four cache-key configs of the module docstring, and trivial-algebra trials
DIGEST_CONFIGS = [
    ("verify", VERIFY_CONFIG), ("reconstruct", RECONSTRUCT_CONFIG),
    ("sweep", SWEEP_CONFIG), ("verify", {}), ("reconstruct", {}),
    ("sweep", {}), ("verify", {"trials": 60, "dims": [2, 3, 4, 6, 8]}),
    ("verify", {"trials": 12, "dims": [32, 48, 64]}),
    ("reconstruct", {"trials": 12}),
    ("verify", {"trials": 60, "beta_grid": [0.99], "dims": [2, 3, 4, 6, 8]}),
    ("verify", {"trials": 400, "dims": [2], "specs": ["pinching"]}),
    ("verify", {"trials": 40, "dims": [5, 9, 12], "seed": 3,
                "alpha_grid": [0.1, 0.3],
                "functions": ["neg-log", "neg-power:0.7"]}),
    ("verify", {"functions": ["neg-power:1e-320"], "trials": 2}),
    ("verify", {"specs": ["trivial"], "dims": [2, 3, 5, 8, 64], "trials": 10}),
]


def report_bytes(command: str, config: dict) -> bytes:
    """The bytes cli.main writes for command on config, computed in memory."""
    parsed = ExperimentConfig.from_json(dict(config))
    if command == "sweep":
        return run_sweep(parsed)[1].encode()
    run = run_verify if command == "verify" else run_reconstruct
    return report_text(run(parsed)[1]).encode()


def verify_record(code: int, report: dict) -> dict:
    """The golden record of a verify run, its trials in the verify_v3 form
    (expand_v4)."""
    written = json.loads(report_text(report))
    return {
        "config": VERIFY_CONFIG,
        "exit_code": code,
        "grid": written["grid"],
        "trials": [expand_v4(trial) for trial in written["trials"]],
    }


def reconstruct_record(code: int, report: dict) -> dict:
    written = json.loads(report_text(report))
    return {
        "config": RECONSTRUCT_CONFIG,
        "exit_code": code,
        "summary": written["summary"],
        "cases": written["cases"],
    }


def sweep_record(text: str) -> dict:
    """The sweep CSV as its header and its rows of floats."""
    header, *rows = text.splitlines()
    return {"header": header,
            "rows": [[float(v) for v in row.split(",")] for row in rows]}


# what stands on one side of a mismatch where the other has a key or report
ABSENT = "<absent>"


def keyed(items):
    """A list of reports as a dict by (name, beta), or None when items is
    not such a list (a report without those keys, or a repeated pair)."""
    if not isinstance(items, list) or not all(
            isinstance(x, dict) and "name" in x and "beta" in x
            for x in items):
        return None
    by_key = {(x["name"], x["beta"]): x for x in items}
    return by_key if len(by_key) == len(items) else None


def mismatches(got, want, path=()) -> list:
    """(path, got, want) of every value of got that differs from want; path
    is the tuple of keys and indices that leads to the value. Dicts are
    matched by key and lists of reports by (name, beta), so a key or report
    on one side only is one mismatch of its own, against ABSENT; any other
    list is matched by position."""
    by_key = keyed(got), keyed(want)
    if None not in by_key:
        got, want = by_key
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [(path, got, want)]
        return [m for k in want for m in (
                    mismatches(got[k], want[k], path + (k,)) if k in got
                    else [(path + (k,), ABSENT, want[k])])] \
            + [(path + (k,), got[k], ABSENT) for k in got if k not in want]
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


def child(node, step):
    """node[step] as mismatches reads it, or ABSENT."""
    if keyed(node) is not None and isinstance(step, tuple):
        node = keyed(node)
    try:
        return node[step]
    except (KeyError, IndexError, TypeError):
        return ABSENT


def moves(got, want) -> dict:
    """{(family, key): (count, largest absolute, largest relative move)} over
    the mismatches of got against want. The family is the innermost label
    on the value's path: the name of a verify report, or of the report a grid
    constant is kept under, "quantities" for a trial quantity, the function
    or status of a reconstruct case, and the status of a verify trial for
    what it drew; the key is the path below it, empty for a whole report or
    grid entry that one side lacks. A value that changed kind (a float
    against a non-finite marker or ABSENT, lengths) moves by inf.
    """
    table = {}
    for path, g, w in mismatches(got, want):
        sides, family, depth = (got, want), "", 0
        for i, step in enumerate(path):
            sides = tuple(child(node, step) for node in sides)
            node = sides[1] if sides[1] is not ABSENT else sides[0]
            label = node.get("name", node.get("function", node.get(
                "status"))) if isinstance(node, dict) else None
            if step == "quantities" or path[i - 1:i] == ("grid",):
                label = step
            if label is not None:
                family, depth = label, i + 1
        key = ".".join(map(str, path[depth:]))
        if isinstance(g, float) and isinstance(w, float):
            a = abs(g - w)
            r = a / abs(w) if w else math.inf
        else:
            a = r = math.inf
        n, a0, r0 = table.get((family, key), (0, 0.0, 0.0))
        table[family, key] = (n + 1, max(a0, a), max(r0, r))
    return table


@functools.cache
def current_verify_run() -> tuple[int, dict]:
    return run_verify(ExperimentConfig.from_json(dict(VERIFY_CONFIG)))


def current_verify_record() -> dict:
    return verify_record(*current_verify_run())


def current_reconstruct_record() -> dict:
    return reconstruct_record(
        *run_reconstruct(ExperimentConfig.from_json(dict(RECONSTRUCT_CONFIG))))


def current_sweep() -> tuple[int, str]:
    return run_sweep(ExperimentConfig.from_json(dict(SWEEP_CONFIG)))


def test_verify_matches_golden_record():
    want = json.loads(VERIFY_GOLDEN.read_text())
    assert want["config"] == VERIFY_CONFIG
    bad = mismatches(current_verify_record(), want)
    assert not bad, describe(bad)


# the constants a verify_v4 report leaves out, and its report containers,
# none of which it writes empty
DROPPED = {"K_L", "K_U", "K_generic", "K_log3", "K_gap", "lhs"}
CONTAINERS = ("constants", "rhs_values", "margins", "flags")


def v4_violations(trials: list) -> list:
    """(trial_index, report name, beta, key) of each empty container and
    each dropped constant in the reports of trial records."""
    return [(trial["trial_index"], r["name"], r["beta"], key)
            for trial in trials for r in trial["reports"]
            for key in [k for k in CONTAINERS if r.get(k, True) in ({}, [])]
            + sorted(DROPPED & set(r.get("constants", {})))]


def test_verify_v4_writes_no_empty_container_or_dropped_key():
    written = json.loads(report_text(current_verify_run()[1]))
    assert written["schema"] == "verify_v4"
    assert not v4_violations(written["trials"])
    # the v3 record has both, so the check sees them
    keys = {v[3] for v in v4_violations(
        json.loads(VERIFY_GOLDEN.read_text())["trials"])}
    assert keys == DROPPED | set(CONTAINERS)


def test_reconstruct_matches_golden_record():
    want = json.loads(RECONSTRUCT_GOLDEN.read_text())
    assert want["config"] == RECONSTRUCT_CONFIG
    bad = mismatches(current_reconstruct_record(), want)
    assert not bad, describe(bad)


def test_sweep_matches_golden_csv():
    code, text = current_sweep()
    assert code == 0
    bad = mismatches(sweep_record(text),
                     sweep_record(SWEEP_GOLDEN.read_text()))
    assert not bad, describe(bad)


def test_digests_are_taken_of_the_bytes_the_cli_writes(tmp_path):
    for command, config in (("sweep", {}),
                            ("reconstruct", {"trials": 2, "dims": [2, 4]})):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"{command}.out"
        cli.main([command, "--config", str(path), "--out", str(out)])
        assert out.read_bytes() == report_bytes(command, config)


def test_golden_comparison_catches_changes():
    want = json.loads(VERIFY_GOLDEN.read_text())
    got = json.loads(VERIFY_GOLDEN.read_text())
    trial = got["trials"][0]
    trial["quantities"]["delta_norm"] *= 1.0 + 1e-9
    trial["reports"][0]["flags"].append("extra")
    # a report with constants in the grid
    removed = trial["reports"].pop(next(
        i for i, r in enumerate(trial["reports"]) if r["name"] in got["grid"]))
    got["exit_code"] = 1 - want["exit_code"]
    assert len(mismatches(got, want)) == 4
    assert sorted(moves(got, want)) == sorted([
        ("quantities", "delta_norm"), (trial["reports"][0]["name"], "flags"),
        (removed["name"], ""), ("", "exit_code")])
    del got["grid"][removed["name"]]
    assert moves(got, want)[removed["name"], ""] == (2, math.inf, math.inf)


if __name__ == "__main__" and sys.argv[1:] == ["--digests"]:
    for command, config in DIGEST_CONFIGS:
        print(hashlib.sha256(report_bytes(command, config)).hexdigest(),
              command, json.dumps(config, sort_keys=True))
elif __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    def json_text(record: dict) -> str:
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    for path, text, view in (
            (VERIFY_GOLDEN, json_text(current_verify_record()), json.loads),
            (RECONSTRUCT_GOLDEN, json_text(current_reconstruct_record()),
             json.loads),
            (SWEEP_GOLDEN, current_sweep()[1], sweep_record)):
        if path.exists():
            table = moves(view(text), view(path.read_text()))
            print(f"{path.name}: {sum(n for n, _, _ in table.values())} "
                  "values moved")
            for (family, key), (n, a, r) in sorted(table.items()):
                print(f"  {family:24} {key:28} {n:4d}  max abs {a:.2e}  "
                      f"max rel {r:.2e}")
            if not table:
                continue
        path.write_text(text)
    sys.exit(0)
