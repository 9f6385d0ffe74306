"""petzgap benchmark: CLI workloads timed end to end and traced per module.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ./src. Workloads
and metrics are declared in BENCHMARK.json, and bench/README.md says what each
one measures and why.

--trace 0 times untraced commands: `setup_s` (median over fresh interpreters
that import the CLI, parse the config and build the monotone functions),
`wall_s` (median over whole `petzgap.cli.main` commands after a warm-up
command), `trial_ms_p50`/`trial_ms_p90` (per-trial latency pooled over those
commands) and `peak_rss_mb` (ru_maxrss of a fresh process running one
command). --trace 1 alternates traced and untraced commands and reports call
counts and self times per function and module from bench/tracer.py. Times
are reported at a reference host speed (see HostSpeed); the measured ones are
printed beside them.

Every command must exit 0, pass the program's own gate and write a report
byte-identical to every other command of the run; a command that does not
counts all its operations (verify trials, reconstruct cases) as failed. The
last stdout line is one JSON object with keys correct, attempted, failed and
metrics. Everything the run writes goes under ./.bench_out/.
"""

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# Set before numpy is first imported (with petzgap, in main), and inherited
# by every child process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "verify-small": ("verify", {"trials": 60, "dims": [2, 3, 4, 6, 8]}),
    "verify-large": ("verify", {"trials": 12, "dims": [32, 48, 64]}),
    "reconstruct": ("reconstruct", {"trials": 12}),
}

RECONSTRUCT_MAX_ERROR = 1e-5  # the reconstruct command's own exit gate
# Times are reported at the host speed where one calibration kernel run takes
# CAL_REF_S seconds (see HostSpeed).
CAL_REF_S = 0.020
SETUP_PROBES = 7
MIN_MEASURED = 2
PROBE_TIMEOUT_S = 120


def calibration_s() -> float:
    """Median of 3 timings of a fixed kernel that does not touch petzgap:
    16 x 16 LAPACK eigh calls, a pure-Python loop and small numpy products,
    the three kinds of work the workloads do."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16))
    a = a + a.T
    m = rng.standard_normal((4, 4))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(240):
            np.linalg.eigh(a)
        acc = 0
        for i in range(120_000):
            acc += i % 7
        for _ in range(1800):
            np.abs(m @ m).max()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Brackets each timed piece of work with runs of the calibration kernel.

    A shared host's speed drifts: here a single-threaded loop ran 1.6 times
    slower for minutes at a time. Scaling each time by CAL_REF_S over the
    mean kernel time before and after the work reports it at one reference
    speed, so that runs made in slow and fast phases compare.
    """

    def __init__(self):
        self.times = [calibration_s()]

    def factor(self) -> float:
        """Call right after the timed work; calibrates again."""
        self.times.append(calibration_s())
        return CAL_REF_S / ((self.times[-2] + self.times[-1]) / 2.0)


def _median(values):
    return statistics.median(values) if values else math.nan


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _sha256_tree(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*.py") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of ROOT/.git when the checkout has one; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": dict(THREAD_ENV),
        "seed": seed,
        "commit": _git_commit(),
        "src_sha256": _sha256_tree(SRC),
    }


class TrialClock:
    """Latency of each trial from clock reads at trial boundaries.

    verify: one clock pair around harness.run_trial. reconstruct has no
    per-trial function; its trial i runs from the end of trial i-1 (or the
    call of run_reconstruct) to the return of trial i's proof_internals call,
    the last step of every trial.
    """

    def __init__(self, command: str):
        self.command = command
        self.samples: list[float] = []
        self._undo: list = []

    def install(self) -> None:
        from petzgap import bounds, harness
        from tracer import rebind

        clock, samples = time.perf_counter, self.samples
        if self.command == "verify":
            run_trial = harness.run_trial

            def timed_trial(*args, **kwargs):
                t0 = clock()
                try:
                    return run_trial(*args, **kwargs)
                finally:
                    samples.append(clock() - t0)

            self._undo = rebind({run_trial: timed_trial})
            return
        run_reconstruct, proof_internals = (harness.run_reconstruct,
                                            bounds.proof_internals)
        last = [0.0]

        def timed_run(*args, **kwargs):
            last[0] = clock()
            return run_reconstruct(*args, **kwargs)

        def timed_internals(*args, **kwargs):
            out = proof_internals(*args, **kwargs)
            now = clock()
            samples.append(now - last[0])
            last[0] = now
            return out

        self._undo = rebind({run_reconstruct: timed_run,
                             proof_internals: timed_internals})

    def uninstall(self) -> None:
        from tracer import restore
        restore(self._undo)
        self._undo = []


class Session:
    """One workload in one process: runs commands and checks every output."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.command, config = WORKLOADS[workload]
        self.config = dict(config, seed=seed)
        self.seconds = seconds
        self.dir = OUT / f"{workload}-seed{seed}-trace{trace}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, sort_keys=True))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None  # sha256 of the first report; all must match
        self.gate_values: list[float] = []

    @functools.cached_property
    def ops(self) -> int:
        """Operations per command: verify trials, reconstruct cases."""
        from petzgap.harness import ExperimentConfig

        parsed = ExperimentConfig.from_json(self.config)
        if self.command == "verify":
            return parsed.trials
        # one case per function plus one proof-internals case per trial
        return parsed.trials * (len(parsed.functions) + 1)

    def argv(self, out_path: Path) -> list:
        return [self.command, "--config", str(self.config_path),
                "--out", str(out_path)]

    def check(self, code, out_path: Path, label: str) -> None:
        """Count one command's operations, failed ones included."""
        self.attempted += self.ops
        problem = self._problem(code, out_path)
        if problem is not None:
            self.failed += self.ops
            self.problems.append(f"{label}: {problem}")

    def _problem(self, code, out_path: Path):
        """Exit code, the report, and the program's own gate."""
        if code != 0:
            return f"exit code {code}"
        try:
            data = out_path.read_bytes()
            summary = json.loads(data)["summary"]
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable report: {exc!r}"
        digest = hashlib.sha256(data).hexdigest()
        self.digest = self.digest or digest
        if digest != self.digest:
            return f"report sha256 {digest} differs from {self.digest}"
        if self.command == "verify":
            value = summary["min_margin"]
            ok = (summary["failures"] == 0
                  and summary["trials"] == self.config["trials"])
        else:
            value = summary["max_error"]
            ok = (isinstance(value, float) and value <= RECONSTRUCT_MAX_ERROR
                  and summary["cases"] == self.ops)
        if isinstance(value, float):
            self.gate_values.append(value)
        return None if ok else f"gate failed: {summary}"

    def run(self, label: str, tracer=None) -> float:
        """One in-process CLI command; returns its wall time in seconds."""
        from petzgap.cli import main

        out_path = self.dir / "report.json"
        out_path.unlink(missing_ok=True)
        argv = self.argv(out_path)
        code = None
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is a failed command, not a lost run
                traceback.print_exc()
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
        self.check(code, out_path, label)
        return wall

    def keep_going(self, started: float, measured: int, last: float) -> bool:
        if measured < MIN_MEASURED:
            return True
        return time.perf_counter() - started + last <= self.seconds

    def probe(self, *args) -> tuple:
        """Run bench/probe.py in a fresh interpreter; returns (seconds from
        spawn to exit, exit code, ru_maxrss in KiB). os.wait4 blocks until
        the exit, so the time carries no polling delay."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), *args],
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss

    def setup_time(self) -> float:
        elapsed, code, _ = self.probe("setup", str(self.config_path))
        if code != 0:
            self.problems.append(f"setup probe: exit code {code}")
        return elapsed

    def rss_probe(self) -> tuple:
        """One command in a fresh process: (exit code, report path, peak
        RSS in MiB). A child's ru_maxrss starts from its parent's RSS at the
        fork, so this runs before this process imports numpy or petzgap."""
        out_path = self.dir / "rss-report.json"
        out_path.unlink(missing_ok=True)
        _, code, maxrss_kib = self.probe("rss", *self.argv(out_path))
        return code, out_path, maxrss_kib / 1024.0

    @property
    def correct(self) -> bool:
        return not self.problems


def _timings(walls, trials, setup) -> dict:
    pooled = [t for command in trials for t in command]
    return {
        "setup_s": _median(setup),
        "wall_s": _median(walls),
        "trial_ms_p50": _median(pooled),
        "trial_ms_p90": _p90(pooled),
    }


def measure(session: Session, rss: tuple) -> tuple:
    """--trace 0: end-to-end metrics at reference speed, the same measured
    ("raw_" keys) and notes for the printout."""
    clock = TrialClock(session.command)
    clock.install()
    try:
        started = time.perf_counter()
        session.run("warm-up")
        speed = HostSpeed()
        raw = {"walls": [], "trials": [], "setup": []}
        scaled = {"walls": [], "trials": [], "setup": []}

        def probe_setup():
            elapsed = session.setup_time()
            raw["setup"].append(elapsed)
            scaled["setup"].append(elapsed * speed.factor())

        walls = raw["walls"]
        while session.keep_going(started, len(walls), walls[-1] if walls else 0):
            clock.samples.clear()
            walls.append(session.run(f"command {len(walls)}"))
            f = speed.factor()
            scaled["walls"].append(walls[-1] * f)
            raw["trials"].append([s * 1e3 for s in clock.samples])
            scaled["trials"].append([s * 1e3 * f for s in clock.samples])
            if len(clock.samples) != session.config["trials"]:
                session.problems.append(
                    f"trial clock saw {len(clock.samples)} trials, expected "
                    f"{session.config['trials']}")
            # Set-up probes are spread over the run, so that their median
            # does not hang on the host's speed at one moment.
            if len(raw["setup"]) < SETUP_PROBES:
                probe_setup()
    finally:
        clock.uninstall()
    while len(raw["setup"]) < SETUP_PROBES:
        probe_setup()
    metrics = _timings(**scaled)
    code, out_path, metrics["peak_rss_mb"] = rss
    session.check(code, out_path, "rss probe")
    metrics.update({"raw_" + k: v for k, v in _timings(**raw).items()})
    pooled = [t for command in scaled["trials"] for t in command]
    notes = {
        "commands": len(walls),
        "trial_samples": len(pooled),
        "trial_samples_beyond_p90": sum(
            1 for t in pooled if t > metrics["trial_ms_p90"]),
        "calibration_ms_median": _median(speed.times) * 1e3,
    }
    raw["calibration_s"] = speed.times
    return metrics, notes, raw


def measure_traced(session: Session) -> tuple:
    """--trace 1: per-layer metrics from alternating traced and untraced
    commands, times at reference speed; saves the spans of the last traced
    command."""
    import numpy as np
    from tracer import Tracer, leftover_wrappers

    started = time.perf_counter()
    session.run("warm-up")
    speed = HostSpeed()
    traced, untraced, summaries = [], [], []
    while session.keep_going(started, len(traced),
                             traced[-1] + untraced[-1] if traced else 0):
        tracer = Tracer()
        traced.append(session.run(f"traced {len(traced)}", tracer=tracer))
        f = speed.factor()
        summaries.append({k: v * f if k.endswith("self_s") else v
                          for k, v in tracer.summary().items()})
        summaries[-1]["wall_s"] = traced[-1] * f
        left = leftover_wrappers()
        if left:
            session.problems.append(f"wrappers left bound: {left}")
        untraced.append(session.run(f"untraced {len(untraced)}"))
        summaries[-1]["untraced_wall_s"] = untraced[-1] * speed.factor()
    for key in (k for k in summaries[0] if not k.endswith("self_s")
                and not k.endswith("wall_s")):
        values = {s[key] for s in summaries}
        if len(values) > 1:
            session.problems.append(f"counter {key} differs: {sorted(values)}")
    metrics = dict(summaries[0])
    for key in metrics:
        if key.endswith("self_s") or key.endswith("wall_s"):
            metrics[key] = _median([s[key] for s in summaries])
    metrics["trace_overhead_frac"] = (
        metrics["wall_s"] / metrics["untraced_wall_s"] - 1.0)
    np.savez_compressed(session.dir / "spans.npz", **tracer.spans())
    notes = {"traced_commands": len(traced),
             "calibration_ms_median": _median(speed.times) * 1e3}
    raw = {"traced_walls_s": traced, "untraced_walls_s": untraced,
           "calibration_s": speed.times}
    return metrics, notes, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    found = importlib.util.find_spec("petzgap")
    if (found is None or found.origin is None
            or SRC not in Path(found.origin).resolve().parents):
        print(f"bench: no petzgap package under {SRC}", file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed, args.seconds, args.trace)
    rss = None if args.trace else session.rss_probe()
    try:
        import petzgap.cli  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import petzgap: {exc}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    if args.trace:
        metrics, notes, raw = measure_traced(session)
    else:
        metrics, notes, raw = measure(session, rss)

    print(f"petzgap bench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} command={session.command} "
          f"config={json.dumps(session.config, sort_keys=True)}")
    print("env: " + json.dumps(env, sort_keys=True))
    print("notes: " + json.dumps(notes))
    for m in wanted:
        measured = metrics.get("raw_" + m["name"])
        also = "" if measured is None else f"  (measured {measured:.6g})"
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}"
              + also)
    fail_frac = session.failed / session.attempted
    print(f"  {'fail_frac':<44} {fail_frac:>14.6g} frac "
          f"({session.failed}/{session.attempted} operations)")
    if session.command == "verify":
        gate = ("min_margin", min(session.gate_values, default=math.nan))
    else:
        gate = ("max_error", max(session.gate_values, default=math.nan))
    print(f"  {gate[0]:<44} {gate[1]:>14.6g}")
    for problem in session.problems:
        print(f"  problem: {problem}")

    result = {
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (session.dir / "result.json").write_text(json.dumps(
        {"env": env, "notes": notes, "raw": raw, "all_metrics": metrics,
         "problems": session.problems, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
