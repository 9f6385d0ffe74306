"""Experiment harness: verify / sweep / reconstruct batch runs.

Outputs are byte-deterministic for a fixed config: every random draw is
keyed by (seed, trial_index), floats are serialized at full precision, JSON
keys are sorted, and no record carries a wall-clock time. A JSON report is
one compact line written by the C encoder of the json module; a verify
trial's record is JSON-safe as it is built (bounds.mark), encoded once
when its trial ends and written as a part of its own. A verify_v4 trial
record writes each quantity of the trial once (quantities), the run each
constant of (report name, beta) once (grid); no bound report holds either,
nor what another value of the record determines, nor an empty container.
The harness builds no bound report itself: it picks the reports a trial
runs, each built in bounds (the dpi and theorem reports too), and reads
their margins. A reconstruct internals case is the dict that
bounds.proof_internals returns, with its status; its report is marked at
assembly. The states of verify and reconstruct trials are prepared a block
of trials at a time (TrialStates), one stacked eigh per dimension per
block; TrialStates is the one place that keeps a bad state's error to its
own trial.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cache

import numpy as np

from . import bounds
from .algebra import (SubalgebraSpec, factor_spec, full_spec, pinching_spec,
                      trivial_spec)
from .context import PairContext
from .errors import InvalidInput, NumericalFailure, PetzGapError
from .monotone import builtin_neg_log, builtin_neg_power, rep_from_name
from .states import SamplerConfig, default_factors, sample, sample_states

SPEC_KINDS = ("pinching", "partial-trace", "trivial", "full")

CSV_HEADER = "epsilon,gap,disc_b50,err_rho,err_sigma,rhs_log,rhs_pow,rhs_renyi"

# Compact JSON with sorted keys; a non-finite float is a ValueError, not
# invalid JSON. Every report and every verify trial record is encoded by it.
# What it encodes is a fresh tree of dicts, lists, strings and numbers,
# never a cycle, so it skips the cycle check.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False, check_circular=False)


def _require_int(value, label: str) -> None:
    """InvalidInput unless value is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{label} must be an integer, got {value!r}")


def _finite(value, label: str) -> float:
    """value as a float; InvalidInput unless it is a real number a float can
    hold finitely (a bool, a string, nan or inf is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        raise InvalidInput(f"{label} must be a finite number, got {value!r}")
    return float(value)


@dataclass
class ExperimentConfig:
    """Experiment parameters; output_path is routing, not identity, so it
    stays out of to_json() and the config hash."""

    trials: int = 20
    dims: list = field(default_factory=lambda: [2, 3, 4])
    specs: list = field(default_factory=lambda: list(SPEC_KINDS))
    functions: list = field(default_factory=lambda: ["neg-log", "neg-power:0.5"])
    alpha_grid: list = field(default_factory=lambda: [0.25, 0.5, 0.75])
    beta_grid: list = field(default_factory=lambda: [0.25, 0.5, 0.75])
    seed: int = 0
    tolerance: float = 1e-8
    output_path: str | None = None
    epsilon_ladder: list = field(
        default_factory=lambda: [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    t_points: int = 20

    def __post_init__(self):
        for label in ("trials", "seed", "t_points"):
            _require_int(getattr(self, label), label)
        for d in self.dims:
            _require_int(d, "each dims entry")
        _finite(self.tolerance, "tolerance")
        for label in ("alpha_grid", "beta_grid", "epsilon_ladder"):
            setattr(self, label, [_finite(v, f"each {label} entry")
                                  for v in getattr(self, label)])
        if self.trials < 1:
            raise InvalidInput("trials must be >= 1")
        if not self.dims or any(d < 2 for d in self.dims):
            raise InvalidInput("dims must be integers >= 2")
        self.dims = [int(d) for d in self.dims]
        if not self.specs:
            raise InvalidInput("specs must be nonempty")
        for kind in self.specs:
            if kind not in SPEC_KINDS:
                raise InvalidInput(f"unknown spec kind {kind!r}")
        if not self.functions:
            raise InvalidInput("functions must be nonempty")
        for name in self.functions:
            rep_from_name(name)
        for grid, label in ((self.alpha_grid, "alpha_grid"),
                            (self.beta_grid, "beta_grid")):
            if not grid or any(not 0.0 < v < 1.0 for v in grid):
                raise InvalidInput(f"{label} values must lie in (0, 1)")
        if self.tolerance <= 0.0:
            raise InvalidInput("tolerance must be positive")
        if any(e < 0.0 for e in self.epsilon_ladder):
            raise InvalidInput("epsilon values must be nonnegative")
        if self.t_points < 2:
            raise InvalidInput("t_points must be >= 2")

    def to_json(self) -> dict:
        """Every field but output_path, each list or tuple as a new list."""
        values = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "output_path"}
        return {k: list(v) if isinstance(v, (list, tuple)) else v
                for k, v in values.items()}

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise InvalidInput("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise InvalidInput(f"bad config: {exc}") from exc

    def hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(eq=False)
class TrialRecord:
    """One verify trial that ran: what it drew, its PairContext's quantities
    and its reports, whose JSON leaves out what the quantities hold.
    run_verify keeps only the JSON text of to_json()."""

    drawn: dict
    quantities: dict
    reports: list

    def to_json(self) -> dict:
        return dict(self.drawn, status="ok", quantities=self.quantities,
                    reports=[r.to_json() for r in self.reports])


def spec_for(kind: str, dim: int) -> SubalgebraSpec:
    """Concrete subalgebra for a named kind. pinching splits the dimension
    into two diagonal blocks; partial-trace uses the smallest proper factor
    as multiplicity (prime dims degenerate to the full algebra)."""
    if kind == "trivial":
        return trivial_spec(dim)
    if kind == "full":
        return full_spec(dim)
    if kind == "pinching":
        return pinching_spec(dim, [dim - dim // 2, dim // 2])
    if kind == "partial-trace":
        n1, n2 = default_factors(dim)
        return factor_spec(n1, n2)
    raise InvalidInput(f"unknown spec kind {kind!r}")


# States are prepared a block of consecutive trials at a time, one stacked
# eigh per dimension per block, of at most BLOCK_BYTES of drawn matrices (or
# one trial). Stacking saves per-call overhead, which matters at small d;
# at large d a block only moves LAPACK work into its first trial and holds
# memory: verify {"trials": 12, "dims": [32, 48, 64]} peaked at 43.7 MB RSS
# in one block (39.9 MB in blocks of 2), and blocks of 2 raised its
# trial_ms_p90 by 13%.
BLOCK_BYTES = 64 * 1024


class TrialStates:
    """The states of a run's trials (trial i's drawn as draws(config, i)),
    prepared a block at a time inside the block's first trial, whose clock
    covers the work. A block that raises a PetzGapError is drawn again
    trial by trial, each state alone in draw order, so a bad state raises
    in its own trial only, the error it raises alone."""

    def __init__(self, config: ExperimentConfig, draws):
        self.config, self.draws, self.block = config, draws, {}
        # a trial draws two complex d x d matrices
        self.size = max(1, BLOCK_BYTES // (2 * 16 * max(config.dims) ** 2))

    def __call__(self, i: int) -> list:
        if i not in self.block:
            block = range(i, min(i + self.size, self.config.trials))
            try:
                states = iter(sample_states(
                    [d for j in block for d in self.draws(self.config, j)]))
            except PetzGapError:
                self.block = dict.fromkeys(block)
            else:
                self.block = {j: [next(states), next(states)] for j in block}
        return self.block.pop(i) or [sample_states([d])[0]
                                     for d in self.draws(self.config, i)]


def _verify_draws(config: ExperimentConfig, i: int) -> list:
    """Verify trial i's draws. Ranks cycle so most states are invertible
    with periodic singular rho (every 5th) and singular sigma (every 7th);
    rho alternates ginibre and diagonal draws. rho and sigma use disjoint
    stream indices 2i and 2i+1."""
    d = config.dims[i % len(config.dims)]
    return [(SamplerConfig(d, d - 1 if i % 5 == 4 else d, config.seed,
                           "diagonal" if i % 4 == 3 else "ginibre"), 2 * i),
            (SamplerConfig(d, d - 1 if i % 7 == 6 else d, config.seed),
             2 * i + 1)]


def draw_pair(config: ExperimentConfig, trial_index: int,
              states: TrialStates | None = None):
    """Deterministic (rho, sigma, dim, rank_rho, rank_sigma, sampler_kind)
    for one verify trial, from the run's states (or a block of its own)."""
    (c_rho, _), (c_sigma, _) = _verify_draws(config, trial_index)
    states = states or TrialStates(
        replace(config, trials=trial_index + 1), _verify_draws)
    return (*states(trial_index), c_rho.dim, c_rho.rank, c_sigma.rank,
            c_rho.kind)


@cache
def _battery(reps: tuple, alphas: tuple) -> tuple[tuple, tuple]:
    """(the functions whose entropies run_trial reads, the alphas of its
    power corollaries), made once per (reps, alpha_grid)."""
    powers = tuple(rep.alpha for rep in reps if rep.alpha is not None)
    entropies = reps + (builtin_neg_log(),) + tuple(map(
        builtin_neg_power, alphas + tuple(1.0 - a for a in alphas)))
    return entropies, tuple(dict.fromkeys(alphas + powers))


def run_trial(config: ExperimentConfig, trial_index: int, reps: list,
              states: TrialStates | None = None) -> TrialRecord:
    """One verify trial with the reps of config.functions. The gap lower
    bounds are corollary-log and
    corollary-power at each alpha of alpha_grid, then at the alpha of each
    neg-power:alpha in functions that alpha_grid lacks. The entropies of
    every function the battery reads (the reps, neg-log, and the powers
    alpha and 1 - alpha of alpha_grid) are taken in one pass per operator."""
    rho, sigma, dim, rank_rho, rank_sigma, sampler_kind = \
        draw_pair(config, trial_index, states)
    kind = config.specs[trial_index % len(config.specs)]
    ctx = PairContext(rho, sigma, spec_for(kind, dim))
    functions, alphas = _battery(tuple(reps), tuple(config.alpha_grid))
    ctx.entropies(functions)
    reports = []
    for rep in reps:
        reports.append(bounds.dpi_report(rep, ctx))
        for beta in config.beta_grid:
            reports.append(bounds.theorem_report(rep, beta, ctx))
    for beta in config.beta_grid:
        reports.append(bounds.corollary_log_bound(beta, ctx))
        reports.append(bounds.beta_free_discrepancy(beta, ctx))
        for alpha in alphas:
            reports.append(bounds.corollary_power_bound(alpha, beta, ctx))
    for alpha in config.alpha_grid:
        reports.append(bounds.renyi_bound(alpha, ctx))
    reports.append(bounds.recovery_chain(ctx))
    drawn = {"trial_index": trial_index, "dim": dim, "spec_kind": kind,
             "sampler_kind": sampler_kind, "rank_rho": rank_rho,
             "rank_sigma": rank_sigma,
             "rho_eigenvalues": rho.eigenvalues.tolist(),
             "sigma_eigenvalues": sigma.eigenvalues.tolist()}
    return TrialRecord(drawn, bounds.json_safe(ctx.quantities()), reports)


def run_verify(config: ExperimentConfig):
    """Run the full bound battery; exit 0 iff every asserted margin is
    >= -tolerance. A trial that raises a PetzGapError or an ArithmeticError
    is recorded with status "error" and its exception, counted in
    error_trials, and exits 1; the run goes on. Returns (exit_code,
    report_dict). The summary locates the least margin, gives it per family
    (name up to its colon), counts flags per report and skipped nan margins.
    A trial's record is encoded to JSON text when the trial ends, after the
    summary has read it, and report_dict["trials"] holds only those texts,
    which are dumps_report's parts. The grid block is the first ok trial's."""
    reps = [rep_from_name(n) for n in config.functions]
    states = TrialStates(config, _verify_draws)
    trials = []  # the JSON text of each trial's record
    grid = None
    failures = 0
    checked = 0
    skipped = 0
    infinite_gap_trials = 0
    error_trials = 0
    min_margin = math.inf
    worst = None
    by_family = {}
    flag_counts = {}
    for i in range(config.trials):
        try:
            record = run_trial(config, i, reps, states)
        except (PetzGapError, ArithmeticError) as exc:
            error_trials += 1
            trials.append(_ENCODER.encode(
                {"trial_index": i, "status": "error",
                 "error": f"{type(exc).__name__}: {exc}", "reports": []}))
            continue
        infinite_before = flag_counts.get(bounds.FLAG_INFINITE_GAP, 0)
        for report in record.reports:
            for flag in report.flags:
                flag_counts[flag] = flag_counts.get(flag, 0) + 1
            family = report.name.partition(":")[0]
            for key, value in report.margins.items():
                value = float(value)  # a "nan" or "inf" marker too
                if value != value:
                    skipped += 1
                    continue
                checked += 1
                if value < min_margin or worst is None:
                    min_margin = value
                    worst = {"trial_index": i, "report": report.name,
                             "beta": report.beta, "key": key, "value": value}
                if family not in by_family or value < by_family[family]:
                    by_family[family] = value
                if value < -config.tolerance:
                    failures += 1
        if flag_counts.get(bounds.FLAG_INFINITE_GAP, 0) > infinite_before:
            infinite_gap_trials += 1
        if grid is None:
            grid = bounds.grid_constants(record.reports)
        trials.append(_ENCODER.encode(record.to_json()))
        del record  # only the text is kept while the next trial runs
    report = {
        "schema": "verify_v4",
        "config": config.to_json(),
        "config_hash": config.hash(),
        "grid": {} if grid is None else grid,
        "summary": {
            "trials": config.trials,
            "margins_checked": checked,
            "margins_skipped": skipped,
            "failures": failures,
            "infinite_gap_trials": infinite_gap_trials,
            "error_trials": error_trials,
            "min_margin": min_margin,
            "worst_margin": worst,
            "min_margin_by_family": by_family,
            "flag_counts": flag_counts,
        },
        "trials": trials,
    }
    return (0 if failures == error_trials == 0 else 1), report


def _sweep_dimension(config: ExperimentConfig) -> tuple[int, int]:
    for dim in config.dims:
        n1, n2 = default_factors(dim)
        if n1 > 1:
            return n1, n2
    raise InvalidInput("sweep needs a composite dimension in dims")


def run_sweep(config: ExperimentConfig):
    """Perturbation ladder on exactly-recoverable product pairs.

    One base pair per run (same stream for every epsilon, so only the
    perturbation size varies). Columns: the relative-entropy gap, the
    beta = 1/2 discrepancy, both recovery errors, and the gap lower bounds
    from the log corollary, the power corollary at alpha = 1/2, and the
    Renyi bound at alpha = 1/2. Exit 0 iff the epsilon = 0 row is exact to
    tolerance (|gap| <= 1e-9, disc <= 1e-8).
    """
    n1, n2 = _sweep_dimension(config)
    dim = n1 * n2
    spec = factor_spec(n1, n2)
    neg_log = builtin_neg_log()
    rows = []
    ok = True
    for eps in config.epsilon_ladder:
        rho, sigma = sample(
            SamplerConfig(dim=dim, seed=config.seed,
                          kind="perturbed-recoverable", factors=(n1, n2),
                          epsilon=eps),
            trial_index=0)
        ctx = PairContext(rho, sigma, spec)
        g = ctx.gap(neg_log)
        disc = ctx.discrepancy(0.5)
        e_rho, e_sigma = ctx.recovery_errors
        rhs_log = bounds.corollary_log_bound(0.5, ctx).rhs_values[
            "gap_lower_bound"]
        rhs_pow = bounds.corollary_power_bound(0.5, 0.5, ctx).rhs_values[
            "gap_lower_bound"]
        rhs_renyi = bounds.renyi_bound(0.5, ctx).rhs_values["renyi_disc"]
        rows.append([eps, g, disc, e_rho, e_sigma, rhs_log, rhs_pow, rhs_renyi])
        if eps == 0.0 and (abs(g) > 1e-9 or disc > 1e-8):
            ok = False
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return (0 if ok else 1), "\n".join(lines) + "\n"


def _worst(max_error: float, *errors: float) -> float:
    """The largest of max_error and errors; inf when an error is nan, which
    max alone would drop (max(0.0, nan) is 0.0)."""
    if any(math.isnan(e) for e in errors):
        return math.inf
    return max(max_error, *errors)


def _fail(cases: list, exc: PetzGapError) -> float:
    """Mark cases failed, exc's text the reason; max_error is then inf."""
    for case in cases:
        case.update(status="failed", reason=str(exc))
    return math.inf


def run_reconstruct(config: ExperimentConfig):
    """Integral-reconstruction and proof-internals battery on invertible
    pairs. Exit 0 iff every recorded error and residual is <= 1e-5 and
    every internals margin is >= -tolerance (a nan error, residual or
    margin fails; only the gap residual's nan, which marks a pair whose
    reconstruction raised DomainError, is skipped); every
    function a config names carries its density, so every case integrates.
    A trial's function cases share one integral (PairContext.reconstructions),
    whose gaps the proof internals read back, and one pass over each operator
    for the entropies they are checked against (PairContext.entropies). The
    internals' t grid and probes (one draw per dimension, kept for this run
    only) are made before the first trial. A PetzGapError of a trial's
    states or context fails all its cases, and a NumericalFailure of a
    quadrature the cases it serves (a trial's function cases or its proof
    internals): each is recorded as failed with the reason, max_error is
    set to inf, and the run goes on. The quadrature's truncation leaves
    identity_residual about 2e-7 at beta = 0.95 and 0.26 at beta = 0.99.
    """
    reps = [rep_from_name(n) for n in config.functions]
    t_grid = np.logspace(-2, 2, config.t_points)
    probes = {d: bounds.contraction_probes(d)  # the dims the trials use
              for d in dict.fromkeys(config.dims[:config.trials])}
    states = TrialStates(config, lambda config, i: [(SamplerConfig(
        config.dims[i % len(config.dims)], seed=config.seed), 2 * i + k)
        for k in (0, 1)])
    cases = []
    max_error = 0.0
    for i in range(config.trials):
        dim = config.dims[i % len(config.dims)]
        kind = config.specs[i % len(config.specs)]
        beta = config.beta_grid[i % len(config.beta_grid)]
        trial = {"trial_index": i, "dim": dim, "spec_kind": kind}
        rep_cases = [dict(trial, function=rep.name) for rep in reps]
        int_case = dict(trial, beta=beta)
        cases += rep_cases + [int_case]
        try:
            ctx = PairContext(*states(i), spec_for(kind, dim))
            ctx.entropies(reps)
        except PetzGapError as exc:
            max_error = _fail(rep_cases + [int_case], exc)
            continue
        try:
            rebuilt = ctx.reconstructions(reps)
        except NumericalFailure as exc:
            max_error = _fail(rep_cases, exc)
        else:
            for rep, case, (value, g_quad) in zip(reps, rep_cases, rebuilt):
                case["status"] = "ok"
                case["entropy_error"] = abs(value - ctx.s_f(rep, "op"))
                case["gap_error"] = abs(g_quad - ctx.gap(rep))
                max_error = _worst(max_error, case["entropy_error"],
                                   case["gap_error"])
        try:
            internals = bounds.proof_internals(reps[0], beta, ctx, t_grid,
                                               probes[dim])
        except NumericalFailure as exc:
            max_error = _fail([int_case], exc)
        else:
            int_case.update(internals, status="internals")
            max_error = _worst(max_error, internals["identity_residual"])
            if not math.isnan(internals["gap_residual"]):
                max_error = _worst(max_error, internals["gap_residual"])
            if not all(internals[key] >= -config.tolerance for key in (
                    "contraction_margin", "per_t_gap_margin", "decay_margin")):
                max_error = math.inf
    report = {
        "schema": "reconstruct_v1",
        "config": config.to_json(),
        "config_hash": config.hash(),
        "summary": {"cases": len(cases), "max_error": max_error},
        "cases": [bounds.json_safe(c) for c in cases],
    }
    return (0 if max_error <= 1e-5 else 1), report


# Nothing in petzgap calls sanitize. It stays as the tests' oracle of the
# report format, and because BENCHMARK.json's per_layer names
# harness.sanitize (bench/run.py --trace 1 indexes every per_layer name);
# ROADMAP item 3 (b) drops that name and item 3 (c) moves it to the tests.
def sanitize(obj):
    """Make a structure JSON-safe and deterministic: numpy scalars to
    Python, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def dumps_report(report: dict) -> list:
    """The report as one line of compact JSON with sorted keys, as the text
    parts cli.main writes with one writelines. Only the summary is converted
    here; any other non-finite float is a ValueError, not invalid JSON. A
    reconstruct report is one part; a verify report is the rest encoded once
    ("trials" sorts last), each trial's text and comma, "]}" and a newline."""
    head = dict(report, summary=bounds.json_safe(report["summary"]))
    trials = head.pop("trials", None)
    text = _ENCODER.encode(head)
    if trials is None:
        return [text + "\n"]
    parts = [text[:-1], ',"trials":[']
    for trial in trials:
        parts += (trial, ",")
    if trials:
        parts.pop()
    parts.append("]}\n")
    return parts
