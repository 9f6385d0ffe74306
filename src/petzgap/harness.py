"""Experiment harness: verify / sweep / reconstruct batch runs.

Outputs are byte-deterministic for a fixed config: every random draw is
keyed by (seed, trial_index), floats are serialized at full precision, JSON
keys are sorted, and no record carries a wall-clock time. A JSON report is
one compact line written by the C encoder of the json module. Its records
come out of their to_json (and reconstruct's cases out of report assembly)
already JSON-safe, with each non-finite float written as the string "nan",
"inf" or "-inf"; dumps_report converts only the numeric summary, which the
CLI still formats as numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bounds, entropy
from .algebra import (SubalgebraSpec, factor_spec, full_spec, pinching_spec,
                      trivial_spec)
from .context import PairContext
from .errors import InvalidInput, NumericalFailure, PetzGapError
from .monotone import builtin_neg_log, rep_from_name
from .states import SamplerConfig, default_factors, sample

SPEC_KINDS = ("pinching", "partial-trace", "trivial", "full")

CSV_HEADER = "epsilon,gap,disc_b50,err_rho,err_sigma,rhs_log,rhs_pow,rhs_renyi"


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
        return {
            "trials": self.trials,
            "dims": list(self.dims),
            "specs": list(self.specs),
            "functions": list(self.functions),
            "alpha_grid": list(self.alpha_grid),
            "beta_grid": list(self.beta_grid),
            "seed": self.seed,
            "tolerance": self.tolerance,
            "epsilon_ladder": list(self.epsilon_ladder),
            "t_points": self.t_points,
        }

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
    trial_index: int
    config_hash: str
    dim: int
    spec_kind: str
    sampler_kind: str
    rank_rho: int
    rank_sigma: int
    rho_eigenvalues: list
    sigma_eigenvalues: list
    reports: list

    def to_json(self) -> dict:
        return {
            "trial_index": self.trial_index,
            "config_hash": self.config_hash,
            "dim": self.dim,
            "spec_kind": self.spec_kind,
            "sampler_kind": self.sampler_kind,
            "rank_rho": self.rank_rho,
            "rank_sigma": self.rank_sigma,
            "rho_eigenvalues": list(self.rho_eigenvalues),
            "sigma_eigenvalues": list(self.sigma_eigenvalues),
            "reports": [r.to_json() for r in self.reports],
        }


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


def draw_pair(config: ExperimentConfig, trial_index: int):
    """Deterministic (rho, sigma, metadata) for one verify trial.

    Ranks cycle so most states are invertible with periodic singular rho
    (every 5th) and singular sigma (every 7th); rho alternates ginibre and
    diagonal draws. rho and sigma use disjoint stream indices 2i and 2i+1.
    """
    dim = config.dims[trial_index % len(config.dims)]
    rank_rho = dim - 1 if trial_index % 5 == 4 else dim
    rank_sigma = dim - 1 if trial_index % 7 == 6 else dim
    sampler_kind = "diagonal" if trial_index % 4 == 3 else "ginibre"
    rho = sample(SamplerConfig(dim=dim, rank=rank_rho, seed=config.seed,
                               kind=sampler_kind), trial_index=2 * trial_index)
    sigma = sample(SamplerConfig(dim=dim, rank=rank_sigma, seed=config.seed,
                                 kind="ginibre"), trial_index=2 * trial_index + 1)
    return rho, sigma, dim, rank_rho, rank_sigma, sampler_kind


T_GRID = np.logspace(-3, 6, 40)


def _dpi_report(rep, g, delta_norm):
    margins, flags = bounds.gap_margin("dpi", g)
    return bounds.BoundReport(name=f"dpi:{rep.name}", gap=g, beta=None,
                              discrepancy=None, delta_norm=delta_norm,
                              margins=margins, flags=flags)


def _theorem_report(rep, beta, disc, delta_norm, g):
    """The T-family on all of T_GRID at once; its margin is the least
    rhs - lhs, at T_at_min_margin (None when the gap is inf or nan)."""
    lhs = math.pi / math.sin(beta * math.pi) * disc
    excess = bounds.theorem_bound(rep, beta, T_GRID, delta_norm, g) - lhs
    margins, flags = bounds.gap_margin("theorem_T_grid", g)
    worst_t = None
    if math.isfinite(g):
        i = int(np.argmin(excess))
        margins["theorem_T_grid"] = float(excess[i])
        worst_t = float(T_GRID[i])
    return bounds.BoundReport(
        name=f"theorem:{rep.name}",
        gap=g, beta=beta, discrepancy=disc, delta_norm=delta_norm,
        constants={"T_count": len(T_GRID), "T_at_min_margin": worst_t,
                   "lhs": lhs},
        margins=margins, flags=flags)


def run_trial(config: ExperimentConfig, trial_index: int, reps: list,
              config_hash: str) -> TrialRecord:
    """One verify trial with the reps of config.functions and the config
    hash, which run_verify computes once for the whole run."""
    rho, sigma, dim, rank_rho, rank_sigma, sampler_kind = \
        draw_pair(config, trial_index)
    kind = config.specs[trial_index % len(config.specs)]
    ctx = PairContext(rho, sigma, spec_for(kind, dim))
    reports = []
    for rep in reps:
        g = ctx.gap(rep)
        reports.append(_dpi_report(rep, g, ctx.delta_norm))
        for beta in config.beta_grid:
            reports.append(_theorem_report(rep, beta, ctx.discrepancy(beta),
                                           ctx.delta_norm, g))
            # for neg-log, corollary-log asserts this and records K_generic
            if rep is not builtin_neg_log():
                reports.append(bounds.generic_corollary_bound(rep, beta, ctx))
    for beta in config.beta_grid:
        reports.append(bounds.corollary_log_bound(beta, ctx))
        reports.append(bounds.beta_free_discrepancy(beta, ctx))
        for alpha in config.alpha_grid:
            reports.append(bounds.corollary_power_bound(alpha, beta, ctx))
    for alpha in config.alpha_grid:
        reports.append(bounds.renyi_bound(alpha, ctx))
    reports.append(bounds.recovery_chain(ctx))
    return TrialRecord(
        trial_index=trial_index,
        config_hash=config_hash,
        dim=dim,
        spec_kind=kind,
        sampler_kind=sampler_kind,
        rank_rho=rank_rho,
        rank_sigma=rank_sigma,
        rho_eigenvalues=[float(v) for v in rho.eigenvalues],
        sigma_eigenvalues=[float(v) for v in sigma.eigenvalues],
        reports=reports,
    )


def run_verify(config: ExperimentConfig):
    """Run the full bound battery; exit 0 iff every asserted margin is
    >= -tolerance. A trial that raises a PetzGapError or an ArithmeticError
    is recorded with status "error" and its exception, counted in
    error_trials, and exits 1; the run goes on. Returns (exit_code,
    report_dict)."""
    reps = [rep_from_name(n) for n in config.functions]
    config_hash = config.hash()
    records = []  # a TrialRecord, or the JSON record of a trial that raised
    failures = 0
    checked = 0
    infinite_gap_trials = 0
    error_trials = 0
    min_margin = math.inf
    for i in range(config.trials):
        try:
            record = run_trial(config, i, reps, config_hash)
        except (PetzGapError, ArithmeticError) as exc:
            error_trials += 1
            records.append({"trial_index": i, "config_hash": config_hash,
                            "status": "error",
                            "error": f"{type(exc).__name__}: {exc}",
                            "reports": []})
            continue
        trial_flags = set()
        for report in record.reports:
            trial_flags.update(report.flags)
            for value in report.margins.values():
                if math.isnan(value):
                    continue
                checked += 1
                if value < min_margin:
                    min_margin = value
                if value < -config.tolerance:
                    failures += 1
        if bounds.FLAG_INFINITE_GAP in trial_flags:
            infinite_gap_trials += 1
        records.append(record)
    report = {
        "schema": "verify_v1",
        "config": config.to_json(),
        "config_hash": config_hash,
        "summary": {
            "trials": config.trials,
            "margins_checked": checked,
            "failures": failures,
            "infinite_gap_trials": infinite_gap_trials,
            "error_trials": error_trials,
            "min_margin": min_margin,
        },
        "trials": [r if isinstance(r, dict) else r.to_json()
                   for r in records],
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
        lines.append(",".join(_format_float(v) for v in row))
    return (0 if ok else 1), "\n".join(lines) + "\n"


def _format_float(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return f"{v:.17g}"


def run_reconstruct(config: ExperimentConfig):
    """Integral-reconstruction and proof-internals battery on invertible
    pairs. Exit 0 iff every recorded error and residual is <= 1e-5; every
    function a config names carries its density, so every case integrates.
    A case whose quadrature fails (NumericalFailure), a reconstruction or a
    trial's proof internals, is recorded as failed with the reason, sets
    max_error to inf, and the run goes on.
    """
    reps = [rep_from_name(n) for n in config.functions]
    cases = []
    max_error = 0.0
    for i in range(config.trials):
        dim = config.dims[i % len(config.dims)]
        kind = config.specs[i % len(config.specs)]
        spec = spec_for(kind, dim)
        rho = sample(SamplerConfig(dim=dim, seed=config.seed, kind="ginibre"),
                     trial_index=2 * i)
        sigma = sample(SamplerConfig(dim=dim, seed=config.seed, kind="ginibre"),
                       trial_index=2 * i + 1)
        ctx = PairContext(rho, sigma, spec)
        for rep in reps:
            case = {"trial_index": i, "dim": dim, "spec_kind": kind,
                    "function": rep.name}
            try:
                value = entropy.integral_reconstruction(rep, ctx.op)
                direct = ctx.s_f(rep, "op")
                g_quad = ctx.reconstruct_gap(rep)
                g_direct = ctx.gap(rep)
                case["status"] = "ok"
                case["entropy_error"] = abs(value - direct)
                case["gap_error"] = abs(g_quad - g_direct)
                max_error = max(max_error, case["entropy_error"],
                                case["gap_error"])
            except NumericalFailure as exc:
                case["status"] = "failed"
                case["reason"] = str(exc)
                max_error = math.inf
            cases.append(case)
        beta = config.beta_grid[i % len(config.beta_grid)]
        int_case = {"trial_index": i, "dim": dim, "spec_kind": kind,
                    "beta": beta}
        try:
            internals = bounds.proof_internals(
                reps[0], beta, ctx, t_grid=np.logspace(-2, 2, config.t_points))
        except NumericalFailure as exc:
            int_case["status"] = "failed"
            int_case["reason"] = str(exc)
            max_error = math.inf
        else:
            int_case.update({
                "status": "internals",
                "contraction_margin": internals.contraction_margin,
                "per_t_gap_margin": internals.per_t_gap_margin,
                "decay_margin": internals.decay_margin,
                "identity_residual": internals.identity_residual,
                "gap_residual": internals.gap_residual,
            })
            max_error = max(max_error, internals.identity_residual)
            if not math.isnan(internals.gap_residual):
                max_error = max(max_error, internals.gap_residual)
            if min(internals.contraction_margin, internals.per_t_gap_margin,
                   internals.decay_margin) < -config.tolerance:
                max_error = math.inf
        cases.append(int_case)
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
# the benchmark-upkeep change of ROADMAP item 5 removes it.
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


def dumps_report(report: dict) -> str:
    """The report as one line of compact JSON with sorted keys. Only the
    summary is converted here; a non-finite float anywhere else is a
    ValueError, not invalid JSON."""
    report = dict(report, summary=bounds.json_safe(report["summary"]))
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
