"""Command line harness.

    petzgap verify      --config cfg.json [--seed N] [--out path]
    petzgap sweep       --config cfg.json [--seed N] [--out path]
    petzgap reconstruct --config cfg.json [--seed N] [--out path]

Exit codes: 0 all checks passed, 1 a bound or residual check failed, a
trial or case was recorded as an error or failure, or a numerical error (a
PetzGapError or an ArithmeticError) stopped the run, 2 configuration or I/O
problems.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidInput, PetzGapError
from .harness import (ExperimentConfig, dumps_report, run_reconstruct,
                      run_sweep, run_verify)

DEFAULT_OUTPUTS = {
    "verify": "petzgap_verify.json",
    "sweep": "petzgap_sweep.csv",
    "reconstruct": "petzgap_reconstruct.json",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petzgap",
        description="Verify stability bounds for quasi-entropy data "
                    "processing inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("verify", "run the bound battery on random state pairs"),
            ("sweep", "perturbation ladder on recoverable product pairs"),
            ("reconstruct", "integral reconstruction and proof internals")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output file path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        config = ExperimentConfig.from_json(raw)
    except (OSError, ValueError, InvalidInput) as exc:
        # ValueError: malformed JSON, non-UTF-8 bytes, an overlong integer
        print(f"petzgap: config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.output_path = args.out
    out_path = config.output_path or DEFAULT_OUTPUTS[args.command]
    try:
        if args.command == "verify":
            code, report = run_verify(config)
            payload = dumps_report(report)
            summary = report["summary"]
            status = "pass" if code == 0 else "FAIL"
            print(f"verify: {status} trials={summary['trials']} "
                  f"margins={summary['margins_checked']} "
                  f"failures={summary['failures']} "
                  f"infinite_gap={summary['infinite_gap_trials']} "
                  f"errors={summary['error_trials']} "
                  f"min_margin={summary['min_margin']:.3e}")
        elif args.command == "sweep":
            code, payload = run_sweep(config)
            n_rows = payload.count("\n") - 1
            status = "pass" if code == 0 else "FAIL"
            print(f"sweep: {status} rows={n_rows}")
        else:
            code, report = run_reconstruct(config)
            payload = dumps_report(report)
            summary = report["summary"]
            status = "pass" if code == 0 else "FAIL"
            max_err = summary["max_error"]
            print(f"reconstruct: {status} cases={summary['cases']} "
                  f"max_error={max_err:.3e}")
    except InvalidInput as exc:
        print(f"petzgap: config error: {exc}", file=sys.stderr)
        return 2
    except (PetzGapError, ArithmeticError) as exc:
        print(f"petzgap: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"petzgap: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
