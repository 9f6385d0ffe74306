"""Fresh-interpreter probes started by run.py.

    python3 bench/probe.py setup CONFIG
        import the CLI, parse CONFIG and build its monotone functions: the
        work a process does before its first trial. run.py times the whole
        process, interpreter start included.
    python3 bench/probe.py rss COMMAND --config CONFIG --out OUT
        run one CLI command and exit with its exit code; run.py reads the
        peak RSS from os.wait4.

run.py sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and PYTHONPATH in the
environment these processes inherit.
"""

import contextlib
import io
import json
import sys


def setup(config_path: str) -> None:
    from petzgap.harness import ExperimentConfig
    from petzgap.monotone import rep_from_name
    import petzgap.cli  # noqa: F401  (the import is part of set-up)

    with open(config_path, encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(json.load(fh))
    [rep_from_name(name) for name in config.functions]


def rss(command: str, *cli_args: str) -> int:
    from petzgap.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main([command, *cli_args])


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "rss": rss}[mode](*rest))
