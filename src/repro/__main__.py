"""``python -m repro <experiment>`` — shortcut to the experiment CLI.

Equivalent to ``python examples/run_experiments.py``; see
:mod:`repro.experiments` for the available names.  Extras:

* ``python -m repro obs-report results/runs/<run>.jsonl`` renders a
  telemetry run record (phase timings, span tree, training health, op
  profile) — see docs/OBSERVABILITY.md.
* ``python -m repro obs-diff BASELINE CURRENT [--max-regress pct]`` diffs
  two run records (or bench JSONs) and exits non-zero on regressions —
  the CI gate; with one path, diffs against the committed baseline.
* ``python -m repro obs-trace results/runs/<run>.jsonl`` converts a run
  record into Chrome-trace JSON (open in ``chrome://tracing`` / Perfetto);
  ``--flame`` also writes a collapsed-stack flamegraph text file.
* ``python -m repro doctor`` runs scripts/selfcheck.py +
  scripts/check_docs.py and prints one PASS/FAIL summary.
* ``python -m repro run-ses [--checkpoint-every N] [--resume [PATH]]``
  trains one SES configuration under the fault-tolerant runtime
  (checkpoint/resume, NaN recovery, fault injection) — see
  docs/ROBUSTNESS.md.
* ``python -m repro serve --snapshot-dir DIR`` serves predictions and
  explanations from a training snapshot over HTTP, with LRU explanation
  caching and snapshot hot-reload — see docs/SERVING.md.
* ``--telemetry`` makes every experiment harness write run records under
  ``results/runs/`` (sets ``REPRO_TELEMETRY=1`` for the invocation).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

SUBCOMMANDS = ("obs-report", "obs-diff", "obs-trace", "doctor", "run-ses", "serve")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "obs-report":
        from .obs import report

        return report.main(argv[1:])
    if argv and argv[0] == "obs-diff":
        from .obs import diff

        return diff.main(argv[1:])
    if argv and argv[0] == "obs-trace":
        from .obs import trace

        return trace.main(argv[1:])
    if argv and argv[0] == "doctor":
        from . import doctor

        return doctor.main(argv[1:])
    if argv and argv[0] == "run-ses":
        from . import run_ses

        return run_ses.main(argv[1:])
    if argv and argv[0] == "serve":
        from .serve import cli as serve_cli

        return serve_cli.main(argv[1:])

    # Only an experiment name needs the harnesses (and their scipy.stats,
    # explainer and analysis imports); the subcommands above never load them.
    from .experiments import ALL_EXPERIMENTS, get_profile

    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument(
        "experiment", choices=sorted(ALL_EXPERIMENTS) + ["all", *SUBCOMMANDS]
    )
    parser.add_argument("--profile", default=None, choices=["quick", "standard", "full"])
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="write JSONL run records to results/runs/ (see docs/OBSERVABILITY.md)",
    )
    args = parser.parse_args(argv)
    if args.telemetry:
        os.environ["REPRO_TELEMETRY"] = "1"
    profile = get_profile(args.profile)
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.time()
        print(ALL_EXPERIMENTS[name](profile))
        print(f"[{name} in {time.time() - start:.0f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
