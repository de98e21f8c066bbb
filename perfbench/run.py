"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-full --seed 1 --seconds 6 --trace 0

Workloads (see ``spec.py``): ``fit-full``, ``fit-minibatch`` and
``fit-parallel``.  Each run starts the workload in a
fresh process under a timeout, so peak memory, the CSR layout cache and the
default metrics registry never carry over, and a hung server or worker is
killed with its whole process group and the run counted as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and traced, checks that tracing left the
training trajectory bit-identical, and prints the per-layer metrics plus
``obs.trace_overhead_pct``; the traced run's record lands in
``perfbench/out/`` for ``python -m repro obs-report`` / ``obs-trace``.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spec import END_TO_END, METRIC_UNITS, PER_LAYER, WORKLOADS
from stats import Tally, overhead_pct, samples_beyond

HERE = Path(__file__).resolve().parent
PASS_TIMEOUT = 80.0
"""Seconds one workload pass may take; two passes must fit the 180 s a run has."""


def pycache_dir(root: Path) -> Path:
    """Where every process of a run keeps its bytecode: tracked
    ``__pycache__`` files in the checkout are neither read nor rewritten."""
    return root / ".bench_build" / "pycache"


def child_env(root: Path) -> Dict[str, str]:
    """The environment of a pass: this checkout's sources, and no ``REPRO_*``
    switches (telemetry, faults, recovery) leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache_dir(root))
    return env


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def stop_group(pgid: int, timeout: float = 10.0) -> List[int]:
    """SIGKILL what is left of a pass's process group and wait until it is
    gone; returns the processes that had to be killed."""
    stragglers = group_members(pgid)
    if stragglers:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return stragglers


def run_pass(args, traced: bool, root: Path) -> Tuple[Optional[dict], str]:
    """One workload pass in a fresh process group; ``(outcome, error)``."""
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced)),
               "--out", str(HERE / "out")]
    process = subprocess.Popen(command, cwd=root, env=child_env(root),
                               stdout=subprocess.PIPE, start_new_session=True)
    error = ""
    try:
        stdout, _ = process.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(process.pid)
        stdout, _ = process.communicate()
        error = f"timed out after {PASS_TIMEOUT:.0f}s; killed the pass and its children"
    finally:
        stragglers = stop_group(process.pid)
    if not error and stragglers:
        error = f"left {len(stragglers)} process(es) running"
    if not error and process.returncode != 0:
        error = f"exited with code {process.returncode}"
    if error:
        return None, error
    lines = stdout.decode("utf-8", errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "printed no result"


def report(name: str, value: float) -> Dict[str, object]:
    return {"value": value, "unit": METRIC_UNITS[name]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of serving load, split evenly over the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The only build step: byte-compile once so no run pays for it.  The
    # bytecode goes under .bench_build/, never into the source tree.
    sys.pycache_prefix = str(pycache_dir(root))
    compileall.compile_dir(str(root / "src"), quiet=1)

    outcomes = []
    tally = Tally()
    for traced in ([False, True] if args.trace else [False]):
        outcome, error = run_pass(args, traced, root)
        if outcome is None:
            print(f"perfbench: {args.workload} pass failed: {error}", file=sys.stderr)
            tally.fail(f"pass {error}")
            print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                              "failed": tally.failed, "metrics": {}}))
            return 1
        outcomes.append(outcome)
        tally.merge(Tally.from_dict(outcome["tally"]))

    problems = [p for outcome in outcomes for p in outcome["problems"]]
    plain = outcomes[0]
    if args.trace:
        traced = outcomes[1]
        if traced["fingerprint"] != plain["fingerprint"]:
            problems.append(f"tracing changed the fit: {plain['fingerprint']} "
                            f"-> {traced['fingerprint']}")
        layers = dict(traced["layers"])
        layers["obs.trace_overhead_pct"] = overhead_pct(
            traced["metrics"]["fit_s"], plain["metrics"]["fit_s"])
        metrics = {m.name: report(m.name, layers[m.name]) for m in PER_LAYER}
        print(f"trace record: {traced['record']}")
    else:
        metrics = {m.name: report(m.name, plain["metrics"][m.name]) for m in END_TO_END}

    info = plain["info"]
    print(f"{args.workload} seed {args.seed}: {info['latency_samples']} latency samples in "
          f"{info['windows']} windows, p99 {info['latency_p99_ms']:.3f} ms with "
          f"{samples_beyond(info['latency_samples'], 0.99)} samples beyond it, "
          f"{info['reloads']} reloads")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>14.6g} {entry['unit']}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if tally.failed:
        print(f"perfbench: failed operations: {tally.reasons}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
