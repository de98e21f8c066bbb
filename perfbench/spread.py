"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Runs ``run.py`` once per seed (untraced, one after another) and prints, per
metric, the median and the inter-quartile distance over the median next to
the metric's bound::

    python3 perfbench/spread.py --workload fit-full --seeds 1-10 --seconds 8

A spread under a third of the bound leaves room for a second set of runs to
agree with the first.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from spec import END_TO_END, WORKLOADS
from stats import iqr_spread, median

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = (int(x) for x in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", type=Path, help="also write every run's result here")
    args = parser.parse_args(argv)

    values: Dict[str, List[float]] = {m.name: [] for m in END_TO_END}
    runs = []
    for seed in parse_seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        runs.append({"seed": seed, "exit": completed.returncode, "result": result})
        status = "ok" if completed.returncode == 0 and result.get("correct") else "FAILED"
        print(f"seed {seed}: {status} attempted={result.get('attempted')} "
              f"failed={result.get('failed')}", flush=True)
        for name, entry in result.get("metrics", {}).items():
            values[name].append(entry["value"])
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    print(f"\n{'seed':>6s} " + " ".join(f"{m.name[:12]:>12s}" for m in END_TO_END))
    for run in runs:
        metrics = run["result"].get("metrics", {})
        print(f"{run['seed']:>6d} " + " ".join(
            f"{metrics[m.name]['value']:12.5g}" if m.name in metrics else f"{'-':>12s}"
            for m in END_TO_END))
    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    worst = 0.0
    for metric in END_TO_END:
        series = values[metric.name]
        if len(series) < 2:
            continue
        spread = iqr_spread(series)
        flag = "" if spread < metric.bound / 3 else "  <-- wide"
        worst = max(worst, spread / metric.bound)
        print(f"{metric.name:16s} {median(series):12.5g} {spread:8.4f} "
              f"{metric.bound / 3:8.4f}{flag}")
    print(f"widest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
