"""Overhead benchmark for the always-on metrics layer and the live dashboard.

Trains the same small SES configuration in four modes, in one process —

* ``metrics_off``  — the registry kill switch flipped off (every update a
  single flag check; the floor ``metrics_on`` is compared against);
* ``metrics_on``   — the shipped default (always-on counters, gauges and
  histograms: the training families derived from the trainer's events,
  and the CSR cache counters);
* ``telemetry``    — metrics on plus an in-memory run record, which also
  turns on the health events and the NaN watchdog (the floor
  ``metrics_live`` is compared against: a recorder activates them
  regardless of the dashboard);
* ``metrics_live`` — ``telemetry`` *plus* a
  :class:`~repro.obs.LiveDashboard` listening on the recorder, rendering
  to a discarded non-TTY stream (the ``run-ses --live`` configuration).

Each comparison — ``metrics_on`` vs ``metrics_off`` and ``metrics_live``
vs ``telemetry`` — isolates exactly one feature.  It is measured as
``PAIRS`` back-to-back pairs of fits, alternating which side of the pair
runs first, so machine drift and warm-up order hit both sides equally.
Epoch seconds come from the benchmark's own clock, *outside* the
instrumented path.  The verdict is the median of the per-pair percentage
overheads, printed with their inter-quartile range so a reader can see
whether the 5% bar is resolved on this machine.  The acceptance bar from
docs/OBSERVABILITY.md is **< 5% epoch-time overhead** per feature; the
script exits non-zero past it.

Writes ``results/BENCH_obs_metrics.json`` in the ``{benchmarks: [{name,
stats}]}`` shape ``python -m repro obs-diff`` consumes (epoch seconds are
lower-is-better, gateable with ``--max-slowdown``).

Run with::

    PYTHONPATH=src python benchmarks/bench_obs_metrics.py
"""

from __future__ import annotations

import io
import json
import os
import statistics
import sys
import time

BENCH_JSON = os.path.join("results", "BENCH_obs_metrics.json")

DATASET = "cora"
SCALE = 0.5
SEED = 0
EPOCHS = (8, 4)
PAIRS = 12
MAX_OVERHEAD_PCT = 5.0


def train_once(mode):
    """One SES fit under ``mode``; returns (seconds, completed epochs)."""
    from repro.core import SESTrainer, fast_config
    from repro.datasets import load_dataset
    from repro.graph import classification_split
    from repro.obs import LiveDashboard, RunRecorder, default_registry
    from repro.tensor import clear_layout_cache

    registry = default_registry()
    registry.reset()
    registry.set_enabled(mode != "metrics_off")
    clear_layout_cache()

    graph = classification_split(
        load_dataset(DATASET, scale=SCALE, seed=SEED), seed=SEED
    )
    config = fast_config(
        "gcn",
        explainable_epochs=EPOCHS[0],
        predictive_epochs=EPOCHS[1],
        seed=SEED,
    )
    recorder = None
    dashboard = None
    if mode in ("telemetry", "metrics_live"):
        recorder = RunRecorder(run_id=f"bench-{mode}", path=io.StringIO())
        if mode == "metrics_live":
            dashboard = LiveDashboard(
                stream=io.StringIO(), registry=registry, force_tty=False
            ).attach(recorder)
    trainer = SESTrainer(graph, config, recorder=recorder)
    start = time.perf_counter()
    trainer.fit()
    seconds = time.perf_counter() - start
    if dashboard is not None:
        dashboard.close()
    registry.set_enabled(True)
    return seconds, sum(EPOCHS)


# (compared mode, its floor): each pair isolates exactly one feature.
COMPARISONS = (("metrics_on", "metrics_off"), ("metrics_live", "telemetry"))


def main(argv=None) -> int:
    train_once("metrics_off")  # warm-up: caches, imports, allocator pools
    times = {mode: [] for pair in COMPARISONS for mode in pair}
    overheads = {mode: [] for mode, _ in COMPARISONS}
    for index in range(PAIRS):
        for mode, floor_mode in COMPARISONS:
            # Alternate which side of the pair runs first.
            order = (floor_mode, mode) if index % 2 == 0 else (mode, floor_mode)
            seconds = {}
            for side in order:
                elapsed, epochs = train_once(side)
                seconds[side] = elapsed / epochs
                times[side].append(seconds[side])
            floor = seconds[floor_mode]
            overheads[mode].append(100.0 * (seconds[mode] - floor) / floor)

    benchmarks = []
    for mode, samples in times.items():
        q1, median, q3 = statistics.quantiles(samples, n=4)
        benchmarks.append(
            {
                "name": f"epoch_seconds_{mode}",
                "stats": {
                    "mean": median,
                    "min": min(samples),
                    "max": max(samples),
                    "q1": q1,
                    "q3": q3,
                    "repeats": len(samples),
                },
            }
        )
        print(f"{mode:>14}: {median * 1e3:.2f} ms/epoch "
              f"(median of {len(samples)}, IQR {q1 * 1e3:.2f}-{q3 * 1e3:.2f})")

    summary = {
        "dataset": DATASET,
        "scale": SCALE,
        "seed": SEED,
        "epochs": list(EPOCHS),
        "pairs": PAIRS,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
    }
    failed = False
    for mode, floor_mode in COMPARISONS:
        q1, overhead, q3 = statistics.quantiles(overheads[mode], n=4)
        summary[f"overhead_pct_{mode}"] = round(overhead, 2)
        summary[f"overhead_iqr_pct_{mode}"] = [round(q1, 2), round(q3, 2)]
        verdict = "ok" if overhead < MAX_OVERHEAD_PCT else "FAIL"
        print(f"{mode:>14}: {overhead:+.2f}% vs {floor_mode} "
              f"(median of {PAIRS} pairs, IQR {q1:+.2f}% to {q3:+.2f}%) [{verdict}]")
        if overhead >= MAX_OVERHEAD_PCT:
            failed = True

    os.makedirs(os.path.dirname(BENCH_JSON), exist_ok=True)
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(
            {"suite": "bench_obs_metrics", "benchmarks": benchmarks, "summary": summary},
            handle,
            indent=2,
        )
    print(f"wrote {BENCH_JSON}")
    if failed:
        print(f"FAIL: metrics overhead exceeds {MAX_OVERHEAD_PCT:g}% of epoch time")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
