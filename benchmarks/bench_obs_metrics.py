"""Overhead benchmark for the always-on metrics layer and the live dashboard.

Trains the same small SES configuration three times in one process —

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

The headline numbers are median epoch seconds per mode (measured by the
benchmark's own clock, *outside* the instrumented path) and the
percentage overheads ``metrics_on`` vs ``metrics_off`` and
``metrics_live`` vs ``telemetry`` — each comparison isolates exactly one
feature.  The acceptance bar from docs/OBSERVABILITY.md is **< 5%
epoch-time overhead** per feature; the script exits non-zero past it.
Repeats are interleaved across modes (off/on/telemetry/live, repeated) so
machine drift hits every mode equally.

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
import sys
import time

BENCH_JSON = os.path.join("results", "BENCH_obs_metrics.json")

DATASET = "cora"
SCALE = 0.5
SEED = 0
EPOCHS = (8, 4)
REPEATS = 3
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
    modes = ("metrics_off", "metrics_on", "telemetry", "metrics_live")
    train_once("metrics_off")  # warm-up: caches, imports, allocator pools
    times = {mode: [] for mode in modes}
    for _ in range(REPEATS):
        for mode in modes:  # interleaved so drift hits every mode equally
            seconds, epochs = train_once(mode)
            times[mode].append(seconds / epochs)
    epoch_seconds = {}
    benchmarks = []
    for mode in modes:
        # Median-of-repeats: one GC pause or page-cache miss should not
        # decide a percentage comparison between sub-second numbers.
        samples = sorted(times[mode])
        epoch_seconds[mode] = samples[len(samples) // 2]
        benchmarks.append(
            {
                "name": f"epoch_seconds_{mode}",
                "stats": {
                    "mean": epoch_seconds[mode],
                    "min": samples[0],
                    "max": samples[-1],
                    "repeats": REPEATS,
                },
            }
        )
        print(f"{mode:>14}: {epoch_seconds[mode] * 1e3:.2f} ms/epoch (median of {REPEATS})")

    summary = {
        "dataset": DATASET,
        "scale": SCALE,
        "seed": SEED,
        "epochs": list(EPOCHS),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
    }
    failed = False
    for mode, floor_mode in COMPARISONS:
        floor = epoch_seconds[floor_mode]
        overhead = 100.0 * (epoch_seconds[mode] - floor) / floor
        summary[f"overhead_pct_{mode}"] = round(overhead, 2)
        verdict = "ok" if overhead < MAX_OVERHEAD_PCT else "FAIL"
        print(f"{mode:>14}: {overhead:+.2f}% vs {floor_mode} [{verdict}]")
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
