"""Snapshot I/O benchmark: write, load and serving-state load seconds.

Fits one small SES model per graph size (cora surrogate at N=1000 and
N=2000, the node counts of perfbench's ``fit-full`` and ``fit-minibatch``
workloads), takes its post-fit training snapshot, and times ``REPEATS``
rounds of the three calls a snapshot's life goes through:

* ``save_snapshot``      — checksum every array, write the ``.npz``
  atomically (tmp file, ``fsync``, rename);
* ``load_snapshot``      — read every member and verify every checksum;
* ``load_serving_state`` — the hot-reload path: ``load_snapshot`` plus the
  model rebuild, the full-graph forward pass and explanation assembly.

One untimed round first warms imports, the page cache and the allocator.
Snapshot sizes depend on the graph, its k-hop edge list and the optimizer
state, not on the epoch count, so the fit is kept to 1+1 epochs.

Writes ``results/BENCH_snapshot.json`` in the ``{benchmarks: [{name,
stats}]}`` shape ``python -m repro obs-diff`` consumes.  As in
``bench_obs_metrics.py``, ``stats.mean`` holds the median of the rounds
(with their quartiles beside it), and the file bytes per snapshot live in
``summary``.

Run with::

    PYTHONPATH=src python benchmarks/bench_snapshot.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_JSON = os.path.join("results", "BENCH_snapshot.json")

DATASET = "cora"
SCALES = (1.0, 2.0)  # N=1000 and N=2000
SEED = 0
EPOCHS = (1, 1)
REPEATS = 7


def fitted_snapshot(scale):
    """A post-fit (servable) training snapshot of the surrogate at ``scale``."""
    from repro.core import SESTrainer, fast_config
    from repro.datasets import load_dataset
    from repro.graph import classification_split

    graph = classification_split(load_dataset(DATASET, scale=scale, seed=SEED), seed=SEED)
    config = fast_config(
        "gcn", explainable_epochs=EPOCHS[0], predictive_epochs=EPOCHS[1], seed=SEED
    )
    trainer = SESTrainer(graph, config)
    trainer.fit()
    return trainer.snapshot(), graph.num_nodes


def time_round(snapshot, path):
    """Seconds for one save, one load and one serving-state load."""
    from repro.resilience import load_snapshot, save_snapshot
    from repro.serve import load_serving_state

    seconds = {}
    begin = time.perf_counter()
    save_snapshot(snapshot, path)
    seconds["save_snapshot"] = time.perf_counter() - begin
    begin = time.perf_counter()
    load_snapshot(path)
    seconds["load_snapshot"] = time.perf_counter() - begin
    begin = time.perf_counter()
    load_serving_state(path)
    seconds["load_serving_state"] = time.perf_counter() - begin
    return seconds


def main(argv=None) -> int:
    benchmarks = []
    summary = {"dataset": DATASET, "seed": SEED, "epochs": list(EPOCHS), "repeats": REPEATS}
    with tempfile.TemporaryDirectory(prefix="bench-snapshot-") as tmp:
        for scale in SCALES:
            snapshot, num_nodes = fitted_snapshot(scale)
            path = Path(tmp) / f"snap-n{num_nodes}.npz"
            time_round(snapshot, path)  # warm-up, untimed
            rounds = [time_round(snapshot, path) for _ in range(REPEATS)]
            summary[f"snapshot_bytes_n{num_nodes}"] = path.stat().st_size
            for call in rounds[0]:
                samples = [r[call] for r in rounds]
                q1, median, q3 = statistics.quantiles(samples, n=4)
                benchmarks.append(
                    {
                        "name": f"{call}_seconds_n{num_nodes}",
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
                print(f"N={num_nodes} {call:>18}: {median * 1e3:8.1f} ms "
                      f"(median of {len(samples)}, IQR {q1 * 1e3:.1f}-{q3 * 1e3:.1f})")
            print(f"N={num_nodes} {'snapshot bytes':>18}: {path.stat().st_size}")

    os.makedirs(os.path.dirname(BENCH_JSON), exist_ok=True)
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(
            {"suite": "bench_snapshot", "benchmarks": benchmarks, "summary": summary},
            handle,
            indent=2,
        )
        handle.write("\n")
    print(f"wrote {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
