"""Threaded load benchmark for the explanation-serving layer (repro.serve).

Trains one miniature SES model, snapshots it, loads it into a
:class:`~repro.serve.ServingState` behind a real ``ThreadingHTTPServer``
on a loopback port, then hammers it with ``NUM_CLIENTS`` keep-alive client
threads for ``DURATION`` seconds per endpoint mix:

* ``predict``   — model forward results straight out of the state;
* ``explain``   — LRU-cached explanation payloads (steady-state: all hits);
* ``mixed``     — the 3:2:1 predict/explain/neighbors blend plus periodic
  ``/healthz`` probes, approximating a dashboard-driven consumer.

Headline numbers are per-request latency percentiles (p50/p99, measured
client-side around each ``GET``) and aggregate request throughput.  Any
non-2xx response or dropped connection counts as an error and fails the
run — under load the server's contract is *every* request answered.

Writes ``results/BENCH_serve.json`` in the ``{benchmarks: [{name, stats}]}``
shape ``python -m repro obs-diff`` consumes.  Latency seconds are
lower-is-better and live in ``benchmarks``; higher-is-better throughput
and the error count live in ``summary`` so ``--max-slowdown`` gating stays
directionally correct.

Run with::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import tempfile
import threading
import time

BENCH_JSON = os.path.join("results", "BENCH_serve.json")

DATASET = "cora"
SCALE = 0.3
SEED = 0
EPOCHS = (4, 3)
NUM_CLIENTS = 8
DURATION = 2.0  # seconds of sustained load per scenario
WARMUP_REQUESTS = 50


def build_server(tmpdir):
    """Train, snapshot, and serve; returns (server, thread, state)."""
    from repro.core import SESTrainer, fast_config
    from repro.datasets import load_dataset
    from repro.graph import classification_split
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import StateHolder, create_server, load_serving_state

    graph = classification_split(
        load_dataset(DATASET, scale=SCALE, seed=SEED), seed=SEED
    )
    config = fast_config(
        "gcn",
        explainable_epochs=EPOCHS[0],
        predictive_epochs=EPOCHS[1],
        seed=SEED,
    )
    trainer = SESTrainer(graph, config)
    trainer.fit(checkpoint_every=EPOCHS[1], checkpoint_dir=tmpdir)

    registry = MetricsRegistry(enabled=True)
    state = load_serving_state(tmpdir, cache_size=graph.num_nodes, registry=registry)
    holder = StateHolder(state, registry=registry)
    server = create_server(holder, port=0, registry=registry)
    thread = server.serve_in_thread()
    return server, thread, state


def percentile(sorted_samples, q):
    if not sorted_samples:
        return 0.0
    index = min(len(sorted_samples) - 1, int(round(q * (len(sorted_samples) - 1))))
    return sorted_samples[index]


def run_scenario(port, paths, duration):
    """Hammer ``paths`` from NUM_CLIENTS threads; returns (latencies, errors)."""
    latencies = [[] for _ in range(NUM_CLIENTS)]
    errors = []
    start_barrier = threading.Barrier(NUM_CLIENTS)
    deadline = [0.0]  # set post-barrier by the first thread through

    def client(index):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15.0)
        try:
            start_barrier.wait()
            if index == 0:
                deadline[0] = time.monotonic() + duration
            while deadline[0] == 0.0:
                time.sleep(0.0005)
            n = 0
            while time.monotonic() < deadline[0]:
                path = paths[(index + n) % len(paths)]
                begin = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                latencies[index].append(time.perf_counter() - begin)
                if not 200 <= response.status < 300:
                    errors.append((path, response.status))
                n += 1
        except Exception as error:  # noqa: BLE001 - dropped connection == failure
            errors.append((f"client {index}", repr(error)))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(NUM_CLIENTS)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration + 30)
    wall = time.perf_counter() - wall_start
    flat = sorted(lat for per_client in latencies for lat in per_client)
    return flat, errors, wall


def main(argv=None) -> int:
    print(
        f"training {DATASET} scale={SCALE} ({EPOCHS[0]}+{EPOCHS[1]} epochs) "
        f"and starting server..."
    )
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmpdir:
        server, thread, state = build_server(tmpdir)
        num_nodes = state.num_nodes
        scenarios = {
            "predict": [f"/predict/{n % num_nodes}" for n in range(64)],
            "explain": [f"/explain/{n % num_nodes}" for n in range(64)],
            "mixed": [
                p
                for n in range(32)
                for p in (
                    f"/predict/{(3 * n) % num_nodes}",
                    f"/predict/{(3 * n + 1) % num_nodes}",
                    f"/predict/{(3 * n + 2) % num_nodes}",
                    f"/explain/{(2 * n) % num_nodes}",
                    f"/explain/{(2 * n + 1) % num_nodes}",
                    f"/neighbors/{n % num_nodes}",
                )
            ]
            + ["/healthz"],
        }
        benchmarks = []
        summary = {
            "dataset": DATASET,
            "scale": SCALE,
            "seed": SEED,
            "num_nodes": num_nodes,
            "num_clients": NUM_CLIENTS,
            "duration_seconds": DURATION,
            "error_count": 0,
        }
        failed = False
        try:
            # Warm the explanation cache and the thread pool off the clock.
            warm = http.client.HTTPConnection("127.0.0.1", server.port, timeout=15.0)
            for n in range(WARMUP_REQUESTS):
                warm.request("GET", f"/explain/{n % num_nodes}")
                warm.getresponse().read()
            warm.close()

            for name, paths in scenarios.items():
                flat, errors, wall = run_scenario(server.port, paths, DURATION)
                requests = len(flat)
                throughput = requests / wall if wall > 0 else 0.0
                stats = {
                    "mean": sum(flat) / requests if requests else 0.0,
                    "p50": percentile(flat, 0.50),
                    "p99": percentile(flat, 0.99),
                    "min": flat[0] if flat else 0.0,
                    "max": flat[-1] if flat else 0.0,
                    "requests": requests,
                }
                benchmarks.append({"name": f"latency_seconds_{name}", "stats": stats})
                summary[f"requests_per_second_{name}"] = round(throughput, 1)
                summary["error_count"] += len(errors)
                print(
                    f"{name:>8}: {requests:6d} requests | "
                    f"p50 {stats['p50'] * 1e3:7.3f} ms | "
                    f"p99 {stats['p99'] * 1e3:7.3f} ms | "
                    f"{throughput:8.1f} req/s | errors {len(errors)}"
                )
                if errors:
                    failed = True
                    for detail in errors[:5]:
                        print(f"          error: {detail}")
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()

    os.makedirs(os.path.dirname(BENCH_JSON), exist_ok=True)
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(
            {"suite": "bench_serve", "benchmarks": benchmarks, "summary": summary},
            handle,
            indent=2,
        )
    print(f"wrote {BENCH_JSON}")
    if failed:
        print(f"FAIL: {summary['error_count']} request(s) errored under load")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
