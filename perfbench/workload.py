"""One pass of one workload, in a fresh process (``run.py`` starts it).

A pass is the whole user pipeline, ``rounds`` times over: set up a trainer,
``fit()`` it, and drive one chunk of closed-loop load against
``python -m repro serve`` while ``LATEST`` is rewritten to the other of two
serving snapshots.  The snapshots and the server come from the first
round.  Then the pass checks what came back.  With ``--trace 1`` the same pass also records spans and
counters around each layer (:mod:`tracing`) and writes a run record.

The pass prints one JSON object on its last stdout line; ``run.py`` turns
it into the benchmark's result.  Spawned parallel workers re-import this
file as their main module, hence the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import threading
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import Dict, List

import numpy as np

from loadgen import ServerProcess, check_samples, request_plan, run_load, timed_reload, vm_kib
from spec import CACHE_SIZE, CLIENTS, DATA_SEED, WINDOW_S, WORKLOADS, Workload
from stats import (Tally, hit_ratio, median, percentile, percentile_supported, windowed_rate,
                   windows)
from tracing import Tracer

KIB_PER_MIB = 1024.0


class PeakRss(threading.Thread):
    """Peak resident memory of this process plus its live children.

    Children (the server, parallel workers, the multiprocessing resource
    tracker) are summed at each sample, so servers started one after the
    other are not counted together.
    """

    def __init__(self, interval: float = 0.1) -> None:
        super().__init__(name="perfbench-rss", daemon=True)
        self.interval = interval
        self.children_peak_kib = 0
        self._stop_event = threading.Event()

    @staticmethod
    def _children() -> List[int]:
        pids: List[int] = []
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
            except OSError:
                continue  # thread ended between listing and reading
        return pids

    def sample(self) -> None:
        total = sum(vm_kib(pid, "VmHWM") or 0 for pid in self._children())
        self.children_peak_kib = max(self.children_peak_kib, total)

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample()

    def stop_mib(self) -> float:
        self._stop_event.set()
        self.join()
        self.sample()
        own = vm_kib(os.getpid(), "VmHWM") or 0
        return (own + self.children_peak_kib) / KIB_PER_MIB


def registry_totals() -> Dict[str, float]:
    """The process-registry counters the per-layer metrics read."""
    from repro.obs.metrics import default_registry

    snapshot = default_registry().snapshot()

    def series(name):
        return snapshot.get(name, {}).get("series", [])

    def counter(name, **labels):
        return float(sum(s["value"] for s in series(name)
                         if all(s["labels"].get(k) == v for k, v in labels.items())))

    return {
        "csr_hit": counter("repro_csr_layout_cache_total", result="hit"),
        "csr_miss": counter("repro_csr_layout_cache_total", result="miss"),
        "restarts": counter("repro_parallel_restarts_total"),
        "shards": counter("repro_parallel_shards_total"),
        "reduce_s": float(sum(s["sum"] for s in series("repro_parallel_reduce_seconds"))),
    }


def scraped(text: str) -> Dict[str, float]:
    """Serve-layer counters from the server's ``/metrics`` exposition."""
    from repro.obs.metrics import parse_exposition

    totals = {"hit": 0.0, "miss": 0.0, "evictions": 0.0, "req_sum": 0.0, "req_count": 0.0}
    for (name, labels), value in parse_exposition(text).items():
        labels = dict(labels)
        if name == "repro_serve_cache_total":
            totals[labels.get("result", "")] = totals.get(labels.get("result", ""), 0.0) + value
        elif name == "repro_serve_evictions_total":
            totals["evictions"] += value
        elif labels.get("endpoint") in ("predict", "explain", "neighbors"):
            if name == "repro_serve_request_seconds_sum":
                totals["req_sum"] += value
            elif name == "repro_serve_request_seconds_count":
                totals["req_count"] += value
    return totals


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def run_pass(w: Workload, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    from repro.core import SESTrainer, fast_config
    from repro.datasets import load_dataset
    from repro.graph import classification_split
    from repro.obs import OpProfiler
    from repro.resilience.snapshot import load_snapshot, write_latest_pointer
    from repro.serve import load_serving_state

    tag = f"{w.name}-seed{seed}-{'traced' if traced else 'plain'}"
    work = out_dir / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer(traced, run_id=tag)
    recorder = tracer.recorder
    recorder.run_start(seed=seed, dataset="cora", workload=w.name, seconds=seconds,
                       data_seed=DATA_SEED)
    tally = Tally()
    problems: List[str] = []
    config = fast_config("gcn", seed=DATA_SEED, explainable_epochs=w.epochs[0],
                         predictive_epochs=w.epochs[1])
    rss = PeakRss()
    rss.start()

    serve_dir = work / "serve"
    server = ServerProcess(serve_dir, work / "server.log")
    chunk_s = seconds / w.rounds
    setup_times: List[float] = []
    fit_times: List[float] = []
    outcomes = set()
    parts: List[List[float]] = []
    latencies: List[float] = []
    samples = []
    reload_seconds: List[float] = []
    # Entered once per fit: the op profiler charges the gap before each op
    # to that op, so set-up and load between fits must stay outside it.
    profiler = OpProfiler() if traced else nullcontext()
    fit_counters: Dict[str, float] = {}  # registry deltas over the timed fits only
    before = registry_totals()
    try:
        for rnd in range(w.rounds):
            # -- set-up: dataset + split + SESTrainer (k-hop, negatives)
            with recorder.phase(f"setup{rnd}"), tracer.setup_layers():
                begin = time.perf_counter()
                with tracer.span("load_dataset", "datasets.load_s"):
                    graph = classification_split(
                        load_dataset("cora", seed=DATA_SEED, scale=w.scale), seed=DATA_SEED)
                with tracer.span("trainer_init", "core.trainer_init_s"):
                    trainer = SESTrainer(graph, config)
                setup_times.append(time.perf_counter() - begin)

            # -- fit(); every round must end bit for bit like the first
            fit_kwargs = w.fit_kwargs()
            if w.checkpoint_every:
                fit_kwargs["checkpoint_dir"] = work / f"checkpoints{rnd}"
            with ExitStack() as stack:
                for context in (recorder.phase(f"fit{rnd}"), tracer.fit_layers(trainer),
                                tracer.snapshot_writes(), profiler):
                    stack.enter_context(context)
                counted = registry_totals()
                begin = time.perf_counter()
                result = trainer.fit(**fit_kwargs)
                fit_times.append(time.perf_counter() - begin)
                for key, value in registry_totals().items():
                    fit_counters[key] = fit_counters.get(key, 0.0) + value - counted[key]
            history = trainer.history
            finite = all(np.isfinite(x) for x in history.phase1_loss + history.phase2_loss)
            tally.record(finite, "fit ended with a non-finite loss")
            fingerprint = {"phase1_loss": history.phase1_loss[-1],
                           "phase2_loss": history.phase2_loss[-1],
                           "test_accuracy": result.test_accuracy,
                           "epochs": [len(history.phase1_loss), len(history.phase2_loss)]}
            outcomes.add((digest(trainer.khop_edges, trainer.negative_pairs, result.logits),
                          json.dumps(fingerprint)))

            if rnd == 0:
                fit_logits = result.logits
                masks = result.explanations.feature_mask
                if not (np.all(np.isfinite(masks)) and masks.min() >= 0.0
                        and masks.max() <= 1.0):
                    problems.append("feature mask leaves [0, 1]")
                with recorder.phase("snapshot"):
                    source = trainer
                    if w.workers:
                        # Data-parallel training is bit-identical to the
                        # in-process workers=1 run over the same shards.
                        source = SESTrainer(graph, config)
                        reference = source.fit(workers=1, shards=w.shards)
                        if not (np.array_equal(reference.logits, fit_logits)
                                and reference.test_accuracy == fingerprint["test_accuracy"]):
                            problems.append("workers=2 run differs from the workers=1 reference")
                    names = write_snapshots(source, serve_dir, w.epochs[1], tracer)
                    del source
                write_latest_pointer(serve_dir, names[0])
                with recorder.phase("serve_start"), tracer.span("start", "serve.start_s"):
                    start_s = server.start()
                tally.ok()
                length = int(seconds * 5000) + 1000
                plans = [request_plan(seed, graph.num_nodes, c, length) for c in range(CLIENTS)]
                offsets = [0] * CLIENTS
            del trainer, result

            # -- one chunk of load, then LATEST is rewritten to the other
            # snapshot and the hot reload timed
            def point_to(name: str) -> None:
                write_latest_pointer(serve_dir, name)

            with recorder.phase(f"serve{rnd}"):
                with tracer.span(f"load{rnd}"):
                    load = run_load(server, plans, offsets, chunk_s)
                with tracer.span(f"reload{rnd}"):
                    reload_seconds.append(timed_reload(server, names[(rnd + 1) % 2], point_to))
            tally.ok()
            offsets = load.sent
            tally.merge(load.tally)
            parts.extend(windows(load.finished, load.latencies, WINDOW_S, load.wall))
            latencies.extend(load.latencies)
            samples.extend(load.samples)
        exposition = server.get("/metrics").decode("utf-8")
    finally:
        server.stop()
    peak_rss_mb = rss.stop_mib()
    after = registry_totals()
    if len(outcomes) != 1:
        problems.append("set-up and fit differ between rounds of the same seed")
    restarts = int(after["restarts"] - before["restarts"])
    if restarts:
        tally.fail("worker restart", restarts)
    if fingerprint["epochs"] != list(w.epochs):
        problems.append("fit ran a different number of epochs than configured")
    if not fingerprint["test_accuracy"] >= w.min_accuracy:
        problems.append(f"test accuracy {fingerprint['test_accuracy']:.4f} < {w.min_accuracy}")
    served = scraped(exposition)

    # -- checks and in-process serving costs (outside every timed region)
    with recorder.phase("check"):
        with tracer.span("snapshot_load", "resilience.snapshot_load_s"):
            load_snapshot(serve_dir / names[0])
        with tracer.span("state_load", "serve.state_load_s"):
            state = load_serving_state(serve_dir / names[0], cache_size=CACHE_SIZE)
        states = {names[0]: state,
                  names[1]: load_serving_state(serve_dir / names[1], cache_size=CACHE_SIZE)}
        problems.extend(check_samples(samples, states))
        if not np.array_equal(state.logits, fit_logits):
            problems.append("served logits differ from the fitted model's")
        if np.array_equal(state.logits, states[names[1]].logits):
            problems.append("both snapshots serve the same model, so replies cannot "
                            "show which one answered")
        explain_nodes = [int(p.rsplit("/", 1)[1]) for p in plans[0] if p.startswith("/explain/")][:64]
        with tracer.span("explain_payload", "serve.explain_payload_s"):
            for node in explain_nodes:
                state.explain_payload(node)

    if not percentile_supported(len(latencies), 0.99):
        problems.append(f"too few latency samples for a p99 ({len(latencies)})")
    metrics = {
        "setup_s": median(setup_times),
        "fit_s": median(fit_times),
        "peak_rss_mb": peak_rss_mb,
        "test_accuracy": fingerprint["test_accuracy"],
        "serve_rps": windowed_rate(parts, WINDOW_S),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
        "reload_s": median(reload_seconds),
    }
    info = {"latency_samples": len(latencies), "windows": len(parts),
            "latency_p99_ms": 1e3 * percentile(latencies, 0.99),
            "reloads": len(reload_seconds)}

    layers: Dict[str, float] = {}
    record = None
    if traced:
        rounds = w.rounds
        busy, calls = tracer.busy, tracer.calls
        epochs1 = [e for rnd in tracer.epochs["explainable"] for e in rnd]
        epochs2 = [e for rnd in tracer.epochs["predictive"] for e in rnd]
        first_epochs = [rnd[0] for rnd in tracer.epochs["explainable"]]
        later_epochs = [e for rnd in tracer.epochs["explainable"] for e in rnd[1:]] + epochs2
        stats = {r["op"]: r for r in profiler.records()}
        alloc = profiler.alloc_summary()
        csr = hit_ratio(fit_counters["csr_hit"], fit_counters["csr_miss"])
        cache = hit_ratio(served["hit"], served["miss"])

        def op_seconds(op: str) -> float:
            row = stats.get(op)
            return row["forward_seconds"] + row["backward_seconds"] if row else 0.0

        # Set-up and fit layers are per round (the rounds are identical);
        # epoch medians pool every round's epochs.
        layers = {
            "datasets.load_s": busy["datasets.load_s"] / rounds,
            "core.trainer_init_s": busy["core.trainer_init_s"] / rounds,
            "graph.khop_s": busy["graph.khop_s"] / rounds,
            "graph.negatives_s": busy["graph.negatives_s"] / rounds,
            "core.phase1_s": busy["core.phase1_s"] / rounds,
            "core.phase1_epoch_s": median(epochs1),
            "core.pairs_s": busy["core.pairs_s"] / rounds,
            "core.phase2_s": busy["core.phase2_s"] / rounds,
            "core.phase2_epoch_s": median(epochs2),
            "core.explain_s": busy["core.explain_s"] / rounds,
            "core.encoder_fwd_s": busy["core.encoder_fwd_s"] / rounds,
            "core.mask_generator_fwd_s": busy["core.mask_generator_fwd_s"] / rounds,
            "tensor.fwd_s": sum(r["forward_seconds"] for r in stats.values()) / rounds,
            "tensor.bwd_s": sum(r["backward_seconds"] for r in stats.values()) / rounds,
            "tensor.op_calls": sum(r["forward_calls"] for r in stats.values()) / rounds,
            "tensor.matmul_s": op_seconds("__matmul__") / rounds,
            "tensor.gather_rows_s": op_seconds("gather_rows") / rounds,
            "tensor.segment_sum_s": op_seconds("segment_sum") / rounds,
            "tensor.concatenate_s": op_seconds("concatenate") / rounds,
            "tensor.mul_s": op_seconds("__mul__") / rounds,
            "tensor.bytes_allocated": alloc["bytes_allocated"] / rounds,
            "tensor.peak_live_bytes": alloc["peak_live_bytes"],
            "tensor.csr_cache_hit_ratio": csr.value_or(0.0),
            "tensor.csr_cache_lookups": csr.base / rounds,
            "graph.minibatch.extract_s": busy["graph.minibatch.extract_s"] / rounds,
            "graph.minibatch.extract_calls": calls["graph.minibatch.extract_s"] / rounds,
            "parallel.first_epoch_s": median(first_epochs) if w.workers else 0.0,
            "parallel.epoch_s": median(later_epochs) if w.workers else 0.0,
            "parallel.reduce_s": fit_counters["reduce_s"] / rounds,
            "parallel.shards": fit_counters["shards"] / rounds,
            "parallel.restarts": restarts,
            "resilience.snapshot_write_s": busy["resilience.snapshot_write_s"],
            "resilience.snapshot_writes": calls["resilience.snapshot_write_s"],
            "resilience.snapshot_bytes": tracer.snapshot_bytes,
            "resilience.snapshot_load_s": busy["resilience.snapshot_load_s"],
            "serve.state_load_s": busy["serve.state_load_s"],
            "serve.start_s": start_s,
            "serve.cache_hit_ratio": cache.value_or(0.0),
            "serve.cache_lookups": cache.base,
            "serve.evictions": served["evictions"],
            "serve.latency_p99_ms": info["latency_p99_ms"],
            "serve.request_s_mean": served["req_sum"] / max(served["req_count"], 1.0),
            "serve.explain_payload_s": busy["serve.explain_payload_s"] / max(len(explain_nodes), 1),
            "serve.requests": len(latencies),
            "serve.reloads": len(reload_seconds),
        }
        for name, value in layers.items():
            recorder.metric(name, value)
        for name, value in metrics.items():
            recorder.metric(name, value)
        recorder.record_profile(profiler)
        recorder.run_end(test_accuracy=fingerprint["test_accuracy"], **info)
        record = str(tracer.write(out_dir / f"{tag}.jsonl"))
    shutil.rmtree(work, ignore_errors=True)
    return {
        "metrics": metrics,
        "layers": layers,
        "info": info,
        "tally": tally.to_dict(),
        "problems": problems,
        "fingerprint": fingerprint,
        "record": record,
    }


def write_snapshots(trainer, serve_dir: Path, predictive_epochs: int, tracer: Tracer) -> List[str]:
    """Two serving snapshots: the fitted model, and the same trainer after
    one more predictive epoch served as trained (no best-validation
    rollback), so the two always differ and a reply from the wrong model
    shows."""
    with tracer.snapshot_writes():
        names = [trainer.save_snapshot_to(serve_dir, phase="serve-a").name]
    trainer.config = dataclasses.replace(trainer.config, keep_best=False)
    trainer.fit(predictive_epochs=predictive_epochs + 1)
    with tracer.snapshot_writes():
        names.append(trainer.save_snapshot_to(serve_dir, phase="serve-b").name)
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    outcome = run_pass(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), args.out)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
