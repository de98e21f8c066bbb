"""60-second end-to-end self-check for fresh installations.

Runs one miniature instance of every pipeline stage and prints PASS/FAIL
per check.  Exits non-zero on any failure.

Usage: python scripts/selfcheck.py
"""

from __future__ import annotations

import sys
import time
import traceback

import numpy as np


def check(name, fn, results):
    start = time.time()
    try:
        fn()
        results.append((name, True, time.time() - start, ""))
        print(f"  PASS  {name} ({time.time() - start:.1f}s)")
    except Exception as error:  # noqa: BLE001 - report everything
        results.append((name, False, time.time() - start, str(error)))
        print(f"  FAIL  {name}: {error}")
        traceback.print_exc()


def main() -> int:
    results = []
    print("repro self-check")

    def autograd():
        from repro.tensor import Tensor

        x = Tensor(np.array([3.0]), requires_grad=True)
        (x * x).backward(np.array([1.0]))
        assert abs(x.grad[0] - 6.0) < 1e-9

    def csr_kernel_parity():
        """The CSR scatter kernels against an inline ``np.add.at`` reference,
        under the loss ``sum(out ** 2)`` (upstream gradient ``2 * out``)."""
        from repro.tensor import (
            Tensor,
            gather_rows,
            segment_mean,
            segment_softmax,
            segment_sum,
        )

        rng = np.random.default_rng(0)
        num_nodes, num_edges = 40, 200
        ids = rng.integers(0, num_nodes, num_edges).astype(np.int64)

        def scatter(values):
            out = np.zeros((num_nodes, *values.shape[1:]))
            np.add.at(out, ids, values)
            return out

        def run(op, data, *args):
            tensor = Tensor(data.copy(), requires_grad=True)
            out = op(tensor, ids, *args)
            (out * out).sum().backward()
            return out.data, tensor.grad

        values = rng.normal(size=(num_edges, 8))
        total = scatter(values)
        counts = np.maximum(np.bincount(ids, minlength=num_nodes), 1)[:, None]
        scores = rng.normal(size=(num_edges, 2))
        seg_max = np.full((num_nodes, 2), -np.inf)
        np.maximum.at(seg_max, ids, scores)
        exp = np.exp(scores - seg_max[ids])
        soft = exp / scatter(exp)[ids]
        x = rng.normal(size=(num_nodes, 8))
        for op, got, (out, grad) in (
            (segment_sum, run(segment_sum, values, num_nodes), (total, 2 * total[ids])),
            (
                segment_mean,
                run(segment_mean, values, num_nodes),
                (total / counts, 2 * (total / counts**2)[ids]),
            ),
            (
                segment_softmax,
                run(segment_softmax, scores, num_nodes),
                (soft, 2 * soft * (soft - scatter(soft * soft)[ids])),
            ),
            (gather_rows, run(gather_rows, x), (x[ids], scatter(2 * x[ids]))),
        ):
            assert np.allclose(got[0], out, rtol=1e-9, atol=1e-12), op.__name__
            assert np.allclose(got[1], grad, rtol=1e-9, atol=1e-12), op.__name__

    def pair_scorer_parity():
        from repro.tensor import MLP, Tensor, functional as F, gather_rows, pair_mlp

        rng = np.random.default_rng(0)
        num_nodes, num_pairs, width = 40, 200, 6
        pairs = rng.integers(0, num_nodes, (2, num_pairs)).astype(np.int64)
        h_data = rng.normal(size=(num_nodes, width))
        for blocks in (2, 3):
            mlp = MLP((blocks * width, 8, 1), rng=rng)
            outs, grads = [], []
            for fused in (True, False):
                mlp.zero_grad()
                h = Tensor(h_data.copy(), requires_grad=True)
                if fused:
                    out = pair_mlp(mlp, h, pairs)
                else:
                    h_i, h_k = gather_rows(h, pairs[0]), gather_rows(h, pairs[1])
                    parts = [h_i, h_k, h_i * h_k][:blocks]
                    out = mlp(F.concatenate(parts, axis=1)).reshape(-1)
                (out * out).sum().backward()
                outs.append(out.data)
                grads.append([h.grad] + [p.grad for p in mlp.parameters()])
            assert np.allclose(outs[0], outs[1], rtol=1e-9, atol=1e-12), blocks
            for fused_grad, composed_grad in zip(*grads):
                assert np.allclose(fused_grad, composed_grad, rtol=1e-9, atol=1e-12), blocks

    def fused_aggregation_parity():
        from repro.tensor import Tensor, edge_spmm, gather_rows, segment_sum

        rng = np.random.default_rng(0)
        num_nodes, num_edges = 40, 400
        edge_index = rng.integers(0, num_nodes, (2, num_edges)).astype(np.int64)
        h_data = rng.normal(size=(num_nodes, 8))
        w_data = rng.uniform(0.1, 1.0, size=num_edges)
        results_by_path = []
        for fused in (True, False):
            h = Tensor(h_data.copy(), requires_grad=True)
            w = Tensor(w_data.copy(), requires_grad=True)
            if fused:
                out = edge_spmm(h, w, edge_index, num_nodes)
            else:
                messages = gather_rows(h, edge_index[0]) * w.reshape(-1, 1)
                out = segment_sum(messages, edge_index[1], num_nodes)
            (out * out).sum().backward()
            results_by_path.append((out.data, h.grad, w.grad))
        for fused_array, composed_array in zip(*results_by_path):
            assert np.array_equal(fused_array, composed_array)

    def datasets():
        from repro.datasets import load_dataset

        graph = load_dataset("cora", scale=0.15, seed=0)
        assert graph.num_nodes > 0
        motif = load_dataset("ba_shapes", scale=0.15, seed=0)
        assert len(motif.extra["motif_nodes"]) > 0

    def baseline():
        from repro.datasets import load_dataset
        from repro.graph import classification_split
        from repro.models import train_node_classifier

        graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
        result = train_node_classifier(graph, "gcn", hidden=16, epochs=30, seed=0)
        assert result.test_accuracy > 1.0 / graph.num_classes

    def ses():
        from repro.core import SESTrainer, fast_config
        from repro.datasets import load_dataset
        from repro.graph import classification_split

        graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
        config = fast_config("gcn", explainable_epochs=15, predictive_epochs=3, seed=0)
        result = SESTrainer(graph, config).fit()
        assert np.isfinite(result.logits).all()
        assert result.explanations.feature_mask.shape == graph.features.shape

    def explainer():
        from repro.datasets import load_dataset
        from repro.explainers import GNNExplainer
        from repro.graph import explanation_split
        from repro.models import train_node_classifier

        graph = explanation_split(load_dataset("ba_shapes", scale=0.15, seed=0), seed=0)
        classifier = train_node_classifier(graph, "gcn", hidden=16, epochs=30,
                                           dropout=0.1, seed=0)
        gex = GNNExplainer(classifier.model, graph, epochs=10, seed=0)
        explanation = gex.explain_node(int(graph.extra["motif_nodes"][0]))
        assert explanation.edge_scores

    def telemetry_roundtrip():
        import io
        import json

        from repro.core import SESTrainer, fast_config
        from repro.datasets import load_dataset
        from repro.graph import classification_split
        from repro.obs import RunRecorder, summarize_run

        graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
        config = fast_config("gcn", explainable_epochs=2, predictive_epochs=1, seed=0)
        buffer = io.StringIO()
        recorder = RunRecorder(run_id="selfcheck", path=buffer)
        SESTrainer(graph, config, recorder=recorder).fit()
        events = [json.loads(line) for line in buffer.getvalue().strip().split("\n")]
        summary = summarize_run(events)
        assert summary["phases"]["explainable"]["epochs"] == 2
        assert summary["spans"], "span events missing"
        assert any(key.startswith("grad_stats") for key in summary["health"])
        assert any(key.startswith("mask_health") for key in summary["health"])

    def nan_watchdog():
        from repro.obs import NaNWatchdog
        from repro.tensor import Tensor

        watchdog = NaNWatchdog()
        with watchdog:
            x = Tensor(np.ones(3), requires_grad=True)
            x * np.array([1.0, np.inf, 1.0])
        assert watchdog.anomalies, "watchdog missed an injected inf"
        assert watchdog.anomalies[0]["op"] == "__mul__"
        assert watchdog.anomalies[0]["kind"] == "inf"

    def serialisation():
        import tempfile
        from pathlib import Path

        from repro import io
        from repro.datasets import load_dataset

        graph = load_dataset("cora", scale=0.15, seed=0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.npz"
            io.save_graph(graph, path)
            loaded = io.load_graph(path)
            assert loaded.num_nodes == graph.num_nodes

    def crash_resume_parity():
        import tempfile

        from repro.core import SESTrainer, fast_config
        from repro.datasets import load_dataset
        from repro.graph import classification_split
        from repro.resilience import FaultPlan, SimulatedCrash

        def graph():
            return classification_split(
                load_dataset("cora", scale=0.15, seed=0), seed=0
            )

        config = fast_config("gcn", explainable_epochs=6, predictive_epochs=2, seed=0)
        baseline = SESTrainer(graph(), config).fit()
        for spec in ("crash@explainable:3", "crash@predictive:1"):
            with tempfile.TemporaryDirectory() as tmp:
                crashed = SESTrainer(graph(), config, faults=FaultPlan.parse(spec))
                try:
                    crashed.fit(checkpoint_every=1, checkpoint_dir=tmp)
                    raise AssertionError(f"{spec} did not fire")
                except SimulatedCrash:
                    pass
                resumed = SESTrainer(graph(), config).fit(resume_from=tmp)
            assert resumed.history.phase1_loss == baseline.history.phase1_loss, spec
            assert resumed.history.phase2_loss == baseline.history.phase2_loss, spec
            assert np.array_equal(resumed.logits, baseline.logits), spec
            assert resumed.test_accuracy == baseline.test_accuracy, spec

    def minibatch_parity():
        from repro.core import SESTrainer, fast_config
        from repro.datasets import load_dataset
        from repro.graph import classification_split

        def graph():
            return classification_split(
                load_dataset("cora", scale=0.15, seed=0), seed=0
            )

        config = fast_config("gcn", explainable_epochs=4, predictive_epochs=2, seed=0)
        full = SESTrainer(graph(), config).fit()
        reference = graph()
        covering = SESTrainer(reference, config).fit(batch_size=reference.num_nodes)
        assert covering.history.phase1_loss == full.history.phase1_loss
        assert covering.history.phase2_loss == full.history.phase2_loss
        assert np.array_equal(covering.logits, full.logits)
        assert covering.test_accuracy == full.test_accuracy
        sampled = SESTrainer(graph(), config).fit(batch_size=64)
        assert np.isfinite(sampled.history.phase1_loss).all()
        assert np.isfinite(sampled.logits).all()

    def parallel_parity():
        from repro.core import SESTrainer, fast_config
        from repro.datasets import load_dataset
        from repro.graph import classification_split

        def graph():
            return classification_split(
                load_dataset("cora", scale=0.15, seed=0), seed=0
            )

        config = fast_config("gcn", explainable_epochs=3, predictive_epochs=2, seed=0)
        single = SESTrainer(graph(), config).fit(workers=1)
        dual = SESTrainer(graph(), config).fit(workers=2)
        assert dual.history.phase1_loss == single.history.phase1_loss
        assert dual.history.phase2_loss == single.history.phase2_loss
        assert np.array_equal(dual.logits, single.logits)
        assert dual.test_accuracy == single.test_accuracy

    def run_ses_batch_flag():
        import contextlib
        import io as stdlib_io

        from repro.run_ses import main as run_ses_main

        stdout = stdlib_io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = run_ses_main(
                [
                    "--dataset", "cora", "--scale", "0.15", "--seed", "0",
                    "--explainable-epochs", "2", "--predictive-epochs", "1",
                    "--batch-size", "64",
                ]
            )
        assert rc == 0
        assert "minibatch: batch_size=64" in stdout.getvalue()

    def metrics_registry():
        from repro.obs import MetricsRegistry, parse_exposition

        registry = MetricsRegistry(enabled=True)
        registry.counter("sc_events_total", "selfcheck").inc(2.0, result="ok")
        registry.gauge("sc_level").set(1.5)
        histogram = registry.histogram("sc_seconds", buckets=[0.1, 1.0])
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        parsed = parse_exposition(registry.expose_text())
        assert parsed[("sc_events_total", (("result", "ok"),))] == 2.0
        assert parsed[("sc_level", ())] == 1.5
        assert parsed[("sc_seconds_count", ())] == 3
        assert 0.1 <= histogram.quantile(0.5) <= 1.0
        import json

        json.loads(registry.snapshot_json())
        # The process registry exposes its training families from creation.
        from repro.obs import default_registry

        assert default_registry().get("repro_epoch_seconds") is not None

    def serve_smoke():
        import http.client
        import json
        import tempfile

        from repro.core import SESTrainer, fast_config
        from repro.datasets import load_dataset
        from repro.graph import classification_split
        from repro.obs import MetricsRegistry
        from repro.serve import StateHolder, create_server, load_serving_state

        graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
        config = fast_config("gcn", explainable_epochs=3, predictive_epochs=2, seed=0)
        with tempfile.TemporaryDirectory() as tmp:
            SESTrainer(graph, config).fit(checkpoint_every=2, checkpoint_dir=tmp)
            registry = MetricsRegistry(enabled=True)
            state = load_serving_state(tmp, registry=registry)
            server = create_server(StateHolder(state, registry=registry),
                                   registry=registry)
            thread = server.serve_in_thread()
            try:
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=10.0)
                for path, expect in (
                    ("/predict/0", 200), ("/explain/0", 200), ("/neighbors/0", 200),
                    ("/healthz", 200), ("/metrics", 200),
                    ("/predict/abc", 400), (f"/predict/{graph.num_nodes}", 404),
                ):
                    conn.request("GET", path)
                    response = conn.getresponse()
                    body = response.read()
                    assert response.status == expect, (path, response.status)
                    if path == "/healthz":
                        assert json.loads(body)["ready"] is True
                conn.close()
            finally:
                server.shutdown()
                thread.join(timeout=10)
                server.server_close()
            assert not thread.is_alive(), "server thread failed to shut down"

    def trace_export_smoke():
        import glob
        import json

        from repro.obs import chrome_trace, flamegraph_lines, validate_trace
        from repro.obs.report import load_events, render_report, summarize_run

        records = sorted(glob.glob("results/runs/*.jsonl"))
        assert records, "no committed run records under results/runs/"
        for record in records:
            events = load_events(record)
            trace = chrome_trace(events, source=record)
            problems = validate_trace(trace)
            assert not problems, f"{record}: {problems[0]}"
            json.dumps(trace)
            for line in flamegraph_lines(events):
                int(line.rsplit(" ", 1)[1])
            assert render_report(summarize_run(events)), record

    check("autograd gradients", autograd, results)
    check("csr kernel parity", csr_kernel_parity, results)
    check("pair scorer parity", pair_scorer_parity, results)
    check("fused aggregation parity", fused_aggregation_parity, results)
    check("dataset generators", datasets, results)
    check("baseline classifier", baseline, results)
    check("SES two-phase pipeline", ses, results)
    check("post-hoc explainer", explainer, results)
    check("telemetry round-trip", telemetry_roundtrip, results)
    check("NaN watchdog", nan_watchdog, results)
    check("serialisation round-trip", serialisation, results)
    check("crash-resume parity", crash_resume_parity, results)
    check("minibatch parity", minibatch_parity, results)
    check("parallel parity (2 workers vs 1)", parallel_parity, results)
    check("run-ses --batch-size", run_ses_batch_flag, results)
    check("metrics registry", metrics_registry, results)
    check("serve smoke (snapshot -> HTTP)", serve_smoke, results)
    check("trace export over committed records", trace_export_smoke, results)

    failed = [name for name, ok, *_ in results if not ok]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
