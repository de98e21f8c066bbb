"""Wire-format contract tests: golden schemas + error semantics.

These pin the exact JSON key sets and status codes of every endpoint so the
API cannot drift silently — a renamed field or a 404→400 regression fails
here, not in a consumer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph import classification_split, pack_graph
from repro.obs.metrics import parse_exposition
from repro.serve import ServeError, StateHolder, create_server, load_serving_state

from .conftest import DATASET, SCALE, SEED, Client, make_state, shutdown_server

pytestmark = pytest.mark.network

PREDICT_KEYS = {"node", "prediction", "logits", "readout", "snapshot"}
EXPLAIN_KEYS = {
    "node",
    "prediction",
    "cached",
    "top_features",
    "feature_scores",
    "neighbors",
    "num_khop_neighbors",
    "snapshot",
}
NEIGHBORS_KEYS = {"node", "degree", "neighbors", "snapshot"}
HEALTHZ_KEYS = {"status", "ready", "snapshot", "completed", "num_nodes", "readout", "cache"}
ERROR_KEYS = {"error"}
ERROR_BODY_KEYS = {"code", "message"}


class TestGoldenSchemas:
    def test_predict(self, client, live_server):
        _, state = live_server
        status, headers, payload = client.get("/predict/0")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert set(payload) == PREDICT_KEYS
        assert payload["node"] == 0
        assert isinstance(payload["prediction"], int)
        assert 0 <= payload["prediction"] < state.graph.num_classes
        assert len(payload["logits"]) == state.graph.num_classes
        assert all(isinstance(x, float) for x in payload["logits"])
        assert payload["readout"] in ("plain", "masked")
        assert payload["snapshot"] == state.snapshot_name

    def test_explain(self, client, live_server):
        _, state = live_server
        status, _, payload = client.get("/explain/5")
        assert status == 200
        assert set(payload) == EXPLAIN_KEYS
        assert payload["cached"] is False
        k = min(state.explain_top_k, state.graph.num_features)
        assert len(payload["top_features"]) == k
        assert len(payload["feature_scores"]) == k
        assert all(isinstance(i, int) for i in payload["top_features"])
        # Scores arrive sorted descending (top-k by importance).
        scores = payload["feature_scores"]
        assert scores == sorted(scores, reverse=True)
        for entry in payload["neighbors"]:
            assert set(entry) == {"node", "weight"}
        assert payload["num_khop_neighbors"] >= len(payload["neighbors"])

    def test_explain_second_hit_is_cached(self, client):
        client.get("/explain/7")
        status, _, payload = client.get("/explain/7")
        assert status == 200
        assert payload["cached"] is True

    def test_neighbors(self, client, live_server):
        _, state = live_server
        status, _, payload = client.get("/neighbors/3")
        assert status == 200
        assert set(payload) == NEIGHBORS_KEYS
        assert payload["degree"] == len(payload["neighbors"])
        assert payload["neighbors"] == sorted(int(n) for n in state.graph.neighbors(3))

    def test_healthz(self, client, live_server):
        _, state = live_server
        status, _, payload = client.get("/healthz")
        assert status == 200
        assert set(payload) == HEALTHZ_KEYS
        assert payload["status"] == "ok"
        assert payload["ready"] is True
        assert payload["snapshot"] == state.snapshot_name
        assert payload["completed"] == {"explainable": 3, "predictive": 2}
        assert set(payload["cache"]) == {"size", "capacity", "hits", "misses", "evictions"}

    def test_metrics_exposition(self, client):
        client.get("/predict/1")
        status, headers, text = client.get("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        samples = parse_exposition(text)
        assert (
            samples[("repro_serve_requests_total", (("endpoint", "predict"), ("status", "200")))]
            >= 1
        )
        assert samples[("repro_serve_ready", ())] == 1.0


class TestErrorSemantics:
    @pytest.mark.parametrize("endpoint", ["predict", "explain", "neighbors"])
    def test_unknown_node_is_404(self, client, live_server, endpoint):
        _, state = live_server
        for bad in (state.num_nodes, -1, 10**9):
            status, _, payload = client.get(f"/{endpoint}/{bad}")
            assert status == 404, (endpoint, bad)
            assert set(payload) == ERROR_KEYS
            assert set(payload["error"]) == ERROR_BODY_KEYS
            assert payload["error"]["code"] == 404

    @pytest.mark.parametrize("endpoint", ["predict", "explain", "neighbors"])
    @pytest.mark.parametrize("bad_id", ["abc", "1.5", "0x1f", "nan", ""])
    def test_non_integer_node_is_400(self, client, endpoint, bad_id):
        status, _, payload = client.get(f"/{endpoint}/{bad_id}")
        expected = 404 if bad_id == "" else 400  # /predict/ is an unknown route
        assert status == expected, (endpoint, bad_id)
        assert payload["error"]["code"] == expected

    def test_unknown_route_is_404(self, client):
        for path in ("/", "/nope", "/predict", "/predict/1/2", "/metricsx"):
            status, _, payload = client.get(path)
            assert status == 404, path
            assert payload["error"]["code"] == 404

    def test_503_before_first_snapshot_loads(self, registry):
        holder = StateHolder(registry=registry)  # empty: nothing loaded yet
        server = create_server(holder, port=0, registry=registry)
        thread = server.serve_in_thread()
        client = Client(server.port)
        try:
            for endpoint in ("predict", "explain", "neighbors"):
                status, headers, payload = client.get(f"/{endpoint}/0")
                assert status == 503, endpoint
                assert payload["error"]["code"] == 503
                assert headers["Retry-After"] == "1"
            # Liveness endpoints stay up while loading.
            status, _, payload = client.get("/healthz")
            assert status == 200
            assert payload["ready"] is False
            assert payload["snapshot"] is None
            status, _, text = client.get("/metrics")
            assert status == 200
            assert parse_exposition(text)[("repro_serve_ready", ())] == 0.0
        finally:
            client.close()
            shutdown_server(server, thread)


class TestLoaderContract:
    def test_pre_freeze_snapshot_is_rejected(self, snapshot_dir, registry):
        early = sorted(snapshot_dir.glob("snap-explainable-*.npz"))[0]
        with pytest.raises(ServeError, match="mask freezing"):
            load_serving_state(early, registry=registry)

    def test_explicit_snapshot_file(self, predictive_snapshots, registry):
        state = make_state(predictive_snapshots[0], registry)
        assert state.snapshot_name == predictive_snapshots[0].name
        assert state.predictions.shape == (state.num_nodes,)

    def test_graph_read_from_snapshot(self, snapshot_dir, registry):
        # The snapshot carries the training graph, split included: serving
        # regenerates nothing.
        state = load_serving_state(snapshot_dir, registry=registry)
        trained = pack_graph(
            classification_split(load_dataset(DATASET, scale=SCALE, seed=SEED), seed=SEED)
        )
        served = pack_graph(state.graph)
        assert served.keys() == trained.keys()
        for name, value in trained.items():
            np.testing.assert_array_equal(served[name], value, err_msg=name)
