"""Serving-layer fixtures: one trained snapshot directory, live servers.

The snapshot directory is built once per session (a ~0.5s miniature SES run
with per-epoch checkpoints, so it contains both explainable-phase snapshots
— which the serving layer must refuse — and several predictive-phase
snapshots to hot-swap between).
"""

from __future__ import annotations

import http.client
import json
import time
from pathlib import Path

import pytest

from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.obs.metrics import MetricsRegistry
from repro.serve import StateHolder, create_server, load_serving_state

DATASET = "cora"
SCALE = 0.15
SEED = 0
EPOCHS = (3, 2)  # explainable, predictive


@pytest.fixture(scope="session")
def snapshot_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("serve-snapshots")
    graph = classification_split(
        load_dataset(DATASET, scale=SCALE, seed=SEED), seed=SEED
    )
    config = fast_config(
        "gcn", explainable_epochs=EPOCHS[0], predictive_epochs=EPOCHS[1], seed=SEED
    )
    SESTrainer(graph, config).fit(
        checkpoint_every=1, checkpoint_dir=directory, checkpoint_keep=0
    )
    return directory


@pytest.fixture(scope="session")
def predictive_snapshots(snapshot_dir) -> list:
    """Servable (post-mask-freeze) snapshot paths, oldest first."""
    paths = sorted(snapshot_dir.glob("snap-predictive-*.npz"))
    assert len(paths) >= 2, "fixture needs >= 2 predictive snapshots to swap"
    return paths


@pytest.fixture()
def registry() -> MetricsRegistry:
    """A fresh, enabled registry so counter assertions are exact per test."""
    return MetricsRegistry(enabled=True)


def make_state(source, registry, **kwargs):
    return load_serving_state(source, registry=registry, **kwargs)


@pytest.fixture()
def live_server(snapshot_dir, registry):
    """A server preloaded with the newest snapshot; yields (server, state)."""
    state = make_state(snapshot_dir, registry)
    holder = StateHolder(state, registry=registry)
    server = create_server(holder, port=0, registry=registry)
    thread = server.serve_in_thread()
    yield server, state
    shutdown_server(server, thread)


def shutdown_server(server, thread) -> None:
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    assert not thread.is_alive(), "server thread failed to shut down"


class Client:
    """Minimal keep-alive JSON client over one HTTP connection."""

    def __init__(self, port: int, timeout: float = 15.0) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def get(self, path: str):
        """Return ``(status, headers, parsed_body_or_text)``."""
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        if response.headers.get("Content-Type", "").startswith("application/json"):
            payload = json.loads(body.decode("utf-8"))
        else:
            payload = body.decode("utf-8")
        return response.status, response.headers, payload

    def close(self) -> None:
        self.conn.close()


@pytest.fixture()
def client(live_server):
    server, _ = live_server
    c = Client(server.port)
    yield c
    c.close()


def wait_until(predicate, deadline: float = 20.0, interval: float = 0.02) -> None:
    """Poll ``predicate`` until truthy or fail after ``deadline`` seconds."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"condition not met within {deadline}s")
