"""CSR segment-kernel microbenchmarks.

Measures the scatter primitives on the CSR segment kernels that the conv
layers thread cached layouts into, at Cora scale and on a denser synthetic
graph.  The edge-weighted aggregation of a masked GCN layer is measured at
the fit-full k-hop size (cora N=1000, ``A^(2)`` plus self-loops, ~39k
edges, d=32) on the fused ``edge_spmm`` and on the composed
``gather_rows → * w → segment_sum`` path it replaced.  On module teardown
the collected stats are written to ``results/BENCH_kernels.json`` in the
``{benchmarks: [{name, stats}]}`` shape ``python -m repro obs-diff``
consumes, together with a ``speedups`` summary (the composed/fused mean
ratio).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.datasets import cora_like, load_dataset
from repro.graph.khop import khop_edge_index
from repro.nn.base import looped_constants
from repro.tensor import (
    CSRSegmentLayout,
    Tensor,
    edge_spmm,
    gather_rows,
    segment_softmax,
    segment_sum,
)

BENCH_JSON = os.path.join("results", "BENCH_kernels.json")
HIDDEN = 32
HEADS = 4

_BENCH_STATS = []


def _emit(benchmark, name):
    if benchmark.stats is None:
        return
    stats = benchmark.stats.stats
    _BENCH_STATS.append(
        {
            "name": name,
            "stats": {
                "mean": stats.mean,
                "stddev": stats.stddev,
                "rounds": stats.rounds,
                "min": stats.min,
                "max": stats.max,
            },
        }
    )


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    yield
    means = {b["name"]: b["stats"]["mean"] for b in _BENCH_STATS}
    speedups = {}
    for name, mean in means.items():
        if name.endswith("_composed"):
            stem = name[: -len("_composed")]
            if means.get(stem + "_fused", 0) > 0:
                speedups[stem] = mean / means[stem + "_fused"]
    os.makedirs(os.path.dirname(BENCH_JSON), exist_ok=True)
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "suite": "bench_kernels",
                "benchmarks": _BENCH_STATS,
                "speedups": speedups,
            },
            handle,
            indent=2,
        )
    _BENCH_STATS.clear()


class Problem:
    """One graph's edge list plus prebuilt layouts and edge/node values."""

    def __init__(self, edge_index: np.ndarray, num_nodes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.num_nodes = num_nodes
        self.src = edge_index[0]
        self.dst = edge_index[1]
        self.src_layout = CSRSegmentLayout(self.src, num_nodes)
        self.dst_layout = CSRSegmentLayout(self.dst, num_nodes)
        num_edges = edge_index.shape[1]
        self.edge_values = rng.normal(size=(num_edges, HIDDEN))
        self.edge_scores = rng.normal(size=(num_edges, HEADS))
        self.node_values = rng.normal(size=(num_nodes, HIDDEN))


@pytest.fixture(scope="module")
def cora_small() -> Problem:
    graph = cora_like(num_nodes=2708, seed=0)
    return Problem(graph.edge_index(), graph.num_nodes)


@pytest.fixture(scope="module")
def synthetic() -> Problem:
    rng = np.random.default_rng(7)
    num_nodes, num_edges = 1000, 20000
    edge_index = rng.integers(0, num_nodes, size=(2, num_edges)).astype(np.int64)
    return Problem(edge_index, num_nodes)


def _problem(request, name) -> Problem:
    return request.getfixturevalue(name)


@pytest.mark.parametrize("graph_name", ["cora_small", "synthetic"])
def test_segment_sum_forward(benchmark, request, graph_name):
    problem = _problem(request, graph_name)
    values = Tensor(problem.edge_values)

    def step():
        segment_sum(values, problem.dst, problem.num_nodes, layout=problem.dst_layout)

    benchmark(step)
    _emit(benchmark, f"segment_sum_{graph_name}_csr")


@pytest.mark.parametrize("graph_name", ["cora_small", "synthetic"])
def test_segment_softmax_forward(benchmark, request, graph_name):
    problem = _problem(request, graph_name)
    scores = Tensor(problem.edge_scores)

    def step():
        segment_softmax(scores, problem.dst, problem.num_nodes, layout=problem.dst_layout)

    benchmark(step)
    _emit(benchmark, f"segment_softmax_{graph_name}_csr")


@pytest.mark.parametrize("graph_name", ["cora_small", "synthetic"])
def test_gather_segment_sum_forward_backward(benchmark, request, graph_name):
    """The message-passing round trip: gather by src, reduce by dst, adjoint."""
    problem = _problem(request, graph_name)

    def step():
        x = Tensor(problem.node_values, requires_grad=True)
        messages = gather_rows(x, problem.src, layout=problem.src_layout)
        out = segment_sum(messages, problem.dst, problem.num_nodes, layout=problem.dst_layout)
        out.sum().backward()

    benchmark(step)
    _emit(benchmark, f"gather_segment_sum_fwdbwd_{graph_name}_csr")


@pytest.fixture(scope="module")
def khop_full():
    """The fit-full k-hop edge list, self-looped, with its layout pair."""
    graph = load_dataset("cora", seed=0, scale=1.0)
    full_index, layouts, _ = looped_constants(khop_edge_index(graph, 2), graph.num_nodes)
    rng = np.random.default_rng(0)
    h = rng.normal(size=(graph.num_nodes, HIDDEN))
    w = rng.uniform(0.05, 1.0, size=full_index.shape[1])
    return full_index, graph.num_nodes, layouts, h, w


@pytest.mark.parametrize("path", ["fused", "composed"])
def test_weighted_aggregation_forward_backward(benchmark, khop_full, path):
    """``out[v] = Σ w_e · h[src_e]`` and both adjoints, as a masked GCN layer runs it."""
    full_index, num_nodes, layouts, h_data, w_data = khop_full
    src, dst = full_index

    def step():
        h = Tensor(h_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        if path == "fused":
            out = edge_spmm(h, w, full_index, num_nodes, layouts=layouts)
        else:
            messages = gather_rows(h, src, layout=layouts.src) * w.reshape(-1, 1)
            out = segment_sum(messages, dst, num_nodes, layout=layouts.dst)
        out.sum().backward()

    benchmark(step)
    _emit(benchmark, f"weighted_aggregation_fwdbwd_khop_{path}")
