"""Trainer set-up: the capped ``A^(k)`` and where the negative sampler is read."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.ses as ses_module
from repro.core import SESTrainer, fast_config
from repro.datasets import cora_like
from repro.graph import classification_split, khop_edge_index


def reference_build_khop_edges(trainer: SESTrainer, rng: np.random.Generator) -> np.ndarray:
    """The per-position loop ``_build_khop_edges`` used before it ranked
    edges within their destination."""
    khop = khop_edge_index(trainer.graph, trainer.config.k_hops)
    cap = trainer.config.max_khop_per_node
    num_nodes = trainer.num_nodes
    base_keys = set((trainer.edge_index[0] * num_nodes + trainer.edge_index[1]).tolist())
    keys = khop[0] * num_nodes + khop[1]
    is_base = np.isin(keys, list(base_keys))
    keep = is_base.copy()
    order = rng.permutation(khop.shape[1])
    counts = np.zeros(num_nodes, dtype=np.int64)
    counts += np.bincount(khop[1][is_base], minlength=num_nodes)
    for position in order:
        if keep[position]:
            continue
        destination = khop[1][position]
        if counts[destination] < cap:
            keep[position] = True
            counts[destination] += 1
    kept = khop[:, keep]
    sort = np.argsort(kept[0] * num_nodes + kept[1], kind="mergesort")
    return kept[:, sort]


@pytest.fixture(scope="module")
def graph():
    return classification_split(cora_like(num_nodes=160, num_classes=4, seed=5), seed=5)


def _config(**overrides):
    return fast_config("gcn", explainable_epochs=1, predictive_epochs=1, seed=5, **overrides)


@pytest.mark.parametrize("cap", [1, 4, 16])
@pytest.mark.parametrize("k_hops", [2, 3])
def test_khop_cap_matches_reference_loop(graph, cap, k_hops):
    trainer = SESTrainer(graph, _config(max_khop_per_node=cap, k_hops=k_hops))
    state = trainer.rng.bit_generator.state
    reference_rng = np.random.default_rng()
    reference_rng.bit_generator.state = state
    got = trainer._build_khop_edges()
    np.testing.assert_array_equal(got, reference_build_khop_edges(trainer, reference_rng))
    assert trainer.rng.bit_generator.state == reference_rng.bit_generator.state
    # The cap binds: some destination lost longer-range pairs.
    assert got.shape[1] < khop_edge_index(graph, k_hops).shape[1]


def test_trainer_reads_the_sampler_from_the_ses_module(graph, monkeypatch):
    """perfbench's ``graph.negatives_s`` span patches
    ``repro.core.ses.sample_negative_sets``; set-up and per-epoch resampling
    must both call it through that module attribute."""
    calls = []
    real = ses_module.sample_negative_sets

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ses_module, "sample_negative_sets", counting)
    trainer = SESTrainer(graph, _config())
    assert len(calls) == 1
    trainer._resample_negatives()
    assert len(calls) == 2
