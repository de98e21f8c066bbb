"""Trainer set-up reads ``A^(k)`` and the negative sampler from the ses module."""

from __future__ import annotations

import pytest

import repro.core.ses as ses_module
from repro.core import SESTrainer, fast_config
from repro.datasets import cora_like
from repro.graph import classification_split


@pytest.fixture(scope="module")
def graph():
    return classification_split(cora_like(num_nodes=160, num_classes=4, seed=5), seed=5)


def _config(**overrides):
    return fast_config("gcn", explainable_epochs=1, predictive_epochs=1, seed=5, **overrides)


def _counting(monkeypatch, name):
    """Patch ``repro.core.ses.<name>`` with a wrapper that counts its calls."""
    calls = []
    real = getattr(ses_module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ses_module, name, counting)
    return calls


def test_trainer_reads_the_sampler_from_the_ses_module(graph, monkeypatch):
    """perfbench's ``graph.negatives_s`` span patches
    ``repro.core.ses.sample_negative_sets``; set-up must call it through
    that module attribute."""
    calls = _counting(monkeypatch, "sample_negative_sets")
    SESTrainer(graph, _config())
    assert len(calls) == 1


def test_trainer_reads_khop_from_the_ses_module(graph, monkeypatch):
    """perfbench's ``graph.khop_s`` span patches
    ``repro.core.ses.khop_edge_index``; set-up must call it through that
    module attribute."""
    calls = _counting(monkeypatch, "khop_edge_index")
    SESTrainer(graph, _config())
    assert len(calls) == 1
