"""Shared machinery for the per-table/figure experiment harnesses.

Every harness exposes ``run(profile) -> TableResult`` and prints the same
rows the paper reports.  A :class:`Profile` bundles the scale knobs (graph
size, epochs, number of seeds) so the identical code serves three regimes:

* ``quick``    — seconds per experiment; used by the pytest-benchmark suite.
* ``standard`` — the profile behind the numbers recorded in EXPERIMENTS.md.
* ``full``     — paper-scale epochs on the full-size surrogate graphs.

Select via the ``REPRO_PROFILE`` environment variable or explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import SESConfig, SESResult, SESTrainer
from ..datasets import load_dataset
from ..graph import Graph, classification_split, explanation_split
from ..utils import format_table


@dataclass(frozen=True)
class Profile:
    """Scale knobs for one experiment regime."""

    name: str
    scale: float
    runs: int
    classifier_epochs: int
    ses_explainable_epochs: int
    ses_predictive_epochs: int
    hidden: int
    explainer_nodes: int
    gnn_explainer_epochs: int
    pg_explainer_epochs: int
    pgm_samples: int
    segnn_epochs: int
    protgnn_epochs: int


QUICK = Profile(
    name="quick",
    scale=0.2,
    runs=1,
    classifier_epochs=60,
    ses_explainable_epochs=40,
    ses_predictive_epochs=6,
    hidden=32,
    explainer_nodes=8,
    gnn_explainer_epochs=40,
    pg_explainer_epochs=15,
    pgm_samples=40,
    segnn_epochs=20,
    protgnn_epochs=40,
)

STANDARD = Profile(
    name="standard",
    scale=0.5,
    runs=2,
    classifier_epochs=150,
    ses_explainable_epochs=150,
    ses_predictive_epochs=25,
    hidden=64,
    explainer_nodes=24,
    gnn_explainer_epochs=80,
    pg_explainer_epochs=25,
    pgm_samples=80,
    segnn_epochs=40,
    protgnn_epochs=80,
)

FULL = Profile(
    name="full",
    scale=1.0,
    runs=3,
    classifier_epochs=250,
    ses_explainable_epochs=300,
    ses_predictive_epochs=30,
    hidden=128,
    explainer_nodes=60,
    gnn_explainer_epochs=100,
    pg_explainer_epochs=30,
    pgm_samples=100,
    segnn_epochs=60,
    protgnn_epochs=100,
)

_PROFILES = {"quick": QUICK, "standard": STANDARD, "full": FULL}


def get_profile(name: Optional[str] = None) -> Profile:
    """Resolve a profile by name or the ``REPRO_PROFILE`` env variable."""
    key = (name or os.environ.get("REPRO_PROFILE", "quick")).lower()
    if key not in _PROFILES:
        raise KeyError(f"unknown profile {key!r}; choose from {sorted(_PROFILES)}")
    return _PROFILES[key]


@dataclass
class TableResult:
    """A reproduced table/figure: printable rows plus raw values."""

    title: str
    headers: List[str]
    rows: List[List]
    notes: List[str] = field(default_factory=list)
    raw: Dict = field(default_factory=dict)

    def __str__(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text


def prepare_real_world(name: str, profile: Profile, seed: int = 0) -> Graph:
    """Load a real-world surrogate with the paper's 60/20/20 split."""
    graph = load_dataset(name, seed=seed, scale=profile.scale)
    return classification_split(graph, seed=seed)


def prepare_synthetic(name: str, profile: Profile, seed: int = 0) -> Graph:
    """Load a synthetic motif dataset with the 80/10/10 split."""
    graph = load_dataset(name, seed=seed, scale=profile.scale)
    return explanation_split(graph, seed=seed)


def ses_config(profile: Profile, backbone: str = "gcn", seed: int = 0, **overrides) -> SESConfig:
    """SESConfig matched to a profile."""
    defaults = dict(
        backbone=backbone,
        hidden_features=profile.hidden,
        mask_mlp_hidden=min(profile.hidden, 64),
        explainable_epochs=profile.ses_explainable_epochs,
        predictive_epochs=profile.ses_predictive_epochs,
        dropout=0.5,
        heads=2,
        seed=seed,
    )
    defaults.update(overrides)
    return SESConfig(**defaults)


def ses_synthetic_config(profile: Profile, backbone: str = "gcn", seed: int = 0, **overrides) -> SESConfig:
    """SESConfig for the structural-motif datasets (Tables 4, Fig. 6).

    Differences from the citation setup: constant-feature role tasks train
    better at lr 0.01 with light dropout, the subgraph loss uses structure
    targets (label-agreement targets anti-correlate with motif membership),
    and explanations read the masked-loss sensitivity (see SESConfig).
    """
    defaults = dict(
        dropout=0.1,
        learning_rate=0.01,
        subgraph_target="structure",
        structure_explanation="sensitivity",
    )
    defaults.update(overrides)
    return ses_config(profile, backbone=backbone, seed=seed, **defaults)


def run_ses(
    graph: Graph,
    profile: Profile,
    backbone: str = "gcn",
    seed: int = 0,
    **overrides,
) -> SESResult:
    """Train SES on ``graph`` under ``profile`` and return the result.

    With ``REPRO_TELEMETRY=1`` the run emits a JSON-lines record readable by
    ``python -m repro obs-report``: the trainer consults
    :func:`repro.obs.default_recorder`, so harnesses that build
    :class:`SESTrainer` directly get identical telemetry.
    """
    config = ses_config(profile, backbone=backbone, seed=seed, **overrides)
    return SESTrainer(graph, config).fit()


def mean_std(values: Sequence[float]) -> str:
    """Render repeated-run accuracies as the paper's ``mean±std`` (percent)."""
    array = np.asarray(list(values), dtype=np.float64) * 100.0
    if len(array) == 1:
        return f"{array[0]:.2f}"
    return f"{array.mean():.2f}±{array.std():.2f}"
