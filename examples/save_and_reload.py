"""Persistence workflow: train once, ship the model and its explanations.

A practitioner trains SES on their graph and writes one serving snapshot
(an ``.npz`` archive, no pickle — safe to share).  The snapshot carries the
graph, the trained parameters and the frozen masks, so a second process
reloads predictions (for fresh inference) and explanations (for auditing)
without retraining and without the dataset generator.

Usage: python examples/save_and_reload.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import SESConfig, SESTrainer
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.serve import load_serving_state


def main() -> None:
    graph = load_dataset("citeseer", seed=0, scale=0.3)
    classification_split(graph, seed=0)
    print(graph.summary())

    config = SESConfig(
        backbone="gcn", hidden_features=32, explainable_epochs=60,
        predictive_epochs=10, dropout=0.3, seed=0,
    )
    trainer = SESTrainer(graph, config)
    result = trainer.fit()
    print(f"trained: test accuracy {result.test_accuracy:.3f}")

    with tempfile.TemporaryDirectory() as tmp:
        path = trainer.save_snapshot_to(tmp)
        print(f"saved snapshot: {Path(path).name} ({path.stat().st_size // 1024} KiB)")

        # ---- a fresh process reloads everything -----------------------
        state = load_serving_state(tmp)

    # Same parameters and frozen masks → same predictions, no retraining.
    agreement = float((result.predictions == state.predictions).mean())
    print(f"prediction agreement after reload: {agreement * 100:.1f}%")

    probe = int(state.graph.degrees().argmax())
    print(f"reloaded explanation for node {probe}:",
          state.explanations.ranked_neighbors(probe)[:3])


if __name__ == "__main__":
    main()
