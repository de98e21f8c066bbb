"""Parameter-sensitivity sweeps (Fig. 4).

Runs SES over grids of (learning rate × k) and (alpha × beta), collecting
test accuracy per cell.  Results come back as labelled
:class:`SweepResult` grids that the Fig. 4 harness renders as series and
ASCII heatmaps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from ..core import SESConfig, SESTrainer
from ..graph import Graph


@dataclass
class SweepResult:
    """Accuracy grid for a 2-parameter sweep."""

    row_name: str
    col_name: str
    row_values: List
    col_values: List
    accuracy: np.ndarray  # (rows, cols)

    def best(self) -> Tuple:
        index = np.unravel_index(np.argmax(self.accuracy), self.accuracy.shape)
        return self.row_values[index[0]], self.col_values[index[1]], float(self.accuracy[index])

    def render(self) -> str:
        header = f"{self.row_name}\\{self.col_name} | " + " ".join(
            f"{v:>7}" for v in self.col_values
        )
        lines = [header, "-" * len(header)]
        for row_value, row in zip(self.row_values, self.accuracy):
            cells = " ".join(f"{cell:7.3f}" for cell in row)
            lines.append(f"{str(row_value):>12} | {cells}")
        return "\n".join(lines)


def _run_once(graph: Graph, config: SESConfig) -> float:
    trainer = SESTrainer(graph, config)
    return trainer.fit().test_accuracy


def sweep_lr_khop(
    graph: Graph,
    base_config: SESConfig,
    learning_rates: Sequence[float] = (0.001, 0.003, 0.01),
    k_values: Sequence[int] = (1, 2, 3),
) -> SweepResult:
    """Fig. 4(a/c): accuracy across learning rate × k-hop radius."""
    accuracy = np.zeros((len(learning_rates), len(k_values)))
    for i, lr in enumerate(learning_rates):
        for j, k in enumerate(k_values):
            config = replace(base_config, learning_rate=lr, k_hops=k)
            accuracy[i, j] = _run_once(graph, config)
    return SweepResult("lr", "k", list(learning_rates), list(k_values), accuracy)


def sweep_alpha_beta(
    graph: Graph,
    base_config: SESConfig,
    alphas: Sequence[float] = (0.2, 0.5, 0.8),
    betas: Sequence[float] = (0.2, 0.5, 0.8),
) -> SweepResult:
    """Fig. 4(b/d): accuracy across the loss-balance hyper-parameters."""
    accuracy = np.zeros((len(alphas), len(betas)))
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            config = replace(base_config, alpha=alpha, beta=beta)
            accuracy[i, j] = _run_once(graph, config)
    return SweepResult("alpha", "beta", list(alphas), list(betas), accuracy)
