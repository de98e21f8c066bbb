"""Analysis tools: t-SNE projection, sensitivity sweeps, mask dynamics."""

from .mask_dynamics import MaskSnapshotStats, ascii_heatmap, snapshot_stats, summarize_snapshots
from .sensitivity import SweepResult, sweep_alpha_beta, sweep_lr_khop
from .tsne import pca, tsne

__all__ = [
    "tsne",
    "pca",
    "SweepResult",
    "sweep_lr_khop",
    "sweep_alpha_beta",
    "MaskSnapshotStats",
    "snapshot_stats",
    "summarize_snapshots",
    "ascii_heatmap",
]
