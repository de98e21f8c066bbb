"""Dataset generators: synthetic motif benchmarks and real-world surrogates."""

from .base import attach_ground_truth, directed_pairs
from .realworld import citeseer_like, cora_like, cs_like, polblogs_like
from .registry import dataset_key, dataset_names, load_dataset
from .synthetic import ba_community, ba_shapes, tree_cycle, tree_grid

__all__ = [
    "ba_shapes",
    "ba_community",
    "tree_cycle",
    "tree_grid",
    "cora_like",
    "citeseer_like",
    "polblogs_like",
    "cs_like",
    "load_dataset",
    "dataset_names",
    "dataset_key",
    "directed_pairs",
    "attach_ground_truth",
]
