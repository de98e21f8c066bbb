"""Name-based dataset registry.

``load_dataset("cora")`` returns the Cora surrogate; ``load_dataset``
accepts ``scale`` to shrink every size parameter proportionally, which the
test-suite and benchmarks use to keep runtimes small.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..graph import Graph
from . import realworld, synthetic

_REAL: Dict[str, Callable[..., Graph]] = {
    "cora": realworld.cora_like,
    "citeseer": realworld.citeseer_like,
    "polblogs": realworld.polblogs_like,
    "cs": realworld.cs_like,
}

_SYNTHETIC: Dict[str, Callable[..., Graph]] = {
    "ba_shapes": synthetic.ba_shapes,
    "ba_community": synthetic.ba_community,
    "tree_cycle": synthetic.tree_cycle,
    "tree_grid": synthetic.tree_grid,
}


def dataset_names() -> List[str]:
    """All registered dataset names."""
    return sorted(_REAL) + sorted(_SYNTHETIC)


def dataset_key(name: str) -> str:
    """The registry name ``name`` selects: case-insensitive, ``-`` as ``_``."""
    return name.lower().replace("-", "_")


def load_dataset(name: str, seed: int = 0, scale: float = 1.0, **overrides) -> Graph:
    """Instantiate a dataset by name.

    Parameters
    ----------
    name:
        One of :func:`dataset_names` (case-insensitive).
    seed:
        Generator seed.
    scale:
        Multiplier applied to the node-count parameters (real-world:
        ``num_nodes``; synthetic: ``num_motifs`` and base size).  ``0.25``
        gives a quarter-size instance for fast tests.
    overrides:
        Passed straight to the generator.
    """
    key = dataset_key(name)
    if key in _REAL:
        kwargs = dict(overrides)
        if scale != 1.0 and "num_nodes" not in kwargs:
            import inspect

            default_nodes = inspect.signature(_REAL[key]).parameters["num_nodes"].default
            kwargs["num_nodes"] = max(50, int(default_nodes * scale))
        return _REAL[key](seed=seed, **kwargs)
    if key in _SYNTHETIC:
        kwargs = dict(overrides)
        if scale != 1.0:
            if key in ("ba_shapes", "ba_community") and "base_nodes" not in kwargs:
                kwargs["base_nodes"] = max(30, int(300 * scale))
            if key in ("tree_cycle", "tree_grid") and "depth" not in kwargs:
                kwargs["depth"] = max(4, int(round(8 * scale**0.5)))
            if "num_motifs" not in kwargs:
                kwargs["num_motifs"] = max(8, int(80 * scale))
        return _SYNTHETIC[key](seed=seed, **kwargs)
    raise KeyError(f"unknown dataset {name!r}; available: {dataset_names()}")
