"""repro — reproduction of "SES: Bridging the Gap Between Explainability and
Prediction of Graph Neural Networks" (ICDE 2024) on a from-scratch numpy
autograd stack.

Quickstart::

    from repro.datasets import load_dataset
    from repro.graph import classification_split
    from repro.core import SESTrainer, SESConfig

    graph = classification_split(load_dataset("cora", scale=0.5))
    result = SESTrainer(graph, SESConfig(explainable_epochs=150)).fit()
    print(result.test_accuracy)
    print(result.explanations.ranked_neighbors(0)[:5])

Subpackages
-----------
``repro.tensor``       autograd engine (Tensor, Module, optimisers)
``repro.graph``        graph container, k-hop, normalisation, sampling
``repro.nn``           GNN layers + the shared GraphEncoder
``repro.models``       baseline classifiers, SEGNN, ProtGNN
``repro.core``         SES itself (masks, losses, Algorithm 1, trainer)
``repro.explainers``   post-hoc baselines (GRAD/ATT/GNNExplainer/...)
``repro.datasets``     synthetic motif benchmarks + real-world surrogates
``repro.metrics``      accuracy, explanation AUC, Fidelity+, clustering
``repro.analysis``     t-SNE, sensitivity sweeps, mask dynamics
``repro.experiments``  one harness per paper table/figure
``repro.obs``          run telemetry (JSONL records) + op-level profiler

Subpackages load on first attribute access (PEP 562), so ``import
repro.parallel.worker`` or ``import repro.serve.cli`` pulls in only what
those modules import, not ``scipy.stats``, the explainers or the plotting
helpers; ``import repro; repro.explainers`` works as before.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "graph",
    "nn",
    "models",
    "core",
    "explainers",
    "io",
    "datasets",
    "metrics",
    "analysis",
    "obs",
    "utils",
    "viz",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        # import_module also binds the submodule on this package, so the
        # hook runs once per name.
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
