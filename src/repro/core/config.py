"""Configuration for the SES model and its two-phase training schedule.

Defaults follow the paper's experimental settings (§5.3 and §5.6): Adam at
learning rate ``3e-3``, hidden width 128, sample ratio ``r = 0.8``, triplet
margin ``m = 1.0``, 300 explainable-training epochs plus 15 enhanced-
predictive-learning epochs.  Experiment harnesses shrink the epoch counts
for the scaled-down surrogate datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.encoder import BACKBONES
from ..utils.validation import check_positive, check_positive_int, check_probability


@dataclass
class SESConfig:
    """Hyper-parameters of SES (paper Table 2 symbols in brackets)."""

    backbone: str = "gcn"  # one of repro.nn.encoder.BACKBONES
    hidden_features: int = 128  # F_hid
    k_hops: int = 2  # k of A^(k)
    alpha: float = 0.5  # balance of mask losses vs plain cross-entropy (Eq. 9)
    beta: float = 0.5  # balance of triplet vs cross-entropy (Eq. 13)
    learning_rate: float = 3e-3
    weight_decay: float = 5e-4
    dropout: float = 0.5
    explainable_epochs: int = 300
    predictive_epochs: int = 15
    sample_ratio: float = 0.8  # r of Algorithm 1
    margin: float = 1.0  # m of Eq. 12
    heads: int = 4  # attention heads for GAT backbones
    mask_mlp_hidden: int = 64
    subgraph_target: str = "label"
    """Targets of the subgraph loss (Eq. 7).  ``"label"`` (default, matching
    the paper's "Y_s ... are neighboring nodes' labels") sets Y_s = 1 for
    k-hop edges whose labelled endpoints agree and 0 where they disagree,
    which is what makes the structure mask discriminative; ``"structure"``
    is the pure link-prediction variant (Y_s = 1 for every k-hop edge)."""
    structure_explanation: str = "mask"
    """How ``E_sub`` edge importances are assembled (DESIGN.md §5):
    ``"mask"`` uses the scorer output M̂_s alone (the paper's letter);
    ``"sensitivity"`` uses the accumulated masked-loss edge sensitivity
    −dL_xent^m/dw_e collected during co-training (per-edge, immune to the
    content-averaging that defeats a global scorer on isomorphic motifs).
    Reproduction finding: the mask readout excels on homophilous graphs
    (it is a near-perfect same-class-edge predictor) but is content-blind
    to isomorphic structural motifs, where the sensitivity readout is the
    right signal — the synthetic-benchmark harnesses therefore select
    "sensitivity" while the default remains the paper's mask."""
    mask_floor: float = 0.5
    """Soft application floor for the structure mask in the Eq. 10 forward:
    the applied edge weight is ``floor + (1 - floor) * M̂_s``.  0 applies the
    raw mask; higher values make masking a re-ranking rather than a hard
    deletion (ablated in benchmarks/bench_ablation_extra.py)."""
    keep_best: bool = True
    """Track the best validation-accuracy encoder state during phase 2 and
    restore it at the end (standard early-stopping-by-checkpoint)."""
    triplet_pooling: str = "mean"
    """How the stacked positive/negative embeddings of Eq. 11 are pooled to a
    fixed size per anchor ("mean" or "sum"); see DESIGN.md §5."""
    seed: int = 0

    # Ablation switches (Table 10 / Table 5 variants).
    use_feature_mask: bool = True  # -{M_f} when False
    use_structure_mask: bool = True  # -{M̂_s} when False
    use_masked_xent: bool = True  # -{L_xent^m} when False (Table 5 variant)
    use_triplet: bool = True  # -{Triplet} when False
    use_xent_in_phase2: bool = True  # -{L_xent} when False

    def __post_init__(self) -> None:
        if self.backbone not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}, got {self.backbone!r}")
        check_probability(self.alpha, "alpha")
        check_probability(self.beta, "beta")
        check_probability(self.sample_ratio, "sample_ratio")
        check_probability(self.mask_floor, "mask_floor")
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.margin, "margin")
        check_positive_int(self.hidden_features, "hidden_features")
        check_positive_int(self.k_hops, "k_hops")
        check_positive_int(self.explainable_epochs, "explainable_epochs")
        check_positive_int(self.predictive_epochs, "predictive_epochs")
        check_positive_int(self.mask_mlp_hidden, "mask_mlp_hidden")
        check_positive_int(self.heads, "heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.subgraph_target not in ("structure", "label"):
            raise ValueError("subgraph_target must be 'structure' or 'label'")
        if self.triplet_pooling not in ("mean", "sum"):
            raise ValueError("triplet_pooling must be 'mean' or 'sum'")
        if self.structure_explanation not in ("mask", "sensitivity"):
            raise ValueError("structure_explanation must be 'mask' or 'sensitivity'")


def fast_config(backbone: str = "gcn", **overrides) -> SESConfig:
    """A scaled-down config for tests and benchmarks (seconds, not minutes)."""
    defaults = dict(
        backbone=backbone,
        hidden_features=32,
        mask_mlp_hidden=32,
        explainable_epochs=40,
        predictive_epochs=8,
        dropout=0.2,
        heads=2,
    )
    defaults.update(overrides)
    return SESConfig(**defaults)
