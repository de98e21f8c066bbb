"""SES: the Self-Explained and self-Supervised GNN (paper §4, Algorithm 2).

Two phases over a shared :class:`~repro.nn.GraphEncoder`:

1. **Explainable training** — the encoder and the
   :class:`~repro.core.mask_generator.MaskGenerator` are optimised jointly
   with ``alpha (L_sub + L_xent^m) + (1 - alpha) L_xent`` (Eq. 9), where
   ``L_xent^m`` is the cross-entropy of the *masked* forward
   ``Z_m = GE(M_f ⊙ X, M̂_s ⊙ A^(k))`` (Eq. 8) that keeps the masks
   consistent with the encoder's aggregation.
2. **Enhanced predictive learning** — masks are frozen, Algorithm 1 builds
   positive/negative node sets from ``Â^(k) = M̂_s ⊙ A^(k)``, and the
   encoder alone is refined with ``beta L_triplet + (1 - beta) L_xent``
   (Eqs. 10–13) on the masked graph ``GE(M_f ⊙ X, M̂_s ⊙ A)``.

Explanations (``E_feat``, ``E_sub``) are available as soon as phase 1 ends —
phase 2 "does not affect the explainability of SES but refines its
prediction accuracy" (paper §5.6).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..graph import (
    AnchorBatchSampler,
    BatchCache,
    Graph,
    SubgraphBatch,
    extract_phase1_batch,
    extract_phase2_batch,
    khop_edge_index,
    negative_edge_index,
    sample_negative_sets,
    scatter_edge_values,
)
from ..metrics import accuracy, logits_to_predictions
from ..nn import GraphEncoder
from ..tensor import (
    Adam,
    Module,
    Tensor,
    as_tensor,
    functional as F,
    gather_rows,
    no_grad,
    segment_mean,
    segment_sum,
)
from ..obs import (
    NaNWatchdog,
    NullRecorder,
    activation_stats,
    default_recorder,
    grad_stats,
    mask_health,
    param_stats,
    triplet_margin,
)
from ..resilience import (
    FaultPlan,
    RecoveryManager,
    RecoveryPolicy,
    TrainingSnapshot,
    capture_training_snapshot,
    find_latest_snapshot,
    load_snapshot,
    recovery_policy_from_env,
    restore_training_snapshot,
    save_snapshot,
    write_latest_pointer,
)
from ..utils import Stopwatch, make_rng
from .config import SESConfig
from .explanations import Explanations
from .losses import explainable_training_loss, predictive_learning_loss, subgraph_loss
from .mask_generator import MaskGenerator
from .pairs import PairSets, construct_pairs, pooled_pair_indices

PREDICTIVE_LR_SCALE = 0.3
"""Phase-2 learning-rate multiplier: enhanced predictive learning fine-tunes
an already-trained encoder, so it runs at a fraction of the phase-1 rate to
avoid destroying the phase-1 solution."""

MAX_NEGATIVES_PER_NODE = 64
"""Cap on the negative set ``P_n`` sampled per node at set-up."""


class SESModel(Module):
    """Graph encoder + mask generator with shared parameters across phases."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        config: SESConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or make_rng(config.seed)
        self.config = config
        self.encoder = GraphEncoder(
            num_features,
            config.hidden_features,
            num_classes,
            backbone=config.backbone,
            dropout=config.dropout,
            heads=config.heads,
            representation_head=True,
            rng=rng,
        )
        hidden_width = config.hidden_features
        self.mask_generator = MaskGenerator(
            hidden_width, num_features, mlp_hidden=config.mask_mlp_hidden, rng=rng
        )

    def encoder_parameters(self):
        """Parameters ``theta_e`` updated in both phases."""
        return self.encoder.parameters()

    def mask_parameters(self):
        """Parameters ``theta_m`` updated only during explainable training."""
        return self.mask_generator.parameters()


# ----------------------------------------------------------------------
# Inference: functions over the arrays a trained model leaves behind.
# SESTrainer and repro.serve both answer through them, so a served
# snapshot reproduces the trainer's outputs bit for bit.
# ----------------------------------------------------------------------
def align_base_edges(khop_edges: np.ndarray, edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Position of every edge of ``A`` inside the (sorted) k-hop edge list.

    ``A ⊆ A^(k)`` for ``k >= 1``, so phase 2 can reuse the structure-mask
    values learned on ``A^(k)`` for the edges of ``A`` (Eq. 10).
    """
    khop_keys = khop_edges[0] * num_nodes + khop_edges[1]
    base_keys = edge_index[0] * num_nodes + edge_index[1]
    positions = np.searchsorted(khop_keys, base_keys)
    if not np.array_equal(khop_keys[positions], base_keys):
        raise AssertionError("base adjacency is not contained in A^(k)")
    return positions


def phase2_inputs(
    config: SESConfig, features: np.ndarray, feature_mask: Optional[np.ndarray],
    structure_values: Optional[np.ndarray], base_edge_positions: np.ndarray,
) -> Tuple[Tensor, Optional[Tensor]]:
    """Masked features and base-edge weights for Eq. 10 (as constants)."""
    if config.use_feature_mask and feature_mask is not None:
        features = features * feature_mask
    edge_weight = None
    if config.use_structure_mask and structure_values is not None:
        values = structure_values[base_edge_positions]
        # Soft application: a floor keeps imperfect mask weights from
        # severing genuinely informative edges outright; the mask then
        # re-ranks neighbours rather than deleting them (DESIGN.md §5).
        values = config.mask_floor + (1.0 - config.mask_floor) * values
        edge_weight = as_tensor(values)
    return Tensor(features), edge_weight


def eval_forward(
    model: SESModel, features: Tensor, edge_index: np.ndarray,
    edge_weight: Optional[Tensor] = None,
) -> Tuple[np.ndarray, ...]:
    """Eval-mode, gradient-free encoder pass: ``(H, R, Z)`` as arrays."""
    model.eval()
    with no_grad():
        outputs = model.encoder.forward_full(
            features, edge_index, features.shape[0], edge_weight=edge_weight
        )
    return tuple(output.data for output in outputs)


def readout_logits(
    model: SESModel, config: SESConfig, readout: str, features: np.ndarray,
    edge_index: np.ndarray, feature_mask: Optional[np.ndarray],
    structure_values: Optional[np.ndarray], base_edge_positions: np.ndarray,
) -> np.ndarray:
    """Logits of ``readout``: the plain encoder on ``features``, or the
    masked forward of Eq. 10."""
    if readout == "plain":
        return eval_forward(model, Tensor(features), edge_index)[2]
    masked, edge_weight = phase2_inputs(
        config, features, feature_mask, structure_values, base_edge_positions
    )
    return eval_forward(model, masked, edge_index, edge_weight)[2]


def explanation_edge_values(
    mode: str, mask_values: np.ndarray, sensitivity: np.ndarray
) -> np.ndarray:
    """Edge importances per config.structure_explanation (see config)."""
    if mode == "mask" or sensitivity.max() <= 0:
        return mask_values
    ranks = np.argsort(np.argsort(sensitivity)).astype(np.float64)
    return ranks / max(1, len(ranks) - 1)


def assemble_explanations(
    config: SESConfig, features: np.ndarray, khop_edges: np.ndarray,
    feature_mask: np.ndarray, structure_values: np.ndarray, sensitivity: np.ndarray,
) -> Explanations:
    """``E_feat`` and ``E_sub`` from the frozen masks plus the accumulated
    edge sensitivity (§4.2; DESIGN.md §5)."""
    edge_values = explanation_edge_values(
        config.structure_explanation, structure_values, sensitivity
    )
    structure = scatter_edge_values(khop_edges, edge_values, features.shape[0])
    return Explanations(
        feature_mask=feature_mask,
        feature_explanation=feature_mask * features,
        structure_mask=structure,
        subgraph_explanation=structure,
        khop_edge_index=khop_edges,
    )


@dataclass
class TrainingHistory:
    """Per-epoch records of both phases (drives Fig. 7)."""

    phase1_loss: List[float] = field(default_factory=list)
    phase1_val_accuracy: List[float] = field(default_factory=list)
    phase2_loss: List[float] = field(default_factory=list)
    phase2_val_accuracy: List[float] = field(default_factory=list)
    mask_snapshots: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    """epoch → (M_f copy, M_s copy) captured during explainable training."""


@dataclass
class SESResult:
    """Everything :meth:`SESTrainer.fit` produces."""

    test_accuracy: float
    val_accuracy: float
    history: TrainingHistory
    explanations: Explanations
    timings: Dict[str, float]
    logits: np.ndarray
    hidden: np.ndarray
    predictions: np.ndarray

    @property
    def training_time(self) -> float:
        """Total wall-clock of both phases plus pair construction."""
        return sum(self.timings.values())


def phase_parameters(model: SESModel, phase: str) -> List[Tensor]:
    """The parameter list one phase optimises, in a stable order.

    This single definition backs the per-phase optimizers *and* the
    data-parallel gradient exchange (``repro.parallel``): supervisor and
    workers must agree on the order or reduced gradients land on the wrong
    parameters.
    """
    if phase == "explainable":
        return list(model.encoder_parameters()) + list(model.mask_parameters())
    if phase == "predictive":
        return list(model.encoder_parameters())
    raise ValueError(f"unknown training phase {phase!r}")


@dataclass
class Phase1BatchResult:
    """Everything one phase-1 anchor-batch forward produces."""

    loss: Tensor
    probe: Optional[Tensor]
    feature_mask: Tensor
    structure_mask: Tensor
    hidden: Tensor
    logits: Tensor


def phase1_batch_loss(
    model: SESModel, config: SESConfig, graph: Graph, batch
) -> Phase1BatchResult:
    """Forward + loss for one phase-1 anchor batch (no backward, no step).

    Every training mode runs it through :func:`batch_backward`.  The op
    sequence here is parity-critical: it fixes the order of every dropout
    draw and every floating-point reduction, which is what keeps parallel
    runs bit-identical at any worker count.
    """
    labels_local = graph.labels[batch.nodes]
    train_local = graph.train_mask[batch.nodes]
    batch_train = train_local & batch.anchor_mask()
    has_train = bool(batch_train.any())
    sub_features = Tensor(graph.features[batch.nodes])
    hidden, representation, logits = model.encoder.forward_full(
        sub_features, batch.edge_index, batch.num_local_nodes
    )
    # The structure scorer reads the encoder's output representation, not
    # Eq. 4's first-layer H: on constant-feature graphs a one-hop state is a
    # pure degree function and cannot tell motif membership apart.
    feature_mask = model.mask_generator.feature_mask(hidden)
    structure_mask = model.mask_generator.structure_mask(
        representation, batch.khop_edges
    )
    negative_mask = model.mask_generator.negative_mask(
        representation, batch.negative_pairs
    )
    plain_xent = (
        F.cross_entropy(logits, labels_local, mask=batch_train)
        if has_train
        else as_tensor(0.0)
    )
    centred = batch.khop_center_in_batch
    if centred.all():
        sub_structure, sub_khop = structure_mask, batch.khop_edges
    else:
        sub_structure = structure_mask[np.flatnonzero(centred)]
        sub_khop = batch.khop_edges[:, centred]
    sub_loss = subgraph_loss(
        sub_structure,
        negative_mask,
        sub_khop,
        batch.negative_pairs,
        labels=labels_local,
        train_mask=train_local,
        target_mode=config.subgraph_target,
    )
    masked_xent = None
    probe = None
    if config.use_masked_xent and has_train:
        masked_features = (
            sub_features * feature_mask
            if config.use_feature_mask
            else sub_features
        )
        # A zero additive probe exposes the per-edge sensitivity of the
        # masked loss (probe.grad = dL/dw_e) without changing the forward;
        # accumulated over the second half of training it becomes the
        # sensitivity component of E_sub (config.structure_explanation).
        probe = Tensor(
            np.zeros(batch.khop_edges.shape[1]), requires_grad=True
        )
        masked_logits = model.encoder(
            masked_features,
            batch.khop_edges,
            batch.num_local_nodes,
            edge_weight=structure_mask + probe,
        )
        masked_xent = F.cross_entropy(
            masked_logits, labels_local, mask=batch_train
        )
    loss = explainable_training_loss(plain_xent, masked_xent, sub_loss, config.alpha)
    return Phase1BatchResult(
        loss=loss,
        probe=probe,
        feature_mask=feature_mask,
        structure_mask=structure_mask,
        hidden=hidden,
        logits=logits,
    )


@dataclass
class Phase2BatchResult:
    """One phase-2 anchor-batch forward; ``loss is None`` = nothing to optimise."""

    loss: Optional[Tensor]
    representation: Tensor
    logits: Tensor
    anchor: Optional[Tensor]
    positive: Optional[Tensor]
    negative: Optional[Tensor]


def phase2_batch_loss(
    model: SESModel,
    config: SESConfig,
    graph: Graph,
    batch,
    features_data: np.ndarray,
    edge_weight_data: Optional[np.ndarray],
) -> Phase2BatchResult:
    """Forward + loss for one phase-2 anchor batch under the frozen masks.

    ``features_data``/``edge_weight_data`` are the *full-graph* masked
    constants (Eq. 10); the batch sees row/column slices of them.  See
    :func:`phase1_batch_loss` for why the op order is pinned.
    """
    labels_local = graph.labels[batch.nodes]
    batch_train = graph.train_mask[batch.nodes] & batch.anchor_mask()
    features_local = Tensor(features_data[batch.nodes])
    weight_local = (
        as_tensor(edge_weight_data[batch.edge_positions])
        if edge_weight_data is not None
        else None
    )
    _, representation, logits = model.encoder.forward_full(
        features_local, batch.edge_index, batch.num_local_nodes,
        edge_weight=weight_local,
    )
    xent = None
    if config.use_xent_in_phase2 and batch_train.any():
        xent = F.cross_entropy(logits, labels_local, mask=batch_train)
    triplet = None
    anchor = positive = negative = None
    pooled = batch.pooled
    if pooled is not None and len(pooled[0]) > 0:
        anchors_l, pos_index, pos_segment, neg_index, neg_segment = pooled
        num_anchors = len(anchors_l)
        pool = (
            segment_mean
            if config.triplet_pooling == "mean"
            else segment_sum
        )
        positive = pool(
            gather_rows(representation, pos_index),
            pos_segment, num_anchors,
        )
        negative = pool(
            gather_rows(representation, neg_index),
            neg_segment, num_anchors,
        )
        anchor = gather_rows(representation, anchors_l)
        triplet = F.triplet_margin_loss(
            anchor, positive, negative, margin=config.margin
        )
    if triplet is None and xent is None:
        return Phase2BatchResult(
            loss=None, representation=representation, logits=logits,
            anchor=None, positive=None, negative=None,
        )
    loss = predictive_learning_loss(triplet, xent, config.beta)
    return Phase2BatchResult(
        loss=loss, representation=representation, logits=logits,
        anchor=anchor, positive=positive, negative=negative,
    )


def cached_batch(
    cache: BatchCache,
    phase: str,
    graph: Graph,
    anchors: np.ndarray,
    hops: int,
    khop_edges: np.ndarray,
    negative_pairs: np.ndarray,
    pooled: Optional[tuple],
) -> SubgraphBatch:
    """The subgraph of one anchor batch, from ``cache`` or freshly extracted.

    The single extraction path of the trainer and the ``repro.parallel``
    workers.  ``pooled`` is phase 2's pooled-pair tuple for ``anchors``
    (unused in phase 1).
    """
    def extract() -> SubgraphBatch:
        if phase == "explainable":
            return extract_phase1_batch(
                graph, anchors, khop_edges, negative_pairs, hops=hops
            )
        return extract_phase2_batch(graph, anchors, pooled, hops=hops)

    return cache.get(phase, anchors, extract)


def batch_backward(
    model: SESModel,
    config: SESConfig,
    graph: Graph,
    phase: str,
    batch: SubgraphBatch,
    constants: Dict,
) -> Tuple[Union[Phase1BatchResult, Phase2BatchResult], Dict]:
    """Forward, loss and backward of one anchor batch (no optimizer step).

    Returns the batch result and its record: ``loss`` (``None`` when the
    batch has nothing to optimise, in which case there is no backward) and,
    in phase 1, the edge-sensitivity probe gradient at its global k-hop
    positions plus the mask-sparsity counts.  The epoch bookkeeping folds
    records in batch order, which is what keeps every mode bit-identical.
    ``constants`` carries phase 2's full-graph masked inputs.
    """
    if phase == "explainable":
        result = phase1_batch_loss(model, config, graph, batch)
    else:
        result = phase2_batch_loss(
            model, config, graph, batch,
            constants["features_data"], constants["edge_weight_data"],
        )
    if result.loss is None:
        return result, {"loss": None}
    result.loss.backward()
    record = {"loss": result.loss.item()}
    if phase == "explainable":
        probe = result.probe
        record.update(
            khop_positions=batch.khop_positions,
            probe_grad=(
                probe.grad.copy()
                if probe is not None and probe.grad is not None
                else None
            ),
            feat_below=int((result.feature_mask.data < 0.5).sum()),
            feat_total=int(result.feature_mask.data.size),
            struct_below=int((result.structure_mask.data < 0.5).sum()),
            struct_total=int(max(result.structure_mask.data.size, 1)),
        )
    return result, record


class SESTrainer:
    """Runs the full SES pipeline of Algorithm 2 on one graph."""

    def __init__(
        self,
        graph: Graph,
        config: Optional[SESConfig] = None,
        recorder: Optional[NullRecorder] = None,
        recovery: Optional[RecoveryPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if graph.labels is None or graph.train_mask is None:
            raise ValueError("SES requires labels and split masks on the graph")
        self.graph = graph
        self.config = config or SESConfig()
        self.rng = make_rng(self.config.seed)
        if recorder is not None:
            self.recorder = recorder
            self._owns_recorder = False
        else:
            self.recorder = default_recorder(
                f"{graph.name}-{self.config.backbone}-seed{self.config.seed}"
            )
            self._owns_recorder = self.recorder.enabled
        # Health events (docs/OBSERVABILITY.md) ride along with telemetry:
        # the watchdog is active and the statistics are computed only while
        # the recorder is enabled.
        self.watchdog = NaNWatchdog(self.recorder)
        self.recorder.run_start(
            config=self.config,
            seed=self.config.seed,
            dataset=graph.name,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            backbone=self.config.backbone,
        )
        self.model = SESModel(
            graph.num_features, graph.num_classes, self.config, rng=self.rng
        )
        self.edge_index = graph.edge_index()
        self.num_nodes = graph.num_nodes
        with self.recorder.phase("setup"):
            self.khop_edges = khop_edge_index(graph, self.config.k_hops)
            self._negative_sets = sample_negative_sets(
                graph, self.config.k_hops, self.rng, max_per_node=MAX_NEGATIVES_PER_NODE
            )
            self.negative_pairs = negative_edge_index(self._negative_sets)
            self._base_edge_positions = align_base_edges(
                self.khop_edges, self.edge_index, self.num_nodes
            )
        self.stopwatch = Stopwatch()
        self.pairs: Optional[PairSets] = None
        self._frozen_feature_mask: Optional[np.ndarray] = None
        self._frozen_structure_values: Optional[np.ndarray] = None
        self._best_val = -1.0
        self._best_state: Optional[dict] = None
        self._best_readout = "masked"
        self._edge_sensitivity = np.zeros(self.khop_edges.shape[1])
        self.history = TrainingHistory()
        # Fault-tolerance state (docs/ROBUSTNESS.md): completed-epoch
        # counters drive resumable while-loops, optimizers persist across
        # snapshot/restore, and the recovery manager holds the last good
        # in-memory snapshot for rollback.
        self._completed: Dict[str, int] = {"explainable": 0, "predictive": 0}
        self._optimizers: Dict[str, Adam] = {}
        # Execution mode (docs/PERF.md, docs/PARALLEL.md), set by
        # _configure alone.  One anchor sampler partitions the node set in
        # every mode: one covering batch (full-batch; it draws nothing), B
        # anchors per batch (minibatch) or ceil(N / shards) per shard
        # (data-parallel, where a WorkerSupervisor runs the shards and
        # reduces their gradients in a fixed order).  The batch cache holds
        # extracted subgraphs keyed on anchor content so a covering batch
        # extracts once, not once per epoch.
        self._mode: Dict = {"mode": "full"}
        self._sampler = AnchorBatchSampler(
            self.num_nodes, self.num_nodes, seed=self.config.seed
        )
        self._parallel = None
        self._batch_cache = BatchCache()
        self._checkpoint_every = 0
        self._checkpoint_dir: Optional[Path] = None
        self._checkpoint_keep = 3
        self.faults = faults if faults is not None else FaultPlan.from_env()
        policy = recovery if recovery is not None else recovery_policy_from_env()
        self.recovery = (
            RecoveryManager(policy, self.recorder) if policy is not None else None
        )

    def _invalidate_batches(self) -> None:
        """Drop what embeds the negative pairs or pair sets: the cached
        subgraphs, and the constants the workers hold."""
        self._batch_cache.clear()
        if self._parallel is not None:
            self._parallel.invalidate_constants()

    # ------------------------------------------------------------------
    # Execution mode: minibatch (docs/PERF.md), data-parallel (docs/PARALLEL.md)
    # ------------------------------------------------------------------
    def _configure(
        self,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        **pool,
    ) -> None:
        """Set the execution mode: the one place that decides it.

        ``batch_size=B`` selects minibatch training and ``workers=N``
        data-parallel training over ``shards`` fixed anchor shards (default
        4); ``pool`` holds the other :class:`~repro.parallel.ParallelConfig`
        fields.  Neither leaves the trainer's mode as it is.  A trainer
        takes one mode: asking again for the mode it has is a no-op (an
        option left ``None`` matches any value), anything else raises.

        The sampler draws from its own RNG stream (never the trainer's), so
        a covering batch — ``batch_size >= num_nodes`` — consumes zero extra
        draws and reproduces the full-batch trajectory bit-for-bit.
        """
        if batch_size is not None and workers is not None:
            raise ValueError(
                "batch_size and workers are mutually exclusive; pick "
                "minibatch or parallel training, not both"
            )
        if workers is not None:
            from ..parallel import ParallelConfig, WorkerSupervisor

            options = dict(pool, shards=shards)
            config = ParallelConfig(
                workers=int(workers),
                **{key: value for key, value in options.items() if value is not None},
            )
            requested = {"mode": "parallel", "workers": config.workers}
            if shards is not None:
                requested["shards"] = config.shards
        elif batch_size is not None:
            batch_size = int(batch_size)
            if batch_size <= 0:
                raise ValueError(f"batch_size must be positive, got {batch_size}")
            requested = {"mode": "minibatch", "batch_size": batch_size}
        else:
            return
        if self._mode["mode"] != "full":
            if all(self._mode.get(key) == value for key, value in requested.items()):
                return
            raise ValueError(
                f"trainer is configured as {self._mode}; cannot switch to "
                f"{requested} (one mode per trainer)"
            )
        if workers is None:
            self._mode = requested
            self._sampler = AnchorBatchSampler(
                self.num_nodes, batch_size, seed=self.config.seed
            )
            self.recorder.emit(
                "metric",
                name="minibatch",
                batch_size=batch_size,
                num_batches=self._sampler.num_batches,
            )
            return
        self._mode = {**requested, "shards": config.shards}
        # ceil(N / shards) anchors per shard; the shard count may come out
        # below the requested one on tiny graphs.
        self._sampler = AnchorBatchSampler(
            self.num_nodes, -(-self.num_nodes // config.shards), seed=self.config.seed
        )
        self._parallel = WorkerSupervisor(
            config, init_factory=self._parallel_init, fault_plan=self.faults
        )
        self.recorder.emit(
            "metric",
            name="parallel",
            workers=config.workers,
            shards=self._sampler.num_batches,
        )

    @property
    def batch_size(self) -> Optional[int]:
        """Configured anchors per batch; ``None`` outside minibatch mode."""
        return self._mode.get("batch_size")

    def configure_parallel(
        self,
        workers: int,
        shards: Optional[int] = None,
        heartbeat_timeout: Optional[float] = None,
        max_restarts: Optional[int] = None,
    ) -> None:
        """Enable fault-tolerant data-parallel training with ``workers``.

        The shard structure (``shards`` anchor partitions, default 4) is
        fixed independently of the worker count, so the training trajectory
        is bit-identical at any ``workers``.  Every worker count, ``workers=1``
        included, runs the shards in one-BLAS-thread worker processes forked
        from a shared forkserver; ``workers=1`` is the parity reference.
        Workers start lazily at the first parallel epoch.
        """
        self._configure(
            workers=workers,
            shards=shards,
            heartbeat_timeout=heartbeat_timeout,
            max_restarts=max_restarts,
        )

    @property
    def workers(self) -> Optional[int]:
        """Configured worker count; ``None`` when not in parallel mode."""
        return self._mode.get("workers")

    def _parallel_init(self) -> Dict:
        """Pickled once per worker spawn: everything a stateless shard
        executor needs besides the per-epoch parameters and constants."""
        return {
            "graph": self.graph,
            "config": self.config,
            "khop_edges": self.khop_edges,
            "negative_pairs": self.negative_pairs,
            "seed": self.config.seed,
        }

    def shutdown_workers(self) -> None:
        """Stop any spawned worker processes (no-op outside parallel mode)."""
        if self._parallel is not None:
            self._parallel.stop_workers()

    def _optimizer(self, phase: str) -> Adam:
        """The persistent per-phase optimizer (created on first access).

        Persistence matters for resume: Adam's moments and step count are
        part of the training state, so the optimizer must be a stable object
        that snapshots can capture and restores can load back into — not a
        local recreated every call to ``train_*``.
        """
        optimizer = self._optimizers.get(phase)
        if optimizer is not None:
            return optimizer
        cfg = self.config
        params = phase_parameters(self.model, phase)
        if phase == "explainable":
            lr = cfg.learning_rate
        else:
            lr = cfg.learning_rate * PREDICTIVE_LR_SCALE
        optimizer = Adam(params, lr=lr, weight_decay=cfg.weight_decay)
        self._optimizers[phase] = optimizer
        return optimizer

    # ------------------------------------------------------------------
    # Phase 1: explainable training
    # ------------------------------------------------------------------
    def train_explainable(
        self,
        epochs: Optional[int] = None,
        snapshot_epochs: Tuple[int, ...] = (),
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainingHistory:
        """Co-train encoder and mask generator (Algorithm 2, lines 2–6).

        Resumable: the loop runs from ``self._completed["explainable"]`` to
        ``epochs``, so a trainer restored from a mid-phase snapshot continues
        where the interrupted run stopped.
        """
        epochs = epochs if epochs is not None else self.config.explainable_epochs
        if (
            self._completed["explainable"] >= epochs
            and self._frozen_structure_values is not None
        ):
            # Resumed past the end of this phase: the snapshot's frozen masks
            # are authoritative.  Recomputing them here would read the
            # *current* (possibly phase-2-refined) parameters and silently
            # change the explanations mid-pipeline.
            return self.history
        self._train_phase("explainable", epochs, set(snapshot_epochs), callback)
        self._freeze_masks()
        return self.history

    def _score_masks_eval(self) -> Tuple[np.ndarray, np.ndarray]:
        """Full-graph eval-mode mask scoring (no grad, no RNG draws)."""
        model = self.model
        model.eval()
        with no_grad():
            hidden, representation, _ = model.encoder.forward_full(
                Tensor(self.graph.features), self.edge_index, self.num_nodes
            )
            feature_mask = model.mask_generator.feature_mask(hidden)
            structure_mask = model.mask_generator.structure_mask(
                representation, self.khop_edges
            )
        return feature_mask.data.copy(), structure_mask.data.copy()

    def _freeze_masks(self) -> None:
        """Extract the trained masks once; phase 2 treats them as constants."""
        feature_mask, structure_values = self._score_masks_eval()
        self._frozen_feature_mask = feature_mask
        self._frozen_structure_values = structure_values

    def set_external_masks(
        self, feature_mask: np.ndarray, structure_values: np.ndarray
    ) -> None:
        """Inject masks from a post-hoc explainer (the ``+{epl}`` variants of
        Table 10: GNNExplainer / PGExplainer masks feeding phase 2)."""
        feature_mask = np.asarray(feature_mask, dtype=np.float64)
        structure_values = np.asarray(structure_values, dtype=np.float64).ravel()
        if feature_mask.shape != self.graph.features.shape:
            raise ValueError(
                f"feature mask shape {feature_mask.shape} != features "
                f"{self.graph.features.shape}"
            )
        if structure_values.shape[0] != self.khop_edges.shape[1]:
            raise ValueError(
                f"{structure_values.shape[0]} structure values for "
                f"{self.khop_edges.shape[1]} k-hop edges"
            )
        self._frozen_feature_mask = feature_mask
        self._frozen_structure_values = structure_values

    # ------------------------------------------------------------------
    # Pair construction (Algorithm 1)
    # ------------------------------------------------------------------
    def build_pairs(self) -> PairSets:
        """Construct positive/negative node sets from the frozen masks."""
        if self._frozen_structure_values is None:
            raise RuntimeError("run train_explainable() before build_pairs()")
        with self.recorder.phase("pairs", self.stopwatch):
            weighted = scatter_edge_values(
                self.khop_edges, self._frozen_structure_values, self.num_nodes
            )
            self.pairs = construct_pairs(
                weighted, self._negative_sets, self.config.sample_ratio, self.rng
            )
        self.recorder.pairs(
            num_anchors=len(self.pairs.anchors()),
            num_positive=int(sum(len(p) for p in self.pairs.positive.values())),
            num_negative=int(sum(len(n) for n in self.pairs.negative.values())),
            seconds=self.stopwatch.durations.get("pairs", 0.0),
        )
        return self.pairs

    # ------------------------------------------------------------------
    # Phase 2: enhanced predictive learning
    # ------------------------------------------------------------------
    def train_predictive(
        self,
        epochs: Optional[int] = None,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainingHistory:
        """Refine the encoder with the triplet objective (Algorithm 2, 8–13).

        Resumable: continues from ``self._completed["predictive"]`` just like
        :meth:`train_explainable`.
        """
        cfg = self.config
        epochs = epochs if epochs is not None else cfg.predictive_epochs
        if self.pairs is None and cfg.use_triplet:
            self.build_pairs()
        self._train_phase("predictive", epochs, set(), callback)
        if cfg.keep_best and self._best_state is not None:
            self.model.load_state_dict(self._best_state)
        return self.history

    # ------------------------------------------------------------------
    # The epoch driver: one loop for both phases and every mode
    # ------------------------------------------------------------------
    def _train_phase(
        self,
        phase: str,
        epochs: int,
        snapshot_set: set,
        callback: Optional[Callable[[int, float], None]],
    ) -> None:
        """Run ``phase`` from ``self._completed[phase]`` up to ``epochs``.

        Each epoch runs under fault injection and the recovery policy: a
        ``"retry"`` repeats the epoch, a ``"degrade"`` ends the phase.  An
        epoch is reported — one ``epoch`` event, from which the training
        metric families are derived — only once it is committed, so a
        rolled-back attempt leaves no trace.
        """
        self.watchdog.context.update(phase=phase, epoch=None)
        watch = self.watchdog if self.recorder.enabled else nullcontext()
        with self.recorder.phase(phase, self.stopwatch), watch:
            if self.recovery is not None:
                self.recovery.ensure_baseline(self)
            while self._completed[phase] < epochs:
                epoch = self._completed[phase]
                self.faults.check_crash(phase, epoch)
                status, record = self._run_epoch_guarded(
                    phase,
                    epoch,
                    lambda: self._run_epoch(phase, epoch, epochs, snapshot_set, callback),
                )
                if status == "degrade":
                    break
                if status == "ok":
                    self.recorder.epoch(phase, epoch, **record)
                    self._completed[phase] = epoch + 1
                    self._after_epoch(phase)

    def _run_epoch(
        self,
        phase: str,
        epoch: int,
        epochs: int,
        snapshot_set: set,
        callback: Optional[Callable[[int, float], None]],
    ) -> Dict:
        """One epoch of either phase in any mode; returns its epoch record.

        The mode shows in the step rule only: an optimizer step per anchor
        batch (in-process), or one step on the shard gradients the
        supervisor reduces in fixed order (data-parallel).  The batches
        come from the one anchor sampler in every mode.
        """
        self.model.train()
        self.watchdog.context["epoch"] = epoch
        batches = self._sampler.epoch_batches()
        fields = {"num_batches": len(batches)}
        if "batch_size" in self._mode:
            fields["batch_size"] = self._mode["batch_size"]
        pooled, constants = self._phase_inputs(phase, batches)
        step = self._step_per_batch if self._parallel is None else self._step_reduced
        with self.recorder.span(f"epoch{epoch}"):
            loss, records, step_fields = step(phase, epoch, batches, pooled, constants)
        fields.update(step_fields)
        return self._finish_epoch(
            phase, epoch, epochs, loss, records, fields, snapshot_set, callback
        )

    def _phase_inputs(
        self, phase: str, batches: List[np.ndarray]
    ) -> Tuple[List[Optional[tuple]], Dict]:
        """Per-batch pooled triplet pairs and the phase constants.

        Phase 1's constants are the current negative pairs.  Phase 2's are
        the full-graph masked inputs of Eq. 10, and each batch pools the
        pair sets of its own anchors.
        """
        if phase == "explainable":
            return [None] * len(batches), {"negative_pairs": self.negative_pairs}
        features, edge_weight = phase2_inputs(
            self.config, self.graph.features, self._frozen_feature_mask,
            self._frozen_structure_values, self._base_edge_positions,
        )
        constants = {
            "features_data": features.data,
            "edge_weight_data": None if edge_weight is None else edge_weight.data,
        }
        if self.config.use_triplet and self.pairs is not None:
            pooled = [
                pooled_pair_indices(self.pairs, self.num_nodes, anchors=anchors)
                for anchors in batches
            ]
        else:
            empty = np.empty(0, dtype=np.int64)
            pooled = [(empty,) * 5] * len(batches)
        return pooled, constants

    def _step_per_batch(
        self,
        phase: str,
        epoch: int,
        batches: List[np.ndarray],
        pooled: List[Optional[tuple]],
        constants: Dict,
    ) -> Tuple[float, List[Dict], Dict]:
        """In-process step rule: one optimizer step per anchor batch."""
        optimizer = self._optimizer(phase)
        hops = self.model.encoder.num_layers
        records: List[Dict] = []
        for index, anchors in enumerate(batches):
            batch = cached_batch(
                self._batch_cache, phase, self.graph, anchors, hops,
                self.khop_edges, self.negative_pairs, pooled[index],
            )
            optimizer.zero_grad()
            with self.recorder.span(f"batch{index}"):
                result, record = batch_backward(
                    self.model, self.config, self.graph, phase, batch, constants
                )
            if record["loss"] is None:
                # Nothing to optimise in this batch (no train anchors and no
                # pair sets): skip the step rather than feed an empty loss
                # to the optimizer.
                continue
            optimizer.step()
            records.append(record)
            if self.recorder.enabled:
                self._observe_batch(phase, epoch, result)
        losses = [record["loss"] for record in records]
        return (float(np.mean(losses)) if losses else 0.0), records, {}

    def _step_reduced(
        self,
        phase: str,
        epoch: int,
        batches: List[np.ndarray],
        pooled: List[Optional[tuple]],
        constants: Dict,
    ) -> Tuple[float, List[Dict], Dict]:
        """Data-parallel step rule: one step per epoch on reduced gradients.

        Workers compute the per-shard records and gradients under derived
        dropout streams (docs/PARALLEL.md); the trajectory depends only on
        the shard structure, never on the worker count or restarts.
        """
        supervisor = self._parallel
        params = phase_parameters(self.model, phase)
        outcome = supervisor.run_epoch(
            phase,
            epoch,
            batches,
            params=[param.data.copy() for param in params],
            constants=constants,
            shard_extras=pooled,
        )
        optimizer = self._optimizer(phase)
        optimizer.zero_grad()
        if outcome.num_contributing:
            for param, grad in zip(params, outcome.grads):
                param.grad = grad
            optimizer.step()
        return outcome.loss, outcome.records, {"num_workers": supervisor.alive_workers}

    def _emit_health(self, event: str, phase: str, epoch: int, payload, **labels) -> None:
        if payload is not None:
            self.recorder.emit(event, phase=phase, epoch=epoch, **labels, **payload)

    def _observe_batch(self, phase: str, epoch: int, result) -> None:
        """Per-batch health events of the in-process step rule."""
        if phase == "explainable":
            masks = (("feature", result.feature_mask), ("structure", result.structure_mask))
            for name, mask in masks:
                self._emit_health("mask_health", phase, epoch, mask_health(mask.data), mask=name)
            activations = (("hidden", result.hidden), ("logits", result.logits))
        else:
            activations = (
                ("representation", result.representation), ("logits", result.logits)
            )
        for name, tensor in activations:
            self._emit_health(
                "activation_stats", phase, epoch, activation_stats(tensor.data), tensor=name
            )
        if phase == "predictive" and result.anchor is not None:
            payload = triplet_margin(
                np.linalg.norm(result.anchor.data - result.positive.data, axis=1),
                np.linalg.norm(result.anchor.data - result.negative.data, axis=1),
                self.config.margin,
            )
            self._emit_health("triplet_margin", phase, epoch, payload)

    def _finish_epoch(
        self,
        phase: str,
        epoch: int,
        epochs: int,
        loss: float,
        records: List[Dict],
        fields: Dict,
        snapshot_set: set,
        callback: Optional[Callable[[int, float], None]],
    ) -> Dict:
        """The bookkeeping every epoch shares, whatever the mode.

        Folds the batch records in batch order (phase-1 edge sensitivity and
        mask sparsity), appends the history, validates (phase 2 also keeps
        the best state), snapshots the masks, calls ``callback`` and returns
        the epoch record the driver reports once the epoch is committed.
        """
        graph, history = self.graph, self.history
        if self.recorder.enabled:
            trained = self.model if phase == "explainable" else self.model.encoder
            named = list(trained.named_parameters())
            self._emit_health("grad_stats", phase, epoch, grad_stats(named))
            self._emit_health("param_stats", phase, epoch, param_stats(named))
        has_val = graph.val_mask is not None and graph.val_mask.any()
        val_accuracy = None
        if phase == "explainable":
            if epoch >= epochs // 2:
                for record in records:
                    if record["probe_grad"] is not None:
                        # Negative gradient: making this edge heavier lowers
                        # the masked classification loss -> it is important.
                        self._edge_sensitivity[record["khop_positions"]] += np.maximum(
                            -record["probe_grad"], 0.0
                        )
            history.phase1_loss.append(loss)
            if has_val:
                val_accuracy = self._evaluate_plain(graph.val_mask)
                history.phase1_val_accuracy.append(val_accuracy)
            counts = {
                key: sum(record[key] for record in records)
                for key in ("feat_below", "feat_total", "struct_below", "struct_total")
            }
            fields = {
                "feature_mask_sparsity": counts["feat_below"] / max(counts["feat_total"], 1),
                "structure_mask_sparsity": (
                    counts["struct_below"] / max(counts["struct_total"], 1)
                ),
                **fields,
            }
        else:
            history.phase2_loss.append(loss)
            if has_val:
                masked_val = self._evaluate_masked(graph.val_mask)
                plain_val = self._evaluate_plain(graph.val_mask)
                val_accuracy = max(masked_val, plain_val)
                history.phase2_val_accuracy.append(val_accuracy)
                if self.config.keep_best and val_accuracy > self._best_val:
                    self._best_val = val_accuracy
                    self._best_state = self.model.state_dict()
                    self._best_readout = "masked" if masked_val >= plain_val else "plain"
        if epoch in snapshot_set:
            # Batches see only slices of the masks, so snapshots come from a
            # full eval-mode scoring pass (no RNG draws: parity holds).
            history.mask_snapshots[epoch] = self._score_masks_eval()
        if callback is not None:
            callback(epoch, loss)
        return {"loss": loss, "val_accuracy": val_accuracy, **fields}

    # ------------------------------------------------------------------
    # Fault tolerance: guarded epochs, snapshots, resume
    # ------------------------------------------------------------------
    def _run_epoch_guarded(
        self, phase: str, epoch: int, body: Callable[[], Dict]
    ) -> Tuple[str, Optional[Dict]]:
        """Run one epoch under fault injection and the recovery policy.

        Returns ``(status, record)``.  The status is ``"ok"`` (epoch
        completed; the record, timed in ``seconds``, is the ``epoch``
        event payload), ``"retry"`` (rolled back to the last good snapshot
        with the learning rate backed off — run the same epoch again) or
        ``"degrade"`` (rolled back — end the phase here); a rolled-back
        epoch has no record.  Without a recovery manager, anomalies keep the
        historical fail-as-it-lies behaviour.
        """
        watchdog_before = self._watchdog_events()
        start = time.perf_counter()
        with self.faults.nan_injection(phase, epoch):
            record = body()
        loss_value = float(record["loss"])
        anomaly = None
        if not np.isfinite(loss_value):
            anomaly = f"non-finite loss ({loss_value!r})"
        elif self._watchdog_events() > watchdog_before:
            anomaly = "NaN watchdog recorded a numerical_event"
        elif self.recovery is not None and not self._params_finite():
            anomaly = "non-finite parameter after optimizer step"
        if anomaly is None or self.recovery is None:
            record["seconds"] = time.perf_counter() - start
            return "ok", record
        return self.recovery.on_anomaly(self, phase, epoch, anomaly), None

    def _watchdog_events(self) -> int:
        return len(self.watchdog.anomalies) + self.watchdog.suppressed

    def _params_finite(self) -> bool:
        return all(np.all(np.isfinite(p.data)) for p in self.model.parameters())

    def _after_epoch(self, phase: str) -> None:
        """Epoch-boundary bookkeeping: recovery snapshot + disk checkpoint."""
        if self.recovery is not None:
            self.recovery.note_good(self)
        if (
            self._checkpoint_every > 0
            and self._checkpoint_dir is not None
            and self._completed[phase] % self._checkpoint_every == 0
        ):
            self.save_snapshot_to(self._checkpoint_dir, phase=phase)

    def snapshot(self) -> TrainingSnapshot:
        """Capture the full mutable training state (see :mod:`repro.resilience`)."""
        return capture_training_snapshot(self)

    def restore(self, snapshot: TrainingSnapshot, strict_config: bool = True) -> None:
        """Load a snapshot captured on an identically-configured trainer."""
        restore_training_snapshot(self, snapshot, strict_config=strict_config)

    def resume(
        self,
        source: Union[str, Path, TrainingSnapshot],
        strict_config: bool = True,
    ) -> TrainingSnapshot:
        """Resume from a snapshot object, a ``.npz`` file, or a directory.

        A directory resolves through
        :func:`~repro.resilience.find_latest_snapshot`: the newest *valid*
        snapshot wins, so a checkpoint corrupted by a mid-write crash falls
        back to its predecessor.
        """
        if isinstance(source, TrainingSnapshot):
            snapshot = source
        else:
            path = Path(source)
            if path.is_dir():
                snapshot, _ = find_latest_snapshot(path)
            else:
                snapshot = load_snapshot(path)
        self.restore(snapshot, strict_config=strict_config)
        return snapshot

    def save_snapshot_to(self, directory: Union[str, Path], phase: str = "manual") -> Path:
        """Write a checkpoint into ``directory`` and update its LATEST pointer."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        name = (
            f"snap-{phase}-{self._completed.get(phase, 0):04d}.npz"
            if phase in self._completed
            else f"snap-{phase}.npz"
        )
        start = time.perf_counter()
        path = save_snapshot(self.snapshot(), directory / name)
        write_latest_pointer(directory, path.name)
        self.recorder.emit(
            "snapshot_event",
            phase=phase,
            completed=dict(self._completed),
            path=str(path),
            seconds=time.perf_counter() - start,
        )
        self._prune_checkpoints(directory)
        return path

    def _prune_checkpoints(self, directory: Path) -> None:
        keep = self._checkpoint_keep
        if keep <= 0:
            return
        snapshots = sorted(
            directory.glob("snap-*.npz"),
            key=lambda p: (os.path.getmtime(p), p.name),
        )
        for stale in snapshots[:-keep]:
            stale.unlink()

    # ------------------------------------------------------------------
    # Evaluation & outputs
    # ------------------------------------------------------------------
    def _readout_logits(self, readout: str, features: Optional[np.ndarray] = None) -> np.ndarray:
        if features is None:
            features = self.graph.features
        return readout_logits(
            self.model, self.config, readout, np.asarray(features, dtype=np.float64),
            self.edge_index, self._frozen_feature_mask, self._frozen_structure_values,
            self._base_edge_positions,
        )

    def _evaluate_plain(self, mask: np.ndarray) -> float:
        logits = self._readout_logits("plain")
        return accuracy(logits_to_predictions(logits), self.graph.labels, mask=mask)

    def _evaluate_masked(self, mask: np.ndarray) -> float:
        logits = self._readout_logits("masked")
        return accuracy(logits_to_predictions(logits), self.graph.labels, mask=mask)

    def active_readout(self) -> str:
        """Which forward pass produces final predictions: the masked forward
        of Eq. 10 or the plain encoder, whichever phase 2 validated best
        (both readouts share the refined encoder)."""
        return self._best_readout

    def final_logits(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Logits of the selected readout, optionally from perturbed features."""
        return self._readout_logits(self.active_readout(), features)

    def predict(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Predicted class per node; supports perturbed features for the
        Fidelity+ protocol (Eq. 14)."""
        return logits_to_predictions(self.final_logits(features))

    def hidden_embeddings(self) -> np.ndarray:
        """128-d output representations used for visualisation (Fig. 5)."""
        masked_features, edge_weight = phase2_inputs(
            self.config, self.graph.features, self._frozen_feature_mask,
            self._frozen_structure_values, self._base_edge_positions,
        )
        return eval_forward(self.model, masked_features, self.edge_index, edge_weight)[1]

    def explanations(self) -> Explanations:
        """Assemble ``E_feat`` and ``E_sub`` from the frozen masks plus the
        accumulated edge sensitivity (§4.2; DESIGN.md §5)."""
        if self._frozen_feature_mask is None or self._frozen_structure_values is None:
            raise RuntimeError("train_explainable() must run before explanations()")
        return assemble_explanations(
            self.config, self.graph.features, self.khop_edges,
            self._frozen_feature_mask, self._frozen_structure_values,
            self._edge_sensitivity,
        )

    def fit(
        self,
        snapshot_epochs: Tuple[int, ...] = (),
        explainable_epochs: Optional[int] = None,
        predictive_epochs: Optional[int] = None,
        resume_from: Optional[Union[str, Path, TrainingSnapshot]] = None,
        checkpoint_every: int = 0,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_keep: int = 3,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> SESResult:
        """Run the full Algorithm 2 pipeline and collect results.

        ``resume_from`` accepts a snapshot, a ``.npz`` path, or a checkpoint
        directory (newest valid snapshot wins); the resumed run reproduces
        the uninterrupted one bit-for-bit (docs/ROBUSTNESS.md).
        ``checkpoint_every=N`` writes a full-state snapshot every N completed
        epochs into ``checkpoint_dir`` (keeping the newest
        ``checkpoint_keep``; ``0`` keeps all).
        ``batch_size=B`` trains both phases over neighbor-sampled anchor
        minibatches (docs/PERF.md); ``batch_size >= num_nodes`` reproduces
        the full-batch trajectory bit-for-bit, and resuming a minibatch run
        restores the sampler's RNG alongside the trainer state.
        ``workers=N`` trains both phases data-parallel over ``shards`` fixed
        anchor shards (docs/PARALLEL.md); the trajectory is bit-identical at
        any worker count, and worker processes are shut down when fit
        returns.  Mutually exclusive with ``batch_size``.
        """
        self._configure(batch_size=batch_size, workers=workers, shards=shards)
        if checkpoint_every > 0:
            if checkpoint_dir is None:
                checkpoint_dir = Path("results") / "checkpoints" / (
                    f"{self.graph.name}-{self.config.backbone}-seed{self.config.seed}"
                )
            self._checkpoint_every = int(checkpoint_every)
            self._checkpoint_dir = Path(checkpoint_dir)
            self._checkpoint_keep = int(checkpoint_keep)
        if resume_from is not None:
            self.resume(resume_from)
        try:
            self.train_explainable(
                epochs=explainable_epochs, snapshot_epochs=snapshot_epochs
            )
            if self.pairs is None:
                # Resume restores the pair sets; rebuilding them would consume
                # RNG draws the uninterrupted run never made.
                self.build_pairs()
            self.train_predictive(epochs=predictive_epochs)
        finally:
            # Worker processes must not outlive the fit that spawned them —
            # a SimulatedCrash (or any exception) would otherwise leak idle
            # subprocesses into the parent.  Respawn on a later fit is lazy.
            self.shutdown_workers()
        logits = self.final_logits()
        predictions = logits_to_predictions(logits)
        graph = self.graph
        test_accuracy = accuracy(predictions, graph.labels, mask=graph.test_mask)
        val_accuracy = (
            accuracy(predictions, graph.labels, mask=graph.val_mask)
            if graph.val_mask is not None and graph.val_mask.any()
            else float("nan")
        )
        self.recorder.run_end(
            test_accuracy=test_accuracy,
            val_accuracy=None if np.isnan(val_accuracy) else val_accuracy,
            readout=self.active_readout(),
            total_seconds=self.stopwatch.total(),
            timings=dict(self.stopwatch.durations),
        )
        if self._owns_recorder:
            self.recorder.close()
        return SESResult(
            test_accuracy=test_accuracy,
            val_accuracy=val_accuracy,
            history=self.history,
            explanations=self.explanations(),
            timings=dict(self.stopwatch.durations),
            logits=logits,
            hidden=self.hidden_embeddings(),
            predictions=predictions,
        )
