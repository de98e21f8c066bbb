"""Full-state training snapshots: everything a mid-run kill would destroy.

A :class:`TrainingSnapshot` captures the *complete* state of a
:class:`~repro.core.ses.SESTrainer` at an epoch boundary — not just model
parameters but every piece of mutable state the two-phase schedule threads
between epochs:

* model + mask-generator parameters, and the tracked best-validation state;
* each phase optimizer's internal state (Adam moments + step count, so bias
  correction resumes mid-stream instead of restarting at step 1);
* the shared numpy ``Generator`` bit-generator state (dropout, negative
  resampling and Algorithm-1 sampling all draw from one stream);
* phase/epoch counters, the training history, the accumulated edge
  sensitivity, frozen masks, negative sets and Algorithm-1 pair sets;
* the NaN watchdog's anomaly log;
* the training graph (:func:`repro.graph.pack_graph`'s arrays) and the
  k-hop edge list, so a snapshot is self-contained: serving reads it with
  no dataset generator and no trainer.

Restoring a snapshot into a freshly-constructed trainer provably reproduces
the uninterrupted run bit-for-bit (``tests/resilience/``), because every
subsequent stochastic draw and parameter update depends only on the state
listed above.

On disk a snapshot is a single ``.npz``: one entry per array plus a
``__manifest__`` JSON blob carrying scalars, the config hash, the RNG state,
the execution record (mode, sizes, sampler state) and a per-array checksum
table.  Only the current format version is read.  Writes are atomic
(:func:`repro.resilience.storage.atomic_savez`, members stored rather than
deflated, while deflated snapshots from earlier versions still load) and
loads verify every checksum, so truncation or bit corruption is rejected with a
:class:`~repro.resilience.storage.CheckpointError` instead of resuming from
garbage.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..graph import negative_edge_index, pack_graph
from ..obs.events import config_hash, jsonable
from ..utils.seed import capture_rng_state, restore_rng_state
from .storage import (
    CheckpointError,
    PathLike,
    atomic_savez,
    atomic_write_text,
    checksum_manifest,
    open_npz,
    verify_checksums,
)

SNAPSHOT_FORMAT = "ses-training-snapshot"
SNAPSHOT_VERSION = 2
LATEST_POINTER = "LATEST"


@dataclass
class TrainingSnapshot:
    """A trainer's full mutable state: JSON manifest + named arrays."""

    manifest: Dict = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def completed(self) -> Dict[str, int]:
        """Completed epoch count per phase."""
        return dict(self.manifest.get("completed", {}))

    @property
    def config_fingerprint(self) -> str:
        return self.manifest.get("config_hash", "")

    def section(self, prefix: str) -> Dict[str, np.ndarray]:
        """The arrays stored under ``prefix/``, keyed without the prefix."""
        start = len(prefix) + 1
        return {
            key[start:]: value
            for key, value in self.arrays.items()
            if key.startswith(prefix + "/")
        }

    def describe(self) -> str:
        done = self.completed
        return (
            f"snapshot(config={self.config_fingerprint}, "
            f"explainable={done.get('explainable', 0)}, "
            f"predictive={done.get('predictive', 0)})"
        )


# ----------------------------------------------------------------------
# Packing helpers (dict-of-int-arrays <-> offset/value arrays)
# ----------------------------------------------------------------------
def _pack_int_map(mapping: Mapping[int, np.ndarray]) -> Dict[str, np.ndarray]:
    """Flatten ``{node: int array}`` into keys/offsets/values arrays."""
    keys = np.array(sorted(mapping), dtype=np.int64)
    lengths = np.array([len(mapping[int(k)]) for k in keys], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    if keys.size:
        chunks = [np.asarray(mapping[int(k)], dtype=np.int64).ravel() for k in keys]
        values = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    else:
        values = np.empty(0, dtype=np.int64)
    return {"keys": keys, "offsets": offsets, "values": values}


def _unpack_int_map(
    keys: np.ndarray, offsets: np.ndarray, values: np.ndarray
) -> Dict[int, np.ndarray]:
    return {
        int(key): values[offsets[i]: offsets[i + 1]].astype(np.int64)
        for i, key in enumerate(keys)
    }


def _split_optimizer_state(state: Mapping) -> Tuple[Dict, Dict[str, List[np.ndarray]]]:
    """Separate scalar hyper-state from per-parameter array slot lists."""
    meta: Dict = {}
    slots: Dict[str, List[np.ndarray]] = {}
    for key, value in state.items():
        if isinstance(value, list):
            slots[key] = value
        else:
            meta[key] = value
    return meta, slots


def _execution(trainer) -> Dict:
    """The trainer's execution record: mode, its sizes and its sampler state.

    Minibatch and parallel runs draw their anchor batches from a sampler
    whose RNG stream and cursor must resume bit-identically alongside the
    trainer's generator; full-batch's one covering batch draws nothing.
    """
    record = dict(trainer._mode)
    if record["mode"] != "full":
        record["sampler"] = trainer._sampler.state_dict()
    return record


def _describe_execution(sizes: Mapping) -> str:
    if sizes["mode"] == "full":
        return "non-parallel full-batch run"
    detail = ", ".join(f"{k}={v}" for k, v in sizes.items() if k != "mode")
    return f"{sizes['mode']} run with {detail}"


def _check_format(manifest: Mapping, where: str) -> None:
    """Refuse anything but a current-version training snapshot, in one line."""
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise CheckpointError(
            f"{where} is not a training snapshot (format={manifest.get('format')!r})"
        )
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise CheckpointError(
            f"{where} has format version {manifest.get('version')}; this build "
            f"reads version {SNAPSHOT_VERSION} only"
        )


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def capture_training_snapshot(trainer) -> TrainingSnapshot:
    """Copy every piece of a trainer's mutable state into a snapshot.

    Pure read: consumes no RNG draws and mutates nothing, so capturing at an
    epoch boundary cannot perturb the run it protects.
    """
    arrays: Dict[str, np.ndarray] = {}
    manifest: Dict = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "config": jsonable(trainer.config),
        "config_hash": config_hash(trainer.config),
        "completed": {k: int(v) for k, v in trainer._completed.items()},
        "rng_state": capture_rng_state(trainer.rng),
        "best_val": float(trainer._best_val),
        "best_readout": trainer._best_readout,
        "execution": _execution(trainer),
    }
    # The graph is never mutated, so its arrays are referenced, not copied.
    for name, value in pack_graph(trainer.graph).items():
        arrays[f"graph/{name}"] = value
    arrays["khop/edges"] = trainer.khop_edges

    for name, value in trainer.model.state_dict().items():
        arrays[f"model/{name}"] = value  # state_dict already copies

    optim_meta: Dict[str, Dict] = {}
    for phase, optimizer in trainer._optimizers.items():
        meta, slots = _split_optimizer_state(optimizer.state_dict())
        meta["slot_counts"] = {key: len(values) for key, values in slots.items()}
        optim_meta[phase] = meta
        for key, values in slots.items():
            for i, array in enumerate(values):
                arrays[f"optim/{phase}/{key}/{i}"] = array
    manifest["optimizers"] = optim_meta

    manifest["has_best"] = trainer._best_state is not None
    if trainer._best_state is not None:
        for name, value in trainer._best_state.items():
            arrays[f"best/{name}"] = value.copy()

    manifest["has_frozen_feature"] = trainer._frozen_feature_mask is not None
    if trainer._frozen_feature_mask is not None:
        arrays["frozen/feature_mask"] = trainer._frozen_feature_mask.copy()
    manifest["has_frozen_structure"] = trainer._frozen_structure_values is not None
    if trainer._frozen_structure_values is not None:
        arrays["frozen/structure_values"] = trainer._frozen_structure_values.copy()

    arrays["sens/edge_sensitivity"] = trainer._edge_sensitivity.copy()

    for part, packed in _pack_int_map(trainer._negative_sets).items():
        arrays[f"neg/{part}"] = packed

    manifest["has_pairs"] = trainer.pairs is not None
    if trainer.pairs is not None:
        for side in ("positive", "negative"):
            packed = _pack_int_map(getattr(trainer.pairs, side))
            for part, array in packed.items():
                arrays[f"pairs/{side}/{part}"] = array

    history = trainer.history
    for name in ("phase1_loss", "phase1_val_accuracy", "phase2_loss", "phase2_val_accuracy"):
        arrays[f"hist/{name}"] = np.asarray(getattr(history, name), dtype=np.float64)
    manifest["mask_snapshot_epochs"] = sorted(int(e) for e in history.mask_snapshots)
    for epoch, (feature, structure) in history.mask_snapshots.items():
        arrays[f"msnap/{int(epoch)}/feature"] = feature.copy()
        arrays[f"msnap/{int(epoch)}/structure"] = structure.copy()

    manifest["monitor"] = {"watchdog": trainer.watchdog.state_dict()}

    return TrainingSnapshot(manifest=manifest, arrays=arrays)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def restore_training_snapshot(
    trainer, snapshot: TrainingSnapshot, strict_config: bool = True
) -> None:
    """Load a snapshot into a trainer built from the same config and graph.

    ``strict_config=True`` (the default, and what ``--resume`` uses) refuses
    loudly when the snapshot's config hash differs from the trainer's —
    resuming a run under different hyper-parameters silently produces a
    third trajectory that matches neither, which is exactly the failure mode
    checkpointing exists to prevent.  The graph (split included) and the
    k-hop edge list must match array for array.
    """
    # Lazy imports: repro.core imports this module, so importing core
    # symbols at module level would create an import cycle.
    from ..core.pairs import PairSets
    from ..core.ses import TrainingHistory

    manifest, arrays = snapshot.manifest, snapshot.arrays
    _check_format(manifest, "snapshot")
    own_hash = config_hash(trainer.config)
    if manifest.get("config_hash") != own_hash:
        message = (
            f"snapshot config hash {manifest.get('config_hash')} does not match "
            f"trainer config hash {own_hash}; resuming under different "
            "hyper-parameters would not reproduce either run"
        )
        if strict_config:
            raise CheckpointError(message)
    expected = {f"graph/{k}": v for k, v in pack_graph(trainer.graph).items()}
    expected["khop/edges"] = trainer.khop_edges
    extra = sorted(key for key in arrays if key.startswith("graph/") and key not in expected)
    for name in list(expected) + extra:
        if not np.array_equal(expected.get(name), arrays.get(name)):
            raise CheckpointError(
                f"snapshot array {name!r} differs from the trainer's: the "
                "snapshot was taken on another graph, split or k-hop expansion"
            )

    execution = manifest["execution"]
    sizes = {k: v for k, v in execution.items() if k != "sampler"}
    # A full-batch trainer adopts the snapshot's record; any other
    # difference would resume a different trajectory.
    if trainer._mode["mode"] == "full":
        trainer._configure(**{k: v for k, v in sizes.items() if k != "mode"})
    if trainer._mode != sizes:
        raise CheckpointError(
            f"snapshot is from a {_describe_execution(sizes)}; trainer is "
            f"configured for a {_describe_execution(trainer._mode)} — resuming "
            "it that way would not reproduce either trajectory"
        )
    if "sampler" in execution:
        trainer._sampler.load_state_dict(execution["sampler"])

    trainer.model.load_state_dict(snapshot.section("model"))

    snapshot_optimizers = manifest.get("optimizers", {})
    for phase in list(trainer._optimizers):
        if phase not in snapshot_optimizers:
            # The snapshot predates this phase (e.g. rolling back from phase 2
            # into a phase-1 snapshot): forget the optimizer so the next
            # access creates a fresh one, as an uninterrupted run would.
            del trainer._optimizers[phase]
    for phase, meta in snapshot_optimizers.items():
        # Load into the *existing* instance when there is one — epoch loops
        # hold no optimizer locals, but identity-stable optimizers keep any
        # external references valid across rollbacks.
        optimizer = trainer._optimizer(phase)
        state = {k: v for k, v in meta.items() if k != "slot_counts"}
        for key, count in meta.get("slot_counts", {}).items():
            state[key] = [arrays[f"optim/{phase}/{key}/{i}"] for i in range(int(count))]
        optimizer.load_state_dict(state)

    restore_rng_state(trainer.rng, manifest["rng_state"])
    # Restored negative/pair sets may not match previously cached subgraphs
    # or the constants the workers hold.
    trainer._invalidate_batches()
    trainer._completed = {k: int(v) for k, v in manifest["completed"].items()}
    trainer._best_val = float(manifest["best_val"])
    trainer._best_readout = manifest["best_readout"]
    if manifest.get("has_best"):
        trainer._best_state = {
            key: value.copy() for key, value in snapshot.section("best").items()
        }
    else:
        trainer._best_state = None

    trainer._frozen_feature_mask = (
        arrays["frozen/feature_mask"].copy()
        if manifest.get("has_frozen_feature")
        else None
    )
    trainer._frozen_structure_values = (
        arrays["frozen/structure_values"].copy()
        if manifest.get("has_frozen_structure")
        else None
    )
    trainer._edge_sensitivity = arrays["sens/edge_sensitivity"].copy()

    trainer._negative_sets = _unpack_int_map(**snapshot.section("neg"))
    trainer.negative_pairs = negative_edge_index(trainer._negative_sets)

    if manifest.get("has_pairs"):
        trainer.pairs = PairSets(
            positive=_unpack_int_map(**snapshot.section("pairs/positive")),
            negative=_unpack_int_map(**snapshot.section("pairs/negative")),
        )
    else:
        trainer.pairs = None

    history = TrainingHistory(
        phase1_loss=[float(x) for x in arrays["hist/phase1_loss"]],
        phase1_val_accuracy=[float(x) for x in arrays["hist/phase1_val_accuracy"]],
        phase2_loss=[float(x) for x in arrays["hist/phase2_loss"]],
        phase2_val_accuracy=[float(x) for x in arrays["hist/phase2_val_accuracy"]],
    )
    for epoch in manifest.get("mask_snapshot_epochs", []):
        history.mask_snapshots[int(epoch)] = (
            arrays[f"msnap/{int(epoch)}/feature"].copy(),
            arrays[f"msnap/{int(epoch)}/structure"].copy(),
        )
    trainer.history = history

    # A snapshot written by a trainer without a watchdog carries an empty
    # ``monitor`` record.
    watchdog_state = manifest.get("monitor", {}).get("watchdog")
    if watchdog_state is not None:
        trainer.watchdog.load_state_dict(watchdog_state)


# ----------------------------------------------------------------------
# Disk format
# ----------------------------------------------------------------------
def save_snapshot(snapshot: TrainingSnapshot, path: PathLike) -> Path:
    """Write a snapshot atomically with per-array checksums in the manifest."""
    manifest = dict(snapshot.manifest)
    manifest["checksums"] = checksum_manifest(snapshot.arrays)
    blob = np.frombuffer(
        json.dumps(jsonable(manifest), sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    return atomic_savez(path, __manifest__=blob, **snapshot.arrays)


def load_snapshot(path: PathLike) -> TrainingSnapshot:
    """Read and fully verify a snapshot; :class:`CheckpointError` on damage
    or on any format version but the current one."""
    with open_npz(path, what="training snapshot") as archive:
        if "__manifest__" not in archive.files:
            raise CheckpointError(f"training snapshot at {path} has no manifest")
        try:
            manifest = json.loads(bytes(archive["__manifest__"]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"training snapshot at {path} has an unreadable manifest: {error}"
            ) from error
        arrays = {key: archive[key] for key in archive.files if key != "__manifest__"}
    _check_format(manifest, str(path))
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict):
        raise CheckpointError(f"training snapshot at {path} has no checksum table")
    verify_checksums(arrays, checksums, path)
    return TrainingSnapshot(manifest=manifest, arrays=arrays)


def write_latest_pointer(directory: PathLike, snapshot_name: str) -> None:
    """Record the most recent snapshot filename (atomic text write)."""
    atomic_write_text(Path(directory) / LATEST_POINTER, snapshot_name + "\n")


def _is_file_name(name: str) -> bool:
    """Whether ``name`` names a file directly inside a directory."""
    return os.path.basename(name) == name and name not in ("", ".", "..")


def snapshot_candidates(directory: PathLike) -> Tuple[Optional[Path], List[Path]]:
    """``(pointed, candidates)``: the file ``LATEST`` names (``None`` without
    a usable pointer), then every ``*.npz`` newest-first after it.

    A pointer that is not a bare file name (absolute, ``..``, a subdirectory)
    leads out of ``directory``: it is stale, raises a :class:`RuntimeWarning`
    and names no candidate.  A snapshot the pruner deletes between listing
    and ``stat`` is dropped instead of raising ``FileNotFoundError``.
    """
    directory = Path(directory)
    try:
        name = (directory / LATEST_POINTER).read_text(encoding="utf-8").strip()
    except OSError:
        name = ""
    pointed: Optional[Path] = None
    if name and _is_file_name(name):
        pointed = directory / name
    elif name:
        warnings.warn(
            f"LATEST pointer in {directory} names {name!r}, which is not a "
            "file name in that directory; falling back to the newest snapshot",
            RuntimeWarning,
            stacklevel=3,
        )
    keyed: List[Tuple[float, str, Path]] = []
    for path in directory.glob("*.npz"):
        try:
            keyed.append((os.path.getmtime(path), path.name, path))
        except OSError:
            continue  # deleted between listing and stat (pruner race)
    keyed.sort(reverse=True)
    candidates = [] if pointed is None else [pointed]
    candidates.extend(path for _, _, path in keyed if path != pointed)
    return pointed, candidates


def find_latest_snapshot(directory: PathLike) -> Tuple[TrainingSnapshot, Path]:
    """Locate and load the newest *valid* snapshot in ``directory``.

    Tries the :func:`snapshot_candidates` in order.  Corrupt or truncated
    candidates are skipped (with their failure recorded in the final error
    message if nothing loads), so a crash during the most recent save falls
    back to the previous snapshot instead of aborting.  A stale ``LATEST``
    pointer — one naming a deleted or damaged snapshot — falls back the same
    way but raises a :class:`RuntimeWarning`, because a pointer that
    disagrees with the directory usually means a promotion went wrong and
    hot-reload consumers should know they are serving a fallback.
    """
    directory = Path(directory)
    pointed, candidates = snapshot_candidates(directory)
    failures: List[str] = []
    for path in candidates:
        try:
            snapshot = load_snapshot(path), path
        except CheckpointError as error:
            failures.append(str(error))
            continue
        if failures and pointed is not None and path != pointed:
            warnings.warn(
                f"LATEST pointer in {directory} names {pointed.name!r} "
                f"which failed to load ({failures[0]}); falling back to "
                f"{path.name!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        return snapshot
    detail = ("; ".join(failures)) or "no snapshot files present"
    raise CheckpointError(f"no usable snapshot under {directory}: {detail}")
