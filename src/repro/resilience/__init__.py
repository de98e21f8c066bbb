"""repro.resilience — fault-tolerant training runtime (docs/ROBUSTNESS.md).

Four pieces, layered bottom-up:

* :mod:`~repro.resilience.storage` — :class:`CheckpointError`, atomic
  ``.npz`` writes (tmp → fsync → rename) and per-array checksums; the
  durability substrate shared with :mod:`repro.io`.
* :mod:`~repro.resilience.snapshot` — :class:`TrainingSnapshot`: the *full*
  trainer state (parameters, Adam moments, RNG stream, phase/epoch
  counters, best-state, frozen masks, pair sets, history), with
  checksummed save/load and :func:`find_latest_snapshot` fallback.
  Restoring a snapshot reproduces the uninterrupted run bit-for-bit.
* :mod:`~repro.resilience.policy` — :class:`RecoveryPolicy` /
  :class:`RecoveryManager`: rollback to the last good snapshot on NaN or
  divergence, learning-rate backoff, bounded retries, then graceful
  degradation to frozen-mask phase-2-only training.
* :mod:`~repro.resilience.faults` — :class:`FaultPlan` (``REPRO_FAULTS``)
  injecting :class:`SimulatedCrash` and NaN poisons; the harness the
  crash-equivalence suite drives.
"""

from .faults import FaultPlan, FaultSpec, SimulatedCrash
from .policy import (
    RecoveryManager,
    RecoveryPolicy,
    TrainingDivergedError,
    recovery_policy_from_env,
)
from .snapshot import (
    LATEST_POINTER,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    TrainingSnapshot,
    capture_training_snapshot,
    find_latest_snapshot,
    load_snapshot,
    restore_training_snapshot,
    save_snapshot,
    write_latest_pointer,
)
from .storage import (
    CheckpointError,
    array_checksum,
    atomic_savez,
    atomic_write_text,
    checksum_manifest,
    open_npz,
    verify_checksums,
)

__all__ = [
    "CheckpointError",
    "array_checksum",
    "atomic_savez",
    "atomic_write_text",
    "checksum_manifest",
    "open_npz",
    "verify_checksums",
    "TrainingSnapshot",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "LATEST_POINTER",
    "capture_training_snapshot",
    "restore_training_snapshot",
    "save_snapshot",
    "load_snapshot",
    "find_latest_snapshot",
    "write_latest_pointer",
    "RecoveryPolicy",
    "RecoveryManager",
    "TrainingDivergedError",
    "recovery_policy_from_env",
    "FaultPlan",
    "FaultSpec",
    "SimulatedCrash",
]
