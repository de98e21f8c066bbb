"""Automated rollback-and-retry for numerically fragile training.

Mask-learning objectives like SES's (and GNNExplainer/PGExplainer's) are
optimization-fragile: sparsity/entropy pressure can drive the mask scorer
into saturating saddle points where a gradient spike turns the whole run to
NaN.  Without recovery, a blow-up in epoch 280 of 300 throws away the run.

The policy implemented here is the classical spike-recovery loop:

1. **snapshot** — after every good epoch the :class:`RecoveryManager` keeps
   an in-memory :class:`~repro.resilience.snapshot.TrainingSnapshot`;
2. **rollback** — when the trainer reports an anomaly (non-finite loss,
   NaN-watchdog event, non-finite parameters after the optimizer step) the
   last good snapshot is restored, which also rewinds the RNG stream and
   the training history;
3. **backoff** — the phase learning rate is scaled by :data:`LR_BACKOFF`
   after each rollback (cumulatively, surviving the restore) so a retry of
   the same epoch takes a smaller step through the same stochastic draws;
4. **bounded retries** — after :data:`MAX_RETRIES` consecutive failed
   epochs, or once the learning rate reaches :data:`MIN_LR`, the manager
   stops fighting: ``on_exhaustion="degrade"`` ends the phase at the last
   good state (phase 1 then freezes the masks it has, and training proceeds
   with frozen-mask predictive learning only), ``"raise"`` aborts with
   :class:`TrainingDivergedError`.

Every decision is emitted as a ``recovery_event`` — the one report of it:
the run record shows exactly where and how a recovered run healed, and
``repro_recovery_events_total`` is derived from the same event.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .snapshot import TrainingSnapshot, capture_training_snapshot, restore_training_snapshot


class TrainingDivergedError(ArithmeticError):
    """Training kept diverging after exhausting the recovery budget."""

    def __init__(self, phase: str, epoch: int, reason: str, retries: int) -> None:
        self.phase = phase
        self.epoch = epoch
        self.reason = reason
        self.retries = retries
        super().__init__(
            f"training diverged in phase {phase!r} at epoch {epoch} "
            f"after {retries} recovery attempt(s): {reason}"
        )


MAX_RETRIES = 3
"""Consecutive anomalous epochs tolerated before giving up; the counter
resets whenever an epoch completes cleanly."""
LR_BACKOFF = 0.5
"""Multiplier applied to the phase learning rate on each rollback."""
MIN_LR = 1e-6
"""Floor under the backed-off learning rate; reaching it exhausts the
recovery budget even if retries remain."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the rollback-and-retry loop does once its budget is spent."""

    on_exhaustion: str = "degrade"
    """``"degrade"``: end the phase at the last good state and continue the
    pipeline; ``"raise"``: abort with :class:`TrainingDivergedError`."""

    def __post_init__(self) -> None:
        if self.on_exhaustion not in ("degrade", "raise"):
            raise ValueError("on_exhaustion must be 'degrade' or 'raise'")


_RECOVERY_OFF = ("", "0", "false", "no")
_RECOVERY_ON = ("1", "true", "yes")


def recovery_policy_from_env(env: Optional[dict] = None) -> Optional[RecoveryPolicy]:
    """Default policy when ``REPRO_RECOVERY`` opts in, else ``None``.

    ``REPRO_RECOVERY=1`` enables the defaults; ``REPRO_RECOVERY=raise``
    enables them with ``on_exhaustion="raise"``.  Unset/falsy leaves
    recovery off, preserving the historical fail-as-it-lies behaviour (and
    the bit-exactness of existing baseline run records).  Any other value
    raises :class:`ValueError` naming the accepted ones, so a typo such as
    ``rasie`` cannot silently degrade a run that was meant to abort.
    """
    raw = (env if env is not None else os.environ).get("REPRO_RECOVERY", "")
    value = raw.strip().lower()
    if value in _RECOVERY_OFF:
        return None
    if value in _RECOVERY_ON:
        return RecoveryPolicy()
    if value == "raise":
        return RecoveryPolicy(on_exhaustion="raise")
    accepted = ", ".join(repr(v) for v in _RECOVERY_OFF + _RECOVERY_ON + ("raise",))
    raise ValueError(f"unknown REPRO_RECOVERY value {raw!r}; expected one of {accepted}")


class RecoveryManager:
    """Holds the last good snapshot and applies the policy on anomalies."""

    def __init__(self, policy: RecoveryPolicy, recorder=None) -> None:
        from ..obs.recorder import NullRecorder

        self.policy = policy
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.last_good: Optional[TrainingSnapshot] = None
        self.retries = 0
        self.total_rollbacks = 0
        self.lr_scale = 1.0
        self.degraded_phases: set = set()

    # ------------------------------------------------------------------
    def note_good(self, trainer) -> None:
        """Record a successfully-completed epoch and snapshot it."""
        self.retries = 0
        self.last_good = capture_training_snapshot(trainer)
        # The fresh snapshot bakes in the current (possibly backed-off)
        # learning rate, so the cumulative scale restarts at 1.
        self.lr_scale = 1.0

    def ensure_baseline(self, trainer) -> None:
        """Re-snapshot at phase entry so even epoch 0 can roll back.

        Always captures: a stale snapshot from the previous phase would be
        missing state created between phases (frozen masks, pair sets), so a
        phase-2 rollback would silently rewind into phase 1.
        """
        self.last_good = capture_training_snapshot(trainer)
        self.lr_scale = 1.0
        self.retries = 0

    # ------------------------------------------------------------------
    def on_anomaly(self, trainer, phase: str, epoch: int, reason: str) -> str:
        """Apply the policy; return ``"retry"`` or ``"degrade"`` (or raise).

        On ``"retry"`` the trainer has already been rolled back to the last
        good snapshot with the backed-off learning rate applied; on
        ``"degrade"`` it is rolled back and the phase should end there.
        """
        policy = self.policy
        self.retries += 1
        self.total_rollbacks += 1
        current_lr = self._phase_lr(trainer, phase)
        exhausted = (
            self.last_good is None
            or self.retries > MAX_RETRIES
            or (current_lr is not None and current_lr <= MIN_LR)
        )
        if exhausted:
            if self.last_good is not None:
                restore_training_snapshot(trainer, self.last_good)
            self._emit(
                "degrade" if policy.on_exhaustion == "degrade" else "abort",
                trainer, phase, epoch, reason,
            )
            if policy.on_exhaustion == "raise":
                raise TrainingDivergedError(phase, epoch, reason, self.retries)
            self.degraded_phases.add(phase)
            return "degrade"
        restore_training_snapshot(trainer, self.last_good)
        self.lr_scale *= LR_BACKOFF
        new_lr = self._apply_backoff(trainer, phase)
        self._emit("rollback", trainer, phase, epoch, reason, new_lr=new_lr)
        return "retry"

    # ------------------------------------------------------------------
    def _phase_lr(self, trainer, phase: str) -> Optional[float]:
        optimizer = trainer._optimizers.get(phase)
        return None if optimizer is None else float(optimizer.lr)

    def _apply_backoff(self, trainer, phase: str) -> Optional[float]:
        """Re-apply the cumulative backoff after a restore reset the lr.

        Creates the phase optimizer if the rollback target predates it
        (anomaly at epoch 0): without this, an epoch-0 retry would repeat
        the identical step at the identical learning rate.
        """
        optimizer = trainer._optimizer(phase)
        optimizer.lr = max(MIN_LR, float(optimizer.lr) * self.lr_scale)
        return float(optimizer.lr)

    def _emit(self, action: str, trainer, phase: str, epoch: int, reason: str, **extra) -> None:
        self.recorder.emit(
            "recovery_event",
            action=action,
            phase=phase,
            epoch=epoch,
            reason=reason,
            retries=self.retries,
            total_rollbacks=self.total_rollbacks,
            lr_scale=self.lr_scale,
            rolled_back_to={k: int(v) for k, v in (self.last_good.completed if self.last_good else {}).items()},
            **extra,
        )
