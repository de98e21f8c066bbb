"""Training-health monitors: tensor statistics, mask health, NaN watchdog.

SES training is a two-phase optimisation whose failure modes are silent —
a saturating mask generator, a collapsing triplet loss, or an exploding
gradient all surface only as a bad final accuracy.  This module turns those
failure modes into structured telemetry events (:mod:`repro.obs.events`):

* :func:`grad_stats` / :func:`param_stats` / :func:`activation_stats` —
  gradient, parameter and activation statistics (``grad_stats`` /
  ``param_stats`` / ``activation_stats`` payloads), each one numpy pass
  over the concatenated arrays.
* :func:`mask_health` — SES-specific: saturation and Bernoulli entropy of
  the feature/structure masks (``mask_health``), the symptoms of
  GNNExplainer-style mask collapse.
* :func:`triplet_margin` — phase-2 triplet-pair margin distribution
  (``triplet_margin``): how many anchor pairs still violate the margin.
* :class:`NaNWatchdog` — hooks ``Tensor._make`` (the same choke point
  :class:`~repro.obs.profiler.OpProfiler` uses) and every recorded backward
  closure; the first NaN/Inf produces a ``numerical_event`` naming the
  offending op, direction, phase and epoch.

The five payload functions are pure: each returns the event payload (or
``None`` when there is nothing to report) and the caller emits it.  The
trainer computes them, and activates its watchdog, only when its recorder
is enabled (``--telemetry`` / ``REPRO_TELEMETRY``); with telemetry off no
statistic is ever computed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..tensor.tensor import Tensor
from .profiler import _op_name
from .recorder import NullRecorder


# ----------------------------------------------------------------------
# Health-event payloads
# ----------------------------------------------------------------------
def _summary(arrays: Iterable[Any]) -> Optional[Dict[str, Any]]:
    """Count, mean, population std (``ddof=0``), L2 norm, fraction of exact
    zeros, min and max over every element of ``arrays``, in one numpy pass
    over their concatenation; ``None`` when there is no element."""
    parts = [np.asarray(array, dtype=np.float64).ravel() for array in arrays]
    values = np.concatenate(parts) if parts else np.empty(0)
    count = int(values.size)
    if count == 0:
        return None
    return {
        "count": count,
        "mean": float(values.mean()),
        "std": float(values.std()),
        "norm": math.sqrt(float(np.square(values).sum())),
        "frac_zero": (count - int(np.count_nonzero(values))) / count,
        "min": float(values.min()),
        "max": float(values.max()),
    }


def _max_abs(stats: Mapping[str, Any]) -> float:
    return max(abs(stats["min"]), abs(stats["max"]))


def grad_stats(named_params: Iterable[Tuple[str, Tensor]]) -> Optional[Dict[str, Any]]:
    """``grad_stats`` payload: statistics over every parameter gradient.

    Global norm, mean/std, fraction of exactly-zero entries, and the
    parameter with the largest gradient norm — the usual first suspect
    when a phase explodes.  ``None`` when no parameter has a gradient.
    """
    grads = []
    worst_name, worst_norm = None, -1.0
    missing = 0
    for name, param in named_params:
        grad = param.grad
        if grad is None:
            missing += 1
            continue
        grads.append(grad)
        norm = float(np.linalg.norm(grad))
        if norm > worst_norm:
            worst_name, worst_norm = name, norm
    stats = _summary(grads)
    if stats is None:
        return None
    norm = stats.pop("norm")
    return {
        "global_norm": norm,
        "max_abs": _max_abs(stats),
        "worst_param": worst_name,
        "worst_param_norm": worst_norm,
        "missing_grads": missing,
        **stats,
    }


def param_stats(named_params: Iterable[Tuple[str, Tensor]]) -> Optional[Dict[str, Any]]:
    """``param_stats`` payload: parameter-value statistics (``None`` if empty)."""
    stats = _summary(param.data for _, param in named_params)
    if stats is None:
        return None
    norm = stats.pop("norm")
    return {"global_norm": norm, "max_abs": _max_abs(stats), **stats}


def activation_stats(values: np.ndarray) -> Optional[Dict[str, Any]]:
    """``activation_stats`` payload for one named activation (``None`` if empty)."""
    stats = _summary([values])
    if stats is None:
        return None
    return {"max_abs": _max_abs(stats), **stats}


# A mask entry this close to 0 or 1 counts as saturated in ``mask_health``.
_SATURATION_TOL = 0.05


def mask_health(values: np.ndarray) -> Optional[Dict[str, Any]]:
    """``mask_health`` payload: saturation and entropy of one mask.

    A healthy mask distribution keeps gradient flowing through the sigmoid
    scorer; the two collapse modes are both visible here:

    * ``saturated_high``/``saturated_low`` — fraction of entries within
      0.05 of 1 / 0, where the sigmoid derivative (and therefore the
      masked-cross-entropy gradient of Eq. 8) has died;
    * ``entropy`` — mean Bernoulli entropy of the mask entries, in nats.
      Near-zero entropy with high accuracy is a converged, confident mask;
      near-zero entropy in the first epochs is premature collapse.

    ``None`` for an empty mask.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return None
    clipped = np.clip(values, 1e-12, 1.0 - 1e-12)
    entropy = float(
        -(clipped * np.log(clipped) + (1 - clipped) * np.log(1 - clipped)).mean()
    )
    return {
        "mean": float(values.mean()),
        "entropy": entropy,
        "saturated_low": float(np.mean(values <= _SATURATION_TOL)),
        "saturated_high": float(np.mean(values >= 1.0 - _SATURATION_TOL)),
    }


def triplet_margin(
    pos_dist: np.ndarray, neg_dist: np.ndarray, margin: float
) -> Optional[Dict[str, Any]]:
    """``triplet_margin`` payload: the phase-2 triplet-pair margin distribution.

    ``margin_i = d(anchor_i, neg_i) − d(anchor_i, pos_i)``; pairs with
    ``margin_i < margin`` still contribute hinge loss (Eq. 12).  A
    ``frac_violating`` stuck at 1.0 means the representation never
    separated the Algorithm-1 sets; 0.0 means the triplet term has gone
    silent and phase 2 is pure cross-entropy.  ``None`` without pairs.
    """
    pos = np.asarray(pos_dist, dtype=np.float64).ravel()
    neg = np.asarray(neg_dist, dtype=np.float64).ravel()
    if pos.size == 0:
        return None
    margins = neg - pos
    return {
        "margin": float(margin),
        "num_pairs": int(margins.size),
        "mean_margin": float(margins.mean()),
        "min_margin": float(margins.min()),
        "frac_violating": float(np.mean(margins < margin)),
        "pos_dist_mean": float(pos.mean()),
        "neg_dist_mean": float(neg.mean()),
    }


# ----------------------------------------------------------------------
# NaN/Inf watchdog
# ----------------------------------------------------------------------
# Anomalies a watchdog records and emits; later ones only count in
# ``NaNWatchdog.suppressed``.
_MAX_EVENTS = 10


class NaNWatchdog:
    """Context manager that checks every op output / backward gradient.

    Reuses the :class:`~repro.obs.profiler.OpProfiler` hook pattern: while
    active, ``Tensor._make`` is wrapped so each new graph node's data — and
    the upstream gradient entering each recorded backward closure — is
    scanned for NaN/Inf.  The first anomaly produces a structured
    ``numerical_event`` naming the op, direction (forward/backward), kind
    (nan/inf), and the current phase/epoch from :attr:`context`.

    Composes with an active profiler (it wraps whatever ``Tensor._make``
    currently is); enter/exit must nest LIFO, like the profiler itself.
    The full-array finiteness scan is why the watchdog — like every
    monitor — is opt-in: outside the context ``Tensor._make`` is pristine.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.context: Dict[str, Any] = {"phase": None, "epoch": None}
        self.anomalies: List[Dict[str, Any]] = []
        self.suppressed = 0
        self._original = None

    def __enter__(self) -> "NaNWatchdog":
        if self._original is not None:
            raise RuntimeError("NaNWatchdog is already active")
        self._original = Tensor.__dict__["_make"]
        original = self._original.__func__ if isinstance(self._original, staticmethod) else self._original
        check = self._check

        def watched_make(data, parents, backward):
            out = original(data, parents, backward)
            op = _op_name(backward.__qualname__)
            check(out.data, op, "forward")
            if out._backward is not None:
                inner = out._backward

                def watched_backward(grad, _inner=inner, _op=op):
                    check(grad, _op, "backward")
                    _inner(grad)

                out._backward = watched_backward
            return out

        Tensor._make = staticmethod(watched_make)
        return self

    def __exit__(self, *exc_info) -> None:
        Tensor._make = self._original
        self._original = None

    def _check(self, array: np.ndarray, op: str, direction: str) -> None:
        if np.isfinite(array).all():
            return
        kind = "nan" if np.isnan(array).any() else "inf"
        record = {
            "op": op,
            "direction": direction,
            "kind": kind,
            "phase": self.context.get("phase"),
            "epoch": self.context.get("epoch"),
        }
        if len(self.anomalies) < _MAX_EVENTS:
            self.anomalies.append(record)
            self.recorder.emit("numerical_event", **record)
        else:
            self.suppressed += 1

    def state_dict(self) -> Dict[str, Any]:
        """Anomaly log + context (JSON-safe), for checkpoint/resume."""
        return {
            "context": dict(self.context),
            "anomalies": [dict(a) for a in self.anomalies],
            "suppressed": self.suppressed,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        self.context = dict(state.get("context", {"phase": None, "epoch": None}))
        self.anomalies = [dict(a) for a in state.get("anomalies", [])]
        self.suppressed = int(state.get("suppressed", 0))
