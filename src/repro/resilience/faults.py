"""Fault injection: simulated crashes, NaN poisoning, checkpoint corruption.

A recovery path that is never exercised is a recovery path that does not
work.  This module gives the test-suite (and anyone debugging resilience in
the field) deterministic ways to break training on purpose:

* :class:`FaultPlan` — a parsed schedule of :class:`FaultSpec`\\ s, built
  from the ``REPRO_FAULTS`` environment variable or a spec string.  The
  grammar is ``kind@phase:epoch[:field]`` with specs comma-separated:

  - ``crash@explainable:5`` — raise :class:`SimulatedCrash` at the start of
    explainable-training epoch 5 (the process-kill stand-in; nothing after
    the last completed epoch survives);
  - ``nan@predictive:3`` — poison the first op output of predictive epoch 3
    with a NaN (exercises the watchdog → recovery-policy path);
  - ``nan@explainable:2:relu`` — poison only ops whose name contains
    ``relu``;
  - ``kill_worker@explainable:2:1`` — parallel worker of rank 1 dies
    (``os._exit``) at the start of its first shard of explainable epoch 2
    (exercises the supervisor's dead-worker restart path — docs/PARALLEL.md);
  - ``hang_worker@predictive:0:0`` — worker 0 stays alive but never answers
    its first shard of predictive epoch 0, so only the liveness watchdog
    (a busy rank that sends nothing) can catch it.

  The supervisor takes worker specs when it dispatches a shard and sends
  the kind with the shard, so the worker itself never reads the plan.

  Malformed specs raise a one-line :class:`ValueError` that names the
  offending token — a typo in ``REPRO_FAULTS`` should read as a usage
  error, not a stack trace from an unpack deep inside the trainer.

Each spec fires at most once per process, so a run that recovers from an
injected fault is not immediately re-injured by the same spec.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..tensor.tensor import Tensor

FAULT_KINDS = ("crash", "nan", "kill_worker", "hang_worker")
WORKER_KINDS = ("kill_worker", "hang_worker")
PHASES = ("explainable", "predictive", "any")
_GRAMMAR = "kind@phase:epoch[:op] (worker faults: kind@phase:epoch:rank)"


class SimulatedCrash(RuntimeError):
    """Deterministic stand-in for a mid-training process kill."""

    def __init__(self, phase: str, epoch: int) -> None:
        self.phase = phase
        self.epoch = epoch
        super().__init__(f"simulated crash at phase {phase!r}, epoch {epoch}")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what to break, where, and which op/worker."""

    kind: str
    phase: str
    epoch: int
    op: Optional[str] = None
    rank: Optional[int] = None

    def matches(self, phase: str, epoch: int) -> bool:
        return (self.phase in ("any", phase)) and self.epoch == epoch

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind@phase:epoch[:field]`` spec (see module docstring).

        Every rejection is a single-sentence :class:`ValueError` naming the
        offending token and the full spec it came from.
        """
        text = text.strip()
        if not text:
            raise ValueError(f"empty fault spec; expected {_GRAMMAR}")
        if "@" not in text:
            raise ValueError(
                f"bad fault spec {text!r}: missing '@'; expected {_GRAMMAR}"
            )
        kind, _, where = text.partition("@")
        kind = kind.strip().lower()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"bad fault kind {kind!r} in spec {text!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        parts = [p.strip() for p in where.split(":")]
        if len(parts) < 2 or len(parts) > 3:
            raise ValueError(
                f"bad fault spec {text!r}: {len(parts)} field(s) after '@'; "
                f"expected {_GRAMMAR}"
            )
        phase = parts[0].lower()
        if phase not in PHASES:
            raise ValueError(
                f"bad fault phase {phase!r} in spec {text!r}; "
                f"expected one of {PHASES}"
            )
        try:
            epoch = int(parts[1])
        except ValueError:
            raise ValueError(
                f"bad fault epoch {parts[1]!r} in spec {text!r}: not an integer"
            ) from None
        if epoch < 0:
            raise ValueError(
                f"bad fault epoch {epoch} in spec {text!r}: must be >= 0"
            )
        op: Optional[str] = None
        rank: Optional[int] = None
        if kind in WORKER_KINDS:
            if len(parts) != 3:
                raise ValueError(
                    f"bad fault spec {text!r}: {kind} faults need a worker "
                    f"rank (kind@phase:epoch:rank)"
                )
            try:
                rank = int(parts[2])
            except ValueError:
                raise ValueError(
                    f"bad worker rank {parts[2]!r} in spec {text!r}: "
                    "not an integer"
                ) from None
            if rank < 0:
                raise ValueError(
                    f"bad worker rank {rank} in spec {text!r}: must be >= 0"
                )
        elif kind == "crash":
            if len(parts) == 3:
                raise ValueError(
                    f"crash faults take no op field (spec {text!r})"
                )
        else:  # nan
            op = parts[2] if len(parts) == 3 else None
            if op == "":
                raise ValueError(
                    f"bad fault spec {text!r}: empty op field"
                )
        return cls(kind=kind, phase=phase, epoch=epoch, op=op, rank=rank)


class FaultPlan:
    """A one-shot-per-spec schedule of injected faults.

    Falsy when empty, so the trainer's per-epoch hooks cost a single branch
    in the (overwhelmingly common) no-faults case.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._fired: set = set()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.specs!r})"

    @classmethod
    def parse(cls, text: Optional[str]) -> "FaultPlan":
        """Build a plan from a comma-separated spec string (None/'' = empty)."""
        if not text or not text.strip():
            return cls()
        return cls([FaultSpec.parse(part) for part in text.split(",") if part.strip()])

    @classmethod
    def from_env(cls, env: Optional[dict] = None) -> "FaultPlan":
        """Build a plan from ``REPRO_FAULTS`` (empty plan when unset)."""
        return cls.parse((env if env is not None else os.environ).get("REPRO_FAULTS"))

    # ------------------------------------------------------------------
    def _take(
        self, kinds: Sequence[str], phase: str, epoch: int, rank: Optional[int] = None
    ) -> Optional[FaultSpec]:
        for index, spec in enumerate(self.specs):
            if index in self._fired or spec.kind not in kinds or spec.rank != rank:
                continue
            if spec.matches(phase, epoch):
                self._fired.add(index)
                return spec
        return None

    def take_worker_fault(self, rank: int, phase: str, epoch: int) -> Optional[str]:
        """The kind of the first unfired worker fault due for this shard.

        The parallel supervisor calls this as it dispatches each shard to
        ``rank`` and sends the kind along; the spec is then spent, so the
        restarted worker that picks the shard up again is not re-injured.
        """
        spec = self._take(WORKER_KINDS, phase, epoch, rank) if self else None
        return None if spec is None else spec.kind

    def check_crash(self, phase: str, epoch: int) -> None:
        """Raise :class:`SimulatedCrash` if a crash fault is due here."""
        if self and self._take(("crash",), phase, epoch) is not None:
            raise SimulatedCrash(phase, epoch)

    @contextmanager
    def nan_injection(self, phase: str, epoch: int) -> Iterator[None]:
        """Poison one op output with NaN inside the block, if a fault is due.

        Wraps ``Tensor._make`` (the same choke point the profiler and the
        NaN watchdog use) so the first op whose name matches the spec — or
        simply the first op, when no op is named — gets ``NaN`` written into
        its output.  The poison then propagates through the graph exactly
        like an organic blow-up would, which is the point: downstream, the
        watchdog and the recovery policy cannot tell the difference.
        """
        spec = self._take(("nan",), phase, epoch) if self else None
        if spec is None:
            yield
            return
        original = Tensor.__dict__["_make"]
        make = original.__func__ if isinstance(original, staticmethod) else original
        state = {"armed": True}
        needle = spec.op

        def poisoned_make(data, parents, backward):
            out = make(data, parents, backward)
            if state["armed"] and (needle is None or needle in backward.__qualname__):
                if out.data.size:
                    out.data.flat[0] = np.nan
                    state["armed"] = False
            return out

        Tensor._make = staticmethod(poisoned_make)
        try:
            yield
        finally:
            Tensor._make = original
