"""Worker side of data-parallel SES training: stateless shard executors.

A worker owns a full model *replica* but no training state: every epoch the
supervisor ships the current phase parameters (and, when they change, the
phase constants — negative pairs for phase 1, frozen-mask inputs for phase
2), and the worker answers per-shard tasks with the shard's loss, gradient
list and telemetry counts.  Statelessness is what makes recovery trivial —
a restarted worker is indistinguishable from the original because there is
nothing to reconstruct beyond the next ``epoch_begin`` message.

Determinism of dropout: a shard's forward draws from a dedicated stream
``default_rng((seed, 0x9A71, phase, epoch, shard))`` derived from *shard*
identity, never worker identity.  Any worker computing shard ``s`` of
epoch ``e`` consumes the identical draws — across restarts, re-sharding and
worker counts (docs/PARALLEL.md).

Workers are forked from a forkserver that preloads this module and runs one
BLAS thread (``repro.parallel.supervisor.pool_context``), at every worker
count: a shard's floating-point path is then the same in every worker.

Protocol (one task queue and one event pipe per worker):

* task queue: ``("init", init)`` first — the graph, k-hop edges, negatives,
  config and seed — then ``("epoch", phase, epoch, params, version,
  constants_or_None)``, ``("shard", phase, epoch, shard_id, anchors,
  pooled_or_None, fault_or_None)``, ``("stop",)``.  The init payload travels
  as a message rather than a ``Process`` argument so that
  ``Process.start()`` returns once the worker is forked and the pool's
  workers build their replicas side by side.  ``fault`` is the kind of an
  injected worker fault (``kill_worker``/``hang_worker``) that the
  supervisor took from its fault plan for this shard.
* event pipe (the write end of a ``Pipe(duplex=False)``): ``("hello",
  rank, pid, t)`` once the replica is built, ``("heartbeat", rank, t)``,
  ``("result", rank, phase, epoch, shard_id, payload)``, ``("error", rank,
  traceback_text)``.  No other process writes to it, so a worker that dies
  mid-write wedges only its own channel; the supervisor reads its EOF as
  the rank's death.

A worker sends a heartbeat when it loads an epoch and when it starts a
shard, and otherwise blocks on its task queue: it says nothing while idle,
and a worker hung inside a task goes silent while it owes a result, which
is what the supervisor's liveness watchdog looks for.  A side thread only
watches the event pipe, and ends the worker when the supervisor's end of
it closes, so a worker never outlives a supervisor that was killed.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from multiprocessing.connection import wait as wait_channels
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.ses import SESModel, batch_backward, cached_batch, phase_parameters
from ..graph.minibatch import BatchCache
from ..utils import make_rng

__all__ = ["ShardContext", "shard_dropout_rng", "worker_main"]

# Shard dropout streams derive from (seed, _PARALLEL_STREAM, ...) so they can
# never collide with the trainer's make_rng(seed) stream or the sampler's
# (seed, 0x5E5B) stream.
_PARALLEL_STREAM = 0x9A71

_PHASE_IDS = {"explainable": 0, "predictive": 1}


def shard_dropout_rng(
    seed: int, phase: str, epoch: int, shard_id: int
) -> np.random.Generator:
    """The dropout stream for one (phase, epoch, shard) — worker-independent."""
    return np.random.default_rng(
        (int(seed), _PARALLEL_STREAM, _PHASE_IDS[phase], int(epoch), int(shard_id))
    )


class ShardContext:
    """Model replica + caches for computing per-shard losses and gradients.

    Used by every worker process at every worker count, ``workers=1``
    included — a single code path is the parity argument: there is no
    "parallel numerics" to diverge from the reference.
    """

    def __init__(self, init: Dict) -> None:
        self.graph = init["graph"]
        self.config = init["config"]
        self.khop_edges = init["khop_edges"]
        self.negative_pairs = init["negative_pairs"]
        self.seed = int(init["seed"])
        # Replica construction draws from a fresh generator seeded exactly
        # like the trainer's, so the initial weights match the supervisor's
        # model; every epoch overwrites the phase parameters anyway.
        self.model = SESModel(
            self.graph.num_features,
            self.graph.num_classes,
            self.config,
            rng=make_rng(self.config.seed),
        )
        self.model.train()
        self._version = -1
        self._constants: Dict = {}
        self._cache = BatchCache()

    # ------------------------------------------------------------------
    def begin_epoch(
        self,
        phase: str,
        epoch: int,
        params: Sequence[np.ndarray],
        version: int,
        constants: Optional[Dict],
    ) -> None:
        """Load this epoch's parameters and (when versioned) constants."""
        if version != self._version:
            if constants is None:
                raise RuntimeError(
                    f"constants version {version} requested but none shipped "
                    f"(have {self._version})"
                )
            if phase == "explainable":
                self.negative_pairs = constants["negative_pairs"]
            self._constants = constants
            self._version = version
            # Cached subgraphs embed the old constants (negative pairs /
            # pooled tuples from a previous pair build).
            self._cache.clear()
        for param, data in zip(phase_parameters(self.model, phase), params):
            param.data = np.array(data, copy=True)

    # ------------------------------------------------------------------
    def compute(
        self,
        phase: str,
        epoch: int,
        shard_id: int,
        anchors: np.ndarray,
        pooled: Optional[tuple],
    ) -> Dict:
        """Loss + gradients for one shard; pure given (phase, epoch, shard)."""
        model = self.model
        model.train()
        model.encoder._rng = shard_dropout_rng(self.seed, phase, epoch, shard_id)
        model.zero_grad()
        batch = cached_batch(
            self._cache, phase, self.graph, anchors, model.encoder.num_layers,
            self.khop_edges, self.negative_pairs, pooled,
        )
        _, record = batch_backward(
            model, self.config, self.graph, phase, batch, self._constants
        )
        # A shard with nothing to optimise (no train anchors, no pairs)
        # contributes neither gradient nor loss mass.
        record["grads"] = None if record["loss"] is None else self._grads(phase)
        return record

    def _grads(self, phase: str) -> List[np.ndarray]:
        return [
            param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
            for param in phase_parameters(self.model, phase)
        ]


def _exit_with_supervisor(events) -> None:
    """End this worker once the supervisor's read end of its pipe closes.

    A write-only pipe end polls ready only on error, and a pipe whose
    reader is gone reports one: that is the supervisor's death (or its
    teardown of this rank), seen without a message in either direction.
    """
    wait_channels([events])
    os._exit(0)


def worker_main(rank: int, task_queue, events) -> None:
    """Entry point of one worker process."""
    threading.Thread(target=_exit_with_supervisor, args=(events,), daemon=True).start()
    try:
        _, init = task_queue.get()
        context = ShardContext(init)
        events.send(("hello", rank, os.getpid(), time.time()))
        while True:
            message = task_queue.get()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "epoch":
                _, phase, epoch, params, version, constants = message
                context.begin_epoch(phase, epoch, params, version, constants)
                events.send(("heartbeat", rank, time.time()))
                continue
            _, phase, epoch, shard_id, anchors, pooled, fault = message
            if fault == "kill_worker":
                # Hard exit, no cleanup: the closest stand-in for an OOM kill.
                os._exit(17)
            if fault == "hang_worker":
                # Alive but silent while it owes a result: only the
                # supervisor's liveness watchdog can detect it.
                while True:
                    time.sleep(3600)
            events.send(("heartbeat", rank, time.time()))
            payload = context.compute(phase, epoch, shard_id, anchors, pooled)
            events.send(("result", rank, phase, epoch, shard_id, payload))
    except KeyboardInterrupt:
        pass
    except Exception:  # noqa: BLE001 - ship the traceback to the supervisor
        try:
            events.send(("error", rank, traceback.format_exc()))
        except Exception:  # channel already torn down; nothing left to report
            pass
