"""The :class:`WorkerSupervisor`: fault-tolerant data-parallel SES training.

Architecture (docs/PARALLEL.md):

* The **shard structure is fixed** at configure time: the trainer's anchor
  sampler draws ``ParallelConfig.shards`` anchor partitions per epoch and
  hands them to :meth:`WorkerSupervisor.run_epoch`.  Workers are stateless
  executors that shards are *assigned* to — the assignment never
  influences the numbers, so the training trajectory is bit-identical at
  any worker count, across worker restarts, and after degradation to a
  smaller pool.
* Per epoch the supervisor ships the phase parameters (plus versioned
  constants) to every worker, fans the shard tasks out round-robin, collects
  per-shard gradients, and reduces them with a fixed-order tree
  (:mod:`repro.parallel.reduce`).  The trainer applies one aggregated
  optimizer step — supervisor-side, so optimizer state never leaves the
  trainer.
* **The pool starts concurrently**: a worker's init payload is the first
  message on its task queue, not a ``Process`` argument, so
  ``Process.start()`` returns as soon as the forkserver has forked the
  worker, and every rank builds its replica at the same time.
* **Worker failure is a first-class event**: each worker reports over its
  own event pipe; the liveness watchdog declares a worker dead when its
  process exits or its pipe reaches EOF, and *hung* when it owes a result
  of this epoch and has sent nothing for ``heartbeat_timeout`` (a hung
  worker is terminated — it cannot be trusted).  The clock starts at the
  worker's ``hello``: while it starts, only death counts as failure.
  Injected worker faults are decided here too: the supervisor takes them
  from the fault plan as it dispatches a shard.  Failed
  workers restart with exponential backoff under a bounded per-rank budget;
  a rank that exhausts its budget is dropped and its shards re-dispatch
  deterministically to the survivors.  Only an empty pool raises :class:`ParallelTrainingError` — the last resort, analogous
  to ``TrainingDivergedError`` in the recovery policy.

Every worker count, ``workers=1`` included, runs on the same pool: workers
are forked from a forkserver that has already imported the shard code and
runs one BLAS thread (:func:`pool_context`).  The first fit in a process
pays the forkserver's import once; later pools fork in milliseconds, and
the ranks of a pool do not fight over the cores with BLAS threads of their
own.  One execution path is also the parity argument: OpenBLAS rounds a
GEMM differently at one and at two threads, so ``workers=1`` is a
bit-identical reference for ``workers=N`` only because it runs in a
one-thread worker too (``tests/parallel/``).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import multiprocessing.util
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_channels
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs.metrics import default_registry, exponential_buckets
from .reduce import tree_sum, tree_sum_arrays
from .worker import worker_main

__all__ = [
    "EpochOutcome",
    "ParallelConfig",
    "ParallelTrainingError",
    "WorkerSupervisor",
]

# Parallel-runtime telemetry (docs/OBSERVABILITY.md): bound once at import,
# exported as repro_parallel_* through the shared process registry.
_METRICS = default_registry()
_WORKERS_ALIVE = _METRICS.gauge(
    "repro_parallel_workers_alive", "Live worker processes in the pool"
)
_RESTARTS_TOTAL = _METRICS.counter(
    "repro_parallel_restarts_total", "Worker restarts by rank"
)
_FAILURES_TOTAL = _METRICS.counter(
    "repro_parallel_worker_failures_total",
    "Detected worker failures by kind (died / hung)",
)
_HEARTBEAT_AGE = _METRICS.gauge(
    "repro_parallel_heartbeat_age_seconds",
    "Seconds since each busy worker's last message",
)
_REDUCE_SECONDS = _METRICS.histogram(
    "repro_parallel_reduce_seconds",
    "Wall-clock seconds per fixed-order gradient tree reduction",
    buckets=exponential_buckets(0.0001, 4.0, 8),
)
_SHARDS_TOTAL = _METRICS.counter(
    "repro_parallel_shards_total", "Completed shard computations by phase"
)
_WORKER_START_SECONDS = _METRICS.histogram(
    "repro_parallel_worker_start_seconds",
    "Seconds from a worker's start to its hello (replica build; the first "
    "start in a process also waits for the forkserver's imports)",
    buckets=exponential_buckets(0.05, 2.0, 10),
)


# How often the collect loop wakes to run the liveness watchdog.
_POLL_SECONDS = 0.1
# Seconds before a rank's first restart; each further restart doubles it.
_RESTART_BACKOFF = 0.05

# The BLAS thread pool is sized when numpy is imported, so it is chosen in
# the forkserver's environment; every worker forked from it inherits one.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_forkserver_reaper = None


def pool_context():
    """The start context of every worker pool: a preloaded forkserver.

    The forkserver imports the shard code once and runs one BLAS thread.
    It starts with the parent's ``sys.path`` as ``PYTHONPATH``: Python 3.11's
    forkserver ignores the ``sys_path`` it is handed, so without it a parent
    that put ``repro`` on its path by hand would preload nothing, and every
    worker would import numpy and ``repro`` itself.  The parent's environment
    is restored as soon as the forkserver has started, and the parent's own
    BLAS pool, sized when it imported numpy, is untouched.
    """
    global _forkserver_reaper
    multiprocessing.set_forkserver_preload(["__main__", "repro.parallel.worker"])
    saved = {name: os.environ.get(name) for name in (*_BLAS_THREAD_VARS, "PYTHONPATH")}
    os.environ.update({name: "1" for name in _BLAS_THREAD_VARS})
    os.environ["PYTHONPATH"] = os.pathsep.join(sys.path)
    try:
        multiprocessing.forkserver.ensure_running()
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    if _forkserver_reaper is None:
        # A negative priority runs after multiprocessing has joined the
        # daemon workers (whose exit codes the forkserver reports) and run
        # the finalizers that unregister their queues' semaphores.
        _forkserver_reaper = multiprocessing.util.Finalize(
            None, _stop_helpers, exitpriority=-100
        )
    return multiprocessing.get_context("forkserver")


def _stop_helpers() -> None:
    """Stop the forkserver and the resource tracker and reap them.

    Left alone, both exit only after this process has, as orphans, and a
    caller that waits for this process's group can still find them exiting.
    """
    multiprocessing.forkserver._forkserver._stop()
    multiprocessing.resource_tracker._resource_tracker._stop()


class ParallelTrainingError(RuntimeError):
    """Raised when the worker pool can no longer make progress.

    The parallel analogue of ``TrainingDivergedError``: every rank has
    exhausted its restart budget (or a worker surfaced an unrecoverable
    exception), so the supervisor fails the epoch loudly rather than
    silently stalling.
    """


@dataclass(frozen=True)
class ParallelConfig:
    """Static configuration of one worker pool.

    ``shards`` fixes the reduction structure independently of ``workers`` —
    see the module docstring for why that is the determinism anchor.
    """

    workers: int
    shards: int = 4
    heartbeat_timeout: float = 10.0
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.shards <= 0:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {self.heartbeat_timeout}"
            )
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


@dataclass
class EpochOutcome:
    """One parallel epoch's aggregated result (shard-order deterministic)."""

    loss: float
    grads: Optional[List[np.ndarray]]
    num_contributing: int
    num_shards: int
    reduce_seconds: float
    records: List[Dict] = field(default_factory=list)
    """Per-shard records in shard order (see ``repro.core.ses.batch_backward``)."""


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(
        self, rank: int, process, task_queue, events, spawned_at: float
    ) -> None:
        self.rank = rank
        self.process = process
        self.task_queue = task_queue
        self.events = events
        self.spawned_at = spawned_at
        # None until the worker's hello: the silence clock starts there.
        # Afterwards, the later of its last message and the last shard sent
        # to it: an idle rank owes nothing, so its silence before new work
        # arrives does not count.
        self.last_seen: Optional[float] = None
        self.eof = False
        self.constants_version = -1


class WorkerSupervisor:
    """Shards anchor batches across workers with deterministic reduction."""

    def __init__(
        self,
        config: ParallelConfig,
        init_factory: Callable[[], Dict],
        fault_plan=None,
    ) -> None:
        self.config = config
        self._init_factory = init_factory
        self._faults = fault_plan
        self._version = 0
        self._last_phase: Optional[str] = None
        self._handles: Dict[int, _WorkerHandle] = {}
        self._restarts: Counter = Counter()
        self._started = False
        # Cumulative across pool restarts (stop_workers resets the per-rank
        # budgets, not these) — what CLI summaries, benchmarks and tests read.
        self.total_restarts = 0
        self.total_failures = 0
        self.degraded_ranks: set = set()
        # Wall-clock spent inside failure handling (detect -> replacement
        # dispatched or shards redistributed), summed over all failures.
        self.recovery_seconds = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        """Workers currently in the pool."""
        if not self._started:
            return self.config.workers
        return len(self._handles)

    def invalidate_constants(self) -> None:
        """Force constants to re-ship (negative resample, snapshot restore)."""
        self._version += 1

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------
    def run_epoch(
        self,
        phase: str,
        epoch: int,
        batches: Sequence[np.ndarray],
        params: List[np.ndarray],
        constants: Dict,
        shard_extras: Optional[Sequence] = None,
    ) -> EpochOutcome:
        """Compute all shards of one epoch and reduce in fixed shard order."""
        if phase != self._last_phase:
            # Phase constants differ (negative pairs vs frozen-mask inputs);
            # bumping the version makes every worker refresh on first touch.
            self._version += 1
            self._last_phase = phase
        tasks = [
            (
                shard_id,
                anchors,
                shard_extras[shard_id] if shard_extras is not None else None,
            )
            for shard_id, anchors in enumerate(batches)
        ]
        payloads = self._run_epoch_pool(phase, epoch, tasks, params, constants)
        _SHARDS_TOTAL.inc(len(tasks), phase=phase)
        return self._reduce(payloads)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _spawn(self, rank: int) -> _WorkerHandle:
        init = self._init_factory()
        # Also restarts a forkserver that has died since the last start.
        context = pool_context()
        task_queue = context.Queue()
        events, worker_end = context.Pipe(duplex=False)
        process = context.Process(
            target=worker_main,
            args=(rank, task_queue, worker_end),
            name=f"repro-parallel-w{rank}",
            daemon=True,
        )
        spawned_at = time.time()
        process.start()
        # Only the child may hold the write end, or its death is no EOF here.
        worker_end.close()
        # The queue's feeder thread ships init while the child starts.
        task_queue.put(("init", init))
        handle = _WorkerHandle(rank, process, task_queue, events, spawned_at)
        self._handles[rank] = handle
        _WORKERS_ALIVE.set(len(self._handles))
        return handle

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._restarts = Counter()
        for rank in range(self.config.workers):
            self._spawn(rank)
        self._started = True

    def _send_epoch(
        self, handle: _WorkerHandle, phase: str, epoch: int, params, constants
    ) -> None:
        ship = constants if handle.constants_version != self._version else None
        handle.task_queue.put(("epoch", phase, epoch, params, self._version, ship))
        handle.constants_version = self._version

    def _send_shard(
        self, handle: _WorkerHandle, phase: str, epoch: int, shard_id, anchors, extra
    ) -> None:
        """Dispatch one shard, with any worker fault the plan has due for it."""
        fault = (
            self._faults.take_worker_fault(handle.rank, phase, epoch)
            if self._faults
            else None
        )
        handle.task_queue.put(("shard", phase, epoch, shard_id, anchors, extra, fault))
        if handle.last_seen is not None:
            handle.last_seen = time.monotonic()

    def _terminate(self, handle: _WorkerHandle) -> None:
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        # The dead worker never drains its queue; without cancel_join_thread
        # the feeder thread would block interpreter exit on the buffered data.
        handle.task_queue.cancel_join_thread()
        handle.task_queue.close()
        handle.events.close()

    def _run_epoch_pool(
        self, phase: str, epoch: int, tasks, params, constants
    ) -> List[Dict]:
        self._ensure_started()
        if not self._handles:
            raise ParallelTrainingError(
                "worker pool is empty: every rank exhausted its restart budget"
            )
        owner: Dict[int, int] = {}
        results: Dict[int, Dict] = {}
        # Round-robin assignment over the live ranks in sorted order —
        # deterministic, though correctness never depends on it.
        ranks = sorted(self._handles)
        for handle in self._handles.values():
            self._send_epoch(handle, phase, epoch, params, constants)
        for index, (shard_id, anchors, extra) in enumerate(tasks):
            rank = ranks[index % len(ranks)]
            owner[shard_id] = rank
            self._send_shard(self._handles[rank], phase, epoch, shard_id, anchors, extra)
        while len(results) < len(tasks):
            self._drain_events(phase, epoch, results, timeout=_POLL_SECONDS)
            now = time.monotonic()
            busy = {owner[shard_id] for shard_id in owner if shard_id not in results}
            for rank in list(self._handles):
                handle = self._handles[rank]
                if handle.eof or not handle.process.is_alive():
                    self._on_worker_failure(
                        rank, "died", phase, epoch, owner, results,
                        tasks, params, constants,
                    )
                    continue
                if handle.last_seen is None or rank not in busy:
                    continue  # starting or idle: only death counts
                age = now - handle.last_seen
                _HEARTBEAT_AGE.set(age, rank=str(rank))
                if age > self.config.heartbeat_timeout:
                    self._on_worker_failure(
                        rank, "hung", phase, epoch, owner, results,
                        tasks, params, constants,
                    )
        return [results[shard_id] for shard_id, _, _ in tasks]

    def _drain_events(
        self, phase: str, epoch: int, results: Dict[int, Dict], timeout: float
    ) -> None:
        """Consume pending worker events; block at most ``timeout`` once."""
        block = True
        while True:
            channels = {
                handle.events: handle
                for handle in self._handles.values()
                if not handle.eof
            }
            ready = wait_channels(list(channels), timeout=timeout if block else 0)
            if not ready:
                return
            block = False
            for channel in ready:
                handle = channels[channel]
                try:
                    event = channel.recv()
                except (EOFError, OSError):
                    # The write end closed: the process is gone, perhaps
                    # mid-message.  The watchdog reclaims the rank.
                    handle.eof = True
                    continue
                self._on_event(handle, event, phase, epoch, results)

    def _on_event(
        self, handle: _WorkerHandle, event, phase: str, epoch: int, results
    ) -> None:
        kind = event[0]
        if kind == "error":
            _, rank, trace = event
            raise ParallelTrainingError(
                f"worker {rank} raised an unrecoverable exception:\n{trace}"
            )
        if kind == "hello":
            _WORKER_START_SECONDS.observe(
                max(0.0, event[3] - handle.spawned_at), rank=str(handle.rank)
            )
        handle.last_seen = time.monotonic()
        if kind == "result":
            _, _, result_phase, result_epoch, shard_id, payload = event
            if result_phase == phase and result_epoch == epoch:
                # Duplicates (a slow worker finishing a re-dispatched
                # shard) are byte-identical by construction; last write
                # wins and the count stays correct.
                results[shard_id] = payload

    def _on_worker_failure(
        self,
        rank: int,
        kind: str,
        phase: str,
        epoch: int,
        owner: Dict[int, int],
        results: Dict[int, Dict],
        tasks,
        params,
        constants,
    ) -> None:
        """Dead/hung worker: reclaim shards, restart under budget, or degrade."""
        recovery_start = time.perf_counter()
        try:
            self._handle_worker_failure(
                rank, kind, phase, epoch, owner, results, tasks, params, constants
            )
        finally:
            self.recovery_seconds += time.perf_counter() - recovery_start

    def _handle_worker_failure(
        self,
        rank: int,
        kind: str,
        phase: str,
        epoch: int,
        owner: Dict[int, int],
        results: Dict[int, Dict],
        tasks,
        params,
        constants,
    ) -> None:
        handle = self._handles.pop(rank)
        if kind == "died":
            # The event pipe closes before the process is reaped: join it
            # first, so the error below names its real exit code, not None.
            handle.process.join(timeout=1.0)
        self._terminate(handle)
        exitcode = handle.process.exitcode
        greeted = "after" if handle.last_seen is not None else "before"
        _FAILURES_TOTAL.inc(kind=kind)
        _WORKERS_ALIVE.set(len(self._handles))
        self.total_failures += 1
        orphans = [
            (shard_id, anchors, extra)
            for shard_id, anchors, extra in tasks
            if owner.get(shard_id) == rank and shard_id not in results
        ]
        attempts = self._restarts[rank]
        if attempts < self.config.max_restarts:
            # Exponential backoff before the restart: a crash loop caused by
            # the environment (OOM, bad node) should not spin at full speed.
            time.sleep(_RESTART_BACKOFF * (2 ** attempts))
            self._restarts[rank] += 1
            self.total_restarts += 1
            _RESTARTS_TOTAL.inc(rank=str(rank))
            replacement = self._spawn(rank)
            self._send_epoch(replacement, phase, epoch, params, constants)
            for shard_id, anchors, extra in orphans:
                owner[shard_id] = rank
                self._send_shard(replacement, phase, epoch, shard_id, anchors, extra)
            return
        # Budget exhausted: degrade to a smaller pool.  Shard contents and
        # reduction order are worker-independent, so the numbers do not move.
        self.degraded_ranks.add(rank)
        survivors = sorted(self._handles)
        if not survivors:
            raise ParallelTrainingError(
                f"worker {rank} {kind} (exitcode={exitcode}, {greeted} its hello) with restart "
                f"budget exhausted and no surviving workers — cannot finish "
                f"{phase} epoch {epoch}"
            )
        for index, (shard_id, anchors, extra) in enumerate(orphans):
            new_rank = survivors[index % len(survivors)]
            owner[shard_id] = new_rank
            self._send_shard(
                self._handles[new_rank], phase, epoch, shard_id, anchors, extra
            )

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def _reduce(self, payloads: List[Dict]) -> EpochOutcome:
        """Fixed-order tree reduction of per-shard losses and gradients."""
        start = time.perf_counter()
        contributing = [p for p in payloads if p["loss"] is not None]
        if contributing:
            denominator = float(len(contributing))
            summed = tree_sum_arrays([p["grads"] for p in contributing])
            grads = [g / denominator for g in summed]
            loss = tree_sum([p["loss"] for p in contributing]) / denominator
        else:
            grads = None
            loss = 0.0
        outcome = EpochOutcome(
            loss=float(loss),
            grads=grads,
            num_contributing=len(contributing),
            num_shards=len(payloads),
            reduce_seconds=time.perf_counter() - start,
            records=payloads,
        )
        _REDUCE_SECONDS.observe(outcome.reduce_seconds)
        return outcome

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop_workers(self) -> None:
        """Stop all worker processes; the next epoch respawns a fresh pool."""
        for handle in self._handles.values():
            try:
                handle.task_queue.put(("stop",))
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + 3.0
        for handle in self._handles.values():
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            self._terminate(handle)
        self._handles.clear()
        self._restarts = Counter()
        self._started = False
        _WORKERS_ALIVE.set(0)
