"""Supervisor failure-handling edge cases (docs/PARALLEL.md).

Shorter runs than ``test_parity`` (3+2 epochs): these tests exercise the
watchdog, restart budgets and degradation paths, asserting both the
recovery bookkeeping and that recovery never moves the numbers.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.core.ses import phase_parameters
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.parallel import ParallelConfig, ParallelTrainingError, WorkerSupervisor
from repro.resilience import FaultPlan

pytestmark = pytest.mark.parallel

REPO = Path(__file__).resolve().parent.parent.parent

EXPLAINABLE_EPOCHS = 3
PREDICTIVE_EPOCHS = 2


def _graph():
    return classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)


def _config():
    return fast_config(
        "gcn",
        explainable_epochs=EXPLAINABLE_EPOCHS,
        predictive_epochs=PREDICTIVE_EPOCHS,
        seed=0,
    )


def _assert_bit_identical(result, reference):
    assert result.history.phase1_loss == reference.history.phase1_loss
    assert result.history.phase2_loss == reference.history.phase2_loss
    np.testing.assert_array_equal(result.logits, reference.logits)
    assert result.test_accuracy == reference.test_accuracy


@pytest.fixture(scope="module")
def reference():
    """Clean workers=1 run of the short configuration."""
    return SESTrainer(_graph(), _config()).fit(workers=1)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": 2, "shards": 0},
            {"workers": 2, "heartbeat_timeout": 0.0},
            {"workers": 2, "heartbeat_timeout": -1.0},
            {"workers": 2, "max_restarts": -1},
            {"workers": 2, "shards": -1},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ParallelConfig(**kwargs)

    def test_workers_and_batch_size_mutually_exclusive(self):
        with pytest.raises(ValueError, match="exclusive"):
            SESTrainer(_graph(), _config()).fit(batch_size=64, workers=2)

    def test_configure_parallel_after_minibatch_rejected(self):
        trainer = SESTrainer(_graph(), _config())
        trainer._configure(batch_size=64)
        with pytest.raises(ValueError):
            trainer.configure_parallel(2)

    def test_reconfigure_with_different_workers_rejected(self):
        trainer = SESTrainer(_graph(), _config())
        trainer.configure_parallel(2)
        with pytest.raises(ValueError):
            trainer.configure_parallel(4)


class TestHungWorker:
    def test_heartbeat_timeout_catches_silent_worker(self, reference):
        # hang_worker leaves the process *alive* but silent: only the
        # heartbeat watchdog (not the is_alive check) can catch it.
        trainer = SESTrainer(
            _graph(),
            _config(),
            faults=FaultPlan.parse("hang_worker@explainable:1:0"),
        )
        trainer.configure_parallel(2, heartbeat_timeout=1.0)
        result = trainer.fit()
        runner = trainer._parallel
        assert runner.total_failures == 1
        assert runner.total_restarts == 1
        _assert_bit_identical(result, reference)


# Trains in a fresh interpreter and prints what the parity check compares.
_SLOW_START_FIT = """
import hashlib, json
from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.obs.metrics import default_registry

graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
config = fast_config("gcn", explainable_epochs=%d, predictive_epochs=%d, seed=0)
trainer = SESTrainer(graph, config)
trainer.configure_parallel(2, heartbeat_timeout=1.0)
result = trainer.fit()
starts = default_registry().get("repro_parallel_worker_start_seconds")
print(json.dumps({
    "failures": trainer._parallel.total_failures,
    "starts": [starts.count(rank=str(rank)) for rank in (0, 1)],
    "phase1_loss": trainer.history.phase1_loss,
    "phase2_loss": trainer.history.phase2_loss,
    "logits_sha256": hashlib.sha256(result.logits.tobytes()).hexdigest(),
}))
""" % (EXPLAINABLE_EPOCHS, PREDICTIVE_EPOCHS)


class TestSlowStart:
    def test_importing_workers_are_not_hung(self, reference, tmp_path):
        # An empty bytecode cache that nothing may write to makes every
        # process compile the stdlib, numpy and scipy from source: worker
        # start-up then takes far longer than the 1 s heartbeat timeout.
        # The heartbeat clock starts at a worker's hello, so importing is
        # not silence and no rank is declared hung.
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO / "src"),
            PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"),
            PYTHONDONTWRITEBYTECODE="1",
        )
        done = subprocess.run(
            [sys.executable, "-c", _SLOW_START_FIT],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert done.returncode == 0, done.stderr
        run = json.loads(done.stdout.strip().splitlines()[-1])
        assert run["failures"] == 0
        assert run["starts"] == [1, 1]  # one spawn-to-hello sample per rank
        assert run["phase1_loss"] == reference.history.phase1_loss
        assert run["phase2_loss"] == reference.history.phase2_loss
        assert run["logits_sha256"] == hashlib.sha256(
            reference.logits.tobytes()
        ).hexdigest()


def _proc_text(pid, name):
    return (Path("/proc") / str(pid) / name).read_bytes().decode("utf-8", "replace")


def _parent_pid(pid):
    # /proc/<pid>/stat: "pid (comm) state ppid ..."; comm may hold spaces.
    return int(_proc_text(pid, "stat").rsplit(")", 1)[1].split()[1])


@pytest.mark.skipif(not Path("/proc/self/environ").exists(), reason="needs /proc")
class TestPoolContract:
    """Workers run one BLAS thread and fork from one shared forkserver."""

    @pytest.fixture(scope="class")
    def pools(self):
        trainer = SESTrainer(_graph(), _config())
        params = [p.data.copy() for p in phase_parameters(trainer.model, "explainable")]
        environ = dict(os.environ)
        pools = []
        for _ in range(2):
            supervisor = WorkerSupervisor(
                ParallelConfig(workers=2), init_factory=trainer._parallel_init
            )
            try:
                supervisor.run_epoch(
                    "explainable", 0, np.array_split(np.arange(trainer.num_nodes), 4),
                    params=params,
                    constants={"negative_pairs": trainer.negative_pairs},
                )
                pids = [handle.process.pid for handle in supervisor._handles.values()]
                pools.append({
                    pid: (_proc_text(pid, "environ").split("\0"), _parent_pid(pid))
                    for pid in pids
                })
            finally:
                supervisor.stop_workers()
        return {"environ_before": environ, "environ_after": dict(os.environ), "pools": pools}

    def test_workers_run_one_blas_thread(self, pools):
        for pool in pools["pools"]:
            assert len(pool) == 2
            for environ, _ in pool.values():
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                    assert f"{name}=1" in environ, name

    def test_parent_environment_unchanged(self, pools):
        assert pools["environ_after"] == pools["environ_before"]

    def test_pools_fork_from_one_forkserver(self, pools):
        parents = {ppid for pool in pools["pools"] for _, ppid in pool.values()}
        assert len(parents) == 1
        assert parents != {os.getpid()}


# Runs multiprocessing's own exit sequence, then reports whether the pool's
# helper processes still exist.
_EXIT_FIT = """
import json, multiprocessing.forkserver, multiprocessing.resource_tracker, os
import multiprocessing.util
from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split

graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
config = fast_config("gcn", explainable_epochs=1, predictive_epochs=1, seed=0)
SESTrainer(graph, config).fit(workers=1)
helpers = [
    multiprocessing.forkserver._forkserver._forkserver_pid,
    multiprocessing.resource_tracker._resource_tracker._pid,
]
multiprocessing.util._exit_function()
print(json.dumps([os.path.exists(f"/proc/{pid}") for pid in helpers]))
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestPoolLifetime:
    def test_helpers_are_reaped_before_exit(self, tmp_path):
        # An orphaned forkserver or resource tracker can still be exiting
        # after its parent is gone, where a caller that waits for the
        # parent's process group finds it.  Both must be stopped and reaped
        # inside the interpreter's exit sequence.
        done = subprocess.run(
            [sys.executable, "-c", _EXIT_FIT],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == [False, False]


# Puts the source tree on sys.path by hand, as a script run without
# PYTHONPATH does, fits once and reports whether the forkserver has numpy.
_PRELOAD_FIT = """
import json, multiprocessing.forkserver, sys
sys.path.insert(0, %r)
from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split

graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
config = fast_config("gcn", explainable_epochs=1, predictive_epochs=1, seed=0)
SESTrainer(graph, config).fit(workers=2)
pid = multiprocessing.forkserver._forkserver._forkserver_pid
with open(f"/proc/{pid}/maps") as maps:
    print(json.dumps("_multiarray_umath" in maps.read()))
""" % str(REPO / "src")


# Runs one parallel epoch, writes the pool's pids to argv[1] and dies with
# SIGKILL: no finalizer, atexit hook or daemon-child cleanup runs.
_KILLED_SUPERVISOR = """
import json, multiprocessing.forkserver, os, signal, sys
from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split

graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
trainer = SESTrainer(graph, fast_config("gcn", explainable_epochs=1, seed=0))
trainer.configure_parallel(2)
trainer.train_explainable()
pids = [handle.process.pid for handle in trainer._parallel._handles.values()]
pids.append(multiprocessing.forkserver._forkserver._forkserver_pid)
with open(sys.argv[1], "w") as out:
    json.dump(pids, out)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc")
class TestPoolProcesses:
    def test_forkserver_preloads_without_pythonpath(self, tmp_path):
        # Python 3.11's forkserver ignores the sys_path it is handed; the
        # pool exports the parent's sys.path while it starts the server.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", _PRELOAD_FIT],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) is True

    def test_pool_exits_with_a_killed_supervisor(self, tmp_path):
        # Idle workers block on their task queues without a timeout; each
        # still ends when the supervisor's end of its event pipe closes, and
        # the forkserver follows once no worker holds it.
        pid_file = tmp_path / "pids.json"
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_SUPERVISOR, str(pid_file)],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            cwd=tmp_path,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        child.wait(timeout=240)
        pids = json.loads(pid_file.read_text())
        deadline = time.monotonic() + 10.0
        alive = pids
        try:
            while alive and time.monotonic() < deadline:
                time.sleep(0.1)
                alive = [pid for pid in pids if Path(f"/proc/{pid}").exists()]
            assert alive == []
        finally:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass


class TestDegradation:
    def test_budget_exhaustion_degrades_pool_bit_identically(self, reference):
        # max_restarts=0: the first kill permanently drops rank 1 and its
        # shards redistribute over the survivors — numbers unchanged.
        trainer = SESTrainer(
            _graph(),
            _config(),
            faults=FaultPlan.parse("kill_worker@explainable:1:1"),
        )
        trainer.configure_parallel(4, max_restarts=0)
        result = trainer.fit()
        runner = trainer._parallel
        assert runner.degraded_ranks == {1}
        assert runner.total_restarts == 0
        _assert_bit_identical(result, reference)

    def test_empty_pool_raises(self):
        # Two workers, both killed, no restart budget: the supervisor must
        # fail loudly rather than wait forever.
        plan = FaultPlan.parse(
            "kill_worker@explainable:0:0,kill_worker@explainable:0:1"
        )
        trainer = SESTrainer(_graph(), _config(), faults=plan)
        trainer.configure_parallel(2, max_restarts=0)
        with pytest.raises(ParallelTrainingError):
            trainer.fit()

    def test_dead_worker_error_names_its_exit_code(self):
        # The event pipe of a killed worker closes before the process is
        # reaped; the error must still carry the code it exited with.
        for _ in range(5):
            trainer = SESTrainer(
                _graph(),
                _config(),
                faults=FaultPlan.parse("kill_worker@explainable:0:0"),
            )
            trainer.configure_parallel(1, max_restarts=0)
            with pytest.raises(
                ParallelTrainingError, match=r"exitcode=17, after its hello"
            ):
                trainer.fit()


class TestWorkerErrors:
    def test_worker_exception_surfaces_with_traceback(self):
        # A broken init makes ShardContext's constructor raise inside the
        # worker; the supervisor re-raises with the shipped traceback.
        config = ParallelConfig(workers=2, shards=2)
        supervisor = WorkerSupervisor(config, init_factory=lambda: {"bad": 1})
        try:
            with pytest.raises(ParallelTrainingError, match="Traceback"):
                supervisor.run_epoch(
                    "explainable",
                    0,
                    np.array_split(np.arange(8), 2),
                    params=[],
                    constants={"negative_pairs": {}},
                )
        finally:
            supervisor.stop_workers()

    def test_stop_workers_is_idempotent(self):
        config = ParallelConfig(workers=2, shards=2)
        supervisor = WorkerSupervisor(config, init_factory=lambda: {"bad": 1})
        supervisor.stop_workers()  # never started: no-op
        supervisor.stop_workers()
