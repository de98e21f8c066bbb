"""Supervisor failure-handling edge cases (docs/PARALLEL.md).

Shorter runs than ``test_parity`` (3+2 epochs): these tests exercise the
watchdog, restart budgets and degradation paths, asserting both the
recovery bookkeeping and that recovery never moves the numbers.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
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
            {"workers": 2, "heartbeat_interval": 0.0},
            {"workers": 2, "heartbeat_interval": 1.0, "heartbeat_timeout": 0.5},
            {"workers": 2, "max_restarts": -1},
            {"workers": 2, "restart_backoff": -0.1},
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
        trainer._configure_minibatch(64)
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


class TestWorkerErrors:
    def test_worker_exception_surfaces_with_traceback(self):
        # A broken init makes ShardContext's constructor raise inside the
        # worker; the supervisor re-raises with the shipped traceback.
        config = ParallelConfig(workers=2, shards=2)
        supervisor = WorkerSupervisor(
            config, num_anchors=8, seed=0, init_factory=lambda: {"bad": 1}
        )
        try:
            with pytest.raises(ParallelTrainingError, match="Traceback"):
                supervisor.run_epoch(
                    "explainable",
                    0,
                    supervisor.epoch_shards(),
                    params=[],
                    constants={"negative_pairs": {}},
                )
        finally:
            supervisor.stop_workers()

    def test_stop_workers_is_idempotent(self):
        config = ParallelConfig(workers=2, shards=2)
        supervisor = WorkerSupervisor(
            config, num_anchors=8, seed=0, init_factory=lambda: {"bad": 1}
        )
        supervisor.stop_workers()  # never started: no-op
        supervisor.stop_workers()
