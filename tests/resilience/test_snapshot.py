"""Full-state snapshots: capture/restore, disk format, damage detection."""

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.datasets import cora_like
from repro.graph import classification_split
from repro.resilience import (
    CheckpointError,
    array_checksum,
    find_latest_snapshot,
    load_snapshot,
    save_snapshot,
    write_latest_pointer,
)
from repro.tensor import Adam, Tensor
from repro.utils import capture_rng_state, restore_rng_state
from tests.damage import corrupt_file, truncate_file


def _config(**overrides):
    defaults = dict(explainable_epochs=4, predictive_epochs=2, seed=0)
    defaults.update(overrides)
    return fast_config("gcn", **defaults)


class TestOptimizerState:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                Tensor(rng.normal(size=(2,)), requires_grad=True)]

    def _step(self, params, optimizer, rounds=3):
        for _ in range(rounds):
            optimizer.zero_grad()
            loss = sum((p * p).sum() for p in params)
            loss.backward()
            optimizer.step()

    @pytest.mark.parametrize("factory", [
        lambda p: Adam(p, lr=0.1, betas=(0.5, 0.9)),
        lambda p: Adam(p, lr=0.05, weight_decay=1e-4),
    ])
    def test_state_dict_round_trip(self, factory):
        source_params = self._params()
        source = factory(source_params)
        self._step(source_params, source)

        target_params = self._params()  # same init, no steps taken
        target = factory(target_params)
        target.load_state_dict(source.state_dict())
        for p_src, p_tgt in zip(source_params, target_params):
            p_tgt.data[...] = p_src.data

        # Both must now evolve identically.
        self._step(source_params, source, rounds=2)
        self._step(target_params, target, rounds=2)
        for p_src, p_tgt in zip(source_params, target_params):
            np.testing.assert_array_equal(p_src.data, p_tgt.data)

    def test_adam_step_count_survives(self):
        params = self._params()
        optimizer = Adam(params, lr=0.05)
        self._step(params, optimizer, rounds=5)
        state = optimizer.state_dict()
        assert state["step_count"] == 5
        fresh = Adam(self._params(), lr=0.05)
        fresh.load_state_dict(state)
        assert fresh.state_dict()["step_count"] == 5

    def test_slot_count_mismatch_rejected(self):
        optimizer = Adam(self._params(), lr=0.05)
        state = optimizer.state_dict()
        state["m"] = state["m"][:1]
        with pytest.raises(ValueError, match="slot"):
            Adam(self._params(), lr=0.05).load_state_dict(state)

    def test_slot_shape_mismatch_rejected(self):
        optimizer = Adam(self._params(), lr=0.05)
        state = optimizer.state_dict()
        state["v"][0] = np.zeros((7, 7))
        with pytest.raises(ValueError, match="shape"):
            Adam(self._params(), lr=0.05).load_state_dict(state)


class TestRngState:
    def test_capture_restore_replays_stream(self):
        rng = np.random.default_rng(42)
        rng.random(10)
        state = capture_rng_state(rng)
        first = rng.random(5)
        restore_rng_state(rng, state)
        np.testing.assert_array_equal(rng.random(5), first)

    def test_capture_is_a_copy(self):
        rng = np.random.default_rng(1)
        state = capture_rng_state(rng)
        rng.random(100)  # must not mutate the captured state
        restore_rng_state(rng, state)
        rng2 = np.random.default_rng(1)
        np.testing.assert_array_equal(rng.random(3), rng2.random(3))

    def test_bit_generator_mismatch_rejected(self):
        state = capture_rng_state(np.random.default_rng(0))
        state["bit_generator"] = "MT19937"
        with pytest.raises(ValueError, match="MT19937"):
            restore_rng_state(np.random.default_rng(0), state)


class TestTrainerSnapshot:
    def test_capture_is_pure(self, small_cora):
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=2)
        before = capture_rng_state(trainer.rng)
        snapshot = trainer.snapshot()
        assert capture_rng_state(trainer.rng) == before
        assert snapshot.completed == {"explainable": 2, "predictive": 0}
        assert "config" in snapshot.describe() or "snapshot" in snapshot.describe()

    def test_restore_rewinds_everything(self, small_cora):
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=2)
        snapshot = trainer.snapshot()
        losses_at_capture = list(trainer.history.phase1_loss)

        trainer.train_explainable(epochs=4)  # two more epochs
        assert len(trainer.history.phase1_loss) == 4
        trainer.restore(snapshot)
        assert trainer.history.phase1_loss == losses_at_capture
        assert trainer._completed == {"explainable": 2, "predictive": 0}

        # Replaying from the restore point reproduces the first continuation.
        reference = SESTrainer(small_cora, _config())
        reference.train_explainable(epochs=4)
        trainer.train_explainable(epochs=4)
        assert trainer.history.phase1_loss == reference.history.phase1_loss
        np.testing.assert_array_equal(
            trainer._frozen_structure_values, reference._frozen_structure_values
        )

    def test_disk_round_trip(self, small_cora, tmp_path):
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=2)
        path = save_snapshot(trainer.snapshot(), tmp_path / "snap.npz")
        loaded = load_snapshot(path)

        fresh = SESTrainer(small_cora, _config())
        fresh.restore(loaded)
        for name, value in trainer.model.state_dict().items():
            np.testing.assert_array_equal(value, fresh.model.state_dict()[name])
        assert fresh.history.phase1_loss == trainer.history.phase1_loss
        assert capture_rng_state(fresh.rng) == capture_rng_state(trainer.rng)

    def test_config_hash_mismatch_refuses_loudly(self, small_cora, tmp_path):
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=1)
        path = save_snapshot(trainer.snapshot(), tmp_path / "snap.npz")

        other = SESTrainer(small_cora, _config(alpha=0.123))
        with pytest.raises(CheckpointError, match="config hash"):
            other.resume(path)
        # ...unless strictness is explicitly waived.
        other.resume(path, strict_config=False)
        assert other._completed["explainable"] == 1

    def test_graph_size_mismatch_rejected(self, small_cora, tiny_graph):
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=1)
        other = SESTrainer(tiny_graph, _config())
        with pytest.raises(CheckpointError, match="nodes"):
            other.restore(trainer.snapshot())

    def test_same_size_graph_with_other_split_rejected(self, small_cora):
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=1)
        # small_cora's graph under another split seed: same nodes, same edges.
        resplit = classification_split(
            cora_like(num_nodes=150, num_classes=4, feature_dim=60, seed=3), seed=4
        )
        other = SESTrainer(resplit, _config())
        with pytest.raises(CheckpointError, match="graph/train_mask"):
            other.restore(trainer.snapshot())

    def test_other_khop_edges_rejected(self, small_cora):
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=1)
        snapshot = trainer.snapshot()
        snapshot.arrays["khop/edges"] = snapshot.arrays["khop/edges"][:, 1:]
        with pytest.raises(CheckpointError, match="khop/edges"):
            SESTrainer(small_cora, _config()).restore(snapshot)


class TestDamageDetection:
    def _saved(self, graph, tmp_path, name="snap.npz"):
        trainer = SESTrainer(graph, _config())
        trainer.train_explainable(epochs=1)
        return save_snapshot(trainer.snapshot(), tmp_path / name)

    def test_truncated_snapshot_rejected(self, small_cora, tmp_path):
        path = self._saved(small_cora, tmp_path)
        truncate_file(path, keep_fraction=0.4)
        with pytest.raises(CheckpointError, match=str(path.name)):
            load_snapshot(path)

    def test_corrupted_snapshot_rejected(self, small_cora, tmp_path):
        path = self._saved(small_cora, tmp_path)
        corrupt_file(path)
        with pytest.raises(CheckpointError):
            load_snapshot(path)

    def test_missing_snapshot_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing.npz"):
            load_snapshot(tmp_path / "missing.npz")

    def test_checksum_catches_array_drift(self, small_cora, tmp_path):
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=1)
        snapshot = trainer.snapshot()
        a = next(iter(snapshot.arrays.values()))
        checksum = array_checksum(a)
        assert checksum == array_checksum(a.copy())
        tweaked = a.copy()
        tweaked.flat[0] += 1.0
        assert checksum != array_checksum(tweaked)

    def test_find_latest_falls_back_past_damage(self, small_cora, tmp_path):
        good = self._saved(small_cora, tmp_path, "snap-explainable-0001.npz")
        trainer = SESTrainer(small_cora, _config())
        trainer.train_explainable(epochs=2)
        newest = save_snapshot(trainer.snapshot(), tmp_path / "snap-explainable-0002.npz")
        write_latest_pointer(tmp_path, newest.name)
        truncate_file(newest, keep_fraction=0.3)  # crash mid-write of the newest

        with pytest.warns(RuntimeWarning, match="falling back"):
            snapshot, path = find_latest_snapshot(tmp_path)
        assert path == good
        assert snapshot.completed["explainable"] == 1

    def test_find_latest_reports_all_failures(self, small_cora, tmp_path):
        path = self._saved(small_cora, tmp_path)
        truncate_file(path, keep_fraction=0.3)
        with pytest.raises(CheckpointError, match="no usable snapshot"):
            find_latest_snapshot(tmp_path)


class TestMonitorState:
    def test_watchdog_log_round_trips(self, small_cora):
        trainer = SESTrainer(small_cora, _config())
        trainer.watchdog.anomalies.append({"op": "__mul__", "kind": "nan"})
        trainer.watchdog.suppressed = 2
        snapshot = trainer.snapshot()
        assert snapshot.manifest["monitor"]["watchdog"]["suppressed"] == 2
        fresh = SESTrainer(small_cora, _config())
        fresh.restore(snapshot)
        assert fresh.watchdog.anomalies == [{"op": "__mul__", "kind": "nan"}]
        assert fresh.watchdog.suppressed == 2

    def test_snapshot_without_a_watchdog_record_restores(self, small_cora):
        # A trainer with telemetry off and no watchdog wrote ``monitor: {}``.
        trainer = SESTrainer(small_cora, _config())
        snapshot = trainer.snapshot()
        snapshot.manifest["monitor"] = {}
        fresh = SESTrainer(small_cora, _config())
        fresh.restore(snapshot)
        assert fresh.watchdog.anomalies == [] and fresh.watchdog.suppressed == 0


class TestExecutionRecord:
    """Format v2's manifest ``execution`` record, literally, in each mode.

    ``sampler`` is the anchor sampler's stream and cursor; full-batch's one
    covering batch draws nothing, so its record carries none.
    """

    SAMPLER_KEYS = {"num_anchors", "batch_size", "seed", "epochs_sampled", "rng_state"}

    def _written(self, trainer, tmp_path):
        path = trainer.save_snapshot_to(tmp_path)
        return load_snapshot(path).manifest["execution"]

    def _check_sampler(self, execution, num_anchors, batch_size):
        sampler = execution.pop("sampler")
        assert set(sampler) == self.SAMPLER_KEYS
        assert (sampler["num_anchors"], sampler["batch_size"]) == (num_anchors, batch_size)
        assert (sampler["seed"], sampler["epochs_sampled"]) == (0, 0)

    def test_full_batch(self, small_cora, tmp_path):
        trainer = SESTrainer(small_cora, _config())
        assert self._written(trainer, tmp_path) == {"mode": "full"}

    def test_minibatch(self, small_cora, tmp_path):
        trainer = SESTrainer(small_cora, _config())
        trainer._configure(batch_size=64)
        execution = self._written(trainer, tmp_path)
        self._check_sampler(execution, trainer.num_nodes, 64)
        assert execution == {"mode": "minibatch", "batch_size": 64}

    def test_parallel(self, small_cora, tmp_path):
        trainer = SESTrainer(small_cora, _config())
        trainer.configure_parallel(2, shards=4)
        execution = self._written(trainer, tmp_path)
        self._check_sampler(execution, trainer.num_nodes, -(-trainer.num_nodes // 4))
        assert execution == {"mode": "parallel", "workers": 2, "shards": 4}
