"""Training-health monitors: tensor statistics, payload functions, watchdog."""

import io
import json
import math

import numpy as np
import pytest

from repro.obs import (
    NaNWatchdog,
    RunRecorder,
    activation_stats,
    grad_stats,
    mask_health,
    param_stats,
    triplet_margin,
)
from repro.tensor import Tensor


def _recorder():
    buffer = io.StringIO()
    return RunRecorder(run_id="t", path=buffer), buffer


def _events(buffer):
    text = buffer.getvalue().strip()
    return [json.loads(line) for line in text.split("\n")] if text else []


class TestArrayStats:
    def test_matches_numpy_on_single_array(self):
        values = np.array([1.0, -2.0, 0.0, 4.5])
        stats = activation_stats(values)
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(values.mean())
        assert stats["std"] == pytest.approx(values.std())
        assert stats["norm"] == pytest.approx(np.linalg.norm(values))
        assert stats["frac_zero"] == pytest.approx(0.25)
        assert stats["min"] == -2.0 and stats["max"] == 4.5
        assert stats["max_abs"] == 4.5

    def test_several_arrays_match_their_concatenation(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        params = [
            Tensor(chunk, requires_grad=True) for chunk in np.split(values, [7, 30, 31, 90])
        ]
        stats = param_stats([(f"p{i}", param) for i, param in enumerate(params)])
        assert stats["count"] == 100
        assert stats["mean"] == pytest.approx(values.mean())
        assert stats["std"] == pytest.approx(values.std())
        assert stats["global_norm"] == pytest.approx(np.linalg.norm(values))

    def test_empty_input_is_none(self):
        assert activation_stats(np.array([])) is None
        assert param_stats([("w", Tensor(np.array([]), requires_grad=True))]) is None

    def test_multidimensional_input_is_flattened(self):
        stats = activation_stats(np.ones((3, 4)))
        assert stats["count"] == 12 and stats["mean"] == 1.0


class TestIndividualMonitors:
    def test_grad_stats_names_worst_param(self):
        small = Tensor(np.array([0.1]), requires_grad=True)
        big = Tensor(np.array([5.0]), requires_grad=True)
        none = Tensor(np.array([1.0]), requires_grad=True)
        small.grad = np.array([0.1])
        big.grad = np.array([-9.0])
        payload = grad_stats([("enc.w", small), ("mask.w", big), ("frozen", none)])
        assert payload["worst_param"] == "mask.w"
        assert payload["worst_param_norm"] == pytest.approx(9.0)
        assert payload["missing_grads"] == 1
        assert payload["global_norm"] == pytest.approx(np.sqrt(0.1**2 + 81.0))
        assert payload["max_abs"] == pytest.approx(9.0)

    def test_grad_stats_silent_when_no_grads(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        assert grad_stats([("w", p)]) is None

    def test_param_stats_event(self):
        p = Tensor(np.array([3.0, -4.0]), requires_grad=True)
        payload = param_stats([("w", p)])
        assert payload["global_norm"] == pytest.approx(5.0)
        assert param_stats([]) is None

    def test_activation_stats_one_event_per_tensor(self):
        hidden, logits = activation_stats(np.ones(4)), activation_stats(np.zeros(2))
        assert hidden["count"] == 4 and hidden["frac_zero"] == 0.0
        assert logits["frac_zero"] == 1.0
        assert activation_stats(np.array([])) is None

    def test_mask_health_detects_saturation(self):
        saturated = np.array([0.0, 0.01, 0.99, 1.0])
        payload = mask_health(saturated)
        assert payload["saturated_low"] == 0.5 and payload["saturated_high"] == 0.5
        assert payload["entropy"] < 0.1  # near-deterministic mask → low entropy

    def test_mask_health_entropy_peaks_at_half(self):
        payload = mask_health(np.full(8, 0.5))
        assert payload["entropy"] == pytest.approx(math.log(2))
        assert payload["saturated_low"] == 0.0 and payload["saturated_high"] == 0.0
        assert mask_health(np.array([])) is None

    def test_triplet_margin_counts_violations(self):
        pos = np.array([1.0, 1.0, 1.0])
        neg = np.array([3.0, 1.2, 0.5])  # margins: 2.0, 0.2, -0.5
        payload = triplet_margin(pos, neg, 0.5)
        assert payload["num_pairs"] == 3
        assert payload["frac_violating"] == pytest.approx(2 / 3)
        assert payload["min_margin"] == pytest.approx(-0.5)
        assert payload["mean_margin"] == pytest.approx((2.0 + 0.2 - 0.5) / 3)
        assert triplet_margin(np.array([]), np.array([]), 0.5) is None


class TestNaNWatchdog:
    def test_records_forward_inf_with_op_name(self):
        watchdog = NaNWatchdog()
        with watchdog:
            x = Tensor(np.ones(3), requires_grad=True)
            x * np.array([1.0, np.inf, 1.0])
        assert len(watchdog.anomalies) == 1
        anomaly = watchdog.anomalies[0]
        assert anomaly["op"] == "__mul__"
        assert anomaly["direction"] == "forward"
        assert anomaly["kind"] == "inf"

    def test_records_nan_kind(self):
        watchdog = NaNWatchdog()
        with watchdog:
            Tensor(np.ones(2), requires_grad=True) * np.array([np.nan, 1.0])
        assert watchdog.anomalies[0]["kind"] == "nan"

    def test_backward_anomaly_direction(self):
        watchdog = NaNWatchdog()
        with watchdog:
            x = Tensor(np.ones(2), requires_grad=True)
            y = x * 2.0
            y.backward(np.array([np.nan, 1.0]))
        directions = {a["direction"] for a in watchdog.anomalies}
        assert "backward" in directions

    def test_emits_numerical_event_with_context(self):
        rec, buffer = _recorder()
        watchdog = NaNWatchdog(rec)
        watchdog.context.update(phase="explainable", epoch=7)
        with watchdog:
            Tensor(np.ones(2), requires_grad=True) * np.array([np.inf, 1.0])
        (event,) = _events(buffer)
        assert event["event"] == "numerical_event"
        assert event["op"] == "__mul__"
        assert event["phase"] == "explainable" and event["epoch"] == 7

    def test_make_restored_after_exit(self):
        before = Tensor.__dict__["_make"].__func__
        with NaNWatchdog():
            assert Tensor.__dict__["_make"].__func__ is not before
        assert Tensor.__dict__["_make"].__func__ is before
        # An exception leaving the context unwinds the hook too.
        with pytest.raises(RuntimeError):
            with NaNWatchdog():
                raise RuntimeError("boom")
        assert Tensor.__dict__["_make"].__func__ is before

    def test_max_events_caps_recording(self):
        watchdog = NaNWatchdog()
        with watchdog:
            bad = np.array([np.inf, 1.0])
            for _ in range(13):
                Tensor(np.ones(2), requires_grad=True) * bad
        assert len(watchdog.anomalies) == 10
        assert watchdog.suppressed == 3

    def test_finite_run_records_nothing(self):
        watchdog = NaNWatchdog()
        with watchdog:
            (Tensor(np.ones(4), requires_grad=True) * 2.0).sum().backward()
        assert watchdog.anomalies == []

    def test_composes_with_profiler(self):
        from repro.obs import OpProfiler

        watchdog = NaNWatchdog()
        with OpProfiler() as prof:
            with watchdog:
                Tensor(np.ones(2), requires_grad=True) * np.array([np.inf, 1.0])
        assert watchdog.anomalies[0]["op"] == "__mul__"
        assert prof.stats["__mul__"].forward_calls == 1  # profiler still counted


class TestDefaultMonitors:
    """The trainer's default health monitoring follows its recorder."""

    def test_null_recorder_yields_falsy_set(self, tiny_graph, monkeypatch):
        """Telemetry off: no statistic is computed, the watchdog never runs."""
        import repro.core.ses as ses
        from repro.core import SESTrainer, fast_config

        def refuse(*args, **kwargs):
            raise AssertionError("health statistic computed with telemetry off")

        for name in ("grad_stats", "param_stats", "activation_stats",
                     "mask_health", "triplet_margin"):
            monkeypatch.setattr(ses, name, refuse)
        monkeypatch.setattr(NaNWatchdog, "__enter__", refuse)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        config = fast_config(explainable_epochs=2, predictive_epochs=1, hidden_features=8)
        trainer = SESTrainer(tiny_graph, config)
        trainer.fit()
        assert not trainer.recorder.enabled

    def test_live_recorder_yields_full_set(self, tiny_graph):
        """Telemetry on: every health event kind, and a watchdog bound to
        the recorder that reports where training was."""
        from repro.core import SESTrainer, fast_config
        from repro.resilience import FaultPlan

        rec, buffer = _recorder()
        config = fast_config(explainable_epochs=3, predictive_epochs=1, hidden_features=8)
        trainer = SESTrainer(
            tiny_graph, config, recorder=rec, faults=FaultPlan.parse("nan@explainable:1")
        )
        assert trainer.watchdog.recorder is rec
        trainer.fit()
        events = _events(buffer)
        kinds = {e["event"] for e in events}
        for required in ("grad_stats", "param_stats", "activation_stats",
                         "mask_health", "triplet_margin"):
            assert required in kinds, required
        numerical = [e for e in events if e["event"] == "numerical_event"]
        assert numerical, "the watchdog missed the injected NaN"
        assert numerical[0]["phase"] == "explainable" and numerical[0]["epoch"] == 1


class TestTrainerIntegration:
    def test_trainer_with_monitors_emits_health_events(self, tiny_graph):
        from repro.core import SESTrainer, fast_config

        buffer = io.StringIO()
        rec = RunRecorder(run_id="mon", path=buffer)
        config = fast_config(
            explainable_epochs=3, predictive_epochs=2, hidden_features=8
        )
        SESTrainer(tiny_graph, config, recorder=rec).fit()
        kinds = {e["event"] for e in _events(buffer)}
        for required in ("grad_stats", "param_stats", "activation_stats",
                        "mask_health", "triplet_margin", "span"):
            assert required in kinds, required
        # And the hook is gone once training finished.
        clean = Tensor(np.ones(2), requires_grad=True) * 2.0
        assert clean._backward.__qualname__.endswith("__mul__.<locals>.backward")

    def test_monitors_do_not_perturb_training(self, tiny_graph):
        from repro.core import SESTrainer, fast_config

        config = fast_config(
            explainable_epochs=3, predictive_epochs=2, hidden_features=8
        )
        plain = SESTrainer(tiny_graph, config).fit()
        buffer = io.StringIO()
        rec = RunRecorder(run_id="mon2", path=buffer)
        monitored = SESTrainer(tiny_graph, config, recorder=rec).fit()
        assert plain.history.phase1_loss == monitored.history.phase1_loss
        assert plain.test_accuracy == monitored.test_accuracy
