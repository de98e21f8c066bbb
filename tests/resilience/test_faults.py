"""Fault injection and the NaN-recovery policy end to end."""

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    SimulatedCrash,
    TrainingDivergedError,
    recovery_policy_from_env,
)
from repro.tensor import Tensor


def _config(**overrides):
    defaults = dict(explainable_epochs=5, predictive_epochs=2, seed=0)
    defaults.update(overrides)
    return fast_config("gcn", **defaults)


class TestFaultSpecGrammar:
    def test_parse_crash(self):
        spec = FaultSpec.parse("crash@explainable:5")
        assert spec == FaultSpec(kind="crash", phase="explainable", epoch=5)

    def test_parse_nan_with_op(self):
        spec = FaultSpec.parse(" nan@predictive:3:relu ")
        assert spec == FaultSpec(kind="nan", phase="predictive", epoch=3, op="relu")

    def test_parse_any_phase(self):
        spec = FaultSpec.parse("nan@any:0")
        assert spec.matches("explainable", 0)
        assert spec.matches("predictive", 0)
        assert not spec.matches("explainable", 1)

    @pytest.mark.parametrize("bad", [
        "explode@explainable:1",      # unknown kind
        "crash@warmup:1",             # unknown phase
        "crash@explainable",          # missing epoch
        "crash@explainable:x",        # non-integer epoch
        "crash@explainable:1:matmul", # crash takes no op
        "nan-predictive-3",           # no @ separator
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_plan_parse_and_env(self, monkeypatch):
        plan = FaultPlan.parse("crash@explainable:1, nan@predictive:0")
        assert len(plan.specs) == 2 and plan
        assert not FaultPlan.parse(None) and not FaultPlan.parse("  ")
        monkeypatch.setenv("REPRO_FAULTS", "nan@any:2")
        assert FaultPlan.from_env().specs == [FaultSpec("nan", "any", 2)]

    def test_specs_fire_once(self):
        plan = FaultPlan.parse("crash@explainable:1")
        with pytest.raises(SimulatedCrash):
            plan.check_crash("explainable", 1)
        plan.check_crash("explainable", 1)  # spent — no second crash


class TestNaNInjection:
    def test_poisons_first_op_and_restores_hook(self):
        plan = FaultPlan.parse("nan@explainable:0")
        original = Tensor.__dict__["_make"]
        with plan.nan_injection("explainable", 0):
            poisoned = Tensor(np.ones(3), requires_grad=True) * 2.0
            clean = Tensor(np.ones(3), requires_grad=True) * 2.0
        assert np.isnan(poisoned.data).any()
        assert np.isfinite(clean.data).all()  # one-shot within the block
        assert Tensor.__dict__["_make"] is original

    def test_no_fault_due_is_free(self):
        plan = FaultPlan.parse("nan@explainable:7")
        with plan.nan_injection("explainable", 0):
            out = Tensor(np.ones(3), requires_grad=True) * 2.0
        assert np.isfinite(out.data).all()


class TestRecoveryPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(on_exhaustion="panic")

    def test_policy_from_env(self):
        assert recovery_policy_from_env({}) is None
        assert recovery_policy_from_env({"REPRO_RECOVERY": "0"}) is None
        assert recovery_policy_from_env({"REPRO_RECOVERY": "1"}) == RecoveryPolicy()
        assert recovery_policy_from_env(
            {"REPRO_RECOVERY": "raise"}
        ).on_exhaustion == "raise"

    @pytest.mark.parametrize("value", ["rasie", "maybe", "2"])
    def test_policy_from_env_rejects_unknown_values(self, value):
        with pytest.raises(ValueError, match=f"unknown REPRO_RECOVERY value '{value}'.*'raise'"):
            recovery_policy_from_env({"REPRO_RECOVERY": value})

    def test_nan_triggers_rollback_backoff_and_convergence(self, small_cora):
        config = _config()
        trainer = SESTrainer(
            small_cora, config,
            recovery=RecoveryPolicy(),
            faults=FaultPlan.parse("nan@explainable:2"),
        )
        result = trainer.fit()
        assert trainer.recovery.total_rollbacks == 1
        # The poisoned epoch was rewound: the history holds exactly the
        # configured number of epochs, all finite.
        assert len(result.history.phase1_loss) == config.explainable_epochs
        assert all(np.isfinite(result.history.phase1_loss))
        assert np.isfinite(result.logits).all()
        # The retry ran at the backed-off learning rate.
        assert trainer._optimizer("explainable").lr == pytest.approx(
            config.learning_rate * 0.5
        )

    def test_exhaustion_degrades_gracefully(self, small_cora):
        persistent = ",".join(["nan@explainable:2"] * 8)
        trainer = SESTrainer(
            small_cora, _config(),
            recovery=RecoveryPolicy(),
            faults=FaultPlan.parse(persistent),
        )
        result = trainer.fit()
        # Three retries, then the fourth consecutive anomaly exhausts them.
        assert trainer.recovery.total_rollbacks == 4
        assert "explainable" in trainer.recovery.degraded_phases
        # Phase 1 ended at the last good epoch; masks froze there and
        # phase 2 still ran to completion on them.
        assert trainer._completed["explainable"] == 2
        assert trainer._completed["predictive"] == _config().predictive_epochs
        assert trainer._frozen_structure_values is not None
        assert np.isfinite(result.logits).all()

    def test_exhaustion_can_raise(self, small_cora):
        persistent = ",".join(["nan@explainable:1"] * 8)
        trainer = SESTrainer(
            small_cora, _config(),
            recovery=RecoveryPolicy(on_exhaustion="raise"),
            faults=FaultPlan.parse(persistent),
        )
        with pytest.raises(TrainingDivergedError, match="explainable") as error:
            trainer.fit()
        assert trainer.recovery.total_rollbacks == 4
        assert error.value.retries == 4

    def test_non_finite_parameter_rolls_back(self, small_cora, monkeypatch):
        import io
        import json

        from repro.obs import RunRecorder
        from repro.tensor.optim import Adam

        trainer = SESTrainer(small_cora, _config(), recovery=RecoveryPolicy())
        # Recovery events go to a recorder of their own: the trainer's stays
        # disabled, so no NaN watchdog runs and only the parameter check can
        # see the damage.
        buffer = io.StringIO()
        trainer.recovery.recorder = RunRecorder(run_id="param-check", path=buffer)
        step = Adam.step
        poisoned = []

        def poisoning_step(optimizer):
            step(optimizer)
            if trainer._completed["explainable"] == 2 and not poisoned:
                optimizer.params[0].data.flat[0] = np.nan
                poisoned.append(True)

        monkeypatch.setattr(Adam, "step", poisoning_step)
        result = trainer.fit()
        assert poisoned
        assert trainer.recovery.total_rollbacks == 1
        assert all(np.isfinite(result.history.phase1_loss))
        events = [json.loads(line) for line in buffer.getvalue().strip().split("\n")]
        (event,) = [e for e in events if e["event"] == "recovery_event"]
        assert event["action"] == "rollback"
        assert event["epoch"] == 2
        assert event["reason"] == "non-finite parameter after optimizer step"
        assert np.isfinite(result.logits).all()

    def test_recovery_events_recorded(self, small_cora):
        import io
        import json

        from repro.obs import RunRecorder

        buffer = io.StringIO()
        recorder = RunRecorder(run_id="recovery-test", path=buffer)
        trainer = SESTrainer(
            small_cora, _config(), recorder=recorder,
            recovery=RecoveryPolicy(),
            faults=FaultPlan.parse("nan@explainable:1"),
        )
        trainer.fit()
        events = [json.loads(line) for line in buffer.getvalue().strip().split("\n")]
        recoveries = [e for e in events if e["event"] == "recovery_event"]
        assert len(recoveries) == 1
        assert recoveries[0]["action"] == "rollback"
        assert recoveries[0]["phase"] == "explainable"
        assert recoveries[0]["epoch"] == 1
        assert recoveries[0]["rolled_back_to"]["explainable"] == 1

    def test_without_recovery_nan_flows_as_before(self, small_cora):
        # Historical behaviour is preserved when no policy is configured:
        # the poisoned epoch trains as it lies and the loss goes non-finite.
        trainer = SESTrainer(
            small_cora, _config(explainable_epochs=3),
            faults=FaultPlan.parse("nan@explainable:1"),
        )
        trainer.train_explainable()
        assert not np.isfinite(trainer.history.phase1_loss[1])


class TestCrashInPhase2:
    def test_crash_spec_in_predictive_phase(self, small_cora):
        trainer = SESTrainer(
            small_cora, _config(), faults=FaultPlan.parse("crash@predictive:1")
        )
        with pytest.raises(SimulatedCrash) as excinfo:
            trainer.fit()
        assert excinfo.value.phase == "predictive"
        assert trainer._completed == {"explainable": 5, "predictive": 1}
