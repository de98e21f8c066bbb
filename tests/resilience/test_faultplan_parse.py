"""FaultPlan.parse error-message regressions (docs/ROBUSTNESS.md).

A typo in ``REPRO_FAULTS`` must read as a one-line usage error naming the
offending token — never an unpack/KeyError stack trace from inside the
trainer.  These tests pin the message contract for every rejection path,
including the worker-fault grammar extension (``kind@phase:epoch:rank``).
"""

import pytest

from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.faults import WORKER_KINDS


def _message(spec: str) -> str:
    with pytest.raises(ValueError) as excinfo:
        FaultSpec.parse(spec)
    message = str(excinfo.value)
    assert "\n" not in message, f"error for {spec!r} is not one line: {message!r}"
    return message


class TestRejections:
    def test_empty_spec(self):
        assert "empty fault spec" in _message("   ")

    def test_missing_at(self):
        message = _message("crash-explainable-5")
        assert "crash-explainable-5" in message
        assert "missing '@'" in message

    def test_unknown_kind_names_token_and_spec(self):
        message = _message("explode@explainable:5")
        assert "'explode'" in message
        assert "explode@explainable:5" in message

    def test_wrong_field_count(self):
        message = _message("crash@explainable")
        assert "1 field(s)" in message

    def test_too_many_fields(self):
        assert "4 field(s)" in _message("nan@explainable:5:relu:extra")

    def test_unknown_phase_names_token(self):
        message = _message("crash@warmup:5")
        assert "'warmup'" in message

    def test_non_integer_epoch_names_token(self):
        message = _message("crash@explainable:five")
        assert "'five'" in message
        assert "not an integer" in message

    def test_negative_epoch(self):
        assert "must be >= 0" in _message("crash@explainable:-2")

    def test_crash_rejects_op_field(self):
        assert "no op field" in _message("crash@explainable:5:relu")

    def test_nan_rejects_empty_op(self):
        assert "empty op field" in _message("nan@explainable:5:")

    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_worker_kind_requires_rank(self, kind):
        message = _message(f"{kind}@explainable:5")
        assert "rank" in message

    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_worker_rank_must_be_integer(self, kind):
        message = _message(f"{kind}@explainable:5:one")
        assert "'one'" in message
        assert "rank" in message

    def test_worker_rank_must_be_non_negative(self):
        assert "must be >= 0" in _message("kill_worker@explainable:5:-1")

    def test_plan_parse_propagates_spec_error(self):
        with pytest.raises(ValueError, match="explode"):
            FaultPlan.parse("crash@explainable:5,explode@predictive:1")


class TestAccepted:
    def test_worker_fault_round_trip(self):
        spec = FaultSpec.parse("kill_worker@any:3:2")
        assert spec.kind == "kill_worker"
        assert spec.phase == "any"
        assert spec.epoch == 3
        assert spec.rank == 2
        assert spec.op is None

    def test_hang_worker(self):
        spec = FaultSpec.parse("hang_worker@predictive:0:0")
        assert spec.kind == "hang_worker"
        assert spec.rank == 0

    def test_worker_specs_filters_and_preserves_order(self):
        plan = FaultPlan.parse(
            "crash@explainable:1,kill_worker@any:0:1,"
            "nan@explainable:0,hang_worker@explainable:0:1"
        )
        # Crash and NaN specs are never worker faults; the worker faults due
        # for a rank come out in declaration order, each once.
        assert plan.take_worker_fault(0, "explainable", 0) is None
        assert plan.take_worker_fault(1, "explainable", 1) is None
        assert plan.take_worker_fault(1, "explainable", 0) == "kill_worker"
        assert plan.take_worker_fault(1, "explainable", 0) == "hang_worker"
        assert plan.take_worker_fault(1, "explainable", 0) is None

    def test_whitespace_tolerated(self):
        spec = FaultSpec.parse("  kill_worker @ explainable : 2 : 1  ".replace(" ", ""))
        assert spec.rank == 1
