"""``python -m repro run-ses``: flag checks and the mode summary lines."""

import pytest

import repro.datasets
from repro import run_ses


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if the command gets as far as loading a dataset."""

    def load_dataset(*args, **kwargs):
        raise AssertionError("run-ses loaded a dataset before rejecting its flags")

    monkeypatch.setattr(repro.datasets, "load_dataset", load_dataset)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workers", "2", "--batch-size", "64"], "--workers and --batch-size are mutually exclusive"),
        (["--shards", "8"], "--shards applies only with --workers"),
        (["--heartbeat-timeout", "5"], "--heartbeat-timeout applies only with --workers"),
        (["--max-worker-restarts", "1"], "--max-worker-restarts applies only with --workers"),
    ],
    ids=["workers-and-batch-size", "shards", "heartbeat-timeout", "max-worker-restarts"],
)
def test_flag_conflicts_are_usage_errors(no_work, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        run_ses.main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(f"error: {message}")


SMALL_RUN = ["--scale", "0.15", "--explainable-epochs", "2", "--predictive-epochs", "1"]


def test_minibatch_summary(capsys):
    assert run_ses.main(SMALL_RUN + ["--batch-size", "64"]) == 0
    out = capsys.readouterr().out
    assert "minibatch: batch_size=64 (" in out
    assert "parallel:" not in out


@pytest.mark.parallel
def test_parallel_summary_counts_the_injected_kill(capsys):
    argv = SMALL_RUN + ["--workers", "2", "--faults", "kill_worker@explainable:1:1"]
    assert run_ses.main(argv) == 0
    out = capsys.readouterr().out
    assert "parallel: workers=2 shards=4 restarts=1" in out
    assert "minibatch:" not in out


def _error_lines(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if "error:" in line or line.startswith("run-ses:")]


def test_bad_fault_spec_is_a_usage_error_before_any_work(no_work, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_ses.main(["--faults", "bogus@explainable:1"])
    assert exit_info.value.code == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert line.endswith("error: --faults: bad fault kind 'bogus' in spec 'bogus@explainable:1'; "
                         "expected one of ('crash', 'nan', 'kill_worker', 'hang_worker')")


def test_missing_resume_path_is_a_usage_error_before_any_work(no_work, capsys, tmp_path):
    missing = tmp_path / "no-such-checkpoint"
    with pytest.raises(SystemExit) as exit_info:
        run_ses.main(["--resume", str(missing)])
    assert exit_info.value.code == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert line.endswith(f"error: --resume: no such file or directory: {missing}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--backbone", "bogus", "--scale", "0.15"],
         "error: --backbone: unknown backbone 'bogus'; "
         "expected one of ('gcn', 'gat', 'fusedgat')"),
        (["--dataset", "bogus"],
         "error: --dataset: unknown dataset 'bogus'; expected one of ('citeseer', "
         "'cora', 'cs', 'polblogs', 'ba_community', 'ba_shapes', 'tree_cycle', 'tree_grid')"),
    ],
    ids=["backbone", "dataset"],
)
def test_unknown_choice_is_a_usage_error_before_any_work(no_work, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        run_ses.main(argv)
    assert exit_info.value.code == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert line.endswith(message)


def test_damaged_checkpoint_is_one_line(capsys, tmp_path):
    (tmp_path / "snap-explainable-0002.npz").write_bytes(b"not a snapshot")
    assert run_ses.main(SMALL_RUN + ["--resume", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert line.startswith(f"run-ses: no usable snapshot under {tmp_path}: ")


@pytest.mark.parametrize(
    "variable, value, message",
    [
        ("REPRO_FAULTS", "bogus@explainable:1",
         "error: REPRO_FAULTS: bad fault kind 'bogus' in spec 'bogus@explainable:1'; "
         "expected one of ('crash', 'nan', 'kill_worker', 'hang_worker')"),
        ("REPRO_RECOVERY", "rasie",
         "error: unknown REPRO_RECOVERY value 'rasie'; expected one of "
         "'', '0', 'false', 'no', '1', 'true', 'yes', 'raise'"),
    ],
    ids=["faults", "recovery"],
)
def test_bad_environment_setting_is_a_usage_error_before_any_work(
    no_work, capsys, monkeypatch, variable, value, message
):
    monkeypatch.setenv(variable, value)
    with pytest.raises(SystemExit) as exit_info:
        run_ses.main([])
    assert exit_info.value.code == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert line.endswith(message)


def test_exhausted_recovery_with_raise_is_one_line(capsys):
    # Recovery gives up on the fourth consecutive anomaly of one epoch.
    faults = ",".join(["nan@explainable:1"] * 4)
    argv = SMALL_RUN + ["--recover", "raise", "--faults", faults]
    assert run_ses.main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert line.startswith("run-ses: training diverged in phase 'explainable' at epoch 1 "
                           "after 4 recovery attempt(s)")
