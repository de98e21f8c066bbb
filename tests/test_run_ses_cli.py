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
