"""obs-diff: metric extraction, regression gating, CLI exit codes."""

import json

import pytest

from repro.obs import RunRecorder, diff_metrics, run_metrics
from repro.obs import diff as diff_module
from repro.obs.diff import HIGHER, INFO, LOWER


def _write_record(path, test_accuracy=0.8, loss=1.5, seconds=None):
    """Write a minimal but complete run record to ``path``."""
    rec = RunRecorder(run_id="t", path=str(path))
    rec.run_start(config={"lr": 0.01}, seed=0, dataset="cora")
    with rec.phase("explainable"):
        rec.epoch("explainable", 0, loss + 0.5)
        rec.epoch("explainable", 1, loss)
    rec.run_end(test_accuracy=test_accuracy)
    rec.close()
    return str(path)


class TestRunMetrics:
    def test_extracts_from_run_record(self, tmp_path):
        metrics = run_metrics(_write_record(tmp_path / "run.jsonl"))
        assert metrics["test_accuracy"] == (0.8, HIGHER)
        value, orientation = metrics["time/explainable"]
        assert orientation == LOWER and value >= 0.0
        assert metrics["loss/explainable/final"] == (1.5, INFO)
        assert metrics["loss/explainable/mean"] == (pytest.approx(1.75), INFO)
        assert metrics["time/total"][1] == LOWER

    def test_extracts_from_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_obs.json"
        path.write_text(json.dumps({
            "suite": "bench_microbenchmarks",
            "benchmarks": [
                {"name": "spmm_forward", "stats": {"mean": 0.002, "rounds": 10}},
                {"name": "no_stats_mean", "stats": {}},
            ],
        }))
        metrics = run_metrics(str(path))
        assert metrics == {"bench/spmm_forward": (0.002, LOWER)}

    def test_non_bench_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="benchmarks"):
            run_metrics(str(path))


class TestDiffMetrics:
    def test_accuracy_drop_past_threshold_is_violation(self):
        baseline = {"test_accuracy": (0.80, HIGHER)}
        current = {"test_accuracy": (0.70, HIGHER)}
        rows, violations = diff_metrics(baseline, current, max_regress=1.0)
        assert len(violations) == 1 and "test_accuracy" in violations[0]
        assert rows[0][-1] == "REGRESS"

    def test_accuracy_drop_within_threshold_passes(self):
        baseline = {"test_accuracy": (0.800, HIGHER)}
        current = {"test_accuracy": (0.795, HIGHER)}
        rows, violations = diff_metrics(baseline, current, max_regress=1.0)
        assert violations == [] and rows[0][-1] == ""

    def test_timings_not_gated_by_default(self):
        baseline = {"time/total": (1.0, LOWER)}
        current = {"time/total": (50.0, LOWER)}
        _, violations = diff_metrics(baseline, current)
        assert violations == []

    def test_timings_gated_with_max_slowdown(self):
        baseline = {"time/total": (1.0, LOWER)}
        current = {"time/total": (1.5, LOWER)}
        _, violations = diff_metrics(baseline, current, max_slowdown=20.0)
        assert len(violations) == 1 and "time/total" in violations[0]

    def test_info_metrics_never_gated(self):
        baseline = {"loss/explainable/final": (1.0, INFO)}
        current = {"loss/explainable/final": (99.0, INFO)}
        _, violations = diff_metrics(baseline, current, max_regress=0.0,
                                     max_slowdown=0.0)
        assert violations == []

    def test_disjoint_metrics_yield_no_rows(self):
        rows, violations = diff_metrics({"a": (1.0, HIGHER)}, {"b": (1.0, HIGHER)})
        assert rows == [] and violations == []


class TestCli:
    def test_exit_zero_when_no_regression(self, tmp_path, capsys):
        base = _write_record(tmp_path / "base.jsonl", test_accuracy=0.8)
        cur = _write_record(tmp_path / "cur.jsonl", test_accuracy=0.81)
        assert diff_module.main([base, cur]) == 0
        out = capsys.readouterr().out
        assert "test_accuracy" in out and "no regressions" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = _write_record(tmp_path / "base.jsonl", test_accuracy=0.8)
        cur = _write_record(tmp_path / "cur.jsonl", test_accuracy=0.5)
        assert diff_module.main([base, cur, "--max-regress", "5"]) == 1
        assert "REGRESSIONS:" in capsys.readouterr().out

    def test_exit_two_on_unreadable_record(self, tmp_path, capsys):
        cur = _write_record(tmp_path / "cur.jsonl")
        assert diff_module.main([str(tmp_path / "missing.jsonl"), cur]) == 2
        assert "obs-diff:" in capsys.readouterr().err

    def test_exit_two_on_too_many_paths(self, tmp_path, capsys):
        paths = [_write_record(tmp_path / f"{i}.jsonl") for i in range(3)]
        assert diff_module.main(paths) == 2

    def test_single_path_diffs_against_default_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        base = _write_record(tmp_path / "baseline.jsonl", test_accuracy=0.8)
        monkeypatch.setattr(diff_module, "DEFAULT_BASELINE", base)
        cur = _write_record(tmp_path / "cur.jsonl", test_accuracy=0.8)
        assert diff_module.main([cur]) == 0
        assert "baseline.jsonl" in capsys.readouterr().out

    def test_bench_json_diff_end_to_end(self, tmp_path, capsys):
        for name, mean in (("base.json", 0.002), ("cur.json", 0.004)):
            (tmp_path / name).write_text(json.dumps({
                "benchmarks": [{"name": "spmm", "stats": {"mean": mean}}]
            }))
        argv = [str(tmp_path / "base.json"), str(tmp_path / "cur.json")]
        assert diff_module.main(argv) == 0  # timings not gated by default
        assert diff_module.main(argv + ["--max-slowdown", "50"]) == 1

    def test_dispatch_through_python_m_repro(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        base = _write_record(tmp_path / "base.jsonl")
        cur = _write_record(tmp_path / "cur.jsonl")
        assert repro_main(["obs-diff", base, cur]) == 0
