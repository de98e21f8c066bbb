"""The obs-report summariser and CLI."""

import io
import json

import pytest

from repro.obs import (
    OpProfiler,
    RunRecorder,
    load_events,
    render_report,
    report_path,
    summarize_run,
)
from repro.obs import normalize_span_path
from repro.obs.profiler import BETWEEN_OPS
from repro.obs import report as report_module
from repro.tensor import Tensor


def _write_run(path):
    with RunRecorder(run_id="demo", path=str(path)) as rec:
        rec.run_start(config={"lr": 0.01}, seed=0, dataset="cora")
        with rec.phase("explainable"):
            rec.epoch("explainable", 0, 2.0, val_accuracy=0.4)
            rec.epoch("explainable", 1, 1.5, val_accuracy=0.6)
        rec.pairs(num_anchors=10, num_positive=40, num_negative=38)
        with rec.phase("predictive"):
            rec.epoch("predictive", 0, 1.0)
        with OpProfiler() as prof:
            (Tensor([1.0, 2.0], requires_grad=True) * 2.0).sum().backward()
        rec.record_profile(prof)
        rec.metric("bench", 0.25, rounds=3)
        rec.run_end(test_accuracy=0.8)


class TestSummarize:
    def test_phase_and_epoch_aggregation(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        _write_run(path)
        summary = summarize_run(load_events(str(path)))
        assert summary["meta"]["dataset"] == "cora"
        assert summary["phases"]["explainable"]["epochs"] == 2
        assert summary["phases"]["explainable"]["last_loss"] == 1.5
        assert summary["phases"]["explainable"]["last_val_accuracy"] == 0.6
        assert summary["phases"]["predictive"]["epochs"] == 1
        assert summary["pairs"][0]["num_anchors"] == 10
        assert {p["op"] for p in summary["profile"]} == {"__mul__", "sum", BETWEEN_OPS}
        assert summary["end"]["test_accuracy"] == 0.8

    def test_load_events_rejects_malformed_interior_lines(self, tmp_path):
        # A corrupt line *followed by* valid events is real corruption, not
        # a crash-truncated tail — it must still raise.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "metric"}\nnot json\n{"event": "run_end"}\n')
        with pytest.raises(ValueError, match="line|JSON|bad.jsonl:2"):
            load_events(str(path))

    def test_load_events_skips_truncated_trailing_line(self, tmp_path):
        # A half-written final line is what a crashed run leaves behind;
        # load_events tolerates it with a warning instead of refusing the
        # whole record.
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"event": "metric", "name": "x", "value": 1}\n{"event": "ep')
        with pytest.warns(UserWarning, match="truncated"):
            events = load_events(str(path))
        assert len(events) == 1
        assert events[0]["event"] == "metric"

    def test_load_events_skips_blank_lines(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text('{"event": "metric", "name": "x", "value": 1}\n\n')
        assert len(load_events(str(path))) == 1

    def test_normalize_span_path_folds_indices(self):
        assert normalize_span_path("explainable/epoch3/backward") == \
            "explainable/epoch*/backward"
        assert normalize_span_path("epoch12") == "epoch*"
        assert normalize_span_path("forward") == "forward"

    def test_span_aggregation_collapses_epochs(self):
        buffer = io.StringIO()
        rec = RunRecorder(run_id="t", path=buffer)
        for epoch in range(3):
            with rec.span(f"epoch{epoch}"):
                with rec.span("backward"):
                    pass
        events = [json.loads(l) for l in buffer.getvalue().strip().split("\n")]
        spans = summarize_run(events)["spans"]
        assert spans["epoch*"]["count"] == 3
        assert spans["epoch*/backward"]["count"] == 3
        assert spans["epoch*/backward"]["depth"] == 2

    def test_health_keeps_last_event_per_key(self):
        events = [
            {"event": "mask_health", "seq": 0, "ts": 0.0, "mask": "feature",
             "epoch": 0, "entropy": 0.6},
            {"event": "mask_health", "seq": 1, "ts": 0.0, "mask": "feature",
             "epoch": 1, "entropy": 0.2},
            {"event": "grad_stats", "seq": 2, "ts": 0.0, "phase": "explainable",
             "epoch": 1, "global_norm": 3.0},
        ]
        health = summarize_run(events)["health"]
        assert health["mask_health/feature"]["entropy"] == 0.2
        assert health["grad_stats/explainable"]["global_norm"] == 3.0

    def test_numerical_events_collected(self):
        events = [{"event": "numerical_event", "seq": 0, "ts": 0.0,
                   "op": "exp", "direction": "forward", "kind": "inf",
                   "phase": "explainable", "epoch": 4}]
        assert summarize_run(events)["numerical_events"] == [
            {"op": "exp", "direction": "forward", "kind": "inf",
             "phase": "explainable", "epoch": 4}
        ]


class TestRender:
    def test_report_contains_phase_and_profile_tables(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        _write_run(path)
        text = report_path(str(path))
        assert "phase timings" in text
        assert "op profile" in text
        assert "explainable" in text and "predictive" in text
        assert "__mul__" in text
        assert "metrics" in text and "bench" in text
        assert "run_end" in text and "0.8000" in text

    def test_render_handles_minimal_run(self):
        events = [{"event": "run_start", "seq": 0, "ts": 0.0, "run_id": "r"}]
        text = render_report(summarize_run(events))
        assert "run: r" in text

    def test_render_span_tree_and_alloc_line(self, tmp_path):
        buffer = io.StringIO()
        rec = RunRecorder(run_id="t", path=buffer)
        with rec.phase("explainable"):
            with rec.span("epoch0"):
                pass
        with OpProfiler() as prof:
            (Tensor([1.0, 2.0], requires_grad=True) * 2.0).sum().backward()
        rec.record_profile(prof)
        events = [json.loads(l) for l in buffer.getvalue().strip().split("\n")]
        text = render_report(summarize_run(events))
        assert "span tree" in text
        assert "explainable/epoch*" in text
        assert "alloc: allocated=" in text and "peak_live=" in text

    def test_render_health_and_numerical_events(self):
        events = [
            {"event": "run_start", "seq": 0, "ts": 0.0, "run_id": "r"},
            {"event": "mask_health", "seq": 1, "ts": 0.0, "mask": "feature",
             "epoch": 2, "entropy": 0.31, "saturated_high": 0.1},
            {"event": "numerical_event", "seq": 2, "ts": 0.0, "op": "exp",
             "direction": "forward", "kind": "nan", "phase": "explainable",
             "epoch": 3},
        ]
        text = render_report(summarize_run(events))
        assert "training health" in text
        assert "mask_health/feature" in text
        assert "NUMERICAL EVENT:" in text and "op=exp" in text


class TestCli:
    def test_report_main(self, tmp_path, capsys):
        path = tmp_path / "demo.jsonl"
        _write_run(path)
        assert report_module.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out and "op profile" in out

    def test_python_m_repro_obs_report_dispatch(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "demo.jsonl"
        _write_run(path)
        assert main(["obs-report", str(path)]) == 0
        assert "phase timings" in capsys.readouterr().out

    def test_multiple_paths_separated(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_run(a)
        _write_run(b)
        assert report_module.main([str(a), str(b)]) == 0
        assert "=" * 72 in capsys.readouterr().out
