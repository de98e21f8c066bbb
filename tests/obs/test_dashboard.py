"""LiveDashboard: event folding, rendering modes, registry-driven rates."""

import io

from repro.obs.dashboard import LiveDashboard, sparkline
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import RunRecorder


def feed(dashboard):
    """Drive a dashboard through a miniature two-phase run."""
    dashboard.on_event({"event": "run_start", "run_id": "r1", "dataset": "cora",
                        "backbone": "gcn",
                        "config": {"explainable_epochs": 2, "predictive_epochs": 2}})
    dashboard.on_event({"event": "phase_start", "phase": "explainable"})
    dashboard.on_event({"event": "epoch", "phase": "explainable", "epoch": 0,
                        "loss": 1.5, "val_accuracy": 0.5,
                        "feature_mask_sparsity": 0.4,
                        "structure_mask_sparsity": 0.6})
    dashboard.on_event({"event": "epoch", "phase": "explainable", "epoch": 1,
                        "loss": 1.2, "val_accuracy": 0.6})
    dashboard.on_event({"event": "snapshot_event", "phase": "explainable"})
    dashboard.on_event({"event": "recovery_event", "action": "rollback"})
    dashboard.on_event({"event": "run_end", "test_accuracy": 0.7,
                        "readout": "masked"})


class TestSparkline:
    def test_empty_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"

    def test_monotone_values_render_monotone_blocks(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert list(line) == sorted(line)

    def test_window_clips_to_width(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_non_finite_values_are_dropped(self):
        assert sparkline([float("nan"), float("inf")]) == ""
        assert len(sparkline([1.0, float("nan"), 2.0])) == 2


class TestLiveDashboard:
    def test_folds_events_into_frame_lines(self):
        stream = io.StringIO()
        dash = LiveDashboard(stream=stream, registry=MetricsRegistry(enabled=True),
                             force_tty=False)
        feed(dash)
        text = "\n".join(dash.lines())
        assert "run r1" in text and "dataset=cora" in text
        assert "loss 1.2000" in text and "val 0.6000" in text
        assert "feat 40.0%" in text and "struct 60.0%" in text
        assert "snapshots 1" in text and "recoveries 1" in text
        assert "test_accuracy=0.7" in text

    def test_nan_loss_does_not_crash_rendering(self):
        # A NaN-injected epoch must not kill the run via the listener.
        stream = io.StringIO()
        dash = LiveDashboard(stream=stream, registry=MetricsRegistry(enabled=True),
                             force_tty=False)
        dash.on_event({"event": "epoch", "phase": "explainable", "epoch": 0,
                       "loss": float("nan")})
        dash.on_event({"event": "epoch", "phase": "explainable", "epoch": 1,
                       "loss": 1.0})
        assert dash.renders == 2

    def test_non_tty_renders_plain_lines(self):
        stream = io.StringIO()
        dash = LiveDashboard(stream=stream, registry=MetricsRegistry(enabled=True),
                             force_tty=False)
        feed(dash)
        out = stream.getvalue()
        assert "\x1b[" not in out
        assert out.count("\n") == dash.renders

    def test_tty_renders_ansi_in_place(self):
        stream = io.StringIO()
        dash = LiveDashboard(stream=stream, registry=MetricsRegistry(enabled=True),
                             force_tty=True)
        feed(dash)
        out = stream.getvalue()
        assert "\x1b[2K" in out  # erase-line redraws
        assert "\x1b[6F" in out or "\x1b[5F" in out  # cursor returns to frame top
        dash.close()
        assert stream.getvalue().endswith("\n")

    def test_eta_reads_epoch_histogram_from_registry(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("repro_epoch_seconds").observe(0.5, phase="explainable")
        dash = LiveDashboard(stream=io.StringIO(), registry=registry, force_tty=False)
        dash.on_event({"event": "run_start", "run_id": "r",
                       "config": {"explainable_epochs": 4}})
        dash.on_event({"event": "epoch", "phase": "explainable", "epoch": 0,
                       "loss": 1.0})
        rate, eta = dash._epoch_rate_and_eta()
        assert rate == 2.0  # 1 epoch / 0.5s
        assert eta == 1.5  # 3 remaining * 0.5s mean

    def test_layout_cache_ratio_from_counters(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("repro_csr_layout_cache_total")
        counter.inc(3.0, result="hit")
        counter.inc(1.0, result="miss")
        dash = LiveDashboard(stream=io.StringIO(), registry=registry, force_tty=False)
        assert "layout cache 75.0% hit" in "\n".join(dash.lines())

    def test_attach_and_close_manage_recorder_listener(self):
        stream = io.StringIO()
        buffer = io.StringIO()
        recorder = RunRecorder(run_id="t", path=buffer)
        dash = LiveDashboard(stream=stream, registry=MetricsRegistry(enabled=True),
                             force_tty=False)
        dash.attach(recorder)
        recorder.epoch("explainable", 0, 1.0)
        assert dash.renders == 1
        dash.close()
        recorder.epoch("explainable", 1, 0.9)
        assert dash.renders == 1  # detached: no further renders
        dash.close()  # idempotent


class TestPeakRss:
    """``ru_maxrss`` is bytes on macOS and KiB elsewhere."""

    @staticmethod
    def _fake_rusage(monkeypatch, maxrss):
        import resource
        import types

        monkeypatch.setattr(
            resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=maxrss)
        )

    def test_macos_reports_bytes(self, monkeypatch):
        from repro.obs import dashboard

        self._fake_rusage(monkeypatch, 400 * 2**20)  # a 400 MiB process
        monkeypatch.setattr(dashboard.sys, "platform", "darwin")
        assert dashboard._peak_rss_bytes() == 400 * 2**20

    def test_linux_reports_kib(self, monkeypatch):
        from repro.obs import dashboard

        self._fake_rusage(monkeypatch, 400 * 2**10)
        monkeypatch.setattr(dashboard.sys, "platform", "linux")
        assert dashboard._peak_rss_bytes() == 400 * 2**20
