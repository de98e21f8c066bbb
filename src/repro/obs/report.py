"""Render run records (``results/runs/*.jsonl``) as human-readable reports.

``python -m repro obs-report <run.jsonl> [more.jsonl ...]`` prints, per
record: run provenance (dataset, seed, config hash), a per-phase timing
summary with epoch counts and final losses, the aggregated span tree, any
recorded metrics, training-health summaries (gradient stats, mask health,
numerical events), and — when the run was profiled — the per-op
forward/backward profile table with allocation totals.  Everything renders
through :func:`repro.utils.logging.format_table` so the output matches the
rest of the reproduction's tooling.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from typing import Any, Dict, List, Sequence

from ..utils.logging import format_table
from ..utils.timing import format_duration
from ..utils.units import format_bytes


def load_events(path: str) -> List[Dict[str, Any]]:
    """Read one event per non-empty line; malformed lines raise ValueError.

    Exception: a malformed *final* line is skipped with a warning — a run
    killed mid-write (pre-durability records, or a copied-out ``.tmp``)
    leaves at most one truncated trailing line, and one lost event should
    not make the whole record unreadable.
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    numbered = [(n, line.strip()) for n, line in enumerate(lines, start=1) if line.strip()]
    for position, (number, line) in enumerate(numbered):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as error:
            if position == len(numbered) - 1:
                warnings.warn(
                    f"{path}:{number}: skipping truncated trailing event: {error}",
                    stacklevel=2,
                )
                break
            raise ValueError(f"{path}:{number}: invalid JSON event: {error}") from None
    return events


_ENVELOPE = ("event", "seq", "ts", "schema_version")

_DIGITS = re.compile(r"\d+")


def normalize_span_path(path: str) -> str:
    """Fold numeric indices out of a span path for aggregation.

    ``explainable/epoch3/batch0`` → ``explainable/epoch*/batch*``, so
    every epoch of a phase lands in one row of the span tree.
    """
    return "/".join(_DIGITS.sub("*", part) for part in path.split("/"))


def summarize_run(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold a run's event stream into one summary dict.

    Keys: ``meta`` (run_start payload), ``phases`` (ordered per-phase
    seconds / epoch counts / last loss & val accuracy), ``losses``
    (per-phase loss trajectories), ``spans`` (aggregated span tree),
    ``pairs``, ``metrics``, ``profile`` (per-op rows), ``alloc``
    (allocation totals), ``health`` (last grad/param/activation/mask/
    triplet monitor event per key), ``numerical_events`` and ``end``
    (run_end payload).
    """
    meta: Dict[str, Any] = {}
    end: Dict[str, Any] = {}
    alloc: Dict[str, Any] = {}
    pairs: List[Dict[str, Any]] = []
    metrics: List[Dict[str, Any]] = []
    profile: List[Dict[str, Any]] = []
    numerical: List[Dict[str, Any]] = []
    phases: Dict[str, Dict[str, Any]] = {}
    losses: Dict[str, List[float]] = {}
    spans: Dict[str, Dict[str, Any]] = {}
    health: Dict[str, Dict[str, Any]] = {}

    def phase_slot(name: str) -> Dict[str, Any]:
        return phases.setdefault(
            name, {"seconds": 0.0, "epochs": 0, "last_loss": None, "last_val_accuracy": None}
        )

    def payload(event: Dict[str, Any]) -> Dict[str, Any]:
        return {k: v for k, v in event.items() if k not in _ENVELOPE}

    for event in events:
        kind = event.get("event")
        if kind == "run_start":
            meta = payload(event)
        elif kind == "phase_end":
            phase_slot(event["phase"])["seconds"] += float(event.get("seconds", 0.0))
        elif kind == "span":
            key = normalize_span_path(event.get("path", "?"))
            slot = spans.setdefault(
                key, {"count": 0, "seconds": 0.0, "depth": int(event.get("depth", 1))}
            )
            slot["count"] += 1
            slot["seconds"] += float(event.get("seconds", 0.0))
        elif kind == "epoch":
            slot = phase_slot(event["phase"])
            slot["epochs"] += 1
            slot["last_loss"] = event.get("loss")
            if event.get("loss") is not None:
                losses.setdefault(event["phase"], []).append(float(event["loss"]))
            if event.get("val_accuracy") is not None:
                slot["last_val_accuracy"] = event["val_accuracy"]
        elif kind == "pairs":
            pairs.append(payload(event))
        elif kind == "metric":
            metrics.append(payload(event))
        elif kind == "profile":
            profile.append(payload(event))
        elif kind == "alloc":
            alloc = payload(event)
        elif kind in ("grad_stats", "param_stats"):
            health[f"{kind}/{event.get('phase', '?')}"] = payload(event)
        elif kind == "activation_stats":
            health[f"{kind}/{event.get('phase', '?')}/{event.get('tensor', '?')}"] = payload(event)
        elif kind == "mask_health":
            health[f"{kind}/{event.get('mask', '?')}"] = payload(event)
        elif kind == "triplet_margin":
            health[f"{kind}/{event.get('phase', '?')}"] = payload(event)
        elif kind == "numerical_event":
            numerical.append(payload(event))
        elif kind == "run_end":
            end = payload(event)
    return {
        "meta": meta,
        "phases": phases,
        "losses": losses,
        "spans": spans,
        "pairs": pairs,
        "metrics": metrics,
        "profile": profile,
        "alloc": alloc,
        "health": health,
        "numerical_events": numerical,
        "end": end,
    }


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_report(summary: Dict[str, Any], source: str = "") -> str:
    """Render one summarized run as aligned text tables."""
    blocks: List[str] = []
    meta = summary["meta"]
    header = [f"run: {meta.get('run_id', source or '?')}"]
    for key in ("dataset", "seed", "config_hash", "backbone"):
        if key in meta:
            header.append(f"{key}={meta[key]}")
    blocks.append("  ".join(header))

    if summary["phases"]:
        total = sum(slot["seconds"] for slot in summary["phases"].values())
        rows = [
            [name, f"{slot['seconds']:.3f}", format_duration(slot["seconds"]),
             slot["epochs"] or "-", _fmt(slot["last_loss"]), _fmt(slot["last_val_accuracy"])]
            for name, slot in summary["phases"].items()
        ]
        rows.append(["total", f"{total:.3f}", format_duration(total), "", "", ""])
        blocks.append(format_table(
            ["phase", "seconds", "duration", "epochs", "last loss", "last val acc"],
            rows, title="phase timings",
        ))

    if summary.get("spans"):
        rows = []
        for path, slot in summary["spans"].items():
            depth = max(int(slot.get("depth", 1)), 1)
            label = "  " * (depth - 1) + path.rsplit("/", 1)[-1]
            mean = slot["seconds"] / slot["count"] if slot["count"] else 0.0
            rows.append([label, slot["count"], f"{slot['seconds']:.3f}", f"{mean:.4f}", path])
        blocks.append(format_table(
            ["span", "count", "total s", "mean s", "path"], rows, title="span tree",
        ))

    for pair in summary["pairs"]:
        detail = ", ".join(f"{k}={_fmt(v)}" for k, v in pair.items())
        blocks.append(f"pairs: {detail}")

    if summary["metrics"]:
        rows = [
            [m.get("name", "?"), _fmt(m.get("value"))]
            + [f"{k}={_fmt(v)}" for k, v in m.items() if k not in ("name", "value")]
            for m in summary["metrics"]
        ]
        width = max(len(r) for r in rows)
        rows = [r + [""] * (width - len(r)) for r in rows]
        headers = ["metric", "value"] + ["" for _ in range(width - 2)]
        blocks.append(format_table(headers, rows, title="metrics"))

    if summary["profile"]:
        rows = [
            [
                p.get("op", "?"),
                int(p.get("forward_calls", 0)),
                f"{p.get('forward_seconds', 0.0):.4f}",
                int(p.get("backward_calls", 0)),
                f"{p.get('backward_seconds', 0.0):.4f}",
                f"{p.get('forward_seconds', 0.0) + p.get('backward_seconds', 0.0):.4f}",
            ]
            for p in summary["profile"]
        ]
        blocks.append(format_table(
            ["op", "fwd calls", "fwd s", "bwd calls", "bwd s", "total s"],
            rows, title="op profile",
        ))

    if summary.get("alloc"):
        alloc = summary["alloc"]
        blocks.append(
            "alloc: "
            f"allocated={format_bytes(alloc.get('bytes_allocated', 0))} "
            f"peak_live={format_bytes(alloc.get('peak_live_bytes', 0))} "
            f"tensors={alloc.get('tracked_tensors', 0)}"
        )

    if summary.get("health"):
        rows = [
            [key] + [f"{k}={_fmt(v)}" for k, v in entry.items()
                     if k not in ("phase", "epoch", "mask", "tensor")][:6]
            for key, entry in summary["health"].items()
        ]
        width = max(len(r) for r in rows)
        rows = [r + [""] * (width - len(r)) for r in rows]
        headers = ["monitor (last event)"] + ["" for _ in range(width - 1)]
        blocks.append(format_table(headers, rows, title="training health"))

    for anomaly in summary.get("numerical_events", []):
        detail = ", ".join(f"{k}={_fmt(v)}" for k, v in anomaly.items())
        blocks.append(f"NUMERICAL EVENT: {detail}")

    if summary["end"]:
        detail = ", ".join(f"{k}={_fmt(v)}" for k, v in summary["end"].items())
        blocks.append(f"run_end: {detail}")
    return "\n\n".join(blocks)


def report_path(path: str) -> str:
    """Load, summarize and render one run record."""
    return render_report(summarize_run(load_events(path)), source=path)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs-report",
        description="Summarize telemetry run records (results/runs/*.jsonl).",
    )
    parser.add_argument("paths", nargs="+", help="one or more .jsonl run records")
    args = parser.parse_args(argv)
    for index, path in enumerate(args.paths):
        if index:
            print("\n" + "=" * 72 + "\n")
        try:
            print(report_path(path))
        except (OSError, ValueError) as error:
            print(f"obs-report: {error}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
