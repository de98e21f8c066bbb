"""``obs-trace``: export run records as Chrome-trace JSON and flamegraphs.

``python -m repro obs-trace results/runs/<run>.jsonl`` converts a committed
JSONL run record into artefacts that existing profiling UIs understand:

* **Chrome trace / Perfetto JSON** (``<run>.trace.json``): the record's
  ``phase_start``/``phase_end`` pairs and hierarchical ``span`` events
  become complete (``"ph": "X"``) duration events on one timeline thread;
  ``epoch`` events become counter tracks (loss, validation accuracy, mask
  sparsities); the op profiler's ``profile`` rows and the ``alloc`` totals
  become counter tracks too; ``numerical_event`` / ``recovery_event`` /
  ``snapshot_event`` surface as instant events.  Load the file at
  https://ui.perfetto.dev or ``chrome://tracing`` and a committed baseline
  becomes a browsable timeline.
* **Collapsed-stack flamegraph text** (``--flame``): one
  ``phase;epoch*;span count_us`` line per aggregated span path with its
  *self* time in integer microseconds — the input format of Brendan
  Gregg's ``flamegraph.pl`` and ``speedscope``.

Both renderings work from the event stream alone — no re-run, no imports
from the training stack — so any archived ``.jsonl`` (including the
pre-span v1 records, which simply produce phase-level timelines) converts.

The timestamp model: every event carries a wall-clock ``ts`` (seconds)
stamped at *emission*, and duration events (``phase_end``, ``span``) also
carry ``seconds`` measured by ``perf_counter``.  Start times are therefore
reconstructed as ``ts - seconds``.  The two clocks drift by microseconds
over a run, so a child span can poke marginally outside its parent;
:func:`chrome_trace` clamps children into their enclosing phase to keep
Perfetto's nesting clean.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .report import load_events, normalize_span_path

TRACE_SUFFIX = ".trace.json"
FLAME_SUFFIX = ".flame.txt"

_PID = 1
_TID_TIMELINE = 1

_INSTANT_EVENTS = ("numerical_event", "recovery_event", "snapshot_event")

_EPOCH_COUNTERS = (
    # epoch-event payload field -> counter track name
    ("loss", "loss"),
    ("val_accuracy", "val_accuracy"),
    ("feature_mask_sparsity", "mask_sparsity/feature"),
    ("structure_mask_sparsity", "mask_sparsity/structure"),
)


def _us(seconds: float) -> int:
    """Microsecond int for the trace ``ts``/``dur`` fields."""
    return int(round(seconds * 1e6))


def trace_name(record_path: str) -> str:
    """Default output path: ``results/runs/x.jsonl`` → ``results/runs/x.trace.json``."""
    base = record_path[: -len(".jsonl")] if record_path.endswith(".jsonl") else record_path
    return base + TRACE_SUFFIX


def flame_name(record_path: str) -> str:
    base = record_path[: -len(".jsonl")] if record_path.endswith(".jsonl") else record_path
    return base + FLAME_SUFFIX


def chrome_trace(events: Sequence[Dict[str, Any]], source: str = "") -> Dict[str, Any]:
    """Convert one run record's events into a Chrome-trace JSON object.

    Returns the standard ``{"traceEvents": [...], "displayTimeUnit": "ms"}``
    envelope; all timestamps are microseconds relative to the record's first
    event, so traces from different runs align at zero.
    """
    if not events:
        raise ValueError(f"{source or 'run record'}: no events to convert")
    base_ts = float(events[0].get("ts", 0.0))
    run_id = source or "run"
    trace_events: List[Dict[str, Any]] = []

    def rel(ts: float) -> float:
        return max(0.0, float(ts) - base_ts)

    # Thread/process naming metadata so Perfetto shows labels, not ids.
    for name, tid in (("training timeline", _TID_TIMELINE),):
        trace_events.append(
            {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
             "args": {"name": name}}
        )
    trace_events.append(
        {"name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
         "args": {"name": run_id}}
    )

    phase_bounds: List[Tuple[float, float, str]] = []  # (start, end, phase)
    counter_seq = 0
    for event in events:
        kind = event.get("event")
        ts = float(event.get("ts", base_ts))
        if kind == "run_start":
            run_id = event.get("run_id", run_id)
            trace_events.append(
                {
                    "name": "run_start",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID,
                    "tid": _TID_TIMELINE,
                    "ts": _us(rel(ts)),
                    "args": {
                        k: event[k]
                        for k in ("run_id", "dataset", "seed", "config_hash", "backbone")
                        if k in event
                    },
                }
            )
        elif kind == "phase_end":
            seconds = float(event.get("seconds", 0.0))
            start = rel(ts) - seconds
            phase_bounds.append((start, rel(ts), str(event.get("phase", "?"))))
            trace_events.append(
                {
                    "name": str(event.get("phase", "?")),
                    "cat": "phase",
                    "ph": "X",
                    "pid": _PID,
                    "tid": _TID_TIMELINE,
                    "ts": _us(max(0.0, start)),
                    "dur": _us(seconds),
                    "args": {"seconds": seconds},
                }
            )
        elif kind == "span":
            seconds = float(event.get("seconds", 0.0))
            path = str(event.get("path", "?"))
            end = rel(ts)
            start = end - seconds
            # Clamp into the enclosing phase (clock-drift guard; see module
            # docstring).  The phase's own X event is emitted at phase_end,
            # *after* its spans, so bounds seen so far belong to earlier
            # phases — match by path prefix instead of time order.
            root = path.split("/", 1)[0]
            for p_start, p_end, p_name in phase_bounds:
                if p_name == root:
                    start = max(start, p_start)
                    end = min(end, p_end)
                    break
            trace_events.append(
                {
                    "name": path.rsplit("/", 1)[-1],
                    "cat": "span",
                    "ph": "X",
                    "pid": _PID,
                    "tid": _TID_TIMELINE,
                    "ts": _us(max(0.0, start)),
                    "dur": _us(max(0.0, end - start)),
                    "args": {"path": path, "depth": int(event.get("depth", 1))},
                }
            )
        elif kind == "epoch":
            phase = str(event.get("phase", "?"))
            for field, track in _EPOCH_COUNTERS:
                value = event.get(field)
                if isinstance(value, (int, float)):
                    trace_events.append(
                        {
                            "name": track,
                            "cat": "epoch",
                            "ph": "C",
                            "pid": _PID,
                            "tid": 0,
                            "ts": _us(rel(ts)),
                            "args": {phase: float(value)},
                        }
                    )
        elif kind == "profile":
            op = str(event.get("op", "?"))
            trace_events.append(
                {
                    "name": f"op/{op}",
                    "cat": "profile",
                    "ph": "C",
                    "pid": _PID,
                    "tid": 0,
                    "ts": _us(rel(ts)) + counter_seq,
                    "args": {
                        "forward_s": float(event.get("forward_seconds", 0.0)),
                        "backward_s": float(event.get("backward_seconds", 0.0)),
                    },
                }
            )
            counter_seq += 1
        elif kind == "alloc":
            for field in ("bytes_allocated", "peak_live_bytes"):
                if isinstance(event.get(field), (int, float)):
                    trace_events.append(
                        {
                            "name": f"alloc/{field}",
                            "cat": "alloc",
                            "ph": "C",
                            "pid": _PID,
                            "tid": 0,
                            "ts": _us(rel(ts)),
                            "args": {"bytes": float(event[field])},
                        }
                    )
        elif kind in _INSTANT_EVENTS:
            args = {
                k: v
                for k, v in event.items()
                if k not in ("event", "seq", "ts", "schema_version")
                and isinstance(v, (str, int, float, bool))
            }
            trace_events.append(
                {
                    "name": kind,
                    "cat": "event",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID,
                    "tid": _TID_TIMELINE,
                    "ts": _us(rel(ts)),
                    "args": args,
                }
            )
        elif kind == "run_end":
            trace_events.append(
                {
                    "name": "run_end",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID,
                    "tid": _TID_TIMELINE,
                    "ts": _us(rel(ts)),
                    "args": {
                        k: v
                        for k, v in event.items()
                        if k in ("test_accuracy", "val_accuracy", "readout", "total_seconds")
                        and v is not None
                    },
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": source, "run_id": run_id, "exporter": "repro obs-trace"},
    }


def flamegraph_lines(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Collapsed-stack flamegraph lines with *self*-time in microseconds.

    Span paths are aggregated with numeric indices folded
    (``explainable/epoch3/batch0`` → ``explainable;epoch*;batch*``), and
    each frame's value is its total time minus its aggregated children's —
    the format ``flamegraph.pl`` and speedscope ingest directly.  Phases
    without recorded spans (v1 records) fall back to phase-level frames.
    """
    totals: Dict[str, float] = {}
    phase_totals: Dict[str, float] = {}
    for event in events:
        if event.get("event") == "span":
            key = normalize_span_path(str(event.get("path", "?")))
            totals[key] = totals.get(key, 0.0) + float(event.get("seconds", 0.0))
        elif event.get("event") == "phase_end":
            phase = str(event.get("phase", "?"))
            phase_totals[phase] = phase_totals.get(phase, 0.0) + float(
                event.get("seconds", 0.0)
            )
    # Roots: the phases themselves.  A phase's span-tree root path equals the
    # phase name, so merge phase wall-clock in for records that have phases
    # but no root span event.
    for phase, seconds in phase_totals.items():
        totals.setdefault(phase, seconds)
    children_time: Dict[str, float] = {}
    for path, seconds in totals.items():
        if "/" in path:
            parent = path.rsplit("/", 1)[0]
            children_time[parent] = children_time.get(parent, 0.0) + seconds
    lines = []
    for path in sorted(totals):
        self_seconds = totals[path] - children_time.get(path, 0.0)
        value = max(0, _us(self_seconds))
        if value == 0 and path in children_time:
            continue  # pure interior frame, fully accounted by children
        lines.append(f"{path.replace('/', ';')} {value}")
    return lines


def validate_trace(trace: Any) -> List[str]:
    """Return schema problems of a Chrome-trace object (empty = valid).

    Checks the subset of the Trace Event Format that Perfetto requires to
    load a file: the ``traceEvents`` envelope, per-event required fields,
    known phase codes, non-negative integer timestamps/durations, and
    JSON-serialisability of the whole object.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a dict, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    allowed_ph = {"B", "E", "X", "i", "I", "C", "M", "b", "e", "n", "s", "t", "f"}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        ph = event.get("ph")
        if ph not in allowed_ph:
            problems.append(f"{where}: unknown phase code {ph!r}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, int) or ts < 0:
                problems.append(f"{where}: ts must be a non-negative int, got {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative int, got {dur!r}")
        if ph in ("i", "I") and event.get("s") not in (None, "g", "p", "t"):
            problems.append(f"{where}: bad instant scope {event.get('s')!r}")
        args = event.get("args")
        if ph == "C":
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: counter event needs non-empty args")
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"{where}: counter args must be numeric")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as error:
        problems.append(f"not JSON-serialisable: {error}")
    return problems


def convert_record(
    record_path: str,
    out_path: Optional[str] = None,
    flame_path: Optional[str] = None,
) -> Tuple[str, Optional[str]]:
    """Convert one record; returns the written (trace, flame) paths."""
    events = load_events(record_path)
    trace = chrome_trace(events, source=os.path.basename(record_path))
    problems = validate_trace(trace)
    if problems:
        raise ValueError(
            f"{record_path}: exporter produced an invalid trace: {problems[0]}"
        )
    out_path = out_path or trace_name(record_path)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
        handle.write("\n")
    if flame_path is not None:
        with open(flame_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(flamegraph_lines(events)) + "\n")
    return out_path, flame_path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs-trace",
        description="Convert JSONL run records into Chrome-trace/Perfetto JSON "
        "(and optionally collapsed-stack flamegraph text).",
    )
    parser.add_argument("records", nargs="+", help="one or more .jsonl run records")
    parser.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="trace output path (single record only; "
        f"default: <record>{TRACE_SUFFIX})",
    )
    parser.add_argument(
        "--flame", nargs="?", const="auto", default=None, metavar="PATH",
        help="also write collapsed-stack flamegraph text "
        f"(default path: <record>{FLAME_SUFFIX})",
    )
    parser.add_argument(
        "--stdout", action="store_true",
        help="print the trace JSON to stdout instead of writing files",
    )
    args = parser.parse_args(argv)
    if args.out and len(args.records) > 1:
        print("obs-trace: --out only applies to a single record", file=sys.stderr)
        return 2
    for record in args.records:
        try:
            if args.stdout:
                trace = chrome_trace(load_events(record), source=os.path.basename(record))
                problems = validate_trace(trace)
                if problems:
                    raise ValueError(f"invalid trace: {problems[0]}")
                json.dump(trace, sys.stdout)
                sys.stdout.write("\n")
                continue
            flame = None
            if args.flame is not None:
                flame = flame_name(record) if args.flame == "auto" else args.flame
            out, flame_out = convert_record(record, out_path=args.out, flame_path=flame)
            message = f"obs-trace: wrote {out}"
            if flame_out:
                message += f" and {flame_out}"
            print(message)
        except (OSError, ValueError) as error:
            print(f"obs-trace: {error}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
