"""Op-level autograd profiler for the from-scratch tensor engine.

Every differentiable operation in :mod:`repro.tensor` — the ``Tensor``
methods, the gather/segment primitives in :mod:`repro.tensor.scatter` and
:func:`repro.tensor.sparse.edge_spmm` — funnels through the single graph
constructor ``Tensor._make(data, parents, backward)``.  :class:`OpProfiler`
exploits that choke point: while active it swaps ``Tensor._make`` (and
``Tensor.backward``) for counting/timing wrappers and restores the pristine
functions on exit, so a disabled profiler costs literally nothing (no flag
checks on the hot path, no hook objects on tensors).

What is measured per op name (``__add__``, ``__matmul__``, ``gather_rows``,
``segment_sum``, ``edge_spmm``, ...):

* **forward calls** — one per graph node created.
* **forward seconds** — the wall-clock gap since the previous graph node
  was created.  In this engine each op computes its numpy result
  immediately before calling ``_make``, so inside a forward pass the gap
  is the op's own compute plus its python glue.
* **backward calls / seconds** — exact: the recorded backward closure is
  wrapped in a timer, so the adjoint cost of each op is measured directly
  when ``Tensor.backward()`` replays the tape (even if that happens after
  the profiler context has exited).

Work that belongs to no op is one explicit row, ``(between ops)``: the gap
from entering the profiler to the first op, the gap before each
``Tensor.backward()``, the replay's own bookkeeping outside the closures,
the gap after a backward up to the next op (the optimiser step, validation
set-up, snapshot writes — and, unavoidably, that next op's own compute),
and the gap from the last op to the exit.  The rows therefore add up to the
profiled wall time, :attr:`OpProfiler.wall_seconds`.

Single active profiler per process; profilers are not thread-safe (neither
is the tape-based engine they instrument).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..tensor.alloc import AllocationTracker
from ..tensor.tensor import Tensor
from ..utils.logging import format_table
from ..utils.units import format_bytes

_active: Optional["OpProfiler"] = None


@dataclass
class OpStat:
    """Aggregated counters for one op name."""

    forward_calls: int = 0
    forward_seconds: float = 0.0
    backward_calls: int = 0
    backward_seconds: float = 0.0
    bytes_allocated: int = 0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds


BETWEEN_OPS = "(between ops)"
"""Row name of the profiled time that belongs to no op."""


def _op_name(qualname: str) -> str:
    """Derive the op name from a backward closure's qualified name.

    ``Tensor.__add__.<locals>.backward`` → ``__add__``;
    ``gather_rows.<locals>.backward`` → ``gather_rows``.
    """
    parts = qualname.split(".")
    try:
        return parts[parts.index("<locals>") - 1]
    except ValueError:
        return qualname


class OpProfiler:
    """Context manager that aggregates per-op forward/backward counts & time.

    Usage::

        with OpProfiler() as prof:
            loss = model_forward()
            loss.backward()
        print(prof.table())

    Re-entering the same instance accumulates into the same counters, so a
    profiler can sample selected epochs of a longer run.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}
        self.alloc = AllocationTracker()
        self.between_seconds = 0.0
        self.wall_seconds = 0.0
        self._originals = None
        self._mark = 0.0
        self._entered = 0.0
        # Set while the gap since ``_mark`` belongs to no op: after entry
        # and after a backward replay, until the next op is made.
        self._between = False
        self._closure_seconds = 0.0

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "OpProfiler":
        global _active
        if _active is not None:
            raise RuntimeError("an OpProfiler is already active in this process")
        _active = self
        original_make = Tensor.__dict__["_make"].__func__
        original_backward = Tensor.__dict__["backward"]
        self._originals = (original_make, original_backward)
        stats = self.stats
        perf_counter = time.perf_counter
        alloc = self.alloc

        def profiled_make(data, parents, backward):
            now = perf_counter()
            op = _op_name(backward.__qualname__)
            stat = stats.get(op)
            if stat is None:
                stat = stats[op] = OpStat()
            stat.forward_calls += 1
            if self._between:
                self.between_seconds += now - self._mark
                self._between = False
            else:
                stat.forward_seconds += now - self._mark
            out = original_make(data, parents, backward)
            stat.bytes_allocated += alloc.track(out)
            if out._backward is not None:
                inner = out._backward

                def timed_backward(grad, _inner=inner, _stat=stat):
                    start = perf_counter()
                    try:
                        _inner(grad)
                    finally:
                        spent = perf_counter() - start
                        _stat.backward_calls += 1
                        _stat.backward_seconds += spent
                        self._closure_seconds += spent

                out._backward = timed_backward
            # The node's own construction counts as the op's forward.
            self._mark = perf_counter()
            stat.forward_seconds += self._mark - now
            return out

        def profiled_backward(tensor, grad=None):
            start = perf_counter()
            self.between_seconds += start - self._mark
            closures = self._closure_seconds
            try:
                original_backward(tensor, grad)
            finally:
                end = perf_counter()
                self.between_seconds += end - start - (self._closure_seconds - closures)
                self._mark = end
                self._between = True

        Tensor._make = staticmethod(profiled_make)
        Tensor.backward = profiled_backward
        self._between = True
        self._entered = self._mark = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        global _active
        now = time.perf_counter()
        self.between_seconds += now - self._mark
        self.wall_seconds += now - self._entered
        original_make, original_backward = self._originals
        Tensor._make = staticmethod(original_make)
        Tensor.backward = original_backward
        self._originals = None
        _active = None

    @property
    def enabled(self) -> bool:
        return _active is self

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def records(self) -> List[dict]:
        """Per-op stats as JSON-ready dicts, heaviest total time first.

        The ``(between ops)`` row is among them; together the rows sum to
        :attr:`wall_seconds`.
        """
        stats = dict(self.stats)
        if self.between_seconds:
            stats[BETWEEN_OPS] = OpStat(forward_seconds=self.between_seconds)
        rows = [
            {
                "op": op,
                "forward_calls": stat.forward_calls,
                "forward_seconds": stat.forward_seconds,
                "backward_calls": stat.backward_calls,
                "backward_seconds": stat.backward_seconds,
                "bytes_allocated": stat.bytes_allocated,
            }
            for op, stat in stats.items()
        ]
        rows.sort(key=lambda r: -(r["forward_seconds"] + r["backward_seconds"]))
        return rows

    def total_seconds(self) -> float:
        """Seconds over every row, ``(between ops)`` included."""
        return self.between_seconds + sum(stat.total_seconds for stat in self.stats.values())

    def alloc_summary(self) -> dict:
        """Allocation totals (the ``alloc`` telemetry event payload)."""
        return self.alloc.summary()

    def table(self, title: str = "op profile") -> str:
        """Render the aggregate as an aligned text table."""
        records = self.records()
        alloc_width = max(
            [len(format_bytes(r["bytes_allocated"])) for r in records] or [0]
        )
        headers = ["op", "fwd calls", "fwd s", "bwd calls", "bwd s", "total s", "alloc"]
        rows = [
            [
                r["op"],
                r["forward_calls"],
                r["forward_seconds"],
                r["backward_calls"],
                r["backward_seconds"],
                r["forward_seconds"] + r["backward_seconds"],
                format_bytes(r["bytes_allocated"], width=alloc_width),
            ]
            for r in records
        ]
        footer = (
            f"profiled wall {self.wall_seconds:.4f} s; "
            f"allocated {format_bytes(self.alloc.bytes_allocated)} over "
            f"{self.alloc.tracked_tensors} graph tensors, "
            f"peak live {format_bytes(self.alloc.peak_live_bytes)}"
        )
        return format_table(headers, rows, title=title, float_format="{:.4f}") + "\n" + footer
