"""The OpProfiler contract: zero overhead off, exact counts on."""

import time

import numpy as np
import pytest

from repro.obs import OpProfiler
from repro.obs.profiler import BETWEEN_OPS, _op_name
from repro.tensor import Tensor, edge_spmm, gather_rows, segment_sum


def _pristine_make():
    return Tensor.__dict__["_make"].__func__


class TestDisabledMode:
    def test_tensor_make_is_untouched_when_no_profiler(self):
        # Zero-overhead contract: with no active profiler the graph
        # constructor is the original function — not a wrapper, no flag
        # checks, nothing.
        before = _pristine_make()
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2.0).sum().backward()
        assert Tensor.__dict__["_make"].__func__ is before

    def test_no_hook_objects_on_recorded_closures(self):
        # Backward closures must be the op's own closure, not a timing
        # wrapper allocated per graph node.
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a * 3.0
        assert b._backward.__qualname__.endswith("__mul__.<locals>.backward")

    def test_make_restored_after_profiler_exits(self):
        before = _pristine_make()
        with OpProfiler():
            assert Tensor.__dict__["_make"].__func__ is not before
        assert Tensor.__dict__["_make"].__func__ is before

    def test_backward_restored_after_profiler_exits(self):
        before = Tensor.__dict__["backward"]
        with OpProfiler():
            assert Tensor.__dict__["backward"] is not before
        assert Tensor.__dict__["backward"] is before

    def test_make_restored_after_exception(self):
        before = _pristine_make()
        profiler = OpProfiler()
        with pytest.raises(RuntimeError):
            with profiler:
                raise RuntimeError("boom")
        assert Tensor.__dict__["_make"].__func__ is before
        assert not profiler.enabled


class TestEnabledCounts:
    def test_two_op_graph_counts(self):
        # Hand-built graph: c = (a * 3).sum() → exactly one __mul__ and one
        # sum node forward, each visited exactly once backward.
        with OpProfiler() as prof:
            a = Tensor([1.0, 2.0], requires_grad=True)
            c = (a * 3.0).sum()
            c.backward()
        assert prof.stats["__mul__"].forward_calls == 1
        assert prof.stats["__mul__"].backward_calls == 1
        assert prof.stats["sum"].forward_calls == 1
        assert prof.stats["sum"].backward_calls == 1
        assert set(prof.stats) == {"__mul__", "sum"}
        assert np.allclose(a.grad, [3.0, 3.0])  # profiling must not alter grads

    def test_no_backward_count_without_grad(self):
        with OpProfiler() as prof:
            a = Tensor([1.0, 2.0])  # requires_grad=False
            _ = a * 2.0
        assert prof.stats["__mul__"].forward_calls == 1
        assert prof.stats["__mul__"].backward_calls == 0

    def test_scatter_and_spmm_route_through_profiler(self):
        with OpProfiler() as prof:
            x = Tensor(np.ones((4, 3)), requires_grad=True)
            g = gather_rows(x, np.array([0, 1, 1, 3]))
            s = segment_sum(g, np.array([0, 0, 1, 1]), 2)
            m = edge_spmm(s, np.ones(2), np.array([[0, 1], [0, 1]]), 2)
            m.sum().backward()
        for op in ("gather_rows", "segment_sum", "edge_spmm", "sum"):
            assert prof.stats[op].forward_calls == 1, op
            assert prof.stats[op].backward_calls == 1, op

    def test_backward_seconds_measured_even_after_exit(self):
        with OpProfiler() as prof:
            a = Tensor(np.ones(8), requires_grad=True)
            loss = (a * 2.0).sum()
        loss.backward()  # tape replay outside the context still counts
        assert prof.stats["__mul__"].backward_calls == 1
        assert prof.stats["__mul__"].backward_seconds >= 0.0

    def test_reentry_accumulates(self):
        prof = OpProfiler()
        for _ in range(2):
            with prof:
                (Tensor([1.0], requires_grad=True) * 2.0).sum().backward()
        assert prof.stats["__mul__"].forward_calls == 2

    def test_nested_profilers_rejected(self):
        with OpProfiler():
            with pytest.raises(RuntimeError):
                OpProfiler().__enter__()


class TestWallClock:
    def test_work_outside_ops_lands_in_between_row(self):
        with OpProfiler() as prof:
            a = Tensor(np.ones(8), requires_grad=True)
            loss = (a * 2.0).sum()
            time.sleep(0.02)  # loss bookkeeping before the backward
            loss.backward()
            time.sleep(0.02)  # an optimiser step after it
            _ = a * 3.0
            time.sleep(0.02)  # work after the last op
        assert prof.stats["__mul__"].forward_seconds < 0.02
        assert prof.stats["sum"].forward_seconds < 0.02
        assert prof.between_seconds >= 0.06

    def test_rows_sum_to_profiled_wall_time_of_a_fit(self):
        from repro.core import SESTrainer, fast_config
        from repro.datasets import load_dataset
        from repro.graph import classification_split

        graph = classification_split(load_dataset("cora", seed=0, scale=0.15), seed=0)
        config = fast_config("gcn", seed=0, explainable_epochs=4, predictive_epochs=2)
        trainer = SESTrainer(graph, config)
        start = time.perf_counter()
        with OpProfiler() as prof:
            trainer.fit()
        wall = time.perf_counter() - start
        rows = prof.records()
        total = sum(r["forward_seconds"] + r["backward_seconds"] for r in rows)
        assert BETWEEN_OPS in {r["op"] for r in rows}
        assert total == pytest.approx(wall, rel=0.02)
        assert prof.wall_seconds == pytest.approx(wall, rel=0.02)
        assert prof.total_seconds() == pytest.approx(total)


class TestAllocationAccounting:
    def test_bytes_attributed_to_producing_op(self):
        with OpProfiler() as prof:
            a = Tensor(np.zeros(128, dtype=np.float64), requires_grad=True)
            _ = a * 2.0
        # One graph tensor of 128 float64s came out of __mul__.
        assert prof.stats["__mul__"].bytes_allocated == 128 * 8

    def test_alloc_summary_tracks_totals_and_peak(self):
        with OpProfiler() as prof:
            a = Tensor(np.zeros(64, dtype=np.float64), requires_grad=True)
            (a * 2.0).sum().backward()
        summary = prof.alloc_summary()
        assert summary["tracked_tensors"] == 2  # __mul__ output + sum output
        assert summary["bytes_allocated"] == 64 * 8 + 8
        assert summary["peak_live_bytes"] >= 64 * 8
        assert 0 <= summary["live_bytes"] <= summary["peak_live_bytes"]

    def test_live_bytes_drop_when_tensors_are_collected(self):
        with OpProfiler() as prof:
            a = Tensor(np.zeros(32, dtype=np.float64), requires_grad=True)
            b = a * 2.0
            assert prof.alloc.live_bytes == 32 * 8
            del b
        assert prof.alloc.live_bytes == 0
        assert prof.alloc.peak_live_bytes == 32 * 8


class TestReadouts:
    def test_records_sorted_and_json_ready(self):
        import json

        with OpProfiler() as prof:
            (Tensor([1.0, 2.0], requires_grad=True) * 2.0).sum().backward()
        records = prof.records()
        assert [set(r) for r in records] == [
            {"op", "forward_calls", "forward_seconds", "backward_calls",
             "backward_seconds", "bytes_allocated"}
        ] * len(records)
        json.dumps(records)  # must be JSON-serialisable as-is
        totals = [r["forward_seconds"] + r["backward_seconds"] for r in records]
        assert totals == sorted(totals, reverse=True)

    def test_table_lists_every_op(self):
        with OpProfiler() as prof:
            (Tensor([1.0], requires_grad=True) * 2.0).sum().backward()
        table = prof.table()
        assert "__mul__" in table and "sum" in table and "fwd calls" in table

    def test_table_includes_alloc_column_and_footer(self):
        with OpProfiler() as prof:
            (Tensor([1.0], requires_grad=True) * 2.0).sum().backward()
        table = prof.table()
        assert "alloc" in table
        assert " B" in table or "KiB" in table or "MiB" in table
        assert "peak live" in table

    def test_op_name_extraction(self):
        assert _op_name("Tensor.__add__.<locals>.backward") == "__add__"
        assert _op_name("gather_rows.<locals>.backward") == "gather_rows"
        assert _op_name("weird_name") == "weird_name"
