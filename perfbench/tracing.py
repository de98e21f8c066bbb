"""Spans and counters the traced run records around its calls into each layer.

Everything here wraps *public* entry points from the outside — trainer
methods on the instance, module functions the trainer calls through
``repro.core.ses`` — and only times them: no wrapper touches an argument or
a return value, so a traced fit follows the untraced trajectory bit for bit
(the run checks this).  Spans go through :class:`repro.obs.RunRecorder`'s
span API into an in-memory stream that is written out once at the end, so
``python -m repro obs-report`` and ``obs-trace`` read the record as is.

A disabled :class:`Tracer` installs nothing and records nothing.
"""

from __future__ import annotations

import io
import os
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs import NullRecorder, RunRecorder


class EpochSpans:
    """A ``callback=`` for ``train_explainable``/``train_predictive`` that
    closes one ``epochN`` span per completed epoch and opens the next."""

    def __init__(self, recorder, total: int) -> None:
        self.recorder = recorder
        self.total = total
        self.durations: List[float] = []
        self._span = None
        self._start = 0.0

    def open(self, epoch: int) -> None:
        self._span = self.recorder.span(f"epoch{epoch}")
        self._span.__enter__()
        self._start = time.perf_counter()

    def close(self) -> None:
        if self._span is not None:
            span, self._span = self._span, None
            span.__exit__(None, None, None)

    def __call__(self, epoch: int, loss: float) -> None:
        self.durations.append(time.perf_counter() - self._start)
        self.close()
        if epoch + 1 < self.total:
            self.open(epoch + 1)


class Tracer:
    def __init__(self, enabled: bool, run_id: str = "perfbench") -> None:
        self.enabled = enabled
        self._stream = io.StringIO()
        self.recorder = (
            RunRecorder(run_id=run_id, path=self._stream) if enabled else NullRecorder()
        )
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.epochs: Dict[str, List[List[float]]] = {"explainable": [], "predictive": []}
        self.snapshot_bytes = 0

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, label: str, layer: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        with self.recorder.span(label):
            start = time.perf_counter()
            try:
                yield
            finally:
                if layer is not None:
                    self.busy[layer] += time.perf_counter() - start
                    self.calls[layer] += 1

    def timed(self, fn: Callable, label: str, layer: str) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(label, layer):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patch(self, owner, attr: str, wrapper: Callable) -> Iterator[None]:
        """Replace ``owner.attr`` by ``wrapper(original)`` for the block."""
        if not self.enabled:
            yield
            return
        own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper(original))
        try:
            yield
        finally:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def patch_timed(self, owner, attr: str, label: str, layer: str):
        return self.patch(owner, attr, lambda fn: self.timed(fn, label, layer))

    # ------------------------------------------------------------------
    def _phase_wrapper(self, label: str, layer: str, total: int) -> Callable:
        def wrap(method: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if kwargs.get("callback") is not None:
                    raise RuntimeError(f"{label}: the traced run owns the epoch callback")
                epochs = EpochSpans(self.recorder, total)
                with self.span(label, layer):
                    epochs.open(0)
                    try:
                        return method(*args, **dict(kwargs, callback=epochs))
                    finally:
                        epochs.close()
                        self.epochs[label].append(epochs.durations)

            return wrapper

        return wrap

    @contextmanager
    def setup_layers(self) -> Iterator[None]:
        """k-hop expansion and negative sampling inside ``SESTrainer(...)``."""
        import repro.core.ses as ses

        with ExitStack() as stack:
            stack.enter_context(self.patch_timed(ses, "khop_edge_index", "khop", "graph.khop_s"))
            stack.enter_context(
                self.patch_timed(ses, "sample_negative_sets", "negatives", "graph.negatives_s")
            )
            yield

    @contextmanager
    def snapshot_writes(self) -> Iterator[None]:
        import repro.core.ses as ses

        def wrap(save: Callable) -> Callable:
            timed = self.timed(save, "snapshot_write", "resilience.snapshot_write_s")

            def wrapper(*args, **kwargs):
                path = timed(*args, **kwargs)
                self.snapshot_bytes += os.path.getsize(path)
                return path

            return wrapper

        with self.patch(ses, "save_snapshot", wrap):
            yield

    @contextmanager
    def fit_layers(self, trainer) -> Iterator[None]:
        """Stage, model and batch-extraction spans for one ``fit()``."""
        import repro.core.ses as ses

        config = trainer.config
        model = trainer.model
        with ExitStack() as stack:
            enter = stack.enter_context
            enter(self.patch(trainer, "train_explainable", self._phase_wrapper(
                "explainable", "core.phase1_s", config.explainable_epochs)))
            enter(self.patch(trainer, "train_predictive", self._phase_wrapper(
                "predictive", "core.phase2_s", config.predictive_epochs)))
            enter(self.patch_timed(trainer, "build_pairs", "pairs", "core.pairs_s"))
            enter(self.patch_timed(trainer, "final_logits", "explain", "core.explain_s"))
            enter(self.patch_timed(trainer, "explanations", "explain", "core.explain_s"))
            enter(self.patch_timed(model.encoder, "forward_full", "encoder_fwd",
                                   "core.encoder_fwd_s"))
            for head in ("feature_mask", "structure_mask", "negative_mask"):
                enter(self.patch_timed(model.mask_generator, head, "mask_generator_fwd",
                                       "core.mask_generator_fwd_s"))
            for extract in ("extract_phase1_batch", "extract_phase2_batch"):
                enter(self.patch_timed(ses, extract, "extract", "graph.minibatch.extract_s"))
            yield

    # ------------------------------------------------------------------
    def write(self, path: Path) -> Optional[Path]:
        """Write the in-memory record (traced runs only)."""
        if not self.enabled:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self._stream.getvalue(), encoding="utf-8")
        return path
