"""Cached CSR edge layouts for the segment/scatter hot path.

Every conv layer funnels its aggregation through the primitives in
:mod:`repro.tensor.scatter` or the fused :func:`repro.tensor.sparse.edge_spmm`.
A dense scatter with ``np.add.at`` / ``np.maximum.at`` dispatches one
python-level ufunc inner loop per element — an order of magnitude slower
than a contiguous reduction.  :class:`CSRSegmentLayout` precomputes, once
per edge topology,

* ``perm`` — a stable destination-sorted permutation of the edge list, and
* ``indptr`` — CSR-style row pointers into the sorted order,

and realises them as an ``(N, E)`` scipy CSR *aggregation operator* whose
row ``v`` selects exactly segment ``v``'s run of the sorted order.  Segment
sums then ride scipy's C SpMM kernel (with the permutation folded into the
column indices, so no separate permute pass is needed), and segment maxima
use ``np.maximum.reduceat`` over the same sorted layout.  Measured at Cora
scale this was ~15x faster than ``np.add.at`` for ``(E, F)`` operands — see
docs/PERF.md.

The layout also owns reused scratch buffers: the backward closures of the
scatter primitives write their dense ``(N, F)`` adjoints into per-layout
workspaces instead of allocating fresh ``np.zeros`` every call.

Layouts are memoised two ways:

* :func:`cached_layout` keeps a small content-keyed global cache, so any
  call site (including explainers that feed many subgraphs through shared
  convs) transparently reuses layouts;
* callers that own a fixed topology — the conv layers via their shared
  edge-constant cache (an :class:`EdgeLayouts` pair per edge list),
  :class:`repro.graph.graph.Graph` per k-hop expansion — build a layout
  once and thread it explicitly via the ``layout=``/``layouts=`` keywords,
  skipping even the content hash.

Like the tape-based engine itself, layouts are not thread-safe: the scratch
buffers assume one backward pass replays at a time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

try:  # scipy's C kernel that accumulates SpMM into a caller-owned buffer.
    from scipy.sparse import _sparsetools as _st

    _CSR_MATVECS = getattr(_st, "csr_matvecs", None)
except ImportError:  # pragma: no cover - depends on scipy build layout
    _CSR_MATVECS = None


class CSRSegmentLayout:
    """Destination-sorted edge permutation + row pointers for one topology.

    Parameters
    ----------
    segment_ids:
        ``(E,)`` integer array assigning each row to a segment (the
        destination column of an edge list).
    num_segments:
        Total number of segments ``N``; ids must lie in ``[0, N)``.
    """

    __slots__ = (
        "segment_ids",
        "num_segments",
        "num_items",
        "perm",
        "counts",
        "indptr",
        "nonempty",
        "starts",
        "empty_mask",
        "aggregator",
        "_workspaces",
    )

    def __init__(self, segment_ids: np.ndarray, num_segments: int) -> None:
        segment_ids = np.ascontiguousarray(segment_ids, dtype=np.int64)
        if segment_ids.ndim != 1:
            raise ValueError(f"segment_ids must be 1-D, got shape {segment_ids.shape}")
        num_segments = int(num_segments)
        if num_segments < 0:
            raise ValueError(f"num_segments must be >= 0, got {num_segments}")
        if segment_ids.size:
            lo, hi = int(segment_ids.min()), int(segment_ids.max())
            if lo < 0 or hi >= num_segments:
                raise ValueError(
                    f"segment ids must lie in [0, {num_segments}), got [{lo}, {hi}]"
                )
        self.segment_ids = segment_ids
        self.num_segments = num_segments
        self.num_items = int(segment_ids.shape[0])
        # Stable sort keeps duplicate edges in input order, which makes the
        # CSR reduction bit-for-bit reproducible run to run.
        self.perm = np.argsort(segment_ids, kind="stable")
        self.counts = np.bincount(segment_ids, minlength=num_segments)
        self.indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(self.counts, dtype=np.int64)]
        )
        self.nonempty = np.flatnonzero(self.counts > 0)
        # ``reduceat`` over the non-empty starts only: consecutive non-empty
        # starts are strictly increasing, so each interval covers exactly one
        # segment's run and empty segments never hit reduceat's
        # ``idx[i] == idx[i+1]`` identity-element pitfall.
        self.starts = self.indptr[self.nonempty]
        self.empty_mask = self.counts == 0
        # Row v of the aggregator selects segment v's sorted run: the edge
        # permutation lives in the column indices, so one SpMM performs
        # permute + segment-sum in a single C pass.
        self.aggregator = sp.csr_matrix(
            (np.ones(self.num_items), self.perm, self.indptr),
            shape=(num_segments, self.num_items),
        )
        self._workspaces: Dict[Tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Workspace management
    # ------------------------------------------------------------------
    def workspace(self, key: Tuple, shape: Tuple[int, ...]) -> np.ndarray:
        """Return a reused float64 scratch buffer for ``key``.

        Buffers are keyed on role + trailing shape, so ``(E,)``, ``(E, H)``
        and ``(E, H, D)`` operands each get their own slot.  Contents are
        undefined on return — callers overwrite before reading.
        """
        buffer = self._workspaces.get(key)
        if buffer is None or buffer.shape != shape:
            buffer = np.empty(shape, dtype=np.float64)
            self._workspaces[key] = buffer
        return buffer

    def workspace_nbytes(self) -> int:
        """Total bytes currently held by the reused scratch buffers."""
        return sum(buffer.nbytes for buffer in self._workspaces.values())

    @property
    def nbytes(self) -> int:
        """Bytes held by the index arrays plus the scratch buffers."""
        fixed = (
            self.segment_ids.nbytes
            + self.perm.nbytes
            + self.counts.nbytes
            + self.indptr.nbytes
            + self.nonempty.nbytes
            + self.starts.nbytes
            + self.empty_mask.nbytes
            + self.aggregator.data.nbytes
            + self.aggregator.indices.nbytes
            + self.aggregator.indptr.nbytes
        )
        return fixed + self.workspace_nbytes()

    def take(self, values: np.ndarray, role: str) -> np.ndarray:
        """Permute ``values`` into segment-sorted order, into reused scratch."""
        buffer = self.workspace(("take", role, values.shape[1:]), values.shape)
        np.take(values, self.perm, axis=0, out=buffer)
        return buffer

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def segment_add(
        self, values: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Segment-sum ``values`` (shape ``(E, *trailing)``) to ``(N, *trailing)``.

        When ``out`` is provided it is overwritten and returned — the
        reused-workspace path of the backward closures.  Otherwise a fresh
        array is allocated (forward results become tensor storage and must
        not alias scratch).
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        trailing = values.shape[1:]
        if out is None:
            out = np.zeros((self.num_segments, *trailing), dtype=np.float64)
        else:
            out[...] = 0.0
        if self.num_items == 0 or values.size == 0:
            return out
        agg = self.aggregator
        return csr_matvecs(agg.indptr, agg.indices, agg.data, values, out)

    def segment_max(self, values: np.ndarray, fill: float = -np.inf) -> np.ndarray:
        """Per-segment maximum via ``np.maximum.reduceat`` over sorted runs.

        Empty segments get ``fill``.  Returns a fresh array (callers mutate
        the result for the ``-inf -> 0`` substitution).
        """
        trailing = values.shape[1:]
        out = np.full((self.num_segments, *trailing), fill, dtype=np.float64)
        if self.starts.size:
            sorted_values = self.take(values, "max")
            out[self.nonempty] = np.maximum.reduceat(sorted_values, self.starts, axis=0)
        return out

    def scatter_add(self, values: np.ndarray, role: str = "scatter") -> np.ndarray:
        """Segment-sum ``values`` into a reused ``(N, *trailing)`` buffer.

        This is the adjoint of a row gather.  The returned buffer is scratch
        owned by the layout: callers must consume it immediately (e.g. via
        ``Tensor._accumulate``, which copies or adds synchronously — never
        with ``owned=True``) and never retain a reference across calls.
        """
        trailing = values.shape[1:]
        out = self.workspace(("scatter", role, trailing), (self.num_segments, *trailing))
        return self.segment_add(values, out=out)

    def __repr__(self) -> str:
        return (
            f"CSRSegmentLayout(items={self.num_items}, "
            f"segments={self.num_segments}, "
            f"empty={int(self.empty_mask.sum())})"
        )


class EdgeLayouts:
    """The two CSR layouts one edge list needs for message passing.

    ``dst`` sorts edges by destination (forward scatter / softmax segments);
    ``src`` sorts by source (the adjoint of every source-side gather).  The
    edge-weighted product :func:`repro.tensor.sparse.edge_spmm` also needs
    each layout's *other* endpoint in that layout's sorted order — the
    column indices of ``A_w`` and of its transpose.  They depend on the
    topology alone, so they are built on first use and kept here.
    """

    __slots__ = ("src", "dst", "_src_by_dst", "_dst_by_src")

    def __init__(self, src: CSRSegmentLayout, dst: CSRSegmentLayout) -> None:
        if src.num_items != dst.num_items:
            raise ValueError(
                f"src layout has {src.num_items} edges, dst layout {dst.num_items}"
            )
        self.src = src
        self.dst = dst
        self._src_by_dst: Optional[np.ndarray] = None
        self._dst_by_src: Optional[np.ndarray] = None

    @property
    def src_by_dst(self) -> np.ndarray:
        """``src[dst.perm]``: edge sources in destination-sorted order."""
        if self._src_by_dst is None:
            self._src_by_dst = self.src.segment_ids[self.dst.perm]
        return self._src_by_dst

    @property
    def dst_by_src(self) -> np.ndarray:
        """``dst[src.perm]``: edge destinations in source-sorted order."""
        if self._dst_by_src is None:
            self._dst_by_src = self.dst.segment_ids[self.src.perm]
        return self._dst_by_src

    def __repr__(self) -> str:
        return f"EdgeLayouts(src={self.src!r}, dst={self.dst!r})"


def edge_layouts(edge_index: np.ndarray, num_nodes: int) -> EdgeLayouts:
    """Build the src/dst layout pair for a ``(2, E)`` edge list."""
    return EdgeLayouts(
        src=CSRSegmentLayout(edge_index[0], num_nodes),
        dst=CSRSegmentLayout(edge_index[1], num_nodes),
    )


def csr_matvecs(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    values: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``out[r] += Σ_{j in run r} data[j] · values[indices[j]]``, in run order.

    ``values`` is ``(C, *trailing)`` and ``out`` is ``(R, *trailing)``, both
    C-contiguous float64; each trailing column is summed independently, row
    by row in CSR order, which is what makes every caller's result
    reproducible bit for bit.
    """
    n_rows, n_cols = out.shape[0], values.shape[0]
    n_vecs = int(np.prod(values.shape[1:])) if values.ndim > 1 else 1
    if indices.size == 0 or n_vecs == 0:
        return out
    if _CSR_MATVECS is not None:
        _CSR_MATVECS(n_rows, n_cols, n_vecs, indptr, indices, data, values.ravel(), out.ravel())
    else:  # pragma: no cover - exercised only on exotic scipy builds
        matrix = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
        out += (matrix @ values.reshape(n_cols, n_vecs)).reshape(out.shape)
    return out


# ---------------------------------------------------------------------------
# Content-keyed global memo
# ---------------------------------------------------------------------------

_LAYOUT_CACHE: "OrderedDict[Tuple, CSRSegmentLayout]" = OrderedDict()
_LAYOUT_CACHE_LIMIT = 64

# Hit/miss counter for the live dashboard and exposition.  Bound lazily:
# importing repro.obs.metrics at module scope would re-enter the package
# __init__ chain (obs -> profiler -> tensor) mid-initialisation.
_CACHE_COUNTER = None


def _layout_cache_counter():
    global _CACHE_COUNTER
    if _CACHE_COUNTER is None:
        from ..obs.metrics import default_registry

        _CACHE_COUNTER = default_registry().counter(
            "repro_csr_layout_cache_total",
            "cached_layout lookups by result (hit/miss)",
        )
    return _CACHE_COUNTER


def cached_layout(segment_ids: np.ndarray, num_segments: int) -> CSRSegmentLayout:
    """Return a memoised :class:`CSRSegmentLayout` for ``segment_ids``.

    Keys on content (length + byte hash + segment count), mirroring the conv
    layers' edge-constant cache: hashing the raw bytes is O(E) — negligible
    next to the aggregation — while the argsort it saves is O(E log E).
    Eviction is least-recently-used, one entry at a time: minibatch training
    cycles through a working set of per-batch layouts (k-hop pairs, negative
    pairs and conv edges for every batch subgraph), and a wholesale clear on
    overflow would throw the whole working set away every epoch.
    """
    segment_ids = np.ascontiguousarray(segment_ids, dtype=np.int64)
    key = (int(num_segments), segment_ids.shape[0], hash(segment_ids.tobytes()))
    layout = _LAYOUT_CACHE.get(key)
    if layout is not None:
        _LAYOUT_CACHE.move_to_end(key)
        _layout_cache_counter().inc(result="hit")
        return layout
    while len(_LAYOUT_CACHE) >= _LAYOUT_CACHE_LIMIT:
        _LAYOUT_CACHE.popitem(last=False)
    layout = CSRSegmentLayout(segment_ids, num_segments)
    _LAYOUT_CACHE[key] = layout
    _layout_cache_counter().inc(result="miss")
    return layout


def clear_layout_cache() -> None:
    """Drop all memoised layouts (tests and memory-sensitive callers)."""
    _LAYOUT_CACHE.clear()
