"""``sample_negative_sets`` against the row-by-row loop it replaced.

The sampler draws the first attempt of many neighbours in one broadcast
``rng.integers`` call.  That is only the same sampler if the broadcast call
consumes the generator exactly like one ``size=6`` call per neighbour, which
holds because numpy routes both through the bit generator's buffered 32-bit
draws.  The draw sequence is part of the determinism contract (committed
run records and snapshots pin it), so this test compares the output *and*
the generator's end state, buffered half-word included, with the original
loop kept here verbatim.  If a numpy release changes how bounded integers
are drawn, this test fails before any baseline silently moves.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, khop_adjacency, sample_negative_sets


def reference_sample_negative_sets(
    graph: Graph,
    k: int,
    rng: np.random.Generator,
    use_labels: bool = True,
    max_per_node: Optional[int] = None,
    train_only_labels: bool = True,
    degree_weighted: bool = True,
    degree_exponent: float = 0.75,
) -> Dict[int, np.ndarray]:
    """The per-neighbour loop, as it stood before the broadcast rewrite."""
    num_nodes = graph.num_nodes
    reach = khop_adjacency(graph, k)
    labels = graph.labels if use_labels and graph.labels is not None else None
    if labels is not None and train_only_labels and graph.train_mask is not None:
        # Only training labels may steer sampling — using test labels here
        # would leak supervision into the mask.
        labels = np.where(graph.train_mask, labels, -1)
    negatives: Dict[int, np.ndarray] = {}
    # Degree-MATCHED negatives: for every k-hop neighbour k of the anchor we
    # sample one non-neighbour k' of (approximately) the same degree.  This
    # is essential for unbiased masks: with uniform negatives the scorer can
    # separate positives from negatives by endpoint-degree/composition alone
    # — a shortcut that *inverts* explanations on structural-role datasets
    # (motif nodes all have small degree).  Matching forces the scorer to
    # rely on signals that genuinely distinguish neighbours (shared context,
    # label agreement).
    degrees = np.asarray(graph.adjacency.getnnz(axis=1), dtype=np.int64)
    order_by_degree = np.argsort(degrees, kind="mergesort")
    sorted_degrees = degrees[order_by_degree]

    def degree_matched_candidates(target_degree: int, count: int) -> np.ndarray:
        """Random nodes whose degree falls within ±50% of the target."""
        low = np.searchsorted(sorted_degrees, max(0, int(target_degree * 0.5)), "left")
        high = np.searchsorted(sorted_degrees, int(np.ceil(target_degree * 1.5)), "right")
        if high - low < 4:  # widen degenerate bands (unique hub degrees)
            low = max(0, low - 4)
            high = min(num_nodes, high + 4)
        positions = rng.integers(low, high, size=count)
        return order_by_degree[positions]

    for node in range(num_nodes):
        neighbor_ids = reach.indices[reach.indptr[node]: reach.indptr[node + 1]]
        need = len(neighbor_ids)
        if max_per_node is not None:
            need = min(need, max_per_node)
        if need == 0:
            negatives[node] = np.empty(0, dtype=np.int64)
            continue
        if need < len(neighbor_ids):
            neighbor_ids = rng.choice(neighbor_ids, size=need, replace=False)
        forbidden = set(
            reach.indices[reach.indptr[node]: reach.indptr[node + 1]].tolist()
        )
        forbidden.add(node)
        node_label = labels[node] if labels is not None else None
        chosen: list = []
        chosen_set: set = set()
        for neighbor in neighbor_ids:
            target_degree = int(degrees[neighbor]) if degree_weighted else None
            found = False
            for attempt in range(10):
                if target_degree is not None:
                    batch = degree_matched_candidates(target_degree, 6)
                else:
                    batch = rng.integers(0, num_nodes, size=6)
                for candidate in batch:
                    candidate = int(candidate)
                    if candidate in forbidden or candidate in chosen_set:
                        continue
                    if (
                        node_label is not None
                        and node_label >= 0
                        and labels[candidate] == node_label
                        and attempt < 6
                    ):
                        # Prefer different-label negatives (paper §4.1.2);
                        # relax after several rounds so tiny or single-class
                        # graphs still get negatives.
                        continue
                    chosen.append(candidate)
                    chosen_set.add(candidate)
                    found = True
                    break
                if found:
                    break
        negatives[node] = np.array(chosen, dtype=np.int64)
    return negatives


@st.composite
def labelled_graphs(draw):
    """Small random graphs: sparse ones leave isolated nodes, hubs have
    degree bands narrow enough to be widened, and the label and split
    variants cover no labels, one class and an all-test split."""
    num_nodes = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.02, 0.08, 0.3]))
    hubs = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    count = int(density * num_nodes * num_nodes)
    edges = [rng.integers(0, num_nodes, size=(count, 2))]
    for hub in range(min(hubs, num_nodes)):
        spokes = rng.choice(num_nodes, size=rng.integers(0, num_nodes + 1), replace=False)
        edges.append(np.stack([np.full_like(spokes, hub), spokes], axis=1))
    edges = np.concatenate(edges)
    label_kind = draw(st.sampled_from(["none", "single", "few", "many"]))
    labels = None
    if label_kind == "single":
        labels = np.zeros(num_nodes, dtype=np.int64)
    elif label_kind == "few":
        labels = rng.integers(0, 2, size=num_nodes)
    elif label_kind == "many":
        labels = rng.integers(0, 5, size=num_nodes)
    graph = Graph.from_edges(num_nodes, edges, labels=labels)
    mask_kind = draw(st.sampled_from(["none", "all-train", "random", "all-test"]))
    if mask_kind == "all-train":
        graph.train_mask = np.ones(num_nodes, dtype=bool)
    elif mask_kind == "random":
        graph.train_mask = rng.random(num_nodes) < 0.6
    elif mask_kind == "all-test":
        graph.train_mask = np.zeros(num_nodes, dtype=bool)
    return graph


@settings(max_examples=150, deadline=None)
@given(
    graph=labelled_graphs(),
    k=st.integers(1, 3),
    max_per_node=st.sampled_from([None, 1, 8, 64]),
    seed=st.integers(0, 2**31 - 1),
    lead_draws=st.integers(0, 3),
)
def test_matches_reference_loop_and_rng_state(graph, k, max_per_node, seed, lead_draws):
    options = dict(max_per_node=max_per_node)
    # An odd number of lead draws leaves a buffered 32-bit half-word, which
    # the first bounded draw of the sampler must consume.
    rng = np.random.default_rng(seed)
    rng.integers(0, 7, size=lead_draws)
    expected_rng = np.random.default_rng(seed)
    expected_rng.integers(0, 7, size=lead_draws)
    got = sample_negative_sets(graph, k, rng, **options)
    expected = reference_sample_negative_sets(graph, k, expected_rng, **options)
    assert got.keys() == expected.keys()
    for node, negatives in expected.items():
        assert got[node].dtype == np.int64
        np.testing.assert_array_equal(got[node], negatives)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def test_matches_reference_on_a_dataset_graph():
    """One realistic graph, large enough that attempt-0 failures and the
    replay path occur among thousands of neighbours."""
    from repro.datasets import cora_like
    from repro.graph import classification_split

    graph = classification_split(cora_like(num_nodes=300, seed=3), seed=3)
    for max_per_node in (None, 8):
        rng = np.random.default_rng(11)
        expected_rng = np.random.default_rng(11)
        rng.integers(0, 7, size=3)  # leave a buffered 32-bit half-word
        expected_rng.integers(0, 7, size=3)
        got = sample_negative_sets(graph, 2, rng, max_per_node=max_per_node)
        expected = reference_sample_negative_sets(
            graph, 2, expected_rng, max_per_node=max_per_node
        )
        for node in expected:
            np.testing.assert_array_equal(got[node], expected[node])
        assert rng.bit_generator.state == expected_rng.bit_generator.state
