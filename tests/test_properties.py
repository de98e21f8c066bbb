"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.pairs import construct_pairs
from repro.graph import Graph, khop_adjacency, random_split
from repro.metrics import accuracy, roc_auc_score
from repro.obs import activation_stats, param_stats
from repro.tensor import Tensor, functional as F, segment_softmax, segment_sum, unbroadcast

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def matrix_and_broadcast_shape(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    grad = draw(arrays(np.float64, (rows, cols), elements=finite_floats))
    shape = draw(st.sampled_from([(rows, cols), (cols,), (1, cols), (rows, 1), (1, 1)]))
    return grad, shape


class TestAutogradProperties:
    @given(matrix_and_broadcast_shape())
    def test_unbroadcast_preserves_total_mass(self, case):
        grad, shape = case
        reduced = unbroadcast(grad.copy(), shape)
        assert reduced.shape == shape
        np.testing.assert_allclose(reduced.sum(), grad.sum(), rtol=1e-9, atol=1e-9)

    @given(arrays(np.float64, (4, 3), elements=finite_floats))
    def test_sum_gradient_is_ones(self, data):
        tensor = Tensor(data, requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones_like(data))

    @given(
        arrays(np.float64, (3, 2), elements=finite_floats),
        arrays(np.float64, (3, 2), elements=finite_floats),
    )
    def test_gradient_linearity(self, a_data, b_data):
        """grad of (a + b).sum() w.r.t. a equals grad of a.sum()."""
        a1 = Tensor(a_data, requires_grad=True)
        b1 = Tensor(b_data)
        (a1 + b1).sum().backward()
        a2 = Tensor(a_data, requires_grad=True)
        a2.sum().backward()
        np.testing.assert_allclose(a1.grad, a2.grad)

    @given(arrays(np.float64, (5,), elements=st.floats(-50, 50)))
    def test_softmax_is_distribution(self, data):
        out = np.exp(F.log_softmax(Tensor(data), axis=0).data)
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-9)

    @given(
        arrays(np.float64, (6, 2), elements=finite_floats),
        st.lists(st.integers(0, 2), min_size=6, max_size=6),
    )
    def test_segment_sum_preserves_mass(self, data, ids):
        ids = np.array(ids)
        out = segment_sum(Tensor(data), ids, 3)
        np.testing.assert_allclose(out.data.sum(), data.sum(), rtol=1e-9, atol=1e-9)

    @given(
        arrays(np.float64, (6,), elements=st.floats(-20, 20)),
        st.lists(st.integers(0, 2), min_size=6, max_size=6),
    )
    def test_segment_softmax_normalises_per_segment(self, scores, ids):
        ids = np.array(ids)
        out = segment_softmax(Tensor(scores), ids, 3).data
        for segment in np.unique(ids):
            np.testing.assert_allclose(out[ids == segment].sum(), 1.0, atol=1e-9)


class TestArrayStatsProperties:
    """Statistics over several arrays agree with batch numpy on their
    concatenation, however the values are split across the arrays."""

    values = arrays(
        np.float64,
        st.integers(1, 60),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )

    @given(values, st.integers(0, 2**31 - 1))
    def test_split_arrays_match_batch_numpy(self, data, seed):
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, data.size + 1, size=rng.integers(0, 4)))
        params = [(f"p{i}", Tensor(chunk)) for i, chunk in enumerate(np.split(data, cuts))]
        stats = param_stats(params)
        assert stats["count"] == data.size
        np.testing.assert_allclose(stats["mean"], data.mean(), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(stats["std"], data.std(), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(stats["global_norm"], np.linalg.norm(data), rtol=1e-9)
        assert stats["min"] == data.min() and stats["max"] == data.max()
        np.testing.assert_allclose(
            stats["frac_zero"], np.mean(data == 0.0), rtol=1e-12, atol=0.0
        )

    @given(values)
    def test_std_is_never_negative(self, data):
        assert activation_stats(data)["std"] >= 0.0


class TestMetricProperties:
    @given(
        st.lists(st.booleans(), min_size=4, max_size=30).filter(
            lambda labels: any(labels) and not all(labels)
        ),
        st.integers(0, 2**31 - 1),
    )
    def test_roc_auc_invariant_under_monotone_transform(self, labels, seed):
        labels = np.array(labels)
        # Distinct integer ranks: any strictly monotone transform (here a
        # scaled exponential) must leave the AUC unchanged.
        scores = np.random.default_rng(seed).permutation(len(labels)).astype(np.float64)
        original = roc_auc_score(labels, scores)
        transformed = roc_auc_score(labels, np.exp(scores / 10.0))
        np.testing.assert_allclose(original, transformed, atol=1e-12)

    @given(
        st.lists(st.booleans(), min_size=4, max_size=30).filter(
            lambda labels: any(labels) and not all(labels)
        )
    )
    def test_roc_auc_flips_under_negation(self, labels):
        labels = np.array(labels)
        scores = np.arange(len(labels), dtype=np.float64)
        forward = roc_auc_score(labels, scores)
        backward = roc_auc_score(labels, -scores)
        np.testing.assert_allclose(forward + backward, 1.0, atol=1e-12)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    def test_accuracy_of_identical_arrays_is_one(self, labels):
        array = np.array(labels)
        assert accuracy(array, array.copy()) == 1.0


class TestGraphProperties:
    @st.composite
    @staticmethod
    def small_graph(draw):
        n = draw(st.integers(3, 12))
        edge_count = draw(st.integers(1, 2 * n))
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=edge_count,
                max_size=edge_count,
            )
        )
        edges = np.array([(u, v) for u, v in pairs if u != v] or [(0, 1)])
        return Graph.from_edges(n, edges)

    @given(small_graph())
    def test_adjacency_always_symmetric_without_loops(self, graph):
        adjacency = graph.adjacency.toarray()
        np.testing.assert_allclose(adjacency, adjacency.T)
        assert np.diag(adjacency).sum() == 0

    @given(small_graph(), st.integers(1, 3))
    def test_khop_monotone_in_k(self, graph, k):
        smaller = khop_adjacency(graph, k).toarray()
        larger = khop_adjacency(graph, k + 1).toarray()
        assert ((larger - smaller) >= -1e-12).all()

    @given(st.integers(10, 200), st.integers(0, 2**31 - 1))
    def test_random_split_partitions(self, n, seed):
        train, val, test = random_split(n, 0.5, 0.25, np.random.default_rng(seed))
        total = train.astype(int) + val.astype(int) + test.astype(int)
        np.testing.assert_array_equal(total, np.ones(n, dtype=int))


class TestAlgorithm1Properties:
    @given(st.integers(2, 10), st.floats(0.1, 1.0), st.integers(0, 10_000))
    def test_positive_sets_respect_ratio(self, n, ratio, seed):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        dense = rng.random((n, n))
        dense[dense < 0.5] = 0.0
        np.fill_diagonal(dense, 0.0)
        weighted = sp.csr_matrix(dense)
        negatives = {i: rng.integers(0, n, size=n).astype(np.int64) for i in range(n)}
        pairs = construct_pairs(weighted, negatives, ratio, rng)
        csr = weighted.tocsr()
        for node in range(n):
            degree = csr.indptr[node + 1] - csr.indptr[node]
            if degree == 0:
                assert len(pairs.positive[node]) == 0
            else:
                expected = max(1, int(ratio * degree))
                assert len(pairs.positive[node]) == expected
                # Positives must be genuine neighbours.
                neighbors = set(
                    csr.indices[csr.indptr[node]: csr.indptr[node + 1]].tolist()
                )
                assert set(pairs.positive[node].tolist()) <= neighbors

    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_positives_are_top_weighted(self, n, seed):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) + 0.01
        np.fill_diagonal(dense, 0.0)
        weighted = sp.csr_matrix(dense)
        negatives = {i: rng.integers(0, n, size=n).astype(np.int64) for i in range(n)}
        pairs = construct_pairs(weighted, negatives, 0.5, rng)
        for node in range(n):
            chosen = pairs.positive[node]
            if len(chosen) == 0:
                continue
            weights = dense[node]
            min_chosen = min(weights[c] for c in chosen)
            unchosen = [
                weights[j]
                for j in range(n)
                if j != node and weights[j] > 0 and j not in set(chosen.tolist())
            ]
            if unchosen:
                assert min_chosen >= max(unchosen) - 1e-12
