"""Unit tests for SES config, mask generator, losses and Algorithm 1."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    MaskGenerator,
    PairSets,
    SESConfig,
    construct_pairs,
    explainable_training_loss,
    fast_config,
    pooled_pair_indices,
    predictive_learning_loss,
    subgraph_loss,
)
from repro.tensor import Tensor


class TestConfig:
    def test_defaults_match_paper(self):
        config = SESConfig()
        assert config.learning_rate == pytest.approx(3e-3)
        assert config.hidden_features == 128
        assert config.sample_ratio == pytest.approx(0.8)
        assert config.margin == pytest.approx(1.0)
        assert config.explainable_epochs == 300
        assert config.predictive_epochs == 15

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 1.5),
            ("beta", -0.1),
            ("sample_ratio", 2.0),
            ("mask_floor", 1.2),
            ("learning_rate", 0.0),
            ("hidden_features", 0),
            ("k_hops", 0),
            ("subgraph_target", "bogus"),
            ("triplet_pooling", "max"),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            SESConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mask_mlp_hidden", 0),
            ("mask_mlp_hidden", -3),
            ("dropout", -0.2),
            ("dropout", 1.0),
            ("weight_decay", -1.0),
            ("heads", 0),
            ("backbone", "sage"),
        ],
    )
    def test_model_fields_rejected_with_one_line_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} ") as raised:
            SESConfig(**{field: value})
        assert "\n" not in str(raised.value)

    def test_model_field_boundaries_accepted(self):
        config = SESConfig(mask_mlp_hidden=1, heads=1, dropout=0.0, weight_decay=0.0)
        assert (config.mask_mlp_hidden, config.heads) == (1, 1)
        assert (config.dropout, config.weight_decay) == (0.0, 0.0)
        assert SESConfig(dropout=0.99).dropout == 0.99

    def test_fast_config_is_small(self):
        config = fast_config()
        assert config.explainable_epochs < SESConfig().explainable_epochs


class TestMaskGenerator:
    @pytest.fixture()
    def generator(self):
        return MaskGenerator(8, 5, mlp_hidden=8, rng=np.random.default_rng(0))

    def test_feature_mask_shape_and_range(self, generator, rng):
        hidden = Tensor(rng.normal(size=(6, 8)))
        mask = generator.feature_mask(hidden)
        assert mask.shape == (6, 5)
        assert (mask.data > 0).all() and (mask.data < 1).all()

    def test_structure_mask_shape_and_range(self, generator, rng):
        hidden = Tensor(rng.normal(size=(6, 8)))
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        mask = generator.structure_mask(hidden, edges)
        assert mask.shape == (3,)
        assert (mask.data > 0).all() and (mask.data < 1).all()

    def test_empty_pairs(self, generator, rng):
        hidden = Tensor(rng.normal(size=(6, 8)))
        mask = generator.negative_mask(hidden, np.zeros((2, 0), dtype=np.int64))
        assert mask.shape == (0,)

    def test_forward_returns_all_three(self, generator, rng):
        hidden = Tensor(rng.normal(size=(6, 8)))
        edges = np.array([[0, 1], [1, 0]])
        negatives = np.array([[0], [3]])
        feature_mask, structure_mask, negative_mask = generator(hidden, edges, negatives)
        assert feature_mask.shape == (6, 5)
        assert structure_mask.shape == (2,)
        assert negative_mask.shape == (1,)

    def test_scorer_is_shared_between_pos_and_neg(self, generator, rng):
        hidden = Tensor(rng.normal(size=(6, 8)))
        pair = np.array([[0], [1]])
        a = generator.structure_mask(hidden, pair)
        b = generator.negative_mask(hidden, pair)
        np.testing.assert_allclose(a.data, b.data)

    def test_gradients_flow_to_parameters(self, generator, rng):
        hidden = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        generator.structure_mask(hidden, edges).sum().backward()
        assert any(p.grad is not None for p in generator.parameters())


class TestSubgraphLoss:
    def _setup(self):
        khop = np.array([[0, 0, 1], [1, 2, 2]])
        negatives = np.array([[0, 1], [3, 3]])
        structure = Tensor(np.array([0.9, 0.8, 0.7]), requires_grad=True)
        negative = Tensor(np.array([0.2, 0.1]), requires_grad=True)
        return khop, negatives, structure, negative

    def test_structure_mode_targets(self):
        khop, negatives, structure, negative = self._setup()
        loss = subgraph_loss(structure, negative, khop, negatives, target_mode="structure")
        # positives pulled to 1, negatives to 0; balanced halves
        expected = 0.5 * np.mean([0.1, 0.2, 0.3]) + 0.5 * np.mean([0.2, 0.1])
        assert loss.item() == pytest.approx(expected)

    def test_label_mode_flips_disagreeing_edges(self):
        khop, negatives, structure, negative = self._setup()
        labels = np.array([0, 0, 1, 1])
        train_mask = np.ones(4, dtype=bool)
        loss = subgraph_loss(
            structure, negative, khop, negatives,
            labels=labels, train_mask=train_mask, target_mode="label",
        )
        # edge (0,1): agree -> 1; (0,2): disagree -> 0; (1,2): disagree -> 0
        positives = [abs(0.9 - 1.0), abs(0.8 - 0.0), abs(0.7 - 0.0)]
        zeros = [0.8, 0.7, 0.2, 0.1]
        ones = [0.1]
        expected = 0.5 * np.mean(ones) + 0.5 * np.mean(zeros)
        assert loss.item() == pytest.approx(expected)

    def test_label_mode_skips_unknown_pairs(self):
        khop, negatives, structure, negative = self._setup()
        labels = np.array([0, 0, 1, 1])
        train_mask = np.array([True, True, False, False])
        loss = subgraph_loss(
            structure, negative, khop, negatives,
            labels=labels, train_mask=train_mask, target_mode="label",
        )
        # only edge (0,1) supervised (agree -> 1); negatives -> 0
        expected = 0.5 * 0.1 + 0.5 * np.mean([0.2, 0.1])
        assert loss.item() == pytest.approx(expected)

    def test_invalid_mode(self):
        khop, negatives, structure, negative = self._setup()
        with pytest.raises(ValueError):
            subgraph_loss(structure, negative, khop, negatives, target_mode="weird")

    def test_gradient_direction(self):
        khop, negatives, structure, negative = self._setup()
        loss = subgraph_loss(structure, negative, khop, negatives, target_mode="structure")
        loss.backward()
        assert (structure.grad < 0).all()  # positives should increase
        assert (negative.grad > 0).all()  # negatives should decrease


class TestCombinedLosses:
    def test_explainable_weighting(self):
        plain = Tensor(np.array(2.0))
        masked = Tensor(np.array(3.0))
        sub = Tensor(np.array(1.0))
        out = explainable_training_loss(plain, masked, sub, alpha=0.25)
        assert out.item() == pytest.approx(0.25 * (1.0 + 3.0) + 0.75 * 2.0)

    def test_explainable_without_masked_xent(self):
        out = explainable_training_loss(
            Tensor(np.array(2.0)), None, Tensor(np.array(1.0)), alpha=0.5
        )
        assert out.item() == pytest.approx(0.5 * 1.0 + 0.5 * 2.0)

    def test_predictive_weighting(self):
        out = predictive_learning_loss(
            Tensor(np.array(4.0)), Tensor(np.array(2.0)), beta=0.75
        )
        assert out.item() == pytest.approx(0.75 * 4.0 + 0.25 * 2.0)

    def test_predictive_single_terms(self):
        assert predictive_learning_loss(None, Tensor(np.array(2.0)), 0.5).item() == 1.0
        assert predictive_learning_loss(Tensor(np.array(2.0)), None, 0.5).item() == 1.0

    def test_predictive_requires_a_term(self):
        with pytest.raises(ValueError):
            predictive_learning_loss(None, None, 0.5)


class TestAlgorithm1:
    def _weighted(self):
        # Node 0 has neighbours 1, 2, 3 with weights 0.9, 0.1, 0.5.
        matrix = sp.lil_matrix((4, 4))
        matrix[0, 1], matrix[0, 2], matrix[0, 3] = 0.9, 0.1, 0.5
        matrix[1, 0] = 0.9
        return matrix.tocsr()

    def test_top_ratio_selected_in_weight_order(self):
        negatives = {i: np.array([3], dtype=np.int64) for i in range(4)}
        pairs = construct_pairs(self._weighted(), negatives, 0.67, np.random.default_rng(0))
        np.testing.assert_array_equal(pairs.positive[0], [1, 3])

    def test_ratio_one_takes_all(self):
        negatives = {i: np.arange(4, dtype=np.int64) for i in range(4)}
        pairs = construct_pairs(self._weighted(), negatives, 1.0, np.random.default_rng(0))
        assert len(pairs.positive[0]) == 3

    def test_negatives_match_positive_count(self):
        negatives = {i: np.arange(4, dtype=np.int64) for i in range(4)}
        pairs = construct_pairs(self._weighted(), negatives, 0.67, np.random.default_rng(0))
        assert len(pairs.negative[0]) == len(pairs.positive[0])

    def test_isolated_nodes_get_empty_sets(self):
        pairs = construct_pairs(self._weighted(), {}, 0.8, np.random.default_rng(0))
        assert len(pairs.positive[2]) == 0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            construct_pairs(self._weighted(), {}, 0.0, np.random.default_rng(0))

    def test_anchors_require_both_sets(self):
        pairs = PairSets(
            positive={0: np.array([1]), 1: np.array([], dtype=np.int64)},
            negative={0: np.array([2]), 1: np.array([3])},
        )
        assert pairs.anchors() == [0]

    def test_pooled_indices_alignment(self):
        pairs = PairSets(
            positive={0: np.array([1, 2]), 1: np.array([0])},
            negative={0: np.array([3]), 1: np.array([2])},
        )
        anchors, pos_index, pos_segment, neg_index, neg_segment = pooled_pair_indices(pairs, 2)
        np.testing.assert_array_equal(anchors, [0, 1])
        np.testing.assert_array_equal(pos_index, [1, 2, 0])
        np.testing.assert_array_equal(pos_segment, [0, 0, 1])
        np.testing.assert_array_equal(neg_index, [3, 2])
        np.testing.assert_array_equal(neg_segment, [0, 1])

    def test_pooled_indices_empty(self):
        pairs = PairSets(positive={}, negative={})
        anchors, *_ = pooled_pair_indices(pairs, 0)
        assert len(anchors) == 0

    def test_empty_supervision_returns_zero_not_nan(self):
        """Regression: with no supervised pairs at all the loss is 0.0, not
        an empty-mean NaN that would poison the optimiser."""
        khop = np.array([[0], [1]])
        structure = Tensor(np.array([0.5]), requires_grad=True)
        empty_negatives = np.zeros((2, 0), dtype=np.int64)
        negative = Tensor(np.zeros(0))
        labels = np.array([0, 1])
        train_mask = np.array([True, False])  # no label-known pair
        loss = subgraph_loss(
            structure, negative, khop, empty_negatives,
            labels=labels, train_mask=train_mask, target_mode="label",
        )
        assert loss.item() == 0.0
