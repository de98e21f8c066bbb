"""``pair_mlp`` (the decomposed SES Eq. 4 scorer) against the composed path.

The oracle below is the gather + ``F.concatenate`` + ``MLP`` path that
``MaskGenerator._score_pairs`` ran before the fused op, kept verbatim.  The
differential test scores the k-hop and negative pairs of the perfbench
``fit-full`` graph (cora surrogate, N=1000, data seed 0) through both and
compares logits and every gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MaskGenerator, SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.tensor import MLP, Tensor, cached_layout, functional as F, gather_rows, pair_mlp


def _composed(mlp, hidden, pairs):
    """The pre-fusion scorer: gather both endpoints, concatenate, apply the MLP."""
    num_rows = hidden.shape[0]
    h_center = gather_rows(hidden, pairs[0], layout=cached_layout(pairs[0], num_rows))
    h_other = gather_rows(hidden, pairs[1], layout=cached_layout(pairs[1], num_rows))
    blocks = [h_center, h_other]
    if mlp.linears[0].weight.shape[0] == 3 * hidden.shape[1]:
        blocks.append(h_center * h_other)
    return mlp(F.concatenate(blocks, axis=1)).reshape(-1)


def _scores_and_grads(scorer, hidden_data, mlp, pair_lists, seed=0):
    """Score each pair list, backprop a fixed random projection of the sum."""
    hidden = Tensor(hidden_data.copy(), requires_grad=True)
    mlp.zero_grad()
    rng = np.random.default_rng(seed)
    outputs = [scorer(mlp, hidden, pairs) for pairs in pair_lists]
    loss = None
    for out in outputs:
        term = (out * Tensor(rng.normal(size=out.shape))).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    grads = [hidden.grad] + [param.grad.copy() for param in mlp.parameters()]
    return [out.data for out in outputs], grads


def _assert_close(actual, expected, rtol=1e-12):
    # Relative to the array's scale: summation order differs, so elements
    # that cancel to ~0 carry absolute (not relative) rounding error.
    scale = float(np.abs(expected).max()) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


def _assert_matches_oracle(hidden_data, mlp, pair_lists):
    fused = _scores_and_grads(pair_mlp, hidden_data, mlp, pair_lists)
    composed = _scores_and_grads(_composed, hidden_data, mlp, pair_lists)
    for actual, expected in zip(fused[0] + fused[1], composed[0] + composed[1]):
        assert actual.shape == expected.shape
        _assert_close(actual, expected)


@pytest.fixture(scope="module")
def fit_full_pairs():
    graph = classification_split(load_dataset("cora", seed=0, scale=1.0), seed=0)
    trainer = SESTrainer(graph, fast_config("gcn", seed=0))
    return graph.num_nodes, trainer.khop_edges, trainer.negative_pairs


@pytest.mark.parametrize("blocks", [2, 3], ids=["2d", "3d"])
def test_fit_full_pairs_match_composed_path(fit_full_pairs, blocks):
    num_nodes, khop, negatives = fit_full_pairs
    assert khop.shape[1] > 10_000 and negatives.shape[1] > 10_000
    rng = np.random.default_rng(1)
    mlp = MLP((blocks * 32, 32, 1), rng=rng)
    _assert_matches_oracle(rng.normal(size=(num_nodes, 32)), mlp, [khop, negatives])


def test_same_pairs_twice_share_a_layout_and_match():
    rng = np.random.default_rng(2)
    pairs = rng.integers(0, 30, size=(2, 200))
    mlp = MLP((3 * 6, 8, 1), rng=rng)
    _assert_matches_oracle(rng.normal(size=(30, 6)), mlp, [pairs, pairs])


def test_identical_endpoint_lists_match():
    # Every pair is a self pair: both endpoint scatters resolve to one
    # cached layout.
    rng = np.random.default_rng(3)
    index = rng.integers(0, 20, size=120)
    mlp = MLP((3 * 5, 7, 1), rng=rng)
    _assert_matches_oracle(rng.normal(size=(20, 5)), mlp, [np.stack([index, index])])


def test_empty_pairs_give_shape_zero():
    mlp = MLP((3 * 4, 5, 1), rng=np.random.default_rng(4))
    hidden = Tensor(np.ones((3, 4)), requires_grad=True)
    out = pair_mlp(mlp, hidden, np.zeros((2, 0), dtype=np.int64))
    assert out.shape == (0,)
    out.sum().backward()
    np.testing.assert_array_equal(hidden.grad, np.zeros((3, 4)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: MLP((12, 5, 5, 1)),
        lambda: MLP((12, 5, 1), final_activation=F.sigmoid),
        lambda: MLP((12, 5, 2)),
        lambda: MLP((16, 5, 1)),
        lambda: MLP((4, 5, 1)),
    ],
    ids=["three_layers", "final_activation", "two_outputs", "4d_rows", "1d_rows"],
)
def test_unsupported_mlps_rejected_in_one_line(build):
    hidden = Tensor(np.ones((3, 4)))
    with pytest.raises(ValueError, match="^pair_mlp ") as raised:
        pair_mlp(build(), hidden, np.array([[0], [1]]))
    assert "\n" not in str(raised.value)


def test_mask_generator_state_dict_unchanged():
    generator = MaskGenerator(8, 5, mlp_hidden=6, rng=np.random.default_rng(0))
    shapes = {name: array.shape for name, array in generator.state_dict().items()}
    assert shapes == {
        "feature_mlp.linear_0.weight": (8, 6),
        "feature_mlp.linear_0.bias": (6,),
        "feature_mlp.linear_1.weight": (6, 5),
        "feature_mlp.linear_1.bias": (5,),
        "edge_scorer.linear_0.weight": (24, 6),
        "edge_scorer.linear_0.bias": (6,),
        "edge_scorer.linear_1.weight": (6, 1),
        "edge_scorer.linear_1.bias": (1,),
    }
