"""Every op leaves each parent its own gradient buffer.

Backward closures may hand an array they allocated to ``_accumulate`` as
the parent's ``.grad`` instead of having it copied.  That is only sound
when no other tensor, and not the upstream gradient, shares the array.
For each op this suite runs one backward into leaf inputs and checks
that an in-place ``+=`` on any one ``.grad`` leaves every other gradient,
and the seed gradient, unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import (
    MLP,
    Tensor,
    edge_spmm,
    functional as F,
    gather_rows,
    pair_mlp,
    segment_mean,
    segment_softmax,
    segment_sum,
)

RNG = np.random.default_rng(5)
SEGMENTS = np.array([1, 0, 1, 2, 1, 0], dtype=np.int64)
EDGES = np.array([[0, 2, 1, 3, 3, 0], [1, 1, 2, 2, 0, 3]], dtype=np.int64)
PAIRS = np.array([[0, 1, 2, 3, 1], [1, 2, 3, 0, 1]], dtype=np.int64)


def _leaf(*shape, positive=False):
    data = RNG.uniform(0.5, 1.5, size=shape) if positive else RNG.normal(size=shape)
    return Tensor(data, requires_grad=True)


def _pair_mlp_case():
    mlp = MLP((9, 4, 1), rng=np.random.default_rng(3))
    hidden = _leaf(4, 3)
    return [hidden, *mlp.parameters()], lambda h, *_: pair_mlp(mlp, h, PAIRS)


def _case(fn, *shapes, positive=False):
    return lambda: ([_leaf(*s, positive=positive) for s in shapes], fn)


CASES = {
    "add": _case(lambda a, b: a + b, (3, 4), (3, 4)),
    "add_broadcast": _case(lambda a, b: a + b, (3, 4), (4,)),
    "add_self": _case(lambda a: a + a, (3, 4)),
    "sub": _case(lambda a, b: a - b, (3, 4), (3, 4)),
    "neg": _case(lambda a: -a, (3, 4)),
    "mul": _case(lambda a, b: a * b, (3, 4), (3, 4)),
    "mul_broadcast": _case(lambda a, b: a * b, (3, 4), (3, 1)),
    "mul_self": _case(lambda a: a * a, (3, 4)),
    "mul_scalar": _case(lambda a, b: a * b, (3, 4), ()),
    "div": _case(lambda a, b: a / b, (3, 4), (3, 4), positive=True),
    "pow": _case(lambda a: a**2.0, (3, 4)),
    "matmul": _case(lambda a, b: a @ b, (3, 4), (4, 2)),
    "matvec": _case(lambda a, b: a @ b, (3, 4), (4,)),
    "reshape": _case(lambda a: a.reshape(4, 3), (3, 4)),
    "transpose": _case(lambda a: a.T, (3, 4)),
    "getitem": _case(lambda a: a[1:], (3, 4)),
    "sum": _case(lambda a: a.sum(axis=0), (3, 4)),
    "mean": _case(lambda a: a.mean(), (3, 4)),
    "max": _case(lambda a: a.max(axis=1), (3, 4)),
    "exp": _case(lambda a: a.exp(), (3, 4)),
    "log": _case(lambda a: a.log(), (3, 4), positive=True),
    "sqrt": _case(lambda a: a.sqrt(), (3, 4), positive=True),
    "abs": _case(lambda a: a.abs(), (3, 4)),
    "clip": _case(lambda a: a.clip(-0.5, 0.5), (3, 4)),
    "relu": _case(F.relu, (3, 4)),
    "leaky_relu": _case(F.leaky_relu, (3, 4)),
    "elu": _case(F.elu, (3, 4)),
    "sigmoid": _case(F.sigmoid, (3, 4)),
    "tanh": _case(F.tanh, (3, 4)),
    "log_softmax": _case(F.log_softmax, (3, 4)),
    "concatenate": _case(lambda a, b: F.concatenate([a, b], axis=0), (3, 4), (2, 4)),
    "stack": _case(lambda a, b: F.stack([a, b]), (3, 4), (3, 4)),
    "where": _case(lambda a, b: F.where(np.eye(3, 4) > 0, a, b), (3, 4), (3, 4)),
    "maximum": _case(F.maximum, (3, 4), (3, 4)),
    "dropout": _case(
        lambda a: F.dropout(a, 0.5, rng=np.random.default_rng(0)), (3, 4)
    ),
    "gather_rows": _case(lambda a: gather_rows(a, SEGMENTS), (3, 4)),
    # Both adjoints scatter through the same cached layout's scratch.
    "gather_rows_shared_layout": _case(
        lambda a, b: gather_rows(a, SEGMENTS) * gather_rows(b, SEGMENTS), (3, 4), (3, 4)
    ),
    "segment_sum": _case(lambda a: segment_sum(a, SEGMENTS, 3), (6, 4)),
    "segment_mean": _case(lambda a: segment_mean(a, SEGMENTS, 3), (6, 4)),
    "segment_softmax": _case(lambda a: segment_softmax(a, SEGMENTS, 3), (6,)),
    "edge_spmm": _case(lambda h, w: edge_spmm(h, w, EDGES, 4), (4, 3), (6,)),
    "edge_spmm_vector": _case(lambda h, w: edge_spmm(h, w, EDGES, 4), (4,), (6,)),
    "pair_mlp": _pair_mlp_case,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_parents_hold_distinct_grad_buffers(name):
    leaves, fn = CASES[name]()
    out = fn(*leaves)
    seed = RNG.normal(size=out.shape)
    seed_copy = seed.copy()
    out.backward(seed)
    grads = [leaf.grad for leaf in leaves if leaf.grad is not None]
    assert grads, "backward reached no input"
    assert np.array_equal(seed, seed_copy), "backward changed the seed gradient"
    for i, grad in enumerate(grads):
        before = [g.copy() for g in grads]
        grad += 1.0
        for j, other in enumerate(grads):
            if j != i:
                assert np.array_equal(other, before[j]), f"grad {i} aliases grad {j}"
        assert np.array_equal(seed, seed_copy), f"grad {i} aliases the seed gradient"
        grad -= 1.0


def test_chained_ops_keep_distinct_buffers():
    """Handed-over arrays that pass through intermediate nodes stay private."""
    a, b, w = _leaf(6, 3), _leaf(6, 3), _leaf(6)
    prod = a * b
    out = segment_sum(prod * w.reshape(-1, 1), SEGMENTS, 3) + segment_sum(prod, SEGMENTS, 3)
    out.backward(np.ones(out.shape))
    grads = [a.grad, b.grad, w.grad]
    for i, grad in enumerate(grads):
        before = [g.copy() for g in grads]
        grad += 1.0
        assert all(np.array_equal(g, before[j]) for j, g in enumerate(grads) if j != i)
