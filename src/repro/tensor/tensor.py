"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the whole reproduction: the original SES
implementation relies on PyTorch, which is unavailable in this environment,
so we provide a small but complete autograd engine.  A :class:`Tensor` wraps
a ``numpy.ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` walks the recorded graph in reverse topological
order and accumulates gradients into every tensor created with
``requires_grad=True``.

The engine supports full numpy broadcasting.  Gradients flowing into a
broadcast operand are reduced back to the operand's shape with
:func:`unbroadcast`, mirroring PyTorch semantics.

Only the operations needed by the SES stack are implemented, but they cover
a useful general-purpose subset: arithmetic, matmul, reshaping, reductions,
indexing, and elementwise math.  Activation functions, losses and the
graph-specific gather/segment primitives live in
:mod:`repro.tensor.functional`, :mod:`repro.tensor.scatter` and
:mod:`repro.tensor.sparse`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording, like ``torch.no_grad``.

    Inside the block, every operation produces detached tensors, which keeps
    inference cheap and prevents the tape from growing during evaluation
    loops.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _grad_enabled
        _grad_enabled = self._previous


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Summation happens over the axes that were added or stretched during the
    forward broadcast, which is exactly the adjoint of broadcasting.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes numpy added in front of the original shape.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape but stretched.
    stretched = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of floats.
    requires_grad:
        When true, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional label used in debugging messages.
    """

    # __weakref__ lets the observability layer (repro.tensor.alloc) attach
    # weakref finalizers for live-byte accounting without keeping tensors
    # alive or adding any per-instance state.
    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents",
                 "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.name = name
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        """Bytes held by the underlying array (allocation accounting)."""
        return self.data.nbytes

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{flag}{label})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.item())

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor wired into the autograd graph."""
        parents = tuple(parents)
        needs = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        A first gradient is copied, unless the caller passes ``owned=True``:
        a backward closure that allocated ``grad`` for this tensor alone and
        never touches it again hands it over as the buffer itself.  An array
        that is also passed to another parent, a view of the incoming
        gradient, layout scratch or the root seed is never owned.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned and isinstance(grad, np.ndarray):
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1.0`` and therefore requires a
            scalar tensor, matching PyTorch behaviour.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: Tensor) -> None:
            # Iterative DFS: the autograd graphs of deep models overflow the
            # recursion limit otherwise.
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in seen and parent._backward is not None:
                        seen.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                    if id(parent) not in seen:
                        seen.add(id(parent))
                if not advanced:
                    order.append(current)
                    stack.pop()

        if self._backward is not None:
            visit(self)

        self._accumulate(grad)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward is None:
                continue
            # _backward closures call parent._accumulate; we also track the
            # local dict so intermediate (non-leaf) tensors do not have to
            # keep .grad alive.
            node._backward(node_grad)
            for parent in node._parents:
                if parent._backward is not None and parent.grad is not None:
                    grads[id(parent)] = parent.grad
        # Release intermediate gradients: only leaves keep .grad.
        for node in order:
            if node._backward is not None and node is not self:
                node.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other_data, self.shape), owned=True)
            other._accumulate(unbroadcast(grad * self_data, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad / other_data, self.shape))
            other._accumulate(
                unbroadcast(-grad * self_data / (other_data * other_data), other.shape)
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        self_data = self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self_data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_data.ndim == 1:
                    self._accumulate(np.outer(grad, other_data) if grad.ndim else grad * other_data)
                else:
                    self._accumulate(unbroadcast(grad @ other_data.swapaxes(-1, -2), self.shape))
            if other.requires_grad:
                if self_data.ndim == 1:
                    other._accumulate(np.outer(self_data, grad))
                else:
                    other._accumulate(unbroadcast(self_data.swapaxes(-1, -2) @ grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else None
        out_data = self.data.transpose(axes_tuple)
        if axes_tuple is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes_tuple))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        shape = self.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(grad, shape).astype(np.float64))
                return
            if not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, shape).astype(np.float64))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        self_data = self.data

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = (self_data == out_data).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * grad)
                return
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            grad_expanded = grad if keepdims else np.expand_dims(grad, axis)
            mask = (self_data == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * grad_expanded)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        self_data = self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self_data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: Optional[float] = None, high: Optional[float] = None) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        passthrough = np.ones_like(self.data)
        if low is not None:
            passthrough *= self.data >= low
        if high is not None:
            passthrough *= self.data <= high

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * passthrough)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce arrays/scalars into detached tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    """Return a zero-filled tensor."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    """Return a one-filled tensor."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)
