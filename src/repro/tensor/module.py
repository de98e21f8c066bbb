"""Minimal neural-network module system (the ``torch.nn`` substitute).

:class:`Module` provides recursive parameter discovery, train/eval mode, and
gradient zeroing.  :class:`Linear` and :class:`MLP` cover every
architecture in the SES stack; graph convolutions in :mod:`repro.nn`
subclass :class:`Module` as well.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .init import xavier_uniform, zeros_init
from .tensor import Tensor


class Module:
    """Base class with recursive parameter and sub-module tracking.

    Assigning a :class:`Tensor` with ``requires_grad=True`` or another
    :class:`Module` to an attribute automatically registers it, mirroring
    PyTorch ergonomics.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a sub-module stored inside a container (e.g. a list)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def parameters(self) -> List[Tensor]:
        """Return all trainable tensors of this module and its children."""
        params = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(dotted_name, parameter)`` pairs."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.grad = None

    def train(self, mode: bool = True) -> "Module":
        """Switch train/eval mode recursively (affects dropout)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> dict:
        """Copy of all parameter arrays keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        """Load arrays produced by :meth:`state_dict` (shapes must match)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, array in state.items():
            if own[name].data.shape != array.shape:
                raise ValueError(f"shape mismatch for {name}: {own[name].data.shape} vs {array.shape}")
            own[name].data[...] = array

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine map ``x @ W + b`` with Xavier-initialised weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = xavier_uniform(in_features, out_features, rng)
        self.bias = zeros_init((out_features,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class MLP(Module):
    """Multi-layer perceptron used by the SES feature-mask generator (Eq. 3).

    Parameters
    ----------
    dims:
        Layer widths, e.g. ``(hidden, hidden, F)``; hidden layers use ReLU.
    final_activation:
        Optional output nonlinearity — the mask generator uses a sigmoid so
        mask weights live in ``(0, 1)``.
    """

    def __init__(
        self,
        dims: Sequence[int],
        final_activation: Optional[Callable[[Tensor], Tensor]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        rng = rng or np.random.default_rng()
        self.final_activation = final_activation
        self.linears: List[Linear] = []
        for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            layer = Linear(din, dout, rng=rng)
            self.register_module(f"linear_{i}", layer)
            self.linears.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.linears) - 1
        for i, layer in enumerate(self.linears):
            x = layer(x)
            if i < last:
                x = F.relu(x)
        if self.final_activation is not None:
            x = self.final_activation(x)
        return x
