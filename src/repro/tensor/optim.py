"""Gradient-descent optimisers.

The paper trains every model with Adam at learning rate ``3e-3``
(Experimental Settings, §5.3).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base class holding a parameter list."""

    def __init__(self, params: Sequence[Tensor]) -> None:
        self.params: List[Tensor] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        """Clear gradients before the next backward pass."""
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict:
        """Copy of the optimizer's internal state (hyper-params + moments).

        Moment arrays are keyed by position in the parameter list, which is
        deterministic for a given model construction order — the contract
        checkpoint/resume relies on.
        """
        raise NotImplementedError

    def load_state_dict(self, state: Dict) -> None:
        """Restore a state produced by :meth:`state_dict` (shapes must match)."""
        raise NotImplementedError

    def _check_slots(self, state: Dict, key: str) -> List[np.ndarray]:
        arrays = state[key]
        if len(arrays) != len(self.params):
            raise ValueError(
                f"optimizer state has {len(arrays)} {key!r} slots for "
                f"{len(self.params)} parameters"
            )
        for i, (array, param) in enumerate(zip(arrays, self.params)):
            if np.shape(array) != param.data.shape:
                raise ValueError(
                    f"{key}[{i}] shape {np.shape(array)} != parameter shape "
                    f"{param.data.shape}"
                )
        return arrays


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction and weight decay."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 3e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: Dict) -> None:
        m_slots = self._check_slots(state, "m")
        v_slots = self._check_slots(state, "v")
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._step_count = int(state["step_count"])
        for slot, array in zip(self._m, m_slots):
            slot[...] = array
        for slot, array in zip(self._v, v_slots):
            slot[...] = array
