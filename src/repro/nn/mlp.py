"""A multilayer perceptron with explicit forward/backward passes.

This is the "simple MLP" the paper uses to demonstrate the learning-based
instantiation (Section 5.2).  It owns its layers, exposes flat parameter /
gradient lists for the optimizers, and provides convenience training steps
for both the supervised pre-training phase and the ELBO-driven continual
phase.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.layers import Dense, Identity, Layer, ReLU, Sigmoid, Tanh
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, Optimizer

__all__ = ["MLP"]

_ACTIVATIONS: dict[str, Callable[[], Layer]] = {
    "relu": ReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "identity": Identity,
}


class MLP:
    """Dense feed-forward network.

    Args:
        layer_sizes: ``[in, hidden..., out]`` — at least two entries.
        rng: Randomness for weight initialisation.
        activation: Hidden activation name (``relu``/``tanh``/``sigmoid``).
        out_activation: Output head activation (default linear).
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "tanh",
        out_activation: str = "identity",
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in _ACTIVATIONS or out_activation not in _ACTIVATIONS:
            raise ValueError("unknown activation")
        init = "he" if activation == "relu" else "xavier"
        self.layers: list[Layer] = []
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            self.layers.append(Dense(fan_in, fan_out, rng, init=init))
            is_last = i == len(layer_sizes) - 2
            self.layers.append(_ACTIVATIONS[out_activation if is_last else activation]())
        self.in_features = layer_sizes[0]
        self.out_features = layer_sizes[-1]

    # -- inference -------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; accepts ``(features,)`` or ``(batch, features)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} features, got {x.shape[1]}")
        for layer in self.layers:
            x = layer.forward(x)
        return x

    __call__ = forward

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate dL/d(output); returns dL/d(input)."""
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- parameters ------------------------------------------------------

    def params(self) -> list[np.ndarray]:
        """All trainable arrays, layer by layer."""
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        """All gradient arrays, aligned with :attr:`params`."""
        return [g for layer in self.layers for g in layer.grads()]

    def make_optimizer(self, kind: str = "adam", lr: float = 1e-3, **kwargs) -> Optimizer:
        """Create an optimizer bound to this network's parameters."""
        from repro.nn.optim import SGD

        if kind == "adam":
            return Adam(self.params(), self.grads(), lr=lr, **kwargs)
        if kind == "sgd":
            return SGD(self.params(), self.grads(), lr=lr, **kwargs)
        raise ValueError(f"unknown optimizer {kind!r}")

    # -- training --------------------------------------------------------

    def train_step(
        self,
        x: np.ndarray,
        target: np.ndarray,
        optimizer: Optimizer,
        loss_fn=mse_loss,
    ) -> float:
        """One supervised step: forward, loss, backward, update."""
        pred = self.forward(x)
        target = np.atleast_2d(np.asarray(target, dtype=float))
        value, grad = loss_fn(pred, target)
        optimizer.zero_grad()
        self.backward(grad)
        optimizer.step()
        return value

    def train_step_unsupervised(
        self,
        x: np.ndarray,
        optimizer: Optimizer,
        loss_fn,
    ) -> float:
        """One unsupervised step where the loss depends only on the output.

        Used for the continual-learning phase with the bounded ELBO loss.
        """
        pred = self.forward(x)
        value, grad = loss_fn(pred)
        optimizer.zero_grad()
        self.backward(grad)
        optimizer.step()
        return value

    def fit(
        self,
        x: np.ndarray,
        target: np.ndarray,
        epochs: int = 100,
        batch_size: int = 32,
        lr: float = 1e-3,
        rng: np.random.Generator | None = None,
        loss_fn=mse_loss,
    ) -> list[float]:
        """Minibatch supervised training; returns the per-epoch loss trace."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        target = np.atleast_2d(np.asarray(target, dtype=float))
        if len(x) != len(target):
            raise ValueError("x and target must have the same number of rows")
        rng = rng or np.random.default_rng(0)
        optimizer = self.make_optimizer("adam", lr=lr)
        trace: list[float] = []
        n = len(x)
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                epoch_loss += self.train_step(x[idx], target[idx], optimizer, loss_fn)
                batches += 1
            trace.append(epoch_loss / max(batches, 1))
        return trace
