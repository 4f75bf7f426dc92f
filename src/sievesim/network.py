"""Dense feed-forward ReLU networks with explicit NumPy gradients.

Kept deliberately small: the trainer in :mod:`sievesim.estimators` needs
forward evaluation, the mean-squared loss, and its exact gradient; tests
check the gradient against finite differences, so everything is plain
float64 arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReluNetwork"]


def _layer_views(vector: np.ndarray, dims: list[int]):
    """Per-layer weight and bias views into a flat vector laid out W1, b1, W2, b2, ..."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(vector[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(vector[at : at + fan_out])
        at += fan_out
    return weights, biases


class ReluNetwork:
    """Multilayer perceptron with ReLU hidden activations and scalar output.

    All parameters live in the one float64 array ``vector``; ``weights`` and
    ``biases`` are per-layer views into it.  Parameters are initialized
    uniformly on ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]`` per layer (biases
    included), from the given seed.
    """

    def __init__(self, layer_dims, seed=0):
        dims = [int(v) for v in layer_dims]
        if len(dims) < 2:
            raise ValueError("need at least input and output dimensions")
        if dims[-1] != 1:
            raise ValueError(f"output dimension must be 1, got {dims[-1]}")
        if any(v < 1 for v in dims):
            raise ValueError(f"layer dimensions must be positive, got {dims}")
        rng = np.random.default_rng(seed)
        self.layer_dims = dims
        self.vector = np.empty(sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:])))
        self.weights, self.biases = _layer_views(self.vector, dims)
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, w.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)

    @property
    def num_params(self) -> int:
        return self.vector.size

    def param_vector(self) -> np.ndarray:
        return self.vector.copy()

    def set_param_vector(self, vec) -> None:
        vec = np.asarray(vec, dtype=float).ravel()
        if vec.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, got {vec.size}")
        self.vector[...] = vec

    def forward(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        if a.ndim == 1:
            a = a[None, :]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        return (a @ self.weights[-1] + self.biases[-1]).ravel()

    def loss(self, x, y) -> float:
        resid = self.forward(x) - np.asarray(y, dtype=float).ravel()
        return float(np.mean(resid**2))

    def loss_and_grad(self, x, y):
        """Mean squared loss and its gradient, one new vector ordered like ``vector``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()

        activations = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            activations.append(np.maximum(activations[-1] @ w + b, 0.0))
        resid = (activations[-1] @ self.weights[-1] + self.biases[-1]).ravel() - y
        loss = float(np.mean(resid**2))

        grad = np.empty_like(self.vector)
        grad_w, grad_b = _layer_views(grad, self.layer_dims)
        back = (2.0 / x.shape[0]) * resid[:, None]
        for layer in range(len(self.weights) - 1, -1, -1):
            grad_w[layer][...] = activations[layer].T @ back
            grad_b[layer][...] = back.sum(axis=0)
            if layer:
                # activations[layer] > 0 exactly where its pre-activation is.
                back = (back @ self.weights[layer].T) * (activations[layer] > 0.0)
        return loss, grad
