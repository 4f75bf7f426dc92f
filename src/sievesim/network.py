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

    def _workspace(self, work: dict, rows: int):
        """The buffers of :meth:`loss_and_grad`, kept in ``work`` and rebuilt
        when ``rows`` outgrows them."""
        if work.get("rows", 0) < rows:
            widths = self.layer_dims[1:-1]
            grad = np.empty_like(self.vector)
            work.update(rows=rows, hidden=[np.empty((rows, width)) for width in widths],
                        masks=[np.empty((rows, width), dtype=bool) for width in widths],
                        out=np.empty(rows), grad=grad, views=_layer_views(grad, self.layer_dims))
        return (work["hidden"], work["masks"], work["out"], work["grad"], *work["views"])

    def loss_and_grad(self, x, y, work=None):
        """Mean squared loss and its gradient, a vector ordered like ``vector``.

        ``work`` is a dict the caller keeps across this network's calls
        (start with ``{}``); the activations, back-propagated arrays, ReLU
        masks and the gradient live in it, sized for the most rows seen so
        far, and a call with fewer rows uses their leading rows.  With
        ``work`` the returned gradient is overwritten by the next call.
        Without it each call builds a fresh workspace, so the caller owns
        the gradient it gets.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        rows = x.shape[0]
        hidden, masks, out, grad, grad_w, grad_b = self._workspace(
            {} if work is None else work, rows)
        acts = [x, *(h[:rows] for h in hidden)]
        masks = [mask[:rows] for mask in masks]

        for w, b, a, h, mask in zip(self.weights[:-1], self.biases[:-1], acts, acts[1:], masks):
            np.matmul(a, w, out=h)
            h += b
            np.maximum(h, 0.0, out=h)
            # h > 0 exactly where its pre-activation is; taken while h is in cache.
            np.greater(h, 0.0, out=mask)
        resid = out[:rows]
        np.matmul(acts[-1], self.weights[-1], out=resid[:, None])
        resid += self.biases[-1]
        resid -= y
        loss = float(np.mean(resid**2))

        back = np.multiply(resid, 2.0 / rows, out=resid)[:, None]
        # The output layer has width 1, so back @ W.T through it is an outer
        # product: a broadcast multiply, one exact product per entry.  Each
        # back-propagated array overwrites the activation it no longer needs.
        propagate = np.multiply
        for layer in range(len(self.weights) - 1, -1, -1):
            a = acts[layer]
            np.add.reduce(back, axis=0, out=grad_b[layer])
            np.matmul(a.T, back, out=grad_w[layer])
            if layer:
                back = propagate(back, self.weights[layer].T, out=a)
                np.multiply(back, masks[layer - 1], out=back)
                propagate = np.matmul
        return loss, grad
