"""Batch normalization over 2-D activations with the exact train-mode gradient.

Train mode normalizes with the biased batch variance (divide by K); its
backward pass differentiates through the batch mean and variance. Eval mode
normalizes with the stored running statistics and only scores: its output
is a constant, with no parents and no backward. ``batchnorm`` writes
nothing in either mode. The running statistics change only through
``BNState.track``, which the training loop calls once per training batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, ShapeMismatchError, Tensor

__all__ = ["BNState", "batchnorm"]

EPS = 1e-5  # added to the variance before its square root
MOMENTUM = 0.1  # weight of a batch's statistics in the running ones


@dataclass
class BNState:
    gamma: Parameter
    beta: Parameter
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def build(cls, gamma: Parameter, beta: Parameter) -> "BNState":
        """The state of a fresh layer over ``gamma``'s features: zero running means, unit running variances.

        ``gamma`` and ``beta`` are kept as given; the caller initializes them.
        The running statistics take ``gamma``'s dtype.
        """
        return cls(gamma, beta, running_mean=np.zeros_like(gamma.data), running_var=np.ones_like(gamma.data))

    def track(self, x: np.ndarray) -> None:
        """Fold one training batch's (K, d) feature means and biased variances into the running statistics."""
        self.running_mean *= 1.0 - MOMENTUM
        self.running_mean += MOMENTUM * x.mean(axis=0)
        self.running_var *= 1.0 - MOMENTUM
        self.running_var += MOMENTUM * x.var(axis=0)


def batchnorm(x: Tensor, state: BNState, train: bool) -> Tensor:
    """Normalize each feature column; affine-restore with learnable gamma/beta."""
    if x.ndim != 2 or x.shape[1] != state.gamma.shape[0]:
        raise ShapeMismatchError(f"batchnorm expects (K, {state.gamma.shape[0]}), got {x.shape}")
    gamma, beta = state.gamma, state.beta

    if train:
        k = x.shape[0]
        if k < 2:
            raise ValueError(f"train-mode batchnorm needs K >= 2 samples, got {k}")
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)  # biased: divide by K
        inv = 1.0 / np.sqrt(var + EPS)
        xhat = (x.data - mu) * inv
        out = gamma.data * xhat + beta.data

        def backward(g):
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            dxhat = g * gamma.data
            dx = (inv / k) * (k * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
            return dx, dgamma, dbeta

        return Tensor(out, (x, gamma, beta), backward)

    inv = 1.0 / np.sqrt(state.running_var + EPS)
    xhat = (x.data - state.running_mean) * inv
    return Tensor(gamma.data * xhat + beta.data)
