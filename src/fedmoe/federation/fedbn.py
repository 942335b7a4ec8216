"""Server-side batch normalization over uploaded parameter tensors.

All uploads of one shape are treated as a batch: normalize each with the
pooled mean and biased variance, then restore with affine terms averaged
over the clients. The mean of the normalized batch equals the averaged beta
to rounding error regardless of epsilon, which is what makes the subsequent
parameter average collapse onto it; deviations are computed with a second
centering pass so the identity survives near-zero variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["FedBNState", "fedbn_normalize", "fed_average"]

DEFAULT_EPS = 1e-5


@dataclass(frozen=True)
class FedBNState:
    mu: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float


def _check_same_shape(tensors: Sequence[np.ndarray], what: str) -> tuple:
    shape = tensors[0].shape
    for t in tensors:
        if t.shape != shape:
            raise ValueError(f"{what} must share one shape, got {t.shape} vs {shape}")
    return shape


def fedbn_normalize(
    uploads: Sequence[np.ndarray],
    client_gammas: Sequence[np.ndarray],
    client_betas: Sequence[np.ndarray],
    eps: float = DEFAULT_EPS,
) -> tuple[np.ndarray, FedBNState]:
    """Normalize a batch of same-shape uploads; returns them stacked on axis 0, plus the state.

    ``client_gammas``/``client_betas`` carry one affine pair per client (the
    upload count may be a multiple of the client count when several experts
    upload per client); they are averaged into the global gamma/beta.
    """
    if len(uploads) < 2:
        raise ValueError(f"server batch normalization needs >= 2 uploads, got {len(uploads)}")
    if len(client_gammas) != len(client_betas) or not client_gammas:
        raise ValueError("need one gamma and one beta per client")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    uploads = [np.asarray(u, dtype=np.float64) for u in uploads]
    shape = _check_same_shape(uploads, "uploads")
    gammas = [np.broadcast_to(np.asarray(g, dtype=np.float64), shape) for g in client_gammas]
    betas = [np.broadcast_to(np.asarray(b, dtype=np.float64), shape) for b in client_betas]

    stacked = np.stack(uploads)
    mu = stacked.mean(axis=0)
    centered = stacked - mu
    centered -= centered.mean(axis=0)  # second pass: exact zero-sum deviations
    var = np.mean(centered * centered, axis=0)
    gamma_g = np.mean(np.stack(gammas), axis=0)
    beta_g = np.mean(np.stack(betas), axis=0)

    scale = gamma_g / np.sqrt(var + eps)
    normalized = scale * centered + beta_g
    return normalized, FedBNState(mu=mu, var=var, gamma=gamma_g, beta=beta_g, eps=eps)


def fed_average(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of same-shape tensors."""
    if len(tensors) == 0:
        raise ValueError("cannot average an empty upload set")
    tensors = [np.asarray(t, dtype=np.float64) for t in tensors]
    _check_same_shape(tensors, "tensors")
    return np.mean(np.stack(tensors), axis=0)
