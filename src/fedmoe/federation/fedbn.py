"""Server-side batch normalization over uploaded parameter tensors.

A coordinated key's uploads, C·P rows stacked on axis 0, are a batch:
normalize each row with the pooled mean and biased variance, then shift by
the clients' averaged beta. The mean of the normalized batch equals that beta to
rounding error regardless of epsilon, which is what makes the subsequent
parameter average collapse onto it; deviations are computed with a second
centering pass so the identity survives near-zero variance.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fedbn_normalize"]

EPS = 1e-5  # added to the pooled variance before its square root


def fedbn_normalize(uploads: np.ndarray, client_betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize an (M, ...) stack of uploads; returns the normalized stack and the averaged beta.

    ``client_betas`` stacks one beta per client on axis 0, each of an
    upload's shape (M may be a multiple of the client count when several
    experts upload per client).
    """
    if uploads.shape[0] < 2:
        raise ValueError(f"server batch normalization needs >= 2 uploads, got {uploads.shape[0]}")

    centered = uploads - uploads.mean(axis=0)
    centered -= centered.mean(axis=0)  # second pass: exact zero-sum deviations
    var = np.mean(centered * centered, axis=0)
    beta = client_betas.mean(axis=0)
    normalized = (1.0 / np.sqrt(var + EPS)) * centered + beta
    return normalized, beta
