"""Server-side batch normalization over uploaded parameter tensors.

A coordinated key's uploads, C·P rows stacked on axis 0, are a batch: z-score
each coordinate across the rows with their mean and biased variance, then
add that mean back as beta. The z-scores sum to zero, so the mean of the
normalized batch equals beta to rounding error regardless of epsilon, which
is what makes the subsequent parameter average collapse onto it; deviations
are computed with a second centering pass so the identity survives
near-zero variance.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fedbn_normalize"]

EPS = 1e-5  # added to the pooled variance before its square root


def fedbn_normalize(uploads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z-score each coordinate across the M rows of an (M, ...) stack, then add back their mean, beta.

    Returns ``(normalized, beta)``.
    """
    if uploads.shape[0] < 2:
        raise ValueError(f"server batch normalization needs >= 2 uploads, got {uploads.shape[0]}")

    beta = uploads.mean(axis=0)
    centered = uploads - beta
    centered -= centered.mean(axis=0)  # second pass: exact zero-sum deviations
    var = np.mean(centered * centered, axis=0)
    normalized = (1.0 / np.sqrt(var + EPS)) * centered + beta
    return normalized, beta
