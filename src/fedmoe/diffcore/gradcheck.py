"""Finite-difference verification of analytic gradients.

Central differences with step 1e-5 on float64 values; the error metric is
max over sampled coordinates of |analytic - numeric| / max(1, |numeric|).
The probed function must be deterministic (dropout off or frozen).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Parameter, Tensor

__all__ = ["grad_check"]

STEP = 1e-5  # the central-difference step


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    rng: Optional[np.random.Generator] = None,
    max_coords_per_param: int = 8,
) -> float:
    """Return the worst relative error between analytic and numeric gradients.

    ``f`` rebuilds the scalar-valued graph from the current parameter data on
    every call. Each coordinate is perturbed in place, so a Parameter may be
    any view, strided or not, of the array the graph reads.
    """
    rng = rng if rng is not None else np.random.default_rng(0)

    out = f()
    out.backward()
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, a in zip(params, analytic):
        n = p.data.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for i in coords:
            # An index, not a reshape: reshaping a strided view copies it.
            at = np.unravel_index(i, p.shape)
            orig = p.data[at]
            p.data[at] = orig + STEP
            f_plus = f().item()
            p.data[at] = orig - STEP
            f_minus = f().item()
            p.data[at] = orig
            numeric = (f_plus - f_minus) / (2.0 * STEP)
            err = abs(a[at] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
