"""Plain per-tensor ops that the tests use as references for the fused ones.

The model builds no graph from these; they live with the tests so the
library's op set holds only what the model runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from fedmoe.diffcore import ShapeMismatchError, Tensor

__all__ = ["elementwise_mul", "mix_task", "sum_sq_diff"]


def elementwise_mul(a: Tensor, b: Tensor, c: Optional[Tensor] = None) -> Tensor:
    """Hadamard product of two or three same-shape tensors."""
    if a.shape != b.shape or (c is not None and c.shape != a.shape):
        shapes = (a.shape, b.shape) if c is None else (a.shape, b.shape, c.shape)
        raise ShapeMismatchError(f"elementwise_mul requires equal shapes, got {shapes}")
    if c is None:
        def backward2(g):
            return g * b.data, g * a.data

        return Tensor(a.data * b.data, (a, b), backward2)

    def backward3(g):
        return g * b.data * c.data, g * a.data * c.data, g * a.data * b.data

    return Tensor(a.data * b.data * c.data, (a, b, c), backward3)


def sum_sq_diff(p: Tensor, ref: np.ndarray) -> Tensor:
    """Squared L2 distance to a constant reference tensor: sum((p - ref)^2)."""
    ref = np.asarray(ref, dtype=np.float64)
    if ref.shape != p.shape:
        raise ShapeMismatchError(f"sum_sq_diff shapes disagree: {p.shape} vs {ref.shape}")
    diff = p.data - ref

    def backward(g):
        return (2.0 * float(g) * diff,)

    return Tensor(np.float64(np.sum(diff * diff)), (p,), backward)


def mix_task(gates: Tensor, experts: Tensor) -> Tensor:
    """One task's convex mix of expert outputs: out = sum_n gates[:, n] * experts[n].

    gates: (K, N) simplex rows; experts: (N, K, d).
    """
    if gates.ndim != 2 or experts.ndim != 3 or experts.shape[:2] != gates.shape[::-1]:
        raise ShapeMismatchError(f"gates shape {gates.shape} does not match experts {experts.shape}")
    out = np.einsum("kn,nkd->kd", gates.data, experts.data)

    def backward(g):
        dgates = np.einsum("kd,nkd->kn", g, experts.data)
        return dgates, gates.data.T[:, :, None] * g

    return Tensor(out, (gates, experts), backward)
