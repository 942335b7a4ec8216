"""Plain per-tensor ops that the tests use as references for the fused ones.

The model builds no graph from these; they live with the tests so the
library's op set holds only what the model runs. ``relu_dropout`` (and
``relu``, the same without a keep mask) is an independent version of the
library's fused layer op's activation that keeps a mask of its own, a
float one with dropout, so comparing the two checks the mask that the
fused op's backward reads from its output.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from fedmoe.diffcore import ShapeMismatchError, Tensor

__all__ = ["add_n", "elementwise_mul", "mix_task", "relu", "relu_dropout", "scale", "select", "sum_sq_diff"]


def add_n(terms: Sequence[Tensor]) -> Tensor:
    """Sum of same-shape tensors (used to combine scalar loss terms)."""
    if not terms:
        raise ValueError("add_n needs at least one term")
    shape = terms[0].shape
    if any(t.shape != shape for t in terms):
        raise ShapeMismatchError("add_n requires equal shapes")
    out = terms[0].data.copy()
    for t in terms[1:]:
        out += t.data

    def backward(g):
        return tuple(g.copy() for _ in terms)

    return Tensor(out, tuple(terms), backward)


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


def relu(x: Tensor) -> Tensor:
    """max(x, 0): ``relu_dropout`` without a keep mask. The derivative at 0
    is 0, and a NaN passes through."""
    return relu_dropout(x, 0.0)


def relu_dropout(x: Tensor, rate: float, keep: Optional[np.ndarray] = None) -> Tensor:
    """max(x, 0) with inverted dropout: zero where ``keep`` is False, survivors
    scaled by 1/(1 - rate); ``keep`` None gives plain ReLU. The mask is a float
    array {0, 1/(1 - rate)}, multiplied into value and gradient."""
    out = np.maximum(x.data, 0.0)
    mask = out > 0.0
    if keep is not None:
        if keep.shape != x.shape:
            raise ShapeMismatchError(f"dropout keep mask must have shape {x.shape}, got {keep.shape}")
        mask = (keep & mask) * (1.0 / (1.0 - rate))
        out = out * mask

    def backward(g):
        return (g * mask,)

    return Tensor(out, (x,), backward)


def scale(x: Tensor, s: float) -> Tensor:
    """x times a constant float."""
    s = float(s)

    def backward(g):
        return (g * s,)

    return Tensor(x.data * s, (x,), backward)


def select(x: Tensor, index) -> Tensor:
    """``x.data[index]`` for an int or a tuple of ints over leading axes; grads scatter back.

    The output shares memory with ``x``; ops never write to their inputs.
    """
    index = index if isinstance(index, tuple) else (index,)
    if len(index) > x.ndim or not all(0 <= i < n for i, n in zip(index, x.shape)):
        raise IndexError(f"index {index} out of range for shape {x.shape}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return Tensor(x.data[index], (x,), backward)
