"""Differentiable primitives: affine maps, activations, products, losses.

Each op validates shapes eagerly, computes the forward value with numpy,
and closes over whatever the exact backward pass needs. Gradients returned
by closures are freshly allocated arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import ShapeMismatchError, Tensor

__all__ = [
    "affine",
    "relu",
    "sigmoid",
    "elementwise_mul",
    "softmax",
    "dropout",
    "bce",
    "add_n",
    "scale",
    "reshape",
    "embedding_row",
    "mix_experts",
    "sum_sq_diff",
]

PROB_CLAMP = 1e-7


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """out[k, o] = sum_i x[k, i] * w[i, o] + b[o]."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeMismatchError(
            f"affine expects (K,d_in), (d_in,d_out), (d_out,); got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"affine dims disagree: {x.shape} @ {w.shape} + {b.shape}")
    out = x.data @ w.data + b.data

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return Tensor(out, (x, w, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0  # derivative at 0 defined as 0

    def backward(g):
        return (g * mask,)

    return Tensor(np.where(mask, x.data, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # Stable in both tails: exp() only ever sees non-positive arguments.
    z = x.data
    out = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (x,), backward)


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


def softmax(x: Tensor) -> Tensor:
    """Shift-invariant softmax over the last axis; rows are simplex vectors."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (x,), backward)


def dropout(x: Tensor, rate: float, train: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an explicit rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backward(g):
        return (g * mask,)

    return Tensor(x.data * mask, (x,), backward)


def bce(p: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over the batch, probabilities clamped to [1e-7, 1-1e-7].

    ``y`` is a constant {0,1} label vector; no gradient flows into it.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    flat = p.data.reshape(-1)
    if flat.shape != y.shape:
        raise ShapeMismatchError(f"bce shapes disagree: {p.shape} vs {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("bce labels must be 0 or 1")
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    pc = np.clip(flat, lo, hi)
    k = float(y.size)
    loss = float(np.mean(-y * np.log(pc) - (1.0 - y) * np.log(1.0 - pc)))
    inside = (flat > lo) & (flat < hi)  # clamp blocks gradient at the rails

    def backward(g):
        dp = (-(y / pc) + (1.0 - y) / (1.0 - pc)) * inside * (float(g) / k)
        return (dp.reshape(p.shape),)

    return Tensor(np.float64(loss), (p,), backward)


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


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        return (g * s,)

    return Tensor(x.data * s, (x,), backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    orig = x.shape

    def backward(g):
        return (g.reshape(orig),)

    return Tensor(x.data.reshape(shape), (x,), backward)


def embedding_row(table: Tensor, index: int) -> Tensor:
    """Select row ``index`` of a 2-D table as a (1, d) tensor; grads scatter back."""
    if table.ndim != 2:
        raise ShapeMismatchError(f"embedding_row expects a 2-D table, got {table.shape}")
    if not 0 <= index < table.shape[0]:
        raise IndexError(f"row {index} out of range for table {table.shape}")
    out = table.data[index : index + 1].copy()

    def backward(g):
        gt = np.zeros_like(table.data)
        gt[index] = g[0]
        return (gt,)

    return Tensor(out, (table,), backward)


def mix_experts(gates: Tensor, experts: Sequence[Tensor]) -> Tensor:
    """Convex mix of expert outputs: out = sum_n gates[:, n] * experts[n].

    gates: (K, N) simplex rows; experts: N tensors of shape (K, d).
    """
    n = len(experts)
    if gates.ndim != 2 or gates.shape[1] != n:
        raise ShapeMismatchError(f"gates shape {gates.shape} does not match {n} experts")
    k, d = experts[0].shape
    if any(e.shape != (k, d) for e in experts):
        raise ShapeMismatchError("expert outputs must share one shape")
    if gates.shape[0] != k:
        raise ShapeMismatchError(f"gates batch {gates.shape[0]} != expert batch {k}")
    stacked = np.stack([e.data for e in experts], axis=1)  # (K, N, d)
    out = np.einsum("kn,knd->kd", gates.data, stacked)

    def backward(g):
        dgates = np.einsum("kd,knd->kn", g, stacked)
        dexperts = tuple(gates.data[:, i : i + 1] * g for i in range(n))
        return (dgates, *dexperts)

    return Tensor(out, (gates, *experts), backward)


def sum_sq_diff(p: Tensor, ref: np.ndarray) -> Tensor:
    """Squared L2 distance to a constant reference tensor: sum((p - ref)^2)."""
    ref = np.asarray(ref, dtype=np.float64)
    if ref.shape != p.shape:
        raise ShapeMismatchError(f"sum_sq_diff shapes disagree: {p.shape} vs {ref.shape}")
    diff = p.data - ref

    def backward(g):
        return (2.0 * float(g) * diff,)

    return Tensor(np.float64(np.sum(diff * diff)), (p,), backward)
