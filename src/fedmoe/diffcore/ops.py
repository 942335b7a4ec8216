"""Differentiable primitives: affine maps, activations, products, losses.

Each op validates shapes eagerly, computes the forward value with numpy,
and closes over whatever the exact backward pass needs. Gradients returned
by closures are freshly allocated arrays. Ops never write to their inputs,
and several backward closures read the op's own output, so nothing writes
to an op's output either.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from .tensor import ShapeMismatchError, Tensor

__all__ = [
    "affine",
    "sigmoid",
    "softmax",
    "bce",
    "reshape",
    "task_weights",
    "hidden_layer",
    "mix_experts",
]

PROB_CLAMP = 1e-7


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """out[..., k, o] = sum_i x[..., k, i] * w[..., i, o] + b[..., o].

    One map, x (K, d_in), w (d_in, d_out), b (d_out,), or T stacked maps,
    w (T, d_in, d_out), b (T, d_out), over a shared (K, d_in) or a stacked
    (T, K, d_in) x. Each map runs the 2-D gemm of one map alone, so values
    and grads equal those of T separate affines bit for bit.
    """
    lead = w.shape[:-2]  # () for one map, (T,) for stacked maps
    fits = w.ndim in (2, 3) and x.ndim >= 2 and x.shape[:-2] in ((), lead) and x.shape[-1] == w.shape[-2]
    if not fits or b.shape != (*lead, w.shape[-1]):
        raise ShapeMismatchError(f"affine dims disagree: {x.shape} @ {w.shape} + {b.shape}")
    out = np.matmul(x.data, w.data)
    out += b.data[..., None, :]
    return Tensor(out, (x, w, b), partial(_affine_grads, x.data, w.data))


def _affine_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dw, db per map) of ``matmul(x, w) + b``, w stacked over its leading axes.

    A shared x (fewer axes than w) gets one gradient, summed map by map in C order.
    One matmul over all maps and an axis-0 sum give the same bytes, but the
    (maps, K, d_in) stack of products raises a default train pass's peak by
    0.22 MiB, and on ``sync_per_batch`` every one-batch phase then returns its
    heap to the kernel and faults it back in (several times the page faults).
    """
    dw = np.matmul(np.swapaxes(x, -1, -2), g)
    if x.ndim < w.ndim:
        dx = np.zeros(x.shape, g.dtype)
        for index in np.ndindex(w.shape[:-2]):
            dx += g[index] @ w[index].T
    else:
        dx = np.matmul(g, np.swapaxes(w, -1, -2))
    return dx, dw, g.sum(axis=-2)


def sigmoid(x: Tensor) -> Tensor:
    # Stable in both tails: exp() only ever sees non-positive arguments.
    z = x.data
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Shift-invariant softmax over the last axis; rows are simplex vectors."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (x,), backward)


def bce(p: Tensor, y: np.ndarray) -> Tensor:
    """Binary cross-entropy, probabilities clamped to [1e-7, 1-1e-7]: the
    batch mean of one task, or the sum of the batch means of T tasks.

    ``y`` holds constant {0,1} labels, one task's (K,) or T tasks' (T, K),
    read in p's dtype; no gradient flows into it. ``p`` is read in y's
    shape. Each row's mean is the 1-D mean of that row (a C-ordered row
    reduction) and ``cumsum`` adds the rows from row 0 on (``sum`` is
    pairwise from 8 rows), so value and gradient equal those of T one-task
    calls summed in task order, bit for bit.
    """
    y = np.asarray(y, dtype=p.data.dtype)
    if y.ndim not in (1, 2) or p.size != y.size:
        raise ShapeMismatchError(f"bce shapes disagree: {p.shape} vs {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("bce labels must be 0 or 1")
    rows = p.data.reshape(y.shape)
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    pc = np.clip(rows, lo, hi)
    k = float(y.shape[-1])
    terms = np.ascontiguousarray(-y * np.log(pc) - (1.0 - y) * np.log(1.0 - pc))
    loss = np.cumsum(terms.reshape(-1, terms.shape[-1]).mean(axis=1))[-1]
    inside = (rows > lo) & (rows < hi)  # clamp blocks gradient at the rails

    def backward(g):
        dp = (-(y / pc) + (1.0 - y) / (1.0 - pc)) * inside * (float(g) / k)
        return (dp.reshape(p.shape),)

    return Tensor(loss, (p,), backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    orig = x.shape

    def backward(g):
        return (g.reshape(orig),)

    return Tensor(x.data.reshape(shape), (x,), backward)


def task_weights(
    emb: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, w_loc: Tensor, w_s: Tensor
) -> Tensor:
    """Effective weights of one expert layer for every (task, expert) pair, in one node.

    For task t and expert n the template MLP maps the task embedding row to
    a weight block, ``W_t = relu(emb[t] @ w1[n] + b1[n]) @ w2[n] + b2[n]``
    reshaped to (d_in, d_out), and the output is ``w_loc[n] * W_t * w_s[n]``.

    Shapes: emb (T, e); w1 (N, e, e); b1 (N, e); w2 (N, e, d_in*d_out);
    b2 (N, d_in*d_out); w_loc, w_s (N, d_in, d_out). Output (T, N, d_in, d_out).
    Every (t, n) product is its own (1, e) row times a matrix, so each value
    equals that of the per-pair composition of affine, relu, reshape and the
    elementwise product ``w_loc[n] * W_t * w_s[n]`` bit for bit.
    """
    if emb.ndim != 2 or w_loc.ndim != 3 or w_s.shape != w_loc.shape:
        raise ShapeMismatchError(f"task_weights expects emb (T,e) and w_loc = w_s (N,d_in,d_out); got {emb.shape}, {w_loc.shape}, {w_s.shape}")
    (t, e), (n, d_in, d_out) = emb.shape, w_loc.shape
    expected = {"w1": (n, e, e), "b1": (n, e), "w2": (n, e, d_in * d_out), "b2": (n, d_in * d_out)}
    for name, tensor in zip(expected, (w1, b1, w2, b2)):
        if tensor.shape != expected[name]:
            raise ShapeMismatchError(f"task_weights {name} has shape {tensor.shape}, expected {expected[name]}")
    rows = emb.data[:, None, None, :]  # (T, 1, 1, e): one row per (t, n) product
    pre = np.matmul(rows, w1.data[None])  # (T, N, 1, e)
    pre += b1.data[:, None, :]
    hidden = np.maximum(pre, 0.0)  # relu; its mask is hidden > 0
    flat = np.matmul(hidden, w2.data[None])  # (T, N, 1, d_in*d_out)
    flat += b2.data[:, None, :]
    w_t = flat.reshape(t, n, d_in, d_out)
    out = w_loc.data * w_t * w_s.data

    def backward(g):
        dw_loc = (g * w_t * w_s.data).sum(axis=0)
        dw_s = (g * w_loc.data * w_t).sum(axis=0)
        dflat = (g * w_loc.data * w_s.data).reshape(t, n, d_in * d_out).transpose(1, 0, 2)  # (N, T, .)
        h = hidden.reshape(t, n, e).transpose(1, 0, 2)  # (N, T, e)
        dpre = np.matmul(dflat, w2.data.transpose(0, 2, 1)) * (h > 0.0)  # (N, T, e)
        demb = dpre.transpose(1, 0, 2).reshape(t, n * e) @ w1.data.transpose(0, 2, 1).reshape(n * e, e)
        dw1 = np.matmul(emb.data.T, dpre)
        db1 = dpre.sum(axis=1)
        dw2 = np.matmul(h.transpose(0, 2, 1), dflat)
        db2 = dflat.sum(axis=1)
        return demb, dw1, db1, dw2, db2, dw_loc, dw_s

    return Tensor(out, (emb, w1, b1, w2, b2, w_loc, w_s), backward)


def hidden_layer(x: Tensor, w: Tensor, b: Tensor, rate: float, keep: Optional[np.ndarray] = None) -> Tensor:
    """Affine, ReLU and inverted dropout for every path of a hidden layer, in one node.

    Path i, an index (t, n) or (t,) over w's leading axes, computes
    ``max(x[i] @ w[i] + b[i[-1]], 0)`` (x itself if x is shared), zeroed
    where ``keep[i]`` is False and scaled by 1/(1 - rate) where it is True.
    Two kinds of layer are stacked this way:

    - an expert layer: w (T, N, d_in, d_out) as ``task_weights`` builds it
      and b (N, d_out), shared by the tasks; x is the shared (K, d_in) input
      of the first layer or the (T, N, K, d_in) output of the previous one;
    - a tower layer: w (T, d_in, d_out), b (T, d_out) and x (T, K, d_in).

    So ``b.shape == (w.shape[-3], d_out)``, and b's gradient is summed down
    to b's shape. ``keep`` is None (plain ReLU) or a bool mask of the
    output's shape. Each path's product is the same 2-D gemm that ``affine``
    runs, so every value equals that of the per-path composition of affine,
    ReLU and dropout bit for bit. A shared x's gradient adds the paths'
    products one by one, in C order (``_affine_grads``).

    Multiplying by the bool keep mask is exact, so each value is rounded
    once, by the scale. The backward reads its mask from the returned
    output: the scale is finite and above 1, so ``out > 0`` holds exactly
    where the pre-activation is positive and the path is kept (NaN > 0 is
    False), and nothing may write to the output afterwards.
    """
    if w.ndim not in (3, 4) or b.shape != (w.shape[-3], w.shape[-1]):
        raise ShapeMismatchError(f"hidden_layer expects w (T,[N,]d_in,d_out) and b (T or N, d_out); got {w.shape}, {b.shape}")
    if not (x.ndim == 2 or x.shape[:-2] == w.shape[:-2]) or x.shape[-1] != w.shape[-2]:
        raise ShapeMismatchError(f"hidden_layer input {x.shape} does not fit weights {w.shape}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    out = np.matmul(x.data, w.data)
    out += b.data[:, None, :]
    np.maximum(out, 0.0, out=out)
    scale = None
    if keep is not None:
        if keep.shape != out.shape or keep.dtype != np.bool_:
            raise ShapeMismatchError(f"dropout keep mask must be bool of shape {out.shape}, got {keep.dtype} {keep.shape}")
        scale = 1.0 / (1.0 - rate)
        out *= keep
        out *= scale

    def backward(g):
        gm = g * (out > 0.0)
        if scale is not None:
            gm *= scale
        dx, dw, db = _affine_grads(x.data, w.data, gm)
        return dx, dw, (db.sum(axis=0) if db.ndim > b.ndim else db)

    return Tensor(out, (x, w, b), backward)


def mix_experts(gates: Tensor, experts: Tensor) -> Tensor:
    """Convex mix of expert outputs for every task, in one node:
    ``out[t] = sum_n gates[t, :, n] * experts[t, n]``.

    gates: the (T, K, N) simplex rows of every task; experts: the
    (T, N, K, d) output of ``hidden_layer``. Output (T, K, d). One einsum
    over t sums each task's products in the order a mix of that task's
    slice alone does, so values and gradients equal the per-task ones bit
    for bit.
    """
    if experts.ndim != 4 or gates.shape != (experts.shape[0], experts.shape[2], experts.shape[1]):
        raise ShapeMismatchError(f"gates {gates.shape} do not match experts {experts.shape}; expected (T,K,N) and (T,N,K,d)")
    out = np.einsum("tkn,tnkd->tkd", gates.data, experts.data)

    def backward(g):
        dgates = np.einsum("tkd,tnkd->tkn", g, experts.data)
        return dgates, np.swapaxes(gates.data, 1, 2)[..., None] * g[:, None]

    return Tensor(out, (gates, experts), backward)

