"""Differentiable-tensor core: tape autodiff, batch norm, Adam, grad checking."""

from .batchnorm import BNState, batchnorm
from .gradcheck import grad_check
from .ops import (
    add_n,
    affine,
    bce,
    dropout,
    elementwise_mul,
    embedding_row,
    mix_experts,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    sum_sq_diff,
)
from .optim import Adam
from .tensor import (
    GraphError,
    Parameter,
    ShapeMismatchError,
    Tensor,
    as_f64,
    is_grad_enabled,
    no_grad,
)

__all__ = [
    "Adam",
    "BNState",
    "GraphError",
    "Parameter",
    "ShapeMismatchError",
    "Tensor",
    "add_n",
    "affine",
    "as_f64",
    "batchnorm",
    "bce",
    "dropout",
    "elementwise_mul",
    "embedding_row",
    "grad_check",
    "is_grad_enabled",
    "mix_experts",
    "no_grad",
    "relu",
    "reshape",
    "scale",
    "sigmoid",
    "softmax",
    "sum_sq_diff",
]
