"""Differentiable-tensor core: tape autodiff, batch norm, Adam, grad checking."""

from .batchnorm import BNState, batchnorm
from .gradcheck import grad_check
from .ops import (
    add_n,
    affine,
    bce,
    block_sum_sq_diff,
    dropout,
    elementwise_mul,
    mix_experts,
    relu,
    reshape,
    scale,
    select,
    sigmoid,
    softmax,
    sum_sq_diff,
    task_weights,
)
from .optim import Adam
from .tensor import (
    GraphError,
    Parameter,
    ParameterBuffer,
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
    "ParameterBuffer",
    "ShapeMismatchError",
    "Tensor",
    "add_n",
    "affine",
    "as_f64",
    "batchnorm",
    "bce",
    "block_sum_sq_diff",
    "dropout",
    "elementwise_mul",
    "grad_check",
    "is_grad_enabled",
    "mix_experts",
    "no_grad",
    "relu",
    "reshape",
    "scale",
    "select",
    "sigmoid",
    "softmax",
    "sum_sq_diff",
    "task_weights",
]
