"""Differentiable-tensor core: tape autodiff, batch norm, Adam, grad checking."""

from .batchnorm import BNState, batchnorm
from .gradcheck import grad_check
from .ops import (
    affine,
    bce,
    hidden_layer,
    mix_experts,
    reshape,
    sigmoid,
    softmax,
    task_weights,
)
from .optim import Adam
from .tensor import (
    GraphError,
    Parameter,
    ParameterBuffer,
    ShapeMismatchError,
    Tensor,
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
    "affine",
    "batchnorm",
    "bce",
    "grad_check",
    "hidden_layer",
    "mix_experts",
    "no_grad",
    "reshape",
    "sigmoid",
    "softmax",
    "task_weights",
]
