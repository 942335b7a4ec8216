"""Reverse-mode autodiff on float32 or float64 numpy arrays.

Every differentiable op returns a Tensor that remembers its parent tensors
and a closure mapping the output gradient to parent gradients. backward()
walks the graph in reverse topological order and accumulates into .grad.
Only leaves keep their gradients: an op's output drops its ``.grad`` as soon
as its closure has consumed it, so a backward pass holds the gradients of
the nodes it has not reached yet, not of the whole tape. Leaves are
Parameters and constant inputs, the tensors without a closure. There is no
implicit broadcasting; each op validates the shapes it accepts. Each op
computes in its inputs' dtype, so a graph over float32 parameters and
inputs is float32 throughout, gradients included.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ParameterBuffer",
    "ShapeMismatchError",
    "GraphError",
    "no_grad",
]


class ShapeMismatchError(ValueError):
    """Operand shapes violate an op contract."""


class GraphError(RuntimeError):
    """Invalid graph state: non-scalar backward root, non-finite values."""


_GRAD_ENABLED = [True]
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording, e.g. for evaluation passes."""
    prev = _GRAD_ENABLED[0]
    _GRAD_ENABLED[0] = False
    try:
        yield
    finally:
        _GRAD_ENABLED[0] = prev


class Tensor:
    """Node in the computation graph; holds an array and its gradient.

    A float32 or float64 array is kept as it is; any other data is cast to
    float64.

    ``_backward`` takes the gradient flowing into this node and returns one
    gradient array (or None) per parent, in parent order. Arrays returned by
    a backward closure must be freshly allocated: the engine may keep and
    mutate them during accumulation.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        parents: Sequence["Tensor"] = (),
        backward: Optional[Callable[[np.ndarray], tuple]] = None,
    ):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.grad: Optional[np.ndarray] = None
        if backward is not None and _GRAD_ENABLED[0]:
            self._parents = tuple(parents)
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def require_finite(self, context: str = "") -> "Tensor":
        if not np.isfinite(self.data).all():
            raise GraphError(f"non-finite tensor values{': ' + context if context else ''}")
        return self

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        An op's output (this root included) is left with ``.grad`` None once
        its closure has run; the closures and parents stay, so the tape can
        still be inspected.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() requires a scalar root, got shape {self.shape}")
        self.require_finite("backward root")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            parent_grads = node._backward(node.grad)
            node.grad = None
            for parent, g in zip(node._parents, parent_grads):
                if g is None:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """Trainable leaf tensor with a stable name and a gradient of its shape.

    ``grad`` defaults to zeros; a ParameterBuffer passes a view of its grads.
    """

    __slots__ = ("name",)

    def __init__(self, data, name: str, grad: Optional[np.ndarray] = None):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data) if grad is None else grad

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape})"


class ParameterBuffer:
    """One contiguous value array and a twin grad array, of one dtype, behind named Parameters.

    ``shapes`` maps each parameter's name to its shape, in buffer order.
    ``params`` holds one Parameter per name whose ``data`` and ``grad`` are
    views of its slice of ``values`` and ``grads``, so whole-set updates (the
    optimizer step, zeroing grads) act on two flat arrays. Values start
    uninitialized and grads at zero: the owner fills every value in place,
    and updates them in place from then on, since assigning a new array to
    ``.data`` would detach it. ``dtype`` is both arrays' dtype.
    """

    __slots__ = ("params", "values", "grads")

    def __init__(self, shapes: Mapping[str, Sequence[int]], dtype=np.float64):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.values = np.empty(sum(sizes), dtype)
        # Zeroed lazily by the allocator, so pages are first touched by a backward pass.
        self.grads = np.zeros(sum(sizes), dtype)
        self.params: dict[str, Parameter] = {}
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            end = offset + size
            value, grad = self.values[offset:end].reshape(shape), self.grads[offset:end].reshape(shape)
            self.params[name] = Parameter(value, name, grad=grad)
            offset = end

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grads.fill(0.0)
