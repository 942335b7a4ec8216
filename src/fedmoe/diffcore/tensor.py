"""Reverse-mode autodiff on float64 numpy arrays.

Every differentiable op returns a Tensor that remembers its parent tensors
and a closure mapping the output gradient to parent gradients. backward()
walks the graph in reverse topological order and accumulates into .grad.
There is no implicit broadcasting; each op validates the shapes it accepts.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ParameterBuffer",
    "ShapeMismatchError",
    "GraphError",
    "no_grad",
    "is_grad_enabled",
    "as_f64",
]


class ShapeMismatchError(ValueError):
    """Operand shapes violate an op contract."""


class GraphError(RuntimeError):
    """Invalid graph state: non-scalar backward root, non-finite values."""


_GRAD_ENABLED = [True]


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED[0]


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording, e.g. for evaluation passes."""
    prev = _GRAD_ENABLED[0]
    _GRAD_ENABLED[0] = False
    try:
        yield
    finally:
        _GRAD_ENABLED[0] = prev


def as_f64(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """Node in the computation graph; holds a float64 array and its gradient.

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
        self.data = as_f64(data)
        self.grad: Optional[np.ndarray] = None
        if backward is not None and is_grad_enabled():
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
        """Accumulate gradients of this scalar into every reachable tensor."""
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
    """Trainable leaf tensor with a stable name and a zero-initialized grad."""

    __slots__ = ("name", "trainable", "_buffer")

    def __init__(self, data, name: str, trainable: bool = True):
        super().__init__(data)
        self.name = name
        self.trainable = trainable
        self.grad = np.zeros_like(self.data)
        self._buffer: Optional[weakref.ref] = None

    @property
    def buffer(self) -> Optional["ParameterBuffer"]:
        """The live ParameterBuffer whose views ``data`` and ``grad`` are, else None.

        The reference is weak: the buffer holds its parameters, and a cycle
        would keep a dropped model's buffers alive until the cyclic collector
        runs.
        """
        return self._buffer() if self._buffer is not None else None

    @buffer.setter
    def buffer(self, buffer: Optional["ParameterBuffer"]) -> None:
        self._buffer = weakref.ref(buffer) if buffer is not None else None

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape})"


class ParameterBuffer:
    """One contiguous float64 value buffer and a twin grad buffer behind Parameters.

    Packing copies each parameter's value and grad in, in the given order,
    and rebinds ``.data`` and ``.grad`` to views of the buffers, so whole-set
    updates (the optimizer step, zeroing grads) act on two flat arrays. Code
    must update parameters in place from then on; assigning a new array to
    ``.data`` would detach it.
    """

    __slots__ = ("params", "values", "grads", "__weakref__")

    def __init__(self, params: Sequence[Parameter]):
        self.params = tuple(params)
        if any(p.buffer is not None for p in self.params):
            raise ValueError("a parameter is already packed in another buffer")
        size = sum(p.size for p in self.params)
        self.values = np.empty(size)
        # Zeroed lazily by the allocator: most parameters arrive with zero
        # grads, and their pages are then first touched by a backward pass.
        self.grads = np.zeros(size)
        offset = 0
        for p in self.params:
            end = offset + p.size
            self.values[offset:end] = p.data.reshape(-1)
            if p.grad.any():
                self.grads[offset:end] = p.grad.reshape(-1)
            p.data = self.values[offset:end].reshape(p.shape)
            p.grad = self.grads[offset:end].reshape(p.shape)
            p.buffer = self
            offset = end

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grads.fill(0.0)
