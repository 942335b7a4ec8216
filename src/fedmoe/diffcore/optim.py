"""Adam optimizer with bias correction, applied in place to Parameters."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Parameter, ParameterBuffer

__all__ = ["Adam"]

# Scalars per pass of the flat update. Each step allocates two scratch arrays
# of this length; the optimizer keeps nothing beside its moments.
CHUNK = 16384


class Adam:
    """Standard Adam: m/v moment tracking, bias-corrected step, grads untouched.

    The trainable parameters (``trainable`` is read once, here) must be
    exactly the contents of one ParameterBuffer; loose parameters are packed
    into a new one. The step then runs over the flat buffers with in-place
    ufuncs, in the same per-element order of operations as the textbook
    per-parameter update, so it is bit-identical to it.

    The caller zeroes gradients; a step with all-zero fresh gradients leaves
    parameter values unchanged.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in optimizer")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        trainable = tuple(p for p in self.params if p.trainable)
        packed = trainable[0].buffer if trainable else None
        if packed is None or packed.params != trainable:
            packed = ParameterBuffer(trainable)
        self.buffer = packed
        self._m = np.zeros(packed.size)
        self._v = np.zeros(packed.size)

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        values, grads = self.buffer.values, self.buffer.grads
        scratch = np.empty((2, min(CHUNK, values.size)))
        for lo in range(0, values.size, CHUNK):
            hi = min(lo + CHUNK, values.size)
            g, m, v = grads[lo:hi], self._m[lo:hi], self._v[lo:hi]
            num, den = scratch[0, : hi - lo], scratch[1, : hi - lo]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=num)
            m += num
            v *= self.beta2
            np.multiply(g, g, out=num)
            num *= 1.0 - self.beta2
            v += num
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            values[lo:hi] -= num

    def zero_grad(self) -> None:
        self.buffer.zero_grad()
        for p in self.params:
            if not p.trainable:
                p.zero_grad()
