"""Adam optimizer with bias correction, applied in place to a ParameterBuffer."""

from __future__ import annotations

import numpy as np

from .tensor import ParameterBuffer

__all__ = ["Adam"]

# Scalars per pass of the flat update. Each step allocates two scratch arrays
# of this length; the optimizer keeps nothing beside its moments.
CHUNK = 16384

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam: m/v moment tracking, bias-corrected step, grads untouched.

    Steps every parameter of one ParameterBuffer; the moments and the
    scratch arrays take the buffer's dtype. The update runs over the
    flat value and grad arrays with in-place ufuncs, in the same per-element
    order of operations as the textbook per-parameter update, so it is
    bit-identical to it.

    The caller zeroes gradients; a step with all-zero fresh gradients leaves
    parameter values unchanged.
    """

    def __init__(self, buffer: ParameterBuffer, lr: float = 1e-3):
        self.buffer = buffer
        self.lr = float(lr)
        self.step_count = 0
        self._m = np.zeros(buffer.size, buffer.values.dtype)
        self._v = np.zeros(buffer.size, buffer.values.dtype)

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        values, grads = self.buffer.values, self.buffer.grads
        scratch = np.empty((2, min(CHUNK, values.size)), values.dtype)
        for lo in range(0, values.size, CHUNK):
            hi = min(lo + CHUNK, values.size)
            g, m, v = grads[lo:hi], self._m[lo:hi], self._v[lo:hi]
            num, den = scratch[0, : hi - lo], scratch[1, : hi - lo]
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=num)
            m += num
            v *= BETA2
            np.multiply(g, g, out=num)
            num *= 1.0 - BETA2
            v += num
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            num /= den
            values[lo:hi] -= num

    def zero_grad(self) -> None:
        self.buffer.zero_grad()
