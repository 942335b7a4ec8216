import numpy as np
import pytest

from fedmoe.diffcore import Adam, ParameterBuffer
from fedmoe.diffcore.optim import CHUNK


def buffer_of(**values):
    """A ParameterBuffer holding one parameter per keyword, filled with its value."""
    buffer = ParameterBuffer({name: np.shape(value) for name, value in values.items()})
    for name, value in values.items():
        buffer.params[name].data[...] = value
    return buffer


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        buffer = buffer_of(p=[1.0, -2.0])
        p = buffer.params["p"]
        opt = Adam(buffer, lr=0.001)
        p.grad[...] = [0.3, -7.0]
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.001, abs=1e-6)
        assert p.data[1] == pytest.approx(-2.0 + 0.001, abs=1e-6)

    def test_zero_grad_is_noop_on_values(self):
        buffer = buffer_of(p=[5.0, 6.0])
        opt = Adam(buffer)
        for _ in range(3):
            opt.step()
        assert np.array_equal(buffer.params["p"].data, [5.0, 6.0])

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(77)
            buffer = buffer_of(p=[0.5])
            p = buffer.params["p"]
            opt = Adam(buffer, lr=0.01)
            trace = []
            for _ in range(20):
                p.grad[...] = rng.normal(size=1)
                opt.step()
                opt.zero_grad()
                trace.append(p.data.copy())
            return np.concatenate(trace)

        assert np.array_equal(run(), run())

    def test_packed_step_equals_per_parameter_formula(self):
        rng = np.random.default_rng(5)
        shapes = [(3, 4), (7,), (2, CHUNK // 3), (), (5, 2, 2)]  # spans a chunk border
        start = [rng.normal(size=s) for s in shapes]
        buffer = buffer_of(**{f"p{i}": v for i, v in enumerate(start)})
        params = list(buffer.params.values())
        opt = Adam(buffer, lr=0.01)

        ref = [v.copy() for v in start]
        ms = [np.zeros_like(v) for v in ref]
        vs = [np.zeros_like(v) for v in ref]
        b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
            opt.zero_grad()
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for value, m, v, g in zip(ref, ms, vs, grads):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
            for p, value in zip(params, ref):
                assert p.data.tobytes() == value.tobytes()
                assert not p.grad.any()

    def test_parameters_are_views_of_the_buffer_in_order(self):
        buffer = ParameterBuffer({"a": (2,), "s": (), "b": (1, 1)})
        assert list(buffer.params) == ["a", "s", "b"] and buffer.size == 4
        a, s, b = buffer.params.values()
        assert (a.name, a.shape, s.shape, b.shape) == ("a", (2,), (), (1, 1))
        a.data[...], s.data[...], b.data[...] = [1.0, 2.0], 3.0, [[4.0]]
        assert buffer.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        b.grad[...] = 5.0
        assert buffer.grads.tolist() == [0.0, 0.0, 0.0, 5.0]
        buffer.zero_grad()
        assert not b.grad.any()
        assert Adam(buffer).buffer is buffer
