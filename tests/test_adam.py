import numpy as np
import pytest

from fedmoe.diffcore import Adam, Parameter, ParameterBuffer
from fedmoe.diffcore.optim import CHUNK


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        p = Parameter([1.0, -2.0], "p")
        opt = Adam([p], lr=0.001)
        p.grad[...] = [0.3, -7.0]
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.001, abs=1e-6)
        assert p.data[1] == pytest.approx(-2.0 + 0.001, abs=1e-6)

    def test_zero_grad_is_noop_on_values(self):
        p = Parameter(np.array([5.0, 6.0]), "p")
        opt = Adam([p])
        for _ in range(3):
            opt.step()
        assert np.array_equal(p.data, [5.0, 6.0])

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(77)
            p = Parameter([0.5], "p")
            opt = Adam([p], lr=0.01)
            trace = []
            for _ in range(20):
                p.grad[...] = rng.normal(size=1)
                opt.step()
                opt.zero_grad()
                trace.append(p.data.copy())
            return np.concatenate(trace)

        assert np.array_equal(run(), run())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter([1.0], "p"), Parameter([2.0], "p")])

    def test_packed_step_equals_per_parameter_formula(self):
        rng = np.random.default_rng(5)
        shapes = [(3, 4), (7,), (2, CHUNK // 3), (), (5, 2, 2)]  # spans a chunk border
        start = [rng.normal(size=s) for s in shapes]
        params = [Parameter(v.copy(), f"p{i}") for i, v in enumerate(start)]
        opt = Adam(params, lr=0.01)

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

    def test_loose_parameters_are_packed(self):
        a, b = Parameter([1.0, 2.0], "a"), Parameter([[4.0]], "b")
        opt = Adam([a, b])
        assert opt.buffer.params == (a, b)
        assert np.shares_memory(a.data, opt.buffer.values) and np.shares_memory(b.grad, opt.buffer.grads)
        assert opt.buffer.values.tolist() == [1.0, 2.0, 4.0]

    def test_packed_parameters_are_reused_not_copied(self):
        params = [Parameter(np.ones(3), "a"), Parameter(np.zeros((2, 2)), "b")]
        buffer = ParameterBuffer(params)
        assert Adam(params).buffer is buffer
        with pytest.raises(ValueError):
            Adam(params[:1])  # a subset would need a second buffer
