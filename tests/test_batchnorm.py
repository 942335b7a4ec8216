import numpy as np
import pytest

from fedmoe.diffcore import BNState, Parameter, Tensor, batchnorm, bce, grad_check, sigmoid, affine
from fedmoe.diffcore.batchnorm import EPS
from reference_ops import relu


def make_state(d=1):
    return BNState.build(Parameter(np.ones(d), "bn.gamma"), Parameter(np.zeros(d), "bn.beta"))


class TestForward:
    def test_two_point_symmetry(self):
        state = make_state()
        out = batchnorm(Tensor([[1.0], [3.0]]), state, train=True)
        assert np.allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_constant_batch_collapses_to_beta(self):
        state = make_state()
        state.gamma.data[...] = 4.0
        state.beta.data[...] = -2.5
        out = batchnorm(Tensor([[5.0], [5.0]]), state, train=True)
        assert np.array_equal(out.data, [[-2.5], [-2.5]])

    def test_train_batch_statistics(self):
        state = make_state(d=3)
        rng = np.random.default_rng(0)
        out = batchnorm(Tensor(rng.normal(2.0, 3.0, (64, 3))), state, train=True)
        assert np.abs(out.data.mean(axis=0)).max() < 1e-9
        assert np.allclose(out.data.var(axis=0), 1.0, atol=1e-3)

    def test_train_requires_two_samples(self):
        with pytest.raises(ValueError):
            batchnorm(Tensor([[1.0]]), make_state(), train=True)

    def test_eval_uses_running_stats(self):
        state = make_state()
        state.running_mean[...] = 10.0
        state.running_var[...] = 4.0
        out = batchnorm(Tensor([[12.0]]), state, train=False)
        assert out.data[0, 0] == pytest.approx(2.0 / np.sqrt(4.0 + EPS))

    def test_eval_output_is_a_constant(self):
        """Eval mode only scores: its output has no parents and no backward, even with gradients enabled."""
        state = make_state(d=2)
        x = Parameter(np.ones((3, 2)), "x")
        out = batchnorm(x, state, train=False)
        assert out._parents == () and out._backward is None

    def test_running_stats_updated_in_train_only(self):
        """Only the training loop's ``track`` folds a batch in; ``batchnorm`` writes neither statistic in either mode."""
        state = make_state()
        state.track(np.array([[0.0], [2.0]]))
        assert state.running_mean[0] == pytest.approx(0.1 * 1.0)
        assert state.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)
        before = (state.running_mean.copy(), state.running_var.copy())
        for train in (True, False):
            batchnorm(Tensor([[100.0], [50.0]]), state, train=train)
            assert state.running_mean.tobytes() == before[0].tobytes()
            assert state.running_var.tobytes() == before[1].tobytes()


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 2, (8, 3))
        state = make_state(d=3)
        state.gamma.data[...] = rng.normal(1, 0.3, 3)
        state.beta.data[...] = rng.normal(0, 0.5, 3)
        w = Parameter(rng.normal(0, 1, (3, 1)), "w")
        b = Parameter(np.zeros(1), "b")
        y = (rng.random(8) < 0.5).astype(float)

        def f():
            h = batchnorm(Tensor(x), state, train=True)
            return bce(sigmoid(affine(h, w, b)), y)

        err = grad_check(f, [state.gamma, state.beta, w, b], rng=np.random.default_rng(1))
        assert err < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        # perturb x itself: route it through a Parameter
        rng = np.random.default_rng(3)
        xp = Parameter(rng.normal(0, 1, (6, 2)), "x")
        state = make_state(d=2)

        def f():
            h = relu(batchnorm(xp, state, train=True))
            return bce(sigmoid(affine(h, Parameter(np.full((2, 1), 0.7), "wf"), Parameter(np.zeros(1), "bf"))),
                       np.array([1, 0, 1, 0, 1, 1], dtype=float))

        err = grad_check(f, [xp], rng=np.random.default_rng(2))
        assert err < 1e-4
