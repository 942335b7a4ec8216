import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe.diffcore import (
    GraphError,
    Parameter,
    ShapeMismatchError,
    Tensor,
    add_n,
    affine,
    bce,
    dropout,
    elementwise_mul,
    no_grad,
    relu,
    sigmoid,
    softmax,
    sum_sq_diff,
)


class TestAffine:
    def test_identity_weight(self):
        x = Tensor([[1.0, 2.0]])
        w = Parameter(np.eye(2), "w")
        b = Parameter(np.zeros(2), "b")
        out = affine(x, w, b)
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_hand_case(self):
        x = Tensor([[1.0, 1.0]])
        w = Parameter([[2.0, 0.0], [0.0, 3.0]], "w")
        b = Parameter([1.0, 1.0], "b")
        out = affine(x, w, b)
        assert np.array_equal(out.data, [[3.0, 4.0]])

    def test_backward_ones_upstream(self):
        x = Tensor([[1.0, 2.0]])
        w = Parameter(np.eye(2), "w")
        b = Parameter(np.zeros(2), "b")
        out = affine(x, w, b)
        loss = add_n([sum_sq_diff(out, np.zeros((1, 2)))])  # placeholder graph
        # drive the exact all-ones upstream gradient by hand instead
        w.zero_grad()
        b.zero_grad()
        gx, gw, gb = out._backward(np.ones((1, 2)))
        assert np.array_equal(gw, [[1.0, 1.0], [2.0, 2.0]])
        assert np.array_equal(gb, [1.0, 1.0])
        assert np.array_equal(gx, [[1.0, 1.0]])
        assert loss.size == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            affine(Tensor([[1.0, 2.0]]), Parameter(np.eye(3), "w"), Parameter(np.zeros(3), "b"))


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-2.0, 0.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])

    def test_relu_derivative_at_zero_is_zero(self):
        x = Tensor([0.0])
        (g,) = relu(x)._backward(np.ones(1))
        assert g[0] == 0.0

    def test_relu_bytes_match_the_masked_select_on_edge_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 1.5, -2.5])
        assert relu(Tensor(x)).data.tobytes() == np.where(x > 0, x, 0.0).tobytes()

    def test_relu_passes_nan_through(self):
        assert np.isnan(relu(Tensor([np.nan])).data[0])

    def test_sigmoid_symmetry_point(self):
        x = Tensor([0.0])
        out = sigmoid(x)
        assert out.data[0] == 0.5
        (g,) = out._backward(np.ones(1))
        assert g[0] == pytest.approx(0.25, abs=1e-15)

    def test_sigmoid_closed_form(self):
        out = sigmoid(Tensor([math.log(3.0)]))
        assert out.data[0] == pytest.approx(0.75, abs=1e-12)

    def test_sigmoid_extreme_inputs_finite(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.isfinite(out.data).all()


class TestElementwiseMul:
    def test_ones_identity(self):
        out = elementwise_mul(Tensor([2.0, 3.0]), Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [2.0, 3.0])

    def test_three_way(self):
        out = elementwise_mul(Tensor([2.0, 3.0]), Tensor([4.0, 5.0]), Tensor([1.0, 0.0]))
        assert np.array_equal(out.data, [8.0, 0.0])

    def test_backward(self):
        a, b = Tensor([2.0, 3.0]), Tensor([4.0, 5.0])
        da, db = elementwise_mul(a, b)._backward(np.ones(2))
        assert np.array_equal(da, [4.0, 5.0])
        assert np.array_equal(db, [2.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            elementwise_mul(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([7.0, 7.0, 7.0]))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_closed_form(self):
        out = softmax(Tensor([0.0, math.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 2.5, 0.0])
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        assert np.abs(a - b).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_simplex_property(self, values):
        out = softmax(Tensor(values)).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-12


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.0, train=True, rng=np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.9, train=False) is x

    def test_survivor_scaling_mean(self):
        rng = np.random.default_rng(123)
        out = dropout(Tensor(np.ones(10**6)), 0.2, train=True, rng=rng)
        assert 0.995 <= out.data.mean() <= 1.005

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, train=True, rng=np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        a = dropout(Tensor(np.ones(64)), 0.5, train=True, rng=np.random.default_rng(9)).data
        b = dropout(Tensor(np.ones(64)), 0.5, train=True, rng=np.random.default_rng(9)).data
        assert np.array_equal(a, b)


class TestBce:
    def test_half_probability(self):
        loss = bce(Tensor([0.5]), np.array([1.0]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_symmetry(self):
        loss = bce(Tensor([0.5, 0.5]), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_closed_form(self):
        p = Tensor([0.25])
        loss = bce(p, np.array([1.0]))
        (gp,) = loss._backward(np.ones(()))
        assert gp[0] == pytest.approx(-4.0, abs=1e-9)

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            bce(Tensor([0.5]), np.array([0.5]))

    def test_clamp_blocks_infinite_loss(self):
        loss = bce(Tensor([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())


class TestEngine:
    def test_backward_requires_scalar(self):
        with pytest.raises(GraphError):
            Tensor([1.0, 2.0]).backward()

    def test_nonfinite_root_rejected(self):
        with pytest.raises(GraphError):
            Tensor(np.float64("nan")).backward()

    def test_gradient_accumulates_over_shared_use(self):
        a = Parameter([3.0], "a")
        out = add_n([elementwise_mul(a, a)])  # d/da (a*a) = 2a
        out.backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_no_grad_builds_leaf(self):
        a = Parameter([1.0, 2.0], "a")
        with no_grad():
            out = relu(a)
        assert out._parents == ()

    def test_forward_bit_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))

        def run():
            t = affine(Tensor(x), Parameter(w.copy(), "w"), Parameter(np.zeros(2), "b"))
            return relu(t).data

        assert np.array_equal(run(), run())
