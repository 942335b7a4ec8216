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
    no_grad,
    relu,
    relu_dropout,
    sigmoid,
    softmax,
)
from reference_ops import elementwise_mul, sum_sq_diff


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

    def test_relu_backward_bytes_match_the_bool_mask(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.5, np.nan, 3.0])
        g = np.array([1.0, -1.0, -2.0, 3.0, -0.0, 0.0, -4.0, -5.0, 6.0, np.nan])
        (gx,) = relu(Tensor(x))._backward(g)
        assert gx.tobytes() == (g * (x > 0.0)).tobytes()

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

    def test_sigmoid_bytes_match_the_three_exp_expression(self):
        grid = np.random.default_rng(4).normal(0, 10, 1000)
        z = np.concatenate([[0.0, -0.0, 700.0, -700.0, np.nan], grid])
        e = np.exp
        reference = np.where(z >= 0, 1.0 / (1.0 + e(-np.abs(z))), e(-np.abs(z)) / (1.0 + e(-np.abs(z))))
        assert sigmoid(Tensor(z)).data.tobytes() == reference.tobytes()


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


def float_mask_reference(x, g, rate, keep):
    """Forward and backward bytes of dropout through a float mask {0, 1/(1-rate)}."""
    out = np.maximum(x, 0.0)
    mask = (keep & (out > 0.0)) * (1.0 / (1.0 - rate))
    return out * mask, g * mask


class TestDropout:
    """Inverted dropout as ``relu_dropout`` applies it after the ReLU."""

    def test_rate_zero_identity(self):
        x = Tensor([1.0, -2.0, 0.5])
        out = relu_dropout(x, 0.0, np.random.default_rng(0).random(3) >= 0.0)
        assert out.data.tobytes() == relu(x).data.tobytes()

    def test_eval_identity(self):
        x = np.array([1.0, -2.0, 0.0, -0.0, np.nan])
        g = np.array([1.0, -1.0, -1.0, 1.0, 2.0])
        fused, plain = relu_dropout(Tensor(x), 0.9), relu(Tensor(x))
        assert fused.data.tobytes() == plain.data.tobytes()
        assert fused._backward(g)[0].tobytes() == plain._backward(g)[0].tobytes()

    def test_survivor_scaling_mean(self):
        keep = np.random.default_rng(123).random(10**6) >= 0.2
        out = relu_dropout(Tensor(np.ones(10**6)), 0.2, keep)
        assert 0.995 <= out.data.mean() <= 1.005

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            relu_dropout(Tensor([1.0]), 1.0, np.ones(1, dtype=bool))

    def test_deterministic_under_seed(self):
        a = relu_dropout(Tensor(np.ones(64)), 0.5, np.random.default_rng(9).random(64) >= 0.5).data
        b = relu_dropout(Tensor(np.ones(64)), 0.5, np.random.default_rng(9).random(64) >= 0.5).data
        assert np.array_equal(a, b)

    def test_bytes_match_relu_times_dropout_mask(self):
        rate = 0.5
        x = np.array([2.0, 2.0, -1.0, -1.0, 0.0, 0.0, -0.0, -0.0, np.nan])
        keep = np.array([0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9]) >= rate
        g = np.array([-3.0, -3.0, -3.0, 3.0, -3.0, 3.0, -3.0, 3.0, 1.0])
        scaled = keep / (1.0 - rate)
        out = relu_dropout(Tensor(x), rate, keep)
        assert out.data.tobytes() == (np.maximum(x, 0.0) * scaled).tobytes()
        assert out._backward(g)[0].tobytes() == (g * scaled * (x > 0.0)).tobytes()

    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.3, 0.5, 0.7])
    def test_bool_mask_bytes_equal_the_float_mask_reference(self, rate):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([2.5, 1e-300, tiny, 0.0, -0.0, -1.5, np.inf, -np.inf, np.nan, 1e300])
        values = np.concatenate([np.repeat(edges, 2), np.random.default_rng(1).normal(0, 10, 500)])
        keep = np.tile([True, False], values.size // 2)  # each edge value kept and dropped
        g = np.concatenate([np.tile([3.0, -3.0, 0.0, -0.0, np.nan], 4), np.random.default_rng(2).normal(0, 1e3, 500)])
        with np.errstate(invalid="ignore"):  # inf * 0 on the dropped infinities
            out = relu_dropout(Tensor(values), rate, keep)
            ref_out, ref_grad = float_mask_reference(values, g, rate, keep)
            assert out.data.tobytes() == ref_out.tobytes()
            assert out._backward(g)[0].tobytes() == ref_grad.tobytes()

    def test_draw_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            relu_dropout(Tensor(np.ones(4)), 0.5, np.ones(3, dtype=bool))

    def test_keep_mask_must_be_bool(self):
        with pytest.raises(ShapeMismatchError, match="bool"):
            relu_dropout(Tensor(np.ones(4)), 0.5, np.random.default_rng(0).random(4))


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

    def test_backward_drops_consumed_grads(self):
        w = Parameter([[1.0, -2.0], [0.5, 3.0]], "w")
        b = Parameter([0.1, -5.0], "b")
        x = Tensor([[1.0, 2.0]])
        h = affine(x, w, b)  # [2.1, -0.8]
        r = relu(h)
        loss = add_n([sum_sq_diff(r, np.zeros((1, 2)))])
        loss.backward()
        assert loss.grad is None and h.grad is None and r.grad is None
        assert np.allclose(w.grad, [[4.2, 0.0], [8.4, 0.0]]) and np.allclose(b.grad, [4.2, 0.0])
        assert np.allclose(x.grad, [[4.2, 2.1]])  # a constant leaf keeps its gradient too
        assert r._parents == (h,) and r._backward is not None  # the tape itself stays

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
