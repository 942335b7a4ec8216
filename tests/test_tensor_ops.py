import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedmoe
from fedmoe.diffcore import ops
from fedmoe.diffcore import (
    GraphError,
    Parameter,
    ShapeMismatchError,
    Tensor,
    affine,
    bce,
    hidden_layer,
    no_grad,
    sigmoid,
    softmax,
)
from reference_ops import add_n, elementwise_mul, relu, select, sum_sq_diff


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
    """The library's ReLU is ``hidden_layer`` without a keep mask (``column_layer`` below)."""

    def test_relu_values(self):
        out, _ = column_layer(np.array([-2.0, 0.0, 3.0]), 0.0)
        assert np.array_equal(out.data.reshape(-1), [0.0, 0.0, 3.0])

    def test_relu_derivative_at_zero_is_zero(self):
        out, _ = column_layer(np.array([0.0]), 0.0)
        assert input_grad(out, np.ones(1)).reshape(-1)[0] == 0.0

    def test_relu_bytes_match_the_masked_select_on_edge_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 1.5, -2.5])
        out, pre = column_layer(x, 0.0)
        assert out.data.tobytes() == np.where(pre > 0, pre, 0.0).tobytes()

    def test_relu_passes_nan_through(self):
        out, _ = column_layer(np.array([np.nan]), 0.0)
        assert np.isnan(out.data).all()

    def test_relu_backward_bytes_match_the_bool_mask(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.5, np.nan, 3.0])
        g = np.array([1.0, -1.0, -2.0, 3.0, -0.0, 0.0, -4.0, -5.0, 6.0, np.nan])
        out, pre = column_layer(x, 0.0)
        with np.errstate(invalid="ignore"):  # inf * 0 in the weight's gradient
            gx = input_grad(out, g)
        assert gx.tobytes() == through_unit_map(g * (pre.reshape(-1) > 0.0)).tobytes()

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


UNIT_MAP = np.ones((1, 1, 1))  # one task's 1x1 identity weight


def column_layer(values, rate, keep=None):
    """``hidden_layer`` on one task's (K, 1) column of ``values`` through the
    1x1 identity map with bias -0.0, and its pre-activation, whose bytes are
    those of ``values`` except that a -0.0 turns into 0.0 in the product."""
    x = Tensor(np.reshape(values, (1, -1, 1)))
    b = Tensor(np.full((1, 1), -0.0))
    keep = None if keep is None else np.reshape(keep, x.shape)
    pre = np.matmul(x.data, UNIT_MAP)
    pre += b.data[:, None, :]
    return hidden_layer(x, Tensor(UNIT_MAP), b, rate, keep), pre


def input_grad(layer, g):
    """The layer input's gradient for an upstream gradient of ``g``'s values."""
    return layer._backward(np.reshape(g, layer.shape))[0]


def through_unit_map(gm):
    """The input gradient that a masked gradient ``gm`` gives through the unit map."""
    return np.matmul(np.reshape(gm, (1, -1, 1)), UNIT_MAP)


class TestDropout:
    """Inverted dropout as the fused ``hidden_layer`` applies it after the ReLU."""

    def test_rate_zero_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        out, pre = column_layer(x, 0.0, np.random.default_rng(0).random(3) >= 0.0)
        assert out.data.tobytes() == relu(Tensor(pre)).data.tobytes()

    def test_eval_identity(self):
        x = np.array([1.0, -2.0, 0.0, -0.0, np.nan])
        g = np.array([1.0, -1.0, -1.0, 1.0, 2.0])
        fused, pre = column_layer(x, 0.9)
        plain = relu(Tensor(pre))
        assert fused.data.tobytes() == plain.data.tobytes()
        plain_gx = through_unit_map(plain._backward(g.reshape(plain.shape))[0])
        assert input_grad(fused, g).tobytes() == plain_gx.tobytes()

    def test_survivor_scaling_mean(self):
        keep = np.random.default_rng(123).random(10**6) >= 0.2
        out, _ = column_layer(np.ones(10**6), 0.2, keep)
        assert 0.995 <= out.data.mean() <= 1.005

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            column_layer(np.array([1.0]), 1.0, np.ones(1, dtype=bool))

    def test_deterministic_under_seed(self):
        a, _ = column_layer(np.ones(64), 0.5, np.random.default_rng(9).random(64) >= 0.5)
        b, _ = column_layer(np.ones(64), 0.5, np.random.default_rng(9).random(64) >= 0.5)
        assert np.array_equal(a.data, b.data)

    def test_bytes_match_relu_times_dropout_mask(self):
        rate = 0.5
        x = np.array([2.0, 2.0, -1.0, -1.0, 0.0, 0.0, -0.0, -0.0, np.nan])
        keep = np.array([0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9]) >= rate
        g = np.array([-3.0, -3.0, -3.0, 3.0, -3.0, 3.0, -3.0, 3.0, 1.0])
        scaled = keep / (1.0 - rate)
        out, pre = column_layer(x, rate, keep)
        pre = pre.reshape(-1)
        assert out.data.tobytes() == (np.maximum(pre, 0.0) * scaled).reshape(out.shape).tobytes()
        assert input_grad(out, g).tobytes() == through_unit_map(g * scaled * (pre > 0.0)).tobytes()

    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.3, 0.5, 0.7])
    def test_bool_mask_bytes_equal_the_float_mask_reference(self, rate):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([2.5, 1e-300, tiny, 0.0, -0.0, -1.5, np.inf, -np.inf, np.nan, 1e300])
        values = np.concatenate([np.repeat(edges, 2), np.random.default_rng(1).normal(0, 10, 500)])
        keep = np.tile([True, False], values.size // 2)  # each edge value kept and dropped
        g = np.concatenate([np.tile([3.0, -3.0, 0.0, -0.0, np.nan], 4), np.random.default_rng(2).normal(0, 1e3, 500)])
        with np.errstate(invalid="ignore"):  # inf * 0 on the dropped infinities
            out, pre = column_layer(values, rate, keep)
            ref_out, ref_grad = float_mask_reference(pre.reshape(-1), g, rate, keep)
            assert out.data.tobytes() == ref_out.reshape(out.shape).tobytes()
            assert input_grad(out, g).tobytes() == through_unit_map(ref_grad).tobytes()

    def test_draw_shape_checked(self):
        x, w, b = Tensor(np.ones((1, 4, 1))), Tensor(UNIT_MAP), Tensor(np.zeros((1, 1)))
        with pytest.raises(ShapeMismatchError):
            hidden_layer(x, w, b, 0.5, np.ones((1, 3, 1), dtype=bool))

    def test_keep_mask_must_be_bool(self):
        with pytest.raises(ShapeMismatchError, match="bool"):
            column_layer(np.ones(4), 0.5, np.random.default_rng(0).random(4))


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

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_float32_rails_give_a_finite_loss_and_no_gradient(self, label):
        """In float32 the upper rail 1 - 1e-7 rounds to 1 - 2**-23, still below 1,
        so probabilities of 0, 1 and 1 - 1e-8 (which rounds to 1) score finite
        and pass no gradient."""
        assert np.float32(1.0 - ops.PROB_CLAMP) == 1.0 - 2.0**-23
        p = Parameter(np.array([0.0, 1.0, 1.0 - 1e-8], dtype=np.float32), "p")
        loss = bce(p, np.full(3, label))
        assert loss.data.dtype == np.float32 and np.isfinite(loss.item())
        loss.backward()
        assert p.grad.dtype == np.float32
        assert np.array_equal(p.grad, np.zeros(3))

    @pytest.mark.parametrize("k", [2, 127, 256, 1000])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_stacked_labels_equal_one_call_per_task_bitwise(self, t, k):
        """T tasks' (T, K) labels, given as the transpose of a (K, T) label
        batch, score like one call per task summed by add_n: value and
        gradient byte for byte, clamped rails included."""
        rng = np.random.default_rng(100 * t + k)
        probs = rng.random((t, k))
        rails = np.array([0.0, 1.0, 1e-9, 1.0 - 1e-9])[: probs.size]  # on and past the clamp rails
        probs.reshape(-1)[: rails.size] = rails
        labels = (rng.random((k, t)) < 0.4).astype(float)
        assert t == 1 or not labels.T.flags.c_contiguous
        p = Parameter(probs, "p")
        stacked = bce(p, labels.T)
        stacked.backward()
        ref_p = Parameter(probs.copy(), "ref_p")
        reference = add_n([bce(select(ref_p, i), labels[:, i]) for i in range(t)])
        reference.backward()
        assert stacked.data.tobytes() == reference.data.tobytes()
        assert p.grad.tobytes() == ref_p.grad.tobytes()

    def test_stacked_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            bce(Tensor(np.full((2, 3), 0.5)), np.ones((2, 4)))


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


def called_names(path: Path) -> set[str]:
    """Names that the calls in a Python file call, as ``f(...)`` or ``m.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def test_every_exported_op_is_called_by_the_package():
    """The library holds only ops the package runs; test-only ops live in
    reference_ops. ops.py itself, the __init__ re-exports and the selftest's
    cli.py do not count."""
    package = Path(fedmoe.__file__).parent
    own = Path(ops.__file__).resolve()
    callers = [p for p in package.rglob("*.py") if p.name not in ("__init__.py", "cli.py") and p.resolve() != own]
    called = set().union(*(called_names(p) for p in callers))
    assert set(ops.__all__) - called == set()
