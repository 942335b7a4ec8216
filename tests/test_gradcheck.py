"""Gradient fidelity of every primitive and the composed model graphs."""

import numpy as np
import pytest

from fedmoe.diffcore import (
    Parameter,
    Tensor,
    affine,
    batchnorm,
    bce,
    BNState,
    grad_check,
    hidden_layer,
    mix_experts,
    reshape,
    sigmoid,
    softmax,
    task_weights,
)
from fedmoe.model import ClientModel, ModelSpec, initial_buffers
from reference_ops import add_n, elementwise_mul, mix_task, relu, relu_dropout, scale, select, sum_sq_diff

TOL = 1e-4


def small_model(dropout=0.0, n_experts=2, seed=11):
    spec = ModelSpec(
        scenario=0, n_scenarios=2, n_tasks=2, n_experts=n_experts,
        d_feat=4, expert_widths=(5, 3), tower_widths=(4,), d_emb=6, dropout=dropout,
    )
    return ClientModel(spec, seed, initial_buffers(spec, seed, [0], np.float64)[0])


class TestPrimitiveGradients:
    def test_affine_relu_bce_chain(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (6, 4))
        w = Parameter(rng.normal(0, 1, (4, 3)), "w")
        b = Parameter(rng.normal(0, 0.2, 3), "b")
        w2 = Parameter(rng.normal(0, 1, (3, 1)), "w2")
        b2 = Parameter(np.zeros(1), "b2")
        y = (rng.random(6) < 0.5).astype(float)

        def f():
            h = relu(affine(Tensor(x), w, b))
            return bce(sigmoid(affine(h, w2, b2)), y)

        assert grad_check(f, [w, b, w2, b2], rng=np.random.default_rng(1)) < TOL

    def test_elementwise_and_softmax_mix(self):
        rng = np.random.default_rng(2)
        a = Parameter(rng.normal(0, 1, (2, 2, 3, 2)), "a")
        b = Parameter(rng.normal(0, 1, (2, 2, 3, 2)), "b")
        c = Parameter(rng.normal(0, 1, (2, 2, 3, 2)), "c")
        gates = Parameter(rng.normal(0, 1, (2, 3, 2)), "gates")  # two tasks' (3, 2) gate logits
        target = rng.normal(0, 1, (2, 3, 2))

        def f():
            prod = elementwise_mul(a, b, c)  # two tasks' two stacked (3, 2) expert outputs
            mixed = mix_experts(softmax(gates), relu(prod))
            return sum_sq_diff(mixed, target)

        assert grad_check(f, [a, b, c, gates], rng=np.random.default_rng(3)) < TOL

    def test_mix_experts_matches_the_per_task_mix_bitwise(self):
        rng = np.random.default_rng(22)
        t, n, k, d = 3, 4, 5, 2
        experts = Parameter(rng.normal(0, 1, (t, n, k, d)), "h")
        gates = Parameter(softmax(Tensor(rng.normal(0, 1, (t, k, n)))).data, "g")
        target = rng.normal(0, 1, (t, k, d))
        mixed = mix_experts(gates, experts)
        sum_sq_diff(mixed, target).backward()

        ref_experts = Parameter(experts.data.copy(), "ref_h")
        ref_gates = Parameter(gates.data.copy(), "ref_g")
        losses = []
        for i in range(t):
            one = mix_task(select(ref_gates, i), select(ref_experts, i))
            assert mixed.data[i].tobytes() == one.data.tobytes()
            losses.append(sum_sq_diff(one, target[i]))
        add_n(losses).backward()
        assert experts.grad.tobytes() == ref_experts.grad.tobytes()
        assert gates.grad.tobytes() == ref_gates.grad.tobytes()

    def test_mix_experts_rejects_mismatched_gates(self):
        experts = Tensor(np.ones((2, 3, 4, 1)))
        with pytest.raises(ValueError):
            mix_experts(Tensor(np.ones((1, 4, 3))), experts)  # one task's gates for two
        with pytest.raises(ValueError):
            mix_experts(Tensor(np.ones((2, 4, 2))), experts)  # two experts' gates for three
        with pytest.raises(ValueError):
            mix_experts(Tensor(np.ones((4, 3))), experts)  # unstacked gates

    def test_embedding_and_reshape(self):
        rng = np.random.default_rng(4)
        table = Parameter(rng.normal(0, 1, (3, 4)), "t")
        block = Parameter(rng.normal(0, 1, (2, 3, 2, 2)), "b")
        target = rng.normal(0, 1, (2, 2))

        def f():
            row = select(table, 1)
            return add_n([
                scale(sum_sq_diff(reshape(row, (2, 2)), target), 0.5),
                sum_sq_diff(select(block, (1, 2)), target),
            ])

        assert grad_check(f, [table, block], rng=np.random.default_rng(5)) < TOL

    def test_batchnorm_train_chain(self):
        rng = np.random.default_rng(6)
        x = rng.normal(1, 2, (8, 3))
        state = BNState.build(Parameter(np.ones(3), "bn.gamma"), Parameter(np.zeros(3), "bn.beta"))
        w = Parameter(rng.normal(0, 1, (3, 1)), "w")
        y = (rng.random(8) < 0.5).astype(float)

        def f():
            h = batchnorm(Tensor(x), state, train=True)
            return bce(sigmoid(affine(h, w, Parameter(np.zeros(1), "b0"))), y)

        assert grad_check(f, [state.gamma, state.beta, w], rng=np.random.default_rng(7)) < TOL


def stacked_template_layer(rng, t=2, n=3, e=4, d_in=3, d_out=2):
    """Random inputs of task_weights, away from relu kinks and unit factors."""
    shapes = {"emb": (t, e), "w1": (n, e, e), "b1": (n, e), "w2": (n, e, d_in * d_out),
              "b2": (n, d_in * d_out), "w_loc": (n, d_in, d_out), "w_s": (n, d_in, d_out)}
    return {name: Parameter(rng.normal(0, 1, shape), name) for name, shape in shapes.items()}


class TestTaskWeights:
    def test_grad_check(self):
        rng = np.random.default_rng(14)
        ps = stacked_template_layer(rng)
        target = rng.normal(0, 1, (2, 3, 3, 2))

        def f():
            return sum_sq_diff(task_weights(*ps.values()), target)

        assert grad_check(f, list(ps.values()), rng=np.random.default_rng(15)) < TOL

    def test_matches_per_pair_composition(self):
        """Values and grads equal the per-(task, expert) graph of affine, relu,
        affine, reshape and a 3-way elementwise_mul on unstacked parameters."""
        rng = np.random.default_rng(16)
        t, n, e, d_in, d_out = 2, 3, 4, 3, 2
        ps = stacked_template_layer(rng, t, n, e, d_in, d_out)
        target = rng.normal(0, 1, (t, n, d_in, d_out))
        out = task_weights(*ps.values())
        sum_sq_diff(out, target).backward()

        emb = Parameter(ps["emb"].data.copy(), "emb")
        per_expert = [
            {name: Parameter(ps[name].data[k].copy(), f"{name}{k}") for name in ("w1", "b1", "w2", "b2", "w_loc", "w_s")}
            for k in range(n)
        ]
        losses = []
        for i in range(t):
            row = reshape(select(emb, i), (1, e))
            for k, q in enumerate(per_expert):
                flat = affine(relu(affine(row, q["w1"], q["b1"])), q["w2"], q["b2"])
                eff = elementwise_mul(q["w_loc"], reshape(flat, (d_in, d_out)), q["w_s"])
                assert np.abs(out.data[i, k] - eff.data).max() <= 1e-12
                losses.append(sum_sq_diff(eff, target[i, k]))
        add_n(losses).backward()

        assert np.abs(ps["emb"].grad - emb.grad).max() <= 1e-12
        for name in ("w1", "b1", "w2", "b2", "w_loc", "w_s"):
            reference = np.stack([q[name].grad for q in per_expert])
            assert np.abs(ps[name].grad - reference).max() <= 1e-12, name

    def test_rejects_mismatched_template_shape(self):
        ps = stacked_template_layer(np.random.default_rng(17))
        ps["b2"] = Parameter(np.zeros((3, 5)), "b2")
        with pytest.raises(ValueError):
            task_weights(*ps.values())


class TestExpertLayer:
    T, N, K, D_IN, D_OUT = 2, 3, 5, 4, 3

    def inputs(self, rng, shared):
        x_shape = (self.K, self.D_IN) if shared else (self.T, self.N, self.K, self.D_IN)
        x = Parameter(rng.normal(0, 1, x_shape), "x")
        w = Parameter(rng.normal(0, 1, (self.T, self.N, self.D_IN, self.D_OUT)), "w")
        b = Parameter(rng.normal(0, 0.5, (self.N, self.D_OUT)), "b")
        return x, w, b

    @pytest.mark.parametrize("shared", [True, False], ids=["shared_x", "stacked_x"])
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_grad_check(self, shared, rate):
        rng = np.random.default_rng(18)
        x, w, b = self.inputs(rng, shared)
        keep = rng.random((self.T, self.N, self.K, self.D_OUT)) >= rate
        target = rng.normal(0, 1, keep.shape)

        def f():
            return sum_sq_diff(hidden_layer(x, w, b, rate, keep), target)

        assert grad_check(f, [x, w, b], max_coords_per_param=16, rng=np.random.default_rng(19)) < TOL

    @pytest.mark.parametrize("shared", [True, False], ids=["shared_x", "stacked_x"])
    def test_no_draw_equals_affine_then_relu(self, shared):
        x, w, b = self.inputs(np.random.default_rng(20), shared)
        out = hidden_layer(x, w, b, 0.5)
        for t in range(self.T):
            for n in range(self.N):
                h = x if shared else select(x, (t, n))
                path = relu(affine(h, select(w, (t, n)), select(b, n)))
                assert out.data[t, n].tobytes() == path.data.tobytes()

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_shared_input_grad_equals_the_sum_of_the_stacked_path_grads(self, rate):
        """A shared x's gradient is the sum of the (T, N, K, d_in) per-path
        gradients over (T, N), to the bit, though no such stack is built."""
        rng = np.random.default_rng(23)
        x, w, b = self.inputs(rng, shared=True)
        keep = rng.random((self.T, self.N, self.K, self.D_OUT)) >= rate
        out = hidden_layer(x, w, b, rate, keep)
        g = rng.normal(0, 1, out.shape)
        dx, _, _ = out._backward(g)
        gm = g * ((out.data > 0.0) / (1.0 - rate))
        reference = np.matmul(gm, np.swapaxes(w.data, -1, -2)).sum(axis=(0, 1))
        assert dx.tobytes() == reference.tobytes()

    def test_rejects_mismatched_input(self):
        x, w, b = self.inputs(np.random.default_rng(21), shared=False)
        with pytest.raises(ValueError):
            hidden_layer(Tensor(x.data[:, :2]), w, b, 0.0)
        with pytest.raises(ValueError):
            hidden_layer(x, w, Parameter(np.zeros((self.N, self.D_OUT + 1)), "b"), 0.0)


class TestTowerLayer:
    """``hidden_layer`` on tower-shaped maps: w (T, d_in, d_out), b (T, d_out), x (T, K, d_in)."""

    T, K, D_IN, D_OUT = 3, 5, 4, 2

    def inputs(self, rng):
        x = Parameter(rng.normal(0, 1, (self.T, self.K, self.D_IN)), "x")
        w = Parameter(rng.normal(0, 1, (self.T, self.D_IN, self.D_OUT)), "w")
        b = Parameter(rng.normal(0, 0.5, (self.T, self.D_OUT)), "b")
        return x, w, b

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_grad_check(self, rate):
        rng = np.random.default_rng(28)
        x, w, b = self.inputs(rng)
        keep = rng.random((self.T, self.K, self.D_OUT)) >= rate
        target = rng.normal(0, 1, keep.shape)

        def f():
            return sum_sq_diff(hidden_layer(x, w, b, rate, keep), target)

        assert grad_check(f, [x, w, b], rng=np.random.default_rng(29)) < TOL

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_matches_affine_then_relu_dropout_per_task_bitwise(self, rate):
        """Values and x, w, b grads equal one affine and relu_dropout per task
        on its slices, with each task's dropout mask."""
        rng = np.random.default_rng(30)
        x, w, b = self.inputs(rng)
        keep = rng.random((self.T, self.K, self.D_OUT)) >= rate
        out = hidden_layer(x, w, b, rate, keep)
        g = rng.normal(0, 1, out.shape)
        dx, dw, db = out._backward(g)
        for t in range(self.T):
            pre = affine(select(x, t), select(w, t), select(b, t))
            one = relu_dropout(pre, rate, keep[t])
            assert out.data[t].tobytes() == one.data.tobytes()
            (gm,) = one._backward(g[t])
            gx, gw, gb = pre._backward(gm)
            assert (dx[t].tobytes(), dw[t].tobytes(), db[t].tobytes()) == (gx.tobytes(), gw.tobytes(), gb.tobytes())

    def test_rejects_mismatched_maps(self):
        x, w, b = self.inputs(np.random.default_rng(31))
        with pytest.raises(ValueError):
            hidden_layer(Tensor(x.data[:2]), w, b, 0.0)  # two tasks' inputs for three maps
        with pytest.raises(ValueError):
            hidden_layer(x, w, Parameter(np.zeros(self.D_OUT), "b"), 0.0)  # one bias for three maps
        with pytest.raises(ValueError):
            hidden_layer(x, w, Parameter(np.zeros((self.T, self.D_OUT)), "b"), 0.0, np.ones((self.T, self.K, 1), dtype=bool))


class TestStackedAffine:
    T, K, D_IN, D_OUT = 3, 5, 4, 2

    def inputs(self, rng, shared):
        x = Parameter(rng.normal(0, 1, (self.K, self.D_IN) if shared else (self.T, self.K, self.D_IN)), "x")
        w = Parameter(rng.normal(0, 1, (self.T, self.D_IN, self.D_OUT)), "w")
        b = Parameter(rng.normal(0, 0.5, (self.T, self.D_OUT)), "b")
        return x, w, b

    @pytest.mark.parametrize("shared", [True, False], ids=["shared_x", "stacked_x"])
    def test_grad_check(self, shared):
        rng = np.random.default_rng(24)
        x, w, b = self.inputs(rng, shared)
        target = rng.normal(0, 1, (self.T, self.K, self.D_OUT))

        def f():
            return sum_sq_diff(relu(affine(x, w, b)), target)

        assert grad_check(f, [x, w, b], rng=np.random.default_rng(25)) < TOL

    @pytest.mark.parametrize("shared", [True, False], ids=["shared_x", "stacked_x"])
    def test_matches_one_affine_per_map_bitwise(self, shared):
        """Values, weight and bias grads equal T one-map affines on the
        slices; a shared x's grad is their x grads summed in task order."""
        rng = np.random.default_rng(26)
        x, w, b = self.inputs(rng, shared)
        out = affine(x, w, b)
        g = rng.normal(0, 1, out.shape)
        dx, dw, db = out._backward(g)
        shared_dx = np.zeros((self.K, self.D_IN))
        for t in range(self.T):
            one = affine(x if shared else select(x, t), select(w, t), select(b, t))
            assert out.data[t].tobytes() == one.data.tobytes()
            gx, gw, gb = one._backward(g[t])
            assert (dw[t].tobytes(), db[t].tobytes()) == (gw.tobytes(), gb.tobytes())
            if shared:
                shared_dx += gx
            else:
                assert dx[t].tobytes() == gx.tobytes()
        if shared:
            assert dx.tobytes() == shared_dx.tobytes()

    def test_rejects_mismatched_maps(self):
        x, w, b = self.inputs(np.random.default_rng(27), shared=False)
        with pytest.raises(ValueError):
            affine(Tensor(x.data[:2]), w, b)  # two tasks' inputs for three maps
        with pytest.raises(ValueError):
            affine(x, w, Parameter(np.zeros(self.D_OUT), "b"))  # one bias for three maps
        with pytest.raises(ValueError):
            affine(x, select(w, 0), select(b, 0))  # a stacked input needs stacked maps


class TestSharedInputGradient:
    """A shared (K, d_in) input's gradient is the running sum
    ``dx += g[i] @ w[i].T`` over the maps i in C order, byte for byte."""

    K, D_IN, D_OUT = 64, 9, 7

    @staticmethod
    def running_sum(x, w, g):
        dx = np.zeros(x.shape)
        for i in np.ndindex(w.shape[:-2]):
            dx += g[i] @ w[i].T
        return dx

    @pytest.mark.parametrize(
        "op, lead",
        [("affine", (3,)), ("hidden_layer", (3,)), ("hidden_layer", (2, 4)), ("hidden_layer", (2, 6))],
        ids=["gates", "tower_maps", "task_expert", "six_experts"],
    )
    def test_equals_the_running_sum(self, op, lead):
        rng = np.random.default_rng(33)
        x = Parameter(rng.normal(0, 1, (self.K, self.D_IN)), "x")
        w = Parameter(rng.normal(0, 1, (*lead, self.D_IN, self.D_OUT)), "w")
        b = Parameter(rng.normal(0, 1, (lead[-1], self.D_OUT)), "b")
        rate = 0.3
        if op == "affine":
            out = affine(x, w, b)
        else:
            out = hidden_layer(x, w, b, rate, rng.random((*lead, self.K, self.D_OUT)) >= rate)
        g = rng.normal(0, 1, out.shape)
        dx, _, _ = out._backward(g)
        if op == "hidden_layer":  # the gradient reaching the affine: kept, active entries, scaled
            g = g * (out.data > 0.0)
            g *= 1.0 / (1.0 - rate)
        assert dx.tobytes() == self.running_sum(x.data, w.data, g).tobytes()


class TestGradCheck:
    def test_perturbs_a_strided_view_in_place(self):
        """A (T, d_in, d_out) weight and a (T, d_out) bias cut from the rows of
        one (T, d_in*d_out + d_out) block, as the model lays out its towers:
        the weight is a strided view, which reshape(-1) would copy."""
        rng = np.random.default_rng(32)
        block, grads = rng.normal(0, 1, (2, 15)), np.zeros((2, 15))
        w = Parameter(block[:, :12].reshape(2, 4, 3), "w", grad=grads[:, :12].reshape(2, 4, 3))
        b = Parameter(block[:, 12:], "b", grad=grads[:, 12:])
        assert not w.data.flags.c_contiguous and np.shares_memory(w.data, block)
        x = rng.normal(0, 1, (2, 5, 4))
        target = rng.normal(0, 1, (2, 5, 3))

        def f():
            return sum_sq_diff(relu(affine(Tensor(x), w, b)), target)

        assert grad_check(f, [w, b], rng=np.random.default_rng(33)) < TOL


class TestComposedGradients:
    def test_expert_layer_composition(self):
        model = small_model()
        parts = model.expert_layers[0]
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (5, 4))
        target = rng.normal(0, 1, (5, 5))
        params = [*parts.values(), model.emb_task]

        def f():
            h = relu(affine(Tensor(x), select(model.effective_weights(0), (0, 1)), select(parts["bias"], 1)))
            return sum_sq_diff(h, target)

        assert grad_check(f, params, rng=np.random.default_rng(9)) < TOL

    def test_full_local_loss_graph(self):
        model = small_model(dropout=0.0)
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, (6, 4))
        y = (rng.random((6, 2)) < 0.5).astype(float)

        def f():
            loss, _ = model.local_loss(x, y)
            return loss

        params = model.parameters()
        assert grad_check(f, params, max_coords_per_param=3, rng=np.random.default_rng(11)) < TOL
