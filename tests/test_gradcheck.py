"""Gradient fidelity of every primitive and the composed model graphs."""

import numpy as np
import pytest

from fedmoe.diffcore import (
    Parameter,
    Tensor,
    add_n,
    affine,
    batchnorm,
    bce,
    BNState,
    block_sum_sq_diff,
    elementwise_mul,
    grad_check,
    mix_experts,
    relu,
    reshape,
    scale,
    select,
    sigmoid,
    softmax,
    sum_sq_diff,
    task_weights,
)
from fedmoe.model import ClientModel, ModelSpec

TOL = 1e-4


def small_model(dropout=0.0, n_experts=2, seed=11):
    spec = ModelSpec(
        scenario=0, n_scenarios=2, n_tasks=2, n_experts=n_experts,
        d_feat=4, expert_widths=(5, 3), tower_widths=(4,), d_emb=6, dropout=dropout,
    )
    return ClientModel(spec, init_seed=seed)


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
        a = Parameter(rng.normal(0, 1, (3, 2)), "a")
        b = Parameter(rng.normal(0, 1, (3, 2)), "b")
        c = Parameter(rng.normal(0, 1, (3, 2)), "c")
        gates = Parameter(rng.normal(0, 1, (3, 2)), "g")
        target = rng.normal(0, 1, (3, 2))

        def f():
            prod = elementwise_mul(a, b, c)
            mixed = mix_experts(softmax(gates), [prod, relu(prod)])
            return sum_sq_diff(mixed, target)

        assert grad_check(f, [a, b, c, gates], rng=np.random.default_rng(3)) < TOL

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

    def test_block_sum_sq_diff(self):
        rng = np.random.default_rng(12)
        stacks = [Parameter(rng.normal(0, 1, (3, 2, 4)), "a"), Parameter(rng.normal(0, 1, (3, 5)), "b")]
        refs = [[rng.normal(0, 1, p.shape[1:]) for _ in range(3)] for p in stacks]

        def f():
            return block_sum_sq_diff(stacks, refs)

        assert grad_check(f, stacks, rng=np.random.default_rng(13)) < TOL
        # same float as adding the unstacked blocks' sum_sq_diff block by block, k-major
        blocks = [sum_sq_diff(Tensor(p.data[k]), refs[j][k]) for k in range(3) for j, p in enumerate(stacks)]
        assert f().item() == add_n(blocks).item()


    def test_batchnorm_train_chain(self):
        rng = np.random.default_rng(6)
        x = rng.normal(1, 2, (8, 3))
        state = BNState.build(3, "bn")
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
        refs = {k: rng.normal(0, 1, p.shape) for k, p in model.scenario_shared().items()}

        def f():
            loss, _ = model.local_loss(x, y, refs=refs, lam=0.5)
            return loss

        params = model.parameters()
        assert grad_check(f, params, max_coords_per_param=3, rng=np.random.default_rng(11)) < TOL
