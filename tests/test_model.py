import gc
import weakref

import numpy as np
import pytest

from fedmoe.data import BatchConfig, RecordSet, SyntheticSpec, generate_synthetic
from fedmoe.diffcore import Adam, Tensor, affine, batchnorm, no_grad, relu, select, task_weights
from fedmoe.model import EXPERT_PARTS, TEMPLATE_PARTS, ClientModel, ModelSpec


def make_model(**kwargs):
    defaults = dict(
        scenario=0, n_scenarios=2, n_tasks=2, n_experts=2,
        d_feat=4, expert_widths=(6, 3), tower_widths=(4,), d_emb=5, dropout=0.0,
    )
    defaults.update(kwargs)
    return ClientModel(ModelSpec(**defaults), init_seed=21)


def task_weight_only(model, layer):
    """The template's task weights alone: the product with unit local and scenario factors."""
    parts = model.expert_layers[layer]
    ones = Tensor(np.ones(parts["w_loc"].shape))
    return task_weights(model.emb_task, *(parts[name] for name in TEMPLATE_PARTS), ones, ones).data


def expert_path(model, h, task, expert):
    """One expert's forward for one task, as the model runs it (dropout off)."""
    for li, parts in enumerate(model.expert_layers):
        w = select(model.effective_weights(li), (task, expert))
        h = relu(affine(h, w, select(parts["bias"], expert)))
    return h


class TestTaskWeightGeneration:
    def test_constant_template_gives_all_ones(self):
        model = make_model()
        parts = model.expert_layers[0]
        parts["tmpl.w2"].data[0] = 0.0
        parts["tmpl.b2"].data[0] = 1.0
        w_t = task_weight_only(model, 0)
        assert np.array_equal(w_t[:, 0], np.ones((2, 4, 6)))
        assert not np.array_equal(w_t[:, 1], np.ones((2, 4, 6)))

    def test_distinct_tasks_give_distinct_weights(self):
        model = make_model()
        w_t = task_weight_only(model, 0)
        assert not np.array_equal(w_t[0, 0], w_t[1, 0])

    def test_shape_matches_layer(self):
        model = make_model()
        for li, (d_in, d_out) in enumerate([(4, 6), (6, 3)]):
            assert model.effective_weights(li).shape == (2, 2, d_in, d_out)


class TestExpertForward:
    def test_product_identity_matches_plain_mlp(self):
        model = make_model()
        for parts in model.expert_layers:
            parts["tmpl.w2"].data[0] = 0.0
            parts["tmpl.b2"].data[0] = 1.0  # W_t == 1
            parts["w_s"].data[0] = 1.0  # W_s == 1
        x = np.random.default_rng(0).normal(0, 1, (7, 4))
        out = expert_path(model, Tensor(x), task=0, expert=0)
        h = x
        for parts in model.expert_layers:
            h = np.maximum(h @ parts["w_loc"].data[0] + parts["bias"].data[0], 0.0)
        assert np.array_equal(out.data, h)

    def test_zero_scenario_weight_collapses_to_bias(self):
        model = make_model(expert_widths=(6,))
        parts = model.expert_layers[0]
        parts["w_s"].data[0] = 0.0
        parts["bias"].data[0] = np.linspace(-1, 1, 6)
        x = np.random.default_rng(1).normal(0, 1, (5, 4))
        out = expert_path(model, Tensor(x), task=0, expert=0)
        expected = np.tile(np.maximum(parts["bias"].data[0], 0.0), (5, 1))
        assert np.array_equal(out.data, expected)


class TestClientForward:
    def test_single_expert_degenerate_gate(self):
        model = make_model(n_experts=1)
        x = np.random.default_rng(2).normal(0, 1, (6, 4))
        preds = model.forward(x)
        # recompute the same pipeline piecewise; train-mode BN output is a pure
        # function of the batch, so state updates do not disturb equality
        xhat = batchnorm(Tensor(x), model.bn_in, train=True)
        h = expert_path(model, xhat, task=0, expert=0)
        expected = model.towers[0].forward(h, True, 0.0, model.rng)
        assert np.array_equal(preds[0].data, expected.data)

    def test_cloned_experts_ignore_gate_weights(self):
        model = make_model(n_experts=3)
        for parts in model.expert_layers:
            for p in parts.values():
                p.data[1:] = p.data[0]
        x = np.random.default_rng(3).normal(0, 1, (5, 4))
        with no_grad():
            before = [p.data.copy() for p in model.forward(x)]
            model.gates[0][0].data[...] = np.random.default_rng(4).normal(0, 3, (4, 3))
            model.gates[1][1].data[...] = 7.0
            after = [p.data.copy() for p in model.forward(x)]
        for a, b in zip(before, after):
            assert np.allclose(a, b, atol=1e-12)

    def test_outputs_are_probabilities(self):
        model = make_model()
        x = np.random.default_rng(5).normal(0, 3, (1000, 4))
        with no_grad():
            preds = model.forward(x)
        for p in preds:
            assert ((p.data > 0.0) & (p.data < 1.0)).all()

    def test_gate_outputs_are_simplex_rows(self):
        model = make_model(n_experts=4)
        from fedmoe.diffcore import affine, softmax

        x = np.random.default_rng(6).normal(0, 1, (32, 4))
        with no_grad():
            xhat = batchnorm(Tensor(x), model.bn_in, train=True)
            for w, b in model.gates:
                g = softmax(affine(xhat, w, b)).data
                assert (g >= 0).all()
                assert np.abs(g.sum(axis=1) - 1.0).max() < 1e-9


class TestParameterPartition:
    def test_key_map_is_exact_disjoint_cover(self):
        model = make_model()
        key_map = model.key_map()
        saved = model.buffer.values.copy()
        model.buffer.values[...] = 0.0
        for p in key_map.values():
            p.data[...] += 1.0  # every scalar of the buffer is counted exactly once
        assert np.array_equal(model.buffer.values, np.ones(model.buffer.size))
        model.buffer.values[...] = saved
        kinds = {k.kind for k in key_map}
        assert kinds == {"expert_scenario", "tower", "expert_local", "local"}
        assert len(key_map) == 2 * 2 * len(EXPERT_PARTS) + 2 * 2 * 2 + 3 + 2 * 2

    def test_parameters_and_keys_are_views_of_the_buffers(self):
        model = make_model()
        buffer = model.buffer
        assert sum(p.size for p in model.parameters()) == buffer.size
        for p in [*model.parameters(), *model.key_map().values()]:
            assert np.shares_memory(p.data, buffer.values)
            assert np.shares_memory(p.grad, buffer.grads)
        assert model.key_map() is model.key_map()

    def test_dropped_model_frees_its_buffer_without_the_cycle_collector(self):
        gc.disable()
        try:
            model = make_model()
            opt = Adam(model.parameters())
            buffer = weakref.ref(model.buffer)
            del model, opt
            assert buffer() is None
        finally:
            gc.enable()

    def test_scenario_set_size(self):
        model = make_model(n_experts=3, expert_widths=(6, 3))
        assert len(model.scenario_shared()) == 3 * 2

    def test_tower_set_covers_all_tower_params(self):
        model = make_model(tower_widths=(4, 2))
        per_task = 3 * 2  # two hidden + output head, times (w, b)
        assert len(model.tower_shared()) == per_task * 2


class TestLocalLoss:
    def test_lambda_zero_is_pure_bce(self):
        model = make_model()
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (8, 4))
        y = (rng.random((8, 2)) < 0.5).astype(float)
        loss, per_task = model.local_loss(x, y, lam=0.0)
        assert loss.item() == pytest.approx(sum(per_task), rel=1e-12)

    def test_matching_refs_zero_regularizer(self):
        model = make_model()
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (8, 4))
        y = (rng.random((8, 2)) < 0.5).astype(float)
        refs = {k: p.data.copy() for k, p in model.scenario_shared().items()}
        with_reg, _ = model.local_loss(x, y, refs=refs, lam=0.5)
        without, _ = model.local_loss(x, y, lam=0.0)
        assert with_reg.item() == pytest.approx(without.item(), rel=1e-12)

    def test_scalar_reference_case(self):
        model = make_model(n_experts=1, d_feat=1, expert_widths=(1,), tower_widths=(2,), n_tasks=1)
        (key, w_s), = model.scenario_shared().items()
        w_s.data[...] = 0.0
        refs = {key: np.full((1, 1), 2.0)}
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (6, 1))
        y = (rng.random((6, 1)) < 0.5).astype(float)
        base, _ = model.local_loss(x, y, lam=0.0)
        reg, _ = model.local_loss(x, y, refs=refs, lam=0.5)
        assert reg.item() - base.item() == pytest.approx(2.0, abs=1e-12)

    def test_regularizer_zero_iff_equal(self):
        model = make_model()
        refs = {k: p.data.copy() for k, p in model.scenario_shared().items()}
        key = next(iter(refs))
        refs[key] = refs[key] + 1e-3
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, (6, 4))
        y = (rng.random((6, 2)) < 0.5).astype(float)
        base, _ = model.local_loss(x, y, lam=0.0)
        reg, _ = model.local_loss(x, y, refs=refs, lam=0.5)
        assert reg.item() > base.item()

    def test_regularizer_gradient_descends(self):
        model = make_model()
        rng = np.random.default_rng(11)
        refs = {k: rng.normal(0, 1, p.shape) for k, p in model.scenario_shared().items()}

        def sq_total():
            return sum(float(((p.data - refs[k]) ** 2).sum()) for k, p in model.scenario_shared().items())

        from fedmoe.diffcore import add_n, sum_sq_diff

        before = sq_total()
        model.zero_grad()
        reg = add_n([sum_sq_diff(p, refs[k]) for k, p in model.scenario_shared().items()])
        reg.backward()
        for p in model.scenario_shared().values():
            p.data -= 0.01 * p.grad
        assert sq_total() < before


class TestTrainEpoch:
    def shard(self, seed=12):
        return generate_synthetic(
            SyntheticSpec(n_scenarios=2, n_tasks=2, d_feat=4, samples_per_scenario=300, seed=seed)
        )[0]

    def test_loss_decreases_majority_of_seeds(self):
        wins = 0
        for seed in range(5):
            model = ClientModel(
                ModelSpec(scenario=0, n_scenarios=2, n_tasks=2, n_experts=2,
                          d_feat=4, expert_widths=(6, 3), tower_widths=(4,), dropout=0.0),
                init_seed=seed,
            )
            records = self.shard(seed).train
            opt = Adam(model.parameters(), lr=1e-3)
            cfg = BatchConfig(32, shuffle=True, seed=seed)
            first = model.train_epoch(records, cfg, opt, lam=0.0)
            for _ in range(3):
                last = model.train_epoch(records, cfg, opt, lam=0.0)
            wins += last.mean_loss < first.mean_loss
        assert wins >= 3

    def test_zero_learning_rate_is_identity(self):
        model = make_model()
        records = self.shard().train
        opt = Adam(model.parameters(), lr=0.0)
        before = {n: p.data.copy() for n, p in model.registry().items()}
        model.train_epoch(records, BatchConfig(32, seed=0), opt, lam=0.5)
        for n, p in model.registry().items():
            assert np.array_equal(before[n], p.data)

    def test_same_seed_identical_loss(self):
        def run():
            model = make_model(dropout=0.2)
            opt = Adam(model.parameters(), lr=1e-3)
            stats = model.train_epoch(self.shard().train, BatchConfig(32, seed=5), opt, lam=0.5)
            return stats.mean_loss

        assert run() == run()

    def test_empty_shard_rejected(self):
        model = make_model()
        records = RecordSet(np.zeros((0, 4)), np.zeros((0, 2)))
        with pytest.raises(Exception):
            model.train_epoch(records, BatchConfig(32), Adam(model.parameters()))


class TestInitialization:
    def test_clients_share_blueprint_except_scenario_weights(self):
        a = ClientModel(ModelSpec(scenario=0, n_scenarios=3, n_tasks=2, n_experts=2,
                                  d_feat=4, expert_widths=(6,), tower_widths=(4,)), init_seed=9)
        b = ClientModel(ModelSpec(scenario=1, n_scenarios=3, n_tasks=2, n_experts=2,
                                  d_feat=4, expert_widths=(6,), tower_widths=(4,)), init_seed=9)
        for key, p in a.key_map().items():
            same = np.array_equal(p.data, b.key_map()[key].data)
            assert same != (key.kind == "expert_scenario")

    def test_scenario_weights_differ_across_experts(self):
        model = make_model(n_experts=2, expert_widths=(6,))
        w_s = model.expert_layers[0]["w_s"].data
        assert not np.array_equal(w_s[0], w_s[1])
