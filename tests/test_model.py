import copy
import dataclasses
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fedmoe import data as data_mod
from fedmoe import model as model_mod
from fedmoe.config import ExperimentConfig
from fedmoe.data import DataError, RecordSet, ScenarioShard, SyntheticSpec, synthesize
from fedmoe.diffcore import Adam, Tensor, affine, batchnorm, bce, no_grad, reshape, sigmoid, softmax, task_weights
from fedmoe.federation import client as client_mod
from fedmoe.federation.client import ClientSim
from fedmoe.federation.server import COORDINATED, STRATEGY_IDS, FederationServer, resolve_strategy
from fedmoe.harness import run_experiment
from fedmoe.model import EXPERT_PARTS, TEMPLATE_PARTS, ClientModel, ModelSpec, SharedKey, initial_buffers
from reference_ops import mix_task, relu, select


def make_model(**kwargs):
    defaults = dict(
        scenario=0, n_scenarios=2, n_tasks=2, n_experts=2,
        d_feat=4, expert_widths=(6, 3), tower_widths=(4,), d_emb=5, dropout=0.0,
    )
    defaults.update(kwargs)
    spec = ModelSpec(**defaults)
    return ClientModel(spec, 21, initial_buffers(spec, 21, [spec.scenario], np.float64)[0])


def of_kind(model, kind):
    """The model's keys of one kind, as its key map filters them."""
    return {k: p for k, p in model.key_map().items() if k.kind == kind}


# Each buffer name's kind under the naming rule, for every expert layer l and task t.
KIND_OF_NAME = {
    "emb.task": "local",
    "bn_in.gamma": "local",
    "bn_in.beta": "local",
    "experts.l{l}.w_loc": "expert_local",
    "experts.l{l}.w_s": "expert_scenario",
    "experts.l{l}.bias": "expert_local",
    "experts.l{l}.tmpl.w1": "expert_local",
    "experts.l{l}.tmpl.b1": "expert_local",
    "experts.l{l}.tmpl.w2": "expert_local",
    "experts.l{l}.tmpl.b2": "expert_local",
    "gates.w": "local",
    "gates.b": "local",
    "towers.t{t}": "tower",
}


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


def gate_probs(model, xhat, task):
    """One task's softmax gate rows, from that task's slice of the stacked gate."""
    return softmax(affine(xhat, select(model.gate["w"], task), select(model.gate["b"], task)))


def tower_path(model, h, task):
    """One task's tower on its slices of the stacked layers (dropout off):
    ReLU hidden layers, then the sigmoid head, as (K,) probabilities."""
    *hidden, head = model.tower_layers
    for layer in hidden:
        h = relu(affine(h, select(layer["w"], task), select(layer["b"], task)))
    out = sigmoid(affine(h, select(head["w"], task), select(head["b"], task)))
    return reshape(out, (out.shape[0],))


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
        # function of the batch
        xhat = batchnorm(Tensor(x), model.bn_in, train=True)
        h = expert_path(model, xhat, task=0, expert=0)
        expected = tower_path(model, h, task=0)
        assert preds.shape == (2, 6)
        assert np.array_equal(preds.data[0], expected.data)

    def test_forward_matches_the_per_path_reference(self):
        model = make_model(n_experts=3, n_tasks=3, tower_widths=(4, 2))
        x = np.random.default_rng(13).normal(0, 1, (9, 4))
        preds = model.forward(x)
        xhat = batchnorm(Tensor(x), model.bn_in, train=True)
        for t in range(3):
            paths = [expert_path(model, xhat, t, k).data for k in range(3)]
            mixed = mix_task(gate_probs(model, xhat, t), Tensor(np.stack(paths)))
            assert preds.data[t].tobytes() == tower_path(model, mixed, t).data.tobytes()

    def test_dropout_forward_matches_a_reference_drawing_layer_by_layer(self):
        """A reference draws each expert layer's (T, N, K, d) uniforms, then each
        tower hidden layer's (T, K, d), and runs every path on its slice of them."""
        model = make_model(n_experts=3, expert_widths=(6, 5, 3), tower_widths=(4, 2), dropout=0.3)
        x = np.random.default_rng(14).normal(0, 1, (7, 4))
        rng = copy.deepcopy(model.rng)
        preds = model.forward(x)
        expert_keeps = [(rng.random((2, 3, 7, d)) >= 0.3) / (1.0 - 0.3) for d in (6, 5, 3)]
        tower_keeps = [(rng.random((2, 7, d)) >= 0.3) / (1.0 - 0.3) for d in (4, 2)]

        def drop(h, w, b, keep):
            return np.maximum(h @ w + b, 0.0) * keep

        with no_grad():
            xhat = batchnorm(Tensor(x), model.bn_in, train=True).data
        weights = [model.effective_weights(li).data for li in range(3)]
        *hidden, head = model.tower_layers
        for t in range(2):
            paths = []
            for k in range(3):
                h = xhat
                for w, parts, keep in zip(weights, model.expert_layers, expert_keeps):
                    h = drop(h, w[t, k], parts["bias"].data[k], keep[t, k])
                paths.append(h)
            h = mix_task(gate_probs(model, Tensor(xhat), t), Tensor(np.stack(paths))).data
            for layer, keep in zip(hidden, tower_keeps):
                h = drop(h, layer["w"].data[t], layer["b"].data[t], keep[t])
            expected = sigmoid(affine(Tensor(h), select(head["w"], t), select(head["b"], t))).data.reshape(-1)
            assert preds.data[t].tobytes() == expected.tobytes()
        assert rng.bit_generator.state == model.rng.bit_generator.state

    @pytest.mark.parametrize(
        "expert_widths, tower_widths", [((5,), (4, 2)), ((6, 5, 3), (4,)), ((6, 3), ())], ids=["one_layer", "three_layers", "no_tower"]
    )
    def test_dropout_keeps_match_one_draw_per_layer(self, expert_widths, tower_widths):
        """Each expert layer's (T, N, K, d) masks, then each tower hidden layer's
        (T, K, d), are consecutive stretches of the model's uniform stream."""
        model = make_model(n_experts=3, expert_widths=expert_widths, tower_widths=tower_widths, dropout=0.3)
        k = 7
        rng = copy.deepcopy(model.rng)
        expert_keeps, tower_keeps = model._dropout_keeps(k, 0.3)
        shapes = [(2, 3, k, d) for d in expert_widths] + [(2, k, d) for d in tower_widths]
        stream = rng.random(sum(math.prod(shape) for shape in shapes)) >= 0.3
        start = 0
        for keep, shape in zip([*expert_keeps, *tower_keeps], shapes, strict=True):
            end = start + math.prod(shape)
            assert keep.dtype == bool and keep.shape == shape
            assert keep.tobytes() == stream[start:end].reshape(shape).tobytes()
            start = end
        assert rng.bit_generator.state == model.rng.bit_generator.state

    def test_cloned_experts_ignore_gate_weights(self):
        model = make_model(n_experts=3)
        for parts in model.expert_layers:
            for p in parts.values():
                p.data[1:] = p.data[0]
        x = np.random.default_rng(3).normal(0, 1, (5, 4))
        with no_grad():
            before = model.forward(x).data.copy()
            model.gate["w"].data[0] = np.random.default_rng(4).normal(0, 3, (4, 3))
            model.gate["b"].data[1] = 7.0
            after = model.forward(x).data.copy()
        assert np.allclose(before, after, atol=1e-12)

    def test_outputs_are_probabilities(self):
        model = make_model()
        x = np.random.default_rng(5).normal(0, 3, (1000, 4))
        with no_grad():
            preds = model.forward(x)
        assert preds.shape == (2, 1000)
        assert ((preds.data > 0.0) & (preds.data < 1.0)).all()

    def test_gate_outputs_are_simplex_rows(self):
        model = make_model(n_experts=4)
        x = np.random.default_rng(6).normal(0, 1, (32, 4))
        with no_grad():
            xhat = batchnorm(Tensor(x), model.bn_in, train=True)
            g = softmax(affine(xhat, model.gate["w"], model.gate["b"])).data
            assert g.shape == (2, 32, 4)
            assert (g >= 0).all()
            assert np.abs(g.sum(axis=2) - 1.0).max() < 1e-9
            for t in range(2):
                assert g[t].tobytes() == gate_probs(model, xhat, t).data.tobytes()


def tape_nodes(root):
    """Every node of the tape that ends at ``root``, leaves included."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def closure_arrays(fn):
    """The arrays that a function's closure cells hold, in tuples and lists too."""
    arrays, stack = [], [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return arrays


class TestTapeMemory:
    def default_step(self):
        """One default-config train step on a 256-row batch."""
        cfg = ExperimentConfig()
        model = ClientModel(cfg.model_spec(0), init_seed=1)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (cfg.batch_size, cfg.d_feat))
        y = (rng.random((cfg.batch_size, cfg.tasks)) < 0.5).astype(float)

        def step():
            loss, _ = model.local_loss(x, y)
            loss.backward()
            return loss

        return model, step

    def test_only_leaves_keep_their_grads(self):
        model, step = self.default_step()
        nodes = tape_nodes(step())
        ops = [node for node in nodes if node._backward is not None]
        leaves = [node for node in nodes if node._backward is None]
        assert ops and all(node.grad is None for node in ops)
        assert all(node.grad is not None for node in leaves)  # the batch's input tensor too
        assert {id(p) for p in model.parameters()} <= {id(leaf) for leaf in leaves}
        assert all(p.grad.any() for p in model.parameters())

    def test_hidden_layer_backward_holds_no_mask(self):
        """A train-mode hidden_layer node's backward closure holds no array
        but its inputs' data and its own output: it reads the ReLU and
        dropout mask from the output instead of saving one."""
        model, step = self.default_step()
        assert model.spec.dropout > 0.0
        layers = [node for node in tape_nodes(step())
                  if getattr(node._backward, "__qualname__", None) == "hidden_layer.<locals>.backward"]
        assert len(layers) == len(model.spec.expert_widths) + len(model.spec.tower_widths)
        for node in layers:
            held = closure_arrays(node._backward)
            allowed = {id(node.data)} | {id(parent.data) for parent in node._parents}
            assert all(id(array) in allowed for array in held)
            assert any(array is node.data for array in held)

    def test_default_train_step_runs_14_ops(self):
        """One node per op for all tasks: batch norm, per expert layer a
        task_weights and a hidden_layer node, the gates' affine and softmax,
        the mix, a hidden_layer node per hidden tower layer, the head's
        affine, sigmoid and reshape, and one BCE over every task."""
        model, step = self.default_step()
        nodes = tape_nodes(step())
        ops = [node for node in nodes if node._backward is not None]
        assert len(ops) == 1 + 2 * 2 + 2 + 1 + 2 + 3 + 1 == 14
        assert len(nodes) - len(ops) == len(model.parameters()) + 1 == 26  # leaves: parameters and the batch

    def test_default_train_pass_peaks_under_three_mb(self):
        """Bool dropout masks, one mix node and dropped op gradients keep a
        default-config train pass under 3 MiB at its peak."""
        model, step = self.default_step()
        step()  # the first pass touches the grad buffer's pages
        model.zero_grad()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 3.0 * 2**20

    def test_default_train_step_stays_float32(self):
        """A default-built model trains in float32 throughout: every tape
        node's value, every gradient a backward closure returns, the input
        batch norm's running statistics and Adam's moments. An upcast
        anywhere keeps every value test green and costs only time."""
        model, _ = self.default_step()
        assert model.spec.dropout > 0.0
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (256, model.spec.d_feat))
        y = (rng.random((256, model.spec.n_tasks)) < 0.5).astype(float)
        loss, _ = model.local_loss(x, y)
        nodes, returned = tape_nodes(loss), []

        def recording(backward):
            def wrapped(g):
                grads = backward(g)
                returned.extend(grad for grad in grads if grad is not None)
                return grads

            return wrapped

        for node in nodes:
            if node._backward is not None:
                node._backward = recording(node._backward)
        loss.backward()
        float32 = np.dtype(np.float32)
        assert {node.data.dtype for node in nodes} == {float32}
        assert len(returned) >= len(model.parameters())
        assert {grad.dtype for grad in returned} == {float32}
        model.bn_in.track(x)
        assert model.bn_in.running_mean.dtype == model.bn_in.running_var.dtype == float32
        optimizer = Adam(model.buffer)
        optimizer.step()
        assert optimizer._m.dtype == optimizer._v.dtype == model.buffer.values.dtype == float32


class TestTrainingLoss:
    """Training steps and the held-out psi pass minimize the multi-task BCE alone,
    before and after an aggregate, under every strategy."""

    @pytest.fixture(params=STRATEGY_IDS)
    def strategy(self, request):
        return request.param

    @pytest.fixture
    def calls(self, strategy, tmp_path, monkeypatch):
        """Per local_loss call of a two-round default-model run: the aggregates
        before it, its tape's op count, its loss bytes and the bytes of bce(probs, y.T)."""
        records, aggregated = [], []
        local_loss, aggregate = ClientModel.local_loss, FederationServer.aggregate

        def loss_spy(model, x, y, *args, **kwargs):
            loss, probs = local_loss(model, x, y, *args, **kwargs)
            with no_grad():
                reference = bce(probs, np.asarray(y, dtype=np.float64).T)
            n_ops = sum(node._backward is not None for node in tape_nodes(loss))
            records.append((len(aggregated), n_ops, loss.data.tobytes(), reference.data.tobytes()))
            return loss, probs

        def aggregate_spy(server, uploads, round_index):
            aggregated.append(round_index)
            return aggregate(server, uploads, round_index)

        monkeypatch.setattr(ClientModel, "local_loss", loss_spy)
        monkeypatch.setattr(FederationServer, "aggregate", aggregate_spy)
        run_experiment(ExperimentConfig(
            strategy=strategy, rounds=2, samples_per_scenario=300, batch_size=64, out_dir=str(tmp_path / "run"),
        ))
        return records

    def test_a_step_after_an_aggregate_records_the_round_one_tape(self, strategy, calls):
        """Round 1's steps, round 2's steps and, where a key is coordinated,
        round 2's psi passes each run the default model's 14 ops (see
        TestTapeMemory), nothing added once scenario weights were aggregated.
        local runs no server, so all its steps come before any aggregate."""
        ops = {}
        for after, n_ops, _, _ in calls:
            ops.setdefault(after, set()).add(n_ops)
        plan = resolve_strategy(strategy)
        coordinated = COORDINATED in dict(plan.modes).values()
        assert sorted(ops) == ([0, 1, 2] if coordinated else [0, 1] if plan.uses_server else [0])
        assert all(n_ops == {14} for n_ops in ops.values())

    def test_loss_bytes_are_the_bce_of_the_probabilities(self, calls):
        assert calls
        assert all(loss == reference for _, _, loss, reference in calls)


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
        assert len(key_map) == 2 * len(EXPERT_PARTS) + model.spec.n_tasks + 5

    def test_layer_keys_are_the_stacked_parameters_and_tower_keys_task_rows(self):
        model = make_model()
        key_map = model.key_map()
        stacked = [*(layer[part] for layer in model.expert_layers for part in EXPERT_PARTS), *model.gate.values()]
        stacked += [model.emb_task, model.bn_in.gamma, model.bn_in.beta]
        keyed_whole = [p for k, p in key_map.items() if k.kind != "tower"]
        assert len(keyed_whole) == len(stacked) and all(any(p is q for q in stacked) for p in keyed_whole)
        assert all(p is model.buffer.params[k.name] for k, p in key_map.items() if k.kind != "tower")
        towers = model.buffer.params["towers"]
        rows = of_kind(model, "tower")
        assert list(rows) == [SharedKey(f"towers.t{t}") for t in range(model.spec.n_tasks)]
        for t, p in enumerate(rows.values()):
            assert p.shape == (1, towers.shape[1])
            assert np.shares_memory(p.data, towers.data[t]) and np.shares_memory(p.grad, towers.grad[t])

    @pytest.mark.parametrize("tower_widths", [(4,), (4, 2), ()], ids=["one_hidden", "two_hidden", "head_only"])
    def test_tower_key_is_its_task_row_of_the_towers_block(self, tower_widths):
        """A task's upload is its layers' (w, b), head last, concatenated; the
        parts the forward reads are strided views of the same rows."""
        model = make_model(n_tasks=3, tower_widths=tower_widths)
        towers = model.buffer.params["towers"]
        upload = {k: p.data.copy() for k, p in of_kind(model, "tower").items()}
        for t, row in enumerate(upload.values()):
            parts = [layer[part].data[t].reshape(-1) for layer in model.tower_layers for part in ("w", "b")]
            assert row.tobytes() == np.concatenate(parts).tobytes() == towers.data[t].tobytes()
        for layer in model.tower_layers:
            for part in ("w", "b"):
                assert np.shares_memory(layer[part].data, towers.data)
                assert np.shares_memory(layer[part].grad, towers.grad)
        assert model.tower_layers[-1]["w"].shape == (3, (*model.spec.expert_widths, *tower_widths)[-1], 1)

    @pytest.mark.parametrize(
        "shape",
        [{}, {"tower_widths": ()}, {"n_experts": 1, "expert_widths": (32, 16, 8)}],
        ids=["default", "head_only", "one_expert_three_layers"],
    )
    def test_each_buffer_name_has_the_kind_of_the_naming_rule(self, shape):
        """Every buffer parameter but the towers block is one key of its own name, and each task one row key.

        The shapes vary the default config's model.
        """
        model = ClientModel(dataclasses.replace(ExperimentConfig().model_spec(0), **shape), 21)
        n_layers, n_tasks = len(model.spec.expert_widths), model.spec.n_tasks
        expected = {name.format(l=l, t=t): kind for name, kind in KIND_OF_NAME.items()
                    for l in range(n_layers) for t in range(n_tasks)}
        key_map = model.key_map()
        assert {k.name: k.kind for k in key_map} == expected
        params = model.buffer.params
        whole = [p for k, p in key_map.items() if k.kind != "tower"]
        assert sorted(p.name for p in whole) == sorted(name for name in params if name != "towers")
        assert all(p is params[p.name] for p in whole)
        rows = of_kind(model, "tower")
        assert [p.name for p in rows.values()] == [f"towers.t{t}" for t in range(n_tasks)]
        assert all(p.shape == (1, params["towers"].shape[1]) for p in rows.values())
        assert sum(p.size for p in key_map.values()) == model.buffer.size

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
            opt = Adam(model.buffer)
            values = weakref.ref(model.buffer.values)  # every parameter and key is a view of it
            del model, opt
            assert values() is None
        finally:
            gc.enable()

    def test_construction_fills_every_scalar_of_the_buffer(self, monkeypatch):
        reference = make_model(n_tasks=3)
        real_empty = np.empty

        def nan_filled(*args, **kwargs):
            out = real_empty(*args, **kwargs)
            out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nan_filled)  # a scalar nothing writes stays NaN
        model = make_model(n_tasks=3)
        monkeypatch.undo()
        assert np.isfinite(model.buffer.values).all()
        assert model.buffer.values.tobytes() == reference.buffer.values.tobytes()

    def test_scenario_set_size(self):
        model = make_model(n_experts=3, expert_widths=(6, 3))
        shapes = [p.shape for p in of_kind(model, "expert_scenario").values()]
        assert shapes == [(3, 4, 6), (3, 6, 3)]  # one key per layer: its whole expert stack

    def test_tower_set_covers_all_tower_params(self):
        model = make_model(tower_widths=(4, 2))
        rows = of_kind(model, "tower")
        assert len(rows) == model.spec.n_tasks  # one key per task: its whole tower
        per_task = (3 * 4 + 4) + (4 * 2 + 2) + (2 * 1 + 1)  # two hidden layers and the head, w and b
        assert all(p.shape == (1, per_task) for p in rows.values())
        assert sum(p.size for layer in model.tower_layers for p in layer.values()) == per_task * len(rows)


class TestLocalLoss:
    @pytest.mark.parametrize(
        "shape",
        [
            {},
            dict(n_tasks=1, n_experts=1, d_feat=1, expert_widths=(1,), tower_widths=(2,)),
            dict(n_tasks=3, tower_widths=()),
        ],
        ids=["default", "one_task_one_expert", "three_tasks_no_tower"],
    )
    def test_loss_is_pure_bce(self, shape):
        model = make_model(**shape)
        n_tasks, d_feat = model.spec.n_tasks, model.spec.d_feat
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (8, d_feat))
        y = (rng.random((8, n_tasks)) < 0.5).astype(float)
        loss, probs = model.local_loss(x, y)
        assert probs.shape == (n_tasks, 8)
        per_task = [bce(Tensor(probs.data[t]), y[:, t]).item() for t in range(n_tasks)]
        assert loss.item() == pytest.approx(sum(per_task), rel=1e-12)

    @pytest.mark.parametrize("use_dropout", [True, False], ids=["dropout", "no_dropout"])
    def test_train_loss_leaves_the_running_statistics(self, use_dropout):
        """A train-mode forward reads batch statistics and writes none: only the training loop tracks them."""
        model = make_model(dropout=0.2)
        model.bn_in.running_mean[...] = np.linspace(-1.0, 1.0, 4)
        model.bn_in.running_var[...] = np.linspace(0.5, 2.0, 4)
        before = (model.bn_in.running_mean.tobytes(), model.bn_in.running_var.tobytes())
        rng = np.random.default_rng(8)
        x = rng.normal(3.0, 2.0, (8, 4))
        y = (rng.random((8, 2)) < 0.5).astype(float)
        loss, _ = model.local_loss(x, y, use_dropout=use_dropout)
        loss.backward()
        assert (model.bn_in.running_mean.tobytes(), model.bn_in.running_var.tobytes()) == before


class TestTrainEpoch:
    """Local training, as ClientSim.local_phase runs it."""

    def shard(self, seed=12):
        return synthesize(
            SyntheticSpec(n_scenarios=2, n_tasks=2, d_feat=4, samples_per_scenario=300, seed=seed)
        )[0][0]

    def client(self, model=None, seed=12, lr=1e-3):
        return ClientSim(model or make_model(), self.shard(seed), lr=lr, batch_size=32, seed=seed)

    def test_loss_decreases_majority_of_seeds(self):
        wins = 0
        for seed in range(5):
            model = ClientModel(
                ModelSpec(scenario=0, n_scenarios=2, n_tasks=2, n_experts=2,
                          d_feat=4, expert_widths=(6, 3), tower_widths=(4,), dropout=0.0),
                init_seed=seed,
            )
            client = self.client(model, seed=seed)
            first = client.local_phase(1)
            for r in range(2, 5):
                last = client.local_phase(r)
            wins += last < first
        assert wins >= 3

    def test_zero_learning_rate_is_identity(self):
        client = self.client(lr=0.0)
        before = {n: p.data.copy() for n, p in client.model.buffer.params.items()}
        client.local_phase(1)
        for n, p in client.model.buffer.params.items():
            assert np.array_equal(before[n], p.data)

    def test_same_seed_identical_loss(self):
        def run():
            return self.client(make_model(dropout=0.2)).local_phase(1)

        assert run() == run()

    @pytest.mark.parametrize("epochs, max_batches", [(1, 1), (2, None), (2, 3)])
    def test_one_adam_step_per_batch(self, epochs, max_batches):
        client = self.client()
        n = len(client.shard.train)
        assert n % client.batch_size != 1  # no trailing singleton batch to drop
        per_epoch = -(-n // client.batch_size)
        client.local_phase(1, epochs=epochs, max_batches=max_batches)
        assert client.optimizer.step_count == epochs * min(per_epoch, max_batches or per_epoch)

    def test_running_statistics_are_the_average_of_the_training_batches(self):
        """``local_phase`` folds every batch it trains on, and no other, into the input batch norm's
        running statistics: an exponential moving average replayed from ``batch_iter``'s batches."""
        client = self.client(make_model(dropout=0.2))
        epochs, max_batches = 2, 3
        client.local_phase(4, epochs=epochs, max_batches=max_batches)
        mean, var = np.zeros(4), np.ones(4)
        for epoch in range(epochs):
            seed = client_mod._mix(client.seed, client.index, 4, epoch)
            batches = data_mod.batch_iter(client.shard.train, client.batch_size, seed)
            for bx, _ in itertools.islice(batches, max_batches):
                mean *= 0.9
                mean += 0.1 * bx.mean(axis=0)
                var *= 0.9
                var += 0.1 * bx.var(axis=0)
        assert client.model.bn_in.running_mean.tobytes() == mean.tobytes()
        assert client.model.bn_in.running_var.tobytes() == var.tobytes()

    def test_single_record_train_partition_rejected(self):
        shard = self.shard()
        one = RecordSet(shard.train.features[:1], shard.train.labels[:1])
        small = ScenarioShard(scenario=0, train=one, val=shard.val, test=shard.test)
        with pytest.raises(DataError, match="train partition"):
            ClientSim(make_model(), small)

    def test_empty_shard_rejected(self):
        full = RecordSet(np.zeros((4, 4)), np.zeros((4, 2)))
        empty = RecordSet(np.zeros((0, 4)), np.zeros((0, 2)))
        with pytest.raises(DataError, match="nonempty"):
            ScenarioShard(scenario=0, train=empty, val=full, test=full)


class TestInitialization:
    def test_clients_share_blueprint_except_scenario_weights(self):
        a = ClientModel(ModelSpec(scenario=0, n_scenarios=3, n_tasks=2, n_experts=2,
                                  d_feat=4, expert_widths=(6,), tower_widths=(4,)), init_seed=9)
        b = ClientModel(ModelSpec(scenario=1, n_scenarios=3, n_tasks=2, n_experts=2,
                                  d_feat=4, expert_widths=(6,), tower_widths=(4,)), init_seed=9)
        for key, p in a.key_map().items():
            same = np.array_equal(p.data, b.key_map()[key].data)
            assert same != (key.kind == "expert_scenario")

    def test_gates_then_towers_draw_task_by_task(self, monkeypatch):
        """The stacked gates and towers hold the draws of the per-task ones:
        every task's gate in turn, then each task's tower layers, head last."""
        states = []
        init_expert_layers = model_mod._init_expert_layers

        def capture(spec, layers, rng):
            init_expert_layers(spec, layers, rng)
            states.append(copy.deepcopy(rng))  # the gates draw next

        monkeypatch.setattr(model_mod, "_init_expert_layers", capture)
        model = make_model(n_tasks=3, tower_widths=(4, 2))
        (rng,) = states
        for t in range(3):
            assert model.gate["w"].data[t].tobytes() == rng.normal(0.0, 0.1, (4, 2)).tobytes()
        dims = [3, 4, 2, 1]
        for t in range(3):
            for li, layer in enumerate(model.tower_layers):
                std = 1.0 / np.sqrt(dims[li]) if li == 2 else np.sqrt(2.0 / dims[li])
                assert layer["w"].data[t].tobytes() == rng.normal(0.0, std, dims[li : li + 2]).tobytes()
        assert not any(layer["b"].data.any() for layer in (model.gate, *model.tower_layers))

    @pytest.mark.parametrize(
        "widths, message",
        [({"expert_widths": (0,)}, "expert_widths"), ({"expert_widths": (6, -2)}, "expert_widths"),
         ({"tower_widths": (-1,)}, "tower_widths"), ({"tower_widths": (4, 0)}, "tower_widths")],
        ids=["expert_zero", "expert_negative", "tower_negative", "tower_zero"],
    )
    def test_layer_width_below_one_is_rejected_by_field(self, widths, message):
        with pytest.raises(ValueError, match=rf"^{message}: .*>= 1, got \("):
            ModelSpec(scenario=0, n_scenarios=2, n_tasks=2, n_experts=2, d_feat=4, **widths)

    def test_no_scenarios_or_out_of_range_rejected(self):
        spec = ModelSpec(scenario=0, n_scenarios=3, n_tasks=2, n_experts=2, d_feat=4)
        for scenarios in ([], [3], [0, -1]):
            with pytest.raises(ValueError, match="empty or out of range"):
                model_mod.initial_buffers(spec, 9, scenarios)

    def test_scenario_weights_differ_across_experts(self):
        model = make_model(n_experts=2, expert_widths=(6,))
        w_s = model.expert_layers[0]["w_s"].data
        assert not np.array_equal(w_s[0], w_s[1])
