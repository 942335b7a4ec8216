import re

import numpy as np
import pytest

from fedmoe.config import ExperimentConfig
from fedmoe.data import SyntheticSpec, synthesize
from fedmoe.federation import server as server_mod
from fedmoe.federation.coordination import solve_conflict_weights
from fedmoe.federation.fedbn import fedbn_normalize
from fedmoe.federation.client import ClientSim
from fedmoe.federation.server import STRATEGIES, FederationServer, ServerDirective, resolve_strategy, upload_keys
from fedmoe.federation.snapshot import read_snapshot, write_snapshot
from fedmoe.harness import build_clients, run_experiment
from fedmoe.model import ClientModel, SharedKey, initial_buffers

# Every kind a key can have, as a default model's key map produces them.
MODEL_KINDS = {k.kind for k in ClientModel(ExperimentConfig().model_spec(0), init_seed=0).key_map()}


def key(name="experts.l0.w_s"):
    return SharedKey(name)


def of_kind(model, kind):
    """The model's keys of one kind, as its key map filters them."""
    return {k: p for k, p in model.key_map().items() if k.kind == kind}


def along(updates):
    """Increment pairs with a zero mean increment: the psi step reads only each coordinated update."""
    return {k: (np.zeros_like(u), u) for k, u in updates.items()}


def held_out_grads(client):
    """Every key's gradient of the held-out loss, from the dropout-free forward and backward the psi step runs.

    Leaves the model's grads zero.
    """
    model = client.model
    x, y = client.held_out
    model.zero_grad()
    loss, _ = model.local_loss(x, y, use_dropout=False)
    loss.backward()
    grads = {k: p.grad.copy() for k, p in model.key_map().items()}
    model.zero_grad()
    return grads


def replay_psi_step(values, eta, grads, updates):
    """The per-slot scalar psi rule: each (key, row) slot a Python float, stepped one by one."""
    for k, update in updates.items():
        for row, grad in enumerate(grads[k]):
            dot = float(np.sum(grad * update))
            values[k, row] = float(np.clip(values.get((k, row), 0.0) - eta * dot, -2.0, 2.0))


def shards(s=2, seed=0, n=300, d=4, t=2):
    return synthesize(SyntheticSpec(n_scenarios=s, n_tasks=t, d_feat=d, samples_per_scenario=n, seed=seed))[0]


def make_clients(s=2, n_experts=2, seed=0, dropout=0.0, widths=(6, 3)):
    config = ExperimentConfig(
        scenarios=s, tasks=2, experts=n_experts, d_feat=4, expert_widths=widths,
        tower_widths=(4,), dropout=dropout, samples_per_scenario=300,
        batch_size=32, seed=seed,
    )
    return build_clients(config, shards(s=s, seed=seed)), config


def same_uploads(values, clients=(0, 1)):
    """Every client uploads its own copy of the same tensors: zero spread, so normalization returns them unchanged."""
    return {j: {k: np.array(v, dtype=float) for k, v in values.items()} for j in clients}


@pytest.fixture
def solve_rows(monkeypatch):
    """Row counts of every coordination solve the server module runs."""
    rows = []
    solve = server_mod.solve_conflict_weights

    def spy(deltas, mean_delta, c):
        rows.append(deltas.shape[0])
        return solve(deltas, mean_delta, c)

    monkeypatch.setattr(server_mod, "solve_conflict_weights", spy)
    return rows


class TestComputeDeltas:
    """Round-over-round increments, as FederationServer.aggregate takes them per key.

    A coordinated upload's leading axis is its rows; each key's increments
    and update have one row's shape.
    """

    def test_round_one_signals_skip(self):
        server = FederationServer(resolve_strategy("main"))
        directive = server.aggregate(same_uploads({key(): np.ones((1, 2))}), 1)
        assert directive.increments == {}
        assert np.array_equal(directive.means[key()], np.ones(2))

    def test_identical_rounds_give_zero(self):
        server = FederationServer(resolve_strategy("main"))
        uploads = {0: {key(): np.ones((1, 3))}, 1: {key(): np.full((1, 3), 2.0)}}
        server.aggregate(uploads, 1)
        directive = server.aggregate(uploads, 2)
        mean_increment, update = directive.increments[key()]
        assert np.array_equal(mean_increment, np.zeros(3))
        assert np.array_equal(update, np.zeros(3))
        assert f"set/{key().name}" not in server.last_snapshot_entries

    def test_single_pair_delta(self, solve_rows):
        server = FederationServer(resolve_strategy("main"))
        server.aggregate(same_uploads({key(): np.array([[1.0]])}), 1)
        directive = server.aggregate(same_uploads({key(): np.array([[3.0]])}), 2)
        assert directive.increments[key()][0][0] == 2.0
        assert solve_rows == [2]  # one row per client

    def test_group_mean_pools_expert_layer(self, solve_rows):
        server = FederationServer(resolve_strategy("main"))
        server.aggregate(same_uploads({key(): np.zeros((2, 2))}), 1)
        directive = server.aggregate(same_uploads({key(): np.array([[1.0, 1.0], [3.0, 3.0]])}), 2)
        assert set(directive.increments) == {key()}
        assert np.allclose(directive.increments[key()][0], np.full(2, 2.0), atol=1e-12)
        assert solve_rows == [4]  # one solve over both clients' rows of both experts

    def test_directive_holds_one_entry_per_pool(self):
        clients, config = make_clients(s=2)
        plan = resolve_strategy("main")
        keys = upload_keys(plan, clients[0].model)
        server = FederationServer(plan, c=config.c)
        uploads = {c.index: c.build_upload(keys) for c in clients}
        server.aggregate(uploads, 1)
        directive = server.aggregate(uploads, 2)
        model = clients[0].model
        assert sum(k.kind == "expert_scenario" for k in keys) == len(model.expert_layers)
        assert set(directive.increments) == set(directive.means) == set(keys)
        for k in keys:  # one row's shape
            mean_increment, update = directive.increments[k]
            assert mean_increment.shape == update.shape == directive.means[k].shape == model.key_map()[k].shape[1:]

    def test_missing_history_is_an_error(self):
        server = FederationServer(resolve_strategy("main"))
        server.aggregate(same_uploads({key(): np.zeros((1, 2))}), 1)
        with pytest.raises(ValueError, match="changed"):
            server.aggregate(same_uploads({key(): np.zeros((1, 2))}, clients=(0, 1, 2)), 2)

    def test_key_without_history_is_an_error(self):
        server = FederationServer(resolve_strategy("main"))
        server.aggregate(same_uploads({key(): np.zeros((1, 2))}), 1)
        with pytest.raises(ValueError, match=r"experts\.l1\.w_s has no round 1 rows.*changed"):
            server.aggregate(same_uploads({key("experts.l1.w_s"): np.zeros((1, 2))}), 2)


def two_rounds(n_experts=2):
    """A main server's round-2 directive for two clients that train one batch a round, and each round's normalized rows."""
    clients, config = make_clients(s=2, n_experts=n_experts)
    plan = resolve_strategy("main")
    keys = upload_keys(plan, clients[0].model)
    server = FederationServer(plan, c=config.c)
    normalized = []
    for r in (1, 2):
        for c in clients:
            c.begin_round(keys)
            c.local_phase(r, max_batches=1)
        directive = server.aggregate({c.index: c.build_upload(keys) for c in clients}, r)
        normalized.append(server.prev_normalized)
        for c in clients:
            c.apply_directive(directive)
    return directive, normalized, config


def tower_tensor_sizes(config):
    """The sizes of one task's tower tensors in its row: each layer's w then b, the head last."""
    dims = [config.expert_widths[-1], *config.tower_widths, 1]
    return [size for d_in, d_out in zip(dims[:-1], dims[1:]) for size in (d_in * d_out, d_out)]


class TestPoolCoordination:
    """One solve per coordinated key: an expert layer's scenario weights, or a task's whole tower."""

    def test_coordinated_keys_are_one_per_expert_layer_and_task(self):
        clients, _ = make_clients(s=2)
        model = clients[0].model
        keys = upload_keys(resolve_strategy("main"), model)
        expected = [SharedKey(f"experts.l{li}.w_s") for li in range(len(model.expert_layers))]
        expected += [SharedKey(f"towers.t{t}") for t in range(model.spec.n_tasks)]
        assert keys == sorted(expected)

    def test_each_round_solves_one_pool_per_expert_layer_and_task(self, tmp_path, solve_rows):
        config = ExperimentConfig(
            strategy="main", rounds=3, scenarios=2, tasks=2, experts=2, d_feat=4,
            expert_widths=(6, 3), tower_widths=(4,), samples_per_scenario=200,
            batch_size=32, seed=3, out_dir=str(tmp_path / "run"),
        )
        run_experiment(config)
        rows = [config.scenarios * config.experts] * len(config.expert_widths) + [config.scenarios] * config.tasks
        assert solve_rows == rows * (config.rounds - 1)  # none in round 1

    def test_each_key_is_one_solve_over_its_own_deltas(self):
        """Bit for bit, the solve over the key's (C·P, -1) deltas: C·3 expert rows of a layer, or C task rows of a tower."""
        directive, normalized, config = two_rounds(n_experts=3)
        assert sorted((k.kind, len(rows)) for k, rows in normalized[1].items()) == [
            ("expert_scenario", 2 * 3), ("expert_scenario", 2 * 3), ("tower", 2), ("tower", 2)
        ]
        for k, rows in normalized[1].items():
            deltas = (rows - normalized[0][k]).reshape(len(rows), -1)
            mean_delta = deltas.mean(axis=0)
            mean_increment, update = directive.increments[k]
            assert mean_increment.shape == update.shape == rows.shape[1:]
            assert np.array_equal(mean_increment.ravel(), mean_delta)
            assert np.array_equal(update.ravel(), solve_conflict_weights(deltas, mean_delta, config.c).u_star)

    def test_update_sits_on_the_ball_of_the_whole_tower_not_of_each_tensor(self):
        directive, normalized, config = two_rounds()
        ends = np.cumsum(tower_tensor_sizes(config))[:-1]
        for task in range(2):
            mean_increment, update = directive.increments[SharedKey(f"towers.t{task}")]
            assert np.linalg.norm(update - mean_increment) == pytest.approx(
                config.c * np.linalg.norm(mean_increment), rel=1e-9
            )
            per_tensor = [
                np.linalg.norm(u - m) / np.linalg.norm(m)
                for m, u in zip(np.split(mean_increment, ends), np.split(update, ends))
            ]
            assert len(per_tensor) == 4  # w and b of the hidden layer and of the head
            assert max(abs(ratio - config.c) for ratio in per_tensor) > 1e-3


class TestPersonalizedApply:
    def test_scalar_update_arithmetic(self):
        """Each expert row of a layer moves by its own psi along the one coordinated update."""
        clients, _ = make_clients(s=2, n_experts=2, widths=(6,))
        client = clients[0]
        k = next(iter(of_kind(client.model, "expert_scenario")))
        param = of_kind(client.model, "expert_scenario")[k]
        param.data[...] = 1.0
        client.begin_round([k])
        client.psi[k] = np.array([2.0, -1.0])
        directive = ServerDirective(
            round_index=2,
            increments={k: (np.full(param.shape[1:], 0.5), np.full(param.shape[1:], 0.25))},
        )
        client.apply_directive(directive)
        assert np.allclose(param.data[0], 2.0)
        assert np.allclose(param.data[1], 1.25)

    def test_zero_psi_zero_increment_is_identity(self):
        clients, _ = make_clients(s=2, n_experts=1, widths=(6,))
        client = clients[0]
        k = next(iter(of_kind(client.model, "expert_scenario")))
        start = of_kind(client.model, "expert_scenario")[k].data.copy()
        client.begin_round([k])
        directive = ServerDirective(
            round_index=2,
            increments={k: (np.zeros(start.shape[1:]), np.full(start.shape[1:], 9.0))},
        )
        client.apply_directive(directive)  # psi defaults to 0
        assert np.array_equal(of_kind(client.model, "expert_scenario")[k].data, start)

    def test_increment_without_round_start_names_the_pool(self):
        clients, _ = make_clients(s=2, n_experts=1, widths=(6,))
        client = clients[0]
        k = next(iter(of_kind(client.model, "expert_scenario")))
        start = of_kind(client.model, "expert_scenario")[k].data.copy()
        zeros = np.zeros(start.shape[1:])
        directive = ServerDirective(round_index=2, increments={k: (zeros, zeros)})
        with pytest.raises(KeyError, match=f"round-start snapshot .*{re.escape(k.name)}"):
            client.apply_directive(directive)  # no begin_round
        assert np.array_equal(of_kind(client.model, "expert_scenario")[k].data, start)

    def test_replace_path(self):
        clients, _ = make_clients(s=2, widths=(6,))  # one layer: its mean is the whole scenario-weight set
        client = clients[0]
        k = next(iter(of_kind(client.model, "expert_scenario")))
        value = np.full(of_kind(client.model, "expert_scenario")[k].shape, 7.0)
        client.begin_round([k])
        client.apply_directive(ServerDirective(round_index=1, means={k: value}))
        assert np.array_equal(of_kind(client.model, "expert_scenario")[k].data, value)


class TestPsiMetaUpdate:
    def build_client(self):
        """Client 0 of ``make_clients(s=2, n_experts=1, widths=(6,))`` in float64, for the finite differences."""
        clients, config = make_clients(s=2, n_experts=1, widths=(6,))
        spec = config.model_spec(0)
        model = ClientModel(spec, config.seed, initial_buffers(spec, config.seed, [0], np.float64)[0])
        return ClientSim(model, clients[0].shard, eta_psi=config.eta_psi, batch_size=config.batch_size, seed=config.seed)

    def test_zero_update_leaves_psi(self):
        client = self.build_client()
        k = next(iter(of_kind(client.model, "expert_scenario")))
        directive = ServerDirective(
            round_index=2,
            increments=along({k: np.zeros(of_kind(client.model, "expert_scenario")[k].shape[1:])}),
        )
        client.meta_update_psi(directive)
        assert np.array_equal(client.psi[k], [0.0])

    def test_descending_direction_raises_psi(self):
        client = self.build_client()
        k = next(iter(of_kind(client.model, "expert_scenario")))
        grads = held_out_grads(client)
        directive = ServerDirective(round_index=2, increments=along({k: -grads[k][0]}))
        client.meta_update_psi(directive)
        assert client.psi[k][0] > 0.0

    def test_each_expert_row_steps_its_own_psi(self):
        """A layer's rows step apart, each by its own directional derivative, bit for bit as a per-expert sum."""
        clients, _ = make_clients(s=2, n_experts=3)
        client = clients[0]
        rng = np.random.default_rng(2)
        u = {k: rng.normal(0, 0.1, p.shape[1:]) for k, p in of_kind(client.model, "expert_scenario").items()}
        directive = ServerDirective(round_index=2, increments=along(u))
        grads = held_out_grads(client)
        client.meta_update_psi(directive)
        for k in u:
            expected = [-client.eta_psi * float(np.sum(grads[k][e] * u[k])) for e in range(3)]
            assert client.psi[k].tolist() == expected
            assert len(set(expected)) == 3

    def test_directional_derivative_matches_finite_difference(self):
        client = self.build_client()
        model = client.model
        k = next(iter(of_kind(model, "expert_scenario")))
        rng = np.random.default_rng(0)
        u_star = rng.normal(0, 0.1, of_kind(model, "expert_scenario")[k].shape[1:])
        grads = held_out_grads(client)
        analytic = float(np.sum(grads[k] * u_star))

        x, y = client.held_out
        param = of_kind(model, "expert_scenario")[k]
        eps = 1e-6

        def loss_at(offset):
            param.data += offset * u_star
            value, _ = model.local_loss(x, y, use_dropout=False)
            param.data -= offset * u_star
            return value.item()

        numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-3)

    def test_psi_step_leaves_batchnorm_rng_and_grads(self):
        clients, _ = make_clients(s=2, n_experts=1, widths=(6,), dropout=0.2)
        client = clients[0]
        model = client.model
        client.local_phase(1, max_batches=2)
        bn = (model.bn_in.running_mean.copy(), model.bn_in.running_var.copy())
        rng_state = model.rng.bit_generator.state
        u = {k: np.full(p.shape[1:], 0.1) for k, p in of_kind(model, "expert_scenario").items()}
        client.meta_update_psi(ServerDirective(round_index=2, increments=along(u)))
        assert client.psi  # the step ran
        assert np.array_equal(model.bn_in.running_mean, bn[0])
        assert np.array_equal(model.bn_in.running_var, bn[1])
        assert model.rng.bit_generator.state == rng_state
        assert not model.buffer.grads.any()

    def test_psi_clamped(self):
        client = self.build_client()
        client.eta_psi = 1e9
        k = next(iter(of_kind(client.model, "expert_scenario")))
        u = np.full(of_kind(client.model, "expert_scenario")[k].shape[1:], 1.0)
        directive = ServerDirective(round_index=2, increments=along({k: u}))
        client.meta_update_psi(directive)
        assert abs(client.psi[k][0]) == 2.0

    def test_a_task_tower_steps_one_psi_over_its_whole_row(self):
        """A task's tower is one key: one psi, stepped by the directional derivative over every tower tensor."""
        client = self.build_client()
        towers = of_kind(client.model, "tower")
        rng = np.random.default_rng(1)
        u = {k: rng.normal(0, 0.1, p.shape[1:]) for k, p in towers.items()}
        directive = ServerDirective(round_index=2, increments=along(u))
        grads = held_out_grads(client)
        client.meta_update_psi(directive)
        assert sorted(client.psi) == sorted(towers) == [SharedKey(f"towers.t{t}") for t in range(2)]
        for k in towers:
            assert u[k].shape == (towers[k].size,)
            assert client.psi[k].tolist() == [-client.eta_psi * float(np.sum(grads[k] * u[k]))]

    def test_psi_arrays_equal_the_per_slot_scalar_rule(self):
        """Two psi steps of a 3-expert, 2-layer, 2-task client give, byte for byte, the floats of stepping each slot alone."""
        clients, _ = make_clients(s=2, n_experts=3, widths=(6, 3))
        client = clients[0]
        client.eta_psi = 30.0  # large enough that some slots reach the clamp, not so large that all do
        model = client.model
        coordinated = {k: p for k, p in model.key_map().items() if k.kind in ("expert_scenario", "tower")}
        assert len(model.expert_layers) == 2 and model.spec.n_tasks == 2
        rng = np.random.default_rng(4)
        values = {}
        for step in range(2):
            u = {k: rng.normal(0, 0.1, p.shape[1:]) for k, p in coordinated.items()}
            replay_psi_step(values, client.eta_psi, held_out_grads(client), u)
            client.meta_update_psi(ServerDirective(round_index=2 + step, increments=along(u)))
            client.local_phase(2 + step, max_batches=1)
        assert set(client.psi) == set(coordinated)
        for k, p in coordinated.items():
            expected = [values[k, row] for row in range(len(p.data))]
            assert client.psi[k].tobytes() == np.array(expected).tobytes(), k
        magnitudes = np.abs(np.concatenate(list(client.psi.values())))
        assert (magnitudes == 2.0).any() and (magnitudes < 2.0).any()


class TestStrategies:
    def test_a3_is_main_configuration(self):
        a3 = resolve_strategy("a3")
        main = resolve_strategy("main")
        assert (a3.expert_mode, a3.tower_mode) == (main.expert_mode, main.tower_mode)
        assert a3.modes == main.modes and hash(a3.modes) == hash(main.modes)

    @pytest.mark.parametrize(
        "strategy, kinds",
        [("main", {"expert_scenario", "tower"}), ("a1", set()), ("a2", {"tower"}), ("a3", {"expert_scenario", "tower"}),
         ("a4", set()), ("fedavg", set()), ("local", set())],
    )
    def test_coordinated_kinds_follow_the_strategy_table(self, strategy, kinds):
        plan = resolve_strategy(strategy)
        assert {kind for kind in MODEL_KINDS if plan.mode(kind) == "coordinated"} == kinds
        assert any(mode == "coordinated" for _, mode in plan.modes) == bool(kinds)

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_each_strategy_uploads_exactly_the_kinds_its_table_entry_names(self, strategy):
        table = STRATEGIES[strategy]
        assert set(table) <= MODEL_KINDS and set(table.values()) <= {"coordinated", "plain"}
        clients, config = make_clients(s=2)
        model = clients[0].model
        plan = resolve_strategy(strategy)
        keys = upload_keys(plan, model)
        assert set(keys) == {k for k in model.key_map() if k.kind in table}
        assert {plan.mode(kind) for kind in MODEL_KINDS if kind not in table} <= {"none"}
        assert plan.uses_server == bool(table)
        one_client = {0: clients[0].build_upload(keys)}
        if not plan.uses_server:
            with pytest.raises(RuntimeError, match="no aggregation"):
                FederationServer(plan, c=config.c).aggregate(one_client, 1)
        elif "coordinated" in table.values():
            with pytest.raises(ValueError, match="2 clients"):
                FederationServer(plan, c=config.c).aggregate(one_client, 1)
        else:  # a plain mean of one client is that client's upload
            directive = FederationServer(plan, c=config.c).aggregate(one_client, 1)
            assert all(np.array_equal(directive.means[k], one_client[0][k]) for k in keys)

    def test_upload_key_sets(self):
        clients, _ = make_clients(s=2)
        model = clients[0].model
        main_keys = set(upload_keys(resolve_strategy("main"), model))
        a1_keys = set(upload_keys(resolve_strategy("a1"), model))
        a2_keys = set(upload_keys(resolve_strategy("a2"), model))
        a4_keys = set(upload_keys(resolve_strategy("a4"), model))
        fedavg_keys = set(upload_keys(resolve_strategy("fedavg"), model))
        local_keys = set(upload_keys(resolve_strategy("local"), model))

        scenario = set(of_kind(model, "expert_scenario"))
        tower = set(of_kind(model, "tower"))
        expert_local = set(of_kind(model, "expert_local"))
        other = set(of_kind(model, "local"))

        assert main_keys == scenario | tower
        assert a1_keys == main_keys
        assert a2_keys == scenario | tower | expert_local
        assert a4_keys == tower
        assert fedavg_keys == scenario | tower | expert_local | other
        assert local_keys == set()
        # the baseline differs from a1 exactly by the local-private sets
        assert fedavg_keys - a1_keys == expert_local | other

    def test_a4_towers_take_plain_mean_and_experts_untouched(self):
        clients, config = make_clients(s=2)
        plan = resolve_strategy("a4")
        keys = upload_keys(plan, clients[0].model)
        server = FederationServer(plan, c=config.c)
        expert_before = [
            {k: p.data.copy() for k, p in of_kind(c.model, "expert_scenario").items()} for c in clients
        ]
        tower_uploads = {c.index: c.build_upload(keys) for c in clients}
        for c in clients:
            c.begin_round(keys)
        directive = server.aggregate(tower_uploads, 1)
        for c in clients:
            c.apply_directive(directive)
        for k in of_kind(clients[0].model, "tower"):
            expected = np.mean(np.stack([tower_uploads[c.index][k] for c in clients]), axis=0)
            for c in clients:
                assert np.allclose(of_kind(c.model, "tower")[k].data, expected)
        for c, before in zip(clients, expert_before):
            for k, p in of_kind(c.model, "expert_scenario").items():
                assert np.array_equal(p.data, before[k])

    def test_round_one_towers_replaced_not_incremented(self):
        clients, config = make_clients(s=2)
        plan = resolve_strategy("main")
        keys = upload_keys(plan, clients[0].model)
        server = FederationServer(plan, c=config.c)
        uploads = {c.index: c.build_upload(keys) for c in clients}
        directive = server.aggregate(uploads, 1)
        assert directive.increments == {}
        assert set(directive.means) == set(keys)

    def test_identical_tower_uploads_fixed_point(self):
        clients, config = make_clients(s=2)
        source = clients[0].model
        for c in clients[1:]:
            for k, p in of_kind(c.model, "tower").items():
                p.data[...] = of_kind(source, "tower")[k].data
        plan = resolve_strategy("a4")
        keys = upload_keys(plan, clients[0].model)
        server = FederationServer(plan, c=config.c)
        before = {k: p.data.copy() for k, p in of_kind(source, "tower").items()}
        for c in clients:
            c.begin_round(keys)
        directive = server.aggregate({c.index: c.build_upload(keys) for c in clients}, 1)
        for c in clients:
            c.apply_directive(directive)
        for k, p in of_kind(source, "tower").items():
            assert np.allclose(p.data, before[k], atol=1e-12)

    def test_single_client_rejected(self):
        clients, config = make_clients(s=2)
        plan = resolve_strategy("main")
        keys = upload_keys(plan, clients[0].model)
        uploads = {0: clients[0].build_upload(keys)}
        with pytest.raises(ValueError, match="2 clients"):
            FederationServer(plan, c=config.c).aggregate(uploads, 1)

    def test_non_finite_upload_rejected(self):
        clients, config = make_clients(s=2)
        plan = resolve_strategy("main")
        keys = upload_keys(plan, clients[0].model)
        uploads = {c.index: c.build_upload(keys) for c in clients}
        tower = next(k for k in keys if k.kind == "tower")
        uploads[1][tower].flat[0] = np.nan
        with pytest.raises(ValueError, match=f"client 1 .*{tower.name}"):
            FederationServer(plan, c=config.c).aggregate(uploads, 1)

    def test_non_finite_value_of_one_client_names_that_client(self):
        uploads = same_uploads({key(): np.ones((2, 3))})
        uploads[1][key()][1, 2] = np.nan  # client 0's upload stays finite
        with pytest.raises(ValueError, match=f"client 1 uploaded a non-finite value for {re.escape(key().name)}"):
            FederationServer(resolve_strategy("main")).aggregate(uploads, 1)


class TestInputChecks:
    """aggregate is where client input enters the server: each bad upload is named before any is used."""

    @pytest.mark.parametrize("strategy", ["main", "a1"])
    def test_no_uploads_rejected(self, strategy):
        with pytest.raises(ValueError, match="no uploads"):
            FederationServer(resolve_strategy(strategy)).aggregate({}, 1)

    @pytest.mark.parametrize("strategy", ["main", "a1"])
    def test_different_key_set_names_the_client_and_key(self, strategy):
        tower = key("towers.t1")
        uploads = {0: {key(): np.ones(2)}, 1: {key(): np.ones(2), tower: np.ones(2)}}
        with pytest.raises(ValueError, match=f"client 1 .*different key set.*{re.escape(tower.name)}"):
            FederationServer(resolve_strategy(strategy)).aggregate(uploads, 1)

    @pytest.mark.parametrize("strategy", ["main", "a1"])
    def test_wrong_shape_names_the_client_and_key(self, strategy):
        uploads = {0: {key(): np.ones((2, 3))}, 1: {key(): np.ones((2, 3))}, 2: {key(): np.ones((3, 2))}}
        with pytest.raises(ValueError, match=rf"client 2 .*{re.escape(key().name)} with shape \(3, 2\)"):
            FederationServer(resolve_strategy(strategy)).aggregate(uploads, 1)

    @pytest.mark.parametrize("strategy, name", [("a4", "emb.task"), ("a1", "experts.l0.tmpl.w1"), ("main", "gates.b")])
    def test_a_kind_the_strategy_does_not_share_is_refused_naming_client_key_and_kind(self, strategy, name):
        unshared = SharedKey(name)
        uploads = {0: {key("towers.t0"): np.ones(2), unshared: np.ones(2)},
                   1: {key("towers.t0"): np.zeros(2), unshared: np.zeros(2)}}
        with pytest.raises(ValueError, match=rf"client 0 .*{re.escape(name)} of kind {unshared.kind}.*does not share"):
            FederationServer(resolve_strategy(strategy)).aggregate(uploads, 1)

    def test_non_finite_value_on_a_plain_key_names_the_client_and_key(self):
        # TestStrategies.test_non_finite_upload_rejected covers a coordinated key
        uploads = {0: {key(): np.ones(2)}, 1: {key(): np.array([1.0, np.inf])}}
        with pytest.raises(ValueError, match=f"client 1 .*non-finite.*{re.escape(key().name)}"):
            FederationServer(resolve_strategy("a1")).aggregate(uploads, 1)


class TestRoundProtocol:
    def test_five_round_smoke_emits_metrics(self, tmp_path):
        config = ExperimentConfig(
            strategy="main", rounds=5, scenarios=2, tasks=2, experts=2, d_feat=4,
            expert_widths=(6, 3), tower_widths=(4,), samples_per_scenario=200,
            batch_size=32, seed=3, out_dir=str(tmp_path / "run"),
        )
        artifacts = run_experiment(config)
        lines = artifacts.metrics_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 2 * 2
        assert len(artifacts.final_auc) == 2 * 2
        last_round = [line.split(",") for line in lines[-2 * 2 :]]
        assert artifacts.final_auc == {(int(j), int(i)): float(auc) for _, j, i, auc, _ in last_round}
        assert len(artifacts.convergence_path.read_text().strip().splitlines()) == 1 + 5 * 2

    def test_plain_expert_means_are_applied_per_expert(self):
        clients, config = make_clients(s=2, n_experts=3)
        plan = resolve_strategy("a1")
        keys = upload_keys(plan, clients[0].model)
        server = FederationServer(plan, c=config.c)
        for c in clients:
            c.begin_round(keys)
        uploads = {c.index: c.build_upload(keys) for c in clients}
        directive = server.aggregate(uploads, 1)
        for c in clients:
            c.apply_directive(directive)
        for c in clients:
            for k, w_s in of_kind(c.model, "expert_scenario").items():
                # The server's float64 mean, rounded once into the float32 buffer.
                assert directive.means[k].dtype == np.float64
                assert np.array_equal(w_s.data, directive.means[k].astype(np.float32))
                for e in range(3):
                    expected = np.mean([uploads[j][k][e] for j in uploads], axis=0, dtype=np.float64)
                    assert np.array_equal(w_s.data[e], expected.astype(np.float32))

    def test_expert_layer_pool_shares_aggregate(self):
        clients, config = make_clients(s=2, n_experts=3)
        plan = resolve_strategy("main")
        keys = upload_keys(plan, clients[0].model)
        server = FederationServer(plan, c=config.c)
        for c in clients:
            c.begin_round(keys)
        directive = server.aggregate({c.index: c.build_upload(keys) for c in clients}, 1)
        for c in clients:
            c.apply_directive(directive)
        for k in of_kind(clients[0].model, "expert_scenario"):
            assert directive.means[k].shape == of_kind(clients[0].model, "expert_scenario")[k].shape[1:]
            for c in clients:
                for row in of_kind(c.model, "expert_scenario")[k].data:  # every expert of every client
                    assert np.array_equal(row, directive.means[k].astype(np.float32))

    @pytest.mark.parametrize("c", [0.0, 0.4])
    def test_coordinated_update_has_its_closed_form(self, c):
        """``main`` over three float64 clients, whose uploads are random steps
        away from their round starts, with a random psi per key and row.

        Round 1 sets every row of a key to beta, the clients' row means
        averaged. At c = 0 the coordinated update is the mean increment, so
        each later value is ``start + (1 + psi) * (beta_r - beta_{r-1})``.
        At c = 0.4, U* sits on the ball of radius c * |d beta| around it and
        equals the solve over increments of rows normalized here.
        """
        config = ExperimentConfig(scenarios=3, tasks=2, experts=4, d_feat=4, expert_widths=(6, 3), tower_widths=(4,))
        buffers = initial_buffers(config.model_spec(0), 0, range(3), np.float64)
        clients = [
            ClientSim(ClientModel(config.model_spec(j), 0, buffers[j]), shard)
            for j, shard in enumerate(shards(s=3))
        ]
        plan = resolve_strategy("main")
        keys = upload_keys(plan, clients[0].model)
        assert {k.kind for k in keys} == {"expert_scenario", "tower"}
        server = FederationServer(plan, c=c)
        rng = np.random.default_rng(17)

        def rel(a, b):
            return float(np.abs(a - b).max() / np.abs(b).max())

        beta, prev_rows = {}, {}
        for r in (1, 2, 3):
            for client in clients:
                client.begin_round(keys)
                for k, p in client.model.key_map().items():
                    if k in keys:
                        p.data += rng.normal(0, 0.1, p.shape)
                client.psi = {k: rng.uniform(-1, 1, len(client.round_start[k])) for k in keys}
            uploads = {client.index: client.build_upload(keys) for client in clients}
            directive = server.aggregate(uploads, r)
            for client in clients:
                client.apply_directive(directive)
            for k in keys:
                stack = np.concatenate([uploads[j][k] for j in sorted(uploads)])  # (C·P, ...)
                beta_prev, beta[k] = beta.get(k), stack.mean(axis=0)
                rows, _ = fedbn_normalize(stack)
                rows_prev, prev_rows[k] = prev_rows.get(k), rows
                for client in clients:
                    value = client.model.key_map()[k].data
                    if r == 1:
                        assert k not in directive.increments
                        assert max(rel(row, beta[k]) for row in value) <= 1e-12
                        continue
                    psi = client.psi[k].reshape(-1, *[1] * (value.ndim - 1))
                    moved = value - client.round_start[k]
                    if c == 0.0:
                        assert rel(moved, (1.0 + psi) * (beta[k] - beta_prev)) <= 1e-12
                    else:
                        mean_increment, update = directive.increments[k]
                        assert rel(moved, mean_increment + psi * update) <= 1e-12
                if r > 1 and c > 0.0:
                    d_beta = beta[k] - beta_prev
                    _, update = directive.increments[k]
                    assert np.linalg.norm(update - d_beta) == pytest.approx(c * np.linalg.norm(d_beta), rel=1e-9)
                    deltas = (rows - rows_prev).reshape(len(rows), -1)
                    expected = solve_conflict_weights(deltas, deltas.mean(axis=0), c).u_star
                    assert rel(update.ravel(), expected) <= 1e-12

    def test_main_without_psi_equals_a_reference_loop_in_place_of_the_server(self):
        """Three rounds of ``main`` at c = 0 and eta_psi = 0, against numpy lines that replace the server.

        The loop sets every row of a coordinated key to beta, each client's
        row mean averaged over clients, at round 1, and to
        ``start + (beta_r - beta_{r-1})`` after it. Every AUC agrees within 1e-12.
        """
        config = ExperimentConfig(
            scenarios=3, tasks=2, experts=4, d_feat=4, expert_widths=(6, 3), tower_widths=(4,),
            batch_size=32, c=0.0, eta_psi=0.0,
        )
        plan = resolve_strategy("main")

        def run(server):
            clients = build_clients(config, shards(s=3))
            keys = upload_keys(plan, clients[0].model)
            beta, aucs = {}, []
            for r in (1, 2, 3):
                for client in clients:
                    client.begin_round(keys)
                    client.local_phase(r)
                uploads = {client.index: client.build_upload(keys) for client in clients}
                if server is not None:
                    directive = server.aggregate(uploads, r)
                    for client in clients:
                        client.apply_directive(directive)
                        client.meta_update_psi(directive)
                else:
                    for k in keys:
                        stack = np.stack([uploads[j][k] for j in sorted(uploads)], dtype=np.float64)  # (C, P, ...)
                        beta_prev, beta[k] = beta.get(k), stack.mean(axis=1).mean(axis=0)
                        for client in clients:
                            value = beta[k] if r == 1 else client.round_start[k] + (beta[k] - beta_prev)
                            client.model.key_map()[k].data[...] = value
                aucs.append([client.evaluate().auc for client in clients])
            return np.array(aucs)

        served, reference = run(FederationServer(plan, c=config.c)), run(None)
        assert served.shape == (3, 3, 2) and len(np.unique(served)) > 3
        np.testing.assert_allclose(served, reference, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["main", "a2", "fedavg"])
    def test_server_aggregates_float32_uploads_as_their_float64_casts(self, strategy):
        """Clients upload float32; the server stacks them as float64, so its
        directive and snapshot equal those of the uploads cast to float64,
        bit for bit, and the FedBN residual stays at float64 rounding."""
        clients, config = make_clients(s=3, n_experts=2)
        plan = resolve_strategy(strategy)
        keys = upload_keys(plan, clients[0].model)
        server, server64 = FederationServer(plan, c=config.c), FederationServer(plan, c=config.c)
        for round_index in (1, 2):
            for c in clients:
                c.begin_round(keys)
                c.local_phase(round_index, max_batches=1)
            uploads = {c.index: c.build_upload(keys) for c in clients}
            assert {arr.dtype for upload in uploads.values() for arr in upload.values()} == {np.dtype(np.float32)}
            directive = server.aggregate(uploads, round_index)
            cast = {j: {k: arr.astype(np.float64) for k, arr in upload.items()} for j, upload in uploads.items()}
            directive64 = server64.aggregate(cast, round_index)
            assert directive.fedbn_residual == directive64.fedbn_residual < 1e-9  # fedbench's FEDBN_RESIDUAL_LIMIT
            for k, mean in directive.means.items():
                assert mean.dtype == np.float64 and mean.tobytes() == directive64.means[k].tobytes()
            assert directive.increments.keys() == directive64.increments.keys()
            for k, pair in directive.increments.items():
                assert [a.tobytes() for a in pair] == [a.tobytes() for a in directive64.increments[k]]
            entries, entries64 = server.last_snapshot_entries, server64.last_snapshot_entries
            assert entries.keys() == entries64.keys()
            for label, arr in entries.items():
                assert arr.dtype == np.float64 and arr.tobytes() == entries64[label].tobytes()
            for c in clients:
                c.apply_directive(directive)
        assert strategy == "fedavg" or directive.increments  # round 2 coordinates


class TestPrivacyAudit:
    @pytest.mark.parametrize("strategy", ["main", "a1", "a2", "a4", "fedavg"])
    def test_server_sees_only_declared_keys(self, strategy, tmp_path, monkeypatch):
        received: list[tuple[int, SharedKey, np.ndarray]] = []
        aggregate = FederationServer.aggregate

        def audit(server, uploads, round_index):
            received.extend((client, k, tensor) for client, upload in uploads.items() for k, tensor in upload.items())
            return aggregate(server, uploads, round_index)

        monkeypatch.setattr(FederationServer, "aggregate", audit)

        config = ExperimentConfig(
            strategy=strategy, rounds=2, scenarios=2, tasks=2, experts=2, d_feat=4,
            expert_widths=(6, 3), tower_widths=(4,), samples_per_scenario=200,
            batch_size=32, seed=4, out_dir=str(tmp_path / strategy),
        )
        artifacts = run_experiment(config)
        assert artifacts.metrics_path.exists()
        assert received, "the server never aggregated"

        reference = build_clients(config, shards(s=2, seed=4))[0].model
        declared = set(upload_keys(resolve_strategy(strategy), reference))
        seen = {k for _, k, _ in received}
        assert seen == declared

        # uploads are value copies of parameter tensors: parameter-shaped,
        # finite, and never aliased to client memory
        shapes = {k: p.shape for k, p in reference.key_map().items()}
        data_arrays = [a for c in build_clients(config, shards(s=2, seed=4))
                       for a in (c.shard.train.features, c.shard.train.labels)]
        for _, k, tensor in received:
            assert tensor.shape == shapes[k]
            assert np.isfinite(tensor).all()
            for arr in data_arrays:
                assert not np.shares_memory(tensor, arr)

    def test_uploads_are_copies(self):
        clients, _ = make_clients(s=2)
        client = clients[0]
        keys = upload_keys(resolve_strategy("main"), client.model)
        upload = client.build_upload(keys)
        key_map = client.model.key_map()
        for k, tensor in upload.items():
            assert not np.shares_memory(tensor, key_map[k].data)


class TestSnapshotLayout:
    """A key's server state is written once, and its normalized rows once per client, whatever its row count."""

    @pytest.mark.parametrize("strategy", ["main", "fedavg"])
    def test_every_label_is_a_role_and_a_key_name(self, tmp_path, strategy):
        """A label with its role and client removed is the name of an uploaded key of ``model.key_map()``."""
        config = ExperimentConfig(
            strategy=strategy, rounds=2, scenarios=2, tasks=2, experts=2, d_feat=4,
            expert_widths=(6, 3), tower_widths=(4,), samples_per_scenario=200,
            batch_size=32, seed=3, out_dir=str(tmp_path / "run"),
        )
        run_experiment(config)
        model = ClientModel(config.model_spec(0), config.seed)
        uploaded = {k.name for k in upload_keys(resolve_strategy(strategy), model)}
        assert uploaded <= {k.name for k in model.key_map()}
        for r in (1, 2):
            _, _, entries = read_snapshot(tmp_path / "run" / "snapshots" / f"round_{r}.bin")
            names = set()
            for label in entries:
                role, name, *client = label.split("/")
                assert role in ("ref", "set", "dmean", "ustar", "norm"), label
                assert client in ((["c0"], ["c1"]) if role == "norm" else ([],)), label
                names.add(name)
            assert names == uploaded

    def test_round_two_holds_one_entry_per_key_and_role(self, tmp_path):
        clients, config = make_clients(s=2, n_experts=3)
        plan = resolve_strategy("main")
        keys = upload_keys(plan, clients[0].model)
        server = FederationServer(plan, c=config.c)
        for r in (1, 2):
            for c in clients:
                c.begin_round(keys)
                c.local_phase(r, max_batches=1)
            directive = server.aggregate({c.index: c.build_upload(keys) for c in clients}, r)
            for c in clients:
                c.apply_directive(directive)
        path = tmp_path / "round_2.bin"
        write_snapshot(path, plan.name, 2, server.last_snapshot_entries)
        strategy, round_index, entries = read_snapshot(path)
        assert (strategy, round_index) == ("main", 2)

        model = clients[0].model
        layer_keys, tower_keys = list(of_kind(model, "expert_scenario")), list(of_kind(model, "tower"))
        assert layer_keys == [SharedKey(f"experts.l{li}.w_s") for li in range(len(model.expert_layers))]
        assert sorted(keys) == sorted(layer_keys + tower_keys)
        for role in ("ref", "dmean", "ustar"):
            labels = sorted(label.split("/", 1)[1] for label in entries if label.startswith(f"{role}/"))
            assert labels == sorted(k.name for k in keys)
        assert not any(label.startswith("set/") for label in entries)
        assert len(entries) == (3 + len(clients)) * len(keys)
        for k in layer_keys:
            assert entries[f"ref/{k.name}"].shape == of_kind(model, "expert_scenario")[k].shape[1:]
            rows = server.prev_normalized[k]
            for j, c in enumerate(clients):
                norm = entries[f"norm/{k.name}/c{c.index}"]
                assert norm.shape == of_kind(model, "expert_scenario")[k].shape  # (N, d_in, d_out)
                assert np.array_equal(norm, rows[3 * j : 3 * (j + 1)])
        for k in tower_keys:
            assert entries[f"norm/{k.name}/c0"].shape == of_kind(model, "tower")[k].shape  # (1, ...)
