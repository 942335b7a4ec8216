import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedmoe
from fedmoe import harness
from fedmoe import model as model_mod
from fedmoe.config import ExperimentConfig
from fedmoe.data import DataError
from fedmoe.federation import client as client_mod
from fedmoe.model import ClientModel

GOLDEN_FILES = ("metrics.csv", "convergence.csv", "config.echo")


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        strategy="main", rounds=3, scenarios=2, tasks=2, experts=2, d_feat=4,
        expert_widths=(6, 3), tower_widths=(4,), samples_per_scenario=200,
        batch_size=32, seed=3, out_dir="run",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# sha256 of each output file of a small_config run, per strategy or per case
# of PINNED_OVERRIDES. Recorded with numpy's bundled OpenBLAS on x86-64,
# identical at 1 and 2 BLAS threads.
# A change that keeps the outputs byte-identical leaves these as they are; a
# deliberate re-baseline replaces them and says why in CHANGES.md.
PINNED_SHA256 = {
    "main": {
        "metrics.csv": "7c67854602b20f403da446dbe3118e0c9bf68b7b4e963ae829c0e3f2783a105a",
        "convergence.csv": "58b62f776f426edce76691ceef618f14d32afa988c8ba969fe04e757bf42e143",
        "snapshots/round_1.bin": "a288ebb54d6e216f29db2d964f68f2ae0e090f77f54cab49aeffa59deb0c550f",
        "snapshots/round_2.bin": "13dac98c9f6ec8828d8819ced5791e09d6b508ece2508a4f6fbca82d4cb8d195",
        "snapshots/round_3.bin": "8d2aa84aa382a17d9024a53810c82adf566ce73d3c5b6bd4abb1b197ca7ea671",
    },
    "a1": {
        "metrics.csv": "e191ca70d1670645f42ad440b02b102205c56965f18d9394a2d4568142ca3a09",
        "convergence.csv": "f1a93fed3a4bf4ca99d94708ef923c9386a79ffeb6c46e9cd82741cb738213a2",
        "snapshots/round_1.bin": "5b94a1bd5c72fe9841b1fbf868d34c216abf9ef556d26449bc9b724ccb81b1a4",
        "snapshots/round_2.bin": "216ee554cee15cbbf765b2fdef368a39d188c9c24f1671a6cd8a0aac3bb99741",
        "snapshots/round_3.bin": "46ac428a761a8c1ee82ce49749a7e85cd6863caec0a512a5ed39ab1f2c58f6e6",
    },
    "a2": {
        "metrics.csv": "35b32487db24fd37e2720623cb01a982cdf0e85e9da7c5953579f7b61111ab14",
        "convergence.csv": "78bf9ee99475f3af0e0c32815d875cbbef2d124021091104bd89fbab38e69861",
        "snapshots/round_1.bin": "00bfee882fcaf197466396fa34838929e0aeaa36ab561ca6045ced6c1130c09a",
        "snapshots/round_2.bin": "74c02dde1770d66640429111515995b68a1a23ae5c3a2b08dbb8bddb84df20b8",
        "snapshots/round_3.bin": "552c14c9eee77ebf5b4741d772973649434680742bf1f1a6a5da7182b684caac",
    },
    "a4": {
        "metrics.csv": "d9d265fc8e88b8447c11343fe811e28019a7c2b97628628d8681c68895350fa6",
        "convergence.csv": "aece3b1ec69b11d77c8753f8c16781a9455152ff41791d0f28ad8d24ed890a05",
        "snapshots/round_1.bin": "4602aba73f94d8360a727383ceaf2c95129d60e51ab7f3a914be07ae8e1f15d9",
        "snapshots/round_2.bin": "c2ccffe7107bdb885f53072963201e72d21f159cc1718e697df77e2221713a90",
        "snapshots/round_3.bin": "e7b24c16f380e722ed3cf323679bb78a7745b5d3e64fd818f18807a7aa6af38a",
    },
    "fedavg": {
        "metrics.csv": "d19a05b3189c247da5cbd0d3a7e1d80709f344176084f2a155b5600d987f45c8",
        "convergence.csv": "4a16da1020c746b25543b327498b9797778c27b37c18025e4379c904f6fdde02",
        "snapshots/round_1.bin": "aca5cc054f12286c6fac93ae1f1b166c43ca8bb277d361dcd67ae2d1c3f74b46",
        "snapshots/round_2.bin": "4b2189608b035f96470fb0b809ea1dfcdfc8c6110c5839defe0c4f5e2912f4a6",
        "snapshots/round_3.bin": "f966de699ec30f38b6aa1ae4ed3fa0740eaee149a4649967f9980dd1c6838fbf",
    },
    "local_one_task_one_expert": {
        "metrics.csv": "a66157837a687e095fd68b6ed552ce4240eb467141164c1fca7a4c70312b262f",
        "convergence.csv": "66b5e41a0ebe51cd5884b9258a79c6f53f714bba9c5eef645fe95540b4964546",
    },
    "main_three_tasks_no_tower": {
        "metrics.csv": "6b53559f866ccfc25776509766b71f939c041344590e59682aa70ab4fe41ab95",
        "convergence.csv": "677241d87f99fa2be910b35f90b81937df4da9df681875a6bfc8afe9b12ebe95",
        "snapshots/round_1.bin": "97a8b7f9b0e3ef7c51b3b82b9da355c9efeedbac6b923eac7d5d116a9277eaae",
        "snapshots/round_2.bin": "c847102cfeea98fd3ce606be8aca4ced23181b00836fa6bb28886e60067937c7",
        "snapshots/round_3.bin": "c6084fc205c801cc6111461d597e1f08fe996c39dde6ff266fc4f0d474111dee",
    },
    "main_three_clients_three_experts": {
        "metrics.csv": "6ad7527e02baa2d75f5215ac6c25dae3498afa6114178617522e3338bf2825c2",
        "convergence.csv": "51db1f31ebd3318426eb3a250734bbde8401989e197a54a3116b09df697c66af",
        "snapshots/round_1.bin": "e02fee1fbdc9802d1a84701da9ad0827460664ad5fdf07c766b3c26576cbfb85",
        "snapshots/round_2.bin": "dd06fba0baff1569310e560778e078f97bc109c55b9087c7a4265f9bd3723fa1",
        "snapshots/round_3.bin": "04d07f2d3980cedb19c76682ba95b577dd1e7bef288ca20a7a611c69c17f1afd",
    },
}
# The cases that are not a strategy on small_config: the smallest model, a
# head straight on the experts' output for three tasks, and three clients of
# three experts each, whose expert layer keys stack 9 rows, 3 per client (a
# stack read in (expert, client) order instead of (client, expert) order
# fails it).
PINNED_OVERRIDES = {
    "local_one_task_one_expert": {"strategy": "local", "tasks": 1, "experts": 1},
    "main_three_tasks_no_tower": {"strategy": "main", "tasks": 3, "tower_widths": ()},
    "main_three_clients_three_experts": {"strategy": "main", "scenarios": 3, "experts": 3},
}


def golden_bytes(run_dir: Path) -> dict[str, bytes]:
    files = {name: (run_dir / name).read_bytes() for name in GOLDEN_FILES}
    for path in sorted((run_dir / "snapshots").glob("round_*.bin")):
        files[f"snapshots/{path.name}"] = path.read_bytes()
    return files


@pytest.mark.parametrize(
    "overrides",
    [{}, {"strategy": "a4", "local_epochs": 2, "comm_per_batch": True}],
    ids=["main", "a4_two_epochs_per_batch"],
)
def test_runs_are_byte_identical_in_process_and_from_the_cli(tmp_path, monkeypatch, overrides):
    config = small_config(**overrides)
    ini = tmp_path / "experiment.ini"
    config.save(ini)

    outputs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)  # the relative out_dir keeps config.echo identical
        harness.run_experiment(config)
        outputs.append(golden_bytes(workdir / "run"))

    workdir = tmp_path / "cli"
    workdir.mkdir()
    src = str(Path(fedmoe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "fedmoe.cli", "run", "--config", str(ini)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    outputs.append(golden_bytes(workdir / "run"))

    assert len(outputs[0]) == len(GOLDEN_FILES) + config.rounds
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("strategy", list(PINNED_SHA256))
def test_outputs_match_the_pinned_digests(tmp_path, strategy):
    """Byte identity across commits, not just between two runs of one commit."""
    run_dir = tmp_path / "run"
    overrides = PINNED_OVERRIDES.get(strategy, {"strategy": strategy})
    harness.run_experiment(small_config(out_dir=str(run_dir), **overrides))
    files = {name: data for name, data in golden_bytes(run_dir).items() if name != "config.echo"}
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == PINNED_SHA256[strategy]


@pytest.mark.parametrize(
    "first, second, left",
    [
        ({"rounds": 3}, {"rounds": 2}, ["round_1.bin", "round_2.bin"]),
        ({"strategy": "main"}, {"strategy": "local"}, []),
    ],
    ids=["three_then_two_rounds", "local_after_main"],
)
def test_rerun_removes_the_earlier_runs_snapshots(tmp_path, first, second, left):
    run_dir = tmp_path / "run"
    harness.run_experiment(small_config(out_dir=str(run_dir), **first))
    other = run_dir / "snapshots" / "notes.txt"
    other.write_text("kept")
    harness.run_experiment(small_config(out_dir=str(run_dir), **second))
    assert sorted(p.name for p in (run_dir / "snapshots").glob("round_*.bin")) == left
    assert other.read_text() == "kept"  # only the snapshot pattern is removed


def test_local_run_after_a_federated_one_leaves_no_snapshots_directory(tmp_path):
    run_dir = tmp_path / "run"
    harness.run_experiment(small_config(out_dir=str(run_dir), strategy="main"))
    assert (run_dir / "snapshots" / "round_1.bin").exists()
    artifacts = harness.run_experiment(small_config(out_dir=str(run_dir), strategy="local"))
    assert artifacts.snapshot_dir is None
    assert not (run_dir / "snapshots").exists()


@pytest.mark.parametrize("problem", ["missing_csv", "single_class_test_partition", "feature_named_twice"])
def test_rerun_that_fails_on_its_data_leaves_the_earlier_run_intact(tmp_path, problem):
    run_dir = tmp_path / "run"
    harness.run_experiment(small_config(out_dir=str(run_dir), rounds=2))
    before = {p.relative_to(run_dir): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}
    assert Path("snapshots/round_2.bin") in before

    if problem == "missing_csv":
        bad = small_config(
            out_dir=str(run_dir), tasks=1, d_feat=1, source="csv",
            csv_paths=(str(tmp_path / "a.csv"), str(tmp_path / "missing.csv")),
            feature_columns=("f0",), label_columns=("click",),
        )
        (tmp_path / "a.csv").write_text("f0,click\n" + "0.5,1\n0.25,0\n" * 20)
    elif problem == "feature_named_twice":
        bad = small_config(
            out_dir=str(run_dir), tasks=1, source="csv", csv_paths=(str(tmp_path / "a.csv"),) * 2,
            feature_columns=("f0",) * 4, label_columns=("click",),
        )
        (tmp_path / "a.csv").write_text("f0,click\n" + "0.5,1\n0.25,0\n" * 20)
    else:
        bad = ExperimentConfig(samples_per_scenario=20, temperature=0.05, rounds=1, out_dir=str(run_dir))
    with pytest.raises(DataError):
        harness.run_experiment(bad)
    after = {p.relative_to(run_dir): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}
    assert after == before


def test_ablation_suite_runs_each_distinct_configuration_once(tmp_path, monkeypatch):
    calls = []
    build_shards = harness.build_shards

    def counting_build_shards(config):
        calls.append((config.strategy, config.experts))
        return build_shards(config)

    monkeypatch.setattr(harness, "build_shards", counting_build_shards)
    config = small_config(rounds=2, experts=3)
    suite = harness.run_ablation_suite(config, out_dir=tmp_path / "suite")

    assert len(calls) == 8  # a3 and expert_3 are both the main configuration
    labels = [*harness.ABLATION_VARIANTS, *(f"expert_{n}" for n in harness.EXPERT_SWEEP)]
    assert list(suite.runs) == labels == list(suite.shard_checksums)
    assert suite.runs["expert_3"] is suite.runs["a3"]

    rows = {line.split(",", 1)[0]: line for line in suite.table_path.read_text().splitlines()[1:]}
    assert list(rows) == labels
    assert rows["expert_3"].split(",", 1)[1] == rows["a3"].split(",", 1)[1]

    log = suite.log_path.read_text().splitlines()
    assert [line for line in log if "reuses=" in line] == [
        f"expert_3 shard_sha256={suite.shard_checksums['expert_3']} reuses=a3"
    ]


def test_single_class_test_partition_fails_before_training(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training ran before the data check")

    monkeypatch.setattr(ClientModel, "local_loss", no_training)
    config = ExperimentConfig(samples_per_scenario=20, temperature=0.05, rounds=1, out_dir=str(tmp_path / "out"))
    config.validate()
    with pytest.raises(DataError, match=r"scenario \d+, task \d+: every test label is [01]"):
        harness.run_experiment(config)


def test_failed_run_leaves_the_rows_of_finished_rounds(tmp_path, monkeypatch):
    evaluate_client = client_mod.evaluate_client
    config = small_config(out_dir=str(tmp_path / "run"))
    calls = []

    def fail_in_round_two(model, records):
        calls.append(model.spec.scenario)
        if len(calls) == config.scenarios + 1:  # round 2's first client
            raise RuntimeError("evaluation failed")
        return evaluate_client(model, records)

    monkeypatch.setattr(client_mod, "evaluate_client", fail_in_round_two)
    with pytest.raises(RuntimeError, match="evaluation failed"):
        harness.run_experiment(config)
    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "round,client,task,auc,bce"
    assert [line.split(",", 1)[0] for line in lines[1:]] == ["1"] * (config.scenarios * config.tasks)


@pytest.mark.parametrize("experts", [1, 3])
def test_built_clients_equal_independently_built_models(experts):
    config = small_config(scenarios=3, experts=experts)
    clients = harness.build_clients(config, harness.build_shards(config))
    for j, client in enumerate(clients):
        built, alone = client.model, ClientModel(config.model_spec(j), init_seed=config.seed)
        assert built.buffer.values.tobytes() == alone.buffer.values.tobytes()
        assert built.buffer.grads.tobytes() == alone.buffer.grads.tobytes() == bytes(alone.buffer.grads.nbytes)
        for stat in ("running_mean", "running_var"):
            assert getattr(built.bn_in, stat).tobytes() == getattr(alone.bn_in, stat).tobytes()
        for got, want in zip(built._dropout_keeps(8, 0.2), alone._dropout_keeps(8, 0.2)):
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]


def test_built_clients_share_no_arrays():
    config = small_config(scenarios=3)
    clients = harness.build_clients(config, harness.build_shards(config))
    before = [(c.model.buffer.values.copy(), c.model.bn_in.running_mean.copy()) for c in clients]
    first = clients[0]
    x, y = first.shard.train.features[:16], first.shard.train.labels[:16]
    loss, _ = first.model.local_loss(x, y)
    loss.backward()
    first.optimizer.step()
    assert not np.array_equal(first.model.buffer.values, before[0][0])
    for client, (values, running_mean) in zip(clients[1:], before[1:]):
        assert np.array_equal(client.model.buffer.values, values)
        assert np.array_equal(client.model.bn_in.running_mean, running_mean)
        assert not client.model.buffer.grads.any()


@pytest.mark.parametrize("scenarios", [2, 3, 5])
def test_build_clients_draws_the_scenario_templates_once(monkeypatch, scenarios):
    calls = []
    template_w2_init = model_mod._template_w2_init

    def counting(rng, d_emb, out_len):
        calls.append(out_len)
        return template_w2_init(rng, d_emb, out_len)

    monkeypatch.setattr(model_mod, "_template_w2_init", counting)
    config = small_config(scenarios=scenarios, experts=3)
    harness.build_clients(config, harness.build_shards(config))
    # one task template and one scenario template per (expert, layer)
    assert len(calls) == 2 * config.experts * len(config.expert_widths)
