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
        "metrics.csv": "e4013b984c2a7f9e0e29041553b389274b2f101e3b5b526c49024b2b0d73513a",
        "convergence.csv": "011b5a4645c362d789f1ef3cb1fdb2c48c13e52839aff67c8981304a9fbdae57",
        "snapshots/round_1.bin": "01ffec1c4b8629026f6532ce685c22fd2934ed3256a121117b0eb8ee2607b378",
        "snapshots/round_2.bin": "92fcc950d6995bdaa4ec7fa38d276d4efc4fe3522ac069474f2a7825fc7cee7c",
        "snapshots/round_3.bin": "376b0ba83421a0aa015401dd22f14e5752394ec6931520b7b7e6c9d8036a3cde",
    },
    "a1": {
        "metrics.csv": "4b08948e81ab6c83e75f3cfb88ae57871d398e4bed615ebf91e6ff86fae8f204",
        "convergence.csv": "17e0b721ec578459874ec4cd9351234634d761127d024a53c090381ab62d9e7c",
        "snapshots/round_1.bin": "0ebded00be24575a37fbc761961b480d679e0a2521d0bc2581890cd689f5ed3c",
        "snapshots/round_2.bin": "8e5475d240d0fc0f6d01b31e9ccb0ef251c27d7e4047c1d9d47dc15f582c6601",
        "snapshots/round_3.bin": "0a8086aec515212960dc262b135121d3522ee88db1c4ca2a6fb7967a5da4c118",
    },
    "a2": {
        "metrics.csv": "bd78d2fa24c208e8af7964867c9e9b3ca983a2e41ccc6c2b9834949527e6dd12",
        "convergence.csv": "cac94c4e15e8a2aa4c22cc15ff8dce2584429f2639f7b2c2b49ef7e5bb267415",
        "snapshots/round_1.bin": "3e501d96bb87109d59be0459ad56355ffc88b9bb2259cf3f6886e1ff8ace0073",
        "snapshots/round_2.bin": "8e6de4c9fecb037208c11a536b1683ec40c465327b60981ae46c080f08b7c6cb",
        "snapshots/round_3.bin": "d26c780dc48b8494863f7a4756806c3bbc687d83be95a74825b2545f8361d35a",
    },
    "a4": {
        "metrics.csv": "0eadfae9d2f8a6d377db314101694806a1c4dec2151e9caf8ff4af02ef742c8f",
        "convergence.csv": "95b6ceededf84ff0d7e43e30c46197009202249d99025ccabe91826f49936590",
        "snapshots/round_1.bin": "7176b28a95309dd8c5904b83cdb81d95a6e9c45c611429534bf66fe5baeb2491",
        "snapshots/round_2.bin": "852b12aef11a8537cc7a2020e034ebf79da8a49d9e59ad4fc7f970bdd91a51e6",
        "snapshots/round_3.bin": "005a33d62e5e048838c4a34cce3ec8cf19a62c4d9fdcb0dbd22ed6400353c016",
    },
    "fedavg": {
        "metrics.csv": "584fba92bb50a09f6f01b7c4b3c3ad31db494fc921f291f7e4fe4f9ab9ebce26",
        "convergence.csv": "c9078cfcb32010e8d167e628fee6aa5ac4141f772a1d766f2580a805418323e3",
        "snapshots/round_1.bin": "b2e0108520d59500f268a19626a2b9031eaa23d71ef54ef78c182b596d2787ba",
        "snapshots/round_2.bin": "377880066c556af597ab03a01d411201df734dbf70e4a819f4d1c2ded83dcd29",
        "snapshots/round_3.bin": "7ce7ccdac2ef98ddab907a50dbd257410769f10248cca44b25ead8d14a706194",
    },
    "local_one_task_one_expert": {
        "metrics.csv": "bd6237893185784fa03d98bd23465a22cd87f741112b07c5e6d1457efd13c72f",
        "convergence.csv": "df11b04c3b543d1e597d30738fad89ad2f188133567ede12533dffb04ccb1c85",
    },
    "main_three_tasks_no_tower": {
        "metrics.csv": "f8b0de1940831888f26c58ee1b12f3644af3862a3d5e78e61add75fe82311300",
        "convergence.csv": "22697d7e1d2c88c2d5ceabb650bc57060a7e136b7f80ca0827aeb9ac754757b8",
        "snapshots/round_1.bin": "9b4165a484397735f0e7b0844d03b7ff10863e89863ed151365845715a077adc",
        "snapshots/round_2.bin": "474812e858b746e0653e6b0c679eca65664e72f6f02cbb1a5de4217529725c5e",
        "snapshots/round_3.bin": "202c2e15217a2a0ca41c087c30895a64f813cd72853ad0bbf4628552d9883283",
    },
    "main_three_clients_three_experts": {
        "metrics.csv": "8c11e436daec429bc2b93311caa204f955145f89e297d350b3652a008a5c6641",
        "convergence.csv": "e5e4c5e929fdc39565610545d655eb7b079efae80bce6bd8ecd828657b61d0b7",
        "snapshots/round_1.bin": "03ed26131353c9017e2953d26f7452dbf6631628db8ba0a7cc34bd5a15bd2a46",
        "snapshots/round_2.bin": "26e124059054ce599712a5925eae39215ccea654763c9ac19bd7cec1b63f113d",
        "snapshots/round_3.bin": "ba12c3c16571156ae1cf9d903abe72805a502b4eaed8d4664fa3421759bd3f4c",
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


@pytest.mark.parametrize("problem", ["missing_csv", "single_class_test_partition"])
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
        assert built.buffer.grads.tobytes() == alone.buffer.grads.tobytes() == bytes(8 * alone.buffer.size)
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
