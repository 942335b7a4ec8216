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
        "metrics.csv": "dea119d82057d18a604fa060f643e305a88dcaf281024f4b40e74181a9f55b82",
        "convergence.csv": "e5836b2d1927f91151b9684f0d9c9ffa9a0123ee075db64259d465326399f34e",
        "snapshots/round_1.bin": "273d995382c6b13812cfef77380353ce8138c868c17790e489c55ab7183db550",
        "snapshots/round_2.bin": "bbc4db0a60271b4f65e71c4782e0ce70578144ad7f8859c9af867c6a21d3e805",
        "snapshots/round_3.bin": "7e18926848da12f56b3ecc1391950d15d81ffc7d9f032efb8d9e6dc43420d312",
    },
    "a1": {
        "metrics.csv": "eea64587a964ae15850744e9816e92c520633fc1314f08addbd3a2b8cef79808",
        "convergence.csv": "309a5d81082ff093ca98734e510031c2493b2f322ad33f0919e19f6abfebee5f",
        "snapshots/round_1.bin": "c39d3db58403b0a49a5eb447c3cb119cc1338c8e1b486d9a2a9c640f1ca19f21",
        "snapshots/round_2.bin": "3306d7fb7e2c574c913ba918efb058620e3608505a3c5bc75af536c9a7d21863",
        "snapshots/round_3.bin": "8f31a1db28c0ea13b9fe6616504cc1be238f4c9edbe98c43d95cb573743b38e3",
    },
    "a2": {
        "metrics.csv": "d7465a56b1fdb17f7d13f7a023e666be50df45bbc93b6edcbbc959eff342a6d6",
        "convergence.csv": "1e715ab4e7bd7465b6d2e900e46eced183db3b019fba735b7b13920da97556a6",
        "snapshots/round_1.bin": "3a151f247e7b6198fd2135b02ce8ac8cde0873dd6230b5dd9b2e69a3d53f5cca",
        "snapshots/round_2.bin": "37a6268a1e25246d06af06e6f02831c91e4e8a5bfa53ea4508fd3d645f9a29a0",
        "snapshots/round_3.bin": "37c137be5707ca50d552635d585d30132ce44307bb1981dd549a347a6d8523fa",
    },
    "a4": {
        "metrics.csv": "d6c12d60c9c8f4447700e23d4e0fbac5dd8ed9f76eed6d363d11c48cc6c3a538",
        "convergence.csv": "f8aa0c29109fa8dd21c821f4b4a3c1cd34e2bc5a5f308a0f9dd8760a8de9e91b",
        "snapshots/round_1.bin": "4ca025fdcc23cea3cf048f26ad6291bed51a607dfae34b0f33692a71943bc18c",
        "snapshots/round_2.bin": "a9e018a00ce5714fcb1f88c64ce90447cc40a3d5d2b5b00c6faafa562de130fb",
        "snapshots/round_3.bin": "b6ffab1cdfc407e74df8d9b76158ee6eb0d37995ab4b1b6621401fade190e753",
    },
    "fedavg": {
        "metrics.csv": "bf2d2bcd1170eaa7f5503fa00898a7af03227d6116d38b2d586f2e2fd6ded73e",
        "convergence.csv": "d4fb549d1548b8c1405ccc785f7cf1db174585bb932f9e6c1b0c0b8d5b19b57f",
        "snapshots/round_1.bin": "ce6a39d6ba59fbdbb3cf481b5e2945083ae68996afed474bf734071d83751e06",
        "snapshots/round_2.bin": "1ab4f1e25d08d5fdd6b439a766b9110a2194dbe0d40fe53d2f848e1e59d24c47",
        "snapshots/round_3.bin": "658b7bab96e495be8da8e2b694852e355fd38b3610c7bbaf126c12219b5d3206",
    },
    "local_one_task_one_expert": {
        "metrics.csv": "bd6237893185784fa03d98bd23465a22cd87f741112b07c5e6d1457efd13c72f",
        "convergence.csv": "df11b04c3b543d1e597d30738fad89ad2f188133567ede12533dffb04ccb1c85",
    },
    "main_three_tasks_no_tower": {
        "metrics.csv": "1af23f65f4fb6522b1f4fd4847b6787892f917d1b5d9c7dbdca8e063ac10b57f",
        "convergence.csv": "1f59b76c0abd10d1e292b8ca60fd871e638e5f07f5981eb24fe92d03eb41f9cf",
        "snapshots/round_1.bin": "ecbd5294c50ae7d2a9cc1673992c96875b114673c8e84982466f95f8da3bb770",
        "snapshots/round_2.bin": "02609d3c0a8d04850cabc72dcb2528f9742b1b6861a92385a6fe526e6343a070",
        "snapshots/round_3.bin": "bd159e9cf52b2bf68c328de68e1b69567ed18156c4237dca4f55c3e3d3e79b29",
    },
    "main_three_clients_three_experts": {
        "metrics.csv": "bdcf79fd640558064654edc07093260be7989ae352df5e6fc9857d82ca36cfa5",
        "convergence.csv": "aa3ea69496ac401b3bea363df92c5641ed22aaad55d15ebdcb5a8b901d399e14",
        "snapshots/round_1.bin": "3aaeac241290501cdc859759e8d1b5ec8612cb6ab9d595d7008fd85ad3703257",
        "snapshots/round_2.bin": "6afb9032de42569130189c01441c91896d5993f1b16a2b1404ee6de369da625a",
        "snapshots/round_3.bin": "307fd0bba571f236efad7c34aec6520798905ef0352a693b6bda68fc1735aaf1",
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

    def fail_in_round_two(model, records, round_index=0, **kwargs):
        if round_index == 2:
            raise RuntimeError("evaluation failed")
        return evaluate_client(model, records, round_index=round_index, **kwargs)

    monkeypatch.setattr(client_mod, "evaluate_client", fail_in_round_two)
    config = small_config(out_dir=str(tmp_path / "run"))
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
