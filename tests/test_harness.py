import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedmoe
from fedmoe import harness
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
