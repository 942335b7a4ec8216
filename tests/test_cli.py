from fedmoe.cli import main
from fedmoe.config import ExperimentConfig


def test_selftest_passes_every_oracle(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines)


def test_run_with_invalid_config_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[experiment]\nrounds = 0\n\n[output]\nout_dir = " + str(tmp_path / "out") + "\n")
    assert main(["run", "--config", str(ini)]) == 2
    assert "experiment.rounds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_and_ablate_with_single_class_test_data_exit_2(tmp_path, capsys):
    ini = tmp_path / "tiny.ini"
    ExperimentConfig(samples_per_scenario=20, temperature=0.05, rounds=1, out_dir=str(tmp_path / "out")).save(ini)
    for command in ("run", "ablate"):
        assert main([command, "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "scenario 0, task 0" in err and "AUC is undefined" in err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_config_save_load_round_trip(tmp_path):
    config = ExperimentConfig(
        strategy="a2", rounds=7, local_epochs=2, seed=13, comm_per_batch=True,
        scenarios=4, tasks=3, experts=5, d_feat=9, expert_widths=(12, 6, 3), tower_widths=(),
        d_emb=7, dropout=0.125, learning_rate=3e-4, batch_size=64, lambda_reg=0.1, c=0.3,
        eta_psi=0.05, source="csv", csv_paths=("a.csv", "b.csv", "c.csv", "d.csv"),
        feature_columns=("f0", "f1"), label_columns=("click", "buy", "share"),
        samples_per_scenario=123, rho=0.25, coef_scale=2.0, temperature=0.7,
        task_mix_alpha=0.9, out_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "config.ini"
    config.save(path)
    assert ExperimentConfig.from_ini(path) == config
