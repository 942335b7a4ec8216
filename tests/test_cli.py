import configparser
import math
import textwrap
from dataclasses import fields

import pytest

from fedmoe import config as config_module
from fedmoe import harness
from fedmoe.cli import main
from fedmoe.config import ConfigError, ExperimentConfig
from fedmoe.federation.server import resolve_strategy

FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if isinstance(f.default, float)]


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


@pytest.mark.parametrize("key", ["optim.lambda_reg", "data.coef_scale"])
@pytest.mark.parametrize("command", ["run", "ablate"])
def test_removed_key_exits_2_before_any_set_up(command, key, tmp_path, capsys):
    """A removed option is no key: an INI that sets it is refused by name before any set-up."""
    section, name = key.split(".")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({"experiment": {"rounds": "1"}, "data": {"samples_per_scenario": "200"}})
    parser.read_dict({section: {name: "0.5"}, "output": {"out_dir": str(tmp_path / "out")}})
    ini = tmp_path / "old.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert main([command, "--config", str(ini)]) == 2
    assert f"unknown key {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        b"[experiment]\nrounds = 1\n\n[experiment]\nseed = 2\n",
        b"[experiment]\nrounds = 1\nrounds = 2\n",
        b"rounds = 1\n",
        b"[experiment]\nstrategy = \xff\n",
    ],
    ids=["duplicate_section", "duplicate_key", "no_section_header", "not_utf8"],
)
def test_unparsable_config_exits_2_naming_the_file(tmp_path, capsys, text):
    ini = tmp_path / "broken.ini"
    ini.write_bytes(text)
    assert main(["run", "--config", str(ini)]) == 2
    assert f"cannot parse config file {ini}" in capsys.readouterr().err


def test_run_with_a_percent_sign_in_the_paths_exits_0(tmp_path, capsys):
    """"%" is a plain character in config files, both in the one read and in config.echo."""
    config = ExperimentConfig(
        rounds=1, scenarios=2, experts=2, d_feat=4, expert_widths=(6, 3), tower_widths=(4,),
        samples_per_scenario=200, batch_size=32, out_dir=str(tmp_path / "runs" / "100%"),
    )
    ini = tmp_path / "percent.ini"
    config.save(ini)
    out = tmp_path / "runs" / "50%"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    assert ExperimentConfig.from_ini(ini) == config
    assert ExperimentConfig.from_ini(out / "config.echo") == config.with_overrides(out_dir=str(out))


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_out_path_that_is_a_file_exits_2_before_any_set_up(tmp_path, capsys, monkeypatch, command, under):
    existing = tmp_path / "taken"
    existing.write_bytes(b"not a run directory")
    ini = tmp_path / "experiment.ini"
    ExperimentConfig(out_dir=str(tmp_path / "out")).save(ini)

    def no_set_up(config):
        raise AssertionError("shards were built for an output path that cannot be a directory")

    monkeypatch.setattr(harness, "build_shards", no_set_up)
    out = existing / "run" if under else existing
    assert main([command, "--config", str(ini), "--out", str(out)]) == 2
    assert f"output.out_dir: {existing} exists and is not a directory" in capsys.readouterr().err
    assert existing.read_bytes() == b"not a run directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["experiment.ini", "taken"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_field_is_rejected_by_name(name, value):
    with pytest.raises(ConfigError, match=rf"\.{name}: must be finite, got {value}"):
        ExperimentConfig(**{name: value}).validate()


def test_run_and_ablate_with_single_class_test_data_exit_2(tmp_path, capsys):
    ini = tmp_path / "tiny.ini"
    ExperimentConfig(samples_per_scenario=20, temperature=0.05, rounds=1, out_dir=str(tmp_path / "out")).save(ini)
    for command in ("run", "ablate"):
        assert main([command, "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "scenario 0, task 0" in err and "AUC is undefined" in err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_csv_feature_width_must_match_d_feat(tmp_path, capsys):
    out = tmp_path / "out"
    paths = []
    for scenario in range(2):
        path = tmp_path / f"s{scenario}.csv"
        path.write_text("f0,f1,f2,click,buy\n" + "0.1,0.2,0.3,1,0\n" * 40)
        paths.append(str(path))
    ini = tmp_path / "narrow.ini"
    ExperimentConfig(
        scenarios=2, d_feat=16, source="csv", csv_paths=tuple(paths),
        feature_columns=("f0", "f1", "f2"), label_columns=("click", "buy"), out_dir=str(out),
    ).save(ini)
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "data.feature_columns: 3 columns but model.d_feat is 16" in err
    assert not (out / "config.echo").exists()


def test_negative_rho_exits_2_naming_the_field(tmp_path, capsys):
    ini = tmp_path / "negative.ini"
    ExperimentConfig(rho=-1.0, out_dir=str(tmp_path / "out")).save(ini)
    assert main(["run", "--config", str(ini)]) == 2
    assert "data.rho: must be >= 0, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem", ["missing", "directory", "not_utf8"])
def test_unreadable_csv_exits_2_naming_the_file(tmp_path, capsys, problem):
    good = tmp_path / "good.csv"
    good.write_text("f0,click\n" + "0.5,1\n0.25,0\n" * 20)
    bad = tmp_path / "bad.csv"
    if problem == "directory":
        bad.mkdir()
    elif problem == "not_utf8":
        bad.write_bytes(b"f0,click\n0.5,1\n\xff\xfe,0\n")
    ini = tmp_path / "csv.ini"
    ExperimentConfig(
        scenarios=2, tasks=1, d_feat=1, source="csv", csv_paths=(str(good), str(bad)),
        feature_columns=("f0",), label_columns=("click",), out_dir=str(tmp_path / "out"),
    ).save(ini)
    assert main(["run", "--config", str(ini)]) == 2
    assert f"cannot read CSV file {bad}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, name, raw",
    [
        ("model", "expert_widths", "32,,16"),
        ("model", "expert_widths", "32,16,"),
        ("data", "csv_paths", "a.csv,,b.csv"),
        ("data", "feature_columns", "f0,f1,"),
        ("data", "label_columns", ",click"),
    ],
)
def test_list_value_with_an_empty_element_exits_2_naming_the_field(tmp_path, capsys, section, name, raw):
    ini = tmp_path / "empty.ini"
    ini.write_text(f"[{section}]\n{name} = {raw}\n\n[output]\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(ini)]) == 2
    assert f"{section}.{name}: empty element in list {raw!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ini_keys_are_the_config_fields_each_in_one_section():
    """Every field is written, and so can be read back, under exactly one section; no other key is."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(ExperimentConfig().to_ini())
    keys = [name for section in parser.sections() for name in parser[section]]
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
    assert "lambda_reg" not in keys


def test_module_docstring_example_loads_and_validates(tmp_path):
    """The documented INI format stays in step with the keys."""
    doc = config_module.__doc__
    example = doc[doc.index("Example:") + len("Example:") : doc.index("Validation")]
    path = tmp_path / "example.ini"
    path.write_text(textwrap.dedent(example), encoding="utf-8")
    config = ExperimentConfig.from_ini(path)
    config.validate()
    assert (config.strategy, config.rounds, config.expert_widths) == ("main", 10, (32, 16))


@pytest.mark.parametrize(
    "view",
    [
        lambda config: config.model_spec(0),
        lambda config: config.synthetic_spec(),
        lambda config: config.with_overrides(
            source="csv", feature_columns=("f0", "f1"), label_columns=("click", "buy")
        ).csv_schema(),
        lambda config: resolve_strategy(config.strategy),
    ],
    ids=["model_spec", "synthetic_spec", "csv_schema", "resolve_strategy"],
)
def test_derived_views_compare_and_hash_as_values(view):
    a, b = view(ExperimentConfig()), view(ExperimentConfig())
    assert a == b and hash(a) == hash(b)


def test_config_save_load_round_trip(tmp_path):
    config = ExperimentConfig(
        strategy="a2", rounds=7, local_epochs=2, seed=13, comm_per_batch=True,
        scenarios=4, tasks=3, experts=5, d_feat=9, expert_widths=(12, 6, 3), tower_widths=(),
        d_emb=7, dropout=0.125, learning_rate=3e-4, batch_size=64, c=0.3,
        eta_psi=0.05, source="csv", csv_paths=("a.csv", "b.csv", "c.csv", "d.csv"),
        feature_columns=("f0", "f1"), label_columns=("click", "buy", "share"),
        samples_per_scenario=123, rho=0.25, temperature=0.7,
        task_mix_alpha=0.9, out_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "config.ini"
    config.save(path)
    assert ExperimentConfig.from_ini(path) == config


def test_config_with_a_leading_byte_order_mark_loads(tmp_path):
    """An INI saved as "UTF-8 with BOM" reads as the same config; the echo is written without one."""
    config = ExperimentConfig(strategy="a2", rounds=3, seed=5)
    path = tmp_path / "config.ini"
    config.save(path)
    assert not path.read_bytes().startswith(b"\xef\xbb\xbf")
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert ExperimentConfig.from_ini(path) == config


@pytest.mark.parametrize(
    "section, name, value",
    [
        ("data", "csv_paths", ("a,1.csv", "b.csv")),
        ("data", "csv_paths", ("", "b.csv")),
        ("data", "label_columns", (" click", "buy")),
        ("output", "out_dir", " runs/x "),
    ],
    ids=["comma_in_an_element", "empty_element", "edge_space_in_an_element", "edge_spaces"],
)
def test_value_that_does_not_read_back_is_rejected_by_name(tmp_path, section, name, value):
    """A config that validates writes a config.echo that reads back as the same config."""
    good = ExperimentConfig(
        scenarios=2, source="csv", csv_paths=("a.csv", "b.csv"),
        feature_columns=tuple(f"f{i}" for i in range(16)), label_columns=("click", "buy"),
    )
    good.validate()
    bad = good.with_overrides(**{name: value})
    bad.save(tmp_path / "config.echo")
    try:
        echoed = ExperimentConfig.from_ini(tmp_path / "config.echo")
    except ConfigError:
        echoed = None
    assert echoed != bad
    with pytest.raises(ConfigError) as info:
        bad.validate()
    (problem,) = info.value.problems
    assert problem.startswith(f"{section}.{name}: {value!r} does not read back")


def test_ablate_validates_every_variant_before_making_the_output_directory(tmp_path, capsys):
    """A one-client local config is valid, but its federated variants are not: nothing is written."""
    ini = tmp_path / "one_client.ini"
    ExperimentConfig(strategy="local", scenarios=1, out_dir=str(tmp_path / "out")).save(ini)
    assert main(["ablate", "--config", str(ini)]) == 2
    assert "model.scenarios: federated strategy 'a1' needs >= 2 clients" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
