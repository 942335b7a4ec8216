"""Experiment configuration: a flat key/value file with one section per area.

Example:

    [experiment]
    strategy = main
    rounds = 10
    local_epochs = 1
    seed = 1

    [model]
    scenarios = 3
    tasks = 2
    experts = 4
    d_feat = 16
    expert_widths = 32,16
    tower_widths = 16,8

    [data]
    source = synthetic
    samples_per_scenario = 20000

Validation collects every violation and reports them together.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .data import CsvSchema, SyntheticSpec
from .federation.server import STRATEGY_IDS, resolve_strategy
from .model import ModelSpec

__all__ = ["ConfigError", "ExperimentConfig"]


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))


_SECTIONS = {
    "experiment": ("strategy", "rounds", "local_epochs", "seed", "comm_per_batch"),
    "model": (
        "scenarios", "tasks", "experts", "d_feat",
        "expert_widths", "tower_widths", "d_emb", "dropout",
    ),
    "optim": ("learning_rate", "batch_size", "c", "eta_psi"),
    "data": (
        "source", "samples_per_scenario", "rho", "temperature",
        "task_mix_alpha", "csv_paths", "feature_columns", "label_columns",
    ),
    "output": ("out_dir",),
}


@dataclass
class ExperimentConfig:
    # experiment
    strategy: str = "main"
    rounds: int = 10
    local_epochs: int = 1
    seed: int = 1
    comm_per_batch: bool = False
    # model
    scenarios: int = 3
    tasks: int = 2
    experts: int = 4
    d_feat: int = 16
    expert_widths: tuple[int, ...] = (32, 16)
    tower_widths: tuple[int, ...] = (16, 8)
    d_emb: int = 16
    dropout: float = 0.2
    # optim
    learning_rate: float = 1e-3
    batch_size: int = 256
    c: float = 0.4
    eta_psi: float = 0.01
    # data
    source: str = "synthetic"
    samples_per_scenario: int = 20000
    rho: float = 0.5
    temperature: float = 1.0
    task_mix_alpha: float = 0.3
    csv_paths: tuple[str, ...] = ()
    feature_columns: tuple[str, ...] = ()
    label_columns: tuple[str, ...] = ()
    # output
    out_dir: str = "runs/out"

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        # NaN passes every range check below, so finiteness comes first.
        problems = [
            f"{section}.{name}: must be finite, got {getattr(self, name)}"
            for section, names in _SECTIONS.items()
            for name in names
            if isinstance(getattr(self, name), float) and not math.isfinite(getattr(self, name))
        ]
        if self.strategy not in STRATEGY_IDS:
            problems.append(f"experiment.strategy: {self.strategy!r} not in {STRATEGY_IDS}")
        if self.rounds < 1:
            problems.append(f"experiment.rounds: must be >= 1, got {self.rounds}")
        if self.local_epochs < 1:
            problems.append(f"experiment.local_epochs: must be >= 1, got {self.local_epochs}")
        if self.seed < 0:
            problems.append(f"experiment.seed: must be >= 0, got {self.seed}")
        if self.experts < 1:
            problems.append(f"model.experts: must be >= 1, got {self.experts}")
        if self.tasks < 1:
            problems.append(f"model.tasks: must be >= 1, got {self.tasks}")
        if self.scenarios < 1:
            problems.append(f"model.scenarios: must be >= 1, got {self.scenarios}")
        if self.strategy in STRATEGY_IDS and self.scenarios < 2 and resolve_strategy(self.strategy).uses_server:
            problems.append(f"model.scenarios: federated strategy {self.strategy!r} needs >= 2 clients")
        if self.d_feat < 1:
            problems.append(f"model.d_feat: must be >= 1, got {self.d_feat}")
        if self.d_emb < 1:
            problems.append(f"model.d_emb: must be >= 1, got {self.d_emb}")
        if not self.expert_widths or any(w < 1 for w in self.expert_widths):
            problems.append(f"model.expert_widths: need positive layer widths, got {self.expert_widths}")
        if any(w < 1 for w in self.tower_widths):
            problems.append(f"model.tower_widths: widths must be positive, got {self.tower_widths}")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"model.dropout: must be in [0, 1), got {self.dropout}")
        if self.learning_rate < 0:
            problems.append(f"optim.learning_rate: must be >= 0, got {self.learning_rate}")
        if self.batch_size < 2:
            problems.append(f"optim.batch_size: must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.c < 1.0:
            problems.append(f"optim.c: must be in [0, 1), got {self.c}")
        if self.eta_psi < 0:
            problems.append(f"optim.eta_psi: must be >= 0, got {self.eta_psi}")
        if self.source not in ("synthetic", "csv"):
            problems.append(f"data.source: {self.source!r} not in ('synthetic', 'csv')")
        if self.source == "synthetic":
            if self.samples_per_scenario < 20:
                problems.append(
                    f"data.samples_per_scenario: need >= 20 for a 70/15/15 split, got {self.samples_per_scenario}"
                )
            if self.rho < 0:
                problems.append(f"data.rho: must be >= 0, got {self.rho}")
            if self.temperature <= 0:
                problems.append(f"data.temperature: must be > 0, got {self.temperature}")
            if not 0.0 <= self.task_mix_alpha <= 1.0:
                problems.append(f"data.task_mix_alpha: must be in [0, 1], got {self.task_mix_alpha}")
        if self.source == "csv":
            if len(self.csv_paths) != self.scenarios:
                problems.append(
                    f"data.csv_paths: need one path per scenario ({self.scenarios}), got {len(self.csv_paths)}"
                )
            if not self.feature_columns:
                problems.append("data.feature_columns: required for csv source")
            elif len(self.feature_columns) != self.d_feat:
                problems.append(
                    f"data.feature_columns: {len(self.feature_columns)} columns but model.d_feat is {self.d_feat}"
                )
            if len(self.label_columns) != self.tasks:
                problems.append(
                    f"data.label_columns: need one per task ({self.tasks}), got {len(self.label_columns)}"
                )
        # A value that the config file cannot hold, such as a path with a
        # comma or edge spaces, would make config.echo read back as another run.
        types = {f.name: str(f.type) for f in fields(self)}
        for section, names in _SECTIONS.items():
            for name in names:
                value = getattr(self, name)
                if isinstance(value, (str, tuple)):
                    text = _format_value(value)
                    try:
                        back = _parse_value(text, value, types[name])
                    except ValueError:
                        back = None
                    if back != value:
                        problems.append(f"{section}.{name}: {value!r} does not read back from its INI text {text!r}")
        if problems:
            raise ConfigError(problems)

    # -- derived views ----------------------------------------------------------

    def model_spec(self, scenario: int) -> ModelSpec:
        return ModelSpec(
            scenario=scenario,
            n_scenarios=self.scenarios,
            n_tasks=self.tasks,
            n_experts=self.experts,
            d_feat=self.d_feat,
            expert_widths=tuple(self.expert_widths),
            tower_widths=tuple(self.tower_widths),
            d_emb=self.d_emb,
            dropout=self.dropout,
        )

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            n_scenarios=self.scenarios,
            n_tasks=self.tasks,
            d_feat=self.d_feat,
            samples_per_scenario=self.samples_per_scenario,
            rho=self.rho,
            task_mix_alpha=self.task_mix_alpha,
            temperature=self.temperature,
            seed=self.seed,
        )

    def csv_schema(self) -> CsvSchema:
        return CsvSchema(feature_columns=tuple(self.feature_columns), label_columns=tuple(self.label_columns))

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    # -- serialization ------------------------------------------------------------

    def to_ini(self) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        for section, names in _SECTIONS.items():
            parser[section] = {}
            for name in names:
                parser[section][name] = _format_value(getattr(self, name))
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_ini(), encoding="utf-8")

    @classmethod
    def from_ini(cls, path: str | Path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)  # "%" is a plain character
        try:
            read = parser.read(path, encoding="utf-8-sig")  # a leading byte-order mark is skipped
            sections = {section: dict(parser[section]) for section in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError([f"cannot parse config file {path}: {exc}"]) from None
        if not read:
            raise ConfigError([f"cannot read config file {path}"])
        problems: list[str] = []
        values: dict = {}
        known = {f.name: f for f in fields(cls)}
        defaults = cls()
        for section, items in sections.items():
            if section not in _SECTIONS:
                problems.append(f"unknown section [{section}]")
                continue
            for name, raw in items.items():
                if name not in _SECTIONS[section]:
                    problems.append(f"unknown key {section}.{name}")
                    continue
                try:
                    values[name] = _parse_value(raw, getattr(defaults, name), str(known[name].type))
                except ValueError as exc:
                    problems.append(f"{section}.{name}: {exc}")
        if problems:
            raise ConfigError(problems)
        return cls(**values)


def _format_value(value) -> str:
    """A field's text in the INI file: lists comma-joined, booleans lower-case, floats by repr."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(raw: str, default, type_hint: str):
    raw = raw.strip()
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        if raw == "":
            return ()
        parts = [p.strip() for p in raw.split(",")]
        if "" in parts:
            raise ValueError(f"empty element in list {raw!r}")
        if "int" in type_hint:
            return tuple(int(p) for p in parts)
        return tuple(parts)
    return raw
