"""Synthetic multi-scenario multi-task data, CSV ingestion, and batching.

The synthetic generator draws standard-normal per-task coefficient vectors,
couples them across tasks by ``mixing_matrix(T, task_mix_alpha)``, perturbs
them per scenario (perturbation scale rho controls heterogeneity), samples
standard-normal features, and labels each task by a Bernoulli draw on the
logistic score divided by the temperature. The temperature alone sets the
logit scale. Splits are a fixed 70/15/15.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "DataError",
    "CsvSchema",
    "RecordSet",
    "ScenarioShard",
    "SyntheticSpec",
    "SyntheticTruth",
    "batch_iter",
    "load_csv",
    "mixing_matrix",
    "synthesize",
    "write_csv",
]

SPLIT_FRACTIONS = (0.70, 0.15, 0.15)


class DataError(ValueError):
    """Malformed dataset input (schema violations, unparsable rows)."""


@dataclass(frozen=True)
class RecordSet:
    """Column-packed examples: dense features (n, d) and binary labels (n, T)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise DataError("features and labels must be 2-D arrays")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError("features and labels row counts differ")
        if not np.isfinite(self.features).all():
            raise DataError("non-finite feature values")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise DataError("labels must be 0 or 1")

    def __len__(self) -> int:
        return self.features.shape[0]

    def tobytes(self) -> bytes:
        return self.features.tobytes() + self.labels.tobytes()


@dataclass(frozen=True)
class ScenarioShard:
    """One scenario's private data with disjoint train/val/test partitions."""

    scenario: int
    train: RecordSet
    val: RecordSet
    test: RecordSet

    def __post_init__(self):
        if min(len(self.train), len(self.val), len(self.test)) == 0:
            raise DataError(f"scenario {self.scenario}: every partition must be nonempty")

    def checksum(self) -> str:
        h = hashlib.sha256()
        for part in (self.train, self.val, self.test):
            h.update(part.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class SyntheticSpec:
    """The generator's settings, one per effect; a plain value that compares and hashes.

    ``task_mix_alpha`` defaults to 0 (independent tasks) here, while
    ``ExperimentConfig`` defaults it to 0.3. ``temperature`` alone scales
    the logits: both coefficient draws are standard normal.
    """

    n_scenarios: int
    n_tasks: int
    d_feat: int
    samples_per_scenario: int
    rho: float = 0.5
    task_mix_alpha: float = 0.0
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_scenarios, self.n_tasks, self.d_feat, self.samples_per_scenario) < 1:
            raise DataError("all synthetic counts must be positive")
        if self.rho < 0:
            raise DataError("rho must be >= 0")
        if not 0.0 <= self.task_mix_alpha <= 1.0:
            raise DataError(f"task_mix_alpha must be in [0, 1], got {self.task_mix_alpha}")
        if self.temperature <= 0:
            raise DataError("temperature must be > 0")


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground-truth coefficients behind a synthetic dataset (for oracles)."""

    theta_global: np.ndarray  # (T, d)
    theta_scenario: np.ndarray  # (S, T, d)


def mixing_matrix(n_tasks: int, alpha: float) -> np.ndarray:
    """Task coupling (1-alpha)*I + alpha*J/T; alpha=0 gives independent tasks."""
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"task mix alpha must be in [0, 1], got {alpha}")
    return (1.0 - alpha) * np.eye(n_tasks) + alpha * np.ones((n_tasks, n_tasks)) / n_tasks


def _split(features: np.ndarray, labels: np.ndarray, scenario: int) -> ScenarioShard:
    n = features.shape[0]
    n_train = int(np.floor(SPLIT_FRACTIONS[0] * n))
    n_val = int(np.floor(SPLIT_FRACTIONS[1] * n))
    if n_train < 1 or n_val < 1 or n - n_train - n_val < 1:
        raise DataError(f"scenario {scenario}: {n} samples cannot fill a 70/15/15 split")
    return ScenarioShard(
        scenario=scenario,
        train=RecordSet(features[:n_train].copy(), labels[:n_train].copy()),
        val=RecordSet(features[n_train : n_train + n_val].copy(), labels[n_train : n_train + n_val].copy()),
        test=RecordSet(features[n_train + n_val :].copy(), labels[n_train + n_val :].copy()),
    )


def synthesize(spec: SyntheticSpec) -> tuple[list[ScenarioShard], SyntheticTruth]:
    """Generate shards plus the coefficient ground truth."""
    rng = np.random.default_rng([spec.seed, 0x5EED])
    base = rng.normal(0.0, 1.0, size=(spec.n_tasks, spec.d_feat))
    theta_global = mixing_matrix(spec.n_tasks, spec.task_mix_alpha) @ base

    shards = []
    theta_all = np.empty((spec.n_scenarios, spec.n_tasks, spec.d_feat))
    for j in range(spec.n_scenarios):
        perturbation = rng.normal(0.0, 1.0, size=(spec.n_tasks, spec.d_feat))
        theta_j = theta_global + spec.rho * perturbation
        theta_all[j] = theta_j
        x = rng.standard_normal((spec.samples_per_scenario, spec.d_feat))
        logits = (x @ theta_j.T) / spec.temperature
        ez = np.exp(-np.abs(logits))  # overflow-safe in both tails
        probs = np.where(logits >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
        labels = (rng.random(probs.shape) < probs).astype(np.float64)
        shards.append(_split(x, labels, j))
    return shards, SyntheticTruth(theta_global=theta_global, theta_scenario=theta_all)


@dataclass(frozen=True)
class CsvSchema:
    feature_columns: tuple[str, ...]
    label_columns: tuple[str, ...]

    def __post_init__(self):
        if not self.feature_columns or not self.label_columns:
            raise DataError("schema needs at least one feature and one label column")
        overlap = set(self.feature_columns) & set(self.label_columns)
        if overlap:
            raise DataError(f"columns used as both feature and label: {sorted(overlap)}")
        for role, columns in (("feature", self.feature_columns), ("label", self.label_columns)):
            if len(set(columns)) < len(columns):
                raise DataError(f"{role} columns name {sorted({c for c in columns if columns.count(c) > 1})} more than once")


def _load_records(path: str, schema: CsvSchema) -> RecordSet:
    """The file's rows; DataError naming the file if it cannot be read as UTF-8 text or parsed."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: missing header row")
            missing = [c for c in (*schema.feature_columns, *schema.label_columns) if c not in reader.fieldnames]
            if missing:
                raise DataError(f"{path}: missing columns {missing}")
            feats, labs = [], []
            for line_no, row in enumerate(reader, start=2):
                try:
                    feat_row = [float(row[c]) for c in schema.feature_columns]
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{path}:{line_no}: non-numeric feature value ({exc})") from exc
                for c, value in zip(schema.feature_columns, feat_row):
                    if not math.isfinite(value):
                        raise DataError(f"{path}:{line_no}: feature column {c!r} must be finite, got {row[c]!r}")
                feats.append(feat_row)
                lab_row = []
                for c in schema.label_columns:
                    value = row[c]
                    if value not in ("0", "1"):
                        raise DataError(f"{path}:{line_no}: label column {c!r} must be 0 or 1, got {value!r}")
                    lab_row.append(float(value))
                labs.append(lab_row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read CSV file {path}: {exc}") from None
    if not feats:
        raise DataError(f"{path}: no data rows")
    return RecordSet(np.array(feats, dtype=np.float64), np.array(labs, dtype=np.float64))


def load_csv(path: str, schema: CsvSchema, scenario: int = 0) -> ScenarioShard:
    """Parse one CSV file and apply the 70/15/15 split in file order."""
    records = _load_records(path, schema)
    return _split(records.features, records.labels, scenario)


def write_csv(path: str, records: RecordSet, schema: CsvSchema) -> None:
    """Write records with round-trip-exact float formatting."""
    if records.features.shape[1] != len(schema.feature_columns):
        raise DataError("feature width does not match schema")
    if records.labels.shape[1] != len(schema.label_columns):
        raise DataError("label width does not match schema")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*schema.feature_columns, *schema.label_columns])
        for x, y in zip(records.features, records.labels):
            writer.writerow([*(repr(float(v)) for v in x), *(str(int(v)) for v in y)])


def batch_iter(records: RecordSet, batch_size: int, seed: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield shuffled (features, labels) batches; a trailing batch smaller than 2 is dropped."""
    if batch_size < 2:
        raise DataError(f"batch size must be >= 2, got {batch_size}")
    n = len(records)
    if n == 0:
        raise DataError("cannot batch an empty record set")
    order = np.arange(n)
    np.random.default_rng([seed, 0xBA7C]).shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        if idx.size < 2:
            break
        yield records.features[idx], records.labels[idx]
