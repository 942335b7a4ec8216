"""The workloads, one timed invocation of each, and the checks on its outputs.

Each workload is a closed loop with one caller: the benchmark process
calls the program's public entry point, waits for it to finish, checks
what it wrote, and only then starts the next invocation at the same seed.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterable

from fedmoe import harness
from fedmoe.config import ExperimentConfig
from fedmoe.federation.server import resolve_strategy, upload_keys
from fedmoe.federation.snapshot import read_snapshot
from fedmoe.model import ClientModel

from layers import SETUP_SPANS, coordinated_kinds
from spans import Patch, Tracer, patched

__all__ = ["OutputCheckError", "Workload", "WORKLOADS", "Invocation", "run_invocation", "check_experiment"]

FEDBN_RESIDUAL_LIMIT = 1e-9


class OutputCheckError(AssertionError):
    """An invocation finished but wrote something wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict = field(default_factory=dict)
    suite: bool = False  # run_ablation_suite instead of run_experiment


WORKLOADS = {
    w.name: w
    for w in (
        Workload("local_train", {"rounds": 2}),
        Workload("sync_per_batch", {"comm_per_batch": True, "scenarios": 4, "samples_per_scenario": 4000, "rounds": 30}),
        Workload("ablate_suite", {"rounds": 2, "samples_per_scenario": 2000}, suite=True),
    )
}


@dataclass(frozen=True)
class Invocation:
    """End-to-end facts of one invocation; times from the clock, the rest exact."""

    run_s: float
    setup_s: float
    rounds: int
    train_samples: int
    auc_mean: float
    upload_bytes_per_round: float
    digest: str  # sha256 over every file the invocation wrote

    @property
    def round_s(self) -> float:
        return (self.run_s - self.setup_s) / self.rounds

    @property
    def train_samples_per_s(self) -> float:
        return self.train_samples / (self.run_s - self.setup_s)

    def exact(self) -> tuple:
        """What must repeat bit for bit at one seed."""
        return (self.rounds, self.train_samples, self.auc_mean, self.upload_bytes_per_round, self.digest)


def run_invocation(workload: Workload, seed: int, out_dir: Path, patches: Iterable[Patch]) -> tuple[Invocation, Tracer]:
    """Run the workload once under ``patches``, then check what it wrote."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    config = ExperimentConfig(**workload.overrides, seed=seed, out_dir=str(out_dir))
    tracer = Tracer()
    gc.collect()  # garbage left by the previous invocation is not this one's cost
    with patched(tracer, patches):
        start = perf_counter()
        if workload.suite:
            runs = list(harness.run_ablation_suite(config, out_dir=out_dir).runs.values())
        else:
            runs = [harness.run_experiment(config, out_dir=out_dir, seed=seed)]
        run_s = perf_counter() - start

    setup_s = sum(s.duration for s in tracer.spans if s.name in SETUP_SPANS)
    rounds = 0
    train_samples = 0
    for cfg, train_sizes in tracer.facts.get("shards", []):
        rounds += cfg.rounds
        train_samples += cfg.rounds * sum(_samples_per_round(cfg, n) for n in train_sizes)
    if rounds == 0:
        raise OutputCheckError("no experiment built its data shards")

    auc_means, upload_bytes = [], []
    for art in runs:
        auc, upload = check_experiment(art)
        auc_means.append(auc)
        upload_bytes.append(upload)
    invocation = Invocation(
        run_s=run_s,
        setup_s=setup_s,
        rounds=rounds,
        train_samples=train_samples,
        auc_mean=sum(auc_means) / len(auc_means),
        upload_bytes_per_round=sum(upload_bytes) / len(upload_bytes),
        digest=_digest(out_dir),
    )
    return invocation, tracer


def _samples_per_round(config: ExperimentConfig, n_train: int) -> int:
    """Training samples one client consumes per round (batch_iter drops a last batch of 1)."""
    if config.comm_per_batch:
        return config.local_epochs * min(config.batch_size, n_train)
    per_epoch = n_train - 1 if n_train % config.batch_size == 1 else n_train
    return config.local_epochs * per_epoch


def check_experiment(art) -> tuple[float, int]:
    """Check one experiment's files; return (final mean AUC, upload bytes per round)."""
    config = ExperimentConfig.from_ini(art.config_echo_path)
    where = art.out_dir.name

    rows = _read_csv(art.metrics_path, ["round", "client", "task", "auc", "bce"])
    expected = config.rounds * config.scenarios * config.tasks
    if len(rows) != expected:
        raise OutputCheckError(f"{where}: metrics.csv has {len(rows)} rows, expected {expected}")
    aucs = [float(r[3]) for r in rows]
    if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in aucs):
        raise OutputCheckError(f"{where}: an AUC is not a finite value in [0, 1]")
    final = [float(r[3]) for r in rows if int(r[0]) == config.rounds]
    final_mean = sum(final) / len(final)
    if not final_mean > 0.5:
        raise OutputCheckError(f"{where}: final-round mean AUC {final_mean} is not above 0.5")

    conv = _read_csv(art.convergence_path, ["round", "client", "train_loss"])
    if len(conv) != config.rounds * config.scenarios:
        raise OutputCheckError(f"{where}: convergence.csv has {len(conv)} rows")

    if not art.fedbn_residual_max < FEDBN_RESIDUAL_LIMIT:
        raise OutputCheckError(f"{where}: FedBN residual {art.fedbn_residual_max} >= {FEDBN_RESIDUAL_LIMIT}")

    plan = resolve_strategy(config.strategy)
    model = ClientModel(config.model_spec(0), init_seed=config.seed)
    keys = upload_keys(plan, model)
    params = model.key_map()
    upload_bytes = config.scenarios * sum(params[k].data.nbytes for k in keys)

    if plan.uses_server:
        kinds = coordinated_kinds(plan)
        n_coord = sum(k.kind in kinds for k in keys)
        names = sorted(p.name for p in art.snapshot_dir.iterdir())
        want = sorted(f"round_{r}.bin" for r in range(1, config.rounds + 1))
        if names != want:
            raise OutputCheckError(f"{where}: snapshots {names}, expected {want}")
        for r in range(1, config.rounds + 1):
            strategy, round_index, entries = read_snapshot(art.snapshot_dir / f"round_{r}.bin")
            # norm/ per coordinated key and client, ref/ and set/ per key;
            # from round 2 the coordinated keys trade set/ for dmean/ + ustar/.
            n_entries = config.scenarios * n_coord + 2 * len(keys) + (n_coord if r >= 2 else 0)
            if (strategy, round_index, len(entries)) != (config.strategy, r, n_entries):
                raise OutputCheckError(
                    f"{where}: round_{r}.bin reads back as ({strategy}, {round_index}, {len(entries)} entries), "
                    f"expected ({config.strategy}, {r}, {n_entries})"
                )
    return final_mean, upload_bytes


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise OutputCheckError(f"{path.name}: header {rows[:1]}, expected {header}")
    return rows[1:]


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()
