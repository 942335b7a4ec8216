"""Experiment orchestration: build clients, run rounds, emit artifacts.

A run writes, under its output directory:

    config.echo          resolved configuration (re-runnable)
    metrics.csv          round, client, task, auc, bce  (one row per triple)
    convergence.csv      round, client, train_loss
    snapshots/round_<r>.bin   server state per round (absent for strategy "local")

Every float is emitted with repr(), so identical runs produce identical
bytes. Both CSVs are written and flushed round by round, so a run that
fails leaves the rows of every finished round. Clients execute in
canonical index order; the directive application is the synchronization
barrier.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import data as data_mod
from .config import ConfigError, ExperimentConfig
from .federation.client import ClientSim
from .federation.server import FederationServer, resolve_strategy, upload_keys
from .federation.snapshot import write_snapshot
from .model import ClientModel, initial_buffers

__all__ = ["RunArtifacts", "AblationArtifacts", "build_shards", "build_clients", "run_experiment", "run_ablation_suite"]

ABLATION_VARIANTS = ("a1", "a2", "a3", "a4")
EXPERT_SWEEP = (2, 3, 4, 5, 6)


@dataclass
class RunArtifacts:
    out_dir: Path
    metrics_path: Path
    convergence_path: Path
    config_echo_path: Path
    snapshot_dir: Optional[Path]
    shard_checksum: str
    final_auc: dict[tuple[int, int], float] = field(default_factory=dict)  # (client, task), last round
    fedbn_residual_max: float = 0.0

    def final_mean_auc(self) -> float:
        return float(np.mean(list(self.final_auc.values())))


def build_shards(config: ExperimentConfig) -> list[data_mod.ScenarioShard]:
    """Each scenario's partitions; DataError if a test partition cannot be scored."""
    if config.source == "synthetic":
        shards = data_mod.synthesize(config.synthetic_spec())[0]
    else:
        schema = config.csv_schema()
        shards = [data_mod.load_csv(path, schema, scenario=j) for j, path in enumerate(config.csv_paths)]
    for shard in shards:
        labels = shard.test.labels
        for i in range(labels.shape[1]):
            if labels[:, i].min() == labels[:, i].max():
                raise data_mod.DataError(
                    f"scenario {shard.scenario}, task {i}: every test label is {labels[0, i]:g}, so test AUC is undefined"
                )
    return shards


def build_clients(config: ExperimentConfig, shards: list[data_mod.ScenarioShard]) -> list[ClientSim]:
    buffers = initial_buffers(config.model_spec(0), config.seed, range(config.scenarios))
    clients = []
    for j in range(config.scenarios):
        model = ClientModel(config.model_spec(j), init_seed=config.seed, buffer=buffers[j])
        clients.append(
            ClientSim(
                model,
                shards[j],
                lr=config.learning_rate,
                eta_psi=config.eta_psi,
                batch_size=config.batch_size,
                seed=config.seed,
            )
        )
    return clients


def run_experiment(
    config: ExperimentConfig,
    out_dir: Optional[str | Path] = None,
    seed: Optional[int] = None,
) -> RunArtifacts:
    """Run one full experiment; deterministic for a fixed config and seed."""
    if seed is not None:
        config = config.with_overrides(seed=int(seed))
    if out_dir is not None:
        config = config.with_overrides(out_dir=str(out_dir))
    config.validate()
    out = Path(config.out_dir)
    _require_directory(out)
    shards = build_shards(config)  # before any file is touched: bad data leaves an earlier run intact
    checksum = _combined_checksum(shards)
    clients = build_clients(config, shards)
    plan = resolve_strategy(config.strategy)
    keys = upload_keys(plan, clients[0].model)

    out.mkdir(parents=True, exist_ok=True)
    echo_path = out / "config.echo"
    config.save(echo_path)
    snapshots = out / "snapshots"
    for stale in snapshots.glob("round_*.bin"):  # an earlier run's rounds; this run may stop sooner
        stale.unlink()
    if snapshots.is_dir() and not any(snapshots.iterdir()):  # a local run leaves no snapshots/
        snapshots.rmdir()

    server: Optional[FederationServer] = None
    snapshot_dir: Optional[Path] = None
    if plan.uses_server:
        server = FederationServer(plan, c=config.c)
        snapshot_dir = snapshots
        snapshot_dir.mkdir(exist_ok=True)

    artifacts = RunArtifacts(
        out_dir=out,
        metrics_path=out / "metrics.csv",
        convergence_path=out / "convergence.csv",
        config_echo_path=echo_path,
        snapshot_dir=snapshot_dir,
        shard_checksum=checksum,
    )

    max_batches = 1 if config.comm_per_batch else None
    with (
        open(artifacts.metrics_path, "w", newline="", encoding="utf-8") as metrics_fh,
        open(artifacts.convergence_path, "w", newline="", encoding="utf-8") as convergence_fh,
    ):
        metrics = csv.writer(metrics_fh)
        metrics.writerow(("round", "client", "task", "auc", "bce"))
        convergence = csv.writer(convergence_fh)
        convergence.writerow(("round", "client", "train_loss"))
        for r in range(1, config.rounds + 1):
            for client in clients:
                client.begin_round(keys)
                loss = client.local_phase(r, epochs=config.local_epochs, max_batches=max_batches)
                convergence.writerow(_format_row((r, client.index, loss)))

            if server is not None:
                uploads = {client.index: client.build_upload(keys) for client in clients}
                directive = server.aggregate(uploads, r)
                artifacts.fedbn_residual_max = max(artifacts.fedbn_residual_max, directive.fedbn_residual)
                for client in clients:
                    client.apply_directive(directive)
                for client in clients:
                    client.meta_update_psi(directive)
                write_snapshot(snapshot_dir / f"round_{r}.bin", plan.name, r, server.last_snapshot_entries)

            for client in clients:
                report = client.evaluate()
                for i in range(config.tasks):
                    metrics.writerow(_format_row((r, client.index, i, report.auc[i], report.bce[i])))
                    artifacts.final_auc[(client.index, i)] = report.auc[i]
            convergence_fh.flush()
            metrics_fh.flush()
    return artifacts


@dataclass
class AblationArtifacts:
    out_dir: Path
    table_path: Path
    log_path: Path
    runs: dict[str, RunArtifacts]
    shard_checksums: dict[str, str]


def run_ablation_suite(config: ExperimentConfig, out_dir: Optional[str | Path] = None) -> AblationArtifacts:
    """Aggregation variants plus the expert-count sweep, on shared seeds and data.

    The table has one row per variant and one final-round AUC column per
    (client, task) pair. Each distinct configuration (the strategy's
    modes, plus the expert count) runs once; a label that repeats
    one, such as ``a3`` and ``expert_<experts>`` (both equal to ``main``),
    shares the first label's run, and ``ablation.log`` names that run.
    Every variant's config is validated before the output directory is made.
    """
    config.validate()
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    _require_directory(out)

    variants = [(name, name, config.experts) for name in ABLATION_VARIANTS]
    variants += [(f"expert_{n}", "main", n) for n in EXPERT_SWEEP]
    first_label: dict[tuple, str] = {}
    source: dict[str, str] = {}  # each label's run: its own, or the first equal configuration's
    subs: dict[str, ExperimentConfig] = {}
    for label, strategy, experts in variants:
        source[label] = first_label.setdefault((resolve_strategy(strategy).modes, experts), label)
        if source[label] == label:
            subs[label] = config.with_overrides(strategy=strategy, experts=experts, out_dir=str(out / f"variant_{label}"))
            subs[label].validate()
    out.mkdir(parents=True, exist_ok=True)
    runs = {label: run_experiment(sub) for label, sub in subs.items()}
    runs = {label: runs[first] for label, first in source.items()}
    checksums = {label: art.shard_checksum for label, art in runs.items()}

    table_path = out / "table.csv"
    header = ["config"]
    for j in range(config.scenarios):
        for i in range(config.tasks):
            header.append(f"client{j}_task{i}_auc")
    rows = [(label, *art.final_auc.values()) for label, art in runs.items()]
    _write_csv(table_path, tuple(header), rows)

    log_path = out / "ablation.log"
    with open(log_path, "w", encoding="utf-8") as fh:
        for label, digest in checksums.items():
            reused = f" reuses={source[label]}" if source[label] != label else ""
            fh.write(f"{label} shard_sha256={digest}{reused}\n")
    return AblationArtifacts(out_dir=out, table_path=table_path, log_path=log_path, runs=runs, shard_checksums=checksums)


def _require_directory(out: Path) -> None:
    """Reject an output path that is, or lies under, an existing non-directory."""
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError([f"output.out_dir: {existing} exists and is not a directory"])


def _combined_checksum(shards: list[data_mod.ScenarioShard]) -> str:
    import hashlib

    h = hashlib.sha256()
    for shard in shards:
        h.update(shard.checksum().encode("ascii"))
    return h.hexdigest()


def _format_row(row: tuple) -> list[str]:
    return [repr(v) if isinstance(v, float) else str(v) for v in row]


def _write_csv(path: Path, header: tuple, rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(_format_row(row))
