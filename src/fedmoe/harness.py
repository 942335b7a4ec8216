"""Experiment orchestration: build clients, run rounds, emit artifacts.

A run writes, under its output directory:

    config.echo          resolved configuration (re-runnable)
    metrics.csv          round, client, task, auc, bce  (one row per triple)
    convergence.csv      round, client, train_loss
    snapshots/round_<r>.bin   server state per round (absent for strategy "local")

Every float is emitted with repr(), so identical runs produce identical
bytes. Clients execute in canonical index order; the directive application
is the synchronization barrier.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import data as data_mod
from .config import ExperimentConfig
from .federation.client import ClientSim
from .federation.server import FederationServer, resolve_strategy, upload_keys
from .federation.snapshot import write_snapshot
from .keys import SharedKey
from .model import ClientModel

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
    train_loss: dict[tuple[int, int], float] = field(default_factory=dict)  # (round, client)
    test_auc: dict[tuple[int, int, int], float] = field(default_factory=dict)  # (round, client, task)
    test_bce: dict[tuple[int, int, int], float] = field(default_factory=dict)
    fedbn_residual_max: float = 0.0

    def final_mean_auc(self) -> float:
        last = max(r for r, _, _ in self.test_auc)
        values = [v for (r, _, _), v in self.test_auc.items() if r == last]
        return float(np.mean(values))

    def final_auc_by_client_task(self) -> dict[tuple[int, int], float]:
        last = max(r for r, _, _ in self.test_auc)
        return {(j, i): v for (r, j, i), v in self.test_auc.items() if r == last}


def build_shards(config: ExperimentConfig) -> list[data_mod.ScenarioShard]:
    """Each scenario's partitions; DataError if a test partition cannot be scored."""
    if config.source == "synthetic":
        shards = data_mod.generate_synthetic(config.synthetic_spec())
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


def build_clients(
    config: ExperimentConfig, shards: list[data_mod.ScenarioShard], n_experts: Optional[int] = None
) -> list[ClientSim]:
    # Without a server there are no aggregates to align with, so the
    # proximal pull on the scenario weights is dropped entirely.
    lam = 0.0 if config.strategy == "local" else config.lambda_reg
    clients = []
    for j in range(config.scenarios):
        model = ClientModel(config.model_spec(j, n_experts=n_experts), init_seed=config.seed)
        clients.append(
            ClientSim(
                model,
                shards[j],
                lr=config.learning_rate,
                lam=lam,
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
    audit_hook: Optional[Callable[[int, SharedKey, np.ndarray], None]] = None,
) -> RunArtifacts:
    """Run one full experiment; deterministic for a fixed config and seed."""
    if seed is not None:
        config = config.with_overrides(seed=int(seed))
    if out_dir is not None:
        config = config.with_overrides(out_dir=str(out_dir))
    config.validate()

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo_path = out / "config.echo"
    config.save(echo_path)

    shards = build_shards(config)
    checksum = _combined_checksum(shards)
    clients = build_clients(config, shards)
    plan = resolve_strategy(config.strategy)
    keys = upload_keys(plan, clients[0].model)

    server: Optional[FederationServer] = None
    snapshot_dir: Optional[Path] = None
    if plan.uses_server:
        server = FederationServer(plan, c=config.c, audit_hook=audit_hook)
        snapshot_dir = out / "snapshots"
        snapshot_dir.mkdir(exist_ok=True)

    artifacts = RunArtifacts(
        out_dir=out,
        metrics_path=out / "metrics.csv",
        convergence_path=out / "convergence.csv",
        config_echo_path=echo_path,
        snapshot_dir=snapshot_dir,
        shard_checksum=checksum,
    )

    metrics_rows: list[tuple] = []
    convergence_rows: list[tuple] = []
    max_batches = 1 if config.comm_per_batch else None

    for r in range(1, config.rounds + 1):
        for client in clients:
            client.begin_round(keys)
            stats = client.local_phase(r, epochs=config.local_epochs, max_batches=max_batches)
            artifacts.train_loss[(r, client.index)] = stats.mean_loss
            convergence_rows.append((r, client.index, stats.mean_loss))

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
            report = client.evaluate(r)
            for i in range(config.tasks):
                metrics_rows.append((r, client.index, i, report.auc[i], report.bce[i]))
                artifacts.test_auc[(r, client.index, i)] = report.auc[i]
                artifacts.test_bce[(r, client.index, i)] = report.bce[i]

    _write_csv(artifacts.metrics_path, ("round", "client", "task", "auc", "bce"), metrics_rows)
    _write_csv(artifacts.convergence_path, ("round", "client", "train_loss"), convergence_rows)
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
    (client, task) pair. Each distinct configuration (the strategy plan
    without its name, plus the expert count) runs once; a label that repeats
    one, such as ``a3`` and ``expert_<experts>`` (both equal to ``main``),
    shares the first label's run, and ``ablation.log`` names that run.
    """
    config.validate()
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    variants = [(name, name, config.experts) for name in ABLATION_VARIANTS]
    variants += [(f"expert_{n}", "main", n) for n in EXPERT_SWEEP]
    runs: dict[str, RunArtifacts] = {}
    source: dict[str, str] = {}
    first_label: dict[tuple, str] = {}
    for label, strategy, experts in variants:
        fingerprint = (replace(resolve_strategy(strategy), name=""), experts)
        if fingerprint in first_label:
            source[label] = first_label[fingerprint]
            runs[label] = runs[source[label]]
            continue
        first_label[fingerprint] = label
        sub = config.with_overrides(strategy=strategy, experts=experts, out_dir=str(out / f"variant_{label}"))
        runs[label] = run_experiment(sub)
    checksums = {label: art.shard_checksum for label, art in runs.items()}

    table_path = out / "table.csv"
    header = ["config"]
    for j in range(config.scenarios):
        for i in range(config.tasks):
            header.append(f"client{j}_task{i}_auc")
    rows = []
    for label, art in runs.items():
        by_ct = art.final_auc_by_client_task()
        rows.append(
            (label, *(by_ct[(j, i)] for j in range(config.scenarios) for i in range(config.tasks)))
        )
    _write_csv(table_path, tuple(header), rows)

    log_path = out / "ablation.log"
    with open(log_path, "w", encoding="utf-8") as fh:
        for label, digest in checksums.items():
            reused = f" reuses={source[label]}" if label in source else ""
            fh.write(f"{label} shard_sha256={digest}{reused}\n")
    return AblationArtifacts(out_dir=out, table_path=table_path, log_path=log_path, runs=runs, shard_checksums=checksums)


def _combined_checksum(shards: list[data_mod.ScenarioShard]) -> str:
    import hashlib

    h = hashlib.sha256()
    for shard in shards:
        h.update(shard.checksum().encode("ascii"))
    return h.hexdigest()


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: tuple, rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])
