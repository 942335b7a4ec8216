"""Where the traced run puts its spans, and the per-layer metrics it derives.

Every span wraps a public function or method of one of the program's layers
(its modules). Functions are patched where their callers look them up:
``fedbn_normalize`` and ``solve_conflict_weights`` in the server module,
``evaluate_client`` in the client module, ``build_shards``,
``build_clients`` and ``write_snapshot`` in the harness module.

``LAYER_METRICS`` records, for each per-layer metric, whether it is an exact
count (identical on every invocation at one seed) and which end-to-end
metric it should move on which workload. Names, units and directions live
in BENCHMARK.json.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import Patch, Tracer, has_ancestor, self_times
from stats import median

__all__ = ["PATCHES", "SETUP_PATCHES", "SETUP_SPANS", "LAYER_METRICS", "coordinated_kinds", "layer_metrics"]


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _note_shards(tracer: Tracer, index: int, args, kwargs, shards) -> None:
    tracer.note("shards", (_arg(args, kwargs, 0, "config"), [len(s.train) for s in shards]))


def _note_clients(tracer: Tracer, index: int, args, kwargs, clients) -> None:
    tracer.note("param_scalars", sum(p.data.size for c in clients for p in c.model.parameters()))


def _count_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _note_loss(tracer: Tracer, index: int, args, kwargs, result) -> None:
    if "tape_nodes" not in tracer.facts and not has_ancestor(tracer.spans, index, "client.psi"):
        tracer.note("tape_nodes", _count_nodes(result[0]))


def _note_upload(tracer: Tracer, index: int, args, kwargs, upload) -> None:
    tracer.note("upload_bytes", sum(v.nbytes for v in upload.values()))


def coordinated_kinds(plan) -> set[str]:
    """Key kinds a strategy plan sends through normalization and the coordination solve."""
    kinds = set()
    if plan.expert_mode == "coordinated":
        kinds.add("expert_scenario")
    if plan.tower_mode == "coordinated":
        kinds.add("tower")
    return kinds


def _note_aggregate(tracer: Tracer, index: int, args, kwargs, directive) -> None:
    kinds = coordinated_kinds(args[0].plan)
    keys = list(next(iter(_arg(args, kwargs, 1, "uploads").values())))
    coordinated = sum(k.kind in kinds for k in keys)
    tracer.note("keys_coordinated", coordinated)
    tracer.note("keys_plain", len(keys) - coordinated)
    tracer.note("fedbn_residual", directive.fedbn_residual)


def _note_solve(tracer: Tracer, index: int, args, kwargs, result) -> None:
    tracer.note("solver_iterations", result.iterations)


def _note_snapshot(tracer: Tracer, index: int, args, kwargs, result) -> None:
    tracer.note("snapshot_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _note_eval(tracer: Tracer, index: int, args, kwargs, report) -> None:
    tracer.note("eval_samples", report.n_samples)


SETUP_SPANS = ("data.build_shards", "harness.build_clients")

PATCHES = (
    Patch("fedmoe.harness", "run_ablation_suite", "harness.run_ablation_suite"),
    Patch("fedmoe.harness", "run_experiment", "harness.run_experiment"),
    Patch("fedmoe.harness", "build_shards", "data.build_shards", after=_note_shards),
    Patch("fedmoe.harness", "build_clients", "harness.build_clients", after=_note_clients),
    Patch("fedmoe.harness", "write_snapshot", "snapshot.write", after=_note_snapshot),
    Patch("fedmoe.data", "batch_iter", "data.batch", iterator=True),
    Patch("fedmoe.model", "ClientModel.local_loss", "model.local_loss", after=_note_loss),
    Patch("fedmoe.model", "ClientModel.key_map", "model.key_map"),
    Patch("fedmoe.model", "ClientModel.zero_grad", "diffcore.zero_grad"),
    Patch("fedmoe.diffcore.tensor", "Tensor.backward", "diffcore.backward"),
    Patch("fedmoe.diffcore.optim", "Adam.step", "diffcore.adam_step"),
    Patch("fedmoe.diffcore.optim", "Adam.zero_grad", "diffcore.zero_grad"),
    Patch("fedmoe.federation.client", "ClientSim.begin_round", "client.begin_round"),
    Patch("fedmoe.federation.client", "ClientSim.local_phase", "client.local_phase"),
    Patch("fedmoe.federation.client", "ClientSim.build_upload", "client.build_upload", after=_note_upload),
    Patch("fedmoe.federation.client", "ClientSim.apply_directive", "client.apply"),
    Patch("fedmoe.federation.client", "ClientSim.meta_update_psi", "client.psi"),
    Patch("fedmoe.federation.client", "evaluate_client", "metrics.evaluate", after=_note_eval),
    Patch("fedmoe.federation.server", "FederationServer.aggregate", "server.aggregate", after=_note_aggregate),
    Patch("fedmoe.federation.server", "fedbn_normalize", "fedbn.normalize"),
    Patch("fedmoe.federation.server", "solve_conflict_weights", "coordination.solve", after=_note_solve),
)

# The untraced runs time only set-up, which setup_s needs; two calls per
# experiment cost nothing measurable.
SETUP_PATCHES = tuple(p for p in PATCHES if p.span in SETUP_SPANS)

# name -> (exact count, the end-to-end metric it should move and where)
LAYER_METRICS = {
    "data.build_shards_s": (False, "setup_s on every workload"),
    "data.batch_s": (False, "setup_s on every workload; round_s on local_train"),
    "harness.build_clients_s": (False, "setup_s on every workload"),
    "model.forward_s": (False, "round_s, train_samples_per_s on local_train; little on sync_per_batch"),
    "model.forward_train_s": (False, "round_s, train_samples_per_s on local_train"),
    "model.forward_psi_s": (False, "round_s on sync_per_batch"),
    "model.train_batches": (True, "none; fixed by the workload's config"),
    "model.tape_nodes": (True, "round_s, train_samples_per_s on local_train"),
    "model.key_map_calls": (True, "round_s on local_train and sync_per_batch"),
    "model.key_map_s": (False, "round_s on local_train and sync_per_batch"),
    "diffcore.backward_s": (False, "round_s on local_train"),
    "diffcore.adam_step_s": (False, "round_s on local_train"),
    "diffcore.zero_grad_s": (False, "round_s on local_train"),
    "diffcore.param_scalars": (True, "round_s on local_train; peak_rss_mb"),
    "client.local_phase_s": (False, "round_s on local_train"),
    "client.local_phase_self_s": (False, "round_s on local_train"),
    "client.begin_round_s": (False, "round_s on sync_per_batch"),
    "client.build_upload_s": (False, "round_s on sync_per_batch"),
    "client.apply_s": (False, "round_s on sync_per_batch"),
    "client.psi_s": (False, "round_s on sync_per_batch"),
    "client.upload_bytes": (True, "upload_bytes_per_round on every workload"),
    "server.aggregate_s": (False, "round_s on sync_per_batch; run_s on ablate_suite"),
    "server.aggregate_self_s": (False, "round_s on sync_per_batch; run_s on ablate_suite"),
    "server.keys_coordinated": (True, "round_s on sync_per_batch"),
    "server.keys_plain": (True, "run_s on ablate_suite"),
    "fedbn.normalize_s": (False, "round_s on sync_per_batch"),
    "fedbn.calls": (True, "round_s on sync_per_batch"),
    "fedbn.residual_max": (False, "none; a correctness watch (must stay below 1e-9)"),
    "coordination.solve_s": (False, "round_s on sync_per_batch; not round_s on local_train"),
    "coordination.solve_calls": (True, "round_s on sync_per_batch"),
    "coordination.iters_median": (True, "round_s on sync_per_batch"),
    "coordination.iters_max": (True, "round_s on sync_per_batch"),
    "snapshot.write_s": (False, "round_s on sync_per_batch"),
    "snapshot.bytes": (True, "round_s on sync_per_batch"),
    "metrics.evaluate_s": (False, "round_s on sync_per_batch and local_train"),
    "metrics.eval_samples_per_s": (False, "round_s on sync_per_batch and local_train"),
    "harness.self_s": (False, "run_s on ablate_suite"),
    "trace.spans": (True, "none; sizes the tracing overhead"),
    "trace.overhead_s": (False, "none; traced run_s minus untraced run_s"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced invocation (all but trace.overhead_s)."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    forward_psi = 0.0
    train_batches = 0
    for i, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        total[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1
        if span.name == "model.local_loss":
            if has_ancestor(spans, i, "client.psi"):
                forward_psi += span.duration
            else:
                train_batches += 1
    facts = tracer.facts
    iters = facts.get("solver_iterations", [])
    uploads = facts.get("upload_bytes", [])
    eval_s = total["metrics.evaluate"]
    return {
        "data.build_shards_s": total["data.build_shards"],
        "data.batch_s": total["data.batch"],
        "harness.build_clients_s": total["harness.build_clients"],
        "model.forward_s": total["model.local_loss"],
        "model.forward_train_s": total["model.local_loss"] - forward_psi,
        "model.forward_psi_s": forward_psi,
        "model.train_batches": train_batches,
        "model.tape_nodes": sum(facts.get("tape_nodes", [])),
        "model.key_map_calls": calls["model.key_map"],
        "model.key_map_s": total["model.key_map"],
        "diffcore.backward_s": total["diffcore.backward"],
        "diffcore.adam_step_s": total["diffcore.adam_step"],
        "diffcore.zero_grad_s": total["diffcore.zero_grad"],
        "diffcore.param_scalars": sum(facts.get("param_scalars", [])),
        "client.local_phase_s": total["client.local_phase"],
        "client.local_phase_self_s": own["client.local_phase"],
        "client.begin_round_s": total["client.begin_round"],
        "client.build_upload_s": total["client.build_upload"],
        "client.apply_s": total["client.apply"],
        "client.psi_s": total["client.psi"],
        "client.upload_bytes": sum(uploads) / len(uploads) if uploads else 0,
        "server.aggregate_s": total["server.aggregate"],
        "server.aggregate_self_s": own["server.aggregate"],
        "server.keys_coordinated": sum(facts.get("keys_coordinated", [])),
        "server.keys_plain": sum(facts.get("keys_plain", [])),
        "fedbn.normalize_s": total["fedbn.normalize"],
        "fedbn.calls": calls["fedbn.normalize"],
        "fedbn.residual_max": max(facts.get("fedbn_residual", [0.0])),
        "coordination.solve_s": total["coordination.solve"],
        "coordination.solve_calls": calls["coordination.solve"],
        "coordination.iters_median": median(iters) if iters else 0,
        "coordination.iters_max": max(iters, default=0),
        "snapshot.write_s": total["snapshot.write"],
        "snapshot.bytes": sum(facts.get("snapshot_bytes", [])),
        "metrics.evaluate_s": eval_s,
        "metrics.eval_samples_per_s": sum(facts.get("eval_samples", [])) / eval_s if eval_s > 0 else 0.0,
        "harness.self_s": own["harness.run_experiment"] + own["harness.run_ablation_suite"],
        "trace.spans": len(spans),
    }
