"""Command-line harness.

    fedmoe run --config experiment.ini [--seed N] [--out DIR]
    fedmoe ablate --config experiment.ini [--out DIR]
    fedmoe selftest

``selftest`` exercises the internal oracles (aggregation collapse identity,
coordination geometry, gradient checks, rank-statistic equivalence) and
prints one pass/fail line each.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig
from .data import DataError
from .harness import run_ablation_suite, run_experiment

__all__ = ["main", "run_selftest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedmoe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True, help="path to the INI config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_abl = sub.add_parser("ablate", help="run aggregation variants and the expert sweep")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--out", default=None)

    sub.add_parser("selftest", help="run the oracle suites")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.from_ini(args.config)
            artifacts = run_experiment(config, out_dir=args.out, seed=args.seed)
            print(f"wrote {artifacts.metrics_path}")
            print(f"wrote {artifacts.convergence_path}")
            print(f"final mean test AUC: {artifacts.final_mean_auc():.4f}")
            return 0
        if args.command == "ablate":
            config = ExperimentConfig.from_ini(args.config)
            artifacts = run_ablation_suite(config, out_dir=args.out)
            print(f"wrote {artifacts.table_path}")
            print(f"wrote {artifacts.log_path}")
            return 0
        return run_selftest()
    except (ConfigError, DataError) as exc:
        print(exc, file=sys.stderr)
        return 2


def run_selftest() -> int:
    checks = (
        ("aggregation collapse identity", _check_collapse),
        ("coordination geometry", _check_coordination),
        ("gradient fidelity", _check_gradients),
        ("rank statistic equivalence", _check_auc),
    )
    failures = 0
    for name, check in checks:
        try:
            detail = check()
            print(f"PASS {name}: {detail}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


def _check_collapse() -> str:
    from .federation.fedbn import fedbn_normalize

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 13))
        shape = (int(rng.integers(1, 65)), int(rng.integers(1, 65)))
        normalized, beta = fedbn_normalize(rng.normal(0, 3, (m, *shape)))
        worst = max(worst, float(np.abs(normalized.mean(axis=0) - beta).max()))
    assert worst < 1e-9, f"max residual {worst:.2e}"
    return f"max residual {worst:.2e}"


def _check_coordination() -> str:
    from .federation.coordination import solve_conflict_weights

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        deltas = rng.normal(0, 1, (m, 12))
        mean_delta = deltas.mean(axis=0)
        c = float(rng.uniform(0, 0.9))
        result = solve_conflict_weights(deltas, mean_delta, c)
        radius = float(np.linalg.norm(result.u_star - mean_delta))
        target = c * float(np.linalg.norm(mean_delta))
        if float(np.linalg.norm(deltas.T @ result.weights)) > 1e-12:
            worst = max(worst, abs(radius - target))
    assert worst < 1e-6, f"radius error {worst:.2e}"
    return f"max radius error {worst:.2e}"


def _check_gradients() -> str:
    from .diffcore import Parameter, Tensor, affine, bce, grad_check, hidden_layer, sigmoid
    from .model import ClientModel, ModelSpec, initial_buffers

    # A one-map stack of the ops the model runs: a ReLU hidden layer and a sigmoid head.
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(0, 1, (6, 4)))
    w = Parameter(rng.normal(0, 1, (1, 4, 3)), "w")
    b = Parameter(rng.normal(0, 1, (1, 3)), "b")
    w2 = Parameter(rng.normal(0, 1, (1, 3, 1)), "w2")
    b2 = Parameter(np.zeros((1, 1)), "b2")
    y = (rng.random(6) < 0.5).astype(float)

    def mlp():
        return bce(sigmoid(affine(hidden_layer(x, w, b, 0.0), w2, b2)), y)

    mlp_err = grad_check(mlp, [w, b, w2, b2], rng=np.random.default_rng(0))

    # The whole client graph: input batch norm, task weights, the fused expert
    # layers, gates, expert mixing and towers, in float64 as central
    # differences need.
    spec = ModelSpec(scenario=0, n_scenarios=2, n_tasks=2, n_experts=2, d_feat=4,
                     expert_widths=(5, 3), tower_widths=(4,), d_emb=6)
    model = ClientModel(spec, 3, initial_buffers(spec, 3, [0], np.float64)[0])
    bx = rng.normal(0, 1, (6, 4))
    by = (rng.random((6, 2)) < 0.5).astype(float)

    def client_loss():
        return model.local_loss(bx, by, use_dropout=False)[0]

    model_err = grad_check(client_loss, model.parameters(), max_coords_per_param=3, rng=np.random.default_rng(1))
    detail = f"max relative error {mlp_err:.2e} (MLP), {model_err:.2e} (client model)"
    assert max(mlp_err, model_err) < 1e-4, detail
    return detail


def _check_auc() -> str:
    from .metrics import auc_bruteforce, auc_fast

    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        scores = rng.integers(0, 10, n) / 10.0  # force ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        fast, brute = auc_fast(scores, labels), auc_bruteforce(scores, labels)
        assert fast == brute, f"{fast} != {brute}"
    return "200 random instances agree exactly"


if __name__ == "__main__":
    raise SystemExit(main())
