"""Benchmark for the fedmoe simulator: one workload per call.

    python3 fedbench/run.py --workload local_train --seed 1 --seconds 30 --trace 0

Run it from the repository root. It imports the program from ``src/`` of
the same checkout, pins BLAS to one thread and runs the workload as a
closed loop: one caller invokes the public entry point
(``fedmoe.harness.run_experiment`` or ``run_ablation_suite``) with the seed,
checks every file the invocation wrote, and starts the next invocation at
the same seed, until ``--seconds`` are used up.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced invocations; the traced ones wrap each
layer's public functions from outside (see layers.py) and yield the
per-layer metrics of the fastest traced invocation, plus the tracing
overhead (fastest traced minus fastest untraced run_s). Their spans are
written to ``fedbench/out/`` when the run ends.

Each time is the best (minimum) over the run's invocations, as timeit
recommends; the median is printed beside it. The program is deterministic,
so invocations at one seed do identical work and differ only by what the
host does to them. On a shared host that is large: this process runs in a
fast or a ~1.6x slower state that switches every few seconds, so a median
over invocations jumps with the share of slow time in the run, while the
best invocation stays put (local_train, 80 invocations in windows of 8:
spread of setup_s 0.18 with medians and 0.04 with minima, of run_s 0.08
and 0.05).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# Set before numpy loads, which happens only once main() imports the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib.util
import json
import platform
import resource
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from stats import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BASELINE_PATH = BENCH_DIR / "baseline.json"
# Stop starting invocations after this long, so a run ends well within 180 s.
HARD_CAP_S = 150.0


def load_program() -> None:
    """Make ``import fedmoe`` resolve to this checkout's ``src/`` or stop."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("fedmoe")
    if spec is None or spec.origin is None or not Path(spec.origin).resolve().is_relative_to(src):
        raise SystemExit(f"fedbench: no fedmoe package under {src}; run from the root of a checkout")


def git_commit(root: Path):
    """The checked-out commit, read from .git without starting git; None outside a repository."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class Measurement:
    untraced: list = field(default_factory=list)  # (Invocation, Tracer) pairs
    traced: list = field(default_factory=list)
    failed: int = 0


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> Measurement:
    """Closed loop at one seed.

    With ``trace`` the invocations alternate untraced, traced, untraced, ...
    and at least one of each runs. A new invocation starts only while the
    time used plus a typical invocation fits in ``seconds``.
    """
    from layers import PATCHES, SETUP_PATCHES
    from workloads import run_invocation

    result = Measurement()
    durations = []
    start = perf_counter()
    attempt = 0
    while True:
        use_trace = trace and attempt % 2 == 1
        attempt += 1
        t0 = perf_counter()
        try:
            done = run_invocation(workload, seed, out_dir, PATCHES if use_trace else SETUP_PATCHES)
        except Exception:  # a failed invocation is counted, reported and the loop goes on
            result.failed += 1
            traceback.print_exc()
        else:
            (result.traced if use_trace else result.untraced).append(done)
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if trace and attempt < 2:
            continue
        if elapsed + median(durations) > seconds or elapsed > HARD_CAP_S:
            return result


def end_to_end(untraced, rss_mb: float, best=min) -> dict[str, float]:
    """Best time over the untraced invocations (``best=median`` for the median)."""
    invs = [inv for inv, _ in untraced]
    return {
        "run_s": best([i.run_s for i in invs]),
        "setup_s": best([i.setup_s for i in invs]),
        "round_s": best([i.round_s for i in invs]),
        "train_samples_per_s": 1.0 / best([1.0 / i.train_samples_per_s for i in invs]),
        "auc_mean": invs[0].auc_mean,
        "upload_bytes_per_round": invs[0].upload_bytes_per_round,
        "peak_rss_mb": rss_mb,
    }


def per_layer(untraced, traced) -> tuple[dict[str, float], list[str]]:
    """The fastest traced invocation's breakdown; also the exact counts that did not repeat."""
    from layers import LAYER_METRICS, layer_metrics

    rows = [layer_metrics(tracer) for _, tracer in traced]
    fastest = min(range(len(traced)), key=lambda i: traced[i][0].run_s)
    values = dict(rows[fastest])
    unstable = [
        name for name, (exact, _) in LAYER_METRICS.items()
        if exact and name in values and len({row[name] for row in rows}) > 1
    ]
    values["trace.overhead_s"] = traced[fastest][0].run_s - min(inv.run_s for inv, _ in untraced)
    return values, unstable


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        raise SystemExit(f"fedbench: {bench_path} not found; run from the root of a checkout")
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    load_program()
    from layers import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    out_dir = OUT_DIR / f"{workload.name}-s{args.seed}"

    env = environment(args.seed)
    try:
        measured = measure(workload, args.seed, args.seconds, trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    untraced, traced, failed = measured.untraced, measured.traced, measured.failed
    attempted = len(untraced) + len(traced) + failed

    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} invocations failed")
    if not untraced or (trace and not traced):
        problems.append("no successful invocation to measure")
    exact = {inv.exact() for inv, _ in untraced + traced}
    if len(exact) > 1:
        problems.append(f"outputs differ between invocations at seed {args.seed}: {sorted(exact)}")

    baseline = {}
    if BASELINE_PATH.is_file():
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8")).get("workloads", {}).get(workload.name, {})

    print(f"fedbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    print(f"why: {why[workload.name]}")
    print(f"loop: closed, one caller; {len(untraced)} untraced + {len(traced)} traced invocations, {failed} failed")
    print("env: " + json.dumps(env, sort_keys=True))

    metrics: dict[str, dict] = {}
    if untraced and (traced or not trace):
        rss = peak_rss_mb()
        e2e = end_to_end(untraced, rss)
        mid = end_to_end(untraced, rss, best=median)
        base = baseline.get("end_to_end", {})
        print(f"end-to-end, best of {len(untraced)} untraced invocations   median   [baseline median (q1, q3), n]")
        for m in bench["end_to_end"]:
            name = m["name"]
            b = base.get(name)
            ref = f"[{_fmt(b['median'])} ({_fmt(b['q1'])}, {_fmt(b['q3'])}), n={b['n']}]" if b else ""
            print(f"  {name:<24} {_fmt(e2e[name]):>14} {m['unit']:<10} {_fmt(mid[name]):>12}   {ref}")
            if not trace:
                metrics[name] = {"value": e2e[name], "unit": m["unit"]}
        print(f"  {'error_rate':<24} {_fmt(failed / attempted):>14} fraction")

        if trace:
            layer, unstable = per_layer(untraced, traced)
            if unstable:
                problems.append(f"exact counts differ between traced invocations: {unstable}")
            base = baseline.get("per_layer", {})
            print(f"per-layer, fastest of {len(traced)} traced invocations   [baseline] -> moves")
            for m in bench["per_layer"]:
                b = base.get(m["name"])
                ref = f"[{_fmt(b)}]" if b is not None else ""
                print(f"  {m['name']:<28} {_fmt(layer[m['name']]):>14} {m['unit']:<10} {ref} -> {LAYER_METRICS[m['name']][1]}")
                metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
            missing = sorted({name for _, tracer in traced for name in tracer.missing})
            if missing:
                print(f"  entry points not found (their spans read 0): {missing}")
            spans_path = OUT_DIR / f"spans-{workload.name}-s{args.seed}.jsonl"
            from spans import write_spans

            write_spans(spans_path, [tracer.spans for _, tracer in traced])
            print(f"spans: {spans_path.relative_to(ROOT)}")

    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
