"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 fedbench/prove.py --seeds 1-10 [--workloads local_train,...]
                              [--out summary.json] [--against earlier.json]
                              [--baseline]

Runs ``run.py`` once per workload and seed, one process at a time, with
BENCHMARK.json's run_seconds. For every end-to-end metric it prints the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound; a spread above a third of the bound is marked. With
``--against`` it compares each median with an earlier summary and marks a
metric that got worse by more than its bound. ``--baseline`` adds one
traced run per workload (first seed) and writes the summary to
``fedbench/baseline.json``, which run.py prints next to its figures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 240


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (result line, env record)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values), "spread": spread(values), "values": values}


def worse_share(better: str, old: float, new: float) -> float:
    change = (new - old) / abs(old) if old else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    parser.add_argument("--against", default=None, help="earlier summary JSON to compare medians with")
    parser.add_argument("--baseline", action="store_true", help="add traced runs and write fedbench/baseline.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None

    summary: dict = {"run_seconds": seconds, "seeds": seeds, "env": {}, "workloads": {}}
    problems = 0
    for name in names:
        results = []
        for seed in seeds:
            result, env = run_once(name, seed, seconds, 0)
            summary["env"] = {k: v for k, v in env.items() if k != "seed"}
            results.append(result)
            if not result["correct"] or result["failed"]:
                problems += 1
                print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        entry = {
            "correct": all(r["correct"] and not r["failed"] for r in results),
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results]) for m in bench["end_to_end"]
            },
        }
        if args.baseline:
            traced, _ = run_once(name, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = seeds[0]
        summary["workloads"][name] = entry

        for m in bench["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            flag = "ok"
            if m["name"] != "setup_s" and s["spread"] > m["bound"]:
                flag, problems = "SPREAD ABOVE BOUND", problems + 1
            elif s["spread"] > m["bound"] / 3:
                flag = "spread above bound/3"
            line = (f"{name:<15} {m['name']:<24} median={s['median']:<12.6g} q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} "
                    f"spread={s['spread']:.4f} bound={m['bound']} {flag}")
            if earlier and name in earlier["workloads"]:
                old = earlier["workloads"][name]["end_to_end"][m["name"]]["median"]
                share = worse_share(m["better"], old, s["median"])
                verdict = "WORSE THAN BOUND" if share > m["bound"] else "within bound"
                problems += share > m["bound"]
                line += f" | vs earlier {old:.6g}: worse by {share:+.4f} {verdict}"
            print(line, flush=True)

    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.baseline:
        (BENCH_DIR / "baseline.json").write_text(text, encoding="utf-8")
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
