"""Tests for the benchmark's own code.

    python3 -m pytest fedbench -q
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Patch, Span, Tracer, has_ancestor, patched, self_times  # noqa: E402
from stats import median, quartiles, spread  # noqa: E402
from workloads import WORKLOADS, Invocation, OutputCheckError, Workload, check_experiment, run_invocation  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small enough to run in about a second, large enough that every layer runs
# and the final-round AUC clears 0.5.
TINY = {"rounds": 2, "samples_per_scenario": 2000}


# -- the manifest and the code agree --------------------------------------------


def test_metric_and_workload_names_are_valid_and_unique():
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in BENCH[key]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    units = [e["unit"] for key in ("end_to_end", "per_layer") for e in BENCH[key]]
    assert all(UNIT.fullmatch(u) for u in units)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in BENCH["end_to_end"])}]


def test_code_reports_exactly_the_manifest_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers.LAYER_METRICS)
    inv = Invocation(run_s=2.0, setup_s=0.5, rounds=3, train_samples=300, auc_mean=0.7, upload_bytes_per_round=8.0, digest="")
    assert list(run.end_to_end([(inv, None)], 1.0)) == [m["name"] for m in BENCH["end_to_end"]]
    assert inv.round_s == 0.5 and inv.train_samples_per_s == 200.0


def test_end_to_end_takes_the_best_invocation():
    def inv(run_s, setup_s):
        return Invocation(run_s=run_s, setup_s=setup_s, rounds=2, train_samples=100, auc_mean=0.7, upload_bytes_per_round=8.0, digest="")

    e2e = run.end_to_end([(inv(3.0, 0.2), None), (inv(2.5, 0.5), None), (inv(4.0, 0.1), None)], 1.0)
    assert (e2e["run_s"], e2e["setup_s"], e2e["round_s"]) == (2.5, 0.1, 1.0)
    assert e2e["train_samples_per_s"] == pytest.approx(50.0)


# -- statistics ------------------------------------------------------------------


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0, 10.0]])
def test_quartiles_match_statistics_quantiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert median(values) == statistics.median(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_spread_of_constant_or_single_values_is_zero():
    assert spread([7.0] * 10) == 0.0
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        median([])


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert has_ancestor(spans, 2, "root") and not has_ancestor(spans, 3, "a")


@pytest.fixture
def toy_module():
    """A stand-in program: a function calling a method through module lookups."""
    mod = types.ModuleType("fedbench_toy")

    class Box:
        def work(self, n):
            return [mod.leaf(i) for i in range(n)]

    class SubBox(Box):
        pass

    def leaf(i):
        return i * i

    def outer(n):
        return SubBox().work(n)

    def items(n):
        return iter(range(n))

    mod.Box, mod.SubBox, mod.leaf, mod.outer, mod.items = Box, SubBox, leaf, outer, items
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_wrappers_link_each_span_to_the_open_parent(toy_module):
    tracer = Tracer()
    patches = [
        Patch("fedbench_toy", "outer", "outer"),
        Patch("fedbench_toy", "Box.work", "work"),
        Patch("fedbench_toy", "leaf", "leaf"),
    ]
    with patched(tracer, patches):
        assert toy_module.outer(2) == [0, 1]
        toy_module.leaf(3)
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("work", 0), ("leaf", 1), ("leaf", 1), ("leaf", -1),
    ]
    assert all(s.end >= s.start for s in tracer.spans)
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0].duration - tracer.spans[1].duration)


def test_wrappers_are_restored_also_after_an_error(toy_module):
    originals = (toy_module.outer, toy_module.leaf, toy_module.Box.__dict__["work"])
    patches = [
        Patch("fedbench_toy", "outer", "outer"),
        Patch("fedbench_toy", "leaf", "leaf"),
        Patch("fedbench_toy", "SubBox.work", "work"),  # inherited: must not stay on SubBox
        Patch("fedbench_toy", "nowhere", "nowhere"),
    ]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tracer, patches):
            assert toy_module.outer is not originals[0]
            assert "work" in vars(toy_module.SubBox)
            raise RuntimeError("body failed")
    assert (toy_module.outer, toy_module.leaf, toy_module.Box.__dict__["work"]) == originals
    assert "work" not in vars(toy_module.SubBox)
    assert tracer.missing == ["fedbench_toy.nowhere"]


def test_iterator_patch_times_each_next(toy_module):
    tracer = Tracer()
    with patched(tracer, [Patch("fedbench_toy", "items", "next", iterator=True)]):
        assert list(toy_module.items(3)) == [0, 1, 2]
    assert [s.name for s in tracer.spans] == ["next"] * 4  # three items and the exhausting call


# -- traced runs of the real program -----------------------------------------------


def _attributes():
    out = {}
    for patch in layers.PATCHES:
        owner, name = patch.owner_and_name()
        out[(patch.module, patch.attr)] = vars(owner)[name]
    return out


def test_traced_run_reports_every_layer_and_matches_untraced(tmp_path):
    before = _attributes()
    workload = Workload("tiny", TINY)
    plain, _ = run_invocation(workload, 3, tmp_path / "plain", layers.SETUP_PATCHES)
    traced, tracer = run_invocation(workload, 3, tmp_path / "traced", layers.PATCHES)
    assert _attributes() == before
    assert tracer.missing == []
    assert plain.exact()[:-1] == traced.exact()[:-1]  # digests differ only through the out_dir name
    values = layers.layer_metrics(tracer)
    assert set(values) | {"trace.overhead_s"} == set(layers.LAYER_METRICS)
    for name in ("model.forward_s", "diffcore.backward_s", "coordination.solve_s", "metrics.evaluate_s", "snapshot.write_s"):
        assert values[name] > 0, name
    assert values["model.train_batches"] == 2 * 3 * 6  # rounds x clients x ceil(1400 / 256)
    assert values["client.upload_bytes"] * 3 == traced.upload_bytes_per_round
    assert values["fedbn.residual_max"] < 1e-9
    assert 0 < values["harness.self_s"] < values["client.local_phase_s"]


@pytest.mark.parametrize("strategy", ["main", "a1", "a2", "a4"])
def test_output_checks_pass_on_each_server_path(tmp_path, strategy):
    inv, _ = run_invocation(Workload("tiny", {**TINY, "strategy": strategy}), 1, tmp_path, layers.SETUP_PATCHES)
    assert inv.rounds == 2 and inv.auc_mean > 0.5


def test_output_checks_catch_damaged_files(tmp_path):
    from fedmoe.harness import run_experiment
    from fedmoe.config import ExperimentConfig

    art = run_experiment(ExperimentConfig(**TINY, out_dir=str(tmp_path)))
    check_experiment(art)
    snap = art.snapshot_dir / "round_2.bin"
    snap.write_bytes(snap.read_bytes()[:-8])
    with pytest.raises(Exception):
        check_experiment(art)
    snap.unlink()
    with pytest.raises(OutputCheckError, match="snapshots"):
        check_experiment(art)
    lines = art.metrics_path.read_text().splitlines()
    art.metrics_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(OutputCheckError, match="rows"):
        check_experiment(art)
