"""Self-test of the benchmark: tiny runs, the gate, the tracer.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from prefcompose import algorithms, dominance  # noqa: E402

END_TO_END = ("ops_per_kref", "op_p50_ref", "op_tail_ref", "provider_calls_per_op",
              "peak_rss_mb", "setup_s")
PER_LAYER = (
    "dominance.self_ms", "dominance.tests", "dominance.hit_ratio",
    "order.self_ms", "order.comparisons", "order.filter_items", "order.filter_kept_ratio",
    "algorithms.self_ms", "algorithms.a4_rounds", "algorithms.a4_refiltered",
    "composition.self_ms", "composition.extensions",
    "aggregation.self_ms", "aggregation.merges",
    "oracle.self_ms", "oracle.pairs", "simulator.self_ms", "cli.self_ms",
    "trace.overhead_pct",
)


def bench(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture
def tiny(monkeypatch):
    """Panels of three tree instances and two documents."""
    monkeypatch.setattr(workloads, "TREE_FILTER",
                        dataclasses.replace(workloads.TREE_FILTER, panel_per_m=1))
    monkeypatch.setattr(workloads, "TREE_INTERLEAVE",
                        dataclasses.replace(workloads.TREE_INTERLEAVE, panel_per_m=3))
    monkeypatch.setattr(workloads, "INSTANCES", 2)


@pytest.mark.parametrize("workload", ["tree-filter", "tree-interleave", "explicit-solve"])
def test_untraced_run_prints_every_end_to_end_metric(tiny, capsys, workload):
    lines, result = bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.2")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines)
    for name in END_TO_END + ("fail_ratio",):
        assert name in text
    facts = json.loads(next(line for line in lines if line.startswith("facts "))[6:])
    assert {"nproc", "python", "numpy", "numba_importable", "kernels_using_numba",
            "blas_env", "instance_seeds"} <= set(facts)


@pytest.mark.parametrize("workload", ["tree-filter", "tree-interleave", "explicit-solve"])
def test_traced_run_prints_every_layer_metric(tiny, capsys, workload):
    lines, result = bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                          "--trace", "1")
    assert result["correct"] is True
    assert set(PER_LAYER) <= set(result["metrics"])
    assert "absent boundaries: none" in "\n".join(lines)
    spans = [json.loads(line) for line in
             open(run.OUT / f"spans-{workload}-3.jsonl")]
    assert spans and len({s["op"] for s in spans}) == 2
    # Self times of an op's spans add up to the op's root span.
    total = defaultdict(float)
    child = defaultdict(float)
    for s in spans:
        child[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        total[s["op"]] += s["end"] - s["start"] - child[s["span"]]
    for s in spans:
        if s["parent"] == -1:
            assert total[s["op"]] == pytest.approx(s["end"] - s["start"])


def plant_dominated_answer(original):
    """a1 that also returns one composition some true answer dominates."""

    def planted(spec, provider, *args, **kwargs):
        result = original(spec, provider, *args, **kwargs)
        keys = {c.key() for c in result.solutions}
        for extra in provider.all_feasible():
            if extra.key() not in keys and any(
                dominance.dominates(spec, s.valuation, extra.valuation) is not None
                for s in result.solutions
            ):
                result.solutions.append(extra)
                break
        return result

    return planted


@pytest.mark.parametrize("workload", ["tree-filter", "explicit-solve"])
def test_gate_rejects_planted_wrong_answer(tiny, capsys, workload):
    undo = tracing.replace_everywhere("prefcompose", "algorithms", "compose_and_filter",
                                      plant_dominated_answer)
    try:
        _, result = bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.2")
    finally:
        undo()
    assert algorithms.compose_and_filter.__name__ == "compose_and_filter"
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", ["tree-filter", "tree-interleave", "explicit-solve"])
def test_seed_orders_the_same_panel(tmp_path, workload):
    runs = [workloads.WORKLOADS[workload](seed, tmp_path) for seed in (1, 2)]
    for w in runs:
        w.prepare()
    first, second = (sorted(set(w.seeds(w.slots))) for w in runs)
    assert first == second
    assert [e["seed"] for e in runs[0].schedule] != [e["seed"] for e in runs[1].schedule]


def test_loop_runs_whole_cycles():
    class Cycle:
        slots = 3

        def op(self, i):
            return i

    durations, refs, results, errors = run.run_ops(Cycle(), 0)
    assert results == [0, 1, 2] and errors == [None] * 3
    assert len(durations) == 3 and len(refs) == 4
    assert len(run.run_ops(Cycle(), 0, count=5)[2]) == 5


def test_costs_are_relative_to_nearby_reference_times():
    refs = [1.0] * 8 + [2.0] * 12
    costs = run.relative_costs([3.0] * 19, refs)
    assert costs[0] == 3.0 and costs[-1] == 1.5


def test_tail_is_a_fixed_percentile():
    value, beyond = run.tail([float(v) for v in range(1, 101)] * 2)
    assert 85.0 < value < 86.0 and beyond == 30


def test_failures_count_once_per_slot():
    class Flaky:
        slots = 2

        def check(self, i, result):
            return [("known", "slot 0 fails")] if i % 2 == 0 else []

    failures = run.gate(Flaky(), [([1, 2, 3, 4, 5], [None] * 5), ([1], [None])])
    assert failures == [[("known", "slot 0 fails")], []]


def test_tree_guarantees():
    entry = {"PF": 5, "unique_top": False, "dominance": "interval"}
    assert workloads.tree_guarantee("a1", 5, 5, entry) is None
    assert workloads.tree_guarantee("a1", 6, 5, entry) == "not exact"
    assert workloads.tree_guarantee("a3", 9, 1, entry) is None
    assert workloads.tree_guarantee("a3", 9, 0, entry) is not None
    assert workloads.tree_guarantee("a4", 4, 3, entry) is not None
    assert workloads.tree_guarantee("a4", 3, 3, entry) is None
    assert workloads.tree_guarantee("a4", 3, 3, dict(entry, dominance="weak")) is not None
    assert workloads.tree_guarantee("a4", 4, 3, dict(entry, dominance="partial")) is None


def test_order_class():
    def mat(n, edges):
        return workloads.closure(n, edges)

    assert workloads.order_class(mat(3, [(0, 1), (1, 2)])) == "weak"
    assert workloads.order_class(mat(3, [(0, 1)])) == "interval"
    assert workloads.order_class(mat(4, [(0, 2), (1, 3)])) == "partial"
    bad = mat(3, [(0, 1), (1, 2)])
    bad[0, 2] = False
    assert workloads.order_class(bad) == "none"


def test_missing_boundary_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(dominance, "PackedPool")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent() == ["dominance.PackedPool.witness"]


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-filter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
