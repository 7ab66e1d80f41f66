"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v``.  The heavyweight sweeps keep
their instance sizes at the documented bounds (tree size <= 60, attributes
<= 8, domain <= 8) and fixed seeds, so the whole module is deterministic.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from prefcompose import (
    ExplicitProvider,
    att_weakly_complete_compose,
    compose_and_filter,
    interleave_compose,
    nondominated,
    weakly_complete_compose,
)
from prefcompose.aggregation import AggValue, aggregate, strictly_preferred
from prefcompose.cli import load_instance, main
from prefcompose.dominance import PackedPool, dominates
from prefcompose.oracle import (
    brute_nondominated,
    check_completeness,
    check_soundness,
    check_weak_completeness,
    intransitivity_fixture,
)
from prefcompose.order import StrictOrder, comparator_from, maximal_set, width
from prefcompose.properties import verify_property
from prefcompose.simulator import (
    SimConfig,
    generate_tree,
    random_order,
    random_spec,
    run_experiment,
    tree_provider,
    write_csv,
)


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


def _explicit(instance):
    return ExplicitProvider(
        instance.spec, instance.components, instance.feasible_sequences
    )


def _names(instance, result):
    return sorted(
        tuple(sorted(instance.components[m].name for m in comp.members))
        for comp in result.solutions
    )


def _truth(instance):
    feasible = _explicit(instance).all_feasible()
    return brute_nondominated(instance.spec, [(c.key(), c.valuation) for c in feasible])


def test_criterion_01_intransitive_fixture_witnesses(announce):
    spec, u, v, z = intransitivity_fixture()
    dominates(spec, u, v)  # warm up before timing
    started = time.perf_counter()
    assert dominates(spec, u, v) == 0
    assert dominates(spec, v, z) == 1
    assert dominates(spec, u, z) is None
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert elapsed_ms < 1.0
    announce(f"criterion 01 PASS: fixture witness chain exact ({elapsed_ms:.3f} ms)")


def test_criterion_02_interleave_fixture_exactness(announce):
    instance = load_instance("interleave_unsound")
    compose_and_filter(instance.spec, _explicit(instance))  # warm up
    interleave_compose(instance.spec, _explicit(instance))
    truth = _truth(instance)
    started = time.perf_counter()
    exhaustive = compose_and_filter(instance.spec, _explicit(instance))
    interleaved = interleave_compose(instance.spec, _explicit(instance))
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert _names(instance, exhaustive) == [("W2",), ("W3", "W4")]
    assert _names(instance, interleaved) == [("W1",), ("W2",)]
    assert not check_soundness(interleaved, truth)
    assert check_weak_completeness(interleaved, truth)
    assert elapsed_ms < 1.0
    announce(f"criterion 02 PASS: interleave fixture exact ({elapsed_ms:.3f} ms)")


def test_criterion_03_per_attribute_fixture_exactness(announce):
    tradeoff = load_instance("tradeoff_compromise")
    union = weakly_complete_compose(tradeoff.spec, _explicit(tradeoff))
    assert _names(tradeoff, union) == [("C1",), ("C2",)]
    assert sorted(map(str, _truth(tradeoff))) == ["(0,)", "(1,)", "(2,)"]

    single = load_instance("single_attribute_unsound")
    first = att_weakly_complete_compose(single.spec, _explicit(single))
    assert first.config["picked_attribute"] == 0
    assert _names(single, first) == [("C1",), ("C3",)]
    second = att_weakly_complete_compose(single.spec, _explicit(single), pick_seed=0)
    assert second.config["picked_attribute"] == 1
    assert _names(single, second) == [("C1",), ("C2",)]
    assert sorted(map(str, _truth(single))) == ["(0,)"]
    announce("criterion 03 PASS: per-attribute algorithm fixtures exact")


def test_criterion_04_course_computations(announce):
    courses = load_instance("courses")
    spec = courses.spec
    area = next(a for a in spec.attributes if a.name == "area")
    instructor = next(a for a in spec.attributes if a.name == "instructor")
    credits = next(a for a in spec.attributes if a.name == "credits")

    area_ids = [area.domain.index(n) for n in ("FM", "AI", "DB", "NW", "TH")]
    assert sorted(area.domain[i] for i in aggregate(area, area_ids).frontier) == ["DB", "NW"]
    instr_ids = [instructor.domain.index(n) for n in ("Tom", "Gopal", "Bob", "Jane")]
    assert sorted(instructor.domain[i] for i in aggregate(instructor, instr_ids).frontier) == [
        "Jane",
        "Tom",
    ]
    credit_plans = {
        "P1": (4, 3, 2, 3, 3, 3),
        "P2": (4, 3, 4, 2, 3, 3),
        "P3": (2, 3, 3, 2, 3, 3),
    }
    expected_totals = {"P1": 18, "P2": 19, "P3": 16}
    for plan, values in credit_plans.items():
        ids = [credits.domain.index(str(v)) for v in values]
        assert aggregate(credits, ids).scalar == expected_totals[plan]
    fm_th = AggValue.of_frontier((area.domain.index("FM"), area.domain.index("TH")))
    db_nw = AggValue.of_frontier((area.domain.index("DB"), area.domain.index("NW")))
    assert strictly_preferred(area, fm_th, db_nw)
    announce("criterion 04 PASS: worked course computations exact")


def _instance_grid(count, rng, intra_kinds=("po", "to"), imp_kinds=("io", "to"),
                   mode="random_per_node"):
    feas_values = (0.25, 0.5, 0.75, 1.0)
    for i in range(count):
        yield SimConfig(
            feas=feas_values[i % 4],
            domain_size=(2, 4, 8)[i % 3],
            attr_count=(2, 4, 8)[(i // 3) % 3],
            repo_size=(20, 40, 60)[(i // 9) % 3],
            intra_kind=intra_kinds[i % len(intra_kinds)],
            importance_kind=imp_kinds[(i // 2) % len(imp_kinds)],
            valuation_mode=mode,
            seed=int(rng.integers(0, 2**62)),
        )


def test_criterion_05_exhaustive_algorithm_matches_brute_force(announce):
    rng = np.random.default_rng(1005)
    started = time.perf_counter()
    mismatches = 0
    instances = 0
    for config in _instance_grid(1000, rng):
        instance_rng = np.random.default_rng(config.seed)
        spec = random_spec(config, instance_rng)
        tree = generate_tree(spec, config, instance_rng)
        produced = {
            c.key()
            for c in compose_and_filter(spec, tree_provider(tree)).solutions
        }
        truth = brute_nondominated(
            spec,
            [(c.key(), c.valuation) for c in tree_provider(tree).all_feasible()],
        )
        mismatches += produced != truth
        instances += 1
    elapsed = time.perf_counter() - started
    assert instances >= 1000
    assert mismatches == 0
    assert elapsed < 60.0
    announce(
        f"criterion 05 PASS: {instances} instances, {mismatches} mismatches "
        f"({elapsed:.1f} s)"
    )


def _sound_complete_sweep(configs, algorithms):
    """Run algorithms per instance, yielding (config, truth, results dict)."""
    for config in configs:
        rng = np.random.default_rng(config.seed)
        spec = random_spec(config, rng)
        tree = generate_tree(spec, config, rng)
        truth = brute_nondominated(
            spec, [(c.key(), c.valuation) for c in tree_provider(tree).all_feasible()]
        )
        results = {}
        for name, run in algorithms.items():
            results[name] = run(spec, tree_provider(tree))
        yield config, truth, results


def test_criterion_06_theorem_suite(announce):
    lines = []

    report = verify_property("transitivity", trials=500, seed=106)
    assert report.violations == 0
    lines.append(f"dominance partial-order: 0/{report.instances_checked}")

    report = verify_property("weak-order", trials=500, seed=106)
    assert report.violations == 0
    lines.append(f"total-order weak dominance: 0/{report.instances_checked}")

    report = verify_property("extension-never-dominates", trials=500, seed=106)
    assert report.violations == 0
    lines.append(f"extension never dominates: 0/{report.instances_checked}")

    report = verify_property("top-attribute-inclusion", trials=500, seed=106)
    assert report.violations == 0
    lines.append(f"top-attribute inclusion: 0/{report.instances_checked} pairs")

    rng = np.random.default_rng(2006)
    union_runs = {
        "a2": weakly_complete_compose,
        "a3": att_weakly_complete_compose,
    }
    checked = 0
    for _, truth, results in _sound_complete_sweep(
        _instance_grid(500, rng), union_runs
    ):
        assert check_soundness(results["a2"], truth)
        assert check_weak_completeness(results["a2"], truth)
        assert check_weak_completeness(results["a3"], truth)
        checked += 1
    lines.append(f"union algorithm sound+weakly-complete: {checked} instances")

    rng = np.random.default_rng(3006)
    complete_runs = {
        "a2": weakly_complete_compose,
        "a3": att_weakly_complete_compose,
    }
    checked = 0
    for _, truth, results in _sound_complete_sweep(
        _instance_grid(500, rng, imp_kinds=("to",)), complete_runs
    ):
        # a total importance order leaves a unique top attribute
        assert check_completeness(results["a2"], truth)
        assert check_completeness(results["a3"], truth)
        checked += 1
    lines.append(f"unique-top completeness: {checked} instances")

    rng = np.random.default_rng(4006)
    interleave_runs = {"a4": interleave_compose}
    checked = 0
    for _, truth, results in _sound_complete_sweep(
        _instance_grid(500, rng, intra_kinds=("to",), imp_kinds=("to",), mode="aggregated"),
        interleave_runs,
    ):
        assert check_soundness(results["a4"], truth)
        assert check_weak_completeness(results["a4"], truth)
        assert check_completeness(results["a4"], truth)
        checked += 1
    lines.append(f"interleave exact under total orders: {checked} instances")

    announce("criterion 06 PASS: " + "; ".join(lines))


def test_criterion_07_forced_experiment_rows(announce):
    config = SimConfig(
        feas=0.5, domain_size=4, attr_count=4, repo_size=40,
        intra_kind="to", importance_kind="to", valuation_mode="aggregated", seed=1007,
    )
    records = run_experiment(config, ("a3", "a4"), repetitions=200)
    a3 = [r for r in records if r.algorithm == "a3"]
    a4 = [r for r in records if r.algorithm == "a4"]
    assert len(a3) == len(a4) == 200
    assert all(r.sp_over_pf == 1.0 for r in a3)
    assert all(r.sp_over_pf == 1.0 for r in a4)
    assert all(r.sp_over_s == 1.0 for r in a4)

    config = SimConfig(
        feas=0.5, domain_size=4, attr_count=4, repo_size=40,
        intra_kind="po", importance_kind="to", seed=2007,
    )
    records = run_experiment(config, ("a3",), repetitions=200)
    assert len(records) == 200
    assert all(r.sp_over_pf == 1.0 for r in records)

    config = SimConfig(
        feas=0.5, domain_size=4, attr_count=4, repo_size=40,
        intra_kind="po", importance_kind="io", seed=3007,
    )
    records = run_experiment(config, ("a3", "a4"), repetitions=200)
    mean_a3 = float(np.mean([r.sp_over_s for r in records if r.algorithm == "a3"]))
    mean_a4 = float(np.mean([r.sp_over_s for r in records if r.algorithm == "a4"]))
    assert mean_a4 > mean_a3
    announce(
        "criterion 07 PASS: forced rows exact on 200+200 instances; "
        f"directional sp/s mean {mean_a4:.3f} (interleave) > {mean_a3:.3f} (single-attribute)"
    )


def test_criterion_08_efficiency_invariants(announce):
    rng = np.random.default_rng(1008)
    paired = 0
    for config in _instance_grid(500, rng):
        instance_rng = np.random.default_rng(config.seed)
        spec = random_spec(config, instance_rng)
        tree = generate_tree(spec, config, instance_rng)
        a3 = att_weakly_complete_compose(spec, tree_provider(tree))
        a4 = interleave_compose(spec, tree_provider(tree))
        assert a4.fcount <= a3.fcount
        paired += 1

    bound_checks = 0
    for _ in range(200):
        n = int(rng.integers(1, 41))
        order = random_order(n, "partial", rng, density=float(rng.random() * 0.6))
        items = [int(i) for i in rng.permutation(n)]
        _, count = maximal_set(items, comparator_from(order))
        assert count <= 2 * width(order) * n
        bound_checks += 1

    pool_checks = 0
    for config in _instance_grid(100, rng):
        instance_rng = np.random.default_rng(config.seed)
        spec = random_spec(config, instance_rng)
        tree = generate_tree(spec, config, instance_rng)
        pool = [(c.key(), c.valuation) for c in tree_provider(tree).all_feasible()]
        if len(pool) < 2:
            continue
        matrix = PackedPool(spec, [v for _, v in pool]).dominance_matrix()
        steps = matrix.astype(np.float64)
        reach = (steps @ steps) > 0
        if np.any(reach & ~matrix) or matrix.diagonal().any():
            continue  # dominance not an order here; width undefined
        dominance_order = StrictOrder(matrix)
        kept, count = maximal_set(list(range(len(pool))), comparator_from(dominance_order))
        assert count <= 2 * width(dominance_order) * len(pool)
        assert {pool[i][0] for i in kept} == nondominated(spec, pool)
        pool_checks += 1
    assert pool_checks > 50
    announce(
        f"criterion 08 PASS: {paired} paired expansion counts, {bound_checks} + "
        f"{pool_checks} comparison-bound checks"
    )


def test_criterion_09_conjecture_probe(announce):
    report = verify_property("interval-total-weak-order", trials=2000, seed=1009)
    assert report.info_only
    assert report.instances_checked >= 2000
    assert report.passed  # informational: violations are logged, never failed
    note = f"{report.violations} violations in {report.instances_checked} trials"
    if report.violations:
        payload = json.loads(report.first_violation)
        note += f" (first replay seed {payload['seed']})"
    announce(f"criterion 09 PASS: weak-order probe reported, {note}")


def test_criterion_10_determinism(announce, tmp_path):
    config = SimConfig(feas=0.5, domain_size=4, attr_count=4, repo_size=30, seed=1010)
    csv_paths = []
    for i in range(2):
        records = run_experiment(config, ("a1", "a3", "a4"), repetitions=10)
        path = tmp_path / f"records{i}.csv"
        write_csv(records, str(path))
        csv_paths.append(path.read_bytes())
    assert csv_paths[0] == csv_paths[1]

    json_payloads = []
    for i in range(2):
        out = tmp_path / f"result{i}.json"
        assert main(["solve", "courses", "--algorithm", "a1", "--out", str(out)]) == 0
        json_payloads.append(out.read_bytes())
    assert json_payloads[0] == json_payloads[1]
    announce("criterion 10 PASS: seeded runs byte-identical (CSV and JSON)")
