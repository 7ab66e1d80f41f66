"""Random trees, random orders, and the experiment harness."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from prefcompose import AggValue, PreferenceSpec, Valuation, build_order, classify, enumerate_feasible
from prefcompose import simulator
from prefcompose.aggregation import merge
from prefcompose.composition import merge_valuations
from prefcompose.simulator import (
    CSV_HEADER,
    SimConfig,
    generate_tree,
    random_order,
    random_spec,
    run_experiment,
    tree_provider,
    write_csv,
)

from conftest import frontier_spec, sum_attribute


def test_tree_parents_precede_children(rng):
    for _ in range(50):
        config = SimConfig(repo_size=int(rng.integers(1, 80)))
        tree = generate_tree(random_spec(config, rng), config, rng)
        for node in range(1, tree.node_count):
            assert 0 <= tree.parent[node] < node


def test_smallest_tree_is_root_plus_leaf(rng):
    config = SimConfig(repo_size=1, feas=1.0)
    tree = generate_tree(random_spec(config, rng), config, rng)
    assert tree.node_count == 2
    assert tree.leaves == [1]
    assert tree.feasible_leaves == {1}


def test_full_feasibility_marks_every_leaf(rng):
    config = SimConfig(repo_size=30, feas=1.0)
    tree = generate_tree(random_spec(config, rng), config, rng)
    assert tree.feasible_leaves == set(tree.leaves)


def test_feasible_leaf_count_is_floor_of_fraction(rng):
    for feas in (0.25, 0.5, 0.75, 1.0):
        config = SimConfig(repo_size=40, feas=feas)
        tree = generate_tree(random_spec(config, rng), config, rng)
        assert len(tree.feasible_leaves) == math.floor(feas * len(tree.leaves))


def test_empty_repository_is_rejected():
    with pytest.raises(ValueError, match="^repo_size"):
        SimConfig(repo_size=0)


def _scalar_tree_draws(spec, r, rng):
    """The parent and valuation draws of a tree, one scalar draw at a time:
    node k's parent uniform in 0..k-1, then per component (or node) one
    uniform value id per attribute."""
    parent = [-1] + [int(rng.integers(0, k)) for k in range(1, r + 1)]
    rows = [[int(rng.integers(0, len(attr.domain))) for attr in spec.attributes] for _ in range(r)]
    return parent, [
        Valuation(tuple(
            AggValue.of_scalar(attr.numeric_values[v]) if attr.numeric_values else AggValue.of_frontier((v,))
            for attr, v in zip(spec.attributes, row)
        ))
        for row in rows
    ]


@pytest.mark.parametrize("mode", ["random_per_node", "aggregated"])
def test_batched_tree_draws_equal_scalar_draws(mode):
    """generate_tree draws all parents in one call and all values in one
    (r, m) call.  Those calls must return what the scalar loops return and
    leave the generator in the same state, or every seeded tree changes; a
    NumPy stream change fails here rather than drifting silently."""
    frontier = frontier_spec([(range(n), []) for n in (2, 5, 3, 7, 1)], []).attributes
    attributes = (*frontier, sum_attribute(len(frontier), "cost", (4, 1, 9, 2)))
    spec = PreferenceSpec(attributes, build_order([], len(attributes)))
    for seed in range(50):
        r = 1 + 37 * seed % 250
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        tree = generate_tree(spec, SimConfig(repo_size=r, feas=0.0, valuation_mode=mode), batched)
        parent, valuations = _scalar_tree_draws(spec, r, scalar)
        assert tree.parent == parent
        drawn = tree.component_base if mode == "aggregated" else tree.node_valuation[1:]
        assert drawn == valuations
        assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("intra_kind", ["po", "to", "io", "wo"])
def test_aggregated_nodes_merge_each_distinct_pair_once(intra_kind, monkeypatch):
    """Each aggregated node valuation is its parent's merged with its
    component's base, and generate_tree merges each distinct
    (attribute, parent value, component value) at most once per tree."""
    calls = Counter()

    def counting_merge(attr, a, b):
        calls[attr.attr_id, a, b] += 1
        return merge(attr, a, b)

    monkeypatch.setattr(simulator, "merge", counting_merge)
    for seed in range(30):
        for m in (1, 4, 16):
            rng = np.random.default_rng(seed)
            config = SimConfig(attr_count=m, intra_kind=intra_kind, valuation_mode="aggregated")
            spec = random_spec(config, rng)
            if m > 1:
                attrs = (*spec.attributes[:-1], sum_attribute(m - 1, "cost", (4, 1, 9, 2)))
                spec = PreferenceSpec(attrs, spec.importance)
            calls.clear()
            tree = generate_tree(spec, config, rng)
            assert max(calls.values()) == 1
            for node in range(1, tree.node_count):
                base = tree.component_base[node - 1]
                expected = merge_valuations(spec, tree.node_valuation[tree.parent[node]], base)
                assert tree.node_valuation[node] == expected


def test_mean_leaf_depth_tracks_log_of_size(rng):
    r = 100
    config = SimConfig(repo_size=r, attr_count=2, domain_size=2)
    spec = random_spec(config, rng)
    total = 0.0
    trees = 1000
    for _ in range(trees):
        tree = generate_tree(spec, config, rng)
        depth = [0] * tree.node_count
        for node in range(1, tree.node_count):
            depth[node] = depth[tree.parent[node]] + 1
        total += float(np.mean([depth[leaf] for leaf in tree.leaves]))
    mean = total / trees
    assert abs(mean - math.log(r)) <= 0.15 * math.log(r)


def test_random_total_order_is_total(rng):
    for _ in range(50):
        flags = classify(random_order(int(rng.integers(1, 10)), "total", rng))
        assert flags.is_total


def test_random_interval_orders_pass_the_interval_check(rng):
    for _ in range(1000):
        flags = classify(random_order(8, "interval", rng))
        assert flags.is_interval


def test_random_weak_orders_are_weak(rng):
    for _ in range(200):
        flags = classify(random_order(int(rng.integers(1, 9)), "weak", rng))
        assert flags.is_weak


def test_zero_density_partial_order_is_empty(rng):
    order = random_order(6, "partial", rng, density=0.0)
    assert not order.matrix.any()


def test_unknown_order_kind_rejected(rng):
    with pytest.raises(ValueError):
        random_order(3, "ring", rng)


def test_tree_provider_extensions_and_feasibility(rng):
    config = SimConfig(repo_size=30, feas=0.5)
    spec = random_spec(config, rng)
    tree = generate_tree(spec, config, rng)
    provider = tree_provider(tree)
    root = provider.root()
    assert [c.provider_node for c in provider.extensions(root)] == tree.children[0]
    leaf = tree.leaves[0]
    leaf_comp = next(
        c for c in provider.extensions(provider._composition(tree.parent[leaf]))
        if c.provider_node == leaf
    )
    assert leaf_comp.terminal
    assert provider.extensions(leaf_comp) == []


def test_enumeration_cost_equals_internal_node_count(rng):
    config = SimConfig(repo_size=40, feas=0.5)
    spec = random_spec(config, rng)
    tree = generate_tree(spec, config, rng)
    provider = tree_provider(tree)
    enumerate_feasible(provider)
    internal = sum(1 for node in range(tree.node_count) if tree.children[node])
    assert provider.invocation_count == internal


def test_simulated_delay_accumulates_per_call(rng):
    config = SimConfig(repo_size=20, feas=0.5)
    spec = random_spec(config, rng)
    tree = generate_tree(spec, config, rng)
    provider = tree_provider(tree, fdelay_ms=10)
    enumerate_feasible(provider)
    assert provider.simulated_ms == 10 * provider.invocation_count


def test_records_satisfy_count_invariants():
    config = SimConfig(feas=0.5, domain_size=4, attr_count=4, repo_size=30, seed=5)
    records = run_experiment(config, ("a1", "a2", "a3", "a4"), repetitions=10)
    assert records
    for record in records:
        assert record.SP <= record.PF <= record.F
        assert record.SP <= record.S <= record.F
        assert record.fcount >= 0
        if record.algorithm == "a1":
            assert record.SP == record.PF == record.S


def test_interleaving_never_calls_the_composer_more(rng):
    config = SimConfig(feas=0.5, domain_size=4, attr_count=4, repo_size=40, seed=11)
    records = run_experiment(config, ("a1", "a3", "a4"), repetitions=20)
    by_seed = {}
    for record in records:
        by_seed.setdefault(record.seed, {})[record.algorithm] = record
    for group in by_seed.values():
        assert group["a4"].fcount <= group["a3"].fcount
        assert group["a4"].fcount <= group["a1"].fcount


def test_ratio_of_empty_truth_is_one():
    config = SimConfig(feas=0.25, domain_size=2, attr_count=2, repo_size=1, seed=3)
    records = run_experiment(config, ("a1",), repetitions=3)
    for record in records:
        if record.PF == 0:
            assert record.sp_over_pf == 1.0
            assert record.sp_over_s == 1.0


def test_same_seed_reproduces_identical_csv(tmp_path):
    config = SimConfig(feas=0.5, domain_size=4, attr_count=4, repo_size=25, seed=7)
    paths = []
    for i in range(2):
        records = run_experiment(config, ("a1", "a3", "a4"), repetitions=5)
        path = tmp_path / f"run{i}.csv"
        write_csv(records, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header = paths[0].read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)


def test_out_of_range_config_warns_but_runs():
    config = SimConfig(feas=0.33, domain_size=3, attr_count=3, repo_size=7, seed=1)
    assert config.range_warnings()
    assert run_experiment(config, ("a1",), repetitions=1)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        run_experiment(SimConfig(), ("a9",))
