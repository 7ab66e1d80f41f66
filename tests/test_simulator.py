"""Random trees, random orders, and the experiment harness."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from prefcompose import (
    AggKind,
    AggValue,
    AttributeSchema,
    BudgetExceeded,
    Composition,
    DomainError,
    PreferenceSpec,
    Valuation,
    aggregation,
    build_order,
    classify,
    composition,
    enumerate_feasible,
)
from prefcompose.aggregation import merge
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

from conftest import frontier_spec, merged, scalar_tree_draws, sum_attribute


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
        parent, valuations = scalar_tree_draws(spec, r, scalar)
        assert tree.parent == parent
        if mode == "random_per_node":
            assert [c.valuation for c in tree.nodes[1:]] == valuations
        else:  # each node merges its component's drawn values into its parent's
            for node in range(1, r + 1):
                up = tree.nodes[parent[node]].valuation
                assert tree.nodes[node].valuation == merged(spec, up, valuations[node - 1])
        assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("intra_kind", ["po", "to", "io", "wo"])
def test_aggregated_nodes_merge_each_distinct_pair_once(intra_kind):
    """Each aggregated node valuation is its parent's merged with its
    component's base, and equal frontiers of one attribute are one shared
    object per tree."""
    for seed in range(30):
        for m in (1, 4, 16):
            rng = np.random.default_rng(seed)
            config = SimConfig(attr_count=m, intra_kind=intra_kind, valuation_mode="aggregated")
            spec = random_spec(config, rng)
            if m > 1:
                attrs = (*spec.attributes[:-1], sum_attribute(m - 1, "cost", (4, 1, 9, 2)))
                spec = PreferenceSpec(attrs, spec.importance)
            _, bases = scalar_tree_draws(spec, config.repo_size, copy.deepcopy(rng))
            tree = generate_tree(spec, config, rng)
            for node in range(1, tree.node_count):
                up = tree.nodes[tree.parent[node]].valuation
                base = bases[node - 1]
                expected = tuple(map(merge, spec.attributes, up, base))
                assert tree.nodes[node].valuation == Valuation(expected)
            for attr in spec.attributes:
                if attr.agg_kind is not AggKind.SUM:
                    shared = {}
                    for comp in tree.nodes[1:]:
                        value = comp.valuation[attr.attr_id]
                        assert shared.setdefault(value, value) is value


def _every_kind_spec(n, rng):
    """One attribute of each aggregation kind over n values: partial orders
    for the frontiers, total orders for min and max, and a sum whose values
    hold -0.0 and magnitudes 1e16 apart, so the summation order and the sign
    of zero both show."""
    kinds = [
        (AggKind.WORST_FRONTIER, random_order(n, "partial", rng)),
        (AggKind.BEST_FRONTIER, random_order(n, "partial", rng)),
        (AggKind.MIN, random_order(n, "total", rng)),
        (AggKind.MAX, random_order(n, "total", rng)),
    ]
    domain = tuple(f"v{j}" for j in range(n))
    attrs = [AttributeSchema(i, f"x{i}", domain, order, kind) for i, (kind, order) in enumerate(kinds)]
    numeric = [(-0.0, 1e16, 0.1, -1e16, 3.0)[j % 5] * (1 + j // 5) for j in range(n)]
    attrs.append(sum_attribute(len(attrs), "cost", numeric))
    return PreferenceSpec(tuple(attrs), random_order(len(attrs), "interval", rng))


# The aggregated cases keep their test ids without the mode.
@pytest.mark.parametrize("mode", ["aggregated", "random_per_node"], ids=[pytest.HIDDEN_PARAM, "random_per_node"])
@pytest.mark.parametrize("block_cells", [aggregation.BLOCK_CELLS, 1])
@pytest.mark.parametrize("n", [2, 6, 70, 300])
def test_aggregated_nodes_equal_the_merge_fold_of_their_members(n, block_cells, mode, monkeypatch):
    """Every node valuation, of every kind and domain size (70 and 300
    values pass the 64th), is the ``merge`` fold of its members' bases (a
    per-node node's one member is its own draw); sums match to the sign of
    zero.  A block of one set per product gives the same nodes."""
    monkeypatch.setattr(aggregation, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(n)
    for _ in range(3):
        spec = _every_kind_spec(n, rng)
        _, bases = scalar_tree_draws(spec, 120, copy.deepcopy(rng))
        tree = generate_tree(spec, SimConfig(repo_size=120, valuation_mode=mode), rng)
        bottom = composition.empty_composition(spec).valuation
        for node in range(1, tree.node_count):
            fold = bottom
            for comp_id in tree.nodes[node].members if mode == "aggregated" else (node - 1,):
                fold = merged(spec, fold, bases[comp_id])
            assert tree.nodes[node].valuation == fold
            got, want = tree.nodes[node].valuation[-1].scalar, fold[-1].scalar
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_deep_tree_sums_equal_the_ascending_merge_fold_bit_for_bit():
    """Root paths longer than 8 members, where a pairwise sum would regroup
    the terms: every node sum is the ``merge`` fold of its members in
    ascending order, bit for bit, with magnitudes 1e16 apart and -0.0 among
    the values."""
    attr = sum_attribute(0, "cost", (-0.0, 1e16, 1.0, -1e16, 0.1, 3.0))
    spec = PreferenceSpec((attr,), build_order([], 1))
    _, bases = scalar_tree_draws(spec, 800, np.random.default_rng(3))
    config = SimConfig(repo_size=800, valuation_mode="aggregated")
    tree = generate_tree(spec, config, np.random.default_rng(3))
    assert max(len(comp.members) for comp in tree.nodes) > 8
    for comp in tree.nodes[1:]:
        fold = tree.nodes[0].valuation
        for comp_id in comp.members:
            fold = merged(spec, fold, bases[comp_id])
        assert comp.valuation[0].scalar.hex() == fold[0].scalar.hex()


@pytest.mark.parametrize("kind", [AggKind.MIN, AggKind.MAX])
def test_min_and_max_over_a_non_total_order_raise_as_merge_does(kind):
    """Two incomparable values on one root path have no unique extreme:
    generate_tree raises DomainError, as the merge fold over the same draws
    does."""
    attr = AttributeSchema(0, "x", ("a", "b", "c"), build_order([(0, 1)], 3), kind)
    spec = PreferenceSpec((attr,), build_order([], 1))
    config = SimConfig(repo_size=20, valuation_mode="aggregated")
    with pytest.raises(DomainError, match="needs a unique extreme"):
        generate_tree(spec, config, np.random.default_rng(0))
    parent, bases = scalar_tree_draws(spec, 20, np.random.default_rng(0))
    fold = [composition.empty_composition(spec).valuation]
    with pytest.raises(DomainError, match="needs a unique extreme"):
        for node in range(1, 21):
            fold.append(merged(spec, fold[parent[node]], bases[node - 1]))


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


def _loop_order(n, kind, rng, density):
    """``random_order`` as edge lists drawn one scalar at a time: the
    reference for its matrix draws."""
    if kind in ("total", "partial"):
        perm = rng.permutation(n)
        edges = [
            (int(perm[i]), int(perm[j]))
            for i in range(n)
            for j in range(i + 1, n)
            if kind == "total" or rng.random() < density
        ]
    elif kind == "interval":
        a = rng.random(n)
        b = rng.random(n)
        left, right = np.minimum(a, b), np.maximum(a, b)
        edges = [(x, y) for x in range(n) for y in range(n) if x != y and left[x] > right[y]]
    else:  # weak
        level_count = int(rng.integers(1, n + 1))
        levels = np.empty(n, dtype=np.int64)
        for pos, elem in enumerate(rng.permutation(n)):
            levels[elem] = pos if pos < level_count else rng.integers(0, level_count)
        edges = [(x, y) for x in range(n) for y in range(n) if levels[x] < levels[y]]
    return build_order(edges, n)


@pytest.mark.parametrize("kind", ["total", "partial", "interval", "weak"])
def test_matrix_orders_equal_the_scalar_edge_loops(kind):
    """Each kind's one-matrix draw gives the order the edge loops give and
    leaves the generator in the same state, so seeded specs do not change."""
    for n in (1, 2, 3, 6, 9, 16, 40):
        for seed in range(40):
            density = (0.3, 0.0, 0.7, 1.0)[seed % 4]
            matrix, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_order(n, kind, matrix, density) == _loop_order(n, kind, loop, density)
            assert matrix.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("kind", ["po", "to", "io", "wo"])
def test_spec_orders_equal_one_order_draw_each(kind):
    """``random_spec`` draws its value orders as one stack; each equals the
    order a ``random_order`` call per attribute draws, the importance order
    follows, and the generator ends in the same state."""
    long = {"po": "partial", "to": "total", "io": "interval", "wo": "weak"}[kind]
    for m in (1, 2, 5, 16):
        for n in (1, 2, 4, 9):
            for seed in range(6):
                config = SimConfig(domain_size=n, attr_count=m, intra_kind=kind, importance_kind=kind,
                                   density=(0.3, 0.0, 0.7)[seed % 3])
                stacked, loop = np.random.default_rng(seed), np.random.default_rng(seed)
                spec = random_spec(config, stacked)
                each = [random_order(n, long, loop, config.density) for _ in range(m)]
                assert [attr.intra_order for attr in spec.attributes] == each
                assert spec.importance == random_order(m, long, loop, config.density)
                assert stacked.bit_generator.state == loop.bit_generator.state
                for attr in spec.attributes:
                    assert attr.domain == tuple(f"v{j}" for j in range(n))
                    assert not attr.intra_order.matrix.flags.writeable


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
    path = [leaf]
    while tree.parent[path[-1]] > 0:
        path.append(tree.parent[path[-1]])
    leaf_comp = root
    for node in reversed(path):
        leaf_comp = next(c for c in provider.extensions(leaf_comp) if c.provider_node == node)
    assert leaf_comp.provider_node == leaf
    assert leaf_comp.terminal
    assert provider.extensions(leaf_comp) == []


@pytest.mark.parametrize("mode", ["random_per_node", "aggregated"])
def test_providers_over_one_tree_share_its_compositions(mode, rng):
    """Every provider over a tree hands out the tree's own composition
    objects, each what the tree's parents, children and valuations give;
    call counts and budgets stay per provider."""
    config = SimConfig(repo_size=40, feas=0.5, valuation_mode=mode)
    spec = random_spec(config, rng)
    tree = generate_tree(spec, config, rng)
    first, second = tree_provider(tree, budget=5), tree_provider(tree, budget=3)

    def expected(node):
        members, up = [], node
        while up > 0:
            members.append(up - 1)
            up = tree.parent[up]
        return Composition(tuple(reversed(members)), tree.nodes[node].valuation, node,
                           terminal=not tree.children[node])

    assert first.root() is second.root()
    assert first.root() == expected(0)
    feasible = first.all_feasible()
    assert [c.provider_node for c in feasible] == sorted(tree.feasible_leaves)
    assert all(a is b for a, b in zip(feasible, second.all_feasible()))
    assert all(c == expected(c.provider_node) for c in feasible)
    inner = [node for node in range(tree.node_count) if tree.children[node]]
    for node in inner[:3]:
        comp = tree.nodes[node]
        ours, theirs = first.extensions(comp), second.extensions(comp)
        assert ours is not theirs
        assert all(a is b for a, b in zip(ours, theirs)) and len(ours) == len(theirs)
        assert ours == [expected(child) for child in tree.children[node]]
    assert (first.invocation_count, second.invocation_count) == (3, 3)
    with pytest.raises(BudgetExceeded):
        second.extensions(first.root())
    first.extensions(first.root())
    first.extensions(first.root())
    assert (first.invocation_count, second.invocation_count) == (5, 4)
    with pytest.raises(BudgetExceeded):
        first.extensions(first.root())


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
