"""Compositions, valuation folding, and the feasibility-provider contract."""

from __future__ import annotations

import copy
import math
from collections import Counter

import numpy as np
import pytest

from prefcompose import (
    AggValue,
    BudgetExceeded,
    Component,
    DomainError,
    ExplicitProvider,
    PreferenceSpec,
    Valuation,
    build_order,
    composition,
    dominates,
    empty_composition,
    enumerate_feasible,
    extend,
)
from prefcompose.aggregation import merge
from prefcompose.cli import load_instance
from prefcompose.composition import merge_valuations
from prefcompose.simulator import SimConfig, generate_tree, random_spec, random_valuations, tree_provider

from conftest import frontier_spec, scalar_tree_draws, singleton_valuation, sum_attribute


@pytest.fixture(scope="module")
def unsound_instance():
    return load_instance("interleave_unsound")


def _explicit(instance, **kwargs):
    return ExplicitProvider(
        instance.spec, instance.components, instance.feasible_sequences, **kwargs
    )


def test_empty_composition_is_neutral():
    from prefcompose import PreferenceSpec, build_order

    spec = PreferenceSpec(
        (sum_attribute(0, "cost", (1, 2)),), build_order([], 1)
    )
    bottom = empty_composition(spec)
    assert bottom.members == ()
    assert bottom.valuation[0].scalar == 0.0
    spec2 = frontier_spec([(("a", "b"), [(0, 1)])], importance_edges=[])
    assert empty_composition(spec2).valuation[0].frontier == frozenset()


def test_extending_empty_yields_component_valuation():
    spec = frontier_spec([(("a", "b"), [(0, 1)])] * 2, importance_edges=[])
    component = Component(0, "w", singleton_valuation(1, 0))
    extended = extend(spec, empty_composition(spec), component)
    assert extended.valuation == component.base_valuation
    assert extended.members == (0,)


def test_extend_keeps_multiset_members():
    spec = frontier_spec([(("a", "b"), [(0, 1)])], importance_edges=[])
    w = Component(3, "w", singleton_valuation(0))
    comp = extend(spec, extend(spec, empty_composition(spec), w), w)
    assert comp.members == (3, 3)


def test_two_component_merge_matches_expected_frontier(unsound_instance):
    spec = unsound_instance.spec
    comp = empty_composition(spec)
    for name in ("W3", "W4"):
        comp = extend(spec, comp, unsound_instance.components[unsound_instance.component_ids[name]])
    assert comp.valuation[0].frontier == frozenset({2, 3})  # both values survive


def test_course_instructor_fold(rng):
    courses = load_instance("courses")
    spec = courses.spec
    comp = empty_composition(spec)
    for name in ("CS501", "CS502", "CS505", "CS506", "CS509", "CS510"):
        comp = extend(spec, comp, courses.components[courses.component_ids[name]])
    instr = next(a for a in spec.attributes if a.name == "instructor")
    idx = spec.attributes.index(instr)
    assert sorted(instr.domain[i] for i in comp.valuation[idx].frontier) == ["Jane", "Tom"]
    credits_idx = next(i for i, a in enumerate(spec.attributes) if a.name == "credits")
    assert comp.valuation[credits_idx].scalar == 19


def test_extension_never_dominates_under_worst_frontier(rng):
    config = SimConfig(domain_size=5, attr_count=3, intra_kind="po", importance_kind="io")
    for _ in range(1000):
        spec = random_spec(config, rng)
        components = [Component(i, f"w{i}", v) for i, v in enumerate(random_valuations(spec, rng, 5))]
        comp = empty_composition(spec)
        for pick in rng.integers(0, 5, size=int(rng.integers(1, 4))):
            comp = extend(spec, comp, components[int(pick)])
        extended = extend(spec, comp, components[int(rng.integers(0, 5))])
        assert dominates(spec, extended.valuation, comp.valuation) is None


def test_enumerate_explicit_instance(unsound_instance):
    provider = _explicit(unsound_instance)
    found = enumerate_feasible(provider)
    assert sorted(c.members for c in found) == [(0,), (1,), (2, 3)]
    assert provider.invocation_count == 2  # the root and the one internal state


def test_explicit_provider_extension_semantics(unsound_instance):
    provider = _explicit(unsound_instance)
    root = provider.root()
    first = provider.extensions(root)
    assert sorted(c.members for c in first) == [(0,), (1,), (2,)]
    partial = next(c for c in first if c.members == (2,))
    assert not partial.terminal and not provider.is_feasible(partial)
    nxt = provider.extensions(partial)
    assert [c.members for c in nxt] == [(2, 3)]
    assert nxt[0].terminal and provider.is_feasible(nxt[0])


def test_explicit_provider_merges_each_distinct_frontier_pair_once(monkeypatch):
    """Sequences that share prefixes ask for the same frontier merges again;
    each distinct (attribute, a, b) is merged at most once per spec, across
    enumeration and the native feasible set, and every valuation equals the
    plain fold of its members' base valuations."""
    calls = Counter()

    def counting_merge(attr, a, b):
        calls[attr.attr_id, a, b] += 1
        return merge(attr, a, b)

    monkeypatch.setattr(composition, "merge", counting_merge)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        config = SimConfig(attr_count=4, intra_kind=("po", "to")[seed % 2])
        spec = random_spec(config, rng)
        attrs = (*spec.attributes[:-1], sum_attribute(3, "cost", (4, 1, 9, 2)))
        spec = PreferenceSpec(attrs, spec.importance)
        bases = random_valuations(spec, rng, 6)
        components = [Component(i, f"w{i}", v) for i, v in enumerate(bases)]
        # Few first and second elements, so many sequences share a prefix.
        sequences = [[int(rng.integers(0, 2)), int(rng.integers(0, 3)),
                      *rng.integers(0, 6, size=int(rng.integers(0, 3))).tolist()]
                     for _ in range(12)]
        provider = ExplicitProvider(spec, components, sequences)
        calls.clear()
        found = enumerate_feasible(provider) + provider.all_feasible()
        frontier = {key: n for key, n in calls.items() if key[0] != 3}
        assert max(frontier.values()) == 1
        # the sum attribute is merged once per merge_valuations call
        requests = sum(n for key, n in calls.items() if key[0] == 3)
        assert len(frontier) < 3 * requests
        for comp in found:
            expected = empty_composition(spec).valuation.per_attribute
            for comp_id in comp.members:
                base = components[comp_id].base_valuation.per_attribute
                expected = tuple(map(merge, spec.attributes, expected, base))
            assert comp.valuation == Valuation(expected)


def test_sum_merges_keep_the_sign_of_zero():
    """Sums are merged every time: 0.0 and -0.0 compare equal, so a kept
    0.0 + -0.0 would answer -0.0 + -0.0 with 0.0."""
    spec = PreferenceSpec((sum_attribute(0, "cost", (0,)),), build_order([], 1))
    zero, minus = (Valuation((AggValue.of_scalar(x),)) for x in (0.0, -0.0))
    assert math.copysign(1.0, merge_valuations(spec, zero, minus)[0].scalar) == 1.0
    assert math.copysign(1.0, merge_valuations(spec, minus, minus)[0].scalar) == -1.0


def test_a_frontier_pair_that_fails_its_checks_is_never_kept():
    spec = frontier_spec([(("a", "b"), [(0, 1)])], importance_edges=[])
    for _ in range(2):
        with pytest.raises(DomainError):
            merge_valuations(spec, singleton_valuation(0), singleton_valuation(5))
    assert spec.merge_table == [{}]


def test_explicit_provider_all_feasible_matches_enumeration(unsound_instance):
    provider = _explicit(unsound_instance)
    native = {tuple(c.members) for c in provider.all_feasible()}
    recursed = {tuple(c.members) for c in enumerate_feasible(_explicit(unsound_instance))}
    assert native == recursed


def test_provider_with_no_feasible_sets():
    instance = load_instance("interleave_unsound")
    provider = ExplicitProvider(instance.spec, instance.components, [])
    assert enumerate_feasible(provider) == []


def test_budget_exhaustion_raises():
    instance = load_instance("interleave_unsound")
    provider = _explicit(instance, budget=1)
    with pytest.raises(BudgetExceeded):
        enumerate_feasible(provider)


def test_shared_prefix_extensions_are_deduplicated():
    instance = load_instance("tradeoff_compromise")
    provider = ExplicitProvider(
        instance.spec,
        instance.components,
        [[0, 1], [0, 2]],
    )
    root = provider.root()
    (only,) = provider.extensions(root)
    assert only.members == (0,)
    nxt = provider.extensions(only)
    assert sorted(c.members for c in nxt) == [(0, 1), (0, 2)]


def test_permuted_duplicate_sequences_visit_each_state_once():
    instance = load_instance("tradeoff_compromise")
    provider = ExplicitProvider(
        instance.spec,
        instance.components,
        [[0, 1], [1, 0]],  # the same multiset written both ways
    )
    found = enumerate_feasible(provider)
    assert [c.members for c in found] == [(0, 1)]


def test_tree_enumeration_matches_native_all_feasible(rng):
    for _ in range(25):
        config = SimConfig(
            feas=(0.25, 0.5, 0.75, 1.0)[int(rng.integers(0, 4))],
            domain_size=4,
            attr_count=3,
            repo_size=int(rng.integers(5, 40)),
        )
        spec = random_spec(config, rng)
        tree = generate_tree(spec, config, rng)
        recursed = {c.provider_node for c in enumerate_feasible(tree_provider(tree))}
        native = {c.provider_node for c in tree_provider(tree).all_feasible()}
        assert recursed == native == tree.feasible_leaves


def test_cached_valuations_match_recomputed_folds(rng):
    config = SimConfig(domain_size=4, attr_count=3, repo_size=25, valuation_mode="aggregated")
    spec = random_spec(config, rng)
    _, bases = scalar_tree_draws(spec, config.repo_size, copy.deepcopy(rng))
    tree = generate_tree(spec, config, rng)
    for node in range(1, tree.node_count):
        fold = empty_composition(spec).valuation
        for comp_id in tree.nodes[node].members:
            fold = merge_valuations(spec, fold, bases[comp_id])
        assert fold == tree.node_valuation[node]
