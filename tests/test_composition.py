"""Compositions, valuation folding, and the feasibility-provider contract."""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefcompose import (
    AggKind,
    AggValue,
    AttributeSchema,
    BudgetExceeded,
    Component,
    Composition,
    DomainError,
    ExplicitProvider,
    FeasibilityProvider,
    KindMismatch,
    PreferenceSpec,
    ShapeError,
    SumPolarity,
    Valuation,
    build_order,
    dominates,
    empty_composition,
    enumerate_feasible,
)
from prefcompose.cli import load_instance
from prefcompose.dominance import PackedPool
from prefcompose.simulator import SimConfig, generate_tree, random_order, random_spec, random_valuations, tree_provider

from conftest import frontier_spec, merged, scalar_tree_draws, singleton_valuation, sum_attribute


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


def test_composition_is_an_immutable_hashable_record():
    """A Composition reads, compares and hashes as the tuple of its fields,
    is keyed by its provider node, is not terminal unless told so, and no
    field can be assigned."""
    valuation = Valuation((AggValue.of_frontier((0,)),))
    comp = Composition((0, 2), valuation, (0, 2))
    assert comp.members == (0, 2) and comp.valuation is valuation and comp.provider_node == (0, 2)
    assert comp.terminal is False and comp.key() == (0, 2)
    same = Composition(members=(0, 2), valuation=Valuation(valuation), provider_node=(0, 2), terminal=False)
    assert comp == same and hash(comp) == hash(same)
    assert comp != Composition((0, 2), valuation, (0, 2), terminal=True)
    for field in ("members", "valuation", "provider_node", "terminal"):
        with pytest.raises(AttributeError):
            setattr(comp, field, None)


def _state(instance, names):
    """The feasible state of one listed sequence of named components."""
    ids = [instance.component_ids[name] for name in names]
    (state,) = ExplicitProvider(instance.spec, instance.components, [ids]).all_feasible()
    return state


def test_extending_empty_yields_component_valuation():
    spec = frontier_spec([(("a", "b"), [(0, 1)])] * 2, importance_edges=[])
    component = Component(0, "w", singleton_valuation(1, 0))
    provider = ExplicitProvider(spec, [component], [[0]])
    (extended,) = provider.extensions(provider.root())
    assert extended.valuation == component.base_valuation
    assert extended.members == (0,)


def test_extend_keeps_multiset_members():
    spec = PreferenceSpec((sum_attribute(0, "cost", (2.5,)),), build_order([], 1))
    w = Component(0, "w", Valuation((AggValue.of_scalar(2.5),)))
    (comp,) = ExplicitProvider(spec, [w], [[0, 0]]).all_feasible()
    assert comp.members == (0, 0)
    assert comp.valuation[0].scalar == 5.0  # a sum counts each copy


def test_two_component_merge_matches_expected_frontier(unsound_instance):
    comp = _state(unsound_instance, ["W3", "W4"])
    assert comp.valuation[0].frontier == frozenset({2, 3})  # both values survive


def test_course_instructor_fold():
    courses = load_instance("courses")
    spec = courses.spec
    comp = _state(courses, ["CS501", "CS502", "CS505", "CS506", "CS509", "CS510"])
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
        picks = rng.integers(0, 5, size=int(rng.integers(1, 4))).tolist()
        sequences = [picks, picks + [int(rng.integers(0, 5))]]
        comp, extended = ExplicitProvider(spec, components, sequences).all_feasible()
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


def test_explicit_states_equal_the_merge_fold_of_their_members():
    """Sequences that share prefixes reach states along several paths; every
    state, whether enumerated or native, equals the ``merge`` fold of its
    members' base valuations, and a multiset listed twice is one object."""
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
        native = provider.all_feasible()
        for comp in enumerate_feasible(provider) + native:
            fold = empty_composition(spec).valuation
            for comp_id in comp.members:
                fold = merged(spec, fold, bases[comp_id])
            assert comp.valuation == fold
        by_key = {}
        for comp in native:
            assert by_key.setdefault(comp.members, comp) is comp


@pytest.mark.parametrize(
    "bad, error",
    [
        (singleton_valuation(5), DomainError),  # value id outside the domain
        (Valuation((AggValue.of_scalar(1.0),)), KindMismatch),  # a scalar for a frontier
        (singleton_valuation(0, 1), ShapeError),  # one value too many
    ],
    ids=["domain", "kind", "shape"],
)
def test_a_component_valuation_that_fails_its_checks_is_rejected_on_build(bad, error):
    """What ``merge`` checks at the first extension is checked when the
    provider is built, for every component, listed in a sequence or not."""
    spec = frontier_spec([(("a", "b"), [(0, 1)])], importance_edges=[])
    components = [Component(0, "ok", singleton_valuation(1)), Component(1, "bad", bad)]
    with pytest.raises(error):
        ExplicitProvider(spec, components, [[0]])


@pytest.mark.parametrize("kind", [AggKind.MIN, AggKind.MAX, AggKind.WORST_FRONTIER], ids=lambda kind: kind.value)
def test_empty_frontier_components_are_neutral(kind):
    """A component with an empty frontier (the neutral element ``merge``
    accepts) adds nothing: a set of such components keeps the empty
    frontier, also on a min or max attribute, and a set with one valued
    member keeps that member's value."""
    attr = AttributeSchema(
        attr_id=0, name="x0", domain=("a", "b"), intra_order=build_order([(0, 1)], 2), agg_kind=kind
    )
    spec = PreferenceSpec(attributes=(attr,), importance=build_order([], 1))
    empty = Valuation((AggValue.of_frontier(()),))
    bases = [empty, singleton_valuation(1), empty]
    components = [Component(i, f"w{i}", v) for i, v in enumerate(bases)]
    provider = ExplicitProvider(spec, components, [[0], [0, 2], [2, 0, 1]])
    assert [c.valuation for c in provider.all_feasible()] == [empty, empty, bases[1]]
    for comp in provider.all_feasible():
        fold = empty_composition(spec).valuation
        for comp_id in comp.members:
            fold = merged(spec, fold, bases[comp_id])
        assert comp.valuation == fold


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


def _object_walk(provider):
    """The walk over state objects that ``enumerate_feasible`` replaced:
    ``root``, ``is_feasible`` and ``extensions`` per state, in DFS order."""
    found = []
    root = provider.root()
    stack, visited = [root], {root.key()}
    while stack:
        comp = stack.pop()
        if provider.is_feasible(comp):
            found.append(comp)
        if comp.terminal:
            continue
        for ext in provider.extensions(comp):
            if ext.key() not in visited:
                visited.add(ext.key())
                stack.append(ext)
    return found


def _walk_table(case, rng):
    """A provider whose state table the walk cases share."""
    if case.startswith("tree"):
        mode = "aggregated" if case == "tree-aggregated" else "random_per_node"
        config = SimConfig(repo_size=60, feas=0.5, attr_count=3, valuation_mode=mode)
        return tree_provider(generate_tree(random_spec(config, rng), config, rng))
    instance = load_instance("tradeoff_compromise")
    n = len(instance.components)
    if case == "shared-prefix":
        # sequences that share their first one or two components
        sequences = [[0, 1], [0, 2], [0, 1, 2], [1, 2], [1, 0, 2], [2]]
    else:  # permuted-duplicate: each multiset listed in several orders
        sequences = [[0, 1], [1, 0], [2, 1, 0], [0, 2, 1], [1, 2], [2, 1], [2]]
    sequences += [rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist() for _ in range(6)]
    return ExplicitProvider(instance.spec, instance.components, sequences)


@pytest.mark.parametrize("case", ["tree-aggregated", "tree-random_per_node", "shared-prefix", "permuted-duplicate"])
def test_key_walk_matches_the_object_walk(case, rng):
    """``enumerate_feasible`` returns the table's own objects in the object
    walk's order, charges the same extension calls and the same delay, bit
    for bit, also on a provider already used, and raises ``BudgetExceeded``
    at the same call for every budget below its call count."""
    table = _walk_table(case, rng)

    def provider(budget=10_000_000):
        return FeasibilityProvider(table.states, table.children, table.feasible, table.root_key,
                                   fdelay_ms=0.1, budget=budget)

    ours, theirs = provider(), provider()
    for _ in range(2):  # the second walk adds to the counts of the first
        found, expected = enumerate_feasible(ours), _object_walk(theirs)
        assert len(found) == len(expected) and all(a is b for a, b in zip(found, expected))
        assert ours.invocation_count == theirs.invocation_count
        assert ours.simulated_ms.hex() == theirs.simulated_ms.hex()
    fcount = ours.invocation_count // 2
    assert found and fcount > 1
    for budget in range(fcount + 1):
        ours, theirs = provider(budget), provider(budget)
        raised = []
        for walk, walked in ((enumerate_feasible, ours), (_object_walk, theirs)):
            try:
                walk(walked)
            except BudgetExceeded:
                raised.append(True)
            else:
                raised.append(False)
        assert raised == [budget < fcount] * 2
        assert ours.invocation_count == theirs.invocation_count == min(budget + 1, fcount)
        assert ours.simulated_ms.hex() == theirs.simulated_ms.hex()


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
            fold = merged(spec, fold, bases[comp_id])
        assert fold == tree.nodes[node].valuation


def _two_providers_over_one_table(case, rng):
    """A provider with budget 5 and one with budget 3, over one state table:
    a generated tree's in either valuation mode, or an explicit instance that
    lists the multiset {W3, W4} twice, in both orders."""
    if case == "explicit":
        instance = load_instance("interleave_unsound")
        sequences = [*instance.feasible_sequences, list(reversed(instance.feasible_sequences[-1]))]
        first = ExplicitProvider(instance.spec, instance.components, sequences, budget=5)
        return first, FeasibilityProvider(first.states, first.children, first.feasible, first.root_key, budget=3)
    config = SimConfig(repo_size=40, feas=0.5, valuation_mode=case)
    tree = generate_tree(random_spec(config, rng), config, rng)
    return tree_provider(tree, budget=5), tree_provider(tree, budget=3)


@pytest.mark.parametrize("case", ["random_per_node", "aggregated", "explicit"])
def test_every_provider_serves_its_state_table(case, rng):
    """The root and every extension are the table's own objects, every state
    is reached, ``is_feasible`` holds exactly on ``all_feasible``'s keys, and
    providers over one table share objects but count and budget apart.  A
    tree's provider is the plain ``FeasibilityProvider``."""
    first, second = _two_providers_over_one_table(case, rng)
    if case != "explicit":
        assert type(first) is type(second) is FeasibilityProvider
    walker = FeasibilityProvider(first.states, first.children, first.feasible, first.root_key)
    root = walker.root()
    assert root is first.root() is second.root() is first.states[first.root_key]
    feasible = walker.all_feasible()
    assert all(c is walker.states[c.key()] for c in feasible)
    feasible_keys = {c.key() for c in feasible}
    reached, stack = {root.key(): root}, [root]
    while stack:
        comp = stack.pop()
        assert walker.is_feasible(comp) == (comp.key() in feasible_keys)
        extensions = walker.extensions(comp)
        assert not (comp.terminal and extensions)
        for ext in extensions:
            assert ext is walker.states[ext.key()]
            if ext.key() not in reached:
                reached[ext.key()] = ext
                stack.append(ext)
    assert len(reached) == len(first.states)
    assert feasible_keys <= reached.keys()
    if case == "explicit":
        assert len(feasible) == 4 and feasible[2] is feasible[3]

    ours, theirs = first.extensions(root), second.extensions(root)
    assert ours is not theirs and len(ours) == len(theirs)
    assert all(a is b for a, b in zip(ours, theirs))
    for _ in range(2):
        second.extensions(root)
    with pytest.raises(BudgetExceeded):
        second.extensions(root)
    for _ in range(4):
        first.extensions(root)
    assert (first.invocation_count, second.invocation_count) == (5, 4)
    with pytest.raises(BudgetExceeded):
        first.extensions(root)


_ALL_KINDS = (AggKind.WORST_FRONTIER, AggKind.BEST_FRONTIER, AggKind.MIN, AggKind.MAX,
              SumPolarity.LOWER_IS_BETTER, SumPolarity.HIGHER_IS_BETTER)


def _explicit_case(rng):
    """An explicit provider over a spec holding every aggregation kind (min
    and max over total value orders, the frontier kinds over partial ones,
    sums of both polarities over drawn numbers), with shared prefixes,
    permuted and repeated members, and sometimes the empty sequence."""
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 6))
    partial = random_spec(SimConfig(domain_size=n, attr_count=m, intra_kind="po"), rng)
    total = random_spec(SimConfig(domain_size=n, attr_count=m, intra_kind="to"), rng)
    attrs = []
    for i in range(m):
        kind = _ALL_KINDS[int(rng.integers(0, len(_ALL_KINDS)))]
        if isinstance(kind, SumPolarity):
            attrs.append(sum_attribute(i, f"s{i}", rng.integers(-4, 5, size=n) / 4, kind))
        else:
            order = (total if kind in (AggKind.MIN, AggKind.MAX) else partial).attributes[i].intra_order
            attrs.append(AttributeSchema(i, f"x{i}", tuple(map(str, range(n))), order, kind))
    spec = PreferenceSpec(tuple(attrs), partial.importance)
    components = [Component(k, f"c{k}", Valuation(
        AggValue.of_scalar(a.numeric_values[v]) if a.agg_kind is AggKind.SUM else AggValue.of_frontier((v,))
        for a, v in zip(attrs, rng.integers(0, n, size=m).tolist())
    )) for k in range(int(rng.integers(1, 7)))]
    sequences = [rng.integers(0, len(components), size=int(rng.integers(0 if j == 0 else 1, 5))).tolist()
                 for j in range(int(rng.integers(1, 9)))]
    return spec, ExplicitProvider(spec, components, sequences[int(rng.integers(0, 2)):] or sequences)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("aggregated", "random_per_node", "explicit")), st.integers(0, 2**32 - 1))
def test_pools_of_packed_rows_equal_pools_of_valuations(source, seed):
    """A pool gathered from a provider's packed table equals the pool of the
    same states' valuations: the dominance matrix, every attribute's best
    set and a sweep, on rows that hold the empty root, on the feasible rows,
    on random rows and on none, under the builder's spec and under one with
    other importance; and a provider built from the same states dict, which
    packs its table on its first pool, gives the same pools.  A spec with
    other attributes raises ``ShapeError``."""
    rng = np.random.default_rng(seed)
    if source == "explicit":
        spec, provider = _explicit_case(rng)
    else:
        config = SimConfig(repo_size=int(rng.integers(1, 40)), attr_count=int(rng.integers(1, 6)),
                           domain_size=int(rng.choice([2, 5, 70])), valuation_mode=source)
        spec = random_spec(config, rng)
        provider = tree_provider(generate_tree(spec, config, rng))
    assert provider.packed is not None and provider.packed.attributes is spec.attributes
    states = list(provider.table())
    plain = FeasibilityProvider({c.key(): c for c in states}, {}, [], provider.root_key)
    assert plain.packed is None
    other = replace(spec, importance=random_order(spec.attr_count, "partial", rng))
    feasible = provider.all_feasible()
    picks = rng.integers(0, len(states), size=int(rng.integers(1, 12))).tolist()
    for rows in (list(range(len(states))), [0, *picks], provider.rows(feasible), []):
        comps = [states[r] for r in rows]
        for reading in (spec, other):
            valuations = [c.valuation for c in comps]
            fresh = PackedPool(replace(reading), valuations)
            for pool in (PackedPool.of_rows(reading, provider.packed, rows, valuations),
                         provider.pool(reading, comps), plain.pool(reading, comps)):
                assert pool.dominance_matrix().tolist() == fresh.dominance_matrix().tolist()
                for i in range(spec.attr_count):
                    assert pool.best_on(i) == fresh.best_on(i)
                attrs = sorted(rng.choice(spec.attr_count, size=int(rng.integers(0, spec.attr_count + 1)),
                                          replace=False).tolist())
                beaten, matrix = pool.sweep(attrs)
                assert matrix.tolist() == fresh.dominance_matrix().tolist()
                assert [np.flatnonzero(~row).tolist() for row in beaten] == [fresh.best_on(i) for i in attrs]
    wider = PreferenceSpec((*spec.attributes, sum_attribute(spec.attr_count, "extra", (1, 2))),
                           build_order([], spec.attr_count + 1))
    assert plain.packed.attributes is spec.attributes
    for reading in (provider, plain):
        with pytest.raises(ShapeError):
            reading.pool(wider, states)
