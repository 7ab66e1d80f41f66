"""The witness-based dominance relation and non-dominated filtering."""

from __future__ import annotations

import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefcompose import (
    AggKind,
    AggValue,
    AttributeSchema,
    PreferenceSpec,
    ShapeError,
    SumPolarity,
    Valuation,
    aggregate,
    algorithms,
    build_order,
    dominance,
    dominates,
    nondominated,
    witnesses,
)
from prefcompose.aggregation import (
    DomainError,
    KindMismatch,
    at_least_as_preferred,
    merge,
    strictly_preferred,
)
from prefcompose.algorithms import interleave_compose
from prefcompose.cli import load_instance, main
from prefcompose.composition import Composition, ExplicitProvider, FeasibilityProvider
from prefcompose.dominance import PackedPool
from prefcompose.simulator import SimConfig, generate_tree, random_spec, tree_provider
from prefcompose.oracle import brute_nondominated, intransitivity_fixture, plain_dominates

from conftest import (
    check_class_rows,
    counting_packs,
    counting_tables,
    frontier_spec,
    mixed_spec_and_pool,
    singleton_valuation,
    sum_attribute,
    ulps_above,
)


def test_witness_chain_of_bundled_counterexample():
    spec, u, v, z = intransitivity_fixture()
    assert dominates(spec, u, v) == 0
    assert dominates(spec, v, z) == 1
    assert dominates(spec, u, z) is None


def test_dominance_is_irreflexive_on_fixture():
    spec, u, v, z = intransitivity_fixture()
    for val in (u, v, z):
        assert dominates(spec, val, val) is None


def test_fixture_breaks_transitivity():
    spec, u, v, z = intransitivity_fixture()
    assert dominates(spec, u, v) is not None
    assert dominates(spec, v, z) is not None
    assert dominates(spec, u, z) is None  # the chain does not close


def test_dominates_reports_direction_and_witness():
    spec, u, v, z = intransitivity_fixture()
    assert dominates(spec, u, v) == 0
    assert dominates(spec, v, u) is None  # never both ways


def test_dominates_indifferent_both_ways():
    spec, u, v, z = intransitivity_fixture()
    assert dominates(spec, u, z) is None
    assert dominates(spec, z, u) is None
    assert dominates(spec, u, u) is None


def test_shape_error_on_misaligned_valuation():
    spec, u, _, _ = intransitivity_fixture()
    short = Valuation(u[:2])
    with pytest.raises(ShapeError):
        dominates(spec, short, u)


def test_witness_prefers_lowest_attribute_id():
    spec = frontier_spec([(("a", "b"), [(0, 1)])] * 2, importance_edges=[])
    better = singleton_valuation(0, 0)
    worse = singleton_valuation(1, 1)
    assert witnesses(spec, better, worse) == [0, 1]
    assert dominates(spec, better, worse) == 0


def test_nondominated_keeps_balanced_tradeoffs():
    spec = frontier_spec(
        [(("a1", "a2", "a3"), [(0, 1), (1, 2)]), (("b1", "b2", "b3"), [(0, 1), (1, 2)])],
        importance_edges=[],
    )
    pool = [
        ("c1", singleton_valuation(0, 2)),
        ("c2", singleton_valuation(2, 0)),
        ("c3", singleton_valuation(1, 1)),
    ]
    assert nondominated(spec, pool) == {"c1", "c2", "c3"}


def test_nondominated_drops_dominated_entries():
    spec = frontier_spec(
        [(("a1", "a2"), [(0, 1)]), (("b1", "b2"), [(0, 1)])],
        importance_edges=[],
    )
    pool = [
        ("c1", singleton_valuation(0, 0)),
        ("c2", singleton_valuation(1, 0)),
        ("c3", singleton_valuation(0, 1)),
    ]
    assert nondominated(spec, pool) == {"c1"}


def test_nondominated_singleton_is_kept():
    spec = frontier_spec([(("a", "b"), [(0, 1)])], importance_edges=[])
    assert nondominated(spec, [("only", singleton_valuation(1))]) == {"only"}


def test_nondominated_retains_duplicate_valuations():
    spec = frontier_spec([(("a", "b"), [(0, 1)])], importance_edges=[])
    pool = [("c1", singleton_valuation(0)), ("c2", singleton_valuation(0))]
    assert nondominated(spec, pool) == {"c1", "c2"}


def test_nondominated_is_exact_under_non_interval_importance():
    # u > v > z but not u > z: a filter that assumes transitivity lets z
    # back in once v, its only dominator, has been dropped.
    spec, u, v, z = intransitivity_fixture()
    assert nondominated(spec, [("u", u), ("v", v), ("z", z)]) == {"u"}
    assert nondominated(spec, [("z", z), ("v", v), ("u", u)]) == {"u"}


def test_empty_and_singleton_pools():
    spec, u, _, _ = intransitivity_fixture()
    empty = PackedPool(spec, []).dominance_matrix()
    assert empty.shape == (0, 0)
    assert nondominated(spec, []) == set()
    assert not PackedPool(spec, [u]).dominance_matrix().any()
    assert nondominated(spec, [("u", u)]) == {"u"}
    assert PackedPool(spec, []).best_on(0) == []
    assert PackedPool(spec, [u]).best_on(0) == [0]


def _witness_attributes(spec, u, v):
    """Direct reading of the witness definition, attribute by attribute."""
    imp = spec.importance.matrix
    attrs = spec.attributes
    return [
        i
        for i in range(spec.attr_count)
        if strictly_preferred(attrs[i], u[i], v[i])
        and all(imp[i, k] or at_least_as_preferred(attrs[k], u[k], v[k]) for k in range(spec.attr_count))
    ]


def test_packed_and_plain_paths_agree(rng):
    for trial in range(200):
        spec, pool = mixed_spec_and_pool(rng, ("io", "po", "to", "wo")[trial % 4])
        for u in pool:
            for v in pool:
                expected = _witness_attributes(spec, u, v)
                assert bool(expected) == plain_dominates(spec, u, v)
                assert witnesses(spec, u, v) == expected
                assert dominates(spec, u, v) == (expected[0] if expected else None)
        ids = list(enumerate(pool))
        assert nondominated(spec, ids) == brute_nondominated(spec, ids)


def _chain_spec(n):
    from prefcompose import AggKind, AttributeSchema, PreferenceSpec, build_order

    attr = AttributeSchema(
        0, "big", tuple(f"v{i}" for i in range(n)),
        build_order([(i, i + 1) for i in range(n - 1)], n),
        AggKind.WORST_FRONTIER,
    )
    return PreferenceSpec((attr,), build_order([], 1))


def test_large_domains_match_the_oracle(rng):
    for n in (70, 300):
        spec = _chain_spec(n)
        better, worse = singleton_valuation(0), singleton_valuation(n - 1)
        assert dominates(spec, better, worse) == 0
        assert dominates(spec, worse, better) is None
        assert nondominated(spec, [("b", better), ("w", worse)]) == {"b"}
    for n in (70, 300):
        for trial in range(4):
            spec, pool = mixed_spec_and_pool(
                rng, ("io", "po", "to", "wo")[trial], domain_size=n, pool_size=12
            )
            matrix = PackedPool(spec, pool).dominance_matrix()
            assert matrix.tolist() == [[plain_dominates(spec, u, v) for v in pool] for u in pool]


def test_frontier_of_256_unbeaten_values_is_not_beaten():
    # 256 values of b's frontier that a leaves unbeaten: a count that an
    # 8-bit product would wrap to zero, i.e. to "everything beaten".
    spec = frontier_spec([(tuple(f"v{i}" for i in range(300)), [(0, 299)])], importance_edges=[])
    a = Valuation((AggValue.of_frontier((0,)),))
    b = Valuation((AggValue.of_frontier(range(1, 257)),))
    assert not plain_dominates(spec, a, b)
    assert dominates(spec, a, b) is None
    assert nondominated(spec, [("a", a), ("b", b)]) == {"a", "b"}


def _with_empty_frontiers(spec, pool, rng):
    """The pool plus copies of two entries with one frontier attribute emptied."""
    frontier_attrs = [a.attr_id for a in spec.attributes if a.agg_kind is not AggKind.SUM]
    extra = []
    for val in (pool[0], pool[-1]):
        emptied = int(rng.choice(frontier_attrs))
        extra.append(Valuation(tuple(
            AggValue.of_frontier(()) if i == emptied else x for i, x in enumerate(val)
        )))
    return pool + extra


def test_pools_sharing_a_spec_match_fresh_packs_and_the_oracle(rng):
    # Many pools packed under one spec, in shuffled order; each answer must
    # equal a pack under a fresh copy of the spec and the oracle.
    cases = [(kind, size) for size in (None, 70, 300) for kind in ("po", "to", "io", "wo")]
    for kind, size in cases:
        spec, pool = mixed_spec_and_pool(rng, kind, domain_size=size, pool_size=10)
        pool = _with_empty_frontiers(spec, pool, rng)
        for count in (1, 3, 6, len(pool), int(rng.integers(1, len(pool))), len(pool)):
            picked = rng.permutation(len(pool))[:count]
            sub = [pool[j] for j in picked]
            fresh = replace(spec)
            matrix = PackedPool(spec, sub).dominance_matrix()
            assert matrix.tolist() == PackedPool(fresh, sub).dominance_matrix().tolist()
            assert matrix.tolist() == [[plain_dominates(spec, u, v) for v in sub] for u in sub]
            assert PackedPool(spec, sub).undominated() == PackedPool(fresh, sub).undominated()
            for attr in spec.attributes:
                i = attr.attr_id
                expected = [
                    j for j, v in enumerate(sub)
                    if not any(strictly_preferred(attr, u[i], v[i]) for u in sub)
                ]
                assert PackedPool(spec, sub).best_on(i) == PackedPool(fresh, sub).best_on(i) == expected
            for u, v in zip(sub, sub[::-1]):
                assert dominates(spec, u, v) == dominates(fresh, u, v)
                assert witnesses(spec, u, v) == witnesses(fresh, u, v) == _witness_attributes(spec, u, v)
                assert (dominates(spec, u, v) is not None) == plain_dominates(spec, u, v)


def test_every_explicit_table_is_packed_once_by_its_builder(monkeypatch, tmp_path):
    """An explicit provider's builder packs its one table; a1-a4 pack none;
    an annotated ``solve`` packs one more, of its solutions."""
    tables = counting_tables(monkeypatch)
    instance = load_instance("courses")
    provider = ExplicitProvider(instance.spec, instance.components, instance.feasible_sequences)
    assert tables == [len(provider.states)]
    for algorithm in algorithms.ALGORITHMS.values():
        algorithm(instance.spec, provider)
    assert tables == [len(provider.states)]
    tables.clear()
    assert main(["solve", "courses", "--algorithm", "a1", "--out", str(tmp_path / "out.json")]) == 0
    solutions = json.loads((tmp_path / "out.json").read_text())["solutions"]
    assert len(solutions) > 1
    assert tables == [len(provider.states), len(solutions)]


_FRONTIER_KINDS = (AggKind.WORST_FRONTIER, AggKind.BEST_FRONTIER, AggKind.MIN, AggKind.MAX)


@st.composite
def _order_edges(draw, n, total=False):
    """Edges of a strict order over 0..n-1: a random relabelling of a chain
    (total) or of some of the pairs i < j."""
    labels = draw(st.permutations(range(n)))
    if total:
        return [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]


@st.composite
def _spec_and_pool(draw):
    """A spec over every aggregation kind and sum polarity, and a pool of 0 to
    8 entries with empty frontiers, sums 0, 1 or 2 ulps above a drawn sum, and
    duplicate rows."""
    attrs = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 4))
        kind = draw(st.sampled_from((*_FRONTIER_KINDS, *SumPolarity)))
        if isinstance(kind, SumPolarity):
            attrs.append(sum_attribute(i, f"s{i}", draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), kind))
        else:
            order = build_order(draw(_order_edges(n, total=kind in (AggKind.MIN, AggKind.MAX))), n)
            attrs.append(AttributeSchema(i, f"x{i}", tuple(map(str, range(n))), order, kind))
    spec = PreferenceSpec(tuple(attrs), build_order(draw(_order_edges(len(attrs))), len(attrs)))
    pool = []
    for _ in range(draw(st.integers(0, 6))):
        row = []
        for attr in attrs:
            picks = draw(st.lists(st.integers(0, len(attr.domain) - 1), min_size=1, max_size=3))
            value = aggregate(attr, picks)
            if attr.agg_kind is AggKind.SUM:
                value = AggValue.of_scalar(ulps_above(value.scalar, draw(st.integers(0, 2))))
            elif draw(st.integers(0, 4)) == 0:
                value = AggValue.of_frontier(())
            row.append(value)
        pool.append(Valuation(row))
    if pool:
        pool += [pool[j] for j in draw(st.lists(st.integers(0, len(pool) - 1), max_size=2))]
    return spec, pool


@settings(max_examples=60, deadline=None)
@given(_spec_and_pool(), st.data())
def test_pools_in_any_order_match_a_fresh_spec(case, data):
    """Pools over one spec, built in any order, give the matrices, ids and
    sums that each pool gives on a fresh copy of the spec."""
    spec, pool = case
    indices = st.lists(st.integers(0, len(pool) - 1), max_size=8) if pool else st.just([])
    for rows in data.draw(st.lists(indices, min_size=1, max_size=5)):
        sub = [pool[j] for j in rows]
        shared, alone = PackedPool(spec, sub), PackedPool(replace(spec), sub)
        assert shared.dominance_matrix().tolist() == alone.dominance_matrix().tolist()
        for name in ("ids", "stack", "signed"):
            assert np.array_equal(getattr(shared, name), getattr(alone, name))
        assert shared.sums == alone.sums


@settings(max_examples=100, deadline=None)
@given(_spec_and_pool())
def test_packed_valuations_follow_the_class_rule(case):
    """``pack_valuations`` over every aggregation kind, sum polarity and
    empty frontiers gives each (attribute, frontier) it holds one class, with
    the rows the rule gives (see ``conftest.check_class_rows``)."""
    spec, pool = case
    check_class_rows(spec, dominance.pack_valuations(spec, pool), pool)


@settings(max_examples=150, deadline=None)
@given(_spec_and_pool(), st.integers(1, 64), st.data())
def test_stacked_relations_equal_the_plain_reading(case, block_cells, data):
    """The stacked matrix, each pool witness, ``witnesses`` and ``best_on``,
    on the pool and on a pool of some rows of its table (``of_rows``), equal
    the pairwise reading of the definition, whether the pool fits one row
    block or spans many; ``of_rows`` gives the class rows, signed sums and
    ties of a fresh pool over its rows (its ids may differ: a fresh table
    numbers only the classes it holds)."""
    spec, pool = case
    with mock.patch.object(dominance, "BLOCK_CELLS", block_cells):
        packed = PackedPool(spec, pool)
        assert packed.dominance_matrix().tolist() == [[plain_dominates(spec, u, v) for v in pool] for u in pool]
        for a, u in enumerate(pool):
            for b, v in enumerate(pool):
                every = _witness_attributes(spec, u, v)
                assert witnesses(spec, u, v) == every
                assert packed.witness(a, b) == (every[0] if every else -1)
        rows = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=8)) if pool else []
        taken = PackedPool.of_rows(spec, dominance.pack_valuations(spec, pool), rows, [pool[j] for j in rows])
        fresh = PackedPool(spec, [pool[j] for j in rows])
        assert taken.valuations == fresh.valuations
        for name in ("stack", "signed"):
            assert np.array_equal(getattr(taken, name), getattr(fresh, name))
        assert np.array_equal(taken.ids[:, :, None] == taken.ids[:, None, :],
                              fresh.ids[:, :, None] == fresh.ids[:, None, :])
        assert taken.dominance_matrix().tolist() == fresh.dominance_matrix().tolist()
        for i, attr in enumerate(spec.attributes):
            for reading in (packed, taken):
                entries = reading.valuations
                beaten = [any(strictly_preferred(attr, u[i], v[i]) for u in entries) for v in entries]
                assert reading.best_on(i) == [j for j, out in enumerate(beaten) if not out]


def test_a4_packs_its_state_table_once(monkeypatch):
    """On a tree shaped like the benchmark's (r=200, m=8, partial value
    orders, interval importance, aggregated), the tree's builder packs its
    one table; each a4 round gathers one pool, of its working list's rows of
    that table, and packs nothing.  No algorithm calls ``pack_valuations``
    or ``packed_table``: a1, a2 and a3 then each gather one pool of the
    feasible rows of the same table."""
    tables = counting_tables(monkeypatch)
    packs, gathers = counting_packs(monkeypatch)
    rounds = []  # per round's filter: the tables packed before it, and its working list's size
    sources = []  # the table of every gathered pool
    filter_dominance, of_rows = algorithms._filter_dominance, PackedPool.of_rows.__func__

    def counted_filter(pool, comps):
        rounds.append((len(tables), len(comps)))
        return filter_dominance(pool, comps)

    def sourced_of_rows(cls, spec, table, rows, valuations):
        sources.append(table)
        return of_rows(cls, spec, table, rows, valuations)

    monkeypatch.setattr(algorithms, "_filter_dominance", counted_filter)
    monkeypatch.setattr(PackedPool, "of_rows", classmethod(sourced_of_rows))
    config = SimConfig(repo_size=200, attr_count=8, domain_size=6, intra_kind="po", importance_kind="io",
                       valuation_mode="aggregated")
    for seed in range(3):
        for found in (tables, rounds, packs, gathers, sources):
            found.clear()
        rng = np.random.default_rng(seed)
        spec = random_spec(config, rng)
        tree = generate_tree(spec, config, rng)
        assert tables == [tree.node_count]
        interleave_compose(spec, tree_provider(tree))
        assert len(rounds) > 1
        assert {packed for packed, _ in rounds} == {1}
        a4_gathers = [size for _, size in rounds]
        assert packs == [] and gathers == a4_gathers
        for name in ("a1", "a2", "a3"):
            algorithms.ALGORITHMS[name](spec, tree_provider(tree))
        assert tables == [tree.node_count]
        assert packs == [] and gathers == a4_gathers + [len(tree.feasible_leaves)] * 3
        assert all(table is tree.packed for table in sources)


def test_replaced_spec_starts_with_fresh_state(rng):
    spec, pool = mixed_spec_and_pool(rng, "to", pool_size=8)
    PackedPool(spec, pool).dominance_matrix()
    flat = replace(spec, importance=build_order([], spec.attr_count))
    assert flat.packing is None
    matrix = PackedPool(flat, pool).dominance_matrix()
    assert flat.packing is not spec.packing
    # with no importance, every attribute is in every witness's scope
    assert flat.packing.scope.tolist() == [[1.0] * spec.attr_count] * spec.attr_count
    assert matrix.tolist() == [[plain_dominates(flat, u, v) for v in pool] for u in pool]


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_out_of_range_frontier_ids_raise_the_merge_error(bad):
    """A frontier id outside the domain raises DomainError with merge's
    message from every pairwise and pool reading, in both positions: no
    negative id wraps to the last value, and no id past the end reads the
    empty-frontier placeholder."""
    spec = frontier_spec([("abc", [(0, 1), (1, 2)])], [])
    attr = spec.attributes[0]
    good, wrong = singleton_valuation(0), Valuation((AggValue.of_frontier((bad, 1)),))
    with pytest.raises(DomainError) as info:
        merge(attr, wrong[0], good[0])
    expected = str(info.value)
    assert expected == f"attribute x0: value id {bad} outside domain of size 3"
    for u, v in ((good, wrong), (wrong, good)):
        readings = [
            lambda: dominates(spec, u, v),
            lambda: witnesses(spec, u, v),
            lambda: nondominated(spec, [(0, u), (1, v)]),
            lambda: plain_dominates(spec, u, v),
            lambda: strictly_preferred(attr, u[0], v[0]),
            lambda: at_least_as_preferred(attr, u[0], v[0]),
            lambda: brute_nondominated(spec, [(0, u), (1, v)]),
        ]
        for reading in readings:
            with pytest.raises(DomainError) as info:
                reading()
            assert str(info.value) == expected
    # the spec still reads valid pools after the error
    assert dominates(spec, good, singleton_valuation(2)) == 0


@pytest.mark.parametrize("wrong_at", [0, 1])
def test_wrong_kind_values_raise_the_merge_error(wrong_at):
    """A scalar on a worst-frontier attribute, or a frontier on a sum
    attribute, raises KindMismatch with merge's message, naming the
    attribute, from every pairwise and pool reading, in both positions."""
    frontier = frontier_spec([("abc", [(0, 1), (1, 2)])], []).attributes[0]
    spec = PreferenceSpec((frontier, sum_attribute(1, "cost", (1, 2))), build_order([], 2))
    attr = spec.attributes[wrong_at]
    good = Valuation((AggValue.of_frontier((0,)), AggValue.of_scalar(1.0)))
    values = list(good)
    values[wrong_at] = (AggValue.of_scalar(2.0), AggValue.of_frontier((1,)))[wrong_at]
    wrong = Valuation(values)
    with pytest.raises(KindMismatch) as info:
        merge(attr, wrong[wrong_at], good[wrong_at])
    expected = str(info.value)
    assert expected.startswith(f"attribute {attr.name} aggregates as {attr.agg_kind.value}")
    for u, v in ((good, wrong), (wrong, good)):
        readings = [
            lambda: dominates(spec, u, v),
            lambda: witnesses(spec, u, v),
            lambda: nondominated(spec, [(0, u), (1, v)]),
            lambda: PackedPool(spec, [u, v]).best_on(wrong_at),
            lambda: plain_dominates(spec, u, v),
            lambda: strictly_preferred(attr, u[wrong_at], v[wrong_at]),
            lambda: at_least_as_preferred(attr, u[wrong_at], v[wrong_at]),
            lambda: brute_nondominated(spec, [(0, u), (1, v)]),
        ]
        for reading in readings:
            with pytest.raises(KindMismatch) as info:
                reading()
            assert str(info.value) == expected


@pytest.mark.parametrize("sum_first", [False, True])
def test_the_lowest_bad_attribute_raises_the_oracle_error(sum_first):
    """A valuation with value id 7 on a frontier attribute (domain of 3) and
    a NaN sum on a sum attribute raises the error of whichever attribute
    comes first, with the oracle's message, from every pool reading."""
    frontier = frontier_spec([("abc", [(0, 1), (1, 2)])], []).attributes[0]
    attrs = [frontier, sum_attribute(1, "cost", (1, 2))]
    good = [AggValue.of_frontier((0,)), AggValue.of_scalar(1.0)]
    bad = [AggValue.of_frontier((7,)), AggValue(None, float("nan"))]
    if sum_first:
        attrs = [replace(attrs[1], attr_id=0), replace(attrs[0], attr_id=1)]
        good, bad = good[::-1], bad[::-1]
    spec = PreferenceSpec(tuple(attrs), build_order([], 2))
    good, bad = Valuation(good), Valuation(bad)
    with pytest.raises(DomainError) as info:
        brute_nondominated(spec, [(0, good), (1, bad)])
    expected = str(info.value)
    assert expected == ("attribute cost: sum nan is not finite" if sum_first
                        else "attribute x0: value id 7 outside domain of size 3")
    states = [Composition((), good, 0), Composition((0,), bad, 1)]
    for u, v in ((good, bad), (bad, good)):
        readings = [
            lambda: dominates(spec, u, v),
            lambda: witnesses(spec, u, v),
            lambda: nondominated(spec, [(0, u), (1, v)]),
            lambda: PackedPool(spec, [u, v]),
            lambda: FeasibilityProvider(states, [], []).pool(spec, states),
        ]
        for reading in readings:
            with pytest.raises(DomainError) as info:
                reading()
            assert str(info.value) == expected
