"""The witness-based dominance relation and non-dominated filtering."""

from __future__ import annotations

import pytest

from prefcompose import (
    AggValue,
    ShapeError,
    Valuation,
    dominates,
    nondominated,
    witnesses,
)
from prefcompose.aggregation import at_least_as_preferred, strictly_preferred
from prefcompose.dominance import PackedPool, best_on
from prefcompose.oracle import brute_nondominated, intransitivity_fixture, plain_dominates

from conftest import frontier_spec, mixed_spec_and_pool, singleton_valuation


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
    short = Valuation(u.per_attribute[:2])
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
    assert best_on(spec, [], 0) == []
    assert best_on(spec, [u], 0) == [0]


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
