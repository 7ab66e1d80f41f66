"""Aggregation of component values and comparison of aggregated values."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from prefcompose import (
    AggKind,
    AggValue,
    AttributeSchema,
    DomainError,
    KindMismatch,
    SumPolarity,
    aggregate,
    at_least_as_preferred,
    build_order,
    merge,
    strictly_preferred,
)
from prefcompose.aggregation import SCALAR_TOLERANCE, comparison_tables
from prefcompose.cli import load_instance

from conftest import sum_attribute


@pytest.fixture(scope="module")
def courses():
    return load_instance("courses")


def _by_name(spec, name):
    return next(a for a in spec.attributes if a.name == name)


def _labels(attr, value):
    return sorted(attr.domain[i] for i in value.frontier)


def test_worst_frontier_of_instructors(courses):
    instr = _by_name(courses.spec, "instructor")
    ids = [instr.domain.index(n) for n in ("Tom", "Gopal", "Bob", "Jane")]
    assert _labels(instr, aggregate(instr, ids)) == ["Jane", "Tom"]


def test_worst_frontier_of_areas(courses):
    area = _by_name(courses.spec, "area")
    ids = [area.domain.index(n) for n in ("FM", "AI", "DB", "NW", "TH")]
    assert _labels(area, aggregate(area, ids)) == ["DB", "NW"]


def test_sum_counts_duplicates(courses):
    credits = _by_name(courses.spec, "credits")
    ids = [credits.domain.index(str(v)) for v in (4, 3, 4, 2, 3, 3)]
    assert aggregate(credits, ids).scalar == 19


def test_singleton_aggregates_to_itself(courses):
    area = _by_name(courses.spec, "area")
    assert aggregate(area, [2]).frontier == frozenset({2})


def test_empty_order_keeps_all_values():
    attr = AttributeSchema(0, "x", ("a", "b", "c"), build_order([], 3), AggKind.WORST_FRONTIER)
    assert aggregate(attr, [0, 1, 2, 1]).frontier == frozenset({0, 1, 2})


def test_aggregate_rejects_out_of_range():
    attr = AttributeSchema(0, "x", ("a", "b"), build_order([], 2), AggKind.WORST_FRONTIER)
    with pytest.raises(DomainError):
        aggregate(attr, [0, 5])


def test_aggregate_rejects_empty_multiset():
    attr = AttributeSchema(0, "x", ("a", "b"), build_order([], 2), AggKind.WORST_FRONTIER)
    with pytest.raises(DomainError):
        aggregate(attr, [])


def test_min_max_need_totally_ordered_values():
    chain = build_order([(0, 1), (1, 2)], 3)
    worst = AttributeSchema(0, "x", ("a", "b", "c"), chain, AggKind.MIN)
    best = AttributeSchema(0, "x", ("a", "b", "c"), chain, AggKind.MAX)
    assert aggregate(worst, [0, 1, 2]).frontier == frozenset({2})
    assert aggregate(best, [0, 1, 2]).frontier == frozenset({0})
    partial = AttributeSchema(0, "x", ("a", "b", "c"), build_order([(0, 1)], 3), AggKind.MIN)
    with pytest.raises(DomainError):
        aggregate(partial, [0, 1, 2])  # no unique extreme


def test_merge_of_course_instructors_matches_full_aggregate(courses):
    instr = _by_name(courses.spec, "instructor")
    po_s2 = ["Tom", "Gopal", "Bob", "Bob", "Jane", "Tom"]
    value = AggValue.of_frontier((instr.domain.index(po_s2[0]),))
    for name in po_s2[1:]:
        value = merge(instr, value, AggValue.of_frontier((instr.domain.index(name),)))
    assert _labels(instr, value) == ["Jane", "Tom"]


def test_merge_is_idempotent_on_frontiers(courses):
    area = _by_name(courses.spec, "area")
    frontier = aggregate(area, [0, 2, 6])
    assert merge(area, frontier, frontier) == frontier


def test_merge_adds_scalars():
    cost = sum_attribute(0, "cost", (1, 2, 3, 16))
    assert merge(cost, AggValue.of_scalar(16), AggValue.of_scalar(3)).scalar == 19


def test_merge_rejects_kind_mismatch():
    cost = sum_attribute(0, "cost", (1, 2))
    with pytest.raises(KindMismatch):
        merge(cost, AggValue.of_frontier((0,)), AggValue.of_scalar(1))


def test_strict_preference_of_area_frontiers(courses):
    area = _by_name(courses.spec, "area")
    fm_th = AggValue.of_frontier((area.domain.index("FM"), area.domain.index("TH")))
    db_nw = AggValue.of_frontier((area.domain.index("DB"), area.domain.index("NW")))
    assert strictly_preferred(area, fm_th, db_nw)
    # checked by hand over the declared edges: nothing in {DB, NW} beats FM or TH
    assert not strictly_preferred(area, db_nw, fm_th)
    assert at_least_as_preferred(area, fm_th, db_nw)
    assert not at_least_as_preferred(area, db_nw, fm_th)


def test_strict_preference_is_irreflexive_on_frontiers(courses):
    area = _by_name(courses.spec, "area")
    frontier = aggregate(area, [0, 1, 2, 3])
    assert not strictly_preferred(area, frontier, frontier)
    assert at_least_as_preferred(area, frontier, frontier)


def test_scalar_comparison_follows_polarity():
    lower = sum_attribute(0, "cost", (16, 18))
    assert strictly_preferred(lower, AggValue.of_scalar(16), AggValue.of_scalar(18))
    assert not strictly_preferred(lower, AggValue.of_scalar(18), AggValue.of_scalar(16))
    higher = sum_attribute(0, "gain", (16, 18), polarity=SumPolarity.HIGHER_IS_BETTER)
    assert strictly_preferred(higher, AggValue.of_scalar(18), AggValue.of_scalar(16))


def test_scalar_ties_within_tolerance_are_equal():
    cost = sum_attribute(0, "cost", (1.0,))
    a = AggValue.of_scalar(1.0)
    b = AggValue.of_scalar(1.0 + 1e-12)
    assert not strictly_preferred(cost, a, b)
    assert at_least_as_preferred(cost, a, b) and at_least_as_preferred(cost, b, a)


def test_empty_frontier_is_never_strictly_beaten():
    attr = AttributeSchema(0, "x", ("a", "b"), build_order([(0, 1)], 2), AggKind.WORST_FRONTIER)
    bottom = AggValue.of_frontier(())
    top = AggValue.of_frontier((0,))
    assert not strictly_preferred(attr, top, bottom)
    assert not strictly_preferred(attr, bottom, top)
    assert at_least_as_preferred(attr, bottom, bottom)


def _random_attr(rng, kind=AggKind.WORST_FRONTIER):
    from prefcompose.simulator import random_order

    n = int(rng.integers(2, 8))
    return AttributeSchema(
        0, "x", tuple(f"v{i}" for i in range(n)),
        random_order(n, "partial", rng, density=0.4), kind,
    )


def test_frontier_outputs_are_antichains(rng):
    for _ in range(300):
        attr = _random_attr(rng)
        values = [int(v) for v in rng.integers(0, len(attr.domain), size=int(rng.integers(1, 7)))]
        frontier = aggregate(attr, values).frontier
        assert frontier
        for x in frontier:
            for y in frontier:
                assert not attr.intra_order.dominates(x, y)


def test_strict_preference_is_transitive_on_sampled_frontiers(rng):
    for _ in range(120):
        attr = _random_attr(rng)
        pool = [
            aggregate(attr, [int(v) for v in rng.integers(0, len(attr.domain), size=3)])
            for _ in range(6)
        ]
        for a in pool:
            assert not strictly_preferred(attr, a, a)
            for b in pool:
                for c in pool:
                    if strictly_preferred(attr, a, b) and strictly_preferred(attr, b, c):
                        assert strictly_preferred(attr, a, c)


def test_merge_commutative_and_associative(rng):
    for _ in range(150):
        attr = _random_attr(rng)
        parts = [
            aggregate(attr, [int(v) for v in rng.integers(0, len(attr.domain), size=2)])
            for _ in range(3)
        ]
        a, b, c = parts
        assert merge(attr, a, b) == merge(attr, b, a)
        assert merge(attr, merge(attr, a, b), c) == merge(attr, a, merge(attr, b, c))


def test_merge_never_beats_its_operands_under_worst_frontier(rng):
    for _ in range(300):
        attr = _random_attr(rng)
        a = aggregate(attr, [int(v) for v in rng.integers(0, len(attr.domain), size=2)])
        b = aggregate(attr, [int(v) for v in rng.integers(0, len(attr.domain), size=2)])
        merged = merge(attr, a, b)
        assert not strictly_preferred(attr, merged, a)
        assert not strictly_preferred(attr, merged, b)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(0, 4), min_size=1, max_size=8), seed=st.integers(0, 10**6))
def test_aggregate_equals_fold_of_singleton_merges(values, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    for kind in (AggKind.WORST_FRONTIER, AggKind.BEST_FRONTIER):
        from prefcompose.simulator import random_order

        attr = AttributeSchema(
            0, "x", tuple(f"v{i}" for i in range(5)),
            random_order(5, "partial", rng, density=0.4), kind,
        )
        folded = aggregate(attr, [values[0]])
        for v in values[1:]:
            folded = merge(attr, folded, aggregate(attr, [v]))
        assert folded == aggregate(attr, values)
    cost = sum_attribute(0, "cost", tuple(range(5)))
    folded = aggregate(cost, [values[0]])
    for v in values[1:]:
        folded = merge(cost, folded, aggregate(cost, [v]))
    assert folded.scalar == pytest.approx(aggregate(cost, values).scalar)


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


@pytest.mark.parametrize("order_kind", ["partial", "total", "interval", "weak"])
@pytest.mark.parametrize(
    "agg_kind", [AggKind.WORST_FRONTIER, AggKind.BEST_FRONTIER, AggKind.MIN, AggKind.MAX]
)
def test_merge_equals_aggregate_of_the_union(rng, order_kind, agg_kind):
    """Merging two antichains equals aggregating their union, for every
    frontier kind and order class; an empty frontier is neutral, and a value
    id outside the domain raises the DomainError aggregate raises."""
    from prefcompose.simulator import random_order

    for trial in range(150):
        n = int(rng.integers(1, 9))
        domain = tuple(f"v{i}" for i in range(n))
        order = random_order(n, order_kind, rng, density=0.4)
        attr = AttributeSchema(0, "x", domain, order, agg_kind)
        worst = AttributeSchema(0, "x", domain, order, AggKind.WORST_FRONTIER)

        def antichain():
            values = rng.integers(0, n, size=int(rng.integers(0, 5))).tolist()
            return aggregate(worst, values) if values else AggValue.of_frontier(())

        a, b = antichain(), antichain()
        if trial % 10 == 0:
            a = AggValue.of_frontier(a.frontier | {(-1, n, n + 3)[trial % 3]})
        union = a.frontier | b.frontier
        expected = _outcome(aggregate, attr, union) if union else AggValue.of_frontier(())
        assert _outcome(merge, attr, a, b) == expected
        assert _outcome(merge, attr, b, a) == expected


# Direct readings of the comparisons off the closure matrix, for the
# equivalence tests below.


def _naive_strict(mat, a, b):
    return bool(b) and all(any(mat[x, y] for x in a) for y in b)


def _naive_kept(mat, kind, values):
    distinct = set(values)
    if kind in (AggKind.WORST_FRONTIER, AggKind.MIN):
        return {x for x in distinct if not any(mat[x, y] for y in distinct)}
    return {x for x in distinct if not any(mat[y, x] for y in distinct)}


@pytest.mark.parametrize("n", [2, 5, 9, 70, 300])
def test_comparisons_match_the_closure_matrix(rng, n):
    from prefcompose.simulator import random_order

    for kind in ("partial", "total", "interval", "weak"):
        order = random_order(n, kind, rng, density=0.3)
        mat = order.matrix
        attrs = {agg: AttributeSchema(0, "x", tuple(map(str, range(n))), order, agg)
                 for agg in (AggKind.WORST_FRONTIER, AggKind.BEST_FRONTIER, AggKind.MIN, AggKind.MAX)}
        worst = attrs[AggKind.WORST_FRONTIER]
        frontiers = [AggValue.of_frontier(())]
        for _ in range(12):
            picks = [int(v) for v in rng.integers(0, n, size=int(rng.integers(1, 6)))]
            for agg, attr in attrs.items():
                expected = _naive_kept(mat, agg, picks)
                if agg in (AggKind.MIN, AggKind.MAX) and len(expected) != 1:
                    with pytest.raises(DomainError):
                        aggregate(attr, picks)
                    continue
                assert aggregate(attr, picks).frontier == expected
            frontiers.append(aggregate(worst, picks))
            frontiers.append(AggValue.of_frontier(picks))  # not always an antichain
        for a in frontiers:
            for b in frontiers:
                strict = _naive_strict(mat, a.frontier, b.frontier)
                assert strictly_preferred(worst, a, b) == strict
                assert at_least_as_preferred(worst, a, b) == (a.frontier == b.frontier or strict)


def test_agg_value_is_an_immutable_hashable_pair():
    """An AggValue compares, prints and hashes as the pair (frontier, scalar)
    and rejects assignment to a field."""
    frontier = AggValue.of_frontier((2, 0))
    scalar = AggValue.of_scalar(3)
    assert frontier == AggValue(frontier=frozenset({0, 2})) == AggValue(frozenset({0, 2}), None)
    assert scalar == AggValue(scalar=3.0) and scalar.scalar == 3.0 and scalar.frontier is None
    assert frontier != scalar and frontier != AggValue.of_frontier((0,))
    assert AggValue() == AggValue(frontier=None, scalar=None)
    assert repr(frontier) == "AggValue({0, 2})"
    assert repr(scalar) == "AggValue(3.0)"
    assert repr(AggValue.of_frontier(())) == "AggValue({})"
    assert frontier.is_frontier and not scalar.is_frontier
    for value in (frontier, scalar, AggValue.of_frontier(())):
        assert hash(value) == hash((value.frontier, value.scalar))
    assert len({frontier, AggValue.of_frontier([0, 2]), scalar}) == 2
    with pytest.raises(AttributeError):
        frontier.frontier = frozenset({1})
    with pytest.raises(AttributeError):
        scalar.scalar = 4.0


def _pairwise_tables(attr, values):
    strict = [[strictly_preferred(attr, a, b) for b in values] for a in values]
    at_least = [[at_least_as_preferred(attr, a, b) for b in values] for a in values]
    return strict, at_least


def _frontier_values(rng, attr, worst):
    """Outputs of ``aggregate`` for ``attr`` (a singleton when a min/max draw
    has no unique extreme), worst frontiers that need not be ``attr``'s, the
    empty frontier, and repeats."""
    n = len(attr.domain)
    values = [AggValue.of_frontier(())]
    for _ in range(int(rng.integers(0, 8))):
        picks = rng.integers(0, n, size=int(rng.integers(1, 4))).tolist()
        try:
            values.append(aggregate(attr, picks))
        except DomainError:
            values.append(aggregate(attr, picks[:1]))
        values.append(aggregate(worst, picks))
    values += [values[int(i)] for i in rng.integers(0, len(values), size=2)]
    rng.shuffle(values)
    return values


def _sum_values(rng):
    """Sums with ties inside the tolerance and just outside it, and repeats."""
    base = [float(x) for x in rng.integers(-3, 4, size=int(rng.integers(1, 5)))]
    shifts = (0.0, 0.5, 0.999, 1.001, 2.0, -0.999, -1.001)
    values = [AggValue.of_scalar(b + f * SCALAR_TOLERANCE) for b in base for f in shifts
              if rng.random() < 0.6]
    values += [AggValue.of_scalar(base[0])] * 2
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("order_kind", ["partial", "total", "interval", "weak"])
def test_comparison_tables_equal_the_pairwise_comparisons(rng, order_kind):
    """The batch tables equal strictly_preferred and at_least_as_preferred
    read pair by pair: every frontier kind over every order class, and sums
    of both polarities, on lists with repeats and near ties."""
    from prefcompose.simulator import random_order

    for trial in range(40):
        n = int(rng.integers(1, 8))
        domain = tuple(f"v{i}" for i in range(n))
        order = random_order(n, order_kind, rng, density=0.4)
        worst = AttributeSchema(0, "x", domain, order, AggKind.WORST_FRONTIER)
        cases = [
            (AttributeSchema(0, "x", domain, order, kind), None)
            for kind in (AggKind.WORST_FRONTIER, AggKind.BEST_FRONTIER, AggKind.MIN, AggKind.MAX)
        ]
        cases += [(sum_attribute(0, "s", range(n), polarity), _sum_values(rng))
                  for polarity in SumPolarity]
        for attr, values in cases:
            values = values if values is not None else _frontier_values(rng, attr, worst)
            for prefix in (0, 1, len(values)):
                strict, at_least = comparison_tables(attr, values[:prefix])
                assert strict.dtype == at_least.dtype == np.bool_
                assert strict.shape == at_least.shape == (prefix, prefix)
                assert (strict.tolist(), at_least.tolist()) == _pairwise_tables(attr, values[:prefix])


def _error(call, *args):
    with pytest.raises(KindMismatch) as info:
        call(*args)
    return str(info.value)


def test_comparison_tables_reject_a_value_of_the_wrong_kind():
    """A value of the wrong kind anywhere in the list raises the KindMismatch
    the pairwise comparisons raise for it."""
    frontier = AttributeSchema(0, "x", ("a", "b"), build_order([(0, 1)], 2), AggKind.WORST_FRONTIER)
    cost = sum_attribute(1, "cost", (1, 2))
    right = {frontier.name: AggValue.of_frontier((0,)), cost.name: AggValue.of_scalar(1)}
    wrong = {frontier.name: AggValue.of_scalar(1), cost.name: AggValue.of_frontier((0,))}
    for attr in (frontier, cost):
        good, bad = right[attr.name], wrong[attr.name]
        expected = _error(strictly_preferred, attr, good, bad)
        assert _error(at_least_as_preferred, attr, bad, good) == expected
        for values in ([bad], [good, bad], [bad, good, good], [good, good, bad]):
            assert _error(comparison_tables, attr, values) == expected
