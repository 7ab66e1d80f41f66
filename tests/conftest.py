"""Shared helpers: tiny spec builders and naive reference filters.

The naive filters re-state the definitions directly (all-pairs scans) and are
kept independent of the package's frontier maintenance and dominance matrix.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from prefcompose import (
    AggKind,
    AggValue,
    AttributeSchema,
    PreferenceSpec,
    SumPolarity,
    Valuation,
    aggregate,
    build_order,
    merge,
)
from prefcompose import composition, dominance
from prefcompose.dominance import PackedPool
from prefcompose.simulator import SimConfig, random_spec


def naive_maximal(items, strictly_better):
    """Keep the items nothing beats: the direct all-pairs reading."""
    return [
        x
        for i, x in enumerate(items)
        if not any(strictly_better(y, x) == "first" for j, y in enumerate(items) if j != i)
    ]


def frontier_spec(domains_and_edges, importance_edges):
    """Spec of worst-frontier attributes from (domain, edges) pairs."""
    attributes = []
    for i, (domain, edges) in enumerate(domains_and_edges):
        attributes.append(
            AttributeSchema(
                attr_id=i,
                name=f"x{i}",
                domain=tuple(domain),
                intra_order=build_order(edges, len(domain)),
                agg_kind=AggKind.WORST_FRONTIER,
            )
        )
    return PreferenceSpec(
        attributes=tuple(attributes),
        importance=build_order(importance_edges, len(attributes)),
    )


def singleton_valuation(*value_ids) -> Valuation:
    return Valuation(tuple(AggValue.of_frontier((v,)) for v in value_ids))


def merged(spec, a, b) -> Valuation:
    """``a`` and ``b`` merged attribute by attribute by ``aggregation.merge``:
    one step of the reference fold that built valuations must equal."""
    return Valuation(map(merge, spec.attributes, a, b))


def sum_attribute(attr_id, name, numeric, polarity=SumPolarity.LOWER_IS_BETTER):
    domain = tuple(str(v) for v in numeric)
    return AttributeSchema(
        attr_id=attr_id,
        name=name,
        domain=domain,
        intra_order=build_order([], len(domain)),
        agg_kind=AggKind.SUM,
        numeric_values=tuple(float(v) for v in numeric),
        sum_polarity=polarity,
    )


def mixed_spec_and_pool(rng, importance_kind, domain_size=None, pool_size=None, intra_kind=None):
    """A random spec with frontier and sum attributes and a pool of its valuations.

    The value orders are of ``intra_kind`` when given, else partial or total
    at random.  The last attribute is a sum (lower is better), the one before
    it, when there is one, a sum where higher is better; one pool entry is
    repeated so that duplicate valuations are always present.
    """
    config = SimConfig(
        domain_size=domain_size or int(rng.integers(2, 7)),
        attr_count=int(rng.integers(2, 6)),
        intra_kind=intra_kind or ("po", "to")[int(rng.integers(0, 2))],
        importance_kind=importance_kind,
    )
    spec = random_spec(config, rng)
    numeric = tuple(range(config.domain_size))
    attrs = list(spec.attributes)
    attrs[-1] = sum_attribute(len(attrs) - 1, "cost", numeric)
    if len(attrs) > 2:
        attrs[-2] = sum_attribute(len(attrs) - 2, "gain", numeric, SumPolarity.HIGHER_IS_BETTER)
    spec = PreferenceSpec(tuple(attrs), spec.importance)
    pool = []
    for _ in range(pool_size or int(rng.integers(2, 9))):
        values = []
        for attr in spec.attributes:
            picks = rng.integers(0, len(attr.domain), size=int(rng.integers(1, 4)))
            values.append(aggregate(attr, [int(v) for v in picks]))
        pool.append(Valuation(tuple(values)))
    pool.append(pool[int(rng.integers(0, len(pool)))])
    return spec, pool


def ulps_above(x, k):
    """The float k steps above ``x`` (below it when k is negative)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def with_near_ties(spec, pool):
    """The pool plus two copies of its first entry whose sums are 1 and 2
    ulps above it: the nearest sums that do not tie, as sums compare
    exactly."""
    def shifted(val, k):
        return Valuation(tuple(
            AggValue.of_scalar(ulps_above(x.scalar, k)) if attr.agg_kind is AggKind.SUM else x
            for attr, x in zip(spec.attributes, val)
        ))

    return pool + [shifted(pool[0], k) for k in (1, 2)]


def scalar_tree_draws(spec, r, rng):
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def counting_tables(monkeypatch):
    """Record the row count of every table ``dominance.packed_table`` packs,
    whichever builder calls it."""
    tables = []
    original = dominance.packed_table

    def counted(spec, flags, index, totals):
        tables.append(len(index))
        return original(spec, flags, index, totals)

    for module in (dominance, composition):
        monkeypatch.setattr(module, "packed_table", counted)
    return tables


def check_class_rows(spec, table, valuations):
    """Assert that ``table`` packs ``valuations`` by the class rule: on each
    frontier attribute, an entry's membership row is its frontier's flags
    plus the placeholder column (set for the empty frontier), its unbeaten
    row flags the values that no member of its frontier beats under the
    attribute's value order (every value past the domain, and the
    placeholder, unbeaten), and two entries share an id exactly when they
    share the frontier; a sum's signed row is its sum, negated where higher
    is better.  Only the (attribute, frontier) pairs the entries hold have
    class rows, plus the sums' zero class 0."""
    members, unbeaten = table.classes
    width = members.shape[1]
    held = set()
    sums = [attr for attr in spec.attributes if attr.agg_kind is AggKind.SUM]
    assert table.ids.shape == (spec.attr_count, len(valuations))
    assert table.signed.shape == (len(sums), len(valuations))
    for i, attr in enumerate(spec.attributes):
        ids = table.ids[i].tolist()
        if attr.agg_kind is AggKind.SUM:
            sign = -1.0 if attr.sum_polarity is SumPolarity.HIGHER_IS_BETTER else 1.0
            assert table.signed[sums.index(attr)].tolist() == [sign * v[i].scalar for v in valuations]
            assert set(ids) <= {0}
            continue
        matrix = attr.intra_order.matrix
        for k, v in zip(ids, valuations):
            frontier = v[i].frontier
            held.add((i, frontier))
            assert members[k].tolist() == [float(x in frontier or (x == width - 1 and not frontier))
                                           for x in range(width)]
            assert unbeaten[k].tolist() == [float(x >= len(matrix) or not any(matrix[u, x] for u in frontier))
                                            for x in range(width)]
        for k, v in zip(ids, valuations):
            assert [k == j for j in ids] == [v[i].frontier == u[i].frontier for u in valuations]
    assert len(members) == len(held) + 1
    assert not members[0].any() and not unbeaten[0].any()


def counting_packs(monkeypatch):
    """Record the entry count of every ``pack_valuations`` call and the row
    count of every pool gathered from a packed table (``PackedPool.of_rows``,
    which every pool comes from)."""
    packs, gathers = [], []
    pack, of_rows = dominance.pack_valuations, PackedPool.of_rows.__func__

    def counted_pack(spec, valuations):
        packs.append(len(valuations))
        return pack(spec, valuations)

    def counted_of_rows(cls, spec, table, rows, valuations):
        gathers.append(len(rows))
        return of_rows(cls, spec, table, rows, valuations)

    for module in (dominance, composition):
        monkeypatch.setattr(module, "pack_valuations", counted_pack)
    monkeypatch.setattr(PackedPool, "of_rows", classmethod(counted_of_rows))
    return packs, gathers
