"""Shared helpers: tiny spec builders and naive reference filters.

The naive filters re-state the definitions directly (all-pairs scans) and are
kept independent of the package's frontier maintenance and dominance matrix.
"""

from __future__ import annotations

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
)
from prefcompose.aggregation import SCALAR_TOLERANCE
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


def with_near_ties(spec, pool):
    """The pool plus two copies of its first entry whose sums are shifted by
    0.6 and 1.2 times ``SCALAR_TOLERANCE``: each copy ties with its neighbour
    within the tolerance, while the first and last do not tie."""
    def shifted(val, delta):
        return Valuation(tuple(
            AggValue.of_scalar(x.scalar + delta) if attr.agg_kind is AggKind.SUM else x
            for attr, x in zip(spec.attributes, val.per_attribute)
        ))

    return pool + [shifted(pool[0], f * SCALAR_TOLERANCE) for f in (0.6, 1.2)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
