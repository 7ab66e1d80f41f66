"""Ground truth: brute-force references for the non-dominated filter.

The brute-force non-dominated filter deliberately avoids both the frontier
maintenance of :func:`prefcompose.order.maximal_set` and the pool dominance
matrix of :class:`prefcompose.dominance.PackedPool`; it shares no code with
either.  It reads the dominance definition with array operations:

* each attribute's distinct values are interned, and one
  ``comparison_tables`` call per attribute gives its strict and at-least-as
  tables over ordered pairs of those values, the same rule the public
  ``strictly_preferred`` and ``at_least_as_preferred`` read;
* the tables are flattened into one strict and one at-least-as array, and
  every attribute's relation between entries is lifted from them with one
  gather each, for one block of rows at a time;
* entry a dominates entry b when, for some attribute i, a is strictly
  preferred on i and at least as preferred on every attribute k that i is
  not more important than;
* an entry is kept when no other entry dominates it.

:func:`plain_dominates` reads the same definition for one pair of valuations
through the pairwise comparisons, evaluating each attribute's at most once.
The property-verification harness lives in :mod:`prefcompose.properties`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .aggregation import (
    AggValue,
    Valuation,
    at_least_as_preferred,
    comparison_tables,
    strictly_preferred,
)
from .algorithms import RunResult
from .order import build_order
from .preference import AggKind, AttributeSchema, PreferenceSpec

# Entry pairs per row block of the all-pairs scan; bounds the lifted
# relations live at once whatever the pool size.
_BLOCK_PAIRS = 1 << 16


def plain_dominates(spec: PreferenceSpec, u: Valuation, v: Valuation) -> bool:
    """Direct reading of the dominance definition over public comparisons:
    some attribute i is strictly preferred while every attribute k that i is
    not more important than is at least as preferred."""
    attrs = spec.attributes
    strict_on: dict[int, bool] = {}  # each attribute's comparisons, made when first needed
    at_least_on: dict[int, bool] = {}

    def strict(k: int) -> bool:
        if k not in strict_on:
            strict_on[k] = strictly_preferred(attrs[k], u[k], v[k])
        return strict_on[k]

    def at_least(k: int) -> bool:
        if k not in at_least_on:
            at_least_on[k] = strict(k) or at_least_as_preferred(attrs[k], u[k], v[k])
        return at_least_on[k]

    return any(
        strict(i) and all(more or at_least(k) for k, more in enumerate(row))
        for i, row in enumerate(spec.importance.matrix.tolist())
    )


def brute_nondominated(
    spec: PreferenceSpec, valuations: Sequence[tuple[object, Valuation]]
) -> set:
    """All-pairs filter: keep each entry no other entry dominates.

    Each attribute's distinct values are interned in first-seen order, and
    one ``comparison_tables`` call per attribute evaluates its comparisons
    once per ordered pair of distinct values.  The tables are flattened into
    one strict and one at-least-as array, so that, per block of at most
    ``_BLOCK_PAIRS`` entry pairs, one gather from each lifts every
    attribute's relation between the block's entries and all entries.  The
    lifts are combined by the definition: a witness i is strict on i and
    loses on no attribute of its scope.
    """
    n, m = len(valuations), spec.attr_count
    columns = list(zip(*(val for _, val in valuations))) or [()] * m  # per attribute, every entry's value
    interned = [{value: k for k, value in enumerate(dict.fromkeys(column))} for column in columns]
    # per attribute, (strict, at least as) over value-id pairs
    tables = [comparison_tables(attr, list(index)) for attr, index in zip(spec.attributes, interned)]
    strict_flat, at_least_flat = (np.concatenate([t.ravel() for t in kind]) for kind in zip(*tables))
    sizes = np.array([len(index) for index in interned], dtype=np.intp)
    ids = np.array([list(map(index.__getitem__, column)) for index, column in zip(interned, columns)],
                   dtype=np.intp).reshape(m, n)
    # where each entry's row of its attribute's table starts in the flat arrays
    row_ids = ids * sizes[:, None] + (np.cumsum(sizes * sizes) - sizes * sizes)[:, None]
    scopes = [np.flatnonzero(~row) for row in spec.importance.matrix]
    dominated = np.zeros(n, dtype=np.bool_)
    step = max(1, _BLOCK_PAIRS // max(n, 1))
    for start in range(0, n, step):
        cells = row_ids[:, start:start + step, None] + ids[:, None, :]  # (attribute, block row, entry)
        strict, lost = strict_flat[cells], ~at_least_flat[cells]
        witnessed = np.zeros(cells.shape[1:], dtype=np.bool_)
        for i, scope in enumerate(scopes):
            witnessed |= strict[i] & ~lost[scope].any(axis=0)
        witnessed[np.arange(len(witnessed)), np.arange(start, start + len(witnessed))] = False
        dominated |= witnessed.any(axis=0)
    return {valuations[j][0] for j in np.flatnonzero(~dominated)}


def check_soundness(result: RunResult, truth: set) -> bool:
    return {c.key() for c in result.solutions} <= truth


def check_weak_completeness(result: RunResult, truth: set) -> bool:
    if not truth:
        return True
    return bool({c.key() for c in result.solutions} & truth)


def check_completeness(result: RunResult, truth: set) -> bool:
    return {c.key() for c in result.solutions} >= truth


def intransitivity_fixture() -> tuple[PreferenceSpec, Valuation, Valuation, Valuation]:
    """Four two-valued attributes, importance {0>2, 1>3} (not an interval
    order), and three valuations whose dominance chain breaks transitivity."""
    attributes = []
    for i in range(4):
        attributes.append(
            AttributeSchema(
                attr_id=i,
                name=f"x{i}",
                domain=("good", "bad"),
                intra_order=build_order([(0, 1)], 2),
                agg_kind=AggKind.WORST_FRONTIER,
            )
        )
    importance = build_order([(0, 2), (1, 3)], 4)
    spec = PreferenceSpec(attributes=tuple(attributes), importance=importance)
    good, bad = 0, 1
    u = Valuation(tuple(AggValue.of_frontier((v,)) for v in (good, good, bad, bad)))
    v = Valuation(tuple(AggValue.of_frontier((x,)) for x in (bad, good, good, bad)))
    z = Valuation(tuple(AggValue.of_frontier((x,)) for x in (bad, bad, good, good)))
    return spec, u, v, z


