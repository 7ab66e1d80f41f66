"""Per-attribute aggregation of component values and comparison of the results.

Frontier-aggregated attributes carry an antichain of domain values (the worst
or best frontier of the contributing values); sum-aggregated attributes carry
a finite float64 scalar, compared exactly: only equal sums tie, 0.0 with
-0.0.  A NaN or infinite sum raises ``DomainError`` when it is made or read.
Min/max aggregation is the total-order special case of the frontiers and
also yields (singleton) frontiers.

Every rule reads the attribute's value order as its closed matrix.
:func:`comparison_tables` applies the strict and the tie rule to every
ordered pair of a list of values, with each value's kind checked once and
every frontier's beaten set formed by one matrix product.  The pairwise
:func:`strictly_preferred` and :func:`at_least_as_preferred` read the same
rules for one pair element by element, at a few microseconds a call where a
two-value table costs several times that; the tests hold the two readings
equal.
"""

from __future__ import annotations

import math
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .preference import AggKind, AttributeSchema, SumPolarity

# Set cells (sets x attributes x domain span) per block of path_frontiers;
# bounds its float64 temporaries whatever the number of sets.
BLOCK_CELLS = 1 << 16


class DomainError(ValueError):
    """A value id falls outside the attribute's domain, or no values were given."""


class KindMismatch(TypeError):
    """An aggregated value of the wrong kind was passed for an attribute."""


class AggValue(NamedTuple):
    """Aggregated value of one attribute: a frontier antichain or a scalar.

    A tuple ``(frontier, scalar)``, so it hashes and compares in C; its hash
    is ``hash((frontier, scalar))``.
    """

    frontier: Optional[frozenset[int]] = None
    scalar: Optional[float] = None

    @staticmethod
    def of_frontier(values: Iterable[int]) -> "AggValue":
        return AggValue(frozenset(values), None)

    @staticmethod
    def of_scalar(value: float) -> "AggValue":
        """A sum; NaN and ±inf raise ``DomainError``."""
        x = float(value)
        if not math.isfinite(x):
            raise DomainError(f"sum {x} is not finite")
        return AggValue(None, x)

    @property
    def is_frontier(self) -> bool:
        return self.frontier is not None

    def __repr__(self) -> str:
        if self.frontier is not None:
            return f"AggValue({{{', '.join(map(str, sorted(self.frontier)))}}})"
        return f"AggValue({self.scalar})"


class Valuation(tuple):
    """Aggregated values of a composition, index-aligned with the attributes:
    a tuple of ``AggValue``, so it is built, indexed and hashed in C.

    ``Valuation(values)`` takes any iterable of ``AggValue``.
    """

    __slots__ = ()


def check_kind(attr: AttributeSchema, value: AggValue) -> None:
    """Raise ``KindMismatch`` unless ``value`` is a frontier exactly when
    ``attr`` aggregates as one."""
    if (attr.agg_kind is AggKind.SUM) != (value.frontier is None):
        raise KindMismatch(
            f"attribute {attr.name} aggregates as {attr.agg_kind.value}; got "
            f"{'frontier' if value.is_frontier else 'scalar'} value"
        )


def not_finite(attr: AttributeSchema, x: float) -> DomainError:
    """The error for a sum of ``attr`` that is NaN or infinite."""
    return DomainError(f"attribute {attr.name}: sum {x} is not finite")


def check_range(attr: AttributeSchema, ids: Collection[int]) -> None:
    """Raise ``DomainError`` naming the smallest of ``ids`` outside the
    attribute's domain."""
    n = len(attr.domain)
    if ids and (min(ids) < 0 or max(ids) >= n):
        v = min(x for x in ids if not 0 <= x < n)
        raise DomainError(f"attribute {attr.name}: value id {v} outside domain of size {n}")


def _extremes(attr: AttributeSchema, distinct: set[int] | frozenset[int]) -> AggValue:
    """The frontier of a set of distinct in-range value ids.

    Worst kinds keep the values that beat nothing in the set (an empty row
    of the order restricted to the set), best kinds those that nothing in
    the set beats (an empty column); min/max also need that frontier to be
    a single value.
    """
    ids = list(distinct)
    among = attr.intra_order.matrix[np.ix_(ids, ids)]
    worst = attr.agg_kind in (AggKind.WORST_FRONTIER, AggKind.MIN)
    ruled_out = among.any(axis=1 if worst else 0).tolist()
    kept = [x for x, out in zip(ids, ruled_out) if not out]
    if attr.agg_kind in (AggKind.MIN, AggKind.MAX) and len(kept) != 1:
        raise _no_unique_extreme(attr, kept)
    return AggValue.of_frontier(kept)


def _no_unique_extreme(attr: AttributeSchema, kept: Iterable[int]) -> DomainError:
    return DomainError(
        f"attribute {attr.name}: {attr.agg_kind.value} needs a unique extreme, got {sorted(kept)}"
    )


def path_frontiers(attrs: Sequence[AttributeSchema], paths: np.ndarray) -> np.ndarray:
    """The rule of :func:`_extremes` for many value sets of frontier
    attributes at once.

    ``paths[k, j]`` packs one set of in-range value ids of ``attrs[j]`` into
    little-endian uint64 words (value v is bit v % 64 of word v // 64).  The
    result holds one row of flags per set and attribute, over the widest
    domain: ``[k, j, v]`` is set when v is in the frontier of set k.  With
    ``seen`` the sets as 0/1 rows and ``rivals[y, x]`` set when y rules x
    out (x beats y for worst kinds, y beats x for best kinds), the frontier
    is ``seen & (seen @ rivals == 0)``: one batched float64 product over the
    attributes per block of at most ``BLOCK_CELLS`` set cells, so the
    temporaries do not grow with the number of sets.  Float64 counts cannot
    wrap at any domain size.  An empty set keeps the empty frontier, the
    neutral element of :func:`merge`; a nonempty set always keeps a value,
    as the intra orders are strict.  A min or max set that keeps more than
    one value raises ``DomainError``, as :func:`_extremes` does.
    """
    rows, count, words = paths.shape
    span = max(len(attr.domain) for attr in attrs)
    rivals = np.zeros((count, span, span), dtype=np.float64)
    for j, attr in enumerate(attrs):
        n = len(attr.domain)
        worst = attr.agg_kind in (AggKind.WORST_FRONTIER, AggKind.MIN)
        rivals[j, :n, :n] = attr.intra_order.matrix.T if worst else attr.intra_order.matrix
    unique = [j for j, attr in enumerate(attrs) if attr.agg_kind in (AggKind.MIN, AggKind.MAX)]
    out = np.empty((rows, count, span), dtype=np.bool_)
    step = max(1, BLOCK_CELLS // max(1, count * span))  # span is 0 when every domain is empty
    for start in range(0, rows, step):
        block = slice(start, start + step)
        seen = np.unpackbits(paths[block].view(np.uint8), axis=2, count=span, bitorder="little")
        seen = seen.transpose(1, 0, 2)  # (attribute, set, value)
        kept = seen > np.matmul(seen, rivals)  # in the set, and ruled out by none of it
        if unique:
            sizes = kept[unique].sum(axis=2)
            if (sizes > 1).any():
                j, k = (int(x[0]) for x in np.nonzero(sizes > 1))
                raise _no_unique_extreme(attrs[unique[j]], np.flatnonzero(kept[unique[j], k]).tolist())
        out[block] = kept.transpose(1, 0, 2)
    return out


def aggregate(attr: AttributeSchema, values: Iterable[int]) -> AggValue:
    """Aggregate a multiset of domain-value ids into one AggValue.

    Frontier kinds work on the distinct values (duplicates cannot change
    minimality); sums fold the multiset from 0.0 in the given order, as a
    :func:`merge` fold does, so duplicates count and the result does not
    depend on CPython 3.12's compensated built-in ``sum``.
    """
    values = list(values)
    if not values:
        raise DomainError(f"attribute {attr.name}: cannot aggregate zero values")
    check_range(attr, values)
    if attr.agg_kind is AggKind.SUM:
        assert attr.numeric_values is not None
        total = 0.0
        for v in values:
            total += attr.numeric_values[v]
        return AggValue.of_scalar(total)
    return _extremes(attr, set(values))


def merge(attr: AttributeSchema, a: AggValue, b: AggValue) -> AggValue:
    """Combine two aggregated values as if their source multisets were joined.

    Commutative and associative; frontier kinds re-minimize (or re-maximize)
    the union, sums add.  An empty frontier is the neutral element.
    """
    check_kind(attr, a)
    check_kind(attr, b)
    if attr.agg_kind is AggKind.SUM:
        return AggValue.of_scalar(a.scalar + b.scalar)  # type: ignore[operator]
    union = a.frontier | b.frontier  # type: ignore[operator]
    if not union:
        return AggValue.of_frontier(())
    check_range(attr, union)
    return _extremes(attr, union)


def comparison_tables(
    attr: AttributeSchema, values: Sequence[AggValue]
) -> tuple[np.ndarray, np.ndarray]:
    """``(strict, at_least)`` over every ordered pair of ``values``: the one
    copy of the strict rule and the tie rule.

    ``strict[i, j]`` when ``values[i]`` is strictly preferred to
    ``values[j]``.  Frontiers: every element of j is beaten by some element
    of i (false when j is the empty bottom placeholder).  Scalars: better
    per the attribute polarity, compared exactly as float64.
    ``at_least[i, j]`` when the pair is strict or tied: the same frontier,
    or equal scalars (0.0 ties -0.0).  Each value's kind is checked once;
    each distinct frontier is one 0/1 membership row, and one product of
    those rows with the order matrix gives every beaten set.
    """
    for value in values:
        check_kind(attr, value)
    if attr.agg_kind is AggKind.SUM:
        x = np.array([value.scalar for value in values], dtype=np.float64)
        if not np.isfinite(x).all():
            raise not_finite(attr, x[np.argmin(np.isfinite(x))])
        a, b = x[:, None], x[None, :]
        strict = a < b if attr.sum_polarity is SumPolarity.LOWER_IS_BETTER else a > b
        return strict, strict | (a == b)
    ids: dict[frozenset, int] = {}
    of = np.array([ids.setdefault(value.frontier, len(ids)) for value in values], dtype=np.intp)
    check_range(attr, frozenset().union(*ids))
    n = len(attr.domain)
    members = np.zeros((len(ids), n), dtype=np.bool_)
    members.flat[[row * n + x for row, frontier in enumerate(ids) for x in frontier]] = True
    # i beats j when j holds no value that i leaves unbeaten, and j is nonempty
    strict = ~(~(members @ attr.intra_order.matrix) @ members.T)
    if frozenset() in ids:
        strict[:, ids[frozenset()]] = False
    strict = strict.take(of, 0).take(of, 1)
    return strict, strict | (of[:, None] == of[None, :])


def strictly_preferred(attr: AttributeSchema, a: AggValue, b: AggValue) -> bool:
    """Whether ``a`` is strictly preferred to ``b``: the strict rule of
    :func:`comparison_tables`, read directly for one pair."""
    check_kind(attr, a)
    check_kind(attr, b)
    if attr.agg_kind is AggKind.SUM:
        for x in (a.scalar, b.scalar):
            if not math.isfinite(x):  # type: ignore[arg-type]
                raise not_finite(attr, x)  # type: ignore[arg-type]
        if attr.sum_polarity is SumPolarity.LOWER_IS_BETTER:
            return a.scalar < b.scalar  # type: ignore[operator]
        return a.scalar > b.scalar  # type: ignore[operator]
    mine, theirs = a.frontier, b.frontier
    check_range(attr, mine | theirs)  # type: ignore[operator]
    beats = attr.intra_order.matrix
    return bool(theirs) and all(any(beats[x, y] for x in mine) for y in theirs)  # type: ignore[union-attr]


def at_least_as_preferred(attr: AttributeSchema, a: AggValue, b: AggValue) -> bool:
    """Whether ``a`` is tied with or strictly preferred to ``b``: the tie rule
    of :func:`comparison_tables`, read directly for one pair."""
    if strictly_preferred(attr, a, b):
        return True
    if attr.agg_kind is AggKind.SUM:
        return a.scalar == b.scalar
    return a.frontier == b.frontier
