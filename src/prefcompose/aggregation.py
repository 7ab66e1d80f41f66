"""Per-attribute aggregation of component values and comparison of the results.

Frontier-aggregated attributes carry an antichain of domain values (the worst
or best frontier of the contributing values); sum-aggregated attributes carry
a scalar.  Min/max aggregation is the total-order special case of the
frontiers and also yields (singleton) frontiers.

Each comparison rule has one copy: :func:`_beats` (strictly preferred) and
:func:`_ties` (equal) compare one value with a list of values, so a
frontier's beaten set is formed once per value.  The pairwise
:func:`strictly_preferred` and :func:`at_least_as_preferred` read them for
one pair; :func:`comparison_tables` reads them for every ordered pair of a
list of values, checking each value's kind once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .preference import AggKind, AttributeSchema, SumPolarity

SCALAR_TOLERANCE = 1e-9

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
        return AggValue(None, float(value))

    @property
    def is_frontier(self) -> bool:
        return self.frontier is not None

    def __repr__(self) -> str:
        if self.frontier is not None:
            return f"AggValue({{{', '.join(map(str, sorted(self.frontier)))}}})"
        return f"AggValue({self.scalar})"


@dataclass(frozen=True)
class Valuation:
    """Aggregated values of a composition, index-aligned with the attributes."""

    per_attribute: tuple[AggValue, ...]

    def __getitem__(self, attr_id: int) -> AggValue:
        return self.per_attribute[attr_id]

    def __len__(self) -> int:
        return len(self.per_attribute)


def check_kind(attr: AttributeSchema, value: AggValue) -> None:
    """Raise ``KindMismatch`` unless ``value`` is a frontier exactly when
    ``attr`` aggregates as one."""
    wants_frontier = attr.agg_kind is not AggKind.SUM
    if wants_frontier != value.is_frontier:
        raise KindMismatch(
            f"attribute {attr.name} aggregates as {attr.agg_kind.value}; got "
            f"{'frontier' if value.is_frontier else 'scalar'} value"
        )


def _extremes(attr: AttributeSchema, distinct: set[int] | frozenset[int]) -> AggValue:
    """The frontier of a set of distinct in-range value ids.

    Worst kinds keep the values that beat nothing in the set, best kinds
    those that nothing in the set beats; min/max also need that frontier to
    be a single value.
    """
    if attr.agg_kind in (AggKind.WORST_FRONTIER, AggKind.MIN):
        rivals = attr.intra_order.below
    else:
        rivals = attr.intra_order.above
    kept = [x for x in distinct if rivals[x].isdisjoint(distinct)]
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
    step = max(1, BLOCK_CELLS // (count * span))
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
    minimality); sums run over the multiset, so duplicates count.
    """
    values = list(values)
    if not values:
        raise DomainError(f"attribute {attr.name}: cannot aggregate zero values")
    n = len(attr.domain)
    for v in values:
        if not (0 <= v < n):
            raise DomainError(f"attribute {attr.name}: value id {v} outside domain of size {n}")
    if attr.agg_kind is AggKind.SUM:
        assert attr.numeric_values is not None
        return AggValue.of_scalar(sum(attr.numeric_values[v] for v in values))
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
    n = len(attr.domain)
    if min(union) < 0 or max(union) >= n:
        v = min(x for x in union if not 0 <= x < n)
        raise DomainError(f"attribute {attr.name}: value id {v} outside domain of size {n}")
    return _extremes(attr, union)


def _beats(attr: AttributeSchema, a: AggValue, others: Sequence[AggValue]) -> list[bool]:
    """The rule of :func:`strictly_preferred`, for ``a`` against each of
    ``others``; a frontier's beaten set is formed once."""
    if attr.agg_kind is AggKind.SUM:
        x = a.scalar
        if attr.sum_polarity is SumPolarity.LOWER_IS_BETTER:
            return [x < b.scalar - SCALAR_TOLERANCE for b in others]
        return [x > b.scalar + SCALAR_TOLERANCE for b in others]
    below = attr.intra_order.below
    beaten = frozenset().union(*(below[x] for x in a.frontier))
    return [bool(b.frontier) and b.frontier <= beaten for b in others]


def _ties(attr: AttributeSchema, a: AggValue, others: Sequence[AggValue]) -> list[bool]:
    """Whether ``a`` equals each of ``others``: the same frontier, or scalars
    within the tolerance."""
    if attr.agg_kind is AggKind.SUM:
        return [abs(a.scalar - b.scalar) <= SCALAR_TOLERANCE for b in others]
    return [a.frontier == b.frontier for b in others]


def strictly_preferred(attr: AttributeSchema, a: AggValue, b: AggValue) -> bool:
    """The strict comparison of aggregated values for one attribute.

    Frontiers: every element of b is strictly beaten by some element of a
    (false when b is the empty bottom placeholder).  Scalars: better per the
    attribute polarity, with ties inside the tolerance counting as equal.
    """
    check_kind(attr, a)
    check_kind(attr, b)
    return _beats(attr, a, (b,))[0]


def at_least_as_preferred(attr: AttributeSchema, a: AggValue, b: AggValue) -> bool:
    """Equal (frontier set equality / scalar tolerance) or strictly preferred."""
    check_kind(attr, a)
    check_kind(attr, b)
    return _ties(attr, a, (b,))[0] or _beats(attr, a, (b,))[0]


def comparison_tables(
    attr: AttributeSchema, values: Sequence[AggValue]
) -> tuple[np.ndarray, np.ndarray]:
    """``(strict, at_least)`` over every ordered pair of ``values``.

    ``strict[i, j]`` is ``strictly_preferred(attr, values[i], values[j])`` and
    ``at_least[i, j]`` is ``at_least_as_preferred(attr, values[i], values[j])``;
    each value's kind is checked once and each frontier's beaten set formed
    once.
    """
    for value in values:
        check_kind(attr, value)
    d = len(values)
    strict = np.array([_beats(attr, a, values) for a in values], dtype=np.bool_).reshape(d, d)
    ties = np.array([_ties(attr, a, values) for a in values], dtype=np.bool_).reshape(d, d)
    return strict, strict | ties
