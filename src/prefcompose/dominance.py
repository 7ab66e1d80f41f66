"""Global dominance between complete valuations, with witness extraction.

One valuation dominates another when some attribute strictly improves while
every attribute that is at least as important (strictly more important or
incomparable, including the witness itself) stays at least as preferred.

A :class:`PackedPool` encodes a list of valuations once and evaluates that
rule for many pairs at a time with boolean matrices: per attribute a
"strictly preferred" and an "at least as preferred" relation between rows and
columns of the pool, combined across attributes by the importance order.
Pairwise queries (:func:`dominates`, :func:`witnesses`) read the same
relations on a two-row pool, so there is one implementation of the rule.

Every pool of one spec shares that spec's packing state
(``PreferenceSpec.packing``, filled here only): the witness scopes, and per
frontier attribute each distinct frontier packed so far, as a class with a
membership row and an unbeaten row.  A new frontier is packed the first time
a pool holds it; a pool then takes its entries' class rows.  So a1, a2,
``best_on``, every a4 round and the two-row pair queries of one ``solve`` or
one ``simulate`` instance pack each frontier once.  Sum attributes are packed
per pool: equality within a tolerance is not an equivalence, so sums cannot
be classed.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .aggregation import SCALAR_TOLERANCE, AggValue, Valuation, check_range
from .preference import AggKind, AttributeSchema, PreferenceSpec, SumPolarity

# Pairs evaluated per row block of a dominance matrix; bounds the size of the
# per-attribute temporaries whatever the pool size.
BLOCK_PAIRS = 1 << 14


class ShapeError(ValueError):
    """A valuation is not aligned with the spec's attribute list."""


def _rows(spec: PreferenceSpec, valuations: Sequence[Valuation]) -> Sequence[Valuation]:
    """The valuations, each checked against the spec."""
    for row in valuations:
        if len(row) != spec.attr_count:
            raise ShapeError(f"valuation has {len(row)} attributes, spec has {spec.attr_count}")
    return valuations


class _FrontierClasses:
    """One frontier attribute's packing state under a spec.

    Each distinct frontier packed under the spec is a class, packed once: its
    membership row and the row of domain values it leaves unbeaten.  An empty
    frontier holds a placeholder value (the last column) that nothing beats,
    so it is never strictly beaten.  Products count in float64, which is
    exact for any domain size (no wrap-around as with narrow integer types).
    The rows grow by doubling, so K classes hold at most 2K rows of each
    kind.
    """

    def __init__(self, attr: AttributeSchema):
        self.attr = attr
        n = attr.intra_order.universe_size + 1
        self.beats = np.zeros((n, n), dtype=np.float64)
        self.beats[:-1, :-1] = attr.intra_order.matrix
        self.ids: dict[frozenset, int] = {}
        self.members = np.zeros((0, n), dtype=np.float64)
        self.unbeaten = np.zeros((0, n), dtype=np.float64)

    def lookup(self, frontiers: list[frozenset]) -> np.ndarray:
        """Class ids of the frontiers, packing those not seen before."""
        found = list(map(self.ids.get, frontiers))
        if None in found:
            self._pack([f for f in dict.fromkeys(frontiers) if f not in self.ids])
            found = list(map(self.ids.get, frontiers))
        return np.array(found, dtype=np.intp)

    def _pack(self, frontiers: list[frozenset]) -> None:
        """Add one class per frontier (none of them seen before); an id
        outside the domain raises ``DomainError``."""
        check_range(self.attr, frozenset().union(*frontiers))
        n = self.beats.shape[1]
        start = len(self.ids)
        end = start + len(frontiers)
        if end > len(self.members):
            spare = np.zeros((max(end, 2 * len(self.members)) - len(self.members), n), dtype=np.float64)
            self.members = np.vstack((self.members, spare))
            self.unbeaten = np.vstack((self.unbeaten, spare))
        np.put(self.members, [(start + row) * n + x for row, f in enumerate(frontiers) for x in f or (n - 1,)], 1.0)
        self.unbeaten[start:end] = self.members[start:end] @ self.beats == 0
        self.ids.update(zip(frontiers, range(start, end)))


class _SpecPacking:
    """What every pool of one spec shares: per attribute its frontier classes
    (None for a sum), and per witness attribute its scope."""

    def __init__(self, spec: PreferenceSpec):
        self.classes = [
            None if attr.agg_kind is AggKind.SUM else _FrontierClasses(attr)
            for attr in spec.attributes
        ]
        # scope[i]: the attributes a witness i must not lose on (not imp[i, k]).
        self.scope = [
            [k for k, more in enumerate(row) if not more] for row in spec.importance.matrix.tolist()
        ]


def _packing(spec: PreferenceSpec) -> _SpecPacking:
    """The spec's packing state, made on its first pool."""
    if spec.packing is None:
        spec.packing = _SpecPacking(spec)
    return spec.packing


class _FrontierColumn:
    """One frontier attribute of a pool: the rows of its entries' classes.

    a strictly beats b when no value of F[b] is left unbeaten by F[a], and
    F[b] is nonempty.
    """

    def __init__(self, classes: _FrontierClasses, values: list[frozenset]):
        self.ids = classes.lookup(values)
        self.members = classes.members.take(self.ids, axis=0)
        self.unbeaten = classes.unbeaten.take(self.ids, axis=0)

    def strict(self, rows: slice, cols: slice) -> np.ndarray:
        return self.unbeaten[rows] @ self.members[cols].T == 0

    def equal(self, rows: slice, cols: slice) -> np.ndarray:
        return self.ids[rows, None] == self.ids[None, cols]


class _ScalarColumn:
    """One sum attribute of a pool, compared within ``SCALAR_TOLERANCE``."""

    def __init__(self, polarity: SumPolarity, values: list[float]):
        self.sign = 1.0 if polarity is SumPolarity.LOWER_IS_BETTER else -1.0
        self.values = np.array(values, dtype=np.float64)

    def strict(self, rows: slice, cols: slice) -> np.ndarray:
        a = self.sign * self.values[rows, None]
        b = self.sign * self.values[None, cols]
        return a < b - SCALAR_TOLERANCE

    def equal(self, rows: slice, cols: slice) -> np.ndarray:
        with np.errstate(over="ignore"):  # finite sums far apart differ by inf, which is no tie
            d = self.values[rows, None] - self.values[None, cols]
        return (d >= -SCALAR_TOLERANCE) & (d <= SCALAR_TOLERANCE)


def _column(spec: PreferenceSpec, i: int, values: list[AggValue]) -> _FrontierColumn | _ScalarColumn:
    """Attribute i of a pool, packed from the pool's values on it."""
    classes = _packing(spec).classes[i]
    if classes is None:
        return _ScalarColumn(spec.attributes[i].sum_polarity, [x.scalar for x in values])
    return _FrontierColumn(classes, [x.frontier for x in values])


def _row_blocks(c: int) -> Iterator[slice]:
    """Row slices of a c-row pool, each holding at most ``BLOCK_PAIRS`` pairs."""
    step = max(1, BLOCK_PAIRS // max(c, 1))
    return (slice(start, start + step) for start in range(0, c, step))


class PackedPool:
    """A list of valuations encoded once for dominance tests among them."""

    def __init__(self, spec: PreferenceSpec, valuations: Sequence[Valuation]):
        self.valuations = list(valuations)
        rows = _rows(spec, self.valuations)
        self.columns = [_column(spec, i, [row[i] for row in rows]) for i in range(spec.attr_count)]
        self.scope = _packing(spec).scope

    def _witness_blocks(self, rows: slice, cols: slice) -> Iterator[tuple[int, np.ndarray]]:
        """Per attribute i, the pairs (rows x cols) that i witnesses."""
        strict = [column.strict(rows, cols) for column in self.columns]
        geq: dict[int, np.ndarray] = {}
        for i, witnessed in enumerate(strict):
            if witnessed.any():
                for k in self.scope[i]:
                    if k not in geq:
                        geq[k] = strict[k] | self.columns[k].equal(rows, cols)
                    witnessed = witnessed & geq[k]
            yield i, witnessed

    def witness(self, a: int, b: int) -> int:
        """Lowest-id witness of pool[a] dominating pool[b], or -1."""
        for i, witnessed in self._witness_blocks(slice(a, a + 1), slice(b, b + 1)):
            if witnessed[0, 0]:
                return i
        return -1

    def dominance_matrix(self) -> np.ndarray:
        """Boolean matrix D with D[a, b] true when pool[a] dominates pool[b].

        The diagonal is evaluated rather than assumed false, so irreflexivity
        failures would show up here.
        """
        c = len(self.valuations)
        out = np.zeros((c, c), dtype=np.bool_)
        for rows in _row_blocks(c):
            for _, witnessed in self._witness_blocks(rows, slice(None)):
                out[rows] |= witnessed
        return out

    def undominated(self) -> list[int]:
        """Pool indices, in order, of the entries nothing in the pool dominates."""
        return np.flatnonzero(~self.dominance_matrix().any(axis=0)).tolist()


def best_on(spec: PreferenceSpec, valuations: Sequence[Valuation], attr_id: int) -> list[int]:
    """Indices, in order, of the valuations no valuation strictly beats on
    one attribute; only that attribute is packed."""
    column = _column(spec, attr_id, [row[attr_id] for row in _rows(spec, valuations)])
    c = len(valuations)
    beaten = np.zeros(c, dtype=np.bool_)
    for rows in _row_blocks(c):
        beaten |= column.strict(rows, slice(None)).any(axis=0)
    return np.flatnonzero(~beaten).tolist()


def dominates(spec: PreferenceSpec, u: Valuation, v: Valuation) -> Optional[int]:
    """Lowest-id witness attribute certifying that u dominates v, or None."""
    w = PackedPool(spec, (u, v)).witness(0, 1)
    return w if w >= 0 else None


def witnesses(spec: PreferenceSpec, u: Valuation, v: Valuation) -> list[int]:
    """All attributes that certify u dominating v (empty when none)."""
    blocks = PackedPool(spec, (u, v))._witness_blocks(slice(0, 1), slice(1, 2))
    return [i for i, witnessed in blocks if witnessed[0, 0]]


def nondominated(
    spec: PreferenceSpec, valuations: Sequence[tuple[object, Valuation]]
) -> set:
    """Ids of the non-dominated valuations (duplicates are all retained).

    Exact for every importance order: an entry is kept when no entry of the
    pool dominates it, with no reliance on transitivity.
    """
    kept = PackedPool(spec, [v for _, v in valuations]).undominated()
    return {valuations[i][0] for i in kept}
