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
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .aggregation import SCALAR_TOLERANCE, AggValue, Valuation
from .preference import AggKind, AttributeSchema, PreferenceSpec, SumPolarity

# Pairs evaluated per row block of a dominance matrix; bounds the size of the
# per-attribute temporaries whatever the pool size.
BLOCK_PAIRS = 1 << 14


class ShapeError(ValueError):
    """A valuation is not aligned with the spec's attribute list."""


def _check_shape(spec: PreferenceSpec, valuation: Valuation) -> None:
    if len(valuation) != spec.attr_count:
        raise ShapeError(
            f"valuation has {len(valuation)} attributes, spec has {spec.attr_count}"
        )


class _FrontierColumn:
    """One frontier attribute of a pool: membership rows and what they beat.

    a strictly beats b when no value of F[b] is left unbeaten by F[a], and
    F[b] is nonempty.  An empty frontier holds a placeholder value (the last
    column) that nothing beats, so it is never strictly beaten.  Products
    count in float64, which is exact for any domain size (no wrap-around as
    with narrow integer types).
    """

    def __init__(self, intra: np.ndarray, values: list[frozenset]):
        n = intra.shape[0] + 1
        members = np.zeros((len(values), n), dtype=np.float64)
        members.reshape(-1)[[row * n + x for row, f in enumerate(values) for x in f or (n - 1,)]] = 1.0
        beats = np.zeros((n, n), dtype=np.float64)
        beats[:-1, :-1] = intra
        classes: dict[frozenset, int] = {}
        self.ids = np.array([classes.setdefault(f, len(classes)) for f in values], dtype=np.int64)
        self.members = members
        self.unbeaten = np.where(members @ beats, 0.0, 1.0)

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
        d = self.values[rows, None] - self.values[None, cols]
        return (d >= -SCALAR_TOLERANCE) & (d <= SCALAR_TOLERANCE)


def _column(attr: AttributeSchema, values: list[AggValue]) -> _FrontierColumn | _ScalarColumn:
    """One attribute of a pool, packed from the pool's values on it."""
    if attr.agg_kind is AggKind.SUM:
        return _ScalarColumn(attr.sum_polarity, [x.scalar for x in values])
    return _FrontierColumn(attr.intra_order.matrix, [x.frontier for x in values])


def _row_blocks(c: int) -> Iterator[slice]:
    """Row slices of a c-row pool, each holding at most ``BLOCK_PAIRS`` pairs."""
    step = max(1, BLOCK_PAIRS // max(c, 1))
    return (slice(start, start + step) for start in range(0, c, step))


class PackedPool:
    """A list of valuations encoded once for dominance tests among them."""

    def __init__(self, spec: PreferenceSpec, valuations: Sequence[Valuation]):
        self.valuations = list(valuations)
        for v in self.valuations:
            _check_shape(spec, v)
        self.columns = [
            _column(attr, [v[i] for v in self.valuations]) for i, attr in enumerate(spec.attributes)
        ]
        # scope[i]: the attributes a witness i must not lose on (not imp[i, k]).
        self.scope = [
            [k for k, more in enumerate(row) if not more] for row in spec.importance.matrix.tolist()
        ]

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
    for v in valuations:
        _check_shape(spec, v)
    column = _column(spec.attributes[attr_id], [v[attr_id] for v in valuations])
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
