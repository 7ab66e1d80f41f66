"""Global dominance between complete valuations, with witness extraction.

One valuation dominates another when some attribute strictly improves while
every attribute that is at least as important (strictly more important or
incomparable, including the witness itself) stays at least as preferred.

A :class:`PackedPool` encodes a list of valuations once and evaluates that
rule for many pairs at a time, every attribute at once.  Every pool is rows
of a packed table of valuations (a :class:`PackedStates`), which
:func:`packed_table` makes once, from the distinct frontiers its builder
interned: each (attribute, frontier) pair the table holds is a class, with a
membership row and an unbeaten row (the values the frontier leaves unbeaten)
over the widest domain plus a placeholder column for the empty frontier.  A
state table's builder packs its table as it values the states;
:func:`pack_valuations` packs any other valuations, checking them once, and
``PackedPool(spec, valuations)`` is the pool of every row of that table.
:meth:`PackedPool.of_rows` only gathers: its rows' ``(m, c)`` class ids,
their signed sums and, with one ``take``, their class rows.  What the tables
and pools of one spec share is made from the spec on first use and never
changed (``PreferenceSpec.packing``): the ``(m, span + 1, span + 1)`` stack
of value orders, the frontier and sum attributes, the sum signs and the
``(m, m)`` "not more important" matrix.

Per block of rows, one batched product of unbeaten rows with membership rows
gives every attribute's strict relation, one class-id comparison every tie,
and one product with the "not more important" matrix counts, for every
witness at once, the attributes of its scope that are lost.  Sums compare
exactly as float64, per pool, written into their rows of the strict and tie
relations.  :func:`dominates`, :func:`witnesses`,
:meth:`PackedPool.best_on` (an attribute's unbeaten entries, read from the
strict relation of that attribute) and :meth:`PackedPool.sweep` read the
same relations, so there is one implementation of the rule.
"""

from __future__ import annotations

from math import isfinite
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .aggregation import Valuation, check_kind, check_range, not_finite
from .preference import AggKind, PreferenceSpec, SumPolarity

# (attribute, pair) cells per row block of a pool's relations; bounds the
# temporaries (float32 products at most 128 KiB) whatever the pool size.
BLOCK_CELLS = 1 << 15


class ShapeError(ValueError):
    """A valuation is not aligned with the spec's attribute list."""


class PackedStates(NamedTuple):
    """A table of valuations packed once, by :func:`packed_table`, for pools
    of its rows (:meth:`PackedPool.of_rows`).

    ``ids[i, s]`` is row s's class on attribute i: on a frontier attribute,
    two rows hold one class exactly when they hold one frontier; a sum holds
    class 0, whose rows are all zero.  ``signed[j, s]`` is row s's
    j-th sum, negated where higher is better.  Class k's membership row
    ``classes[0, k]`` flags its frontier's values over the widest domain,
    plus a placeholder column set for the empty frontier; its unbeaten row
    ``classes[1, k]`` flags the values (and the placeholder, which nothing
    beats) that no member of the frontier beats.
    """

    attributes: tuple
    ids: np.ndarray
    signed: np.ndarray
    classes: np.ndarray


def packed_table(spec: PreferenceSpec, flags: np.ndarray, index: np.ndarray, totals: np.ndarray) -> PackedStates:
    """The packed table of rows whose frontiers are rows of ``flags`` (one
    flag row per distinct frontier over the widest frontier domain, ``[k, v]``
    set when v is in frontier k): ``index[s, j]`` is the frontier row s holds
    on the j-th frontier attribute and ``totals[s, j]`` its j-th sum, finite.
    Frontier ids are in range.

    Each (attribute, frontier) pair the rows hold is one class, numbered
    from 1 in order of attribute then frontier; class 0 is the sums'.  One
    assignment sets the membership rows, and one product per frontier
    attribute with its value order the unbeaten rows."""
    packing = _packing(spec)
    fronts, count = packing.fronts, len(flags)
    codes = index + count * np.arange(len(fronts))  # (attribute, frontier) pairs
    held = np.zeros(len(fronts) * count, dtype=np.bool_)
    held[codes] = True
    pairs = held.nonzero()[0]
    rank = np.add.accumulate(held, dtype=np.int32)  # each held pair's class
    ids = np.zeros((spec.attr_count, len(index)), dtype=np.int32)  # narrow ids compare faster
    ids[fronts] = rank[codes].T
    classes = np.zeros((2, len(pairs) + 1, packing.beats.shape[1]), dtype=np.float32)
    if len(pairs):
        members, unbeaten = classes[:, 1:]
        rows = flags[pairs % count]
        members[:, :flags.shape[1]] = rows
        members[:, -1] = ~rows.any(axis=1)  # the empty frontier holds the placeholder
        ends = rank[count - 1::count].tolist()  # each attribute's last class
        for i, low, high in zip(fronts, [0, *ends], ends):  # count the members beating each value
            np.matmul(members[low:high], packing.beats[i], out=unbeaten[low:high])
        unbeaten[:] = unbeaten == 0
    # row-major signed sums, as the relations read them: strided sums made a
    # 300-entry pool's matrix twice as slow
    signed = np.ascontiguousarray((totals * packing.sum_signs).T)
    return PackedStates(spec.attributes, ids, signed, classes)


def pack_valuations(spec: PreferenceSpec, valuations: Sequence[Valuation]) -> PackedStates:
    """The packed table of ``valuations``, in order, from their distinct
    frontiers in first-seen order over the attributes.

    A valuation not aligned with the spec raises ``ShapeError``.  Then the
    attributes are checked in order, each for its values' kind
    (``KindMismatch``), then their range or finiteness (``DomainError``), so
    the lowest bad attribute's error is raised, as the oracle raises it."""
    m, c = spec.attr_count, len(valuations)
    for row in valuations:
        if len(row) != m:
            raise ShapeError(f"valuation has {len(row)} attributes, spec has {m}")
    columns = list(zip(*valuations)) or [()] * m  # per attribute, every entry's value
    frontiers, sizes, sums = [], [], []  # frontier columns end to end, their domain sizes, sum columns
    for attr, column in zip(spec.attributes, columns):
        is_sum = attr.agg_kind is AggKind.SUM
        held = [value.scalar if is_sum else value.frontier for value in column]
        if None in held:
            for value in column:
                check_kind(attr, value)
        if is_sum:
            if not all(map(isfinite, held)):
                raise not_finite(attr, next(x for x in held if not isfinite(x)))
            sums.append(held)
        else:
            check_range(attr, frozenset().union(*held))
            frontiers += held
            sizes.append(len(attr.domain))
    first: dict[frozenset, int] = {}
    index = [first.setdefault(frontier, len(first)) for frontier in frontiers]
    span = max(sizes, default=0)
    flags = np.zeros((len(first), span), dtype=np.bool_)
    flags.flat[[k * span + v for frontier, k in first.items() for v in frontier]] = True
    return packed_table(spec, flags, np.array(index, dtype=np.intp).reshape(len(sizes), c).T,
                        np.array(sums, dtype=np.float64).reshape(len(sums), c).T)


class _SpecPacking:
    """What every table and pool of one spec reads, made from the spec once
    and never changed: the frontier and the sum attributes, each attribute's
    value order over the widest domain plus the placeholder column, each
    sum's sign (-1.0 where higher is better), and the witness scopes.
    Products count in float32: exact below 2**24, and a domain that large
    could not hold its order matrix."""

    def __init__(self, spec: PreferenceSpec):
        attrs = spec.attributes
        span = max((a.intra_order.universe_size for a in attrs if a.agg_kind is not AggKind.SUM), default=0)
        self.fronts = [i for i, a in enumerate(attrs) if a.agg_kind is not AggKind.SUM]
        self.sums = [i for i, a in enumerate(attrs) if a.agg_kind is AggKind.SUM]
        self.beats = np.zeros((len(attrs), span + 1, span + 1), dtype=np.float32)
        for i in self.fronts:
            d = attrs[i].intra_order.universe_size
            self.beats[i, :d, :d] = attrs[i].intra_order.matrix
        self.sum_signs = np.array([-1.0 if attrs[i].sum_polarity is SumPolarity.HIGHER_IS_BETTER else 1.0
                                   for i in self.sums])
        # scope[i, k]: a witness i must not lose on k (i is not more important than k)
        self.scope = (~spec.importance.matrix).astype(np.float32)


def _packing(spec: PreferenceSpec) -> _SpecPacking:
    """The spec's packing constants, made on first use."""
    if spec.packing is None:
        spec.packing = _SpecPacking(spec)
    return spec.packing


def _strict(stack: np.ndarray, signed: Optional[np.ndarray], sums: list[int], rows: slice, cols: slice) -> np.ndarray:
    """(attributes, rows, cols) of packed entries: [j, a, b] when a is
    strictly preferred to b on attribute j.  A frontier a strictly beats b
    when no value of b is left unbeaten by a, and b is nonempty; a sum when
    its signed value is lower, compared exactly."""
    members, unbeaten = stack
    strict = np.matmul(unbeaten[:, rows], members[:, cols].transpose(0, 2, 1)) == 0
    if sums:
        strict[sums] = signed[:, rows, None] < signed[:, None, cols]
    return strict


def _row_blocks(m: int, c: int) -> Iterator[slice]:
    """Row slices of a c-entry pool, each holding at most ``BLOCK_CELLS``
    cells of m attributes' relations."""
    step = max(1, BLOCK_CELLS // max(m * c, 1))
    return (slice(start, start + step) for start in range(0, c, step))


class PackedPool:
    """A list of valuations encoded once for dominance tests among them."""

    def __new__(cls, spec: PreferenceSpec, valuations: Sequence[Valuation]) -> PackedPool:
        """The pool of ``valuations``, in order: every row of their packed
        table (:func:`pack_valuations`)."""
        valuations = list(valuations)
        return cls.of_rows(spec, pack_valuations(spec, valuations), np.arange(len(valuations)), valuations)

    @classmethod
    def of_rows(cls, spec: PreferenceSpec, table: PackedStates, rows: Sequence[int],
                valuations: Sequence[Valuation]) -> PackedPool:
        """The pool of the rows ``rows`` of ``table``, a packed table of
        valuations whose attributes are the spec's; ``valuations`` are those
        rows' valuations.  The pool gathers per attribute and entry its class
        id and its class rows (membership, unbeaten, in one ``take``), and the
        sums' signed values."""
        pool = object.__new__(cls)
        pool.valuations = list(valuations)
        packing = _packing(spec)
        pool.sums, pool.scope = packing.sums, packing.scope
        pool.ids, pool.signed = table.ids.take(rows, axis=1), table.signed.take(rows, axis=1)
        pool.stack = table.classes.take(pool.ids, axis=1)
        return pool

    def take(self, rows: Sequence[int]) -> PackedPool:
        """The pool of the entries ``rows``, in that order, read from this one."""
        pool = object.__new__(PackedPool)
        pool.valuations = [self.valuations[j] for j in rows]
        pool.scope, pool.sums = self.scope, self.sums
        pool.ids, pool.signed = self.ids.take(rows, axis=1), self.signed.take(rows, axis=1)
        pool.stack = self.stack.take(rows, axis=2)
        return pool

    def _witnessed(self, rows: slice, cols: slice) -> tuple[np.ndarray, np.ndarray]:
        """(m, rows, cols) relations of the pool: the strict one, and [i, a,
        b] when attribute i witnesses pool[a] dominating pool[b]."""
        strict = _strict(self.stack, self.signed, self.sums, rows, cols)
        tied = self.ids[:, rows, None] == self.ids[:, None, cols]
        if self.sums:
            tied[self.sums] = self.signed[:, rows, None] == self.signed[:, None, cols]
        lost = (~(strict | tied)).astype(np.float32)  # a float operand keeps the product on BLAS
        # one row of rows x cols cells per attribute (lost[:1].size also holds when m is 0)
        kept = np.matmul(self.scope, lost.reshape(len(lost), lost[:1].size)).reshape(lost.shape) == 0
        return strict, strict & kept

    def witness(self, a: int, b: int) -> int:
        """Lowest-id witness of pool[a] dominating pool[b], or -1."""
        found = np.flatnonzero(self._witnessed(slice(a, a + 1), slice(b, b + 1))[1])
        return int(found[0]) if found.size else -1

    def best_on(self, i: int) -> list[int]:
        """Pool indices, in order, of the entries no entry strictly beats on
        attribute i: the columns of i's strict relation that hold no true."""
        stack, c = self.stack[:, i:i + 1], len(self.valuations)
        sums = [0] if i in self.sums else []
        signed = self.signed[[self.sums.index(i)]] if sums else None
        beaten = np.zeros(c, dtype=np.bool_)
        for rows in _row_blocks(1, c):
            beaten |= _strict(stack, signed, sums, rows, slice(None))[0].any(axis=0)
        return np.flatnonzero(~beaten).tolist()

    def sweep(self, attrs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """From one pass over blocks of rows: ``beaten[k, b]`` when some
        entry strictly beats pool[b] on attribute ``attrs[k]``, and the
        dominance matrix D, D[a, b] when pool[a] dominates pool[b].

        The diagonal is evaluated rather than assumed false, so irreflexivity
        failures would show up here.
        """
        c = len(self.valuations)
        beaten = np.zeros((len(attrs), c), dtype=np.bool_)
        out = np.zeros((c, c), dtype=np.bool_)
        for rows in _row_blocks(len(self.ids), c):
            strict, witnessed = self._witnessed(rows, slice(None))
            if attrs:
                beaten |= strict[list(attrs)].any(axis=1)
            out[rows] = witnessed.any(axis=0)
        return beaten, out

    def dominance_matrix(self) -> np.ndarray:
        """Boolean matrix D with D[a, b] true when pool[a] dominates pool[b]
        (see :meth:`sweep`)."""
        return self.sweep(())[1]

    def undominated(self) -> list[int]:
        """Pool indices, in order, of the entries nothing in the pool dominates."""
        return np.flatnonzero(~self.dominance_matrix().any(axis=0)).tolist()


def dominates(spec: PreferenceSpec, u: Valuation, v: Valuation) -> Optional[int]:
    """Lowest-id witness attribute certifying that u dominates v, or None."""
    w = PackedPool(spec, (u, v)).witness(0, 1)
    return w if w >= 0 else None


def witnesses(spec: PreferenceSpec, u: Valuation, v: Valuation) -> list[int]:
    """All attributes that certify u dominating v (empty when none)."""
    return np.flatnonzero(PackedPool(spec, (u, v))._witnessed(slice(0, 1), slice(1, 2))[1]).tolist()


def nondominated(spec: PreferenceSpec, valuations: Sequence[tuple[object, Valuation]]) -> set:
    """Ids of the non-dominated valuations (duplicates are all retained).

    Exact for every importance order: an entry is kept when no entry of the
    pool dominates it, with no reliance on transitivity.
    """
    kept = PackedPool(spec, [v for _, v in valuations]).undominated()
    return {valuations[i][0] for i in kept}
