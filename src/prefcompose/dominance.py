"""Global dominance between complete valuations, with witness extraction.

One valuation dominates another when some attribute strictly improves while
every attribute that is at least as important (strictly more important or
incomparable, including the witness itself) stays at least as preferred.

A :class:`PackedPool` encodes a list of valuations once and evaluates that
rule for many pairs at a time, every attribute at once.  The pools of one
spec share its packing state (``PreferenceSpec.packing``, filled here only):
each distinct frontier, packed the first time a pool holds it, is a class of
its attribute with a membership row and an unbeaten row (the values it
leaves unbeaten) in one ``(2, m, K, span + 1)`` stack, over the widest
domain plus a placeholder column for the empty frontier.  A pool's unseen
frontiers of every attribute are registered together from their flag rows,
with one assignment and one batched product against the
``(m, span + 1, span + 1)`` stack of value orders.  A pool holds an
``(m, c)`` array of its entries' class ids and gathers their rows with one
``take``.  Per block of rows, one batched product of unbeaten rows with
membership rows gives every attribute's strict relation, one class-id
comparison every tie, and one product with the spec's ``(m, m)`` "not more
important" matrix counts, for every witness at once, the attributes of its
scope that are lost.  Sums compare exactly as float64, per pool, written
into their rows of the strict and tie relations.

Every pool is rows of a packed table of valuations (a
:class:`PackedStates`): :meth:`PackedPool.of_rows` looks each (attribute,
distinct frontier) the rows hold up once and registers the unseen ones.  A
state table's builder packs its table as it values the states;
:func:`pack_valuations` packs any other valuations, checking them once, and
``PackedPool(spec, valuations)`` is the pool of every row of that table.
:func:`dominates`, :func:`witnesses`, :meth:`PackedPool.best_on` (an
attribute's unbeaten entries, read from the strict relation of that
attribute) and :meth:`PackedPool.sweep` read the same relations, so there is
one implementation of the rule.
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
    """A table of valuations as its builder or :func:`pack_valuations`
    packed them, for pools of its rows (:meth:`PackedPool.of_rows`).

    ``frontiers`` are the distinct frontiers and ``flags[k]`` is the flag row
    of ``frontiers[k]`` over the widest frontier domain (``[k, v]`` set when
    v is in it).  ``index[s, j]`` is the frontier that row s holds on the
    j-th frontier attribute of ``attributes``, and ``sums[s, j]`` its j-th
    sum, finite.  Frontier ids are in range.
    """

    attributes: tuple
    frontiers: list[frozenset]
    flags: np.ndarray
    index: np.ndarray
    sums: np.ndarray


def pack_valuations(spec: PreferenceSpec, valuations: Sequence[Valuation]) -> PackedStates:
    """The packed table of ``valuations``, in order: every distinct frontier
    once, in first-seen order over the attributes, with its flag row.

    A valuation not aligned with the spec raises ``ShapeError``.  Then the
    attributes are checked in order, each for its values' kind
    (``KindMismatch``), then their range or finiteness (``DomainError``), so
    the lowest bad attribute's error is raised, as the oracle raises it.  An
    attribute whose frontiers the spec has all registered is not range
    checked again."""
    m, c = spec.attr_count, len(valuations)
    for row in valuations:
        if len(row) != m:
            raise ShapeError(f"valuation has {len(row)} attributes, spec has {m}")
    columns = list(zip(*valuations)) or [()] * m  # per attribute, every entry's value
    # an attribute whose frontiers are all registered under the spec needs no
    # range check: registration admits only in-range frontiers
    registered = spec.packing.classes if spec.packing is not None else [{}] * m
    frontiers, sizes, sums = [], [], []  # frontier columns end to end, their domain sizes, sum columns
    for attr, column, known in zip(spec.attributes, columns, registered):
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
            if not all(map(known.__contains__, held)):
                check_range(attr, frozenset().union(*held))
            frontiers += held
            sizes.append(len(attr.domain))
    first: dict[frozenset, int] = {}
    index = [first.setdefault(frontier, len(first)) for frontier in frontiers]
    span = max(sizes, default=0)
    flags = np.zeros((len(first), span), dtype=np.bool_)
    flags.flat[[k * span + v for frontier, k in first.items() for v in frontier]] = True
    return PackedStates(spec.attributes, list(first), flags, np.array(index, dtype=np.intp).reshape(len(sizes), c).T,
                        np.array(sums, dtype=np.float64).reshape(len(sums), c).T)


class _SpecPacking:
    """What every pool of one spec shares: the class rows, per attribute the
    id of each distinct frontier registered so far (None for a sum), the
    frontier and the sum attributes, each attribute's value order over the
    stack's columns, each sum's sign (-1.0 where higher is better), and the
    witness scopes.  Frontier attribute i's class c has its rows at
    ``stack[:, i, c]``; an empty frontier holds the placeholder value (the
    last column), which nothing beats, so it is never strictly beaten.  The
    stack at least doubles when it grows, so K classes hold at most 2K rows
    of each kind.  Products count in float32: exact below 2**24, and a
    domain that large could not hold its order matrix."""

    def __init__(self, spec: PreferenceSpec):
        attrs = spec.attributes
        span = max((a.intra_order.universe_size for a in attrs if a.agg_kind is not AggKind.SUM), default=0)
        self.stack = np.zeros((2, len(attrs), 1, span + 1), dtype=np.float32)  # membership, unbeaten
        self.classes: list[Optional[dict[frozenset, int]]] = [
            None if a.agg_kind is AggKind.SUM else {} for a in attrs
        ]
        self.fronts = [i for i, classes in enumerate(self.classes) if classes is not None]
        self.sums = [i for i, classes in enumerate(self.classes) if classes is None]
        self.attr_rows = np.arange(len(attrs))[:, None]  # each attribute's index, as a column
        self.beats = np.zeros((len(attrs), span + 1, span + 1), dtype=np.float32)
        for i, a in enumerate(attrs):
            if a.agg_kind is not AggKind.SUM:
                d = a.intra_order.universe_size
                self.beats[i, :d, :d] = a.intra_order.matrix
        self.sum_signs = np.array([-1.0 if attrs[i].sum_polarity is SumPolarity.HIGHER_IS_BETTER else 1.0
                                   for i in self.sums])
        # scope[i, k]: a witness i must not lose on k (i is not more important than k)
        self.scope = (~spec.importance.matrix).astype(np.float32)

    def register(self, attrs: np.ndarray, frontiers: list[frozenset], flags: np.ndarray) -> np.ndarray:
        """Add one class to attribute ``attrs[k]`` for each frontier
        ``frontiers[k]``, whose flag row is ``flags[k]``: frontiers not seen
        before and in range, with ``attrs`` ascending.  Return their class
        ids.  One assignment sets their membership rows (the placeholder
        column for an empty frontier), and one batched product with the
        value orders gives the unbeaten rows of the span of classes that
        holds them."""
        sizes = np.array([len(classes) if classes is not None else 0 for classes in self.classes])
        # each attribute's new classes follow its registered ones
        slots = sizes[attrs] + np.arange(len(attrs)) - np.searchsorted(attrs, attrs)
        low, end = int(slots.min()), int(slots.max()) + 1
        two, m, held, n = self.stack.shape
        if end > held:
            grown = np.zeros((two, m, max(end, 2 * held), n), dtype=np.float32)
            grown[:, :, :held] = self.stack
            self.stack = grown
        members, unbeaten = self.stack
        members[attrs, slots, :flags.shape[1]] = flags
        members[attrs, slots, -1] = ~flags.any(axis=1)
        unbeaten[:, low:end] = np.matmul(members[:, low:end], self.beats) == 0
        for i, frontier, slot in zip(attrs.tolist(), frontiers, slots.tolist()):
            self.classes[i][frontier] = slot
        return slots


def _packing(spec: PreferenceSpec) -> _SpecPacking:
    """The spec's packing state, made on its first pool."""
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
        rows' valuations.  The pool holds per attribute and entry its class
        id (0 on a sum), the class rows gathered from the spec's stack in one
        ``take`` (membership, unbeaten), and the sums' signed values.

        Each (attribute, distinct frontier) that the rows hold is looked up
        once in the attribute's classes, and the unseen ones are registered
        from their flag rows in one call; no entry's frontier is hashed."""
        pool = object.__new__(cls)
        pool.valuations = list(valuations)
        packing = _packing(spec)
        fronts, count = packing.fronts, len(table.frontiers)
        pool.sums, pool.scope = packing.sums, packing.scope
        # (attribute, frontier) pairs as codes j * count + k, one row per entry
        codes = table.index[rows] + count * np.arange(len(fronts))
        held = np.zeros(len(fronts) * count, dtype=np.bool_)
        held[codes] = True
        pairs = held.nonzero()[0]
        js, ks = np.divmod(pairs, count)  # by attribute
        keys = [table.frontiers[k] for k in ks.tolist()]
        classes = [packing.classes[i] for i in fronts]
        found = [classes[j].get(key, -1) for j, key in zip(js.tolist(), keys)]
        class_of = np.zeros(held.shape, dtype=np.int32)
        class_of[pairs] = found
        if -1 in found:
            unseen = np.flatnonzero(class_of[pairs] < 0)
            class_of[pairs[unseen]] = packing.register(
                np.array(fronts)[js[unseen]], [keys[u] for u in unseen.tolist()], table.flags[ks[unseen]])
        # ids (narrow ids compare faster) and signed sums row-major, as the
        # relations read them: strided sums made a 300-entry pool's matrix
        # twice as slow
        if pool.sums:  # a sum holds class 0
            pool.ids = np.zeros((spec.attr_count, len(codes)), dtype=np.int32)
            pool.ids[fronts] = class_of.take(codes.T)
            pool.signed = np.ascontiguousarray((table.sums[rows] * packing.sum_signs).T)
        else:
            pool.ids, pool.signed = class_of.take(codes.T), np.zeros((0, len(codes)))
        two, m, slots, n = packing.stack.shape
        flat = pool.ids + slots * packing.attr_rows  # rows of the stack with attributes flattened
        pool.stack = packing.stack.reshape(two, m * slots, n).take(flat, axis=1)
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
