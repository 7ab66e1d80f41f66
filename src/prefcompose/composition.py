"""Compositions of repository components and the feasibility-provider seam.

A composition's valuation is a function of the multiset of components it
holds: :func:`member_valuations` builds it for many member sets at once, for
every explicit state here and every node of an aggregated simulator tree.
It also returns the table of the empty composition and those valuations,
packed once by :func:`dominance.packed_table` from the distinct frontiers
it interned, each row's frontier per attribute, and the sums.
:func:`singleton_valuations` does the same for the singleton valuations of a
per-node simulator tree.

A provider answers three questions: is a composition feasible, what are its
one-step extensions, and (natively) what is the full feasible set.  Extension
calls are counted and carry a configurable simulated delay.  The one
:class:`FeasibilityProvider` serves a table of prebuilt states keyed by
``Composition.key()``, so a search space plugs in by building that table:
:class:`ExplicitProvider` builds it from listed sequences, and
``simulator.tree_provider`` reads a generated tree's node table.  Both hand
the provider their builder's packed table, whose first row is the empty
root; a provider built from states alone packs its table with
:func:`dominance.pack_valuations` on its first pool.  Every dominance pool
of states, :meth:`FeasibilityProvider.pool`, is rows of that one table, so
no algorithm looks an entry's frontier up.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .aggregation import AggKind, AggValue, DomainError, Valuation, check_kind, check_range, path_frontiers
from .dominance import PackedPool, PackedStates, ShapeError, pack_valuations, packed_table
from .preference import PreferenceSpec

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """The provider was asked for more extension calls than the budget allows."""


@dataclass(frozen=True)
class Component:
    """A repository entry with the valuation it contributes on its own."""

    comp_id: int
    name: str
    base_valuation: Valuation


class Composition(NamedTuple):
    """An unordered collection of component ids with its cached valuation.

    ``provider_node`` identifies the provider-side search state (a tree node,
    a sorted sequence prefix); a provider's state table and algorithm
    bookkeeping key on it, never on the valuation, because distinct states
    may share equal valuations.
    ``terminal`` marks states the provider cannot extend further.  A named
    tuple, so it is built, read and hashed in C.
    """

    members: tuple[int, ...]
    valuation: Valuation
    provider_node: Hashable
    terminal: bool = False

    def key(self) -> Hashable:
        return self.provider_node


def empty_composition(spec: PreferenceSpec) -> Composition:
    """The neutral starting point: empty frontiers, zero sums, no members."""
    values = []
    for attr in spec.attributes:
        if attr.agg_kind is AggKind.SUM:
            values.append(AggValue.of_scalar(0.0))
        else:
            values.append(AggValue.of_frontier(()))
    return Composition(members=(), valuation=Valuation(values), provider_node=())


def _layout(spec: PreferenceSpec) -> tuple[list[int], list[int], int]:
    """The frontier and sum attribute ids, and the words of the widest domain."""
    fronts = [i for i, attr in enumerate(spec.attributes) if attr.agg_kind is not AggKind.SUM]
    sums = [i for i, attr in enumerate(spec.attributes) if attr.agg_kind is AggKind.SUM]
    return fronts, sums, max([(len(spec.attributes[i].domain) + 63) // 64 for i in fronts], default=0)


def component_values(
    spec: PreferenceSpec, components: Sequence[Component]
) -> tuple[np.ndarray, np.ndarray]:
    """Each component's base valuation as :func:`member_valuations` reads it:
    its frontier values packed per frontier attribute (value v is bit v % 64
    of word v // 64) and its sums.  A wrong length, kind or value id raises
    ``ShapeError``, ``KindMismatch`` or ``DomainError``, as ``merge`` does."""
    fronts, sums, words = _layout(spec)
    rows = [component.base_valuation for component in components]
    for component, row in zip(components, rows):
        if len(row) != len(spec.attributes):
            raise ShapeError(f"component {component.name}: valuation not aligned with spec")
    columns = list(zip(*rows)) or [()] * len(spec.attributes)  # per attribute, every component's value
    for attr, column in zip(spec.attributes, columns):
        for value in column:
            check_kind(attr, value)
    packed = []
    for i in fronts:
        attr, frontiers = spec.attributes[i], [value.frontier for value in columns[i]]
        check_range(attr, frozenset().union(*frontiers))
        packed += [sum(1 << v for v in frontier).to_bytes(8 * words, "little") for frontier in frontiers]
    totals = np.array([[value.scalar for value in columns[i]] for i in sums], dtype=np.float64)
    bits = np.frombuffer(b"".join(packed), dtype="<u8").reshape(len(fronts), len(components), words)
    return bits.transpose(1, 0, 2), totals.reshape(len(sums), len(components)).T


def drawn_values(spec: PreferenceSpec, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`component_values` of components that hold one in-range value id
    per attribute, ``ids[k]`` for component k."""
    fronts, sums, words = _layout(spec)
    bits = np.zeros((len(ids), len(fronts), words), dtype="<u8")
    bits[np.arange(len(ids))[:, None], np.arange(len(fronts)), ids[:, fronts] // 64] = np.left_shift(
        np.uint64(1), (ids[:, fronts] % 64).astype(np.uint64)
    )
    return bits, _drawn_sums(spec, ids, sums)


def _drawn_sums(spec: PreferenceSpec, ids: np.ndarray, sums: list[int]) -> np.ndarray:
    """The number of value ``ids[k, i]`` of each sum attribute i of ``sums``, per component k."""
    totals = np.zeros((len(ids), len(sums)))
    for j, i in enumerate(sums):
        totals[:, j] = np.array(spec.attributes[i].numeric_values, dtype=np.float64)[ids[:, i]]
    return totals


def singleton_valuations(spec: PreferenceSpec, ids: np.ndarray) -> tuple[list[Valuation], PackedStates]:
    """The base valuation of each component of :func:`drawn_values`: a
    singleton frontier, or the value's number for a sum, one shared
    ``AggValue`` per (attribute, value id); and the packed table of the
    empty composition followed by these valuations, one distinct frontier
    per value id."""
    fronts, sums, _ = _layout(spec)
    span = max([len(spec.attributes[i].domain) for i in fronts], default=0)
    frontiers = [frozenset((v,)) for v in range(span)]
    values = [
        AggValue.of_scalar(attr.numeric_values[v])  # type: ignore[index]
        if attr.agg_kind is AggKind.SUM
        else AggValue(frontiers[v], None)
        for attr in spec.attributes
        for v in range(len(attr.domain))
    ]
    sizes = [len(attr.domain) for attr in spec.attributes]
    index = np.empty((len(ids) + 1, len(fronts)), dtype=np.intp)
    index[0], index[1:] = span, ids[:, fronts]  # the empty frontier is the last flag row
    totals = np.concatenate([np.zeros((1, len(sums))), _drawn_sums(spec, ids, sums)])
    packed = packed_table(spec, np.eye(span + 1, span, dtype=np.bool_), index, totals)
    return _valuations(values, ids + np.cumsum([0, *sizes[:-1]])), packed


def member_valuations(
    spec: PreferenceSpec, bits: np.ndarray, sums: np.ndarray, member_sets: Sequence[tuple[int, ...]]
) -> tuple[list[Valuation], PackedStates]:
    """The valuation of each nonempty sorted multiset of components, where
    component k holds ``bits[k]`` and ``sums[k]`` (see :func:`component_values`),
    and the packed table of the empty composition followed by these
    valuations.

    The members of every set are read once, end to end, into one array.  A
    set's frontier values are the OR of its members' bits, and
    :func:`aggregation.path_frontiers` gives the flag rows of their
    frontiers.  Each distinct frontier is one shared ``AggValue`` and one
    flag row of the packed table.  The sums fold over one sets x longest
    member matrix, padded with the zero row past the last component: from
    0.0, one member column at a time over all sets, so each sum adds its
    members in ascending order, and a shorter set adds 0.0, which changes no
    bit, as a fold from 0.0 never holds -0.0.  A sum past the float64 range
    raises ``DomainError`` naming ``attributes[i]``.  Each distinct sum is
    then one shared ``AggValue``: equal finite sums other than -0.0 have
    equal bits, so sharing is exact."""
    fronts, sum_ids, _ = _layout(spec)
    lengths = np.fromiter(map(len, member_sets), np.intp, len(member_sets))
    flat = np.fromiter(chain.from_iterable(member_sets), np.intp, int(lengths.sum()))
    starts = np.cumsum(lengths) - lengths
    index = np.empty((len(member_sets), len(spec.attributes)), dtype=np.intp)
    if fronts:
        kept = path_frontiers([spec.attributes[i] for i in fronts], np.bitwise_or.reduceat(bits[flat], starts))
        frontiers, flags, table_index = _interned_frontiers(kept)
        index[:, fronts] = table_index[1:]
    else:
        frontiers, flags = [], np.zeros((0, 0), dtype=np.bool_)
        table_index = np.zeros((len(member_sets) + 1, 0), dtype=np.intp)
    interned = [AggValue(frontier, None) for frontier in frontiers]
    totals = np.zeros((len(member_sets) + 1, len(sum_ids)))  # the empty composition's zero sums first
    if sum_ids:
        padded = np.concatenate([sums, np.zeros((1, len(sum_ids)))])  # a zero row past the last component
        matrix = np.full((len(member_sets), int(lengths.max(initial=0))), len(sums), dtype=np.intp)
        rows = np.repeat(np.arange(len(member_sets)), lengths)  # each member's set
        matrix[rows, np.arange(len(flat)) - starts[rows]] = flat
        with np.errstate(over="ignore", invalid="ignore"):
            for column in matrix.T:  # member j of every set
                totals[1:] += padded[column]
        if not np.isfinite(totals).all():
            i = sum_ids[int(np.argmin(np.isfinite(totals).all(axis=0)))]
            raise DomainError(f"attributes[{i}] ({spec.attributes[i].name}): a composition's sum is not finite")
        distinct, inverse = np.unique(totals[1:], return_inverse=True)
        index[:, sum_ids] = len(interned) + inverse.reshape(len(member_sets), len(sum_ids))
        interned += [AggValue(None, x) for x in distinct.tolist()]
    return _valuations(interned, index), packed_table(spec, flags, table_index, totals)


def _interned_frontiers(kept: np.ndarray) -> tuple[list[frozenset], np.ndarray, np.ndarray]:
    """The distinct frontiers of ``kept`` (flag rows as
    :func:`aggregation.path_frontiers` returns them) in first-seen order,
    then the empty frontier unless a set holds it; their flag rows; and the
    position in that list of the empty frontier on every attribute, then of
    each (set, attribute)'s frontier, one row per set.

    Each row's flags are one bytes key, so attributes holding equal
    frontiers share one.
    """
    sets, count, span = kept.shape
    keys = kept.reshape(sets * count, span).view(np.dtype((np.void, span))).ravel().tolist()
    empty = bytes(span)
    distinct = dict.fromkeys(keys)
    distinct.setdefault(empty)
    first = {key: i for i, key in enumerate(distinct)}
    frontiers = [frozenset(compress(range(span), key)) for key in first]
    flags = np.frombuffer(b"".join(first), dtype=np.bool_).reshape(len(first), span)
    index = np.fromiter(map(first.__getitem__, chain(repeat(empty, count), keys)), np.intp, len(keys) + count)
    return frontiers, flags, index.reshape(sets + 1, count)


def _valuations(values: list[AggValue], index: np.ndarray) -> list[Valuation]:
    """One valuation per row of ``index``, whose entries index ``values``."""
    table = np.fromiter(values, dtype=object, count=len(values))
    return list(map(Valuation, table[index].tolist()))


class FeasibilityProvider:
    """Counted, delayed access to a search space of prebuilt compositions,
    keyed by ``Composition.key()``.

    ``states[key]`` is a state (a dict, or a list keyed by position),
    ``children[key]`` the keys of its one-step extensions (empty when
    terminal) and ``feasible`` the feasible keys in ``all_feasible`` order.
    ``packed`` holds the states' valuations packed in table order
    (:class:`dominance.PackedStates`), as the table's builder gives it or,
    failing that, as the first pool packs it; dominance pools of states are
    gathered from it.
    Providers over one table hand out its own objects and keep their own
    call counts, delays and budgets.  Extending a state the table does not
    hold raises ``KeyError`` (``IndexError`` for a list).
    """

    def __init__(self, states, children, feasible: Sequence[Hashable], root_key: Hashable,
                 fdelay_ms: float = 0.0, budget: int = DEFAULT_BUDGET, packed: Optional[PackedStates] = None):
        self.states = states
        self.children = children
        self.feasible = feasible
        self.root_key = root_key
        self.packed = packed
        self._feasible_keys = frozenset(feasible)
        # a list's rows are its keys
        self._row_of = dict(zip(states, range(len(states)))) if isinstance(states, dict) else None
        self.fdelay_ms = fdelay_ms
        self.budget = budget
        self.invocation_count = 0
        self.simulated_ms = 0.0

    def root(self) -> Composition:
        return self.states[self.root_key]

    def is_feasible(self, comp: Composition) -> bool:
        return comp.key() in self._feasible_keys

    def _charge(self) -> None:
        """Count one extension call and add its delay; past the budget, raise."""
        self.invocation_count += 1
        self.simulated_ms += self.fdelay_ms
        if self.invocation_count > self.budget:
            raise BudgetExceeded(f"extension budget of {self.budget} calls exhausted")

    def extensions(self, comp: Composition) -> list[Composition]:
        self._charge()
        return [self.states[child] for child in self.children[comp.key()]]

    def table(self) -> Sequence[Composition]:
        """Every state in table order."""
        return list(self.states.values()) if isinstance(self.states, dict) else self.states

    def rows(self, comps: Iterable[Composition]) -> list[int]:
        """Each state's row in table order."""
        keys = [comp.key() for comp in comps]
        return keys if self._row_of is None else list(map(self._row_of.__getitem__, keys))

    def pool(self, spec: PreferenceSpec, comps: Sequence[Composition]) -> PackedPool:
        """The dominance pool of the states ``comps``, in order: their rows of
        the packed table, which a provider built from states alone packs on
        its first pool.  A spec whose attributes are not the table's raises
        ``ShapeError``."""
        if self.packed is None:
            self.packed = pack_valuations(spec, [comp.valuation for comp in self.table()])
        if self.packed.attributes != spec.attributes:
            raise ShapeError("the spec's attributes are not those of the provider's state table")
        return PackedPool.of_rows(spec, self.packed, self.rows(comps), [comp.valuation for comp in comps])

    def all_feasible(self) -> list[Composition]:
        """Native feasible set; equals what recursive extension reaches."""
        return [self.states[key] for key in self.feasible]


class ExplicitProvider(FeasibilityProvider):
    """Search space given by explicit feasible component sequences.

    Each listed sequence is one way to build a feasible composition; partial
    states are prefixes of the sequences, keyed by their sorted members (a
    multiset), and the one-step extensions of a state are the deduplicated
    next elements of every sequence it prefixes.  A multiset is feasible when
    it equals some listed sequence's multiset.  The table is built with the
    provider, as a tree's nodes are.  One walk over the sequences maps each
    prefix to its children in first-seen order; the table holds the empty
    root, then the prefixes in the order they are first extended, then the
    other feasible multisets.  One checked :func:`member_valuations` call
    values every state from its members, the states are made in one pass,
    and each state's child keys are its walk entry's.
    """

    def __init__(
        self,
        spec: PreferenceSpec,
        components: Sequence[Component],
        feasible_sequences: Sequence[Sequence[int]],
        fdelay_ms: float = 0.0,
        budget: int = DEFAULT_BUDGET,
    ):
        # Sorted prefix -> next component -> sorted child, in first-seen order.
        nexts: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
        feasible = []
        for seq in feasible_sequences:
            key: tuple[int, ...] = ()
            for nxt in seq:
                step = nexts.setdefault(key, {})
                child = step.get(nxt)
                if child is None:  # a child seen before is not sorted again
                    step[nxt] = child = tuple(sorted((*key, nxt)))
                key = child
            feasible.append(key)
        keys = [key for key in dict.fromkeys([*nexts, *feasible]) if key]
        valuations, packed = member_valuations(spec, *component_values(spec, components), keys)
        states = {(): empty_composition(spec)}
        states.update(zip(keys, map(Composition, keys, valuations, keys, [key not in nexts for key in keys])))
        children = dict.fromkeys(states, ())  # none for a terminal state
        children.update((key, list(step.values())) for key, step in nexts.items())
        super().__init__(states, children, feasible, (), fdelay_ms=fdelay_ms, budget=budget, packed=packed)


def enumerate_feasible(provider: FeasibilityProvider) -> list[Composition]:
    """Full feasible set reached by recursive one-step extension from the root.

    The walk runs over the provider's keys: it reads each state's child keys
    from ``provider.children`` and its feasibility from the feasible key set.
    Each non-terminal state it reaches costs one extension call, charged to
    the counter, delay and budget as an ``extensions`` call is; a terminal
    state by definition extends to nothing.  A state reachable along several
    extension paths is visited once.
    """
    states, children, feasible = provider.states, provider.children, provider._feasible_keys
    found: list[Composition] = []
    stack = [provider.root_key]
    visited = {provider.root_key}
    while stack:
        key = stack.pop()
        state = states[key]
        if key in feasible:
            found.append(state)
        if state.terminal:
            continue
        provider._charge()
        for child in children[key]:
            if child not in visited:
                visited.add(child)
                stack.append(child)
    return found
