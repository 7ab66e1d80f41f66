"""Compositions of repository components and the feasibility-provider seam.

A composition's valuation is a function of the multiset of components it
holds: :func:`member_valuations` builds it for many member sets at once, for
every explicit state here and every node of an aggregated simulator tree.

A provider answers three questions: is a composition feasible, what are its
one-step extensions, and (natively) what is the full feasible set.  Extension
calls are counted and carry a configurable simulated delay.  The one
:class:`FeasibilityProvider` serves a table of prebuilt states keyed by
``Composition.key()``, so a search space plugs in by building that table:
:class:`ExplicitProvider` builds it from listed sequences, and
``simulator.tree_provider`` reads a generated tree's node table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, compress, zip_longest
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from .aggregation import AggKind, AggValue, DomainError, Valuation, check_kind, check_range, path_frontiers
from .dominance import ShapeError
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
    totals = np.zeros((len(ids), len(sums)))
    for j, i in enumerate(sums):
        totals[:, j] = np.array(spec.attributes[i].numeric_values, dtype=np.float64)[ids[:, i]]
    return bits, totals


def singleton_valuations(spec: PreferenceSpec, ids: np.ndarray) -> list[Valuation]:
    """The base valuation of each component of :func:`drawn_values`: a
    singleton frontier, or the value's number for a sum, one shared
    ``AggValue`` per (attribute, value id)."""
    values = [
        AggValue.of_scalar(attr.numeric_values[v])  # type: ignore[index]
        if attr.agg_kind is AggKind.SUM
        else AggValue.of_frontier((v,))
        for attr in spec.attributes
        for v in range(len(attr.domain))
    ]
    sizes = [len(attr.domain) for attr in spec.attributes]
    return _valuations(values, ids + np.cumsum([0, *sizes[:-1]]))


def member_valuations(
    spec: PreferenceSpec, bits: np.ndarray, sums: np.ndarray, member_sets: Sequence[tuple[int, ...]]
) -> list[Valuation]:
    """The valuation of each nonempty sorted multiset of components, where
    component k holds ``bits[k]`` and ``sums[k]`` (see :func:`component_values`).

    A set's frontier values are the OR of its members' bits, and
    :func:`aggregation.path_frontiers` keeps their frontiers, one shared
    ``AggValue`` per distinct frontier.  Each sum folds the
    members' values from 0.0 in ascending order, one member column at a time
    over all sets; a shorter set adds 0.0, which changes no bit, as a fold
    from 0.0 never holds -0.0.  A sum past the float64 range raises
    ``DomainError`` naming ``attributes[i]``."""
    fronts, sum_ids, _ = _layout(spec)
    flat = list(chain.from_iterable(member_sets))
    starts = list(accumulate(map(len, member_sets), initial=0))[:-1]
    index = np.empty((len(member_sets), len(spec.attributes)), dtype=np.intp)
    interned: list[AggValue] = []
    if fronts:
        kept = path_frontiers([spec.attributes[i] for i in fronts], np.bitwise_or.reduceat(bits[flat], starts))
        interned, index[:, fronts] = _interned_frontiers(kept)
    if sum_ids:
        padded = np.concatenate([sums, np.zeros((1, len(sum_ids)))])  # a zero row past the last component
        totals = np.zeros((len(member_sets), len(sum_ids)))
        with np.errstate(over="ignore", invalid="ignore"):
            for column in zip_longest(*member_sets, fillvalue=len(sums)):  # member j of every set
                totals += padded[list(column)]
        if not np.isfinite(totals).all():
            i = sum_ids[int(np.argmin(np.isfinite(totals).all(axis=0)))]
            raise DomainError(f"attributes[{i}] ({spec.attributes[i].name}): a composition's sum is not finite")
        index[:, sum_ids] = len(interned) + np.arange(totals.size).reshape(totals.shape)
        interned += [AggValue(None, x) for x in totals.ravel().tolist()]
    return _valuations(interned, index)


def _interned_frontiers(kept: np.ndarray) -> tuple[list[AggValue], np.ndarray]:
    """One ``AggValue`` per distinct frontier of ``kept`` (flag rows as
    :func:`aggregation.path_frontiers` returns them), and each (set,
    attribute)'s position in that list.

    Each row's flags are one bytes key.  Attributes holding equal frontiers
    share the value, as ``AggValue`` is a plain value.
    """
    sets, count, span = kept.shape
    keys = kept.reshape(sets * count, span).view(np.dtype((np.void, span))).ravel().tolist()
    first = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    interned = [AggValue(frozenset(compress(range(span), key)), None) for key in first]
    return interned, np.fromiter(map(first.__getitem__, keys), dtype=np.intp, count=len(keys)).reshape(sets, count)


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
    Providers over one table hand out its own objects and keep their own
    call counts, delays and budgets.  Extending a state the table does not
    hold raises ``KeyError`` (``IndexError`` for a list).
    """

    def __init__(self, states, children, feasible: Sequence[Hashable], root_key: Hashable,
                 fdelay_ms: float = 0.0, budget: int = DEFAULT_BUDGET):
        self.states = states
        self.children = children
        self.feasible = feasible
        self.root_key = root_key
        self._feasible_keys = frozenset(feasible)
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

    def table(self) -> tuple[Sequence[Composition], dict[Hashable, int]]:
        """Every state in table order, and each state's row by key."""
        states = list(self.states.values()) if isinstance(self.states, dict) else self.states
        return states, {state.key(): row for row, state in enumerate(states)}

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
    provider, as a tree's nodes are: one checked :func:`member_valuations`
    call values every state from its members.
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
                nexts.setdefault(key, {})[nxt] = child = tuple(sorted((*key, nxt)))
                key = child
            feasible.append(key)
        keys = [key for key in dict.fromkeys([*nexts, *feasible]) if key]
        valuations = member_valuations(spec, *component_values(spec, components), keys)
        states = {(): empty_composition(spec)}
        for key, valuation in zip(keys, valuations):
            states[key] = Composition(key, valuation, key, terminal=key not in nexts)
        children = {key: list(nexts.get(key, {}).values()) for key in states}
        super().__init__(states, children, feasible, (), fdelay_ms=fdelay_ms, budget=budget)


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
