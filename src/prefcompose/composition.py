"""Compositions of repository components and the feasibility-provider seam.

A provider answers three questions: is a composition feasible, what are its
one-step extensions, and (natively) what is the full feasible set.  Extension
calls are counted and carry a configurable simulated delay; real composition
engines (planners, service matchmakers) would plug in behind the same
interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .aggregation import AggKind, AggValue, Valuation, merge
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


@dataclass(frozen=True)
class Composition:
    """An unordered collection of component ids with its cached valuation.

    ``provider_node`` identifies the provider-side search state (a tree node,
    a sequence prefix); algorithm bookkeeping keys on it, never on the
    valuation, because distinct states may share equal valuations.
    ``terminal`` marks states the provider cannot extend further.
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
    return Composition(members=(), valuation=Valuation(tuple(values)), provider_node=(), terminal=False)


def merge_valuations(spec: PreferenceSpec, a: Valuation, b: Valuation) -> Valuation:
    """Merge attribute by attribute, each distinct frontier pair once per spec."""
    xs, ys = a.per_attribute, b.per_attribute
    if not len(xs) == len(ys) == len(spec.attributes):
        raise ShapeError("valuation not aligned with spec")
    values = []
    for attr, known, x, y in zip(spec.attributes, spec.merge_table, xs, ys):
        if known is None:  # a sum
            value = merge(attr, x, y)
        elif (value := known.get((x, y))) is None:
            value = known[x, y] = merge(attr, x, y)
        values.append(value)
    return Valuation(tuple(values))


def extend(spec: PreferenceSpec, comp: Composition, component: Component) -> Composition:
    """Add one component; the valuation updates by per-attribute merge."""
    members = tuple(sorted(comp.members + (component.comp_id,)))
    valuation = merge_valuations(spec, comp.valuation, component.base_valuation)
    return Composition(
        members=members,
        valuation=valuation,
        provider_node=members,
        terminal=False,
    )


class FeasibilityProvider:
    """Counted, delayed access to a search space of compositions."""

    def __init__(self, fdelay_ms: float = 0.0, budget: int = DEFAULT_BUDGET):
        self.fdelay_ms = fdelay_ms
        self.budget = budget
        self.invocation_count = 0
        self.simulated_ms = 0.0

    def _charge(self) -> None:
        self.invocation_count += 1
        self.simulated_ms += self.fdelay_ms
        if self.invocation_count > self.budget:
            raise BudgetExceeded(
                f"extension budget of {self.budget} calls exhausted"
            )

    def root(self) -> Composition:
        raise NotImplementedError

    def is_feasible(self, comp: Composition) -> bool:
        raise NotImplementedError

    def extensions(self, comp: Composition) -> list[Composition]:
        raise NotImplementedError

    def all_feasible(self) -> list[Composition]:
        """Native feasible set; equals what recursive extension reaches."""
        raise NotImplementedError


class ExplicitProvider(FeasibilityProvider):
    """Search space given by explicit feasible component sequences.

    Each listed sequence is one way to build a feasible composition; partial
    states are prefixes of the sequences (compared as multisets) and the
    one-step extensions of a state are the deduplicated next elements of every
    sequence it prefixes.  A multiset is feasible when it equals some listed
    sequence's multiset.
    """

    def __init__(
        self,
        spec: PreferenceSpec,
        components: Sequence[Component],
        feasible_sequences: Sequence[Sequence[int]],
        fdelay_ms: float = 0.0,
        budget: int = DEFAULT_BUDGET,
    ):
        super().__init__(fdelay_ms=fdelay_ms, budget=budget)
        self.spec = spec
        self.components = list(components)
        self.sequences = [tuple(seq) for seq in feasible_sequences]
        self._feasible_keys = {tuple(sorted(seq)) for seq in self.sequences}
        # Sorted prefix -> next components, in first-seen sequence order.
        self._next: dict[tuple[int, ...], dict[int, None]] = {}
        for seq in self.sequences:
            for depth, nxt in enumerate(seq):
                self._next.setdefault(tuple(sorted(seq[:depth])), {})[nxt] = None

    def root(self) -> Composition:
        return empty_composition(self.spec)

    def is_feasible(self, comp: Composition) -> bool:
        return tuple(sorted(comp.members)) in self._feasible_keys

    def extensions(self, comp: Composition) -> list[Composition]:
        self._charge()
        out = []
        for comp_id in self._next.get(tuple(sorted(comp.members)), ()):
            members = tuple(sorted(comp.members + (comp_id,)))
            base = self.components[comp_id].base_valuation
            out.append(Composition(
                members=members,
                valuation=merge_valuations(self.spec, comp.valuation, base),
                provider_node=members,
                terminal=members not in self._next,
            ))
        return out

    def all_feasible(self) -> list[Composition]:
        out = []
        for seq in self.sequences:
            comp = self.root()
            for comp_id in seq:
                comp = extend(self.spec, comp, self.components[comp_id])
            out.append(comp)
        return out


def enumerate_feasible(provider: FeasibilityProvider) -> list[Composition]:
    """Full feasible set reached by recursive one-step extension from the root.

    Extension calls (and therefore the budget and delay) hit only
    non-terminal states; a terminal state by definition extends to nothing.
    A state reachable along several extension paths is visited once.
    """
    found: list[Composition] = []
    root = provider.root()
    stack = [root]
    visited = {root.key()}
    while stack:
        comp = stack.pop()
        if provider.is_feasible(comp):
            found.append(comp)
        if comp.terminal:
            continue
        for ext in provider.extensions(comp):
            if ext.key() not in visited:
                visited.add(ext.key())
                stack.append(ext)
    return found
