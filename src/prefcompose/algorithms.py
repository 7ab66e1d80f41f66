"""The four strategies for finding most-preferred feasible compositions.

* ``compose_and_filter``          -- enumerate everything, keep the
  non-dominated set (sound and complete).
* ``weakly_complete_compose``     -- per most-important attribute, keep the
  attribute-best compositions, then the non-dominated among those (sound,
  weakly complete).
* ``att_weakly_complete_compose`` -- attribute-best for one most-important
  attribute only (weakly complete, not sound).
* ``interleave_compose``          -- alternate one-step extension with
  non-dominated filtering of partial compositions; dominated partials are
  kept aside, never discarded, because a later extension of an undominated
  partial may still need to beat them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .composition import Composition, FeasibilityProvider, enumerate_feasible
from .dominance import PackedPool, best_on
from .preference import PreferenceSpec, most_important_set


@dataclass
class RunResult:
    """What one algorithm run produced and what it cost."""

    algorithm: str
    solutions: list[Composition]
    elapsed_ms: float
    fcount: int
    config: dict = field(default_factory=dict)


def _sorted_solutions(comps: Iterable[Composition]) -> list[Composition]:
    return sorted(comps, key=lambda c: (c.members, str(c.provider_node)))


def _filter_dominance(spec: PreferenceSpec, comps: Sequence[Composition]) -> list[Composition]:
    kept = PackedPool(spec, [c.valuation for c in comps]).undominated()
    return [comps[i] for i in kept]


def _filter_attribute(
    spec: PreferenceSpec, comps: Sequence[Composition], attr_id: int
) -> list[Composition]:
    kept = best_on(spec, [c.valuation for c in comps], attr_id)
    return [comps[i] for i in kept]


class _Cost:
    """The provider's counters when a run starts; the run costs their change."""

    def __init__(self, provider: FeasibilityProvider):
        self.provider = provider
        self.fcount = provider.invocation_count
        self.simulated_ms = provider.simulated_ms

    def result(self, algorithm: str, solutions: Iterable[Composition], **config) -> RunResult:
        return RunResult(
            algorithm=algorithm,
            solutions=_sorted_solutions(solutions),
            elapsed_ms=self.provider.simulated_ms - self.simulated_ms,
            fcount=self.provider.invocation_count - self.fcount,
            config=config,
        )


def compose_and_filter(spec: PreferenceSpec, provider: FeasibilityProvider) -> RunResult:
    """Enumerate the feasible set, return its non-dominated subset."""
    cost = _Cost(provider)
    feasible = enumerate_feasible(provider)
    solutions = _filter_dominance(spec, feasible)
    return cost.result("a1", solutions)


def weakly_complete_compose(spec: PreferenceSpec, provider: FeasibilityProvider) -> RunResult:
    """Union, over the most important attributes, of the non-dominated subset
    of each attribute's best compositions.

    The feasible set is enumerated once, and each attribute's scan packs only
    that attribute.  The union of the best sets is packed once; since
    dominance is a relation between pairs, each best set's non-dominated
    subset is read from the submatrix of its members."""
    cost = _Cost(provider)
    feasible = enumerate_feasible(provider)
    valuations = [c.valuation for c in feasible]
    best = [best_on(spec, valuations, attr_id) for attr_id in sorted(most_important_set(spec))]
    union = sorted(set().union(*best))
    matrix = PackedPool(spec, [valuations[j] for j in union]).dominance_matrix()
    chosen: dict = {}
    for members in best:
        sub = np.searchsorted(union, members)
        for j, dominated in zip(members, matrix[np.ix_(sub, sub)].any(axis=0)):
            if not dominated:
                chosen.setdefault(feasible[j].key(), feasible[j])
    return cost.result("a2", chosen.values())


def att_weakly_complete_compose(
    spec: PreferenceSpec,
    provider: FeasibilityProvider,
    pick_seed: Optional[int] = None,
) -> RunResult:
    """Best compositions for a single most-important attribute.

    With ``pick_seed`` None that attribute is the one with the lowest id, for
    reproducibility; otherwise it is drawn uniformly with that seed.
    """
    cost = _Cost(provider)
    important = sorted(most_important_set(spec))
    if pick_seed is None:
        attr_id = important[0]
    else:
        attr_id = random.Random(pick_seed).choice(important)
    feasible = enumerate_feasible(provider)
    solutions = _filter_attribute(spec, feasible, attr_id)
    return cost.result("a3", solutions, picked_attribute=attr_id)


def interleave_compose(
    spec: PreferenceSpec,
    provider: FeasibilityProvider,
    extend_feasible: bool = False,
) -> RunResult:
    """Alternate non-dominated filtering of partial compositions with one-step
    extension of the infeasible ones, until the filtered set is all feasible.

    ``extend_feasible`` additionally extends feasible members once; that is
    needed when aggregation kinds allow an extension to improve (sums,
    min/max), and pointless under worst-frontier aggregation where an
    extension never dominates what it extends.
    """
    cost = _Cost(provider)
    working = [provider.root()]
    extended: set = set()

    while working:
        best = _filter_dominance(spec, working)
        best_keys = {c.key() for c in best}
        replacement: list[Composition] = []
        replacement_keys: set = set()

        def absorb(comp: Composition) -> None:
            if comp.key() not in replacement_keys:
                replacement_keys.add(comp.key())
                replacement.append(comp)

        for comp in best:
            if provider.is_feasible(comp):
                absorb(comp)
                if extend_feasible and not comp.terminal and comp.key() not in extended:
                    extended.add(comp.key())
                    for ext in provider.extensions(comp):
                        absorb(ext)
            elif not comp.terminal:
                # Dead-end partials (terminal and infeasible) extend to
                # nothing and drop out of the working list here.
                for ext in provider.extensions(comp):
                    absorb(ext)
        if replacement_keys == best_keys:
            break
        rest = [c for c in working if c.key() not in best_keys]
        rest_keys = {c.key() for c in rest}
        working = rest + [c for c in replacement if c.key() not in rest_keys]
    else:  # the working list ran out
        best = []
    return cost.result("a4", best, extend_feasible=extend_feasible)


# The algorithms by the names the command line and the simulator use.
ALGORITHMS = {
    "a1": compose_and_filter,
    "a2": weakly_complete_compose,
    "a3": att_weakly_complete_compose,
    "a4": interleave_compose,
}
