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
from .dominance import PackedPool
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
    """``comps`` by their members, which are unique within a state table."""
    return sorted(comps, key=lambda c: c.members)


def _filter_dominance(pool: PackedPool, comps: Sequence[Composition]) -> list[Composition]:
    """The compositions nothing in the pool dominates; ``pool`` packs ``comps`` in order."""
    return [comps[i] for i in pool.undominated()]


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
    solutions = _filter_dominance(provider.pool(spec, feasible), feasible)
    return cost.result("a1", solutions)


def weakly_complete_compose(spec: PreferenceSpec, provider: FeasibilityProvider) -> RunResult:
    """Union, over the most important attributes, of the non-dominated subset
    of each attribute's best compositions.

    The feasible set is enumerated and packed once, and one sweep of its
    pool gives every most important attribute's best set (the entries it
    leaves unbeaten) and the dominance matrix, whose rows and columns in a
    best set give the dominance among its members."""
    cost = _Cost(provider)
    feasible = enumerate_feasible(provider)
    beaten, dominance = provider.pool(spec, feasible).sweep(sorted(most_important_set(spec)))
    chosen = np.zeros(len(feasible), dtype=np.bool_)
    for best in ~beaten:
        chosen |= best & ~dominance[best].any(axis=0)
    return cost.result("a2", [feasible[j] for j in np.flatnonzero(chosen)])


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
    best = provider.pool(spec, feasible).best_on(attr_id)
    return cost.result("a3", [feasible[j] for j in best], picked_attribute=attr_id)


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

    Each round filters the pool of the working list's rows of the
    provider's packed state table.
    """
    cost = _Cost(provider)
    root = provider.root()
    working = {root.key(): root}  # the working list, keyed by state
    extended: set = set()

    while working:
        comps = list(working.values())
        kept = _filter_dominance(provider.pool(spec, comps), comps)
        best = {c.key(): c for c in kept}
        replacement: dict = {}
        for comp in best.values():
            if provider.is_feasible(comp):
                replacement.setdefault(comp.key(), comp)
                if extend_feasible and not comp.terminal and comp.key() not in extended:
                    extended.add(comp.key())
                    for ext in provider.extensions(comp):
                        replacement.setdefault(ext.key(), ext)
            elif not comp.terminal:
                # Dead-end partials (terminal and infeasible) extend to
                # nothing and drop out of the working list here.
                for ext in provider.extensions(comp):
                    replacement.setdefault(ext.key(), ext)
        if replacement.keys() == best.keys():
            break
        # The rest of the working list first, then the new replacements.
        working = {key: c for key, c in working.items() if key not in best}
        for key, comp in replacement.items():
            working.setdefault(key, comp)
    else:  # the working list ran out
        best = {}
    return cost.result("a4", best.values(), extend_feasible=extend_feasible)


# The algorithms by the names the command line and the simulator use.
ALGORITHMS = {
    "a1": compose_and_filter,
    "a2": weakly_complete_compose,
    "a3": att_weakly_complete_compose,
    "a4": interleave_compose,
}
