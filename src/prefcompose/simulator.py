"""Simulation apparatus: random search trees, random preferences, batch runs.

Search spaces are uniform recursive trees: node k attaches to a parent drawn
uniformly from nodes 0..k-1, the root standing for the empty composition and
every other node for the one-step extension of its parent by one repository
component.  A chosen fraction of the leaves is marked feasible.  Preference
specs are drawn with configurable order kinds for the value orders and the
importance order.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import oracle
from .aggregation import AggValue, Valuation, merge
from .algorithms import ALGORITHMS
from .composition import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Composition,
    FeasibilityProvider,
    empty_composition,
)
from .order import StrictOrder, build_order
from .preference import AggKind, AttributeSchema, PreferenceSpec

CSV_HEADER = [
    "algorithm", "seed", "feas", "n", "m", "r", "fdelay",
    "intra_kind", "imp_kind", "F", "PF", "S", "SP", "T_ms", "fcount",
    "sp_over_pf", "sp_over_s",
]

VALUATION_MODES = ("random_per_node", "aggregated")

USUAL_RANGES = {
    "feas": (0.25, 0.5, 0.75, 1.0),
    "domain_size": (2, 4, 6, 8, 10),
    "attr_count": tuple(range(2, 21, 2)),
    "repo_size": tuple(range(10, 201, 10)),
    "fdelay_ms": (1, 10, 100, 1000),
}


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    feas: float = 0.5
    domain_size: int = 4
    attr_count: int = 4
    repo_size: int = 40
    fdelay_ms: float = 1.0
    intra_kind: str = "po"          # po | to
    importance_kind: str = "io"     # io | to
    valuation_mode: str = "random_per_node"  # random_per_node | aggregated
    seed: int = 0
    density: float = 0.3

    def __post_init__(self) -> None:
        """Reject a field of the wrong type or out of the range generation
        needs, with a ``ValueError`` whose message starts with the field name."""
        def check(name: str, ok: bool, expected: str) -> None:
            if not ok:
                raise ValueError(f"{name}: expected {expected}, got {getattr(self, name)!r}")

        for name, low in (("domain_size", 1), ("attr_count", 1), ("repo_size", 1), ("seed", 0)):
            value = getattr(self, name)
            check(name, _is_integer(value) and value >= low, f"an integer >= {low}")
        for name in ("feas", "density"):
            value = getattr(self, name)
            check(name, _is_real(value) and 0 <= value <= 1, "a number in [0, 1]")
        check("fdelay_ms", _is_real(self.fdelay_ms) and 0 <= self.fdelay_ms < math.inf,
              "a finite number >= 0")
        kinds = (*_KIND_ALIASES, *_KIND_ALIASES.values())
        for name in ("intra_kind", "importance_kind"):
            check(name, getattr(self, name) in kinds, f"one of {kinds}")
        check("valuation_mode", self.valuation_mode in VALUATION_MODES, f"one of {VALUATION_MODES}")

    def range_warnings(self) -> list[str]:
        out = []
        for name, allowed in (
            ("feas", USUAL_RANGES["feas"]),
            ("domain_size", USUAL_RANGES["domain_size"]),
            ("attr_count", USUAL_RANGES["attr_count"]),
            ("repo_size", USUAL_RANGES["repo_size"]),
            ("fdelay_ms", USUAL_RANGES["fdelay_ms"]),
        ):
            value = getattr(self, name)
            if value not in allowed:
                out.append(f"{name}={value} outside the usual range {allowed}")
        return out


@dataclass
class RecursiveTree:
    """A generated search tree; node k > 0 extends its parent by component k - 1."""

    parent: list[int]                 # parent[0] == -1
    children: list[list[int]]
    node_members: list[tuple[int, ...]]
    node_valuation: list[Valuation]
    leaves: list[int]
    feasible_leaves: set[int]
    component_base: Optional[list[Valuation]] = None  # aggregated mode only

    @property
    def node_count(self) -> int:
        return len(self.parent)


@dataclass
class ExperimentRecord:
    algorithm: str
    seed: int
    config: SimConfig
    F: int
    PF: int
    S: int
    SP: int
    T_ms: float
    fcount: int

    @property
    def sp_over_pf(self) -> float:
        if self.PF == 0:
            assert self.SP == 0
            return 1.0
        return self.SP / self.PF

    @property
    def sp_over_s(self) -> float:
        if self.S == 0:
            assert self.SP == 0
            return 1.0
        return self.SP / self.S

    def csv_row(self) -> list[str]:
        c = self.config
        return [
            self.algorithm, str(self.seed), str(c.feas), str(c.domain_size),
            str(c.attr_count), str(c.repo_size), str(c.fdelay_ms),
            c.intra_kind, c.importance_kind,
            str(self.F), str(self.PF), str(self.S), str(self.SP),
            str(self.T_ms), str(self.fcount),
            str(self.sp_over_pf), str(self.sp_over_s),
        ]


def random_order(
    n: int, kind: str, rng: np.random.Generator, density: float = 0.3
) -> StrictOrder:
    """Draw a strict order of the requested kind over n elements.

    total    -- a random permutation chain.
    partial  -- edges sampled (probability ``density``) consistently with a
                random linear labeling, then closed.
    interval -- each element gets a random real interval; x beats y when x's
                left endpoint clears y's right endpoint.
    weak     -- a random surjection onto ranked levels.
    """
    if kind == "total":
        perm = rng.permutation(n)
        edges = [(int(perm[i]), int(perm[j])) for i in range(n) for j in range(i + 1, n)]
        return build_order(edges, n)
    if kind == "partial":
        perm = rng.permutation(n)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    edges.append((int(perm[i]), int(perm[j])))
        return build_order(edges, n)
    if kind == "interval":
        a = rng.random(n)
        b = rng.random(n)
        left = np.minimum(a, b)
        right = np.maximum(a, b)
        edges = [
            (x, y)
            for x in range(n)
            for y in range(n)
            if x != y and left[x] > right[y]
        ]
        return build_order(edges, n)
    if kind == "weak":
        level_count = int(rng.integers(1, n + 1))
        levels = np.empty(n, dtype=np.int64)
        perm = rng.permutation(n)
        for pos, elem in enumerate(perm):
            levels[elem] = pos if pos < level_count else rng.integers(0, level_count)
        edges = [
            (x, y) for x in range(n) for y in range(n) if levels[x] < levels[y]
        ]
        return build_order(edges, n)
    raise ValueError(f"unknown order kind {kind!r}")


_KIND_ALIASES = {"po": "partial", "to": "total", "io": "interval", "wo": "weak"}


def _order_kind(short: str) -> str:
    return _KIND_ALIASES.get(short, short)


def random_spec(config: SimConfig, rng: np.random.Generator) -> PreferenceSpec:
    """A worst-frontier preference spec drawn per the config's order kinds."""
    attributes = []
    for i in range(config.attr_count):
        intra = random_order(
            config.domain_size, _order_kind(config.intra_kind), rng, config.density
        )
        attributes.append(
            AttributeSchema(
                attr_id=i,
                name=f"attr{i}",
                domain=tuple(f"v{j}" for j in range(config.domain_size)),
                intra_order=intra,
                agg_kind=AggKind.WORST_FRONTIER,
            )
        )
    importance = random_order(
        config.attr_count, _order_kind(config.importance_kind), rng, config.density
    )
    return PreferenceSpec(attributes=tuple(attributes), importance=importance)


def random_valuations(
    spec: PreferenceSpec, rng: np.random.Generator, count: int
) -> list[Valuation]:
    """``count`` singleton valuations, one uniform domain value per attribute.

    All values come from one ``(count, m)`` draw.  It returns the values of
    ``count`` rows of one scalar draw per attribute and leaves the generator
    in the same state, so seeded instances do not change with the batching.
    """
    per_value = [
        [AggValue.of_scalar(x) for x in attr.numeric_values]  # type: ignore[union-attr]
        if attr.agg_kind is AggKind.SUM
        else [AggValue.of_frontier((v,)) for v in range(len(attr.domain))]
        for attr in spec.attributes
    ]
    sizes = [len(attr.domain) for attr in spec.attributes]
    rows = rng.integers(0, sizes, size=(count, len(sizes))).tolist()
    return [Valuation(tuple(map(list.__getitem__, per_value, row))) for row in rows]


def generate_tree(
    spec: PreferenceSpec, config: SimConfig, rng: np.random.Generator
) -> RecursiveTree:
    """Uniform recursive tree over the repository, with leaf feasibility and
    node valuations drawn per the config's valuation mode."""
    r = config.repo_size
    parent = [-1] + rng.integers(0, np.arange(1, r + 1)).tolist()
    children: list[list[int]] = [[] for _ in range(r + 1)]
    for node in range(1, r + 1):
        children[parent[node]].append(node)
    # Node k holds component k - 1.  Every ancestor's component id is below
    # this node's, so the members stay sorted.
    node_members: list[tuple[int, ...]] = [()] * (r + 1)
    for node in range(1, r + 1):
        node_members[node] = node_members[parent[node]] + (node - 1,)

    bottom = empty_composition(spec).valuation
    node_valuation: list[Valuation] = [bottom] * (r + 1)
    component_base: Optional[list[Valuation]] = None
    if config.valuation_mode == "aggregated":
        component_base = random_valuations(spec, rng, r)
        # Per attribute, each (parent value, component value) pair's merge:
        # a tree repeats few distinct pairs, and each is merged once.
        merged: list[dict[tuple[AggValue, AggValue], AggValue]] = [{} for _ in spec.attributes]
        for node in range(1, r + 1):
            up = node_valuation[parent[node]].per_attribute
            base = component_base[node - 1].per_attribute
            values = []
            for attr, known, a, b in zip(spec.attributes, merged, up, base):
                value = known.get((a, b))
                if value is None:
                    value = known[a, b] = merge(attr, a, b)
                values.append(value)
            node_valuation[node] = Valuation(tuple(values))
    else:  # random_per_node
        node_valuation[1:] = random_valuations(spec, rng, r)

    leaves = [node for node in range(1, r + 1) if not children[node]]
    count = math.floor(config.feas * len(leaves))
    picked = rng.choice(len(leaves), size=count, replace=False) if count else []
    feasible_leaves = {leaves[int(i)] for i in picked}
    return RecursiveTree(
        parent=parent,
        children=children,
        node_members=node_members,
        node_valuation=node_valuation,
        leaves=leaves,
        feasible_leaves=feasible_leaves,
        component_base=component_base,
    )


class TreeProvider(FeasibilityProvider):
    """Feasibility provider backed by a generated recursive tree."""

    def __init__(self, tree: RecursiveTree, fdelay_ms: float = 0.0, budget: int = DEFAULT_BUDGET):
        super().__init__(fdelay_ms=fdelay_ms, budget=budget)
        self.tree = tree

    def _composition(self, node: int) -> Composition:
        tree = self.tree
        return Composition(
            members=tree.node_members[node],
            valuation=tree.node_valuation[node],
            provider_node=node,
            terminal=not tree.children[node],
        )

    def root(self) -> Composition:
        return self._composition(0)

    def is_feasible(self, comp: Composition) -> bool:
        return comp.provider_node in self.tree.feasible_leaves

    def extensions(self, comp: Composition) -> list[Composition]:
        self._charge()
        return [self._composition(child) for child in self.tree.children[comp.provider_node]]

    def all_feasible(self) -> list[Composition]:
        return [self._composition(node) for node in sorted(self.tree.feasible_leaves)]


def tree_provider(
    tree: RecursiveTree, fdelay_ms: float = 0.0, budget: int = DEFAULT_BUDGET
) -> TreeProvider:
    return TreeProvider(tree, fdelay_ms=fdelay_ms, budget=budget)


def run_instance(
    spec: PreferenceSpec,
    tree: RecursiveTree,
    config: SimConfig,
    algorithms: Sequence[str],
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> list[ExperimentRecord]:
    """Run the chosen algorithms on one generated instance and record the
    ground-truth and per-run observables.

    A run's cost is read from its own provider: ``fcount`` extension calls and
    ``T_ms`` simulated delay.  A run that exhausts the budget is recorded with
    no solutions and the calls it made until then.
    """
    truth_provider = tree_provider(tree)
    feasible = truth_provider.all_feasible()
    truth = oracle.brute_nondominated(
        spec, [(c.provider_node, c.valuation) for c in feasible]
    )
    records = []
    for name in algorithms:
        provider = tree_provider(tree, fdelay_ms=config.fdelay_ms, budget=budget)
        try:
            produced = {c.key() for c in ALGORITHMS[name](spec, provider).solutions}
        except BudgetExceeded:  # recorded as an empty run, not fatal
            produced = set()
        records.append(
            ExperimentRecord(
                algorithm=name,
                seed=seed,
                config=config,
                F=len(feasible),
                PF=len(truth),
                S=len(produced),
                SP=len(produced & truth),
                T_ms=provider.simulated_ms,
                fcount=provider.invocation_count,
            )
        )
    return records


def run_experiment(
    config: SimConfig,
    algorithms: Sequence[str] = ("a1", "a3", "a4"),
    repetitions: int = 1,
) -> list[ExperimentRecord]:
    """Generate ``repetitions`` independent instances and run every requested
    algorithm on each; instance seeds derive from the config seed and are
    recorded for exact replay."""
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
    root = np.random.default_rng(config.seed)
    records = []
    for _ in range(repetitions):
        child_seed = int(root.integers(0, 2**62))
        records.extend(run_seeded_instance(config, algorithms, child_seed))
    return records


def run_seeded_instance(
    config: SimConfig, algorithms: Sequence[str], child_seed: int
) -> list[ExperimentRecord]:
    """One fully reproducible instance: spec and tree derive from the seed."""
    rng = np.random.default_rng(child_seed)
    spec = random_spec(config, rng)
    tree = generate_tree(spec, config, rng)
    return run_instance(spec, tree, config, algorithms, child_seed)


def write_csv(records: Iterable[ExperimentRecord], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record.csv_row())
