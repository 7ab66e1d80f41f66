"""Simulation apparatus: random search trees, random preferences, batch runs.

Search spaces are uniform recursive trees: node k attaches to a parent drawn
uniformly from nodes 0..k-1, the root standing for the empty composition and
every other node for the one-step extension of its parent by one repository
component.  A chosen fraction of the leaves is marked feasible.  Preference
specs are drawn with configurable order kinds for the value orders and the
importance order.

Node valuations are drawn independently per node (``random_per_node``), or
each component draws one value per attribute and a node holds the aggregate
of the components on its root path (``aggregated``).  Aggregated nodes get
their valuations from :func:`composition.member_valuations`, as every
explicit provider state does, which reads each node's members: its root
path, in ascending component order.

A generated tree builds each node's :class:`Composition` once, and
:func:`tree_provider` serves them as a :class:`composition.FeasibilityProvider`
keyed by node number, which hands out those objects and builds none.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from . import oracle
from .aggregation import Valuation
from .algorithms import ALGORITHMS
from .composition import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Composition,
    FeasibilityProvider,
    drawn_values,
    empty_composition,
    member_valuations,
    singleton_valuations,
)
from .dominance import PackedStates
from .order import StrictOrder, transitive_closure
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
        for name, allowed in USUAL_RANGES.items():
            value = getattr(self, name)
            if value not in allowed:
                out.append(f"{name}={value} outside the usual range {allowed}")
        return out


@dataclass
class RecursiveTree:
    """A generated search tree; node k > 0 extends its parent by component k - 1.

    ``nodes[k]`` is node k's composition, built once with the tree: its
    members (the components on its root path), its valuation, ``k`` as its
    ``provider_node`` and ``terminal`` when it has no children.  Every
    provider over the tree hands out these objects, and ``packed`` holds
    their valuations packed by node, as the valuation builder made them.
    """

    parent: list[int]                 # parent[0] == -1
    children: list[list[int]]
    nodes: list[Composition]
    leaves: list[int]
    feasible_leaves: set[int]
    packed: PackedStates

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def node_valuation(self) -> list[Valuation]:
        """Each node's valuation, for ``perfbench``'s pool recorder."""
        return [node.valuation for node in self.nodes]


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


def random_orders(
    count: int, n: int, kind: str, rng: np.random.Generator, density: float = 0.3
) -> list[StrictOrder]:
    """Draw ``count`` strict orders of the requested kind over n elements.

    Each order's relation matrix is drawn in turn, and one
    :func:`order.transitive_closure` call closes them all as a stack.

    total    -- a random permutation chain: x beats y when x comes first.
    partial  -- the pairs of a random linear labeling, each kept with
                probability ``density`` (one draw per pair, row by row over
                the upper triangle), then closed.
    interval -- each element gets a random real interval; x beats y when x's
                left endpoint clears y's right endpoint.
    weak     -- a random surjection onto ranked levels; x beats y when x's
                level is lower.
    """
    if kind not in _KIND_ALIASES.values():
        raise ValueError(f"unknown order kind {kind!r}")
    relations = np.zeros((count, n, n), dtype=np.bool_)
    first, second = np.triu_indices(n, 1)  # position pairs, first before second
    for relation in relations:
        if kind in ("total", "partial"):
            perm = rng.permutation(n)
            kept = True if kind == "total" else rng.random(len(first)) < density
            relation[perm[first], perm[second]] = kept
        elif kind == "interval":
            a = rng.random(n)
            b = rng.random(n)
            relation[...] = np.minimum(a, b)[:, None] > np.maximum(a, b)[None, :]
        else:  # weak
            level_count = int(rng.integers(1, n + 1))
            perm = rng.permutation(n)
            levels = np.empty(n, dtype=np.int64)
            levels[perm] = np.concatenate(
                [np.arange(level_count), rng.integers(0, level_count, size=n - level_count)]
            )
            relation[...] = levels[:, None] < levels[None, :]
    return [StrictOrder(closed) for closed in transitive_closure(relations)]


def random_order(
    n: int, kind: str, rng: np.random.Generator, density: float = 0.3
) -> StrictOrder:
    """One strict order of :func:`random_orders`."""
    return random_orders(1, n, kind, rng, density)[0]


_KIND_ALIASES = {"po": "partial", "to": "total", "io": "interval", "wo": "weak"}


def _order_kind(short: str) -> str:
    return _KIND_ALIASES.get(short, short)


def random_spec(config: SimConfig, rng: np.random.Generator) -> PreferenceSpec:
    """A worst-frontier preference spec drawn per the config's order kinds:
    every attribute's value order from one :func:`random_orders` call, then
    the importance order."""
    domain = tuple(f"v{j}" for j in range(config.domain_size))
    intra = random_orders(
        config.attr_count, config.domain_size, _order_kind(config.intra_kind), rng, config.density
    )
    attributes = tuple(
        AttributeSchema(
            attr_id=i,
            name=f"attr{i}",
            domain=domain,
            intra_order=order,
            agg_kind=AggKind.WORST_FRONTIER,
        )
        for i, order in enumerate(intra)
    )
    importance = random_order(
        config.attr_count, _order_kind(config.importance_kind), rng, config.density
    )
    return PreferenceSpec(attributes=attributes, importance=importance)


def _random_value_ids(
    spec: PreferenceSpec, rng: np.random.Generator, count: int
) -> np.ndarray:
    """A ``(count, m)`` array of uniform domain value ids, one per attribute.

    One call returns the values of ``count`` rows of one scalar draw per
    attribute and leaves the generator in the same state, so seeded
    instances do not change with the batching.
    """
    sizes = [len(attr.domain) for attr in spec.attributes]
    return rng.integers(0, sizes, size=(count, len(sizes)))


def random_valuations(
    spec: PreferenceSpec, rng: np.random.Generator, count: int
) -> list[Valuation]:
    """``count`` singleton valuations, one uniform domain value per attribute:
    a singleton frontier, or the value's number for a sum."""
    return singleton_valuations(spec, _random_value_ids(spec, rng, count))[0]


def generate_tree(
    spec: PreferenceSpec, config: SimConfig, rng: np.random.Generator
) -> RecursiveTree:
    """Uniform recursive tree over the repository, with leaf feasibility and
    node valuations drawn per the config's valuation mode.

    The generator is drawn in a fixed order: all parents in one call, then
    all component (or node) values in one ``(r, m)`` call, then the feasible
    leaves.  In aggregated mode node k's valuation aggregates the drawn
    values of its members.
    """
    r = config.repo_size
    parent = [-1] + rng.integers(0, np.arange(1, r + 1)).tolist()
    children: list[list[int]] = [[] for _ in range(r + 1)]
    for node in range(1, r + 1):
        children[parent[node]].append(node)
    # Node k holds component k - 1.  Every ancestor's component id is less than
    # this node's, so the members stay sorted.
    members: list[tuple[int, ...]] = [()]
    for node in range(1, r + 1):
        members.append(members[parent[node]] + (node - 1,))
    if config.valuation_mode == "aggregated":
        drawn, packed = member_valuations(spec, *drawn_values(spec, _random_value_ids(spec, rng, r)), members[1:])
    else:  # random_per_node
        drawn, packed = singleton_valuations(spec, _random_value_ids(spec, rng, r))
    valuations = [empty_composition(spec).valuation, *drawn]
    nodes = list(map(Composition, members, valuations, range(r + 1), [not c for c in children]))

    leaves = [node for node in range(1, r + 1) if not children[node]]
    count = math.floor(config.feas * len(leaves))
    picked = rng.choice(len(leaves), size=count, replace=False) if count else []
    feasible_leaves = {leaves[int(i)] for i in picked}
    return RecursiveTree(
        parent=parent,
        children=children,
        nodes=nodes,
        leaves=leaves,
        feasible_leaves=feasible_leaves,
        packed=packed,
    )


def tree_provider(
    tree: RecursiveTree, fdelay_ms: float = 0.0, budget: int = DEFAULT_BUDGET
) -> FeasibilityProvider:
    """A provider over the tree's own node compositions and their packed
    valuations, rooted at node 0."""
    return FeasibilityProvider(tree.nodes, tree.children, sorted(tree.feasible_leaves), 0, fdelay_ms, budget,
                               packed=tree.packed)


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


def write_csv(records: Iterable[ExperimentRecord], out: Union[str, TextIO]) -> None:
    """Write the records as CSV with LF line ends to ``out``, a path or an
    open text file."""
    if isinstance(out, str):
        with open(out, "w", newline="") as handle:
            return write_csv(records, handle)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(record.csv_row() for record in records)
