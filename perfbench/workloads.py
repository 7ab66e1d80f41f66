"""The three benchmark workloads and the correctness gate for their answers.

A workload is a fixed cycle of ``slots`` operations over a panel of recorded
instances; the run seed only sets their order.  ``op(i)`` runs slot
``i % slots`` through the program's public entry points and returns what the
program produced; ``check(i, result)`` compares that answer with the
guarantee the README states for its algorithm, using
``oracle.brute_nondominated`` as ground truth, and is always called outside
the timed region.

* ``tree-filter``     -- one ``simulate`` instance with a1, a2 and a3.
* ``tree-interleave`` -- one ``simulate`` instance with a4 only.
* ``explicit-solve``  -- one in-process ``prefcompose solve`` (a1 or a3) on a
  generated instance document.

Instances come from pools recorded in ``pools.json`` (written by
``record_pools.py``), so that each tree instance's feasible count F and true
non-dominated count PF can be checked against the values recorded when the
benchmark was defined, and so that every run mixes cheap and costly instances
alike (see ``panel``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from pathlib import Path
from typing import Any, Optional

import numpy as np

from prefcompose import cli, oracle, simulator
from prefcompose.aggregation import AggValue, Valuation, aggregate
from tracer import Tracer

HERE = Path(__file__).resolve().parent
POOLS_PATH = HERE / "pools.json"

KNOWN = "known"
UNEXPECTED = "unexpected"


# --------------------------------------------------------------------------
# Orders, computed here rather than by the program under test.


def closure(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    mat = np.zeros((n, n), dtype=bool)
    for x, y in edges:
        mat[x, y] = True
    for k in range(n):
        mat |= np.outer(mat[:, k], mat[k, :])
    return mat


def order_class(mat: np.ndarray) -> str:
    """'weak', 'interval', 'partial' or 'none' (not a strict partial order)."""
    m = mat.astype(np.int64)
    not_m = 1 - m
    if mat.diagonal().any() or ((m @ m > 0) & ~mat).any():
        return "none"
    # Ferrers: x>y and z>w with neither x>w nor z>y.
    beats_unbeaten = (m @ not_m.T) > 0
    if (beats_unbeaten & beats_unbeaten.T).any():
        return "partial"
    # Negative transitivity: x>y implies x>z or z>y.
    if (mat & ((not_m @ not_m) > 0)).any():
        return "interval"
    return "weak"


def dominance_class(spec, valuations: list[Valuation]) -> str:
    """Order class of oracle dominance over a pool of valuations."""
    mat = np.array(
        [[oracle.plain_dominates(spec, u, v) for v in valuations] for u in valuations], dtype=bool
    ).reshape(len(valuations), len(valuations))
    return order_class(mat)


# --------------------------------------------------------------------------
# Recorded pools.


def load_pool(name: str) -> list[dict]:
    with open(POOLS_PATH) as handle:
        return json.load(handle)[name]["instances"]


def panel(entries: list[dict], size: int) -> list[dict]:
    """``size`` pool entries spread evenly over the pool ranked by work.

    Op cost follows the recorded ``work`` (dominance tests the op made when
    the pool was recorded), so the panel holds cheap and costly instances
    alike.  It is the same for every run seed.
    """
    entries = sorted(entries, key=lambda e: (e["work"], e["seed"]))
    return [entries[(2 * k + 1) * len(entries) // (2 * size)] for k in range(size)]


# --------------------------------------------------------------------------
# Tree workloads.


@dataclasses.dataclass(frozen=True)
class TreeSettings:
    name: str
    repo_size: int
    attr_counts: tuple[int, ...]
    algorithms: tuple[str, ...]
    pool_per_m: int
    panel_per_m: int
    domain_size: int = 6
    feas: float = 0.5

    def config(self, m: int) -> simulator.SimConfig:
        return simulator.SimConfig(
            feas=self.feas, domain_size=self.domain_size, attr_count=m,
            repo_size=self.repo_size, fdelay_ms=0.0, intra_kind="po",
            importance_kind="io", valuation_mode="aggregated", seed=0,
        )

    def pool_seed(self, m: int, k: int) -> int:
        return 1_000_000 * m + k


TREE_FILTER = TreeSettings("tree-filter", 200, (4, 8, 16), ("a1", "a2", "a3"), 100, 10)
TREE_INTERLEAVE = TreeSettings("tree-interleave", 200, (8,), ("a4",), 300, 30)


def record_tree_instance(settings: TreeSettings, m: int, seed: int) -> dict:
    """Ground-truth facts of one pool instance, as ``pools.json`` holds them."""
    config = settings.config(m)
    rng = np.random.default_rng(seed)
    spec = simulator.random_spec(config, rng)
    tree = simulator.generate_tree(spec, config, rng)
    feasible = simulator.tree_provider(tree).all_feasible()
    truth = oracle.brute_nondominated(spec, [(c.key(), c.valuation) for c in feasible])
    imp = spec.importance.matrix
    unique_top = any(all(imp[i, k] for k in range(m) if k != i) for i in range(m))
    tracer = Tracer(keep_span_ops=0)
    tracer.install()
    try:
        simulator.run_seeded_instance(config, settings.algorithms, seed)
    finally:
        tracer.uninstall()
    entry = {"m": m, "seed": seed, "F": len(feasible), "PF": len(truth), "unique_top": unique_top,
             "work": tracer.counts["dominance.tests"]}
    if "a4" in settings.algorithms:
        # a4 filters partial compositions too, so its guarantees rest on
        # dominance over every composition of the search space.
        entry["dominance"] = dominance_class(spec, tree.node_valuation)
    return entry


class TreeWorkload:
    """One op is one ``simulator.run_seeded_instance`` call."""

    def __init__(self, settings: TreeSettings, seed: int):
        self.settings = settings
        self.seed = seed
        self.schedule: list[dict] = []

    def prepare(self) -> None:
        pool = load_pool(self.settings.name)
        self.schedule = [entry for m in self.settings.attr_counts
                         for entry in panel([e for e in pool if e["m"] == m], self.settings.panel_per_m)]
        random.Random(self.seed).shuffle(self.schedule)

    def warm_up_ops(self) -> list[int]:
        """The slot of the panel's cheapest instance, twice."""
        cheapest = min(range(self.slots), key=lambda i: self.schedule[i]["work"])
        return [cheapest, cheapest]

    @property
    def slots(self) -> int:
        return len(self.schedule)

    def instance(self, i: int) -> dict:
        return self.schedule[i % len(self.schedule)]

    def seeds(self, ops: int) -> list[int]:
        return [self.instance(i)["seed"] for i in range(ops)]

    def op(self, i: int) -> Any:
        entry = self.instance(i)
        config = self.settings.config(entry["m"])
        return simulator.run_seeded_instance(config, self.settings.algorithms, entry["seed"])

    def calls(self, i: int, records: Any) -> int:
        return sum(r.fcount for r in records)

    def check(self, i: int, records: Any) -> list[tuple[str, str]]:
        entry = self.instance(i)
        where = f"seed {entry['seed']} (m={entry['m']})"
        failures = []
        if sorted(r.algorithm for r in records) != sorted(self.settings.algorithms):
            return [(UNEXPECTED, f"{where}: records for {[r.algorithm for r in records]}")]
        for r in records:
            if (r.F, r.PF) != (entry["F"], entry["PF"]):
                failures.append((UNEXPECTED, f"{where}: F/PF {r.F}/{r.PF}, recorded {entry['F']}/{entry['PF']}"))
                continue
            problem = tree_guarantee(r.algorithm, r.S, r.SP, entry)
            if problem:
                failures.append((UNEXPECTED, f"{where} {r.algorithm}: {problem} (S={r.S} SP={r.SP} PF={r.PF})"))
        return failures


def tree_guarantee(algorithm: str, S: int, SP: int, entry: dict) -> Optional[str]:
    """The README guarantee of ``algorithm``, read from produced/overlap counts."""
    PF = entry["PF"]
    sound = SP == S
    complete = SP == PF
    weakly_complete = PF == 0 or SP >= 1
    if algorithm == "a1":
        return None if sound and complete else "not exact"
    if algorithm == "a2":
        if not (sound and weakly_complete):
            return "not sound and weakly complete"
        return "not complete under a unique top attribute" if entry["unique_top"] and not complete else None
    if algorithm == "a3":
        return None if weakly_complete else "not weakly complete"
    if algorithm == "a4":
        kind = entry["dominance"]
        if kind in ("interval", "weak") and not (sound and weakly_complete):
            return f"not sound and weakly complete under {kind}-order dominance"
        if kind == "weak" and not complete:
            return "not complete under weak-order dominance"
        return None
    return f"unknown algorithm {algorithm}"


# --------------------------------------------------------------------------
# Explicit-solve workload.

COMPONENTS = 80
SEQUENCES = 300
DEPTH = (3, 7)
DOMAIN = 10
IMPORTANCE_DENSITY = 0.35
EXPLICIT_POOL = 200
INSTANCES = 30
ALGORITHMS = ("a1", "a3")


def _ranked(rng: random.Random, prefix: str) -> list[str]:
    """Domain labels in a random order, best first."""
    labels = [f"{prefix}{i}" for i in range(DOMAIN)]
    rng.shuffle(labels)
    return labels


def _chain(ranked: list[str]) -> list[list[str]]:
    return [[ranked[i], ranked[i + 1]] for i in range(len(ranked) - 1)]


def _partial(rng: random.Random, ranked: list[str], density: float) -> list[list[str]]:
    n = len(ranked)
    return [[ranked[i], ranked[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < density]


def explicit_document(seed: int) -> dict:
    """An instance document with one attribute of every aggregation kind.

    ``cost`` sums small integers (lower is better), ``revenue`` sums values
    between 1e6 and 5e6 (higher is better), ``latency``/``uptime`` are min/max
    over total orders, ``quality``/``support`` are worst/best frontiers over
    partial orders.  Importance is a random partial order, so some instances
    are not interval orders.  Under max and best-frontier aggregation one good
    component makes a good composition, so better ``uptime`` and ``support``
    values are rarer; otherwise a3, which keeps every composition tied on its
    attribute, would answer with most of the feasible set.
    """
    rng = random.Random(seed)
    ranked = {name: _ranked(rng, name[0]) for name in ("latency", "quality", "uptime", "support")}
    attributes = [
        {"name": "cost", "domain": ["unit"], "agg": "sum", "numeric_values": [1], "sum_polarity": "lower"},
        {"name": "revenue", "domain": ["unit"], "agg": "sum", "numeric_values": [1e6],
         "sum_polarity": "higher"},
        {"name": "latency", "domain": sorted(ranked["latency"]), "intra_edges": _chain(ranked["latency"]),
         "agg": "min"},
        {"name": "quality", "domain": sorted(ranked["quality"]),
         "intra_edges": _partial(rng, ranked["quality"], 0.5), "agg": "worst_frontier"},
        {"name": "uptime", "domain": sorted(ranked["uptime"]), "intra_edges": _chain(ranked["uptime"]),
         "agg": "max"},
        {"name": "support", "domain": sorted(ranked["support"]),
         "intra_edges": _partial(rng, ranked["support"], 0.5), "agg": "best_frontier"},
    ]
    names = [a["name"] for a in attributes]
    rng.shuffle(names)
    importance = [
        [names[i], names[j]]
        for i in range(len(names)) for j in range(i + 1, len(names))
        if rng.random() < IMPORTANCE_DENSITY
    ]
    rarer_when_better = list(range(1, DOMAIN + 1))
    comps = [
        {"name": f"c{c}", "valuation": {
            "cost": rng.randint(1, 20),
            "revenue": rng.uniform(1e6, 5e6),
            "latency": rng.choice(ranked["latency"]),
            "quality": rng.choice(ranked["quality"]),
            "uptime": rng.choices(ranked["uptime"], rarer_when_better)[0],
            "support": rng.choices(ranked["support"], rarer_when_better)[0],
        }}
        for c in range(COMPONENTS)
    ]
    seen: set = set()
    feasible = []
    while len(feasible) < SEQUENCES:
        seq = rng.sample(range(COMPONENTS), rng.randint(*DEPTH))
        key = tuple(sorted(seq))
        if key not in seen:
            seen.add(key)
            feasible.append([f"c{i}" for i in seq])
    return {"format": 1, "attributes": attributes, "importance_edges": importance,
            "components": comps, "feasible_sets": feasible}


@dataclasses.dataclass
class Truth:
    keys: set
    valuations: dict
    spec: Any
    interval_importance: bool


def explicit_truth(doc: dict) -> Truth:
    """Non-dominated feasible member sets by ``oracle.brute_nondominated``.

    Valuations are aggregated here over each feasible multiset rather than
    taken from the program's provider.
    """
    instance = cli.parse_instance(doc)
    spec = instance.spec
    comps = {c.name: c.base_valuation for c in instance.components}
    pool = {}
    for group in doc["feasible_sets"]:
        key = tuple(sorted(group))
        if key in pool:
            continue
        values = []
        for a, attr in enumerate(spec.attributes):
            parts = [comps[name][a] for name in group]
            if parts[0].is_frontier:
                values.append(aggregate(attr, [v for p in parts for v in p.frontier]))
            else:
                values.append(AggValue.of_scalar(sum(p.scalar for p in parts)))
        pool[key] = Valuation(tuple(values))
    keys = oracle.brute_nondominated(spec, list(pool.items()))
    names = [a["name"] for a in doc["attributes"]]
    edges = [(names.index(x), names.index(y)) for x, y in doc["importance_edges"]]
    interval = order_class(closure(len(names), edges)) in ("interval", "weak")
    return Truth(keys, pool, spec, interval)


def solve(path: Path, algorithm: str) -> tuple[int, str, str]:
    """``prefcompose solve`` in this process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", str(path), "--algorithm", algorithm])
    return code, out.getvalue(), err.getvalue()


def explicit_pool_seed(k: int) -> int:
    return 7_000_000 + k


def record_explicit_instance(seed: int, workdir: Path) -> dict:
    """Pool entry of one explicit instance: its seed and the dominance tests
    its a1 and a3 solves make."""
    path = workdir / f"{seed}.json"
    with open(path, "w") as handle:
        json.dump(explicit_document(seed), handle)
    tracer = Tracer(keep_span_ops=0)
    tracer.install()
    try:
        for algorithm in ALGORITHMS:
            solve(path, algorithm)
    finally:
        tracer.uninstall()
        path.unlink()
    return {"seed": seed, "work": tracer.counts["dominance.tests"]}


class ExplicitWorkload:
    """One op is one in-process ``prefcompose solve`` on a generated document.

    Each document of the panel is solved with each of ``ALGORITHMS``.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / "instances"
        self.schedule: list[dict] = []
        self.docs: list[dict] = []
        self._truth: dict[int, Truth] = {}

    def instance_seed(self, j: int) -> int:
        return self.schedule[j]["seed"]

    def prepare(self) -> None:
        self.schedule = panel(load_pool("explicit-solve"), INSTANCES)
        random.Random(self.seed).shuffle(self.schedule)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.docs = [explicit_document(entry["seed"]) for entry in self.schedule]
        for j, doc in enumerate(self.docs):
            with open(self.dir / f"{j}.json", "w") as handle:
                json.dump(doc, handle)

    @property
    def slots(self) -> int:
        return INSTANCES * len(ALGORITHMS)

    def slot(self, i: int) -> tuple[int, str]:
        return (i // len(ALGORITHMS)) % INSTANCES, ALGORITHMS[i % len(ALGORITHMS)]

    def warm_up_ops(self) -> list[int]:
        """The slots of the panel's cheapest document, one per algorithm."""
        j = min(range(INSTANCES), key=lambda j: self.schedule[j]["work"])
        return [len(ALGORITHMS) * j + a for a in range(len(ALGORITHMS))]

    def seeds(self, ops: int) -> list[int]:
        return sorted(entry["seed"] for entry in self.schedule)

    def op(self, i: int) -> Any:
        j, algorithm = self.slot(i)
        return solve(self.dir / f"{j}.json", algorithm)

    def calls(self, i: int, result: Any) -> int:
        code, out, _ = result
        return json.loads(out)["fcount"] if code == 0 else 0

    def truth(self, j: int) -> Truth:
        if j not in self._truth:
            self._truth[j] = explicit_truth(self.docs[j])
        return self._truth[j]

    def check(self, i: int, result: Any) -> list[tuple[str, str]]:
        j, algorithm = self.slot(i)
        where = f"instance seed {self.instance_seed(j)} {algorithm}"
        code, out, err = result
        if code != 0:
            return [(UNEXPECTED, f"{where}: exit {code}: {err.strip()[-200:]}")]
        produced = {tuple(sorted(s["members"])) for s in json.loads(out)["solutions"]}
        return explicit_guarantee(algorithm, produced, self.truth(j), where)


def explicit_guarantee(algorithm: str, produced: set, truth: Truth, where: str) -> list[tuple[str, str]]:
    """a1 must be exact; a3 must be weakly complete.

    An a1 answer that contains every true answer plus dominated compositions,
    and in which no answer dominates another, under non-interval importance,
    is the block-nested-loops defect recorded in ROADMAP: the filter assumes
    transitive dominance.  It counts as a failed op but is classed as known.
    """
    if algorithm == "a3":
        if truth.keys and not produced & truth.keys:
            return [(UNEXPECTED, f"{where}: not weakly complete")]
        return []
    if produced == truth.keys:
        return []
    unknown = produced - set(truth.valuations)
    if unknown:
        return [(UNEXPECTED, f"{where}: {len(unknown)} answers are not feasible")]
    extra = produced - truth.keys
    missing = truth.keys - produced
    message = f"{where}: {len(extra)} dominated answers, {len(missing)} missing (PF={len(truth.keys)})"
    vals = [truth.valuations[k] for k in produced]
    antichain = not any(
        oracle.plain_dominates(truth.spec, u, v) for u in vals for v in vals if u is not v
    )
    if not missing and antichain and not truth.interval_importance:
        return [(KNOWN, message + "; block-nested-loops filter under non-interval importance")]
    return [(UNEXPECTED, message)]


WORKLOADS = {
    "tree-filter": lambda seed, workdir: TreeWorkload(TREE_FILTER, seed),
    "tree-interleave": lambda seed, workdir: TreeWorkload(TREE_INTERLEAVE, seed),
    "explicit-solve": ExplicitWorkload,
}
