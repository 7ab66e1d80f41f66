"""Property-verification harness: dominance properties on random instances.

Each property is checked on randomized specs and pools drawn through the
simulator, or on the intransitivity fixture of :mod:`prefcompose.oracle`.
Guaranteed properties expect zero violations; the two fixture properties
require exactly the known counterexample to reproduce; the weak-order probe
under interval importance only reports.  ``prefcompose props`` runs them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import simulator
from .aggregation import Valuation, aggregate, strictly_preferred
from .composition import Component, empty_composition, extend
from .dominance import PackedPool, dominates, witnesses
from .oracle import intransitivity_fixture
from .order import build_order, classify
from .preference import PreferenceSpec

PROPERTY_NAMES = (
    "transitivity",
    "non-interval-fixture",
    "weak-order",
    "extension-never-dominates",
    "intransitivity-fixture",
    "top-attribute-inclusion",
    "interval-total-weak-order",
)

FIXTURE_PROPERTIES = {"non-interval-fixture", "intransitivity-fixture"}


@dataclass
class PropertyReport:
    name: str
    instances_checked: int
    violations: int
    first_violation: Optional[str] = None
    required_violations: int = 0
    info_only: bool = False

    @property
    def passed(self) -> bool:
        if self.info_only:
            return True
        return self.violations == self.required_violations


def _frontier_pool(
    spec: PreferenceSpec, rng: np.random.Generator, size: int
) -> list[Valuation]:
    """Valuations whose entries are genuine aggregation outputs (antichains)."""
    pool = []
    for _ in range(size):
        values = []
        for attr in spec.attributes:
            picks = rng.integers(0, len(attr.domain), size=int(rng.integers(1, 4)))
            values.append(aggregate(attr, [int(p) for p in picks]))
        pool.append(Valuation(tuple(values)))
    return pool


def _serialize_case(spec: PreferenceSpec, pool: Sequence[Valuation], seed: int,
                    detail: dict) -> str:
    payload = {
        "seed": seed,
        "importance_edges": spec.importance.edges(),
        "intra_edges": [a.intra_order.edges() for a in spec.attributes],
        "valuations": [
            [sorted(v.frontier) if v.is_frontier else v.scalar for v in val.per_attribute]
            for val in pool
        ],
        "detail": detail,
    }
    return json.dumps(payload, sort_keys=True)


def _transitivity_violation(matrix: np.ndarray) -> Optional[tuple[int, int, int]]:
    """A triple (u, v, z) with u>v, v>z but not u>z, if one exists.

    The diagonal of (D @ D) & ~D also catches asymmetry breaks (u>v>u).
    """
    steps = matrix.astype(np.float64)
    reach = (steps @ steps) > 0  # float64 counts cannot wrap, unlike uint8
    bad = reach & ~matrix
    if not bad.any():
        return None
    u, z = map(int, np.argwhere(bad)[0])
    v = int(np.nonzero(matrix[u] & matrix[:, z])[0][0])
    return u, v, z


def _negative_transitivity_violation(matrix: np.ndarray) -> Optional[tuple[int, int, int]]:
    """A triple with u>y but neither u>z nor z>y, if one exists."""
    n = matrix.shape[0]
    for u in range(n):
        for y in range(n):
            if not matrix[u, y]:
                continue
            for z in range(n):
                if not matrix[u, z] and not matrix[z, y]:
                    return u, y, z
    return None


def _spec_for(rng: np.random.Generator, intra_kind: str, importance_kind: str,
              m: int, n: int) -> PreferenceSpec:
    config = simulator.SimConfig(
        domain_size=n, attr_count=m, intra_kind=intra_kind,
        importance_kind=importance_kind, density=0.4,
    )
    return simulator.random_spec(config, rng)


def _check_transitivity(trials: int, seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    violations = 0
    first = None
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        spec = _spec_for(rng, "po", "io", m, n)
        pool = _frontier_pool(spec, rng, int(rng.integers(4, 13)))
        matrix = PackedPool(spec, pool).dominance_matrix()
        if bool(matrix.diagonal().any()):
            violations += 1
            if first is None:
                first = _serialize_case(spec, pool, seed, {"kind": "irreflexivity"})
            continue
        triple = _transitivity_violation(matrix)
        if triple is not None:
            violations += 1
            if first is None:
                first = _serialize_case(spec, pool, seed, {"kind": "transitivity", "triple": triple})
    return PropertyReport("transitivity", trials, violations, first)


def _check_weak_order(trials: int, seed: int, importance_kind: str,
                      name: str, info_only: bool) -> PropertyReport:
    rng = np.random.default_rng(seed)
    violations = 0
    first = None
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        spec = _spec_for(rng, "to", importance_kind, m, n)
        pool = _frontier_pool(spec, rng, int(rng.integers(4, 13)))
        matrix = PackedPool(spec, pool).dominance_matrix()
        triple = _transitivity_violation(matrix)
        if triple is None:
            neg = _negative_transitivity_violation(matrix)
            triple = neg
            kind = "negative-transitivity"
        else:
            kind = "transitivity"
        if triple is not None:
            violations += 1
            if first is None:
                first = _serialize_case(spec, pool, seed, {"kind": kind, "triple": triple})
    return PropertyReport(name, trials, violations, first, info_only=info_only)


def _check_extension_never_dominates(trials: int, seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    violations = 0
    first = None
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 7))
        spec = _spec_for(rng, "po", "io", m, n)
        components = [
            Component(i, f"w{i}", valuation)
            for i, valuation in enumerate(simulator.random_valuations(spec, rng, 6))
        ]
        comp = empty_composition(spec)
        for comp_id in rng.integers(0, 6, size=int(rng.integers(1, 5))):
            comp = extend(spec, comp, components[int(comp_id)])
        extra = components[int(rng.integers(0, 6))]
        extended = extend(spec, comp, extra)
        if dominates(spec, extended.valuation, comp.valuation) is not None:
            violations += 1
            if first is None:
                first = _serialize_case(
                    spec, [comp.valuation, extended.valuation], seed, {"kind": "extension"}
                )
    return PropertyReport("extension-never-dominates", trials, violations, first)


def _check_top_attribute(trials: int, seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    violations = 0
    first = None
    checked = 0
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        spec = _spec_for(rng, "po", "io", m, n)
        # Rebuild importance with attribute 0 above everything else and a
        # random interval order among the rest (none is drawn for one).
        edges = [(0, k) for k in range(1, m)]
        if m > 2:
            rest = simulator.random_order(m - 1, "interval", rng)
            edges += [(x + 1, y + 1) for x, y in rest.edges()]
        spec = PreferenceSpec(spec.attributes, build_order(edges, m))
        pool = _frontier_pool(spec, rng, 6)
        top = spec.attributes[0]
        for u in pool:
            for v in pool:
                if not strictly_preferred(top, u[0], v[0]):
                    continue
                checked += 1
                if dominates(spec, u, v) is None or 0 not in witnesses(spec, u, v):
                    violations += 1
                    if first is None:
                        first = _serialize_case(spec, [u, v], seed, {"kind": "top-attribute"})
    return PropertyReport("top-attribute-inclusion", checked, violations, first)


def _check_fixture(name: str) -> PropertyReport:
    spec, u, v, z = intransitivity_fixture()
    chain_ok = (
        dominates(spec, u, v) == 0
        and dominates(spec, v, z) == 1
        and dominates(spec, u, z) is None
    )
    if name == "non-interval-fixture":
        chain_ok = chain_ok and not classify(spec.importance).is_interval
    violations = 1 if chain_ok else 0
    detail = {"kind": "required-intransitivity", "triple": [0, 1, 2], "reproduced": chain_ok}
    first = _serialize_case(spec, [u, v, z], 0, detail) if chain_ok else None
    return PropertyReport(name, 1, violations, first, required_violations=1)


def verify_property(name: str, trials: int = 500, seed: int = 0) -> PropertyReport:
    """Check one named property on randomized instances (or on its fixture).

    Guaranteed properties expect zero violations; the two fixture properties
    require exactly the known counterexample to reproduce; the weak-order
    probe only reports.
    """
    if name == "transitivity":
        return _check_transitivity(trials, seed)
    if name == "weak-order":
        return _check_weak_order(trials, seed, "to", "weak-order", info_only=False)
    if name == "interval-total-weak-order":
        return _check_weak_order(
            trials, seed, "io", "interval-total-weak-order", info_only=True
        )
    if name == "extension-never-dominates":
        return _check_extension_never_dominates(trials, seed)
    if name == "top-attribute-inclusion":
        return _check_top_attribute(trials, seed)
    if name in FIXTURE_PROPERTIES:
        return _check_fixture(name)
    raise ValueError(f"unknown property {name!r}; known: {', '.join(PROPERTY_NAMES)}")
