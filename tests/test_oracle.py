"""Brute-force references and the property-verification harness."""

from __future__ import annotations

import ast
import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from prefcompose import (
    AggKind,
    ExplicitProvider,
    PreferenceSpec,
    build_order,
    classify,
    compose_and_filter,
    interleave_compose,
    nondominated,
)
from prefcompose import aggregation, oracle
from prefcompose.aggregation import (
    DomainError,
    Valuation,
    aggregate,
    at_least_as_preferred,
    comparison_tables,
    strictly_preferred,
)
from prefcompose.cli import load_instance
from prefcompose.composition import empty_composition
from prefcompose.oracle import (
    brute_nondominated,
    check_completeness,
    check_soundness,
    check_weak_completeness,
    intransitivity_fixture,
    plain_dominates,
)
from prefcompose.properties import PROPERTY_NAMES, _transitivity_violation, verify_property
from prefcompose.simulator import SimConfig, generate_tree, random_spec, tree_provider

from conftest import mixed_spec_and_pool, with_near_ties


def test_brute_filter_on_bundled_tree():
    instance = load_instance("interleave_unsound")
    provider = ExplicitProvider(
        instance.spec, instance.components, instance.feasible_sequences
    )
    feasible = provider.all_feasible()
    kept = brute_nondominated(
        instance.spec, [(tuple(c.members), c.valuation) for c in feasible]
    )
    assert kept == {(1,), (2, 3)}


def test_brute_filter_of_empty_pool():
    instance = load_instance("interleave_unsound")
    assert brute_nondominated(instance.spec, []) == set()


def test_brute_filter_matches_fast_path_on_random_instances(rng):
    for i in range(500):
        config = SimConfig(
            feas=(0.25, 0.5, 0.75, 1.0)[i % 4],
            domain_size=int(rng.integers(2, 7)),
            attr_count=int(rng.integers(2, 6)),
            repo_size=int(rng.integers(4, 35)),
            intra_kind=("po", "to")[i % 2],
            importance_kind=("io", "po", "to")[(i // 2) % 3],
        )
        spec = random_spec(config, rng)
        tree = generate_tree(spec, config, rng)
        pool = [
            (c.provider_node, c.valuation) for c in tree_provider(tree).all_feasible()
        ]
        assert brute_nondominated(spec, pool) == nondominated(spec, pool)


def _naive_nondominated(spec, pool):
    """Keys of the entries no other entry dominates, by ``plain_dominates``
    read pair by pair."""
    return {
        key for key, v in pool
        if not any(plain_dominates(spec, u, v) for other, u in pool if other != key)
    }


def test_brute_filter_matches_the_pairwise_definition(rng):
    """Value orders po/to/io/wo x importance io/po/to/wo and "2+2" ({0>2, 1>3},
    not an interval order); sums of both polarities 1 and 2 ulps apart,
    duplicate valuations, the empty-frontier bottom valuation, and pools of
    every size from 0."""
    for intra_kind in ("po", "to", "io", "wo"):
        for importance_kind in ("io", "po", "to", "wo", "2+2"):
            interval = set()
            for _ in range(12):
                spec, pool = mixed_spec_and_pool(
                    rng, importance_kind.replace("2+2", "po"), intra_kind=intra_kind
                )
                if importance_kind == "2+2" and spec.attr_count >= 4:
                    spec = PreferenceSpec(spec.attributes, build_order([(0, 2), (1, 3)], spec.attr_count))
                interval.add(classify(spec.importance).is_interval)
                pool = with_near_ties(spec, pool) + [empty_composition(spec).valuation]
                for size in (0, 1, 2, len(pool)):
                    keyed = list(enumerate(pool[len(pool) - size:]))
                    assert brute_nondominated(spec, keyed) == _naive_nondominated(spec, keyed)
            if importance_kind == "2+2":
                assert False in interval


_FRONTIER_KINDS = (AggKind.WORST_FRONTIER, AggKind.BEST_FRONTIER, AggKind.MIN, AggKind.MAX)


def _frontier_kinds_spec_and_pool(rng, intra_kind, offset):
    """A ``mixed_spec_and_pool`` spec whose frontier attributes take the four
    frontier kinds in turn from ``offset``, and a pool drawn through
    ``aggregate`` that holds the empty-frontier bottom valuation.  A min/max
    draw with no unique extreme keeps its first value."""
    spec, _ = mixed_spec_and_pool(rng, "po", intra_kind=intra_kind)
    attrs = tuple(
        attr if attr.agg_kind is AggKind.SUM
        else replace(attr, agg_kind=_FRONTIER_KINDS[(offset + i) % 4])
        for i, attr in enumerate(spec.attributes)
    )
    spec = PreferenceSpec(attrs, spec.importance)
    pool = [empty_composition(spec).valuation]
    for _ in range(int(rng.integers(4, 16))):
        values = []
        for attr in attrs:
            picks = rng.integers(0, len(attr.domain), size=int(rng.integers(1, 4))).tolist()
            try:
                values.append(aggregate(attr, picks))
            except DomainError:
                values.append(aggregate(attr, picks[:1]))
        pool.append(Valuation(tuple(values)))
    return spec, pool


def test_frontier_at_least_as_table_is_strict_plus_diagonal(rng):
    """Over the distinct values of a frontier attribute, at_least_as_preferred
    is strictly_preferred or the same value."""
    seen = set()
    for intra_kind in ("po", "to", "io", "wo"):
        for trial in range(24):
            spec, pool = _frontier_kinds_spec_and_pool(rng, intra_kind, trial)
            for i, attr in enumerate(spec.attributes):
                if attr.agg_kind is AggKind.SUM:
                    continue
                seen.add(attr.agg_kind)
                values = list(dict.fromkeys(v[i] for v in pool))
                strict = np.array([[strictly_preferred(attr, a, b) for b in values] for a in values])
                geq = np.array([[at_least_as_preferred(attr, a, b) for b in values] for a in values])
                assert (geq == (strict | np.eye(len(values), dtype=np.bool_))).all()
    assert seen == set(_FRONTIER_KINDS)


def test_brute_filter_compares_each_value_pair_once(rng, monkeypatch):
    """The oracle makes one comparison_tables call per attribute, over exactly
    that attribute's distinct values, and no pairwise strictly_preferred or
    at_least_as_preferred call.  Its answer is the pairwise definition's
    under every frontier kind."""
    cases = []
    for intra_kind in ("po", "to", "io", "wo"):
        for trial in range(12):
            spec, pool = _frontier_kinds_spec_and_pool(rng, intra_kind, trial)
            keyed = list(enumerate(with_near_ties(spec, pool)))
            cases.append((spec, keyed, _naive_nondominated(spec, keyed)))

    calls = []

    def counted(attr, values):
        calls.append((attr.attr_id, list(values)))
        return comparison_tables(attr, values)

    def pairwise(attr, a, b):
        raise AssertionError("pairwise comparison in brute_nondominated")

    monkeypatch.setattr(oracle, "comparison_tables", counted)
    for module in (oracle, aggregation):
        monkeypatch.setattr(module, "strictly_preferred", pairwise)
        monkeypatch.setattr(module, "at_least_as_preferred", pairwise)
    for spec, keyed, expected in cases:
        calls.clear()
        assert brute_nondominated(spec, keyed) == expected
        assert [i for i, _ in calls] == list(range(spec.attr_count))
        for i, values in calls:
            assert len(values) == len(set(values))
            assert set(values) == {v[i] for _, v in keyed}


def test_oracle_imports_neither_dominance_nor_simulator():
    """The oracle is the ground truth the pool dominance matrix and the
    simulator's runs are checked against, so it imports neither module, not
    even inside a function."""
    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert "aggregation" in imported
    assert not imported & {"dominance", "simulator"}


def test_brute_filter_is_independent_of_the_block_size(rng, monkeypatch):
    """Blocks of one row and blocks that split the pool unevenly keep what a
    single block keeps."""
    for trial in range(40):
        spec, pool = mixed_spec_and_pool(rng, ("io", "po", "to", "wo")[trial % 4])
        keyed = list(enumerate(with_near_ties(spec, pool)))
        whole = brute_nondominated(spec, keyed)
        for block_pairs in (1, 3 * len(keyed) - 1):
            monkeypatch.setattr(oracle, "_BLOCK_PAIRS", block_pairs)
            assert brute_nondominated(spec, keyed) == whole
        monkeypatch.undo()


def test_brute_filter_equals_all_pairs_on_the_intransitivity_fixture(rng):
    spec, u, v, z = intransitivity_fixture()
    keyed = [("u", u), ("v", v), ("z", z)]
    assert brute_nondominated(spec, keyed) == _naive_nondominated(spec, keyed) == {"u"}
    for _ in range(60):
        pool = [u, v, z, empty_composition(spec).valuation] + [
            Valuation(tuple(
                aggregate(attr, rng.integers(0, 2, size=int(rng.integers(1, 3))).tolist())
                for attr in spec.attributes
            ))
            for _ in range(int(rng.integers(0, 8)))
        ]
        keyed = list(enumerate(pool[int(rng.integers(0, 3)):]))
        assert brute_nondominated(spec, keyed) == _naive_nondominated(spec, keyed)


def test_transitivity_check_counts_past_255():
    # u=0 beats v=1..256, each v beats z=257, u does not beat z: 256
    # two-step paths, which an 8-bit product wraps to zero.
    matrix = np.zeros((258, 258), dtype=np.bool_)
    matrix[0, 1:257] = True
    matrix[1:257, 257] = True
    assert _transitivity_violation(matrix) == (0, 1, 257)


def test_algorithm_checks_on_bundled_instances():
    instance = load_instance("interleave_unsound")

    def provider():
        return ExplicitProvider(
            instance.spec, instance.components, instance.feasible_sequences
        )

    truth = brute_nondominated(
        instance.spec,
        [(c.key(), c.valuation) for c in provider().all_feasible()],
    )
    exhaustive = compose_and_filter(instance.spec, provider())
    assert check_soundness(exhaustive, truth)
    assert check_weak_completeness(exhaustive, truth)
    assert check_completeness(exhaustive, truth)
    interleaved = interleave_compose(instance.spec, provider())
    assert not check_soundness(interleaved, truth)
    assert check_weak_completeness(interleaved, truth)


def test_plain_dominance_matches_fixture_chain():
    spec, u, v, z = intransitivity_fixture()
    assert plain_dominates(spec, u, v)
    assert plain_dominates(spec, v, z)
    assert not plain_dominates(spec, u, z)
    assert not plain_dominates(spec, u, u)


def test_transitivity_property_has_no_violations():
    report = verify_property("transitivity", trials=60, seed=5)
    assert report.passed and report.violations == 0


def test_weak_order_property_has_no_violations():
    report = verify_property("weak-order", trials=60, seed=5)
    assert report.passed and report.violations == 0


def test_extension_property_has_no_violations():
    report = verify_property("extension-never-dominates", trials=120, seed=5)
    assert report.passed and report.violations == 0


def test_top_attribute_property_has_no_violations():
    report = verify_property("top-attribute-inclusion", trials=60, seed=5)
    assert report.passed and report.violations == 0


def test_fixture_properties_require_their_counterexample():
    for name in ("non-interval-fixture", "intransitivity-fixture"):
        report = verify_property(name)
        assert report.required_violations == 1
        assert report.violations == 1
        assert report.passed
        payload = json.loads(report.first_violation)
        assert payload["detail"]["reproduced"] is True


def test_conjecture_probe_reports_without_failing():
    report = verify_property("interval-total-weak-order", trials=40, seed=5)
    assert report.info_only
    assert report.passed  # informational regardless of violations
    if report.violations:
        payload = json.loads(report.first_violation)
        assert "seed" in payload and "valuations" in payload


def test_every_listed_property_runs():
    for name in PROPERTY_NAMES:
        report = verify_property(name, trials=5, seed=1)
        assert report.instances_checked >= 1


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        verify_property("flying-spaghetti")
