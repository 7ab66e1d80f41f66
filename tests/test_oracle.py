"""Brute-force references and the property-verification harness."""

from __future__ import annotations

import json

import numpy as np
import pytest

from prefcompose import ExplicitProvider, compose_and_filter, interleave_compose, nondominated
from prefcompose.aggregation import at_least_as_preferred, strictly_preferred
from prefcompose.cli import load_instance
from prefcompose.oracle import (
    PROPERTY_NAMES,
    brute_nondominated,
    check_completeness,
    check_soundness,
    check_weak_completeness,
    _transitivity_violation,
    plain_dominates,
    verify_property,
)
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
    """Keys of the entries no other entry dominates, by the definition read
    pair by pair over the public comparisons."""
    attrs = spec.attributes
    imp = spec.importance.matrix
    m = len(attrs)

    def dominates(u, v):
        return any(
            strictly_preferred(attrs[i], u[i], v[i])
            and all(imp[i, k] or at_least_as_preferred(attrs[k], u[k], v[k]) for k in range(m))
            for i in range(m)
        )

    return {
        key for key, v in pool if not any(dominates(u, v) for other, u in pool if other != key)
    }


def test_brute_filter_matches_the_pairwise_definition(rng):
    for trial in range(200):
        spec, pool = mixed_spec_and_pool(rng, ("io", "po", "to", "wo")[trial % 4])
        keyed = list(enumerate(with_near_ties(spec, pool)))
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
    from prefcompose.oracle import intransitivity_fixture

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
