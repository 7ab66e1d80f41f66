"""Strict-order construction, classification, frontier extraction, width."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefcompose
from prefcompose import (
    CycleError,
    SizeLimitError,
    build_order,
    classify,
    maximal_set,
    width,
)
from prefcompose.order import WIDTH_LIMIT, comparator_from

from conftest import naive_maximal


def _related(order, x, y):
    """True when one of x and y strictly beats the other."""
    return order.dominates(x, y) or order.dominates(y, x)


def test_empty_relation_is_all_indifferent():
    order = build_order([], 3)
    assert order.edges() == []
    assert not order.matrix.any()


def test_single_edge_relation():
    # b > c on {a, b, c}: b and a incomparable, a and c incomparable
    order = build_order([(1, 2)], 3)
    assert order.edges() == [(1, 2)]
    assert not _related(order, 1, 0)
    assert not _related(order, 0, 2)
    assert _related(order, 1, 2)


def test_closure_adds_implied_edge():
    order = build_order([(0, 1), (1, 2)], 3)
    assert order.dominates(0, 2)


def test_two_cycle_rejected():
    with pytest.raises(CycleError):
        build_order([(0, 1), (1, 0)], 2)


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError):
        build_order([(0, 5)], 3)


def test_two_disjoint_chains_not_interval():
    flags = classify(build_order([(0, 2), (1, 3)], 4))
    assert flags.is_partial and not flags.is_interval
    assert not flags.is_weak and not flags.is_total


def test_single_edge_interval_not_weak():
    flags = classify(build_order([(0, 1)], 3))
    assert flags.is_interval and not flags.is_weak


def test_chain_has_all_flags():
    flags = classify(build_order([(0, 1), (1, 2)], 3))
    assert flags.is_partial and flags.is_interval and flags.is_weak and flags.is_total


def test_classification_chain_is_monotone(rng):
    from prefcompose.simulator import random_order

    for kind in ("total", "partial", "interval", "weak"):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            flags = classify(random_order(n, kind, rng, density=0.4))
            assert flags.is_total <= flags.is_weak <= flags.is_interval <= flags.is_partial


def test_maximal_set_empty():
    assert maximal_set([], lambda a, b: "neither") == ([], 0)


def test_maximal_set_chain_unique_top():
    order = build_order([(0, 1), (1, 2)], 3)
    kept, count = maximal_set([0, 1, 2], comparator_from(order))
    assert kept == [0]
    assert count <= 2 * 1 * 3


def _random_poset(rng, n):
    from prefcompose.simulator import random_order

    return random_order(n, "partial", rng, density=float(rng.random() * 0.6))


def test_maximal_and_minimal_match_naive_filter_on_random_posets(rng):
    for _ in range(200):
        n = int(rng.integers(1, 41))
        order = _random_poset(rng, n)
        items = [int(i) for i in rng.permutation(n)]
        cmp = comparator_from(order)
        kept, count = maximal_set(items, cmp)
        assert sorted(kept) == sorted(naive_maximal(items, cmp))
        assert count <= 2 * width(order) * n


def test_width_of_empty_relation_is_universe():
    assert width(build_order([], 5)) == 5


def test_width_of_chain_is_one():
    assert width(build_order([(0, 1), (1, 2), (2, 3), (3, 4)], 5)) == 1


def test_width_of_two_disjoint_chains():
    # largest antichain of {0>2, 1>3} has two elements (checked by hand
    # against all 2^4 subsets)
    assert width(build_order([(0, 2), (1, 3)], 4)) == 2


def test_width_size_limit():
    with pytest.raises(SizeLimitError):
        width(build_order([], 600))
    assert width(build_order([], WIDTH_LIMIT)) == WIDTH_LIMIT


def test_width_matches_antichain_enumeration(rng):
    from itertools import combinations

    for _ in range(30):
        n = int(rng.integers(2, 9))
        order = _random_poset(rng, n)
        best = max(
            size
            for size in range(1, n + 1)
            for combo in combinations(range(n), size)
            if not any(_related(order, x, y) for x in combo for y in combo)
        )
        assert width(order) == best


def test_indifference_reflexive():
    order = build_order([(1, 2)], 3)
    assert not any(_related(order, x, x) for x in range(3))


def test_indifference_not_transitive_for_single_edge():
    # b ~ a and a ~ c, yet b > c
    order = build_order([(1, 2)], 3)
    assert not _related(order, 1, 0) and not _related(order, 0, 2)
    assert order.dominates(1, 2)


def test_total_order_leaves_no_indifferent_pairs():
    order = build_order([(0, 1), (1, 2)], 3)
    assert all(_related(order, x, y) for x in range(3) for y in range(3) if x != y)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
)
def test_closure_invariants_hold_for_arbitrary_acyclic_input(n, pairs):
    edges = [(a % n, b % n) for a, b in pairs if a % n != b % n]
    try:
        order = build_order(edges, n)
    except CycleError:
        return
    mat = order.matrix
    assert not mat.diagonal().any()
    closure_again = mat | (mat.astype(np.uint8) @ mat.astype(np.uint8) > 0)
    assert np.array_equal(closure_again, mat)  # already transitively closed
    assert not np.any(mat & mat.T)  # asymmetric
    for x in range(n):
        for y in range(n):
            assert _related(order, x, y) == _related(order, y, x)


def test_only_order_and_the_package_root_name_the_filter_helpers():
    """No production path runs the block-nested-loops filter: it and its
    helpers stay for acceptance criterion 08, so no module other than
    ``order.py`` and the package root names them, not even inside a
    function."""
    package = pathlib.Path(prefcompose.__file__).parent
    helpers = {"maximal_set", "comparator_from", "width"}
    checked = 0
    for path in sorted(package.rglob("*.py")):
        if path in (package / "order.py", package / "__init__.py"):
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.name.split(".")[-1], node.asname))
        assert not named & helpers, path.name
        checked += 1
    assert checked >= 9


def test_every_exported_name_resolves():
    assert len(set(prefcompose.__all__)) == len(prefcompose.__all__)
    for name in prefcompose.__all__:
        assert hasattr(prefcompose, name), name
