"""The numeric kernels against direct readings of their definitions.

The order predicates of :mod:`prefcompose.order` (closure, Ferrers,
negative transitivity) are checked against naive loops, a stack's closure
against its matrices' closures one at a time, and the pool
dominance matrix against ``oracle.plain_dominates``.
"""

from __future__ import annotations

import itertools

import numpy as np

from prefcompose.dominance import PackedPool
from prefcompose.order import ferrers_ok, negative_transitivity_violation, transitive_closure
from prefcompose.oracle import plain_dominates
from prefcompose.simulator import random_order

from conftest import mixed_spec_and_pool


def _random_closed_matrix(rng, n):
    order = random_order(n, ("partial", "total", "interval", "weak")[int(rng.integers(0, 4))], rng, density=0.4)
    return order.matrix


def _naive_closure(mat):
    n = mat.shape[0]
    out = mat.copy()
    for x in range(n):
        seen, stack = set(), [x]
        while stack:
            for y in np.flatnonzero(mat[stack.pop()]).tolist():
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        out[x, list(seen)] = True
    return out


def _naive_ferrers(mat):
    n = mat.shape[0]
    mat = mat.tolist()
    return not any(
        mat[x][y] and mat[z][w] and not mat[x][w] and not mat[z][y]
        for x, y, z, w in itertools.product(range(n), repeat=4)
    )


def _naive_negative_transitivity_violation(mat):
    n = mat.shape[0]
    mat = mat.tolist()
    return next(
        (
            (x, y, z)
            for x, y, z in itertools.product(range(n), repeat=3)
            if mat[x][y] and not mat[x][z] and not mat[z][y]
        ),
        None,
    )


def test_closure_paths_agree(rng):
    for _ in range(100):
        n = int(rng.integers(1, 12))
        mat = rng.random((n, n)) < 0.2
        np.fill_diagonal(mat, False)
        assert np.array_equal(transitive_closure(mat), _naive_closure(mat))


def test_closure_of_a_stack_closes_each_matrix(rng):
    """A stack of matrices closes as its matrices do one at a time, with no
    matrices, with empty ones and with single elements too."""
    sizes = [(0, 4), (0, 0), (3, 0), (3, 1)] + [(int(rng.integers(1, 6)), int(rng.integers(1, 10))) for _ in range(60)]
    for m, n in sizes:
        stack = rng.random((m, n, n)) < 0.2
        closed = transitive_closure(stack)
        assert closed.shape == (m, n, n) and closed.dtype == np.bool_
        assert not np.shares_memory(closed, stack)
        for matrix, want in zip(stack, closed):
            assert np.array_equal(want, transitive_closure(matrix))


def test_interval_predicate_paths_agree(rng):
    for _ in range(200):
        mat = _random_closed_matrix(rng, int(rng.integers(1, 10)))
        assert ferrers_ok(mat) == _naive_ferrers(mat)


def test_negative_transitivity_paths_agree(rng):
    for _ in range(200):
        mat = _random_closed_matrix(rng, int(rng.integers(1, 10)))
        assert negative_transitivity_violation(mat) == _naive_negative_transitivity_violation(mat)


def test_known_interval_and_weak_cases():
    two_chains = np.zeros((4, 4), dtype=np.bool_)
    two_chains[0, 2] = two_chains[1, 3] = True
    assert not ferrers_ok(two_chains)
    single = np.zeros((3, 3), dtype=np.bool_)
    single[0, 1] = True
    assert ferrers_ok(single)
    assert negative_transitivity_violation(single) == (0, 1, 2)


def test_predicates_count_past_255():
    # Counts of exactly 256 witnesses, which an 8-bit product wraps to zero.
    two_chains = np.zeros((259, 259), dtype=np.bool_)
    two_chains[0, 2:258] = True
    two_chains[1, 258] = True
    assert not ferrers_ok(two_chains)
    single = np.zeros((258, 258), dtype=np.bool_)
    single[0, 1] = True
    assert negative_transitivity_violation(single) == (0, 1, 2)


def test_witness_paths_agree_on_random_pools(rng):
    for trial in range(240):
        spec, pool = mixed_spec_and_pool(rng, ("io", "po", "to", "wo")[trial % 4])
        matrix = PackedPool(spec, pool).dominance_matrix()
        assert matrix.tolist() == [[plain_dominates(spec, u, v) for v in pool] for u in pool]
