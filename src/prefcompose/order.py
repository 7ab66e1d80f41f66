"""Finite strict-order machinery shared by the whole package.

A :class:`StrictOrder` stores the transitive closure of its input edges as a
dense boolean matrix.  Element universes here are small (domains and attribute
sets of a preference problem), so the O(n^2) storage buys O(1) dominance
lookups everywhere else.

:func:`maximal_set` (a block-nested-loops filter), :func:`comparator_from`
and :func:`width` serve no production path: the pool filters read a
dominance matrix and :func:`prefcompose.preference.most_important_set` reads
the importance matrix.  They stay as the subject of acceptance criterion 08
(the filter's comparison count is at most 2 * width * n), and the benchmark's
tracer counts calls to :func:`maximal_set`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

FIRST: Literal["first"] = "first"
SECOND: Literal["second"] = "second"
NEITHER: Literal["neither"] = "neither"

Comparison = Literal["first", "second", "neither"]
Comparator = Callable[[T, T], Comparison]

WIDTH_LIMIT = 512


class CycleError(ValueError):
    """The input edges close into x > x: they encode a preference cycle."""


class SizeLimitError(ValueError):
    """The universe exceeds the diagnostic size limit for exact width."""


@dataclass(frozen=True)
class OrderClass:
    """Classification flags of a strict order; total => weak => interval => partial."""

    is_partial: bool
    is_interval: bool
    is_weak: bool
    is_total: bool


class StrictOrder:
    """A transitively closed irreflexive relation over elements 0..n-1.

    ``below[x]`` holds the elements x beats and ``above[x]`` those that beat
    x, so a set-level question (does x beat anything in S?) is one set test.
    """

    __slots__ = ("universe_size", "matrix", "below", "above")

    def __init__(self, universe_size: int, matrix: np.ndarray):
        self.universe_size = universe_size
        self.matrix = matrix
        self.matrix.setflags(write=False)
        self.below = tuple(frozenset(np.flatnonzero(row).tolist()) for row in matrix)
        self.above = tuple(frozenset(np.flatnonzero(col).tolist()) for col in matrix.T)

    def dominates(self, x: int, y: int) -> bool:
        return bool(self.matrix[x, y])

    def edges(self) -> list[tuple[int, int]]:
        xs, ys = np.nonzero(self.matrix)
        return list(zip(xs.tolist(), ys.tolist()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StrictOrder)
            and self.universe_size == other.universe_size
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"StrictOrder(n={self.universe_size}, edges={self.edges()})"


def transitive_closure(mat: np.ndarray) -> np.ndarray:
    """Warshall closure of a boolean adjacency matrix (returns a new array)."""
    out = mat.copy()
    for k in range(out.shape[0]):
        out |= np.outer(out[:, k], out[k, :])
    return out


def ferrers_ok(mat: np.ndarray) -> bool:
    """True when the relation satisfies the interval-order (Ferrers) condition.

    Violation means some x>y, z>w exist with neither x>w nor z>y.  With
    N[x,z] = exists y: x>y and not z>y, that is exactly N[x,z] and N[z,x].
    The product counts in float64, which no universe size can wrap.
    """
    m = mat.astype(np.float64)
    n = (m @ (1 - m).T) > 0
    return not bool(np.any(n & n.T))


def negatively_transitive(mat: np.ndarray) -> bool:
    """True when x>y implies x>z or z>y for every z."""
    notm = (~mat).astype(np.float64)
    gap = (notm @ notm) > 0  # gap[x,y]: exists z with neither x>z nor z>y
    return not bool(np.any(mat & gap))


def build_order(edges: Iterable[tuple[int, int]], universe_size: int) -> StrictOrder:
    """Transitively close ``edges`` over 0..universe_size-1.

    Raises :class:`CycleError` when the closure relates an element to itself
    (the input encodes a cycle) and ``ValueError`` on out-of-range ids.
    """
    mat = np.zeros((universe_size, universe_size), dtype=np.bool_)
    for x, y in edges:
        if not (0 <= x < universe_size and 0 <= y < universe_size):
            raise ValueError(f"edge ({x}, {y}) outside universe of size {universe_size}")
        mat[x, y] = True
    closed = transitive_closure(mat)
    if bool(closed.diagonal().any()):
        cyclic = int(np.nonzero(closed.diagonal())[0][0])
        raise CycleError(f"edges close into a cycle through element {cyclic}")
    return StrictOrder(universe_size, closed)


def classify(order: StrictOrder) -> OrderClass:
    """Compute the partial/interval/weak/total flags of a strict order."""
    mat = order.matrix
    n = order.universe_size
    is_interval = ferrers_ok(mat)
    is_weak = is_interval and negatively_transitive(mat)
    symmetric_cover = mat | mat.T
    is_total = is_weak and bool(symmetric_cover.sum() == n * n - n)
    return OrderClass(is_partial=True, is_interval=is_interval, is_weak=is_weak, is_total=is_total)


def maximal_set(items: Sequence[T], strictly_better: Comparator) -> tuple[list[T], int]:
    """Non-dominated items plus the number of comparator calls.

    Single-pass frontier maintenance: each new item is scanned against the
    current frontier; it is discarded on the first dominator found, otherwise
    it evicts every frontier member it beats and joins.  The frontier is
    always an antichain, so the call count is bounded by 2 * width * len(items).
    ``strictly_better(a, b)`` returns "first" when a beats b, "second" when b
    beats a, "neither" otherwise.  It must be transitive: the early exit and
    the evictions rely on it, so pool dominance under a non-interval importance
    order is filtered through its matrix instead (see ``dominance``).
    """
    frontier: list[T] = []
    comparisons = 0
    for item in items:
        dominated = False
        survivors: list[T] = []
        for member in frontier:
            comparisons += 1
            outcome = strictly_better(member, item)
            if outcome == FIRST:
                dominated = True
                # Nothing was evicted yet: a dominator implies (by
                # transitivity) the new item beats no frontier member.
                break
            if outcome != SECOND:
                survivors.append(member)
        if not dominated:
            frontier = survivors
            frontier.append(item)
    return frontier, comparisons


def comparator_from(order: StrictOrder) -> Comparator[int]:
    """Comparator over element ids backed by the order's closure matrix."""
    mat = order.matrix

    def cmp(a: int, b: int) -> Comparison:
        if mat[a, b]:
            return FIRST
        if mat[b, a]:
            return SECOND
        return NEITHER

    return cmp


def width(order: StrictOrder) -> int:
    """Size of a maximum antichain, exact via the chain-cover duality.

    A minimum chain cover of a transitively closed order has
    n - |maximum matching| chains, where the matching lives in the bipartite
    split graph with an edge (x, y) for every x > y; that cover size equals
    the width.
    """
    n = order.universe_size
    if n > WIDTH_LIMIT:
        raise SizeLimitError(f"universe size {n} exceeds width limit {WIDTH_LIMIT}")
    mat = order.matrix
    successors = [np.nonzero(mat[x])[0].tolist() for x in range(n)]
    match_of_right: list[int] = [-1] * n

    def augment(x: int, seen: list[bool]) -> bool:
        for y in successors[x]:
            if seen[y]:
                continue
            seen[y] = True
            if match_of_right[y] < 0 or augment(match_of_right[y], seen):
                match_of_right[y] = x
                return True
        return False

    matching = 0
    for x in range(n):
        if augment(x, [False] * n):
            matching += 1
    return n - matching
