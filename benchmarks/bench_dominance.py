"""Time the pool dominance matrix and check it against the oracle.

Builds random pools of 8-attribute valuations, times
``PackedPool(spec, pool).dominance_matrix()`` over all of them (encoding
included; median of ``REPEATS`` passes), checks every matrix against the
all-pairs reading of ``oracle.plain_dominates`` and prints the timing.  With
``--out``, it also writes the timing, the command and the machine facts to
that file (the committed record is ``BENCH_dominance.json``); without it, the
run only checks and prints, and writes nothing.

Each pass is timed twice: cold, each pool under a fresh copy of its spec, so
every frontier is packed anew; then warm, the same pools again under the
same specs, whose class rows the cold pass packed.

The recorded "before" figure is the pairwise witness scan that the matrix
replaced, timed with the same pools (commit 820bed8,
``python benchmarks/bench_dominance.py --pools 50``, 2 cores, NumPy 2.4,
numba not installed): 80,000 ordered-pair scans, median of six passes.

Usage: python benchmarks/bench_dominance.py [--out BENCH_dominance.json]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from prefcompose.aggregation import Valuation, aggregate
from prefcompose.dominance import PackedPool
from prefcompose.oracle import plain_dominates
from prefcompose.simulator import SimConfig, random_spec

POOLS = 50
POOL_SIZE = 40
SEED = 11
REPEATS = 5

BEFORE = {
    "what": "pairwise witness scan (PackedPool.witness per ordered pair)",
    "commit": "820bed8",
    "pools": POOLS,
    "pool_size": POOL_SIZE,
    "seed": SEED,
    "pairs": 80_000,
    "seconds": 2.007,
}


def build_pools(count, pool_size, seed):
    rng = np.random.default_rng(seed)
    pools = []
    for _ in range(count):
        config = SimConfig(domain_size=8, attr_count=8, intra_kind="po", importance_kind="io")
        spec = random_spec(config, rng)
        vals = [
            Valuation(tuple(
                aggregate(attr, [int(v) for v in rng.integers(0, 8, size=3)])
                for attr in spec.attributes
            ))
            for _ in range(pool_size)
        ]
        pools.append((spec, vals))
    return pools


def time_matrices(pools):
    started = time.perf_counter()
    matrices = [PackedPool(spec, vals).dominance_matrix() for spec, vals in pools]
    return time.perf_counter() - started, matrices


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="write the report to this file (BENCH_dominance.json is the committed one)")
    args = parser.parse_args()

    pools = build_pools(POOLS, POOL_SIZE, SEED)
    time_matrices([(replace(spec), vals) for spec, vals in pools[:1]])  # warm-up
    expected = [[[plain_dominates(spec, u, v) for v in vals] for u in vals] for spec, vals in pools]
    times: dict[str, list[float]] = {"cold": [], "warm": []}
    for _ in range(REPEATS):
        fresh = [(replace(spec), vals) for spec, vals in pools]
        for state in ("cold", "warm"):
            elapsed, matrices = time_matrices(fresh)
            times[state].append(elapsed)
            if [matrix.tolist() for matrix in matrices] != expected:
                raise SystemExit(f"{state} dominance matrix disagrees with oracle.plain_dominates")

    def timing(state, what):
        return {
            "what": what,
            "pools": POOLS,
            "pool_size": POOL_SIZE,
            "seed": SEED,
            "pairs": POOLS * POOL_SIZE**2,
            "seconds": statistics.median(times[state]),
            "seconds_all": times[state],
            "checked_against": "oracle.plain_dominates, every pair",
        }

    after = timing("cold", "PackedPool(spec, pool).dominance_matrix() per pool, under a fresh copy of its spec")
    warm = timing("warm", "the same pools again under the same specs, reusing their packed frontier classes")
    report = {
        "command": "python " + " ".join(sys.argv),
        "machine": machine_facts(),
        "before": BEFORE,
        "after": after,
        "warm": warm,
        "speedup": BEFORE["seconds"] / after["seconds"],
    }
    print(f"dominance matrix: {after['pairs']} pairs in {after['seconds']:.3f} s cold, "
          f"{warm['seconds']:.3f} s warm (medians of {REPEATS}); "
          f"before: {BEFORE['pairs']} pairs in {BEFORE['seconds']:.3f} s")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
