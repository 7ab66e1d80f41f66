"""Write ``pools.json``: the recorded instance pools of the three workloads.

For every tree instance it stores the instance seed, the attribute count m,
the feasible count F and the true non-dominated count PF (by
``oracle.brute_nondominated``), whether importance has a unique top attribute,
the dominance tests the workload's algorithms make on it (``work``, from
which ``workloads.panel`` picks the instances every run uses), and, for the a4
workload, the order class of oracle dominance over all compositions of the
search tree.  Explicit-solve entries hold the document seed and its ``work``.
The benchmark checks each tree run's F and PF against these values.

Run from the repository root (about 18 minutes on 2 cores):
``PYTHONPATH=src python3 perfbench/record_pools.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

from workloads import (
    EXPLICIT_POOL, HERE, POOLS_PATH, TREE_FILTER, TREE_INTERLEAVE,
    explicit_pool_seed, record_explicit_instance, record_tree_instance,
)


def main() -> None:
    out = {}
    for settings in (TREE_FILTER, TREE_INTERLEAVE):
        instances = [
            record_tree_instance(settings, m, settings.pool_seed(m, k))
            for m in settings.attr_counts
            for k in range(settings.pool_per_m)
        ]
        out[settings.name] = {"settings": dataclasses.asdict(settings), "instances": instances}
    workdir = HERE.parent / ".perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out["explicit-solve"] = {"instances": [
            record_explicit_instance(explicit_pool_seed(k), workdir) for k in range(EXPLICIT_POOL)
        ]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(POOLS_PATH, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
