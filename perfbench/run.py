"""Benchmark of prefcompose: three workloads, end-to-end metrics, a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload tree-filter --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and the ``why`` fields of BENCHMARK.json):
``tree-filter``, ``tree-interleave`` and ``explicit-solve``.  Each workload
is a fixed cycle of ops (its slots) over a panel of recorded instances that
is the same for every seed; the seed sets the order.  Load is a closed loop
with one client in this one process: each op starts when the previous one
returns.  The loop runs whole cycles, stopping at the cycle end nearest
to ``--seconds``.  Every
answer is checked against ``oracle.brute_nondominated`` after the timed loop.
Set-up (input generation plus untimed warm-up ops on the panel's cheapest
instance) runs five times; ``setup_s`` is the import time plus the median
set-up.

``--trace 0`` prints the end-to-end metrics.  Op timings are given in units
of a fixed pure-Python reference loop (``reference_s``) timed between the
ops: ``op_p50_ref`` and ``op_tail_ref`` are the median and the 85th
percentile of each op's wall time over the reference time around it, and ``ops_per_kref`` is ops completed per thousand
reference times of op wall time.  The wall-time figures (op/s, ms) and the
reference time are printed too.  ``--trace 1`` first runs half the time
untraced, then repeats the same ops with every layer boundary wrapped
(``tracer.py``) and prints per-layer means per op plus the tracing overhead;
its spans for the first ops go to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
the slots whose answers were checked, which is every slot of the cycle;
``failed`` counts the slots where an op raised, exited nonzero or broke its
algorithm's guarantee, so both repeat exactly from run to run;
``correct`` is false when any such failure is not the known
block-nested-loops defect described in ``workloads.explicit_guarantee``.
The program is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2 when that source is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
TAIL_PCT = 85
REFERENCE_ROUNDS = 20_000
REF_WINDOW = 12
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYER_TIMES = ("dominance", "order", "algorithms", "composition", "aggregation",
               "oracle", "simulator", "cli", "preference")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tree-filter", "tree-interleave", "explicit-solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_s():
    """Wall time of a fixed piece of pure-Python work, a few milliseconds long."""
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_ROUNDS):
        key = i & 63
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - start


def run_ops(workload, seconds, count=None, tracer=None):
    """Closed loop: (durations, refs, results, errors) for ops 0, 1, ...

    Without ``count`` the loop runs whole cycles of the workload's slots, so
    that every run times each slot equally often, and stops at the end of the
    cycle nearest to ``seconds``.
    ``refs`` holds a ``reference_s`` time taken before each op and one taken
    after the last.
    """
    durations, refs, results, errors = [], [reference_s()], [], []
    begin = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % workload.slots == 0 and i > 0:
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / (2 * (i // workload.slots)) >= seconds:
                break
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            result, error = workload.op(i), None
        except Exception:  # an op that raises is a failed op, not a crashed run
            result, error = None, traceback.format_exc()
        durations.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        refs.append(reference_s())
        results.append(result)
        errors.append(error)
        i += 1
    return durations, refs, results, errors


def relative_costs(durations, refs):
    """Each op's wall time in units of the reference time around it.

    On a shared host the CPU speed can wander by tens of percent within a
    minute; the program and ``reference_s`` slow down together, so this ratio
    repeats from run to run where wall times do not.  The reference time of op ``i``
    is the median of the ``REF_WINDOW`` reference samples nearest to it.
    """
    half = REF_WINDOW // 2
    return [d / statistics.median(refs[max(0, i + 1 - half):i + 1 + half])
            for i, d in enumerate(durations)]


def gate(workload, runs):
    """Failure lists by slot, from checks made outside the timed region.

    ``runs`` holds (results, errors) pairs of closed loops that started at
    op 0.  A slot fails when any of its ops failed; each failure is listed
    once.
    """
    by_slot = {}
    for results, errors in runs:
        for i, (result, error) in enumerate(zip(results, errors)):
            if error is not None:
                found = [("unexpected", error.strip().splitlines()[-1])]
            else:
                found = workload.check(i, result)
            failures = by_slot.setdefault(i % workload.slots, [])
            failures.extend(f for f in found if f not in failures)
    return list(by_slot.values())


def tail(values):
    """(value, samples beyond it) at percentile ``TAIL_PCT``.

    Whole cycles give every slot the same weight whatever their number, so a
    fixed percentile reads the same share of the panel in every run.  At the
    run length BENCHMARK.json sets, at least ten samples lie beyond it.
    """
    if len(values) < 2:
        return max(values), 0
    value = statistics.quantiles(values, n=100)[TAIL_PCT - 1]
    return value, sum(1 for v in values if v > value)


def machine_facts(workload_name, seed, instance_seeds):
    import numpy

    try:
        from prefcompose import kernels
        using_numba = bool(getattr(kernels, "USING_NUMBA", False))
    except ImportError:
        using_numba = "absent"
    return {
        "workload": workload_name,
        "seed": seed,
        "instance_seeds": instance_seeds,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_using_numba": using_numba,
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "machine": platform.machine(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prefcompose" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import prefcompose
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - started
    if Path(prefcompose.__file__).resolve().parent != (SRC / "prefcompose").resolve():
        print(f"error: prefcompose imported from {prefcompose.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        return measure(args, workload, workloads, tracing, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workloads, tracing, import_s) -> int:
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.prepare()
        for i in workload.warm_up_ops():
            workload.op(i)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)
    gc.collect()

    if args.trace:
        durations, refs, results, errors = run_ops(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_refs, traced_results, traced_errors = run_ops(
                workload, 0, count=len(durations), tracer=tracer)
        finally:
            tracer.uninstall()
        failures = gate(workload, [(results, errors), (traced_results, traced_errors)])
    else:
        durations, refs, results, errors = run_ops(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = gate(workload, [(results, errors)])

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    unexpected = [msg for f in failures for kind, msg in f if kind != "known"]
    known = [msg for f in failures for kind, msg in f if kind == "known"]
    n = len(durations)
    cycle = results[:workload.slots]
    calls = [workload.calls(i, r) if r is not None else 0 for i, r in enumerate(cycle)]

    costs = relative_costs(durations, refs)
    print(f"workload {args.workload} seed {args.seed}: {n} timed ops in {sum(durations):.2f} s "
          f"(closed loop, 1 client, 1 process)")
    print(f"wall time: {n / sum(durations):.4g} op/s, median {1000.0 * statistics.median(durations):.4g} ms, "
          f"tail {1000.0 * tail(durations)[0]:.4g} ms; reference loop median "
          f"{1000.0 * statistics.median(refs):.4g} ms")
    if args.trace:
        overhead = sum(relative_costs(traced, traced_refs)) / sum(costs) - 1.0
        metrics = per_layer(tracer, n, overhead)
        absent = tracer.absent()
        print(f"traced: {n} ops in {sum(traced):.2f} s; absent boundaries: {absent or 'none'}")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(str(spans_path))
        print(f"spans of the first {tracer.keep_span_ops} traced ops: {spans_path.relative_to(ROOT)}")
    else:
        tail_cost, beyond = tail(costs)
        metrics = {
            "ops_per_kref": metric(1000.0 * n / sum(costs), "op/kref"),
            "op_p50_ref": metric(statistics.median(costs), "ref"),
            "op_tail_ref": metric(tail_cost, "ref"),
            "provider_calls_per_op": metric(statistics.mean(calls), "calls"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
            "setup_s": metric(setup_s, "s"),
        }
        print(f"op_tail_ref is p{TAIL_PCT} of {n} samples ({beyond} beyond it)")
        print(f"provider_calls_per_op is the mean over the first cycle of {len(calls)} ops")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>14.6g} ratio ({failed} failed of {attempted})")
    print(f"gate: the answers of {attempted} distinct ops checked against "
          f"oracle.brute_nondominated; {len(known)} known-defect failures, "
          f"{len(unexpected)} unexpected")
    for msg in (unexpected + known)[:5]:
        print(f"  {msg}")
    print("facts " + json.dumps(machine_facts(args.workload, args.seed, workload.seeds(n))))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer(tracer, n, overhead):
    counts = tracer.counts
    per_op = {}
    for layer in LAYER_TIMES:
        per_op[f"{layer}.self_ms"] = metric(1000.0 * tracer.self_s.get(layer, 0.0) / n, "ms")
    tests = counts["dominance.tests"]
    items = counts["order.filter_items"]
    per_op.update({
        "dominance.tests": metric(tests / n, "count"),
        "dominance.hit_ratio": metric(counts["dominance.hits"] / tests if tests else 0.0, "ratio"),
        "order.comparisons": metric(counts["order.comparisons"] / n, "count"),
        "order.filter_items": metric(items / n, "count"),
        "order.filter_kept_ratio": metric(counts["order.filter_kept"] / items if items else 0.0, "ratio"),
        "algorithms.a4_rounds": metric(counts["algorithms.a4_rounds"] / n, "count"),
        "algorithms.a4_refiltered": metric(counts["algorithms.a4_refiltered"] / n, "count"),
        "composition.extensions": metric(counts["composition.extensions"] / n, "count"),
        "aggregation.merges": metric(counts["aggregation.merges"] / n, "count"),
        "oracle.pairs": metric(counts["oracle.pairs"] / n, "count"),
        "trace.overhead_pct": metric(100.0 * overhead, "%"),
    })
    return per_op


if __name__ == "__main__":
    sys.exit(main())
