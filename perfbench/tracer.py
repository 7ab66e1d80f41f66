"""Layer spans and counters, recorded from outside the program.

The tracer wraps callables of the ``prefcompose`` modules at every place the
program looks them up: module globals (including names bound by
``from .x import f``), module-level dicts of callables (such as the simulator's
algorithm table), the package namespace, and the methods of provider and pool
classes.  Each wrapper opens a span named after the callable; the span's layer
is the module that defines it, except that every method of a
``FeasibilityProvider`` subclass belongs to the ``composition`` layer (the
provider seam).  ``kernels`` is not a layer: its time counts toward the layer
that called it (``dominance`` or ``order``).

Self time of a span is its duration minus the time its child spans cover, and
is accumulated per layer for every op.  Full span records (op id, span id,
parent id, name, start, end) are kept in memory for the first few ops only and
written out when the run ends, because a single op opens tens of thousands of
spans.

Counters are taken at the same boundaries.  A counted boundary that no longer
exists in the program (for example after a refactor deletes ``PackedPool``) is
reported as absent and its counters read zero; installation never fails on a
missing symbol.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional

LAYERS = (
    "aggregation",
    "algorithms",
    "cli",
    "composition",
    "dominance",
    "oracle",
    "order",
    "preference",
    "simulator",
)

# Private callables that mark a layer boundary worth a span of their own.
PRIVATE_BOUNDARIES = {("algorithms", "_filter_dominance")}

# Boundaries the counters depend on; each is reported present or absent.
COUNTED_BOUNDARIES = (
    "dominance.PackedPool.witness",
    "dominance.dominates",
    "dominance.witnesses",
    "order.maximal_set",
    "algorithms._filter_dominance",
    "algorithms.interleave_compose",
    "composition.FeasibilityProvider.extensions",
    "aggregation.merge",
    "oracle.plain_dominates",
)

# Dominance tests: each call is one ordered-pair test, except matrix calls,
# which test every pair of their pool.  Tests nested inside another counted
# test (a matrix built from pairwise calls) are not counted twice.
_PAIR_TESTS = {"dominance.PackedPool.witness", "dominance.dominates", "dominance.witnesses"}
_MATRIX_SUFFIX = "dominance_matrix"
# Modules whose calls into order's maximal/minimal set are non-dominated filters.
_FILTER_SITES = {"algorithms", "dominance"}


def _is_hit(result: Any) -> bool:
    if result is None or result is False:
        return False
    if isinstance(result, (list, tuple, set)):
        return bool(result)
    try:
        return int(result) >= 0
    except (TypeError, ValueError):
        return bool(result)


class Tracer:
    """Span stack, per-layer self time and counters for one traced phase."""

    def __init__(self, keep_span_ops: int = 2):
        self.keep_span_ops = keep_span_ops
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.ops = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._op_id = -1
        self._restore: list[tuple[Any, str, Any, bool]] = []
        self.present: dict[str, bool] = {}
        self._test_names = set(_PAIR_TESTS)  # plus matrix callables found at install

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._enter("bench.op", "bench")

    def end_op(self) -> None:
        self._exit()
        self.ops += 1

    def _enter(self, name: str, layer: str) -> list:
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1][4] if self._stack else -1
        frame = [name, layer, time.perf_counter(), 0.0, span_id, parent]
        self._stack.append(frame)
        return frame

    def _exit(self) -> list:
        end = time.perf_counter()
        frame = self._stack.pop()
        name, layer, start, child, span_id, parent = frame
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if self.ops < self.keep_span_ops:
            self.spans.append((self._op_id, span_id, parent, name, start, end))
        return frame

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _inside_test(self) -> bool:
        return any(frame[0] in self._test_names for frame in self._stack)

    # -- counters ----------------------------------------------------------

    def _count(self, name: str, site: str, args: tuple, result: Any) -> None:
        counts = self.counts
        if name in self._test_names:
            if self._inside_test():
                return
            if name.endswith(_MATRIX_SUFFIX):
                counts["dominance.tests"] += int(getattr(result, "size", 0))
                counts["dominance.hits"] += int(result.sum()) if hasattr(result, "sum") else 0
            else:
                counts["dominance.tests"] += 1
                counts["dominance.hits"] += _is_hit(result)
        elif name in ("order.maximal_set", "order.minimal_set"):
            if site in _FILTER_SITES and isinstance(result, tuple) and len(result) == 2:
                counts["order.filter_items"] += len(args[0])
                counts["order.filter_kept"] += len(result[0])
                counts["order.comparisons"] += int(result[1])
        elif name == "algorithms._filter_dominance":
            if self.inside("algorithms.interleave_compose"):
                counts["algorithms.a4_rounds"] += 1
                counts["algorithms.a4_refiltered"] += len(args[1])
        elif name.endswith(".extensions") and name.startswith("composition."):
            counts["composition.extensions"] += 1
        elif name == "aggregation.merge":
            counts["aggregation.merges"] += 1
        elif name == "oracle.plain_dominates":
            counts["oracle.pairs"] += 1

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str, layer: str, site: str) -> Callable:
        enter, exit_, count = self._enter, self._exit, self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            count(name, site, args, result)
            return result

        return traced

    def install(self, package: str = "prefcompose") -> None:
        """Wrap every boundary callable wherever the package looks it up."""
        modules = _layer_modules(package)
        provider_base = getattr(modules.get("composition"), "FeasibilityProvider", None)

        # Module-level functions by identity, with their span name and layer.
        targets: dict[int, tuple[Callable, str, str]] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and (layer, attr) not in PRIVATE_BOUNDARIES:
                    continue
                name = f"{layer}.{attr}"
                targets[id(value)] = (value, name, layer)
                if layer == "dominance" and attr.endswith(_MATRIX_SUFFIX):
                    self._test_names.add(name)

        for site, container, key, value, is_dict in _references(package, modules):
            if id(value) in targets:
                fn, name, layer = targets[id(value)]
                _swap(self._restore, container, key, self._wrapper(fn, name, layer, site), is_dict)

        # Provider and pool methods.
        for layer, module in modules.items():
            for cls_name, cls in list(vars(module).items()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                is_provider = provider_base is not None and issubclass(cls, provider_base)
                if not (is_provider or cls_name.endswith("Pool")):
                    continue
                span_layer = "composition" if is_provider else layer
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(value):
                        continue
                    name = f"{span_layer}.{attr}" if is_provider else f"{layer}.{cls_name}.{attr}"
                    if layer == "dominance" and name.endswith(_MATRIX_SUFFIX):
                        self._test_names.add(name)
                    _swap(self._restore, cls, attr, self._wrapper(value, name, span_layer, layer), False)

        for boundary in COUNTED_BOUNDARIES:
            self.present[boundary] = _resolve(package, boundary) is not None

    def uninstall(self) -> None:
        _undo(self._restore)

    # -- results -----------------------------------------------------------

    def absent(self) -> list[str]:
        return [name for name, ok in self.present.items() if not ok]

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for op_id, span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"op": op_id, "span": span_id, "parent": parent,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


def _layer_modules(package: str) -> dict[str, Any]:
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            continue
    return modules


def _references(package: str, modules: dict[str, Any]):
    """(site, container, key, value, is_dict) for each name a lookup site binds.

    Sites are the layer modules and the package namespace; a site binds names
    in its globals and in its module-level dicts.
    """
    sites = list(modules.items()) + [("package", importlib.import_module(package))]
    for site, module in sites:
        for key, value in list(vars(module).items()):
            yield site, module, key, value, False
            if isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    yield site, value, dkey, dvalue, True


def _swap(restore: list, container: Any, key: Any, value: Any, is_dict: bool) -> None:
    if is_dict:
        restore.append((container, key, container[key], True))
        container[key] = value
    else:
        restore.append((container, key, vars(container)[key], False))
        setattr(container, key, value)


def _undo(restore: list) -> None:
    for container, key, original, is_dict in reversed(restore):
        if is_dict:
            container[key] = original
        else:
            setattr(container, key, original)
    restore.clear()


def _resolve(package: str, dotted: str) -> Optional[Any]:
    module_name, _, rest = dotted.partition(".")
    try:
        obj: Any = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return None
    for part in rest.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def replace_everywhere(package: str, module_name: str, attr: str,
                       make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Swap one function for ``make(original)`` at every lookup site.

    Returns a function that restores the originals.  The self-test uses it to
    plant a wrong answer the way a faulty program would produce it.
    """
    original = getattr(importlib.import_module(f"{package}.{module_name}"), attr)
    replacement = make(original)
    restore: list = []
    for _, container, key, value, is_dict in _references(package, _layer_modules(package)):
        if value is original:
            _swap(restore, container, key, replacement, is_dict)
    return lambda: _undo(restore)
