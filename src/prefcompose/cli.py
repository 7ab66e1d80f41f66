"""Command-line surface and the instance-file format.

Subcommands::

    solve        run one algorithm on an instance file, write a result JSON
    simulate     batch experiment runs over generated instances, write CSV
    check-orders classify a relation given in the line-oriented text format
    props        run the property-verification harness

Exit codes are stable: 0 success, 1 expectation failed, 2 input error,
3 extension budget exhausted.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import enum
import itertools
import json
import math
import os
import reprlib
import sys
from typing import Iterator, Optional, Sequence, TextIO

from . import fixtures, properties, simulator
from .aggregation import AggValue, DomainError, Valuation
from .algorithms import ALGORITHMS, RunResult
from .composition import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Component,
    ExplicitProvider,
    FeasibilityProvider,
)
from .dominance import PackedPool
from .order import CycleError, StrictOrder, build_order, classify
from .preference import (
    AggKind,
    AttributeSchema,
    PreferenceSpec,
    SumPolarity,
    validate,
)

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class InstanceError(ValueError):
    """Bad input, exit 2: a malformed instance, config or relation file, a
    bad setting or an unwritable output path.  The message names the file or
    the field path."""


@dataclasses.dataclass
class Instance:
    spec: PreferenceSpec
    components: list[Component]
    component_ids: dict[str, int]
    feasible_sequences: Optional[list[list[int]]]
    sim_config: Optional[simulator.SimConfig]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InstanceError(message)


def _is_number(value) -> bool:
    """A finite JSON number; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# The JSON types a field may have, under the name its error message uses.
_KINDS = {
    "an object": lambda value: isinstance(value, dict),
    "a list": lambda value: isinstance(value, list),
    "a pair": lambda value: isinstance(value, list) and len(value) == 2,
    "a string": lambda value: isinstance(value, str),
    "a number": _is_number,
    "a label": lambda value: value is None or isinstance(value, (str, bool)) or _is_number(value),
}
_REQUIRED = object()


def _wrong_type(path: str, kind: str, value) -> InstanceError:
    return InstanceError(f"{path}: expected {kind}, got {reprlib.repr(value)}")


def _field(obj: dict, key: str, kind: str, where: str, default=_REQUIRED):
    """``obj[key]`` checked to be ``kind``; ``where`` is the path of ``obj``.

    An absent key gives ``default``, and a field without one is required.  A
    field whose default is null may also be given as null.
    """
    path = f"{where}.{key}" if where else key
    if key not in obj:
        _require(default is not _REQUIRED, f"{path}: missing")
        return default
    value = obj[key]
    if _KINDS[kind](value) or (value is None and default is None):
        return value
    raise _wrong_type(path, kind, value)


def _items(obj: dict, key: str, kind: str, where: str, default=_REQUIRED):
    """The list ``obj[key]``, each item checked to be ``kind``."""
    items = _field(obj, key, "a list", where, default)
    test = _KINDS[kind]
    for j, item in enumerate(items or ()):
        if not test(item):
            raise _wrong_type(f"{where}.{key}[{j}]" if where else f"{key}[{j}]", kind, item)
    return items


def _choice(enum_type: type[enum.Enum], obj: dict, key: str, where: str, default):
    """A string field naming a member of ``enum_type``."""
    name = _field(obj, key, "a string", where, default)
    try:
        return enum_type(name) if name is not None else None
    except ValueError:
        allowed = [member.value for member in enum_type]
        raise InstanceError(f"{where}.{key}: expected one of {allowed}, got {name!r}") from None


def _resolve(ids: dict, labels: list, what: str, where: str) -> list[int]:
    """The ids of ``labels`` in ``ids``, the one lookup table of a domain."""
    resolved = []
    for label in labels:
        try:
            resolved.append(ids[label])
        except (KeyError, TypeError):
            raise InstanceError(f"{where}: unknown {what} {reprlib.repr(label)}") from None
    return resolved


def _closed_order(edges: list[tuple[int, int]], n: int, edges_path: str, size_path: str) -> StrictOrder:
    """``build_order``, with a cycle an error at ``edges_path`` and an order
    too large to allocate one at ``size_path``."""
    try:
        return build_order(edges, n)
    except CycleError as exc:
        raise InstanceError(f"{edges_path}: {exc}") from exc
    except MemoryError as exc:
        raise InstanceError(f"{size_path}: {exc}") from None


def _parse_attribute(index: int, data: dict) -> tuple[AttributeSchema, dict]:
    """The attribute at ``attributes[index]`` and its label -> value id table."""
    where = f"attributes[{index}]"
    name = _field(data, "name", "a string", where)
    domain = _items(data, "domain", "a label", where)
    label_ids = {label: i for i, label in enumerate(domain)}
    _require(len(label_ids) == len(domain), f"{where}.domain: duplicate labels")
    edges = [
        _resolve(label_ids, pair, "label", f"{where}.intra_edges[{j}]")
        for j, pair in enumerate(_items(data, "intra_edges", "a pair", where, []))
    ]
    intra = _closed_order(edges, len(domain), f"{where}.intra_edges", f"{where}.domain")
    numeric = _items(data, "numeric_values", "a number", where, None)
    schema = AttributeSchema(
        index, name, tuple(domain), intra,
        agg_kind=_choice(AggKind, data, "agg", where, "worst_frontier"),
        numeric_values=None if numeric is None else tuple(numeric),
        sum_polarity=_choice(SumPolarity, data, "sum_polarity", where, None),
    )
    return schema, label_ids


def _parse_valuation(
    spec: PreferenceSpec, label_ids: list[dict], data: dict, where: str
) -> Valuation:
    values = []
    for attr, ids in zip(spec.attributes, label_ids):
        raw = _field(data, attr.name, "a label", where)
        if attr.agg_kind is AggKind.SUM and _is_number(raw):
            values.append(AggValue.of_scalar(float(raw)))
            continue
        (index,) = _resolve(ids, [raw], "label", f"{where}.{attr.name}")
        if attr.agg_kind is not AggKind.SUM:
            values.append(AggValue.of_frontier((index,)))
            continue
        numeric = attr.numeric_values or ()
        _require(
            index < len(numeric),
            f"{where}.{attr.name}: label {raw!r} has no attributes[{attr.attr_id}].numeric_values entry",
        )
        values.append(AggValue.of_scalar(numeric[index]))
    return Valuation(tuple(values))


# The generator settings that draw a random spec, which an instance's own
# attributes and importance edges replace.
_SPEC_FIELDS = ("attr_count", "domain_size", "intra_kind", "importance_kind", "density")


def parse_instance(doc: dict) -> Instance:
    """Validate and resolve an instance document into domain objects."""
    if not isinstance(doc, dict):
        raise _wrong_type("instance", "an object", doc)
    _require(_field(doc, "format", "a number", "") == 1, "format: unsupported version (expected 1)")
    parsed = [_parse_attribute(i, a) for i, a in enumerate(_items(doc, "attributes", "an object", ""))]
    _require(bool(parsed), "attributes: expected at least one attribute")
    attributes = tuple(schema for schema, _ in parsed)
    attr_ids = {a.name: a.attr_id for a in attributes}
    _require(len(attr_ids) == len(attributes), "attributes: duplicate names")
    attr_ids.update((i, i) for i in range(len(attributes)))  # an edge may give the index
    edges = [
        _resolve(attr_ids, pair, "attribute", f"importance_edges[{j}]")
        for j, pair in enumerate(_items(doc, "importance_edges", "a pair", "", []))
    ]
    importance = _closed_order(edges, len(attributes), "importance_edges", "attributes")
    spec = PreferenceSpec(attributes=attributes, importance=importance)

    label_ids = [ids for _, ids in parsed]
    components: list[Component] = []
    component_ids: dict[str, int] = {}
    for i, entry in enumerate(_items(doc, "components", "an object", "", [])):
        where = f"components[{i}]"
        name = _field(entry, "name", "a string", where)
        _require(name not in component_ids, f"{where}.name: duplicate name {name!r}")
        valuation = _field(entry, "valuation", "an object", where)
        component_ids[name] = i
        components.append(
            Component(i, name, _parse_valuation(spec, label_ids, valuation, f"{where}.valuation"))
        )

    _require(
        ("feasible_sets" in doc) != ("simulate" in doc),
        "instance: exactly one of 'feasible_sets' or 'simulate' must be present",
    )
    if "feasible_sets" in doc:
        sequences = [
            _resolve(component_ids, group, "component", f"feasible_sets[{j}]")
            for j, group in enumerate(_items(doc, "feasible_sets", "a list", ""))
        ]
        return Instance(spec, components, component_ids, sequences, None)
    entry = _field(doc, "simulate", "an object", "")
    for name in entry:
        _require(
            name not in _SPEC_FIELDS,
            f"simulate.{name}: not read here; the spec comes from 'attributes' "
            "and 'importance_edges'",
        )
    return Instance(spec, components, component_ids, None, _sim_config(entry, "simulate"))


_SIM_FIELDS = frozenset(field.name for field in dataclasses.fields(simulator.SimConfig))


def _sim_config(data, where: str, sep: str = ".", **flags) -> simulator.SimConfig:
    """``data`` read as ``SimConfig`` fields, with ``flags`` set over them.

    ``where`` names ``data`` in error messages and ``sep`` joins a field name
    to it; an error in a flag's value names the field alone.
    """
    if not isinstance(data, dict):
        raise _wrong_type(where, "an object", data)
    unknown = set(data) - _SIM_FIELDS
    _require(not unknown, f"{where}: unknown fields {sorted(unknown)}")
    try:
        return simulator.SimConfig(**{**data, **flags})
    except ValueError as exc:  # its message starts with the field name
        name = str(exc).partition(":")[0]
        raise InstanceError(str(exc) if name in flags else f"{where}{sep}{exc}") from None


def _read_text(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise InstanceError(f"{path}: {exc}") from exc


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_instance(path: str) -> Instance:
    if "/" not in path and not path.endswith(".json"):
        try:
            path = fixtures.fixture_path(path)
        except KeyError:
            pass
    return parse_instance(_read_json(path))


def _provider_for(instance: Instance, budget: int) -> FeasibilityProvider:
    if instance.feasible_sequences is not None:
        return ExplicitProvider(
            instance.spec, instance.components, instance.feasible_sequences, budget=budget
        )
    for attr in instance.spec.attributes:
        _require(
            len(attr.domain) > 0,
            f"simulate: attribute {attr.name!r} needs a nonempty domain to draw values",
        )
    import numpy as np

    config = instance.sim_config
    rng = np.random.default_rng(config.seed)
    tree = simulator.generate_tree(instance.spec, config, rng)
    return simulator.tree_provider(tree, fdelay_ms=config.fdelay_ms, budget=budget)


def _agg_value_json(value: AggValue) -> dict:
    if value.is_frontier:
        return {"frontier": sorted(value.frontier)}  # type: ignore[arg-type]
    return {"scalar": value.scalar}


def run_result_json(instance: Instance, result: RunResult) -> dict:
    names = {c.comp_id: c.name for c in instance.components}
    solutions = []
    for comp in result.solutions:
        solutions.append(
            {
                "members": sorted(names.get(m, str(m)) for m in comp.members),
                "valuation": [_agg_value_json(v) for v in comp.valuation],
            }
        )
    pool = PackedPool(instance.spec, [comp.valuation for comp in result.solutions])
    annotations = []
    for i, j in itertools.permutations(range(len(solutions)), 2):
        witness = pool.witness(i, j)
        if witness >= 0:
            annotations.append({"winner": i, "loser": j, "witness": witness})
    return {
        "format": 1,
        "algorithm": result.algorithm,
        "config": result.config,
        "solutions": solutions,
        "dominance_among_solutions": annotations,
        "fcount": result.fcount,
        "elapsed_ms": result.elapsed_ms,
    }


def _cannot_write(path: str, exc: OSError) -> InstanceError:
    return InstanceError(f"cannot write {path}: {exc.strerror or exc}")


def _require_writable(path: Optional[str]) -> None:
    """Fail before the run when ``path`` (if given) does not open for writing.

    Opened for appending, so an existing file keeps its bytes until the run
    succeeds; a file the check creates is removed again."""
    if path:
        existed = os.path.lexists(path)
        try:
            with open(path, "a"):
                pass
            if not existed:
                os.remove(path)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """Where a command writes its result: the file ``path``, else stdout."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def _write_json(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with _output(path) as handle:
        handle.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = validate(instance.spec, strict_interval=args.strict)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _require(report.ok, "; ".join(report.errors))
    provider = _provider_for(instance, budget=args.budget)
    _require_writable(args.out)
    options = {
        "a3": {"pick_seed": args.pick},
        "a4": {"extend_feasible": args.extend_feasible},
    }.get(args.algorithm, {})
    result = ALGORITHMS[args.algorithm](instance.spec, provider, **options)
    _write_json(run_result_json(instance, result), args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    flags = {name: value for name, value in vars(args).items() if name in _SIM_FIELDS}
    data = _read_json(args.config) if args.config else {}
    config = _sim_config(data, args.config, ": ", **flags)
    for warning in config.range_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    _require_writable(args.csv)
    records = simulator.run_experiment(config, args.algorithms, repetitions=args.reps)
    with _output(args.csv) as handle:
        simulator.write_csv(records, handle)
    return EXIT_OK


def _closes_cycle(edges: list[tuple[int, int]], n: int) -> bool:
    try:
        build_order(edges, n)
    except CycleError:
        return True
    return False


def parse_relation_file(path: str) -> StrictOrder:
    """Line format: header ``n=<count>``, then one ``a > b`` pair per line.

    Blank lines and lines starting with ``#`` are skipped; an error names
    the file and the line."""
    lines = enumerate((line.strip() for line in _read_text(path).split("\n")), start=1)
    numbered = [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]
    header_line, header = numbered[0] if numbered else (1, "")
    key, _, count = header.replace(" ", "").partition("=")
    if key != "n" or not count.isdecimal():
        raise InstanceError(
            f"{path}:{header_line}: expected the header 'n=<count>' with a count >= 0, got {header!r}"
        )
    n = int(count)
    edges = []
    for lineno, line in numbered[1:]:
        parts = line.split(">")
        if len(parts) != 2:
            raise InstanceError(f"{path}:{lineno}: expected 'a > b'")
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise InstanceError(f"{path}:{lineno}: elements must be integers") from None
        if not (0 <= x < n and 0 <= y < n):
            raise InstanceError(f"{path}:{lineno}: edge ({x}, {y}) outside universe of size {n}")
        edges.append((x, y))
    try:
        return build_order(edges, n)
    except CycleError:
        # A cycle, once closed, stays closed: the shortest prefix of the edges
        # with one ends at the edge that closes it.
        prefixes = range(len(edges) + 1)
        k = bisect.bisect_left(prefixes, True, key=lambda k: _closes_cycle(edges[:k], n))
        x, y = edges[k - 1]
        raise InstanceError(f"{path}:{numbered[k][0]}: edge {x} > {y} closes a cycle") from None
    except (ValueError, MemoryError) as exc:  # a count too large for one matrix
        raise InstanceError(f"{path}:{header_line}: {exc}") from None


def cmd_check_orders(args: argparse.Namespace) -> int:
    flags = classify(parse_relation_file(args.relation))
    print(
        f"partial={flags.is_partial} interval={flags.is_interval} "
        f"weak={flags.is_weak} total={flags.is_total}"
    )
    if args.expect and not getattr(flags, f"is_{args.expect}"):
        return EXIT_EXPECTATION
    return EXIT_OK


def cmd_props(args: argparse.Namespace) -> int:
    known = properties.PROPERTY_NAMES
    names = known if args.property == "all" else (args.property,)
    _require(set(names) <= set(known), f"unknown property {args.property!r}; known: {', '.join(known)}")
    _require_writable(args.json)
    reports = [properties.verify_property(name, trials=args.trials, seed=args.seed) for name in names]
    if args.json:
        _write_json({"format": 1, "reports": [dataclasses.asdict(r) for r in reports]}, args.json)
    width_name = max(len(r.name) for r in reports)
    all_ok = True
    for report in reports:
        if report.info_only:
            status = "INFO"
        elif report.passed:
            status = "PASS"
        else:
            status = "FAIL"
            all_ok = False
        print(
            f"{report.name:<{width_name}}  {status:<4}  "
            f"checked={report.instances_checked}  violations={report.violations}"
            + (f"  (required={report.required_violations})" if report.required_violations else "")
        )
        if status == "FAIL" and report.first_violation:
            print(f"  first violation: {report.first_violation}")
        if report.info_only and report.violations and report.first_violation:
            print(f"  note: unexpected violation recorded: {report.first_violation}")
    return EXIT_OK if all_ok else EXIT_EXPECTATION


def pick_seed(text: str) -> Optional[int]:
    """``--pick``: None for ``lowest``, else the integer seed of a random pick."""
    return None if text == "lowest" else int(text)


def _int_at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """``--trials``, ``--reps``: an integer >= 1."""
    return _int_at_least(1, text)


def non_negative_int(text: str) -> int:
    """``--budget``: an integer >= 0."""
    return _int_at_least(0, text)


def algorithm_names(text: str) -> list[str]:
    """``--algorithms``: a nonempty comma-separated list of names."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected at least one algorithm name")
    for name in names:
        if name not in ALGORITHMS:
            raise argparse.ArgumentTypeError(f"unknown algorithm {name!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefcompose",
        description="Most-preferred feasible compositions under qualitative preferences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one algorithm on an instance file")
    solve.add_argument("instance", help="instance JSON path or bundled fixture name")
    solve.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="a1")
    solve.add_argument(
        "--pick",
        type=pick_seed,
        default="lowest",
        help="a3 attribute pick: 'lowest' or an integer seed for a random pick",
    )
    solve.add_argument("--strict", action="store_true",
                       help="reject non-interval importance instead of warning")
    solve.add_argument("--extend-feasible", action="store_true",
                       help="a4: also extend feasible compositions once")
    solve.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET)
    solve.add_argument("--out", help="write the result JSON here instead of stdout")
    solve.set_defaults(func=cmd_solve)

    # A simulate flag left out takes its value from --config or else from the
    # SimConfig default; each dest is a SimConfig field name.
    sim = sub.add_parser("simulate", help="batch experiment over generated instances",
                         argument_default=argparse.SUPPRESS)
    sim.add_argument("--config", default=None,
                     help="JSON file with generator settings; a flag given overrides its field")
    sim.add_argument("--feas", type=float)
    sim.add_argument("--n", dest="domain_size", type=int, help="domain size per attribute")
    sim.add_argument("--m", dest="attr_count", type=int, help="attribute count")
    sim.add_argument("--r", dest="repo_size", type=int, help="repository size (tree nodes)")
    sim.add_argument("--fdelay", dest="fdelay_ms", type=float,
                     help="simulated cost per extension call (ms)")
    sim.add_argument("--intra", dest="intra_kind", metavar="{po,to,io,wo}")
    sim.add_argument("--imp", dest="importance_kind", metavar="{po,to,io,wo}")
    sim.add_argument("--valuation-mode", choices=simulator.VALUATION_MODES)
    sim.add_argument("--algorithms", type=algorithm_names, default="a1,a3,a4")
    sim.add_argument("--reps", type=positive_int, default=1)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--csv", default=None, help="write records to this CSV path")
    sim.set_defaults(func=cmd_simulate)

    orders = sub.add_parser("check-orders", help="classify a relation text file")
    orders.add_argument("relation")
    orders.add_argument("--expect", choices=("partial", "interval", "weak", "total"))
    orders.set_defaults(func=cmd_check_orders)

    props = sub.add_parser("props", help="run the property-verification harness")
    props.add_argument("--property", default="all",
                       help="one of: " + ", ".join(properties.PROPERTY_NAMES) + ", or 'all'")
    props.add_argument("--trials", type=positive_int, default=200)
    props.add_argument("--seed", type=int, default=0)
    props.add_argument("--json", help="also write the reports as JSON to this path")
    props.set_defaults(func=cmd_props)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, DomainError, BudgetExceeded) as exc:  # DomainError: e.g. a sum past float64
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
