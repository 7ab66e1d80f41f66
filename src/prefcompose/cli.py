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
import dataclasses
import enum
import json
import math
import reprlib
import sys
from typing import Optional, Sequence

from . import fixtures, properties, simulator
from .aggregation import AggValue, Valuation
from .algorithms import ALGORITHMS, RunResult
from .composition import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Component,
    ExplicitProvider,
    FeasibilityProvider,
)
from .dominance import witnesses
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
    """The instance file is malformed; the message carries the field path."""


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
    try:
        intra = build_order(edges, len(domain))
    except CycleError as exc:
        raise InstanceError(f"{where}.intra_edges: {exc}") from exc
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
    try:
        importance = build_order(edges, len(attributes))
    except CycleError as exc:
        raise InstanceError(f"importance_edges: {exc}") from exc
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
    unknown = set(entry) - {f.name for f in dataclasses.fields(simulator.SimConfig)}
    _require(not unknown, f"simulate: unknown fields {sorted(unknown)}")
    for name in entry:
        _require(
            name not in _SPEC_FIELDS,
            f"simulate.{name}: not read here; the spec comes from 'attributes' "
            "and 'importance_edges'",
        )
    try:
        sim_config = simulator.SimConfig(**entry)
    except ValueError as exc:  # its message starts with the field name
        raise InstanceError(f"simulate.{exc}") from None
    return Instance(spec, components, component_ids, None, sim_config)


def load_instance(path: str) -> Instance:
    if "/" not in path and not path.endswith(".json"):
        try:
            path = fixtures.fixture_path(path)
        except KeyError:
            pass
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise InstanceError(f"{path}: {exc}") from exc
    return parse_instance(doc)


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
                "valuation": [_agg_value_json(v) for v in comp.valuation.per_attribute],
            }
        )
    annotations = []
    for i, a in enumerate(result.solutions):
        for j, b in enumerate(result.solutions):
            if i == j:
                continue
            found = witnesses(instance.spec, a.valuation, b.valuation)
            if found:
                annotations.append({"winner": i, "loser": j, "witness": found[0]})
    return {
        "format": 1,
        "algorithm": result.algorithm,
        "config": result.config,
        "solutions": solutions,
        "dominance_among_solutions": annotations,
        "fcount": result.fcount,
        "elapsed_ms": result.elapsed_ms,
    }


def _dump_json(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_INPUT


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        instance = load_instance(args.instance)
        report = validate(instance.spec, strict_interval=args.strict)
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        for problem in report.errors:
            print(f"error: {problem}", file=sys.stderr)
        if not report.ok:
            return EXIT_INPUT
        provider = _provider_for(instance, budget=args.budget)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    options = {
        "a3": {"pick_seed": args.pick},
        "a4": {"extend_feasible": args.extend_feasible},
    }.get(args.algorithm, {})
    try:
        result = ALGORITHMS[args.algorithm](instance.spec, provider, **options)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    doc = run_result_json(instance, result)
    try:
        _dump_json(doc, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        if args.config:
            with open(args.config) as handle:
                config = simulator.SimConfig(**json.load(handle))
        else:
            config = simulator.SimConfig(
                feas=args.feas,
                domain_size=args.n,
                attr_count=args.m,
                repo_size=args.r,
                fdelay_ms=args.fdelay,
                intra_kind=args.intra,
                importance_kind=args.imp,
                valuation_mode=args.valuation_mode,
            )
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for warning in config.range_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    try:
        records = simulator.run_experiment(config, args.algorithms, repetitions=args.reps)
    except ValueError as exc:  # an unknown algorithm name
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.csv:
        try:
            simulator.write_csv(records, args.csv)
        except OSError as exc:
            return _cannot_write(args.csv, exc)
    else:
        print(",".join(simulator.CSV_HEADER))
        for record in records:
            print(",".join(record.csv_row()))
    return EXIT_OK


def parse_relation_file(path: str) -> StrictOrder:
    """Line format: header ``n=<count>``, then one ``a > b`` pair per line."""
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines or not lines[0].replace(" ", "").startswith("n="):
        raise InstanceError(f"{path}: first line must be 'n=<count>'")
    try:
        n = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise InstanceError(f"{path}: bad element count in header") from None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(">")
        if len(parts) != 2:
            raise InstanceError(f"{path}:{lineno}: expected 'a > b'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InstanceError(f"{path}:{lineno}: elements must be integers") from None
    return build_order(edges, n)


def cmd_check_orders(args: argparse.Namespace) -> int:
    try:
        order = parse_relation_file(args.relation)
    except (OSError, ValueError) as exc:  # InstanceError and CycleError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    flags = classify(order)
    print(
        f"partial={flags.is_partial} interval={flags.is_interval} "
        f"weak={flags.is_weak} total={flags.is_total}"
    )
    if args.expect:
        satisfied = {
            "partial": flags.is_partial,
            "interval": flags.is_interval,
            "weak": flags.is_weak,
            "total": flags.is_total,
        }[args.expect]
        return EXIT_OK if satisfied else EXIT_EXPECTATION
    return EXIT_OK


def cmd_props(args: argparse.Namespace) -> int:
    if args.property == "all":
        names = properties.PROPERTY_NAMES
    else:
        names = (args.property,)
    reports = []
    for name in names:
        try:
            reports.append(properties.verify_property(name, trials=args.trials, seed=args.seed))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if args.json:
        doc = {"format": 1, "reports": [dataclasses.asdict(r) for r in reports]}
        try:
            _dump_json(doc, args.json)
        except OSError as exc:
            return _cannot_write(args.json, exc)
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

    sim = sub.add_parser("simulate", help="batch experiment over generated instances")
    sim.add_argument("--config", help="JSON file with generator settings")
    sim.add_argument("--feas", type=float, default=0.5)
    sim.add_argument("--n", type=int, default=4, help="domain size per attribute")
    sim.add_argument("--m", type=int, default=4, help="attribute count")
    sim.add_argument("--r", type=int, default=40, help="repository size (tree nodes)")
    sim.add_argument("--fdelay", type=float, default=1.0,
                     help="simulated cost per extension call (ms)")
    sim.add_argument("--intra", choices=("po", "to"), default="po")
    sim.add_argument("--imp", choices=("io", "to"), default="io")
    sim.add_argument("--valuation-mode", choices=simulator.VALUATION_MODES,
                     default="random_per_node")
    sim.add_argument("--algorithms", type=algorithm_names, default="a1,a3,a4")
    sim.add_argument("--reps", type=positive_int, default=1)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--csv", help="write records to this CSV path")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
