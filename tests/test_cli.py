"""Command-line behavior: exit codes, output formats, determinism, input errors."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefcompose
from prefcompose import cli, oracle, properties, simulator
from prefcompose.cli import (
    ALGORITHMS,
    EXIT_BUDGET,
    EXIT_EXPECTATION,
    EXIT_INPUT,
    EXIT_OK,
    InstanceError,
    load_instance,
    main,
    parse_instance,
)
from prefcompose.composition import ExplicitProvider
from prefcompose.dominance import dominates
from prefcompose.fixtures import NAMES, fixture_path


def _solve(tmp_path, *args):
    out = tmp_path / "result.json"
    code = main(["solve", *args, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_solve_interleave_on_bundled_tree(tmp_path):
    code, doc = _solve(tmp_path, "interleave_unsound", "--algorithm", "a4")
    assert code == EXIT_OK
    assert [s["members"] for s in doc["solutions"]] == [["W1"], ["W2"]]
    assert doc["fcount"] == 1


def test_solve_exhaustive_on_bundled_tree(tmp_path):
    code, doc = _solve(tmp_path, "interleave_unsound", "--algorithm", "a1")
    assert code == EXIT_OK
    assert [s["members"] for s in doc["solutions"]] == [["W2"], ["W3", "W4"]]


def test_solve_courses_filters_programs(tmp_path):
    code, doc = _solve(tmp_path, "courses", "--algorithm", "a1")
    assert code == EXIT_OK
    assert doc["solutions"]  # at least one preferred program of study
    for solution in doc["solutions"]:
        assert len(solution["members"]) == 6


def test_solve_malformed_json_exits_with_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"format": 1,,}')
    assert main(["solve", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "broken.json" in err and ":" in err  # line/column diagnostic


def test_solve_missing_format_field(tmp_path):
    doc = json.loads(pathlib.Path(fixture_path("tradeoff_compromise")).read_text())
    del doc["format"]
    path = tmp_path / "noformat.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_INPUT


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solve_with_no_feasible_sets_answers_no_solutions(tmp_path, algorithm):
    # An instance nothing satisfies is well formed; its answer is empty.
    doc = json.loads(pathlib.Path(fixture_path("tradeoff_compromise")).read_text())
    doc["feasible_sets"] = []
    path = tmp_path / "none.json"
    path.write_text(json.dumps(doc))
    code, result = _solve(tmp_path, str(path), "--algorithm", algorithm)
    assert code == EXIT_OK
    assert result["solutions"] == [] and result["dominance_among_solutions"] == []


def test_solve_strict_rejects_non_interval_importance(tmp_path):
    assert main(["solve", "intransitive_importance", "--strict"]) == EXIT_INPUT


def test_solve_without_strict_warns_and_solves(tmp_path, capsys):
    code, doc = _solve(tmp_path, "intransitive_importance", "--algorithm", "a1")
    assert code == EXIT_OK
    assert "interval" in capsys.readouterr().err
    # U beats V and V beats Z, so only U is undominated
    assert [s["members"] for s in doc["solutions"]] == [["U"]]


def test_solve_budget_exhaustion_exit_code(tmp_path):
    assert main(["solve", "interleave_unsound", "--budget", "0"]) == EXIT_BUDGET


def test_solve_seeded_pick(tmp_path):
    code, doc = _solve(
        tmp_path, "single_attribute_unsound", "--algorithm", "a3", "--pick", "0"
    )
    assert code == EXIT_OK
    assert doc["config"]["picked_attribute"] == 1
    assert [s["members"] for s in doc["solutions"]] == [["C1"], ["C2"]]


def test_solve_result_is_deterministic(tmp_path):
    _, first = _solve(tmp_path, "courses", "--algorithm", "a2")
    _, second = _solve(tmp_path, "courses", "--algorithm", "a2")
    assert first == second


def test_solve_annotates_dominance_among_unsound_solutions(tmp_path):
    code, doc = _solve(tmp_path, "single_attribute_unsound", "--algorithm", "a3")
    assert code == EXIT_OK
    # C1 dominates C3 inside the returned set; the annotation says so
    assert doc["dominance_among_solutions"]


def test_check_orders_non_interval_expectation_fails(tmp_path):
    relation = tmp_path / "rel.txt"
    relation.write_text("n=4\n# two chains\n0 > 2\n1 > 3\n")
    assert main(["check-orders", str(relation)]) == EXIT_OK
    assert main(["check-orders", str(relation), "--expect", "interval"]) == EXIT_EXPECTATION
    assert main(["check-orders", str(relation), "--expect", "partial"]) == EXIT_OK


def test_check_orders_chain_is_total(tmp_path):
    relation = tmp_path / "chain.txt"
    relation.write_text("n=3\n0 > 1\n1 > 2\n")
    assert main(["check-orders", str(relation), "--expect", "total"]) == EXIT_OK


def test_check_orders_cycle_is_input_error(tmp_path, capsys):
    relation = tmp_path / "cycle.txt"
    relation.write_text("n=2\n0 > 1\n1 > 0\n")
    assert main(["check-orders", str(relation)]) == EXIT_INPUT
    assert "cycle" in capsys.readouterr().err


def test_check_orders_bad_header(tmp_path):
    relation = tmp_path / "bad.txt"
    relation.write_text("3 elements\n0 > 1\n")
    assert main(["check-orders", str(relation)]) == EXIT_INPUT


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "expected the header 'n=<count>' with a count >= 0, got ''"),
    ("# count\n\nn=-2\n", 3, "expected the header 'n=<count>' with a count >= 0, got 'n=-2'"),
    ("n=3\n# a comment\n0 > 5\n", 3, "edge (0, 5) outside universe of size 3"),
    ("n=2\n\n0 > x\n", 3, "elements must be integers"),
    ("# header next\nn=3\n0 > 1\n\n1 > 2\n2 > 0\n1 > 0\n", 6, "edge 2 > 0 closes a cycle"),
], ids=["empty", "negative-count", "out-of-range", "not-an-integer", "cycle"])
def test_check_orders_errors_name_the_line(tmp_path, capsys, text, line, message):
    relation = tmp_path / "rel.txt"
    relation.write_text(text)
    assert main(["check-orders", str(relation)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {relation}:{line}: {message}\n"


def test_props_fixture_property_passes(capsys):
    assert main(["props", "--property", "intransitivity-fixture"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


def test_props_theorem_property_passes(capsys):
    assert main(["props", "--property", "weak-order", "--trials", "30"]) == EXIT_OK


def test_props_conjecture_probe_is_informational(capsys):
    assert main(["props", "--property", "interval-total-weak-order", "--trials", "30"]) == EXIT_OK
    assert "INFO" in capsys.readouterr().out


def test_props_unknown_property(capsys):
    assert main(["props", "--property", "nope"]) == EXIT_INPUT


def test_simulate_deterministic_csv(tmp_path):
    args = [
        "simulate", "--reps", "2", "--seed", "7", "--r", "20", "--m", "3",
        "--n", "3", "--algorithms", "a1,a3,a4",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(first)]) == EXIT_OK
    assert main(args + ["--csv", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_simulate_total_orders_with_aggregated_values_are_exact(tmp_path):
    import csv as csvmod

    out = tmp_path / "toto.csv"
    assert main([
        "simulate", "--reps", "25", "--seed", "3", "--intra", "to", "--imp", "to",
        "--valuation-mode", "aggregated", "--r", "30", "--algorithms", "a3,a4",
        "--csv", str(out),
    ]) == EXIT_OK
    with open(out) as handle:
        rows = list(csvmod.DictReader(handle))
    assert rows
    for row in rows:
        assert float(row["sp_over_pf"]) == 1.0
        if row["algorithm"] == "a4":
            assert float(row["sp_over_s"]) == 1.0


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["props", "--property", "weak-order", "--trials", "-3"], "--trials", id="trials=-3"),
    pytest.param(["props", "--property", "weak-order", "--trials", "0"], "--trials", id="trials=0"),
    pytest.param(["simulate", "--reps", "-2"], "--reps", id="reps=-2"),
    pytest.param(["simulate", "--reps", "0"], "--reps", id="reps=0"),
    pytest.param(["simulate", "--algorithms", ","], "--algorithms", id="algorithms=,"),
    pytest.param(["simulate", "--algorithms", ""], "--algorithms", id="algorithms=empty"),
    pytest.param(["simulate", "--algorithms", "a1,a9"], "--algorithms", id="algorithms=a9"),
    pytest.param(["simulate", "--real-sleep"], "--real-sleep", id="real-sleep"),
    pytest.param(["solve", "courses", "--budget", "-1"], "--budget", id="budget=-1"),
])
def test_bad_counts_and_lists_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert flag in captured.err and not captured.out


def test_simulate_stdout_and_csv_file_are_the_same_bytes(tmp_path, capsys):
    args = ["simulate", "--r", "20", "--reps", "2", "--algorithms", "a1,a4"]
    assert main(args) == EXIT_OK
    stdout = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert main([*args, "--csv", str(out)]) == EXIT_OK
    assert out.read_bytes() == stdout.encode()


def test_simulate_flags_override_the_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"repo_size": 10, "intra_kind": "to"}))
    assert main(["simulate", "--config", str(config), "--r", "20", "--intra", "wo",
                 "--imp", "po", "--algorithms", "a1"]) == EXIT_OK
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert (row["r"], row["intra_kind"], row["imp_kind"]) == ("20", "wo", "po")
    # a bad flag value is named as the field alone, not as the file's
    assert main(["simulate", "--config", str(config), "--r", "0"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: repo_size: expected an integer >= 1")


@pytest.mark.parametrize("text, where", [
    ('{"repo_size": 10, "bogus": 1}', ": unknown fields ['bogus']"),
    ("[1, 2]", ": expected an object, got [1, 2]"),
    ('{"repo_size": 10,,}', ":1:18: Expecting property name"),
    ('{"repo_size": 0}', ": repo_size: expected an integer >= 1, got 0"),
    ('{"intra_kind": "xo"}', ": intra_kind: expected one of"),
], ids=["unknown-field", "not-an-object", "syntax", "bad-value", "bad-kind"])
def test_simulate_config_errors_name_the_file(tmp_path, capsys, text, where):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["simulate", "--config", str(config), "--algorithms", "a3"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {config}{where}")


def test_simulate_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"repo_size": 15, "seed": 9, "attr_count": 3}))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(config), "--csv", str(out)]) == EXIT_OK
    assert out.read_text().count("\n") == 4  # header + a1/a3/a4


def test_simulate_feasible_count_matches_leaves(tmp_path):
    import csv as csvmod

    out = tmp_path / "full.csv"
    assert main([
        "simulate", "--reps", "5", "--seed", "2", "--feas", "1.0", "--r", "10",
        "--algorithms", "a1", "--csv", str(out),
    ]) == EXIT_OK
    import numpy as np

    from prefcompose.simulator import SimConfig, generate_tree, random_spec

    with open(out) as handle:
        rows = list(csvmod.DictReader(handle))
    config = SimConfig(feas=1.0, domain_size=4, attr_count=4, repo_size=10, seed=2)
    root = np.random.default_rng(config.seed)
    for row in rows:
        child_seed = int(root.integers(0, 2**62))
        assert child_seed == int(row["seed"])
        rng = np.random.default_rng(child_seed)
        spec = random_spec(config, rng)
        tree = generate_tree(spec, config, rng)
        assert int(row["F"]) == len(tree.leaves)


def test_every_bundled_fixture_solves(tmp_path):
    for name in NAMES:
        code, doc = _solve(tmp_path, name, "--algorithm", "a1")
        assert code == EXIT_OK, name
        assert doc["format"] == 1 and doc["solutions"], name


def test_instance_requires_exactly_one_search_space():
    doc = json.loads(pathlib.Path(fixture_path("tradeoff_compromise")).read_text())
    doc["simulate"] = {"repo_size": 5}
    with pytest.raises(InstanceError):
        parse_instance(doc)
    del doc["feasible_sets"]
    del doc["simulate"]
    with pytest.raises(InstanceError):
        parse_instance(doc)


def test_min_aggregated_attribute_instance(tmp_path):
    doc = {
        "format": 1,
        "attributes": [
            {"name": "safety", "domain": ["high", "mid", "low"],
             "intra_edges": [["high", "mid"], ["mid", "low"]], "agg": "min"},
        ],
        "importance_edges": [],
        "components": [
            {"name": "A", "valuation": {"safety": "high"}},
            {"name": "B", "valuation": {"safety": "low"}},
            {"name": "C", "valuation": {"safety": "mid"}},
        ],
        "feasible_sets": [["A", "B"], ["A", "C"]],
    }
    path = tmp_path / "min.json"
    path.write_text(json.dumps(doc))
    code, result = _solve(tmp_path, str(path), "--algorithm", "a1")
    assert code == EXIT_OK
    # a composition is only as safe as its least safe member: {A,C} bottoms
    # out at mid, {A,B} at low, and mid beats low
    assert [s["members"] for s in result["solutions"]] == [["A", "C"]]


def test_min_attribute_with_partial_order_is_rejected(tmp_path):
    doc = {
        "format": 1,
        "attributes": [
            {"name": "safety", "domain": ["high", "mid", "low"],
             "intra_edges": [["high", "mid"]], "agg": "min"},
        ],
        "importance_edges": [],
        "components": [{"name": "A", "valuation": {"safety": "high"}}],
        "feasible_sets": [["A"]],
    }
    path = tmp_path / "badmin.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_INPUT


def test_props_json_output(tmp_path):
    out = tmp_path / "reports.json"
    assert main([
        "props", "--property", "weak-order", "--trials", "10", "--json", str(out),
    ]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["format"] == 1
    assert doc["reports"][0]["name"] == "weak-order"
    assert doc["reports"][0]["violations"] == 0


@pytest.mark.parametrize("argv", [
    ["solve", "courses", "--out"],
    ["simulate", "--r", "10", "--algorithms", "a3", "--csv"],
    ["props", "--property", "weak-order", "--trials", "2", "--json"],
])
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    """The output path is checked before the run starts."""
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before the output path was checked")

    monkeypatch.setitem(ALGORITHMS, "a1", no_run)
    monkeypatch.setattr(simulator, "run_experiment", no_run)
    monkeypatch.setattr(properties, "verify_property", no_run)
    path = tmp_path / "missing" / "out"
    assert main([*argv, str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: "), err


def test_failed_run_keeps_an_existing_output_file(tmp_path):
    out = tmp_path / "result.json"
    out.write_text("previous result\n")
    assert main(["solve", "interleave_unsound", "--budget", "0", "--out", str(out)]) == EXIT_BUDGET
    assert out.read_text() == "previous result\n"
    fresh = tmp_path / "fresh.json"
    assert main(["solve", "interleave_unsound", "--budget", "0", "--out", str(fresh)]) == EXIT_BUDGET
    assert not fresh.exists()


def test_simulate_block_requires_domain_values(tmp_path):
    doc = {
        "format": 1,
        "attributes": [
            {"name": "cost", "domain": [], "intra_edges": [], "agg": "sum",
             "numeric_values": [], "sum_polarity": "lower"},
        ],
        "importance_edges": [],
        "components": [],
        "simulate": {"repo_size": 5, "seed": 1},
    }
    path = tmp_path / "emptydomain.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_INPUT


@pytest.mark.parametrize("feasible_sets, members", [([[]], [[]]), ([], [])])
def test_a_frontier_attribute_with_an_empty_domain_solves(tmp_path, feasible_sets, members):
    """With every frontier domain empty, the only state is the empty
    composition: feasible when an empty set is listed, else no answer."""
    doc = {"format": 1, "attributes": [{"name": "a", "domain": []}], "components": [],
           "feasible_sets": feasible_sets}
    path = tmp_path / "emptydomain.json"
    path.write_text(json.dumps(doc))
    for algorithm in ALGORITHMS:
        code, result = _solve(tmp_path, str(path), "--algorithm", algorithm)
        assert code == EXIT_OK
        assert [s["members"] for s in result["solutions"]] == members


def _overflowing_sum_instance(search_space):
    return {
        "format": 1,
        "attributes": [{"name": "gain", "domain": ["big", "one"], "agg": "sum",
                        "numeric_values": [1e308, 1.0], "sum_polarity": "higher"}],
        "components": [{"name": "a", "valuation": {"gain": 1e308}},
                       {"name": "b", "valuation": {"gain": 1e308}},
                       {"name": "c", "valuation": {"gain": 5}}],
        **search_space,
    }


@pytest.mark.parametrize("search_space", [
    {"feasible_sets": [["a", "b"], ["c"], ["b", "a", "a"]]},
    {"simulate": {"repo_size": 20, "valuation_mode": "aggregated"}},
], ids=["explicit", "simulate"])
def test_a_sum_past_the_float_range_is_an_input_error(tmp_path, capsys, search_space):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_overflowing_sum_instance(search_space)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning either
        assert main(["solve", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "attributes[0]" in err and "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("feasible_sets, solutions, a4_fcount", [
    ([], [], 1),
    ([[]], [{"members": [], "valuation": [{"frontier": []}]}], 0),
], ids=["none", "empty-set"])
def test_the_empty_root_is_extended_once(tmp_path, feasible_sets, solutions, a4_fcount):
    """The empty root is never terminal: a1-a3 extend it once even when no
    sequence has a member, and a4 extends it unless it is feasible itself."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "format": 1,
        "attributes": [{"name": "x", "domain": ["a", "b"], "intra_edges": [["a", "b"]]}],
        "components": [{"name": "c", "valuation": {"x": "a"}}],
        "feasible_sets": feasible_sets,
    }))
    for algorithm in ("a1", "a2", "a3", "a4"):
        code, doc = _solve(tmp_path, str(path), "--algorithm", algorithm)
        assert code == EXIT_OK
        assert doc["solutions"] == solutions
        assert doc["fcount"] == (a4_fcount if algorithm == "a4" else 1)


def test_sums_whose_difference_overflows_compare_without_warnings(tmp_path):
    """Finite sums on either side of the float range are no tie: ``solve``
    and the oracle keep the higher one and raise no NumPy overflow warning."""
    path = tmp_path / "far_apart.json"
    path.write_text(json.dumps({
        "format": 1,
        "attributes": [{"name": "gain", "domain": ["up", "down"], "agg": "sum",
                        "numeric_values": [1.5e308, -1.5e308], "sum_polarity": "higher"}],
        "components": [{"name": "a", "valuation": {"gain": 1.5e308}},
                       {"name": "b", "valuation": {"gain": -1.5e308}}],
        "feasible_sets": [["a"], ["b"]],
    }))
    instance = load_instance(str(path))
    feasible = ExplicitProvider(instance.spec, instance.components, instance.feasible_sequences).all_feasible()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for algorithm in ("a1", "a2", "a3", "a4"):
            code, doc = _solve(tmp_path, str(path), "--algorithm", algorithm)
            assert code == EXIT_OK
            assert [s["members"] for s in doc["solutions"]] == [["a"]]
        truth = oracle.brute_nondominated(instance.spec, [(c.key(), c.valuation) for c in feasible])
    assert [c.members for c in feasible if c.key() in truth] == [(0,)]


def test_instance_with_simulate_block_solves(tmp_path):
    doc = {
        "format": 1,
        "attributes": [
            {"name": "x", "domain": ["a", "b"], "intra_edges": [["a", "b"]],
             "agg": "worst_frontier"},
        ],
        "importance_edges": [],
        "components": [],
        "simulate": {"repo_size": 10, "seed": 4, "feas": 0.5},
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    code, result = _solve(tmp_path, str(path), "--algorithm", "a1")
    assert code == EXIT_OK
    assert result["format"] == 1


# --------------------------------------------------------------------------
# Malformed input: exit 2 with the path of the bad field, never a traceback.

_GOOD = {
    "format": 1,
    "attributes": [
        {"name": "quality", "domain": ["good", "bad"], "intra_edges": [["good", "bad"]],
         "agg": "worst_frontier"},
        {"name": "cost", "domain": ["low", "high"], "agg": "sum", "numeric_values": [1, 5],
         "sum_polarity": "lower"},
    ],
    "importance_edges": [["quality", "cost"]],
    "components": [
        {"name": "A", "valuation": {"quality": "good", "cost": "high"}},
        {"name": "B", "valuation": {"quality": "bad", "cost": 2}},
    ],
    "feasible_sets": [["A"], ["A", "B"]],
}

# (where to put the value, the value, the path the error must name)
_MALFORMED = [
    (("attributes",), 5, "attributes"),
    (("attributes",), [], "attributes"),
    (("attributes", 0, "name"), ["quality"], "attributes[0].name"),
    (("attributes", 0, "domain", 1), ["bad"], "attributes[0].domain[1]"),
    (("attributes", 0, "intra_edges"), 5, "attributes[0].intra_edges"),
    (("attributes", 0, "intra_edges", 0, 0), ["good"], "attributes[0].intra_edges[0]"),
    (("attributes", 1, "numeric_values"), "ab", "attributes[1].numeric_values"),
    (("attributes", 1, "numeric_values"), 5, "attributes[1].numeric_values"),
    (("attributes", 1, "numeric_values"), ["a", "b"], "attributes[1].numeric_values[0]"),
    (("attributes", 1, "numeric_values"), [1], "components[0].valuation.cost"),
    (("importance_edges",), 5, "importance_edges"),
    (("importance_edges", 0, 0), ["quality"], "importance_edges[0]"),
    (("components",), 5, "components"),
    (("components", 0, "name"), ["A"], "components[0].name"),
    (("components", 0, "valuation"), 5, "components[0].valuation"),
    (("feasible_sets",), 5, "feasible_sets"),
    (("feasible_sets",), [[["A"]]], "feasible_sets[0]"),
    (("simulate",), {"repo_size": "x"}, "simulate.repo_size"),
    (("simulate",), {"repo_size": 0}, "simulate.repo_size"),
    (("simulate",), {"feas": 2.0}, "simulate.feas"),
    (("simulate",), {"seed": -1}, "simulate.seed"),
    (("simulate",), {"valuation_mode": "x"}, "simulate.valuation_mode"),
    (("simulate",), {"fdelay_ms": "x"}, "simulate.fdelay_ms"),
    (("simulate",), {"attr_count": 2}, "simulate.attr_count"),
    (("simulate",), {"domain_size": 2}, "simulate.domain_size"),
    (("simulate",), {"intra_kind": "po"}, "simulate.intra_kind"),
    (("simulate",), {"importance_kind": "io"}, "simulate.importance_kind"),
    (("simulate",), {"density": 0.3}, "simulate.density"),
]


@pytest.mark.parametrize(
    "where, value, path", _MALFORMED, ids=[f"{p}={v!r}" for _, v, p in _MALFORMED]
)
def test_malformed_instance_names_the_field(tmp_path, capsys, where, value, path):
    doc = copy.deepcopy(_GOOD)
    if where == ("simulate",):
        del doc["feasible_sets"]
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    instance = tmp_path / "bad.json"
    instance.write_text(json.dumps(doc))
    assert main(["solve", str(instance)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and f" {path}:" in err, err


def _bool_attribute_doc():
    doc = copy.deepcopy(_GOOD)
    doc["importance_edges"] = [[True, 0]]
    return doc


def _bool_sum_doc():
    doc = copy.deepcopy(_GOOD)
    doc["attributes"][1]["domain"] = [0, 1]
    doc["components"][0]["valuation"]["cost"] = False
    return doc


def _bool_label_doc():
    doc = copy.deepcopy(_GOOD)
    doc["attributes"][0]["domain"] = ["a", 1]
    doc["attributes"][0]["intra_edges"] = [[True, "a"]]
    doc["components"][0]["valuation"]["quality"] = 1.0  # the number 1 is still the label 1
    doc["components"][1]["valuation"]["quality"] = "a"
    return doc


@pytest.mark.parametrize("doc, message", [
    (_bool_attribute_doc(), "importance_edges[0]: unknown attribute True"),
    (_bool_sum_doc(), "components[0].valuation.cost: unknown label False"),
    (_bool_label_doc(), "attributes[0].intra_edges[0]: unknown label True"),
], ids=["attribute", "sum-label", "label"])
def test_a_json_bool_resolves_only_to_a_bool(tmp_path, capsys, doc, message):
    """JSON's true and false are not the numbers 1 and 0: in an importance
    edge, a component value or a value-order edge, a bool names no attribute
    or label but a bool label, so each of these exits 2 with the field."""
    instance = tmp_path / "bad.json"
    instance.write_text(json.dumps(doc))
    assert main(["solve", str(instance)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_bool_label_resolves_to_itself():
    doc = _bool_label_doc()
    doc["attributes"][0]["domain"] = ["a", 1, True]
    instance = parse_instance(doc)
    assert np.argwhere(instance.spec.attributes[0].intra_order.matrix).tolist() == [[2, 0]]
    assert [c.base_valuation[0].frontier for c in instance.components] == [{1}, {0}]


def test_the_parser_is_built_once():
    assert cli._parser() is cli._parser()


# Address space of the child runs below: enough to import the package, far
# too little for an order matrix over 10^5 or 10^6 elements.
_CHILD_ADDRESS_SPACE = 3 << 30


def _limited_cli(cwd, *argv):
    """The CLI run in a child process whose address space is capped, so an
    allocation too large for the cap fails there and nowhere else."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(prefcompose.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    cap = (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE)
    return subprocess.run(
        [sys.executable, "-m", "prefcompose.cli", *argv], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
    )


@pytest.mark.parametrize("command", ["check-orders", "solve"])
def test_an_order_too_large_to_allocate_is_an_input_error(tmp_path, command):
    """An order matrix that cannot be allocated exits 2 naming the line or
    field that sized it, not with a traceback."""
    if command == "check-orders":
        (tmp_path / "big.txt").write_text("n=1000000\n")
        argv, where = ["check-orders", "big.txt"], "big.txt:1"
    else:
        doc = copy.deepcopy(_GOOD)
        doc["attributes"][0]["domain"] += [f"v{i}" for i in range(100_000)]
        (tmp_path / "big.json").write_text(json.dumps(doc))
        argv, where = ["solve", "big.json"], "attributes[0].domain"
    run = _limited_cli(tmp_path, *argv)
    assert run.returncode == EXIT_INPUT, run.stderr
    assert run.stderr.startswith(f"error: {where}: Unable to allocate"), run.stderr


def test_an_importance_order_too_large_to_allocate_names_the_attributes(tmp_path, capsys, monkeypatch):
    doc = copy.deepcopy(_GOOD)
    doc["attributes"].append({"name": "speed", "domain": ["fast", "slow"]})
    build_order = cli.build_order

    def importance_too_large(edges, n):
        if n == len(doc["attributes"]):
            raise MemoryError("Unable to allocate the importance matrix")
        return build_order(edges, n)

    monkeypatch.setattr(cli, "build_order", importance_too_large)
    instance = tmp_path / "doc.json"
    instance.write_text(json.dumps(doc))
    assert main(["solve", str(instance)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: attributes: Unable to allocate the importance matrix\n"


@pytest.mark.parametrize("args, field", [
    (["--config", "{config}"], "repo_size"),
    (["--m", "0"], "attr_count"),
    (["--r", "0"], "repo_size"),
    (["--config", "{empty}"], "repo_size"),
])
def test_malformed_simulate_config_names_the_field(tmp_path, capsys, args, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"repo_size": "x"}))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"repo_size": 0}))
    argv = [arg.format(config=config, empty=empty) for arg in args]
    assert main(["simulate", *argv, "--algorithms", "a3"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err, err


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(float("nan"))
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
_FIXTURE_DOCS = {name: json.loads(pathlib.Path(fixture_path(name)).read_text()) for name in NAMES}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(NAMES), data=st.data(), value=_JSON_VALUES)
def test_solve_survives_one_replaced_value(name, data, value):
    doc = copy.deepcopy(_FIXTURE_DOCS[name])
    where = data.draw(st.sampled_from(list(_paths(doc))))
    if where:
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    else:
        doc = value
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "fuzzed.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        assert main(["solve", path, "--out", os.path.join(scratch, "out.json")]) in (
            EXIT_OK, EXIT_INPUT, EXIT_BUDGET
        )


# --------------------------------------------------------------------------
# The solve output of every bundled fixture, pinned byte for byte.

_SOLVE_DIGESTS = {
    ("courses", "a1"): "0d342e65d8cd5e53caa1dd66f601665765917aa4f6689ff78243742442764ced",
    ("courses", "a2"): "47c219bf9171cee7a6318447bd9bce21699db416d8dfaf1871e67a79836cac5b",
    ("courses", "a3"): "7bff73fea4399953fa160c7b4ca862ddcebd4742ae355d69da91bec2cb0f0aae",
    ("courses", "a4"): "9b316fd0c9e3c13e836167819ce4463a963613d257f0a68c5677e3f8ac1bb939",
    ("courses", "a3 --pick 0"): "7bff73fea4399953fa160c7b4ca862ddcebd4742ae355d69da91bec2cb0f0aae",
    ("courses", "a4 --extend-feasible"):
        "a5114e87413f89bfdb84c3cfdd0220a591822535ab49f1a95772eac906f83f5e",
    ("intransitive_importance", "a1"):
        "6ceb1ce3df8985bd2e4bb1df66cb75ffdb394e404eea5025f12e590c9be8d8e9",
    ("intransitive_importance", "a2"):
        "edfc6e8d523c67b0d9c548f3289ecc5a327bb81e680ae37accab050ad38f5744",
    ("intransitive_importance", "a3"):
        "d9f0d506c2451777151dbbc2435a99497baf22e49fe9a3109af7150d81672c9a",
    ("intransitive_importance", "a4"):
        "4a5932517da57c6d90f64464e0c1b1c4595867915790710e85e72cda9abd48c9",
    ("intransitive_importance", "a3 --pick 0"):
        "2c7fee94f80d7896ab954a409a5aaa054df1643225fd181a40a0b7722be8948d",
    ("intransitive_importance", "a4 --extend-feasible"):
        "5e7b2a43b50a0d66192eea89bd2fecd279e508a0e8499d37d4ee4deaad72c7f5",
    ("interleave_unsound", "a1"): "a7fe68c8571a958af96b4f03d7d19f9aa4cfccc6c73191c4b0e60fa48d23bdbe",
    ("interleave_unsound", "a2"): "27ffd764bc4acb3c53f94daedca7bdca85813bbba3b4623119450830ffa98f33",
    ("interleave_unsound", "a3"): "13ca73627cd5af2ce66e3481b399c436021a98b65e9296e1f3e2a97e069f7498",
    ("interleave_unsound", "a4"): "56c0831df0f2508313e044d478a4501d1d1146b97542a75015b395badae71d9c",
    ("interleave_unsound", "a3 --pick 0"):
        "13ca73627cd5af2ce66e3481b399c436021a98b65e9296e1f3e2a97e069f7498",
    ("interleave_unsound", "a4 --extend-feasible"):
        "2f1771dba25a63f4f12f187b6892f7633d2d2c1c9f9ecc0850b7e5de2bbf34ac",
    ("tradeoff_compromise", "a1"): "d15046500bd24c04d135fd7f6e91e755284979b360330ed7d947993ae7c8ff92",
    ("tradeoff_compromise", "a2"): "a5e9e926b0f234f87b516bc7c70307408fe701de73e6da95000eb57c8ffcd2a4",
    ("tradeoff_compromise", "a3"): "d5ef092cae5ef83482475bc86b113f1229a67b0bf7c5594d1a3d4edd15a2d16a",
    ("tradeoff_compromise", "a4"): "40d17c67c369366b5d0e4ac549253584ab8de5d9b0cddb76f05382d586f06c8f",
    ("tradeoff_compromise", "a3 --pick 0"):
        "08d8bfd7437b73d5f078fd3a5d506e88dddab9c6dc745f32723448949583c75b",
    ("tradeoff_compromise", "a4 --extend-feasible"):
        "4b18c1cd69cb4d53ac565f659509b2aa6ed106ce337c27c00a1867dc28247c8a",
    ("single_attribute_unsound", "a1"):
        "d8f73e8e5e05e40e2571bcf312034460f989efe6699fba81024cf0dc6a1d37c7",
    ("single_attribute_unsound", "a2"):
        "c6cf6f0db7d558f21735a525cd2f86ac102ac50b540e8fea77d3d54bf26be1e3",
    ("single_attribute_unsound", "a3"):
        "4c64d12eede4b7f2670dd1f8919d230be5e0e52cb81a4b67d430557e17e07f10",
    ("single_attribute_unsound", "a4"):
        "79a1db618019e389947aab2ac6aa54d0a4708c4a36cac9f4d1d44d8435d249a2",
    ("single_attribute_unsound", "a3 --pick 0"):
        "167f7618b11d2482ce1aafa94916b577bbed587a447179b535f121d4e901a155",
    ("single_attribute_unsound", "a4 --extend-feasible"):
        "c3d1d215093afabea753d9d9859bfdd967fa5f2d73561dd6e6a98c3e6d610559",
}


@pytest.mark.parametrize("name, options", sorted(_SOLVE_DIGESTS))
def test_solve_output_is_pinned(capsys, name, options):
    algorithm, *rest = options.split()
    assert main(["solve", name, "--algorithm", algorithm, *rest]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == _SOLVE_DIGESTS[name, options]


# The simulate output of four command lines, pinned byte for byte.  Like the
# recorded benchmark pools, these rely on NumPy's Generator streams.
_SIMULATE_DIGESTS = {
    "--reps 3 --seed 7": "cd2d57b4f2f874ecebc304c87bf4da6a9f28e2161c3d9de37419e90a16204f7a",
    "--valuation-mode aggregated --algorithms a1,a2,a3,a4":
        "e5ab383d746c112b0ed63c9932cfdfeb69f6e89a285651072df9662a58f3b83f",
    # T_ms adds 0.1 once per extension call: 3.0000000000000013 after 30 calls
    "--fdelay 0.1 --r 60": "23ffb774f146c61ae8e21c2f95066f6e808c502368809898f6f660ac608006b9",
    "--fdelay 0 --m 8": "df64ad2dfbdb6474d705eec28d00e4679833d09e333cd21e659f8461b0758c0d",
}


@pytest.mark.parametrize("options", sorted(_SIMULATE_DIGESTS))
def test_simulate_output_is_pinned(capsys, options):
    assert main(["simulate", *options.split()]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == _SIMULATE_DIGESTS[options]


# An aggregated simulate-block instance whose tree covers every aggregation
# kind: a sum with -0.0 and 1e16 values (the summation order shows in the
# low digits), min and max over total orders, a best frontier, and a
# 70-value worst frontier, whose flag rows pass the 64th value.
_TREE_DOC = {
    "format": 1,
    "attributes": [
        {"name": "cost", "domain": ["zero", "huge", "one", "half", "neg"],
         "agg": "sum", "numeric_values": [-0.0, 1e16, 1.0, 0.5, -3.25], "sum_polarity": "lower"},
        {"name": "tier", "domain": ["t0", "t1", "t2", "t3", "t4"],
         "intra_edges": [["t0", "t1"], ["t1", "t2"], ["t2", "t3"], ["t3", "t4"]], "agg": "min"},
        {"name": "grade", "domain": ["g0", "g1", "g2", "g3"],
         "intra_edges": [["g2", "g0"], ["g0", "g3"], ["g3", "g1"]], "agg": "max"},
        {"name": "fit", "domain": [f"f{i}" for i in range(6)],
         "intra_edges": [["f0", "f2"], ["f1", "f2"], ["f2", "f4"], ["f3", "f5"]],
         "agg": "best_frontier"},
        {"name": "risk", "domain": [f"w{i}" for i in range(70)],
         "intra_edges": [[f"w{i}", f"w{j}"] for i in range(70) for j in (i + 9, i + 31)
                         if j < 70 and i % 4],
         "agg": "worst_frontier"},
    ],
    "importance_edges": [["tier", "cost"], ["tier", "fit"], ["risk", "fit"], ["grade", "fit"]],
    "components": [],
    "simulate": {"repo_size": 60, "seed": 11, "feas": 0.5, "valuation_mode": "aggregated"},
}

_TREE_DIGESTS = {
    "a1": "444c3ea78e9689e90e366efb0b3ed7b9183d898a240a1baa40db5f6998b1f7f9",
    "a2": "faacf7c3c2aae5aa9f14913fb2083f7033e4a1920ff4454b3f5a25c715096798",
    "a3": "017fa97f63c42743be0fe7e6ea94c9c8e620c137e256e0899d3d7315b411475e",
    "a4": "627218ad24b1b1f4aa0b586c60b54534abafafc6f1bd33d2a03bd7a43b281046",
}


@pytest.mark.parametrize("algorithm", sorted(_TREE_DIGESTS))
def test_solve_on_an_aggregated_tree_of_every_kind_is_pinned(tmp_path, capsys, algorithm):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(_TREE_DOC))
    assert main(["solve", str(path), "--algorithm", algorithm]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == _TREE_DIGESTS[algorithm]


def _random_document(rng):
    """An explicit document with one attribute of every aggregation kind (a
    sum of each polarity), in random order, over partial value orders where
    the kind allows; importance that is empty, partial, or the non-interval
    {0>2, 1>3}; and one component that repeats another's valuation, so
    equal valuations appear among the compositions."""
    kinds = rng.permutation(["worst_frontier", "best_frontier", "min", "max", "sum", "sum"]).tolist()
    attributes = []
    for k, agg in enumerate(kinds):
        domain = [f"a{k}v{v}" for v in range(int(rng.integers(2, 6)))]
        attr = {"name": f"a{k}", "domain": domain, "agg": agg}
        if agg == "sum":
            attr["numeric_values"] = rng.integers(-3, 4, size=len(domain)).tolist()
            attr["sum_polarity"] = ("lower", "higher")[kinds[:k].count("sum")]
        else:
            ranked = rng.permutation(domain).tolist()
            total = agg in ("min", "max")
            attr["intra_edges"] = [[x, y] for i, x in enumerate(ranked) for y in ranked[i + 1:]
                                   if total or rng.random() < 0.4]
        attributes.append(attr)
    names = [attr["name"] for attr in attributes]
    importance = [
        [],
        [[names[i], names[j]] for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.3],
        [[names[0], names[2]], [names[1], names[3]]],
    ][int(rng.integers(0, 3))]
    components = [
        {"name": f"C{c}", "valuation": {attr["name"]: str(rng.choice(attr["domain"])) for attr in attributes}}
        for c in range(int(rng.integers(3, 7)))
    ]
    components[-1]["valuation"] = dict(components[0]["valuation"])
    feasible = [rng.choice([c["name"] for c in components], size=int(rng.integers(1, 4))).tolist()
                for _ in range(int(rng.integers(4, 12)))]
    return {"format": 1, "attributes": attributes, "importance_edges": importance,
            "components": components, "feasible_sets": feasible}


def test_the_annotation_is_the_pairwise_witness():
    """Every ``dominance_among_solutions`` entry, read from one pool of the
    solutions, is ``dominates`` of its ordered pair, and every ordered pair
    that ``dominates`` gives a witness is annotated: for each algorithm's
    answer and for every feasible composition as the answer, on random
    explicit documents and on the aggregated simulate-block instance."""
    rng = np.random.default_rng(26)
    documents = [_random_document(rng) for _ in range(40)] + [_TREE_DOC]
    annotated = 0
    for doc in documents:
        instance = parse_instance(copy.deepcopy(doc))
        spec = instance.spec
        results = [ALGORITHMS[name](spec, cli._provider_for(instance, cli.DEFAULT_BUDGET)) for name in ALGORITHMS]
        every = cli._provider_for(instance, cli.DEFAULT_BUDGET).all_feasible()
        results.append(dataclasses.replace(results[0], solutions=every))
        for result in results:
            comps = result.solutions
            expected = [
                {"winner": i, "loser": j, "witness": dominates(spec, a.valuation, b.valuation)}
                for i, a in enumerate(comps) for j, b in enumerate(comps)
                if i != j and dominates(spec, a.valuation, b.valuation) is not None
            ]
            assert cli.run_result_json(instance, result)["dominance_among_solutions"] == expected
            annotated += len(expected)
    assert annotated > 100


# The solve output of a1-a4 on the random explicit documents above, pinned
# byte for byte as one digest.  Of the bundled fixtures only courses holds a
# sum; these documents hold two, of both polarities, over partial orders.
_RANDOM_DOCUMENTS_DIGEST = "fcda11f6aabc08f37047c382554d0e4dc9140dcd0d1a1e6b59d9a322e7a6897e"


def test_solve_on_random_explicit_documents_is_pinned(tmp_path, capsys):
    rng = np.random.default_rng(26)
    digest = hashlib.sha256()
    for k in range(40):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(_random_document(rng)))
        for algorithm in ("a1", "a2", "a3", "a4"):
            assert main(["solve", str(path), "--algorithm", algorithm]) == EXIT_OK
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _RANDOM_DOCUMENTS_DIGEST
