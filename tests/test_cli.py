"""Command-line behavior: exit codes, output formats, determinism, input errors."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefcompose.cli import (
    EXIT_BUDGET,
    EXIT_EXPECTATION,
    EXIT_INPUT,
    EXIT_OK,
    InstanceError,
    main,
    parse_instance,
)
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
    doc = json.loads(open(fixture_path("tradeoff_compromise")).read())
    del doc["format"]
    path = tmp_path / "noformat.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_INPUT


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
    pytest.param(["simulate", "--real-sleep"], "--real-sleep", id="real-sleep"),
    pytest.param(["solve", "courses", "--budget", "-1"], "--budget", id="budget=-1"),
])
def test_bad_counts_and_lists_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert flag in captured.err and not captured.out


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
    doc = json.loads(open(fixture_path("tradeoff_compromise")).read())
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
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out"
    assert main([*argv, str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: "), err


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
_FIXTURE_DOCS = {name: json.loads(open(fixture_path(name)).read()) for name in NAMES}


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
