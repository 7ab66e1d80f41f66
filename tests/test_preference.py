"""Preference-spec validation and most-important attributes."""

from __future__ import annotations

from prefcompose import (
    AggKind,
    AttributeSchema,
    PreferenceSpec,
    build_order,
    classify,
    most_important_set,
    validate,
)

from prefcompose.simulator import SimConfig, random_spec

from conftest import frontier_spec, sum_attribute


def two_chain_importance_spec():
    return frontier_spec(
        [(("a", "b"), [(0, 1)])] * 4,
        importance_edges=[(0, 2), (1, 3)],
    )


def chain_importance_spec():
    # importance chain: x0 over x1 over x2
    return frontier_spec(
        [(("a", "b"), [(0, 1)])] * 3,
        importance_edges=[(0, 1), (1, 2)],
    )


def test_non_interval_importance_fails_under_strict():
    report = validate(two_chain_importance_spec(), strict_interval=True)
    assert not report.ok
    assert any("interval" in problem for problem in report.errors)


def test_non_interval_importance_warns_by_default():
    report = validate(two_chain_importance_spec())
    assert report.ok
    assert any("interval" in warning for warning in report.warnings)


def test_total_importance_chain_passes():
    report = validate(chain_importance_spec(), strict_interval=True)
    assert report.ok and not report.warnings


def test_min_aggregation_requires_total_value_order():
    attr = AttributeSchema(
        attr_id=0,
        name="x0",
        domain=("a", "b", "c"),
        intra_order=build_order([(0, 1)], 3),  # partial: c incomparable
        agg_kind=AggKind.MIN,
    )
    spec = PreferenceSpec((attr,), build_order([], 1))
    report = validate(spec)
    assert not report.ok
    assert any("total" in problem for problem in report.errors)


def test_sum_aggregation_requires_numeric_values_and_polarity():
    attr = AttributeSchema(
        attr_id=0,
        name="cost",
        domain=("1", "2"),
        intra_order=build_order([], 2),
        agg_kind=AggKind.SUM,
    )
    spec = PreferenceSpec((attr,), build_order([], 1))
    report = validate(spec)
    assert sum("sum" in problem for problem in report.errors) == 2


def test_sum_attribute_helper_is_valid():
    spec = PreferenceSpec((sum_attribute(0, "cost", (1, 2, 3)),), build_order([], 1))
    assert validate(spec).ok


def test_most_important_of_empty_importance_is_everything():
    spec = frontier_spec([(("a", "b"), [(0, 1)])] * 2, importance_edges=[])
    assert most_important_set(spec) == {0, 1}


def test_most_important_of_chain_is_top():
    assert most_important_set(chain_importance_spec()) == {0}


def test_most_important_of_singleton():
    spec = frontier_spec([(("a", "b"), [(0, 1)])], importance_edges=[])
    assert most_important_set(spec) == {0}


def test_most_important_members_are_undominated():
    for spec in (two_chain_importance_spec(), chain_importance_spec()):
        chosen = most_important_set(spec)
        assert chosen
        for i in chosen:
            assert not any(
                spec.importance.dominates(j, i) for j in range(spec.attr_count)
            )


def test_total_importance_has_single_most_important():
    spec = chain_importance_spec()
    assert classify(spec.importance).is_total
    assert len(most_important_set(spec)) == 1


def test_course_instance_ranks_instructor_first():
    from prefcompose.cli import load_instance

    courses = load_instance("courses")
    (top,) = most_important_set(courses.spec)
    assert courses.spec.attributes[top].name == "instructor"


def test_most_important_set_is_its_definition(rng):
    """{a : no b is more important than a}, on random importance orders of
    every kind the simulator accepts, empty ones included."""
    for kind in ("po", "to", "io", "wo"):
        for m in range(1, 9):
            for density in (0.0, 0.3, 0.7):
                config = SimConfig(
                    domain_size=2, attr_count=m, importance_kind=kind, density=density
                )
                spec = random_spec(config, rng)
                expected = {
                    a for a in range(m)
                    if not any(spec.importance.dominates(b, a) for b in range(m))
                }
                assert most_important_set(spec) == expected
                assert expected
