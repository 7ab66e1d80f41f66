"""Behavior and guarantees of the four composition-search algorithms."""

from __future__ import annotations

from dataclasses import replace

import pytest

from prefcompose import (
    AggValue,
    BudgetExceeded,
    ExplicitProvider,
    PreferenceSpec,
    Valuation,
    att_weakly_complete_compose,
    build_order,
    compose_and_filter,
    interleave_compose,
    weakly_complete_compose,
)
from prefcompose.aggregation import strictly_preferred
from prefcompose.algorithms import ALGORITHMS
from prefcompose.cli import load_instance, main
from prefcompose.composition import Component, Composition
from prefcompose.dominance import PackedPool
from prefcompose.oracle import (
    brute_nondominated,
    check_completeness,
    check_soundness,
    check_weak_completeness,
)
from prefcompose.order import FIRST, NEITHER, SECOND, maximal_set
from prefcompose.preference import most_important_set
from prefcompose.simulator import SimConfig, generate_tree, random_spec, tree_provider

from conftest import counting_packs, counting_tables, mixed_spec_and_pool, sum_attribute, with_near_ties


def _provider(instance, **kwargs):
    return ExplicitProvider(
        instance.spec, instance.components, instance.feasible_sequences, **kwargs
    )


def _names(instance, result):
    return sorted(
        tuple(sorted(instance.components[m].name for m in comp.members))
        for comp in result.solutions
    )


def _truth(instance):
    feasible = _provider(instance).all_feasible()
    return brute_nondominated(
        instance.spec, [(c.key(), c.valuation) for c in feasible]
    )


@pytest.fixture(scope="module")
def unsound():
    return load_instance("interleave_unsound")


@pytest.fixture(scope="module")
def tradeoff():
    return load_instance("tradeoff_compromise")


@pytest.fixture(scope="module")
def single_attr():
    return load_instance("single_attribute_unsound")


def test_filter_algorithm_on_bundled_tree(unsound):
    result = compose_and_filter(unsound.spec, _provider(unsound))
    assert _names(unsound, result) == [("W2",), ("W3", "W4")]


def test_filter_algorithm_keeps_all_balanced_options(tradeoff):
    result = compose_and_filter(tradeoff.spec, _provider(tradeoff))
    assert _names(tradeoff, result) == [("C1",), ("C2",), ("C3",)]


def test_filter_algorithm_with_no_feasible_compositions(unsound):
    provider = ExplicitProvider(unsound.spec, unsound.components, [])
    assert compose_and_filter(unsound.spec, provider).solutions == []


def test_union_algorithm_misses_the_compromise(tradeoff):
    result = weakly_complete_compose(tradeoff.spec, _provider(tradeoff))
    assert _names(tradeoff, result) == [("C1",), ("C2",)]
    truth = _truth(tradeoff)
    assert check_soundness(result, truth)
    assert check_weak_completeness(result, truth)
    assert not check_completeness(result, truth)


def test_union_algorithm_reuses_one_enumeration(tradeoff):
    provider = _provider(tradeoff)
    weakly_complete_compose(tradeoff.spec, provider)
    # one call for the root; each singleton composition is terminal
    assert provider.invocation_count == 1


def test_single_attribute_algorithm_first_pick(single_attr):
    result = att_weakly_complete_compose(single_attr.spec, _provider(single_attr))
    assert result.config["picked_attribute"] == 0
    assert _names(single_attr, result) == [("C1",), ("C3",)]


def test_single_attribute_algorithm_second_pick(single_attr):
    result = att_weakly_complete_compose(
        single_attr.spec, _provider(single_attr), pick_seed=0
    )
    assert result.config["picked_attribute"] == 1
    assert _names(single_attr, result) == [("C1",), ("C2",)]


def test_single_attribute_algorithm_not_sound_but_weakly_complete(single_attr):
    truth = _truth(single_attr)
    assert sorted(map(str, truth)) == ["(0,)"]
    for seed in (None, 0):
        result = att_weakly_complete_compose(
            single_attr.spec, _provider(single_attr), pick_seed=seed
        )
        assert check_weak_completeness(result, truth)
        assert not check_soundness(result, truth)


def test_interleave_returns_the_known_unsound_pair(unsound):
    result = interleave_compose(unsound.spec, _provider(unsound))
    assert _names(unsound, result) == [("W1",), ("W2",)]
    truth = _truth(unsound)
    assert not check_soundness(result, truth)
    assert check_weak_completeness(result, truth)


def test_interleave_expansion_is_cheaper(unsound):
    p1, p4 = _provider(unsound), _provider(unsound)
    r1 = compose_and_filter(unsound.spec, p1)
    r4 = interleave_compose(unsound.spec, p4)
    assert r4.fcount <= r1.fcount
    assert (r1.fcount, r4.fcount) == (2, 1)


def test_interleave_extends_feasible_compositions_when_asked():
    from prefcompose import PreferenceSpec, build_order
    from prefcompose.aggregation import AggValue, Valuation
    from prefcompose.composition import Component
    from prefcompose.preference import SumPolarity

    gain = sum_attribute(0, "gain", (2.0, 5.0), polarity=SumPolarity.HIGHER_IS_BETTER)
    spec = PreferenceSpec((gain,), build_order([], 1))
    components = [
        Component(0, "A", Valuation((AggValue.of_scalar(5.0),))),
        Component(1, "B", Valuation((AggValue.of_scalar(2.0),))),
    ]
    sequences = [[0], [0, 1]]  # both A alone and A+B are feasible
    stopped_early = interleave_compose(
        spec, ExplicitProvider(spec, components, sequences), extend_feasible=False
    )
    assert [c.members for c in stopped_early.solutions] == [(0,)]
    kept_going = interleave_compose(
        spec, ExplicitProvider(spec, components, sequences), extend_feasible=True
    )
    assert [c.members for c in kept_going.solutions] == [(0, 1)]


def test_interleave_retains_dominated_partials_until_termination():
    # B starts out dominated by A, but A's one-step extension drops the value
    # that beat B; B must still be around to extend, and its extension ends
    # up in the answer.
    from prefcompose import PreferenceSpec, build_order
    from prefcompose.aggregation import AggValue, Valuation
    from prefcompose.composition import Component
    from prefcompose.preference import AggKind, AttributeSchema

    attr = AttributeSchema(
        0, "x", ("a1", "a2", "a4", "a5"),
        build_order([(0, 1), (0, 2)], 4),  # a1 beats a2 and a4
        AggKind.WORST_FRONTIER,
    )
    spec = PreferenceSpec((attr,), build_order([], 1))
    single = lambda v: Valuation((AggValue.of_frontier((v,)),))
    components = [
        Component(0, "A", single(0)),
        Component(1, "W", single(2)),
        Component(2, "B", single(1)),
        Component(3, "X", single(3)),
    ]
    provider = ExplicitProvider(spec, components, [[0, 1], [2, 3]])
    result = interleave_compose(spec, provider)
    assert sorted(c.members for c in result.solutions) == [(0, 1), (2, 3)]
    truth = brute_nondominated(
        spec,
        [(c.key(), c.valuation) for c in ExplicitProvider(spec, components, [[0, 1], [2, 3]]).all_feasible()],
    )
    assert check_completeness(result, truth) and check_soundness(result, truth)


def test_harness_records_budget_exhaustion_as_empty_run(rng):
    from prefcompose.simulator import SimConfig, generate_tree, random_spec, run_instance

    config = SimConfig(repo_size=30, feas=1.0)
    spec = random_spec(config, rng)
    tree = generate_tree(spec, config, rng)
    records = run_instance(spec, tree, config, ("a1",), seed=1, budget=2)
    assert len(records) == 1
    assert records[0].S == records[0].SP == 0
    assert records[0].F > 0
    # the call that exceeds the budget is counted and charged its delay
    assert (records[0].fcount, records[0].T_ms) == (3, 3.0)


def test_run_cost_is_the_change_in_provider_counters(rng):
    config = SimConfig(repo_size=30, feas=1.0)
    spec = random_spec(config, rng)
    tree = generate_tree(spec, config, rng)
    provider = tree_provider(tree, fdelay_ms=0.5)
    for name, run in ALGORITHMS.items():
        before = provider.invocation_count
        result = run(spec, provider)
        assert result.fcount == provider.invocation_count - before > 0, name
        assert result.elapsed_ms == 0.5 * result.fcount, name


def test_results_contain_only_feasible_compositions(rng):
    for _ in range(30):
        config = SimConfig(
            feas=(0.25, 0.5, 0.75, 1.0)[int(rng.integers(0, 4))],
            domain_size=4,
            attr_count=4,
            repo_size=int(rng.integers(5, 40)),
        )
        spec = random_spec(config, rng)
        tree = generate_tree(spec, config, rng)
        for run in (
            compose_and_filter,
            weakly_complete_compose,
            att_weakly_complete_compose,
            interleave_compose,
        ):
            provider = tree_provider(tree)
            result = run(spec, provider)
            for comp in result.solutions:
                assert provider.is_feasible(comp)


def test_budget_exhaustion_propagates(unsound):
    with pytest.raises(BudgetExceeded):
        compose_and_filter(unsound.spec, _provider(unsound, budget=1))
    with pytest.raises(BudgetExceeded):
        interleave_compose(unsound.spec, _provider(unsound, budget=0))


def test_unknown_pick_policy_rejected(capsys):
    # a3's pick is the lowest id or an integer seed; anything else is a usage error
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "interleave_unsound", "--algorithm", "a3", "--pick", "whatever"])
    assert exit_info.value.code == 2
    assert "--pick" in capsys.readouterr().err


def _attribute_best(spec, comps, attr_id):
    """The maximal set of comps under strict preference on one attribute."""
    attr = spec.attributes[attr_id]

    def cmp(a, b):
        if strictly_preferred(attr, a.valuation[attr_id], b.valuation[attr_id]):
            return FIRST
        if strictly_preferred(attr, b.valuation[attr_id], a.valuation[attr_id]):
            return SECOND
        return NEITHER

    return maximal_set(comps, cmp)[0]


def test_attribute_filter_matches_maximal_set_over_strict_preference(rng):
    for trial in range(200):
        spec, pool = mixed_spec_and_pool(rng, ("io", "po", "to", "wo")[trial % 4])
        comps = [Composition((i,), v, i) for i, v in enumerate(with_near_ties(spec, pool))]
        packed = PackedPool(spec, [c.valuation for c in comps])
        for attr_id in range(spec.attr_count):
            expected = _attribute_best(spec, comps, attr_id)
            kept = [comps[j] for j in packed.best_on(attr_id)]
            assert [c.key() for c in kept] == sorted(c.key() for c in expected)


def _a2_cases(rng):
    """(spec, pool, feasible) triples: 120 random frontier+sum pools with near
    ties and duplicates; 20 with one attribute, frontier or sum; 20 of 40-59
    entries whose distinct costs leave the cost attribute (a sum) a best set
    of one or two entries, with cost alone or every attribute most important;
    and 8 with no feasible composition."""
    kinds = ("io", "po", "to", "wo")
    for trial in range(120):
        spec, pool = mixed_spec_and_pool(rng, kinds[trial % 4])
        yield spec, with_near_ties(spec, pool), True
    for trial in range(20):
        spec, pool = mixed_spec_and_pool(rng, kinds[trial % 4])
        i = (0, spec.attr_count - 1)[trial % 2]
        attr = replace(spec.attributes[i], attr_id=0)
        spec = PreferenceSpec((attr,), build_order([], 1))
        yield spec, with_near_ties(spec, [Valuation((v[i],)) for v in pool]), True
    for trial in range(20):
        spec, pool = mixed_spec_and_pool(rng, kinds[trial % 4], pool_size=int(rng.integers(40, 60)))
        cost, m = spec.attr_count - 1, spec.attr_count
        edges = [(cost, k) for k in range(cost)] if trial % 2 else []
        spec = PreferenceSpec(spec.attributes, build_order(edges, m))
        pool = [
            Valuation(v[:cost] + (AggValue.of_scalar(float(j)),))
            for j, v in enumerate(pool)
        ]
        yield spec, with_near_ties(spec, pool) if trial % 4 < 2 else pool, True
    for trial in range(8):
        spec, pool = mixed_spec_and_pool(rng, kinds[trial % 4])
        yield spec, pool, False


def test_a2_and_a3_answers_from_attribute_best_sets(rng, monkeypatch):
    """a3 returns the attribute-best set of its picked attribute; a2 the
    union, over the most important attributes, of the non-dominated part of
    each attribute-best set.  Each gathers exactly one pool, of the feasible
    rows of the provider's packed table, and reads every best set and filter
    from it: no ``pack_valuations`` or ``packed_table`` call is made during
    a run, so the provider's builder packs the only table."""
    packs, gathers = counting_packs(monkeypatch)
    tables = counting_tables(monkeypatch)
    small_sum_best = 0
    for trial, (spec, pool, feasible) in enumerate(_a2_cases(rng)):
        comps = [Composition((i,), v, i) for i, v in enumerate(pool)] if feasible else []
        components = [Component(i, f"c{i}", v) for i, v in enumerate(pool)]

        def provider():
            return ExplicitProvider(spec, components, [[c.members[0]] for c in comps])

        for found in (packs, gathers, tables):
            found.clear()
        a3 = att_weakly_complete_compose(spec, provider(), pick_seed=trial)
        assert packs == [] and gathers == [len(comps)] and tables == [len(comps) + 1]
        best = _attribute_best(spec, comps, a3.config["picked_attribute"])
        assert sorted(c.members[0] for c in a3.solutions) == sorted(c.members[0] for c in best)
        expected = set()
        for attr_id in most_important_set(spec):
            best = _attribute_best(spec, comps, attr_id)
            expected |= brute_nondominated(spec, [(c.members[0], c.valuation) for c in best])
            if len(comps) >= 40 and spec.attributes[attr_id].name == "cost":
                small_sum_best += len(best) <= 2
        gathers.clear()
        tables.clear()
        a2 = weakly_complete_compose(spec, provider())
        assert packs == [] and gathers == [len(comps)] and tables == [len(comps) + 1]
        assert sorted(c.members[0] for c in a2.solutions) == sorted(expected)
    assert small_sum_best >= 20


def test_a_member_set_reached_two_ways_carries_one_sum():
    """One sum attribute with a = 1e16, b = c = 1 and e = 1e16 + 2: float64
    sums {a, b, c} to 1e16 along (a, b, c) and to 1e16 + 2 along (b, c, a).
    A state's sums are a function of its members, so both sequences give one
    object, and a1-a4 answer the oracle's member sets with the same sums."""
    attr = sum_attribute(0, "cost", (1e16, 1, 1, 1e16 + 2))
    spec = PreferenceSpec((attr,), build_order([], 1))
    components = [
        Component(i, name, Valuation((AggValue.of_scalar(x),)))
        for i, (name, x) in enumerate(zip("abce", attr.numeric_values))
    ]
    sequences = [[1, 2, 0], [0, 1, 2], [3]]
    feasible = ExplicitProvider(spec, components, sequences).all_feasible()
    assert feasible[0] is feasible[1]
    sums = {c.key(): c.valuation[0].scalar for c in feasible}
    truth = brute_nondominated(spec, [(c.key(), c.valuation) for c in feasible])
    for name, algorithm in ALGORITHMS.items():
        result = algorithm(spec, ExplicitProvider(spec, components, sequences))
        answer = {c.key(): c.valuation[0].scalar for c in result.solutions}
        assert answer == {key: sums[key] for key in truth}, name
