"""Exact expectations, backward induction, the uncompressed search, and the
order-statistics inequality."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staged_select as ss
from scalar_reference import literal_profile_search, reference_search
from staged_select import oracle
from staged_select.errors import (
    ConfigInvalid,
    EnumerationTooLarge,
    IndependenceViolated,
    PreconditionViolated,
    SearchTooLarge,
    StrategyViolation,
    ValueHidden,
)

MODEL_A = ss.rademacher(1)
SCHEDULE_A = ss.validate_schedule([1, 2], [2, 1], N=3, T=2)

# the acceptance gate's six discrete certification instances
INSTANCES = {
    "A": (ss.rademacher(1), ss.validate_schedule([1, 2], [2, 1], N=3, T=2)),
    "B": (ss.discrete([1, -1], ["2/3", "1/3"]), ss.validate_schedule([1, 2], [2, 1], N=4, T=2)),
    "C": (ss.discrete([1, 0, -1], ["1/3", "1/3", "1/3"]),
          ss.validate_schedule([1, 2], [2, 1], N=3, T=2)),
    "D": (ss.rademacher(1), ss.validate_schedule([1, 2, 3], [3, 2, 1], N=4, T=3)),
    "E": (ss.discrete([2, -1, 0], ["1/6", "1/3", "1/2"]),
          ss.validate_schedule([1, 2], [3, 1], N=4, T=2)),
    "F": (ss.discrete([1, -1], ["1/2", "1/2"]), ss.validate_schedule([2, 3], [2, 1], N=3, T=3)),
}


# --- exact expectations -------------------------------------------------------

def test_greedy_exact_value_instance_a():
    v = ss.exact_expected_value(MODEL_A, SCHEDULE_A, ss.greedy_strategy())
    assert v.value == Fraction(17, 16)
    assert str(v) == "17/16"


def test_degenerate_support_gives_zero_for_every_strategy():
    model = ss.discrete([0], ["1"])
    for strat in ss.full_catalog():
        v = ss.exact_expected_value(model, SCHEDULE_A, strat)
        assert v.value == 0


def test_anti_greedy_below_greedy():
    anti = ss.baseline_strategies()["anti_greedy"]
    v = ss.exact_expected_value(MODEL_A, SCHEDULE_A, anti)
    assert v.value <= Fraction(17, 16)


def test_catalog_never_beats_greedy_instance_a():
    values = ss.exact_expected_values(MODEL_A, SCHEDULE_A, ss.full_catalog())
    greedy = next(v for v in values if v.strategy == "greedy")
    assert all(v.value <= greedy.value for v in values)


def test_exact_value_refuses_drift_models():
    drift = ss.drift_model(ss.rademacher(1), [1, -1], ["1/2", "1/2"])
    with pytest.raises(IndependenceViolated):
        ss.exact_expected_value(drift, SCHEDULE_A, ss.greedy_strategy())
    with pytest.raises(IndependenceViolated):
        ss.dp_optimal_value(drift, SCHEDULE_A)


def test_exact_value_respects_cap():
    with pytest.raises(EnumerationTooLarge):
        ss.exact_expected_value(MODEL_A, SCHEDULE_A, ss.greedy_strategy(), cap=10)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_history_tree_equals_per_atom_reference(name):
    # the scalar reference: run every strategy on every enumerated atom
    model, s = INSTANCES[name]
    atoms = ss.enumerate_paths(model, s.N, s.T)
    catalog = ss.full_catalog()
    values = ss.exact_expected_values(model, s, catalog)
    for strat, got in zip(catalog, values):
        reference = sum(p * ss.run_selection(x, s, strat).final_value for x, p in atoms)
        assert type(got.value) is Fraction
        assert got.value == reference, (name, strat.describe())
        assert got.strategy == strat.describe()


def _peek_at_casualty(view, size):
    gone = [i for i in range(view.n_processes) if i not in view.survivors]
    if gone:
        view.value_at(gone[0], view.time)
    return view.survivors[:size]


def _peek_at_future(view, size):
    view.value_at(view.survivors[0], view.final_time)
    return view.survivors[:size]


@pytest.mark.parametrize("chooser", [_peek_at_casualty, _peek_at_future])
def test_history_tree_hides_values_past_each_horizon(chooser):
    peek = ss.Strategy(name="peek", chooser=chooser)
    with pytest.raises(ValueHidden):
        ss.exact_expected_value(MODEL_A, SCHEDULE_A, peek)


def test_history_tree_rejects_wrong_size_picks():
    bad = ss.Strategy(name="bad", chooser=lambda view, size: view.survivors)
    with pytest.raises(StrategyViolation):
        ss.exact_expected_value(MODEL_A, SCHEDULE_A, bad)


def test_history_tree_sees_eliminated_rows_frozen():
    # a stage-2 view shows the casualty's path up to t_1 and nothing later
    seen = set()

    def probe(view, size):
        if view.stage == 2:
            gone = next(i for i in range(view.n_processes) if i not in view.survivors)
            seen.add((view.horizon(gone), len(view.path(gone)),
                      len(view.step_increments(gone))))
        return view.survivors[:size]

    ss.exact_expected_value(MODEL_A, SCHEDULE_A, ss.Strategy(name="probe", chooser=probe))
    assert seen == {(1, 2, 1)}


def test_exact_value_needs_discrete_steps():
    for model in (ss.gaussian(0, 1), ss.uniform(-1, 1)):
        with pytest.raises(ConfigInvalid, match="discrete-step model"):
            ss.exact_expected_value(model, SCHEDULE_A, ss.greedy_strategy())


# --- the frontier walk on every grid --------------------------------------------

# supports that take the walk's other arithmetic: a support with
# denominators (the float64 grid scaled by 6), one past the 2**52 guard (the
# Fraction object grid), and probabilities whose common denominator to the
# power of the walk's 5 steps overflows int64 (Python-int sums)
GRIDS = {
    "H": (ss.discrete(["1/2", "-1/3"], ["2/5", "3/5"]), ss.validate_schedule([1, 3], [2, 1], N=3, T=3)),
    "G": (ss.discrete([2 ** 60, -1], ["1/2", "1/2"]), SCHEDULE_A),
    "P": (ss.discrete([1, -1], ["1/1000003", "1000002/1000003"]), SCHEDULE_A),
}
ALL_INSTANCES = {**INSTANCES, **GRIDS}
# a custom chooser, not a `RankRule`: decided row by row on the object grid
KEEP_WORST = ss.Strategy(
    name="keep_worst",
    chooser=lambda v, n: sorted(v.survivors, key=lambda i: (v.value_at(i, v.time), i))[:n],
)


def test_grids_take_each_branch():
    scaled = oracle.exact_grid(GRIDS["H"][0], 3, True)
    assert scaled[0] == 6 and scaled[1].tolist() == [3.0, -2.0]
    for disc, scale_invariant in ((GRIDS["G"][0], True), (GRIDS["H"][0], False)):
        scale, grid = oracle.exact_grid(disc, 3, scale_invariant)
        assert scale == 1 and grid.dtype == object and grid.tolist() == list(disc.support)
    assert 1000003 ** 5 > 2 ** 63


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_frontier_walk_equals_per_atom_reference(name):
    # the catalog on A-F is pinned above; here the other grids, and the
    # custom chooser everywhere
    model, s = ALL_INSTANCES[name]
    strategies = [*ss.full_catalog(), KEEP_WORST] if name in GRIDS else [KEEP_WORST]
    atoms = ss.enumerate_paths(model, s.N, s.T)
    for strat, got in zip(strategies, ss.exact_expected_values(model, s, strategies)):
        reference = sum(p * ss.run_selection(x, s, strat).final_value for x, p in atoms)
        assert type(got.value) is Fraction
        assert got.value == reference, (name, strat.describe())


def _search_nodes(model, s):
    """Reachable decision histories, counted from the schedule alone."""
    disc = model.as_discrete() if isinstance(model, ss.Rademacher) else model
    histories, total, alive = 1, 0, s.N
    for (lo, hi), size in zip(s.block_bounds(), s.sizes):
        histories *= len(disc.support) ** (alive * (hi - lo))
        total += histories
        histories *= math.comb(alive, size)
        alive = size
    return total


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_search_equals_dp_and_recursive_reference(name):
    model, s = ALL_INSTANCES[name]
    res = ss.exhaustive_strategy_search(model, s)
    value, visited = reference_search(model, s)
    opt, _ = ss.dp_optimal_value(model, s)
    assert type(res.best.value) is Fraction
    assert res.best.value == value == opt.value
    assert res.decision_histories == visited == _search_nodes(model, s)


def _late(stage, misstep):
    """A chooser that keeps the first candidates, and at `stage` takes
    `misstep` instead."""
    def choose(view, size):
        if view.stage == stage:
            return misstep(view, size)
        return view.survivors[:size]
    return ss.Strategy(name="late", chooser=choose)


def _first_casualty(view):
    return next(i for i in range(view.n_processes) if i not in view.survivors)


@pytest.mark.parametrize("name", ["D", "H", "G"])
def test_strategy_errors_reach_the_caller_from_the_last_stage(name):
    # D has three stages: the errors arise deep in the walk, on the object grid
    model, s = ALL_INSTANCES[name]
    k = s.stages

    def peek(view, size):
        view.value_at(_first_casualty(view), view.time)
        return view.survivors[:size]

    with pytest.raises(ValueHidden):
        ss.exact_expected_value(model, s, _late(k, peek))
    outsider = _late(k, lambda v, n: [_first_casualty(v)])
    with pytest.raises(StrategyViolation):
        ss.exact_expected_value(model, s, outsider)
    too_many = _late(k, lambda v, n: v.survivors)
    with pytest.raises(StrategyViolation):
        ss.exact_expected_value(model, s, too_many)


def test_frontier_walk_at_the_enumeration_cap():
    # 2**20 atoms, 1,067,552 raw decision histories: the walk takes its
    # frontiers a slice at a time, so peak memory does not grow with them
    model = ss.rademacher(1)
    s = ss.validate_schedule([1, 2, 3, 4], [4, 3, 2, 1], N=5, T=4)
    tracemalloc.start()
    try:
        res = ss.exhaustive_strategy_search(model, s)
        values = ss.exact_expected_values(model, s, ss.full_catalog())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    opt, _ = ss.dp_optimal_value(model, s)
    assert res.decision_histories == _search_nodes(model, s) == 1_067_552
    assert res.best.value == opt.value == values[0].value == Fraction(17285, 8192)
    assert values[0].strategy == "greedy" and all(v.value <= opt.value for v in values)
    assert peak < 32 * 2 ** 20, peak


# --- backward induction --------------------------------------------------------

def test_dp_equals_greedy_on_instance_a():
    opt, table = ss.dp_optimal_value(MODEL_A, SCHEDULE_A)
    assert opt.value == Fraction(17, 16)
    assert len(table.entries) > 0
    rows = table.to_csv_rows()
    assert all(len(r) == 2 for r in rows)


def test_dp_degenerate_support():
    opt, _ = ss.dp_optimal_value(ss.discrete([0], ["1"]), SCHEDULE_A)
    assert opt.value == 0


def test_dp_single_stage_equals_expected_max():
    s = ss.validate_schedule([2], [1], N=2, T=2)
    opt, _ = ss.dp_optimal_value(MODEL_A, s)
    # E[max of two independent 2-step walks]: direct enumeration
    atoms = ss.enumerate_paths(MODEL_A, 2, 2)
    expected = sum(p * max(x.values[0][2], x.values[1][2]) for x, p in atoms)
    assert opt.value == expected


def test_dp_asymmetric_model():
    model = ss.discrete([2, -1], ["1/3", "2/3"])
    opt, _ = ss.dp_optimal_value(model, SCHEDULE_A)
    greedy = ss.exact_expected_value(model, SCHEDULE_A, ss.greedy_strategy())
    assert opt.value == greedy.value


# --- uncompressed search ---------------------------------------------------------

def test_search_matches_dp_on_instance_a():
    res = ss.exhaustive_strategy_search(MODEL_A, SCHEDULE_A)
    opt, _ = ss.dp_optimal_value(MODEL_A, SCHEDULE_A)
    assert res.best.value == opt.value
    # 8 first-stage histories with 3 choices, 96 second-stage with 2
    assert res.decision_histories == 8 + 96
    assert res.strategy_space_size == 3 ** 8 * 2 ** 96


def test_search_matches_dp_with_interior_steps():
    # a block longer than one step: interior values are part of the history
    # the search conditions on, and merging them away must not change the
    # optimum
    model = MODEL_A
    s = ss.validate_schedule([2, 3], [2, 1], N=3, T=3)
    res = ss.exhaustive_strategy_search(model, s)
    opt, _ = ss.dp_optimal_value(model, s)
    greedy = ss.exact_expected_value(model, s, ss.greedy_strategy())
    assert res.best.value == opt.value == greedy.value


def test_search_cap():
    with pytest.raises(SearchTooLarge):
        ss.exhaustive_strategy_search(MODEL_A, SCHEDULE_A, cap=10)


def test_literal_profile_search_tiny_instance():
    s = ss.validate_schedule([1], [1], N=2, T=1)
    best, profiles = literal_profile_search(MODEL_A, s)
    res = ss.exhaustive_strategy_search(MODEL_A, s)
    opt, _ = ss.dp_optimal_value(MODEL_A, s)
    assert profiles == 2 ** 4  # four reachable histories, two choices each
    assert best == res.best.value == opt.value == Fraction(1, 2)


def test_literal_profile_search_degenerate():
    s = ss.validate_schedule([1, 2], [2, 1], N=3, T=2)
    model = ss.discrete([0], ["1"])
    best, profiles = literal_profile_search(model, s)
    assert best == 0
    # one stage-1 history with 3 choices; each choice is a distinct stage-2
    # history with 2 choices: 3 * 2^3 profiles
    assert profiles == 3 * 2 ** 3


# --- coupling consistency ---------------------------------------------------------

def test_change_of_variables_identity():
    # sum P * greedy(image) equals sum P * greedy(atom) for each strategy
    atoms = ss.enumerate_paths(MODEL_A, 3, 2)
    greedy = ss.greedy_strategy()
    direct = sum(p * ss.run_selection(x, SCHEDULE_A, greedy).final_value
                 for x, p in atoms)
    for strat in ss.full_catalog():
        image = sum(p * ss.build_alignment(x, SCHEDULE_A, strat).greedy_final
                    for x, p in atoms)
        assert image == direct == Fraction(17, 16)


# --- order statistics lemma ---------------------------------------------------------

def test_lemma_example():
    assert ss.order_stat_lemma_check([1, 2], [2, 3], [0, -5])


def test_lemma_equal_vectors():
    assert ss.order_stat_lemma_check([1, 2, 3], [1, 2, 3], [5, -1, 0])


def test_lemma_precondition():
    with pytest.raises(PreconditionViolated):
        ss.order_stat_lemma_check([2, 1], [1, 2], [0, 0])
    with pytest.raises(PreconditionViolated):
        ss.order_stat_lemma_check([1], [1, 2], [0, 0])
    with pytest.raises(PreconditionViolated):
        ss.order_stat_lemma_check([], [], [])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lemma_property(data):
    k = data.draw(st.integers(1, 16))
    b = data.draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=k, max_size=k))
    gaps = data.draw(st.lists(st.floats(0, 50, allow_nan=False), min_size=k, max_size=k))
    c = data.draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=k, max_size=k))
    a = [bv - g for bv, g in zip(b, gaps)]
    assert ss.order_stat_lemma_check(a, b, c)
