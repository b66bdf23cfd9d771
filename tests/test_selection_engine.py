"""Strategy execution, ranking, temporal indices, and information hiding."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staged_select as ss
from staged_select.errors import (
    ConfigInvalid,
    StageOutOfOrder,
    StrategyViolation,
    ValueHidden,
)
from staged_select.experiments import final_values_for_chunk
from staged_select.selection_engine import (
    RankRule,
    StageRecord,
    batched_stage,
    ranked_columns,
    ranked_ids,
)
from scalar_reference import from_value_rows, rank_desc, reference_catalog

SCHEDULE_A = ss.validate_schedule([1, 2], [2, 1], N=3, T=2)
# the hand-trace realization used across the suite: values at t=1 are
# (1, -1, -1), second-block steps are (+1, -1, +1)
TRACE_X = ss.PathEnsemble.from_increment_rows([[1, 1], [-1, -1], [-1, 1]])


# --- ranking ----------------------------------------------------------------

def test_rank_desc_basic():
    assert rank_desc([3.0, 1.0, 2.0]) == [1, 3, 2]


def test_rank_desc_ties_prefer_smaller_id():
    assert rank_desc([1.0, 1.0]) == [1, 2]


def test_rank_desc_empty_rejected():
    with pytest.raises(ValueError):
        rank_desc([])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=10,
                unique=True))
def test_rank_desc_reversal_on_distinct(values):
    n = len(values)
    forward = rank_desc(values)
    backward = rank_desc([-v for v in values])
    assert all(f + b == n + 1 for f, b in zip(forward, backward))


def _ranked_reference(ids, value_of):
    # the tie rule spelled out as a sort key: value descending, then id
    return sorted(ids, key=lambda i: (-value_of(i), i))


@pytest.mark.parametrize("values", [
    {0: Fraction(1, 3), 1: Fraction(2, 6), 2: Fraction(1, 2), 3: Fraction(1, 3)},
    {0: 0.5, 1: 1.5, 2: 0.5, 3: 0.5},
    {0: 0.0, 1: -0.0, 2: -0.0, 3: 0.0},
])
@pytest.mark.parametrize("ids", [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)])
def test_ranked_ids_ties_go_to_the_smaller_id(values, ids):
    order = ranked_ids(ids, values.__getitem__)
    assert order == _ranked_reference(ids, values.__getitem__)
    for a, b in zip(order, order[1:]):
        assert values[a] > values[b] or (values[a] == values[b] and a < b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ranked_ids_matches_the_key_reference(data):
    values = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
                                min_size=1, max_size=12))
    ids = data.draw(st.permutations(range(len(values))))
    assert ranked_ids(ids, values.__getitem__) == _ranked_reference(ids, values.__getitem__)
    fractions = [Fraction(v) for v in values]
    assert ranked_ids(ids, fractions.__getitem__) == _ranked_reference(ids, fractions.__getitem__)


# --- temporal indices -------------------------------------------------------

def test_indices_stage_one_hand_trace():
    idx = ss.assign_temporal_indices(None, 1, [1, -1, -1])
    assert idx == {0: 1, 1: 2, 2: 3}


def test_indices_later_stage_keeps_eliminated():
    rec = StageRecord(
        stage=1, time=1, candidates=(0, 1, 2), survivors=(1, 2), eliminated=(0,),
        values=((0, 1), (1, -1), (2, -1)),
        indices=((0, 1), (1, 2), (2, 3)),
    )
    idx = ss.assign_temporal_indices([rec], 2, [None, -2, 0])
    # survivor ranks at t2: process 2 (value 0) first, process 1 (-2) second;
    # the eliminated process 0 keeps its old index
    assert idx == {0: 1, 1: 2, 2: 1}


def test_indices_stage_out_of_order():
    with pytest.raises(StageOutOfOrder):
        ss.assign_temporal_indices(None, 2, [1, 2, 3])


def test_indices_distinct_values_equal_rank_order():
    vals = [5.0, -2.0, 3.0, 0.5]
    idx = ss.assign_temporal_indices(None, 1, vals)
    assert [idx[i] for i in range(4)] == rank_desc(vals)


# --- run_selection ----------------------------------------------------------

def test_greedy_hand_trace():
    tr = ss.run_selection(TRACE_X, SCHEDULE_A, ss.greedy_strategy())
    assert tr.stages[0].survivors == (0, 1)
    assert tr.final_value == 2
    assert tr.final_index == 0


def test_anti_greedy_hand_trace():
    anti = ss.baseline_strategies()["anti_greedy"]
    tr = ss.run_selection(TRACE_X, SCHEDULE_A, anti)
    assert tr.stages[0].survivors == (1, 2)
    # the final stage reports the best remaining survivor
    assert tr.final_value == 0
    assert tr.final_index == 2


def test_single_stage_schedule_greedy_takes_max():
    s = ss.validate_schedule([3], [1], N=2, T=3)
    x = ss.PathEnsemble.from_increment_rows([[1, 1, -1], [1, 1, 1]])
    tr = ss.run_selection(x, s, ss.greedy_strategy())
    assert tr.final_value == max(row[-1] for row in x.values)


def test_survivor_nesting_and_sizes():
    s = ss.validate_schedule([2, 4, 8], [8, 4, 1], N=16, T=8)
    rng = np.random.default_rng(0)
    for strat in ss.full_catalog():
        x = ss.PathEnsemble.from_increment_rows(rng.standard_normal((16, 8)).tolist())
        tr = ss.run_selection(x, s, strat)
        prev = set(range(16))
        for rec, n_j in zip(tr.stages, s.sizes):
            assert set(rec.survivors) < prev or set(rec.survivors) == set(rec.survivors) & prev
            assert set(rec.survivors) <= prev
            assert len(rec.survivors) == n_j
            prev = set(rec.survivors)


def test_strategy_violation_wrong_size():
    bad = ss.Strategy(name="bad", chooser=lambda view, size: view.survivors)
    with pytest.raises(StrategyViolation):
        ss.run_selection(TRACE_X, SCHEDULE_A, bad)


def test_strategy_violation_non_survivor():
    def cheat(view, size):
        missing = next(i for i in range(view.n_processes) if i not in view.survivors)
        return (missing,) if size == 1 else tuple(view.survivors[: size - 1]) + (missing,)

    anti = ss.baseline_strategies()["anti_greedy"]
    x = TRACE_X
    # at stage 2 process 0 is eliminated under anti-greedy; a stage-2 cheat
    # must abort the run
    calls = []

    def chooser(view, size):
        calls.append(view.stage)
        if view.stage == 1:
            return anti.chooser(view, size)
        return cheat(view, size)

    with pytest.raises(StrategyViolation):
        ss.run_selection(x, SCHEDULE_A, ss.Strategy(name="cheat", chooser=chooser))
    assert calls == [1, 2]


# --- information hiding -----------------------------------------------------

def test_eliminated_values_are_hidden():
    observed = {}

    def probe(view, size):
        if view.stage == 2:
            gone = next(i for i in range(view.n_processes) if i not in view.survivors)
            with pytest.raises(ValueHidden):
                view.value_at(gone, view.time)
            observed["path_len"] = len(view.path(gone))
            observed["horizon"] = view.horizon(gone)
        return sorted(view.survivors)[:size]

    ss.run_selection(TRACE_X, SCHEDULE_A, ss.Strategy(name="probe", chooser=probe))
    assert observed["horizon"] == 1          # frozen at its elimination time
    assert observed["path_len"] == 2         # times 0..1 only


def test_future_values_are_hidden_too():
    def probe(view, size):
        if view.stage == 1:
            with pytest.raises(ValueHidden):
                view.value_at(view.survivors[0], view.final_time)
        return sorted(view.survivors)[:size]

    ss.run_selection(TRACE_X, SCHEDULE_A, ss.Strategy(name="probe", chooser=probe))


def test_greedy_memoryless_under_history_splice():
    # same values at every observation time, different interiors
    s = ss.validate_schedule([2, 3], [2, 1], N=3, T=3)
    x1 = from_value_rows(
        [[0, 5, 1, 2], [0, -5, 2, 1], [0, 0, 0, 4]])
    x2 = from_value_rows(
        [[0, -7, 1, 2], [0, 9, 2, 1], [0, 1, 0, 4]])
    t1 = ss.run_selection(x1, s, ss.greedy_strategy())
    t2 = ss.run_selection(x2, s, ss.greedy_strategy())
    assert t1.survivor_sets() == t2.survivor_sets()
    assert t1.final_index == t2.final_index


def test_greedy_index_characterization():
    # under greedy the survivors at each stage are exactly the processes
    # holding temporal indices 1..n_j
    rng = np.random.default_rng(7)
    s = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)
    for _ in range(25):
        x = ss.PathEnsemble.from_increment_rows(rng.standard_normal((6, 5)).tolist())
        tr = ss.run_selection(x, s, ss.greedy_strategy())
        for rec, n_j in zip(tr.stages, s.sizes):
            idx = dict(rec.indices)
            expected = {i for i in rec.candidates if idx[i] <= n_j}
            assert set(rec.survivors) == expected


# --- catalog strategies -----------------------------------------------------

def _single_cut(values, size, strat):
    n = len(values)
    s = ss.validate_schedule([1], [size], N=n, T=1) if size == 1 else None
    # build a one-step ensemble and run only the first stage via a 2-stage
    # schedule when size > 1
    if s is None:
        s = ss.validate_schedule([1, 2], [size, 1], N=n, T=2)
        x = ss.PathEnsemble.from_increment_rows([[v, 0] for v in values])
    else:
        x = ss.PathEnsemble.from_increment_rows([[v] for v in values])
    return set(ss.run_selection(x, s, strat).stages[0].survivors)


def test_greedy_top_two():
    assert _single_cut([5, 2, 4], 2, ss.greedy_strategy()) == {0, 2}


def test_greedy_all_equal_keeps_smallest_ids():
    assert _single_cut([1, 1, 1], 2, ss.greedy_strategy()) == {0, 1}


def test_anti_greedy_bottom_two():
    anti = ss.baseline_strategies()["anti_greedy"]
    assert _single_cut([5, 2, 4], 2, anti) == {1, 2}


def test_random_fixed_deterministic_given_seed():
    a = ss.random_fixed_strategy(42)
    b = ss.random_fixed_strategy(42)
    c = ss.random_fixed_strategy(43)
    x = ss.sample_ensemble(ss.gaussian(0, 1), N=6, T=4, seed=0)
    s = ss.validate_schedule([1, 4], [3, 1], N=6, T=4)
    ta = ss.run_selection(x, s, a)
    tb = ss.run_selection(x, s, b)
    tc = ss.run_selection(x, s, c)
    assert ta.survivor_sets() == tb.survivor_sets()
    assert ta.survivor_sets() != tc.survivor_sets() or ta.final_index != tc.final_index


def test_lagged_greedy_falls_back_to_smallest_ids_at_stage_one():
    lag = ss.baseline_strategies()["lagged_greedy"]
    assert _single_cut([5, 2, 4], 2, lag) == {0, 1}


def test_lagged_greedy_uses_previous_time():
    lag = ss.baseline_strategies()["lagged_greedy"]
    s = ss.validate_schedule([1, 2, 3], [3, 2, 1], N=4, T=3)
    x = from_value_rows([
        [0, 9, 0, 0],
        [0, 8, 1, 0],
        [0, 7, 2, 0],
        [0, -1, 3, 0],
    ])
    tr = ss.run_selection(x, s, lag)
    # stage 2 ranks by values at t1 -> keeps {0, 1}; stage 3 by values at t2
    assert tr.stages[1].survivors == (0, 1)
    assert tr.final_index == 1


def test_drift_aware_collapses_to_greedy_with_no_horizon():
    da = ss.baseline_strategies()["drift_aware"]
    s = ss.validate_schedule([2], [1], N=3, T=2)
    x = ss.PathEnsemble.from_increment_rows([[3, -1], [0, 1], [1, 1]])
    assert (ss.run_selection(x, s, da).final_index
            == ss.run_selection(x, s, ss.greedy_strategy()).final_index)


def test_drift_aware_extrapolates_with_midrange_estimate():
    da = ss.baseline_strategies()["drift_aware"]
    s = ss.validate_schedule([3, 10], [2, 1], N=3, T=10)
    # process 0 leads on value but took one hard fall (midrange -1);
    # process 2 trails yet climbs steadily (midrange +1): the estimator
    # extrapolates the climber ahead and drops the leader
    x = ss.PathEnsemble.from_increment_rows([
        [4, 4, -6] + [0] * 7,
        [0, 0, 0] + [0] * 7,
        [1, 1, 1] + [0] * 7,
    ])
    tr = ss.run_selection(x, s, da)
    assert tr.stages[0].survivors == (1, 2)
    greedy_tr = ss.run_selection(x, s, ss.greedy_strategy())
    assert greedy_tr.stages[0].survivors == (0, 2)


# --- config and export ------------------------------------------------------

def test_strategy_from_config():
    assert ss.strategy_from_config({"name": "greedy"}).name == "greedy"
    r = ss.strategy_from_config({"name": "random_fixed", "aux_seed": 42})
    assert r.aux_seed == 42
    with pytest.raises(ConfigInvalid, match="strategy.name"):
        ss.strategy_from_config({"name": "zigzag"})
    with pytest.raises(ConfigInvalid, match="strategy.name"):
        ss.strategy_from_config({"name": []})   # unhashable: no TypeError
    with pytest.raises(ConfigInvalid, match="aux_seed"):
        ss.strategy_from_config({"name": "random_fixed"})
    with pytest.raises(ConfigInvalid, match="aux_seed"):
        ss.strategy_from_config({"name": "greedy", "aux_seed": 3})


def test_trace_csv_shape():
    tr = ss.run_selection(TRACE_X, SCHEDULE_A, ss.greedy_strategy())
    rows = ss.trace_to_csv_rows(tr, TRACE_X, SCHEDULE_A)
    assert len(rows) == 3 * 3  # processes x time points
    # final-time rows carry the final survivor flag
    final = {r[2]: r[5] for r in rows if r[1] == 2}
    assert final == {0: 1, 1: 0, 2: 0}
    # stage-1 rows carry the hand-trace indices
    idx = {r[2]: r[4] for r in rows if r[1] == 1}
    assert idx == {0: 1, 1: 2, 2: 3}


# --- batched stage rule --------------------------------------------------------

FLOAT_SCORES = [0.0, -0.0, 1.0, -1.0, 2.5, float("inf"), float("-inf")]
# exact object-dtype scores; masked entries cannot be keyed NaN among these
EXACT_SCORES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 2), Fraction(1, 3),
                Fraction(-1, 3), Fraction(10 ** 30)]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=5, max_size=5), min_size=1, max_size=6),
       st.lists(st.lists(st.booleans(), min_size=5, max_size=5), min_size=6, max_size=6),
       st.booleans())
def test_ranked_columns_matches_ranked_ids(codes, masks, exact):
    pool = EXACT_SCORES if exact else FLOAT_SCORES
    rows = [[pool[c] for c in row] for row in codes]
    scores = np.array(rows, dtype=object if exact else float)
    mask = np.array(masks[:len(rows)])
    order = ranked_columns(scores, mask)
    for r, row in enumerate(rows):
        alive = [i for i in range(5) if mask[r, i]]
        want = ranked_ids(alive, row.__getitem__)
        assert order[r, :len(alive)].tolist() == want


def test_batched_stage_matches_scalar_choosers():
    s = ss.validate_schedule([2, 4, 8], [8, 4, 1], N=16, T=8)
    inc = ss.sample_chunk(ss.uniform(-1, 1), s.N, s.T, seed=4, chunk_index=0)[:100]
    values = ss.core_model.value_grid(inc)
    for strat in ss.full_catalog():
        kept = []
        for j in range(1, s.stages + 1):
            t = s.times[j - 1]
            alive = batched_stage(strat, s, j, values[:, :, :t + 1], inc[:, :, :t], kept)
            kept.append(alive)
            for r in (0, 37, 99):
                x = ss.PathEnsemble.from_increment_rows(inc[r].tolist())
                rec = ss.run_selection(x, s, strat).stages[j - 1]
                assert tuple(np.flatnonzero(alive[r]).tolist()) == rec.survivors


def _stage_masks(strat, s, inc):
    """The survivor masks of every stage of `batched_stage` over a chunk."""
    values = ss.core_model.value_grid(inc)
    kept = []
    for j in range(1, s.stages + 1):
        t = s.times[j - 1]
        kept.append(batched_stage(strat, s, j, values[:, :, :t + 1], inc[:, :, :t], kept))
    return kept


def _last_candidates_first(view, size):
    # not a `RankRule`: reads every visible value of every process, the
    # frozen casualties included, and keeps the candidates with the largest
    # visible path sums
    total = {i: sum(view.path(i)) for i in range(view.n_processes)}
    return ranked_ids(view.survivors, lambda i: total[i] + view.value_at(i, view.time))[:size]


def test_batched_stage_runs_any_chooser_through_its_view():
    s = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)
    inc = ss.sample_chunk(ss.uniform(-1, 1), s.N, s.T, seed=9, chunk_index=0)[:60]
    odd = ss.Strategy(name="odd", chooser=_last_candidates_first)
    for chunk in (inc, np.frompyfunc(Fraction, 1, 1)(inc)):     # float64 and exact
        kept = _stage_masks(odd, s, chunk)
        for r in range(inc.shape[0]):
            x = ss.PathEnsemble.from_increment_rows(chunk[r].tolist())
            want = ss.run_selection(x, s, odd).survivor_sets()
            assert [tuple(np.flatnonzero(m[r]).tolist()) for m in kept] == want, r


def test_batched_stage_keeps_strategy_legality_and_hiding():
    s = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)
    inc = ss.sample_chunk(ss.uniform(-1, 1), s.N, s.T, seed=9, chunk_index=0)[:5]

    def peek_at_casualty(view, size):
        if view.stage == 2:
            view.value_at(next(i for i in range(view.n_processes)
                               if i not in view.survivors), view.time)
        return sorted(view.survivors)[:size]

    def one_too_many(view, size):
        return sorted(view.survivors)[:size + 1]

    for chooser, error in ((peek_at_casualty, ValueHidden), (one_too_many, StrategyViolation)):
        strat = ss.Strategy(name="bad", chooser=chooser)
        with pytest.raises(error):
            ss.run_selection(ss.PathEnsemble.from_increment_rows(inc[0].tolist()), s, strat)
        with pytest.raises(error):
            _stage_masks(strat, s, inc)
        with pytest.raises(error):
            final_values_for_chunk(inc, s, strat)
        with pytest.raises(error):
            ss.verify_mc(ss.uniform(-1, 1), s, strat, reps=5, seed=9)


@pytest.mark.parametrize("aux_seed", ["abc", 1.9, True, -1, None])
def test_strategy_from_config_rejects_bad_aux_seed(aux_seed):
    with pytest.raises(ConfigInvalid, match="aux_seed"):
        ss.strategy_from_config({"name": "random_fixed", "aux_seed": aux_seed})


# --- rank rules against the hand-written choosers --------------------------------

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


def _pinned_to_reference(derived, reference):
    """The reference chooser, asserting at every view it sees that the
    derived `select` picks the same survivors in the same order."""
    def choose(view, size):
        want = tuple(reference.chooser(view, size))
        assert derived.select(view, size) == want, (derived.name, view.stage)
        return want
    return ss.Strategy(name=derived.name, chooser=choose)


def _assert_rules_match_references(rows_of_increments, s):
    pairs = list(zip(ss.full_catalog(), reference_catalog()))
    for rows in rows_of_increments:
        x = ss.PathEnsemble.from_increment_rows(rows)
        for derived, reference in pairs:
            ss.run_selection(x, s, _pinned_to_reference(derived, reference))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_rank_rules_match_hand_written_choosers_on_every_atom(name):
    # exact Fraction paths with ties everywhere
    model, s = INSTANCES[name]
    _assert_rules_match_references(
        [x.increments for x, _ in ss.enumerate_paths(model, s.N, s.T)], s)


@pytest.mark.parametrize("model", [
    ss.gaussian(0, 1),
    ss.uniform(-1, 2),
    # integer-valued float steps: ties in values, lags and midranges
    ss.drift_model(ss.rademacher(1), [1, 0, -1], ["1/4", "1/2", "1/4"]),
], ids=["gaussian", "uniform", "drift"])
def test_rank_rules_match_hand_written_choosers_on_float_chunks(model):
    s = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)
    inc = ss.sample_chunk(model, s.N, s.T, seed=12, chunk_index=0)[:150]
    _assert_rules_match_references(inc.tolist(), s)


def test_batched_stage_matches_hand_written_choosers_on_tied_atoms():
    model, s = INSTANCES["D"]
    atoms = ss.enumerate_paths(model, s.N, s.T)
    inc = np.array([[[float(v) for v in row] for row in x.increments] for x, _ in atoms])
    values = ss.core_model.value_grid(inc)
    for derived, reference in zip(ss.full_catalog(), reference_catalog()):
        kept = []
        traces = [ss.run_selection(x, s, reference) for x, _ in atoms]
        for j in range(1, s.stages + 1):
            t = s.times[j - 1]
            kept.append(batched_stage(derived, s, j, values[:, :, :t + 1], inc[:, :, :t], kept))
            got = [tuple(np.flatnonzero(row).tolist()) for row in kept[-1]]
            assert got == [tr.stages[j - 1].survivors for tr in traces], (derived.name, j)


def test_strategy_with_a_rank_rule_runs_in_both_engines():
    # a library rule: keep the processes with the largest first step
    def first_step(j, times, n_processes, values, increments, ids):
        return increments[..., 0]

    rule = ss.Strategy(name="first_step", chooser=RankRule(first_step))
    s = ss.validate_schedule([1, 2], [2, 1], N=3, T=2)
    x = ss.PathEnsemble.from_increment_rows([[1, 5], [2, -9], [-1, 0]])
    assert ss.run_selection(x, s, rule).survivor_sets() == [(0, 1), (1,)]
    inc = np.array([x.increments], dtype=float)
    values = ss.core_model.value_grid(inc)
    alive = batched_stage(rule, s, 1, values[:, :, :2], inc[:, :, :1], [])
    assert alive.tolist() == [[True, True, False]]
