"""Monte Carlo estimation, paired comparison, and the dependence
experiment."""

from dataclasses import replace

import numpy as np
import pytest

import scalar_reference
import staged_select as ss
from staged_select import experiments
from staged_select.errors import ConfigInvalid, InvalidReps
from staged_select.experiments import _stage_loop, final_values_for_chunk

MODEL_A = ss.rademacher(1)
SCHEDULE_A = ss.validate_schedule([1, 2], [2, 1], N=3, T=2)
GAUSS = ss.gaussian(0, 1)
SCHEDULE_G = ss.validate_schedule([2, 4, 8], [8, 4, 1], N=16, T=8)


def _keep_worst(calls):
    def choose(view, size):
        calls.append(view.stage)
        return sorted(view.survivors, key=lambda i: (view.value_at(i, view.time), i))[:size]
    return choose


# a custom chooser, not a `RankRule`
KEEP_WORST = ss.Strategy(name="keep_worst", chooser=_keep_worst([]))


def _traces(inc, s, alg):
    return [ss.run_selection(ss.PathEnsemble.from_increment_rows(rows), s, alg)
            for rows in inc.tolist()]


def _final_values_by_run_selection(inc, s, alg):
    """The scalar reference of `final_values_for_chunk`."""
    return np.array([tr.final_value for tr in _traces(inc, s, alg)], dtype=np.float64)


def _stage_loop_by_run_selection(values, inc, s, alg):
    """The scalar reference of `_stage_loop`: survivors from `run_selection`,
    the per-stage means reduced as `_stage_loop` reduces them."""
    traces = _traces(inc, s, alg)
    means = []
    for j, t in enumerate(s.times):
        alive = np.zeros(values.shape[:2], dtype=bool)
        for r, tr in enumerate(traces):
            alive[r, list(tr.stages[j].survivors)] = True
        total = np.sum(np.where(alive, values[:, :, t], 0.0))
        means.append(float(total / (len(traces) * s.sizes[j])))
    return np.array([tr.final_value for tr in traces], dtype=np.float64), means


def _headline_violations_by_list_walk(inc, s, alg):
    return sum(not scalar_reference.reference_alignment(
                   ss.PathEnsemble.from_increment_rows(rows), s, alg).headline_ok
               for rows in inc.tolist())


# --- mc_estimate -------------------------------------------------------------

def test_mc_requires_two_reps():
    with pytest.raises(InvalidReps):
        ss.mc_estimate(MODEL_A, SCHEDULE_A, ss.greedy_strategy(), reps=1, seed=0)


def test_mc_zero_variance_model():
    r = ss.mc_estimate(ss.gaussian(0, 0), SCHEDULE_A, ss.greedy_strategy(),
                       reps=100, seed=0)
    assert r.mean == 0.0 and r.stderr == 0.0
    assert r.ci95 == (0.0, 0.0)


def test_mc_deterministic_given_seed():
    a = ss.mc_estimate(GAUSS, SCHEDULE_A, ss.greedy_strategy(), reps=5000, seed=3)
    b = ss.mc_estimate(GAUSS, SCHEDULE_A, ss.greedy_strategy(), reps=5000, seed=3)
    assert a == b
    c = ss.mc_estimate(GAUSS, SCHEDULE_A, ss.greedy_strategy(), reps=5000, seed=4)
    assert a.mean != c.mean


def test_mc_thread_count_never_changes_results():
    one = ss.mc_estimate(GAUSS, SCHEDULE_G, ss.greedy_strategy(),
                         reps=20_000, seed=5, threads=1)
    four = ss.mc_estimate(GAUSS, SCHEDULE_G, ss.greedy_strategy(),
                          reps=20_000, seed=5, threads=4)
    assert one == four


def test_mc_stderr_definition():
    r = ss.mc_estimate(GAUSS, SCHEDULE_A, ss.greedy_strategy(), reps=4096, seed=9)
    finals = final_values_for_chunk(
        ss.sample_chunk(GAUSS, 3, 2, seed=9, chunk_index=0), SCHEDULE_A,
        ss.greedy_strategy())
    assert r.mean == pytest.approx(float(np.mean(finals)))
    assert r.stderr == pytest.approx(float(np.std(finals, ddof=1)) / 64.0)
    assert r.ci95 == (r.mean - 1.96 * r.stderr, r.mean + 1.96 * r.stderr)


def test_mc_close_to_exact_value():
    r = ss.mc_estimate(MODEL_A, SCHEDULE_A, ss.greedy_strategy(),
                       reps=100_000, seed=12)
    assert abs(r.mean - 17 / 16) <= 4 * r.stderr


# --- batched engine ------------------------------------------------------------

@pytest.mark.parametrize("model,schedule", [
    (GAUSS, SCHEDULE_G),
    (MODEL_A, SCHEDULE_A),
    (ss.uniform(-1, 2), ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)),
])
def test_batch_engine_matches_reference_engine(model, schedule):
    inc = ss.sample_chunk(model, schedule.N, schedule.T, seed=31, chunk_index=0)[:400]
    for strat in [*ss.full_catalog(), KEEP_WORST]:
        fast = final_values_for_chunk(inc, schedule, strat)
        slow = _final_values_by_run_selection(inc, schedule, strat)
        assert np.array_equal(fast, slow), strat.name


def test_batch_engine_matches_reference_on_drift_model():
    model, schedule = ss.default_drift_experiment()
    inc = ss.sample_chunk(model, schedule.N, schedule.T, seed=37, chunk_index=0)[:300]
    for strat in ss.full_catalog():
        fast = final_values_for_chunk(inc, schedule, strat)
        slow = _final_values_by_run_selection(inc, schedule, strat)
        assert np.array_equal(fast, slow), strat.name


def test_unlisted_strategy_falls_back_to_reference_engine(monkeypatch):
    # a custom chooser runs on the chunk engine; every sweep equals the same
    # sweep with the chunk results replaced by their scalar references
    s = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)
    catalog = [*ss.full_catalog(), KEEP_WORST]
    fast = [ss.mc_estimate(GAUSS, s, KEEP_WORST, reps=5000, seed=2),
            ss.compare_strategies(GAUSS, s, catalog, reps=5000, seed=2),
            ss.compare_strategies(GAUSS, s, catalog, reps=300, seed=2, coupled=True)]
    g = ss.mc_estimate(GAUSS, s, ss.greedy_strategy(), reps=5000, seed=2)
    assert fast[0].mean < g.mean
    assert all(np.isfinite(v) for _, _, _, v in fast[1].stage_rows)
    monkeypatch.setattr(experiments, "final_values_for_chunk", _final_values_by_run_selection)
    monkeypatch.setattr(experiments, "_stage_loop", _stage_loop_by_run_selection)
    monkeypatch.setattr(experiments, "headline_violations", _headline_violations_by_list_walk)
    assert fast == [ss.mc_estimate(GAUSS, s, KEEP_WORST, reps=5000, seed=2),
                    ss.compare_strategies(GAUSS, s, catalog, reps=5000, seed=2),
                    ss.compare_strategies(GAUSS, s, catalog, reps=300, seed=2, coupled=True)]


# --- compare_strategies ----------------------------------------------------------

def test_compare_single_greedy_row_is_zero_diff():
    t = ss.compare_strategies(GAUSS, SCHEDULE_A, [ss.greedy_strategy()],
                              reps=1000, seed=8)
    assert len(t.rows) == 1
    row = t.rows[0]
    assert row.paired_diff_vs_greedy == 0.0
    assert row.paired_stderr == 0.0


def test_compare_common_random_numbers():
    # same seed, different catalog subsets: identical sampled ensembles
    a = ss.compare_strategies(GAUSS, SCHEDULE_G, ss.full_catalog(), reps=2000, seed=6)
    b = ss.compare_strategies(GAUSS, SCHEDULE_G, [ss.greedy_strategy()], reps=2000, seed=6)
    assert a.ensemble_hash == b.ensemble_hash
    assert a.row("greedy").mean == b.row("greedy").mean


def test_compare_thread_independence():
    a = ss.compare_strategies(GAUSS, SCHEDULE_G, ss.full_catalog(), reps=9000,
                              seed=13, threads=1)
    b = ss.compare_strategies(GAUSS, SCHEDULE_G, ss.full_catalog(), reps=9000,
                              seed=13, threads=4)
    assert a == b


def test_compare_greedy_wins_every_pairing():
    t = ss.compare_strategies(GAUSS, SCHEDULE_G, ss.full_catalog(), reps=20_000, seed=21)
    for row in t.rows:
        assert row.paired_diff_vs_greedy <= 3 * row.paired_stderr
    anti = t.row("anti_greedy")
    assert anti.paired_diff_vs_greedy < -3 * anti.paired_stderr


def test_compare_coupled_mode_has_zero_violations():
    t = ss.compare_strategies(GAUSS, SCHEDULE_A, ss.full_catalog(), reps=300,
                              seed=4, coupled=True)
    for row in t.rows:
        assert row.coupled_violations == 0


def test_compare_stage_rows_shape():
    t = ss.compare_strategies(GAUSS, SCHEDULE_G, [ss.greedy_strategy()],
                              reps=500, seed=2)
    assert len(t.stage_rows) == SCHEDULE_G.stages
    stages = [r[1] for r in t.stage_rows]
    assert stages == [1, 2, 3]
    # greedy survivor means decline as the cut tightens around the best
    assert t.stage_rows[2][3] >= t.stage_rows[0][3]


def test_compare_needs_catalog():
    with pytest.raises(ConfigInvalid):
        ss.compare_strategies(GAUSS, SCHEDULE_A, [], reps=100, seed=0)


# --- dependence experiment ---------------------------------------------------------

def test_drift_experiment_smoke_reps_two():
    model, schedule = ss.default_drift_experiment()
    rep = ss.dependent_model_experiment(model, schedule, reps=2, seed=1)
    assert rep.replications == 2
    assert len(rep.rows) == 2
    assert {r.strategy for r in rep.rows} == {"greedy", "drift_aware"}
    assert isinstance(rep.paired_diff, float)


def test_drift_experiment_requires_drift_model():
    with pytest.raises(ConfigInvalid):
        ss.dependent_model_experiment(GAUSS, SCHEDULE_A, reps=10, seed=0)


def test_drift_experiment_directional_small():
    model, schedule = ss.default_drift_experiment()
    rep = ss.dependent_model_experiment(model, schedule, reps=5000, seed=19)
    assert rep.paired_diff >= 3 * rep.paired_stderr
    zero = ss.drift_model(ss.rademacher(10), [0], ["1"])
    rep0 = ss.dependent_model_experiment(zero, schedule, reps=5000, seed=19)
    assert rep0.paired_diff <= 3 * rep0.paired_stderr


# --- one stage loop per chunk --------------------------------------------------------

def test_stage_loop_survivor_means_match_scalar_traces():
    s = SCHEDULE_G
    inc = ss.sample_chunk(GAUSS, s.N, s.T, seed=17, chunk_index=0)[:300]
    for strat in ss.full_catalog():
        finals, means = _stage_loop(ss.core_model.value_grid(inc), inc, s, strat)
        sums = [0.0] * s.stages
        for r in range(inc.shape[0]):
            x = ss.PathEnsemble.from_increment_rows(inc[r].tolist())
            trace = ss.run_selection(x, s, strat)
            assert finals[r] == trace.final_value, (strat.name, r)
            for j, rec in enumerate(trace.stages):
                sums[j] += sum(x.values[i][rec.time] for i in rec.survivors)
        for j in range(s.stages):
            want = sums[j] / (inc.shape[0] * s.sizes[j])
            assert means[j] == pytest.approx(want, rel=1e-12, abs=1e-12), (strat.name, j)


def test_compare_coupled_counts_match_scalar_witnesses():
    catalog = [*ss.full_catalog(), KEEP_WORST]
    s = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)
    t = ss.compare_strategies(GAUSS, s, catalog, reps=150, seed=12, coupled=True)
    plain = ss.compare_strategies(GAUSS, s, catalog, reps=150, seed=12)
    inc = ss.sample_chunk(GAUSS, s.N, s.T, seed=12, chunk_index=0)[:150]
    for row, plain_row, strat in zip(t.rows, plain.rows, catalog):
        bad = _headline_violations_by_list_walk(inc, s, strat)
        assert row.coupled_violations == bad == 0, strat.name
        assert plain_row.coupled_violations is None
        assert row.mean == plain_row.mean
    assert t.stage_rows == plain.stage_rows


# --- strategies are dispatched on their chooser, never on their name ------------

def test_custom_strategy_named_greedy_runs_its_own_chooser():
    s = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)
    calls = []
    impostor = ss.Strategy(name="greedy", chooser=_keep_worst(calls))
    honest = ss.Strategy(name="keep_worst", chooser=_keep_worst([]))
    mine = ss.mc_estimate(GAUSS, s, impostor, reps=500, seed=2)
    ref = ss.mc_estimate(GAUSS, s, honest, reps=500, seed=2)
    assert calls
    assert (mine.mean, mine.stderr) == (ref.mean, ref.stderr)
    assert mine.mean < ss.mc_estimate(GAUSS, s, ss.greedy_strategy(), reps=500, seed=2).mean
    # the paired baseline is the real greedy, added because no chooser is
    # greedy's rule; the impostor is just another strategy
    table = ss.compare_strategies(GAUSS, s, [impostor, honest], reps=500, seed=2)
    baseline, impostor_row, honest_row = table.rows
    real = ss.compare_strategies(GAUSS, s, [ss.greedy_strategy()], reps=500, seed=2).rows[0]
    assert baseline == real and baseline.paired_diff_vs_greedy == 0.0
    assert replace(impostor_row, strategy="keep_worst") == honest_row
    assert impostor_row.mean == honest_row.mean == ref.mean
    assert honest_row.paired_diff_vs_greedy < 0
    calls.clear()
    res = ss.verify_mc(GAUSS, s, impostor, reps=30, seed=3)
    assert calls and res.ok
    assert res == replace(ss.verify_mc(GAUSS, s, honest, reps=30, seed=3), strategy="greedy")


# --- statistics that overflow ----------------------------------------------------

def test_overflowing_statistics_are_an_input_error():
    wide = ss.gaussian(0, 1e200)  # finite paths, overflowing squared deviations
    with pytest.raises(ConfigInvalid, match="non-finite"):
        ss.mc_estimate(wide, SCHEDULE_A, ss.greedy_strategy(), reps=50, seed=1)
    with pytest.raises(ConfigInvalid, match="non-finite"):
        ss.compare_strategies(wide, SCHEDULE_A, ss.full_catalog(), reps=50, seed=1)
    fine = ss.mc_estimate(ss.gaussian(0, 1e100), SCHEDULE_A, ss.greedy_strategy(), reps=50, seed=1)
    assert np.isfinite(fine.stderr) and fine.stderr > 0


# --- worker threads ------------------------------------------------------------------

def test_pool_never_outnumbers_cores_or_chunks(monkeypatch):
    # `Executor.map` submits every chunk at once and the pool starts one
    # thread per submit up to `max_workers`: record that, start no thread
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    catalog = ss.full_catalog()
    serial = ss.compare_strategies(GAUSS, SCHEDULE_A, catalog, reps=3 * 4096, seed=5)
    assert started == []
    assert ss.compare_strategies(GAUSS, SCHEDULE_A, catalog, reps=3 * 4096, seed=5,
                                 threads=100_000) == serial
    ss.mc_estimate(GAUSS, SCHEDULE_A, catalog[0], reps=10 * 4096, seed=5, threads=100_000)
    ss.mc_estimate(GAUSS, SCHEDULE_A, catalog[0], reps=10 * 4096, seed=5, threads=3)
    assert started == [3, 4, 3]   # chunks, cores, threads
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    ss.mc_estimate(GAUSS, SCHEDULE_A, catalog[0], reps=10 * 4096, seed=5, threads=100_000)
    assert started == [3, 4, 3]   # an unknown core count runs serially
