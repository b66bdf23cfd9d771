"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

Every tolerance here is pinned: exact-rational checks carry zero tolerance,
Monte Carlo checks use the stated multiple of the measured standard error,
and each criterion asserts its own wall-clock budget.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

import staged_select as ss
from staged_select.alignment import couple_chunk
from staged_select.core_model import value_grid
from staged_select.cli import main as cli_main

GREEDY = ss.greedy_strategy()
CATALOG = ss.full_catalog()

# discrete certification instances: process counts 3 and 4, support sizes
# 2 and 3, stage counts 2 and 3, one instance with a multi-step first block
INSTANCES = [
    ("A", ss.rademacher(1), ss.validate_schedule([1, 2], [2, 1], N=3, T=2)),
    ("B", ss.discrete([1, -1], ["2/3", "1/3"]), ss.validate_schedule([1, 2], [2, 1], N=4, T=2)),
    ("C", ss.discrete([1, 0, -1], ["1/3", "1/3", "1/3"]), ss.validate_schedule([1, 2], [2, 1], N=3, T=2)),
    ("D", ss.rademacher(1), ss.validate_schedule([1, 2, 3], [3, 2, 1], N=4, T=3)),
    ("E", ss.discrete([2, -1, 0], ["1/6", "1/3", "1/2"]), ss.validate_schedule([1, 2], [3, 1], N=4, T=2)),
    ("F", ss.discrete([1, -1], ["1/2", "1/2"]), ss.validate_schedule([2, 3], [2, 1], N=3, T=3)),
]
MODEL_A, SCHEDULE_A = INSTANCES[0][1], INSTANCES[0][2]
GAUSS_SCHEDULE = ss.validate_schedule([2, 4, 8], [8, 4, 1], N=16, T=8)


class Gate:
    def __init__(self, number: int, budget_s: float, label: str):
        self.number = number
        self.budget = budget_s
        self.label = label
        self.start = time.monotonic()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        extra = f" [{detail}]" if detail else ""
        print(f"[criterion {self.number:2d}] {verdict} ({elapsed:.1f}s / "
              f"budget {self.budget:.0f}s): {self.label}{extra}")
        assert ok, f"criterion {self.number}: {self.label}{extra}"
        assert elapsed < self.budget, f"criterion {self.number} exceeded its budget"


def test_criterion_01_exact_optimum_equality():
    gate = Gate(1, 1.0, "greedy exact value equals the backward-induction optimum, 17/16")
    greedy_value = ss.exact_expected_value(MODEL_A, SCHEDULE_A, GREEDY).value
    optimum, _ = ss.dp_optimal_value(MODEL_A, SCHEDULE_A)
    ok = greedy_value == optimum.value == Fraction(17, 16)
    gate.finish(ok, f"greedy={greedy_value}, dp={optimum.value}")


def test_criterion_02_greedy_tops_every_strategy_on_every_instance():
    gate = Gate(2, 60.0, "on six discrete instances every catalog strategy is "
                         "at most greedy, and greedy equals the optimum, exactly")
    failures = []
    for name, model, schedule in INSTANCES:
        values = ss.exact_expected_values(model, schedule, CATALOG)
        greedy_value = next(v.value for v in values if v.strategy == "greedy")
        optimum, _ = ss.dp_optimal_value(model, schedule)
        if greedy_value != optimum.value:
            failures.append(f"{name}: greedy {greedy_value} != dp {optimum.value}")
        for v in values:
            if v.value > greedy_value:
                failures.append(f"{name}: {v.strategy} {v.value} > greedy {greedy_value}")
    gate.finish(not failures, "; ".join(failures) or f"{len(INSTANCES)} instances")


def test_criterion_03_search_agrees_with_backward_induction():
    gate = Gate(3, 60.0, "uncompressed full-history search equals the "
                         "backward-induction optimum")
    res = ss.exhaustive_strategy_search(MODEL_A, SCHEDULE_A)
    optimum, _ = ss.dp_optimal_value(MODEL_A, SCHEDULE_A)
    ok = res.best.value == optimum.value
    gate.finish(ok, f"search={res.best.value} over {res.strategy_space_size} "
                    f"strategies at {res.decision_histories} decision points")


def test_criterion_04_pathwise_dominance_zero_violations():
    gate = Gate(4, 120.0, "zero pathwise dominance violations: every atom x "
                          "every strategy, plus 100k sampled realizations x 3 strategies")
    bad = 0
    atoms = ss.enumerate_paths(MODEL_A, SCHEDULE_A.N, SCHEDULE_A.T)
    for strat in CATALOG:
        for x, _ in atoms:
            w = ss.build_alignment(x, SCHEDULE_A, strat)
            if not w.headline_ok or not all(e.ok for e in w.dominance):
                bad += 1
    sampled = 0
    names = ("anti_greedy", "random_fixed", "drift_aware")
    baselines = ss.baseline_strategies()
    for name in names:
        res = ss.verify_mc(ss.gaussian(0, 1), GAUSS_SCHEDULE, baselines[name],
                           reps=100_000, seed=404, checks=("dominance",))
        bad += res.dominance_violations
        sampled += res.cases
    gate.finish(bad == 0, f"{len(atoms) * len(CATALOG)} atom runs + {sampled} sampled runs")


def test_criterion_05_measure_preservation_on_every_enumerated_instance():
    gate = Gate(5, 240.0, "the coupling is a probability-preserving bijection "
                          "with history-measurable block permutations on every "
                          "enumerated instance, exactly")
    failures = []
    for name, model, schedule in INSTANCES:
        for strat in CATALOG:
            res = ss.verify_exhaustive(model, schedule, strat)
            if not res.ok:
                failures.append(f"{name}/{strat.name}: {res.summary()}")
    gate.finish(not failures, "; ".join(failures) or "6 instances x 5 strategies")


def test_criterion_06_inversion_identity():
    gate = Gate(6, 60.0, "inverting the coupling reproduces the original "
                         "ensemble on all enumerated atoms and on 1000 "
                         "float-valued ensembles")
    # every atom as one exact object chunk, coupled and inverted at once;
    # a row counts as bad unless the rebuilt grids equal the atom's exactly
    bad = 0
    for name, model, schedule in (INSTANCES[0], INSTANCES[3]):
        atoms = ss.enumerate_paths(model, schedule.N, schedule.T)
        inc = np.array([x.increments for x, _ in atoms], dtype=object)
        values = np.array([x.values for x, _ in atoms], dtype=object)
        for strat in CATALOG:
            c = couple_chunk(inc, schedule, strat)
            same = (c.x_back_inc == inc).all(axis=(1, 2)) & (c.x_back_val == values).all(axis=(1, 2))
            bad += int(np.count_nonzero(~same))
    worst = 0.0
    anti = ss.baseline_strategies()["anti_greedy"]
    count = 0
    for _, inc in ss.sample_replications(ss.gaussian(0, 1), 16, 8, 1000, seed=77):
        c = couple_chunk(inc, GAUSS_SCHEDULE, anti)
        worst = max(worst, float(np.abs(c.x_back_val - value_grid(inc)).max()))
        count += inc.shape[0]
    ok = bad == 0 and worst <= 1e-12 and count == 1000
    gate.finish(ok, f"float round-trip worst deviation {worst:.1e}")


def test_criterion_07_order_statistics_inequality_sweep():
    gate = Gate(7, 5.0, "10000 random dominated triples with vectors up to "
                        "length 16, zero counterexamples")
    rng = np.random.default_rng(2718)
    bad = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 17))
        b = rng.normal(0, 10, k)
        a = b - np.abs(rng.normal(0, 5, k))
        c = rng.normal(0, 10, k)
        if not ss.order_stat_lemma_check(list(a), list(b), list(c)):
            bad += 1
    gate.finish(bad == 0)


def test_criterion_08_monte_carlo_consistency():
    gate = Gate(8, 30.0, "1e6-replication estimate of greedy lands within 4 "
                         "standard errors of the exact 17/16")
    res = ss.mc_estimate(MODEL_A, SCHEDULE_A, GREEDY, reps=1_000_000, seed=2024)
    deviation = abs(res.mean - 17 / 16)
    ok = deviation <= 4 * res.stderr and res.stderr > 0
    gate.finish(ok, f"mean={res.mean:.6f}, {deviation / res.stderr:.2f} stderr off")


def test_criterion_09_dependence_breaks_value_only_selection():
    gate = Gate(9, 120.0, "with persistent drift the history-using baseline "
                          "beats greedy by 3+ paired stderr at 100k reps; with "
                          "zero drift the advantage disappears")
    model, schedule = ss.default_drift_experiment()
    rep = ss.dependent_model_experiment(model, schedule, reps=100_000, seed=314)
    zero = ss.drift_model(ss.rademacher(10), [0], ["1"])
    rep0 = ss.dependent_model_experiment(zero, schedule, reps=100_000, seed=314)
    ok = (rep.paired_diff >= 3 * rep.paired_stderr
          and rep0.paired_diff <= 3 * rep0.paired_stderr)
    gate.finish(ok, f"drift edge {rep.paired_diff:.2f} ({rep.paired_diff / max(rep.paired_stderr, 1e-12):.0f} se), "
                    f"zero-drift edge {rep0.paired_diff:.3g}")


def test_criterion_10_byte_identical_outputs(tmp_path, monkeypatch):
    gate = Gate(10, 120.0, "every command repeated with the same config and "
                           "seeds emits byte-identical output at 1 and 8 threads")
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "model": {"kind": "discrete", "support": [1, -1], "probs": ["1/2", "1/2"]},
        "schedule": {"times": [1, 2], "sizes": [2, 1], "N": 3, "T": 2},
        "strategy": {"name": "random_fixed", "aux_seed": 42},
        "seed": 7, "reps": 4,
    }))
    cmp_cfg = tmp_path / "cmp.json"
    cmp_cfg.write_text(json.dumps({
        "model": {"kind": "gaussian", "mean": 0, "stddev": 1},
        "schedule": {"times": [2, 4, 8], "sizes": [8, 4, 1], "N": 16, "T": 8},
        "strategies": ["greedy", "anti_greedy", "drift_aware"],
        "reps": 20_000, "seed": 99,
    }))
    orc_cfg = tmp_path / "orc.json"
    orc_cfg.write_text(json.dumps({
        "model": {"kind": "discrete", "support": [1, -1], "probs": ["1/2", "1/2"]},
        "schedule": {"times": [1, 2], "sizes": [2, 1], "N": 3, "T": 2},
    }))
    runs = [
        ("simulate", ["simulate", "--config", str(sim_cfg), "--format", "json"]),
        ("oracle", ["oracle", "--config", str(orc_cfg)]),
        ("compare", ["compare", "--config", str(cmp_cfg), "--format", "json"]),
        ("drift", ["drift", "--reps", "20000", "--seed", "5", "--format", "json"]),
        ("verify", ["verify", "--config", str(tmp_path / "ver.json")]),
        ("lemma", ["lemma", "--trials", "2000", "--seed", "3"]),
    ]
    (tmp_path / "ver.json").write_text(json.dumps({
        "model": {"kind": "discrete", "support": [1, -1], "probs": ["1/2", "1/2"]},
        "schedule": {"times": [1, 2], "sizes": [2, 1], "N": 3, "T": 2},
        "strategy": {"name": "anti_greedy"}, "mode": "exhaustive",
    }))
    mismatches = []
    for name, argv in runs:
        outputs = []
        for threads in ("1", "8", "1", "8"):
            monkeypatch.setenv("STAGED_SELECT_THREADS", threads)
            out = tmp_path / f"{name}_{threads}_{len(outputs)}.out"
            code = cli_main(argv + ["--out", str(out)])
            if code != 0:
                mismatches.append(f"{name} exited {code}")
                break
            outputs.append(out.read_bytes())
        if outputs and len(set(outputs)) != 1:
            mismatches.append(name)
    monkeypatch.delenv("STAGED_SELECT_THREADS", raising=False)
    gate.finish(not mismatches, "; ".join(mismatches) or f"{len(runs)} commands x 4 runs")
