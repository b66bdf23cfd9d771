"""Monte Carlo estimation, strategy comparison, and the dependence
experiment.

All estimators here are deterministic functions of (model, schedule,
strategies, reps, seed): replications are drawn in fixed-size chunks from
per-chunk child streams, chunk results are reduced in chunk order, and the
worker-thread count never changes a result, only how fast it arrives.

Comparisons use common random numbers: every strategy is evaluated on the
same sampled ensembles, and differences are reported as paired statistics
against greedy.

Every strategy runs through one stage loop per chunk
(`selection_engine.batched_stage`), which yields both the final values and
the per-stage survivor means.  Tests pin it to bit-identical outputs with
`run_selection`, for the catalog and for custom choosers.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .alignment import headline_violations
from .core_model import (
    DriftModel,
    Model,
    Schedule,
    drift_model,
    rademacher,
    replication_plan,
    sample_chunk,
    validate_schedule,
    value_grid,
)
from .errors import ConfigInvalid, InvalidReps
from .selection_engine import (
    Strategy,
    baseline_strategies,
    batched_stage,
    greedy_strategy,
)


# ---------------------------------------------------------------------------
# batched selection engine
# ---------------------------------------------------------------------------

def _stage_loop(values: np.ndarray, increments: np.ndarray, s: Schedule,
                alg: Strategy) -> tuple[np.ndarray, list[float]]:
    """One run of a strategy over a chunk: the final selected value
    per replication, and per stage the mean (over replications and
    survivors) of the survivors' values at t_j, for value-vs-stage traces."""
    reps = values.shape[0]
    kept: list[np.ndarray] = []
    means = []
    for j in range(1, s.stages + 1):
        t_j = s.times[j - 1]
        alive = batched_stage(alg, s, j, values[:, :, :t_j + 1],
                              increments[:, :, :t_j], kept)
        kept.append(alive)
        v = values[:, :, t_j]
        means.append(float(np.sum(np.where(alive, v, 0.0)) / (reps * s.sizes[j - 1])))
    winner = np.argmax(alive, axis=1)
    return values[np.arange(reps), winner, s.T], means


def final_values_for_chunk(inc: np.ndarray, s: Schedule, alg: Strategy) -> np.ndarray:
    """Final selected value per replication of one increment chunk."""
    return _stage_loop(value_grid(inc), inc, s, alg)[0]


# ---------------------------------------------------------------------------
# deterministic reduction in chunk order
# ---------------------------------------------------------------------------

def _map_ordered(fn, args: list, threads: int) -> list:
    # `Executor.map` submits every item at once and the pool starts a
    # thread per submit up to `max_workers`, so more workers than cores or
    # items would only start idle threads
    workers = min(threads, os.cpu_count() or 1, len(args))
    if workers <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args))


@dataclass
class _Welford:
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def absorb(self, n: int, mean: float, m2: float) -> None:
        if n == 0:
            return
        delta = mean - self.mean
        total = self.count + n
        self.mean += delta * n / total
        self.m2 += m2 + delta * delta * self.count * n / total
        self.count = total

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return self.stddev / math.sqrt(self.count)


def _require_finite(*stats: float) -> None:
    # finite paths can overflow the chunk variance sums, and inf/NaN
    # chunk statistics make the reduced ones non-finite too
    if not all(map(math.isfinite, stats)):
        raise ConfigInvalid("model: Monte Carlo statistics overflow to non-finite values")


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McResult:
    strategy: str
    replications: int
    mean: float
    stderr: float
    ci95: tuple[float, float]
    seed: int


def mc_estimate(model: Model, s: Schedule, alg: Strategy, reps: int,
                seed: int, threads: int = 1) -> McResult:
    """Monte Carlo estimate of the strategy's expected final value."""
    if reps < 2:
        raise InvalidReps(f"need at least 2 replications, got {reps}")

    @np.errstate(over="ignore", invalid="ignore")  # reported below
    def work(spec: tuple[int, int]):
        c, take = spec
        inc = sample_chunk(model, s.N, s.T, seed, c)[:take]
        finals = final_values_for_chunk(inc, s, alg)
        return int(finals.size), float(np.mean(finals)), float(np.sum((finals - np.mean(finals)) ** 2))

    acc = _Welford()
    for n, mean, m2 in _map_ordered(work, replication_plan(reps), threads):
        acc.absorb(n, mean, m2)
    se = acc.stderr
    ci95 = (acc.mean - 1.96 * se, acc.mean + 1.96 * se)
    _require_finite(acc.mean, se, *ci95)
    return McResult(
        strategy=alg.describe(),
        replications=reps,
        mean=acc.mean,
        stderr=se,
        ci95=ci95,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# paired comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    strategy: str
    replications: int
    mean: float
    stderr: float
    ci_lo: float
    ci_hi: float
    paired_diff_vs_greedy: float
    paired_stderr: float
    coupled_violations: int | None = None


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    stage_rows: tuple[tuple[str, int, int, float], ...]  # (strategy, stage, time, mean value)
    ensemble_hash: str
    seed: int

    def row(self, strategy: str) -> ComparisonRow:
        for r in self.rows:
            if r.strategy.split("(")[0] == strategy:
                return r
        raise KeyError(strategy)


COMPARE_CSV_HEADER = (
    "strategy", "reps", "mean", "stderr", "ci_lo", "ci_hi",
    "paired_diff_vs_greedy", "paired_stderr",
)


def compare_strategies(model: Model, s: Schedule, catalog: list[Strategy],
                       reps: int, seed: int, threads: int = 1,
                       coupled: bool = False) -> ComparisonTable:
    """Evaluate every strategy on the same sampled ensembles.

    Reports per-strategy means and paired differences against greedy
    (strategy minus greedy, so a negative difference means greedy did
    better).  The baseline is the first strategy whose chooser is
    greedy's rule, whatever its name; the real greedy is added first when
    there is none.  With `coupled=True` each replication additionally runs
    the alignment coupling per strategy and counts pathwise violations of
    strategy-on-X exceeding greedy-on-image; expect zero.
    """
    if not catalog:
        raise ConfigInvalid("compare needs a nonempty strategy catalog")
    if reps < 2:
        raise InvalidReps(f"need at least 2 replications, got {reps}")
    algs = list(catalog)
    greedy = greedy_strategy()
    if not any(a.chooser == greedy.chooser for a in algs):
        algs.insert(0, greedy)
    greedy_pos = next(i for i, a in enumerate(algs) if a.chooser == greedy.chooser)

    @np.errstate(over="ignore", invalid="ignore")  # reported below
    def work(spec: tuple[int, int]):
        c, take = spec
        inc = sample_chunk(model, s.N, s.T, seed, c)[:take]
        digest = hashlib.sha256(inc.tobytes()).hexdigest()
        values = value_grid(inc)
        finals, stage_means = zip(*(_stage_loop(values, inc, s, a) for a in algs))
        coupled_bad = [headline_violations(inc, s, a) if coupled else 0 for a in algs]
        stats = []
        for ai in range(len(algs)):
            f = finals[ai]
            d = f - finals[greedy_pos]
            stats.append((
                int(f.size),
                float(np.mean(f)), float(np.sum((f - np.mean(f)) ** 2)),
                float(np.mean(d)), float(np.sum((d - np.mean(d)) ** 2)),
            ))
        return digest, stats, stage_means, coupled_bad, take

    value_acc = [_Welford() for _ in algs]
    diff_acc = [_Welford() for _ in algs]
    stage_sums = [[0.0] * s.stages for _ in algs]
    coupled_totals = [0] * len(algs)
    hasher = hashlib.sha256()
    total = 0
    for digest, stats, stage_means, coupled_bad, take in _map_ordered(
            work, replication_plan(reps), threads):
        hasher.update(digest.encode())
        for ai, (n, mean, m2, dmean, dm2) in enumerate(stats):
            value_acc[ai].absorb(n, mean, m2)
            diff_acc[ai].absorb(n, dmean, dm2)
            coupled_totals[ai] += coupled_bad[ai]
            for jj in range(s.stages):
                stage_sums[ai][jj] += stage_means[ai][jj] * take
        total += take

    rows = []
    for ai, a in enumerate(algs):
        va, da = value_acc[ai], diff_acc[ai]
        rows.append(ComparisonRow(
            strategy=a.describe(),
            replications=total,
            mean=va.mean,
            stderr=va.stderr,
            ci_lo=va.mean - 1.96 * va.stderr,
            ci_hi=va.mean + 1.96 * va.stderr,
            paired_diff_vs_greedy=da.mean,
            paired_stderr=da.stderr,
            coupled_violations=coupled_totals[ai] if coupled else None,
        ))
        _require_finite(*astuple(rows[-1])[2:8], *stage_sums[ai])
    stage_rows = []
    for ai, a in enumerate(algs):
        for jj in range(s.stages):
            stage_rows.append((
                a.describe(), jj + 1, s.times[jj], stage_sums[ai][jj] / total,
            ))
    return ComparisonTable(
        rows=tuple(rows),
        stage_rows=tuple(stage_rows),
        ensemble_hash=hasher.hexdigest(),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# dependence experiment
# ---------------------------------------------------------------------------

def default_drift_experiment() -> tuple[DriftModel, Schedule]:
    """Default configuration for the dependence demonstration.

    Persistent drift of +/-1 per step, buried under two-point noise ten
    times larger, observed once early (t=10) and once at the end (t=100):
    at the early cut the current values are noise-dominated while the
    drift estimate from a process's own steps is already near-exact, so a
    history-using rule should outrun value-only greedy.
    """
    model = drift_model(rademacher(10), drift_support=[1, -1], drift_probs=["1/2", "1/2"])
    schedule = validate_schedule([10, 100], [2, 1], N=8, T=100)
    return model, schedule


@dataclass(frozen=True)
class DriftReport:
    rows: tuple[ComparisonRow, ...]
    paired_diff: float        # drift_aware minus greedy
    paired_stderr: float
    replications: int
    seed: int
    model_tag: str


def dependent_model_experiment(drift: DriftModel, s: Schedule, reps: int,
                               seed: int, threads: int = 1) -> DriftReport:
    """Greedy versus the history-using baseline under persistent drift.

    Reports the paired mean difference (drift_aware minus greedy) with its
    paired standard error.  Under real drift the difference should be
    positive and many standard errors wide; with a degenerate zero drift
    the model has independent increments again and the advantage must
    disappear.
    """
    if not isinstance(drift, DriftModel):
        raise ConfigInvalid("dependent_model_experiment requires a drift model")
    table = compare_strategies(
        drift, s,
        [greedy_strategy(), baseline_strategies()["drift_aware"]],
        reps, seed, threads=threads,
    )
    da = table.row("drift_aware")
    return DriftReport(
        rows=table.rows,
        paired_diff=da.paired_diff_vs_greedy,
        paired_stderr=da.paired_stderr,
        replications=reps,
        seed=seed,
        model_tag=drift.tag(),
    )
