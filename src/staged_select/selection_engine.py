"""Execution of iterative selection strategies over a path ensemble.

A run proceeds through the schedule's stages.  At stage j the strategy sees
a `HistoryView` (survivor paths up to t_j, eliminated paths frozen at their
elimination time) and must return exactly n_j of the current survivors.
The run records survivor sets, the temporal index bookkeeping, and the final
selected value.

Each catalog strategy is defined once, as a `RankRule`: an array score
over grids cut at t_j and a keep rule.  `Strategy.select` evaluates it on
the view's candidates (one row), `batched_stage` on a whole chunk of
realizations.  `batched_stage` runs any other chooser too, one checked
decision per row on that row's `HistoryView`.

One global tie-break rule is used for every ranking in the package: higher
value wins, and equal values are ordered by smaller process id.  Consistency
of this rule across ranking, greedy selection, and alignment pairing is what
keeps the alignment map well-defined on tie sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core_model import Number, PathEnsemble, Schedule
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    StageOutOfOrder,
    StrategyViolation,
    ValueHidden,
)


def ranked_ids(ids: Sequence[int], value_of: Callable[[int], Number]) -> list[int]:
    """Ids ordered best-first: by value descending, ties to the smaller id.

    Sorting ascending ids by value with `reverse=True` keeps equal values in
    ascending id order (Python's reverse sort is stable), so no negated key
    or tuple is built per id.
    """
    return sorted(sorted(ids), key=value_of, reverse=True)


class _SortsLast:
    """An object-dtype sort key greater than every number."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


_LAST = _SortsLast()


def ranked_columns(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Batched `ranked_ids`: per row, the column ids best-first by score,
    ties to the smaller id, masked-out columns last.

    The stable argsort of the negated scores keeps equal scores in
    ascending id order.  Masked entries are keyed NaN, which sorts after
    every float, infinities included; exact (object-dtype) scores such as
    Fractions do not order against NaN, so there the key is `_LAST`.
    """
    last = _LAST if scores.dtype == object else np.nan
    return np.argsort(np.where(mask, -scores, last), axis=1, kind="stable")


# ---------------------------------------------------------------------------
# history views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HistoryView:
    """The observable portion of the ensemble at one stage.

    Eliminated processes are visible only up to their elimination time;
    reads past a process's horizon raise `ValueHidden`, so a strategy
    cannot depend on information the selection protocol hides.
    """

    stage: int                      # 1-based stage index j
    time: int                       # t_j
    times: tuple[int, ...]          # full observation grid
    survivors: tuple[int, ...]      # candidates for this cut
    _values: tuple[tuple[Number, ...], ...]
    _increments: tuple[tuple[Number, ...], ...]
    _horizons: tuple[int, ...]      # per-process visibility cap

    @property
    def n_processes(self) -> int:
        return len(self._horizons)

    @property
    def final_time(self) -> int:
        return self.times[-1]

    def horizon(self, i: int) -> int:
        return self._horizons[i]

    def value_at(self, i: int, t: int) -> Number:
        if t < 0 or t > self._horizons[i]:
            raise ValueHidden(
                f"process {i} is not observable at time {t} (horizon {self._horizons[i]})"
            )
        return self._values[i][t]

    def path(self, i: int) -> tuple[Number, ...]:
        """Visible value path of process i, from time 0 to its horizon."""
        return self._values[i][: self._horizons[i] + 1]

    def step_increments(self, i: int) -> tuple[Number, ...]:
        """Visible step increments of process i (one per observed step)."""
        return self._increments[i][: self._horizons[i]]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Strategy:
    """A named deterministic map (HistoryView, required size) -> survivors.

    Randomized strategies carry an auxiliary seed and are deterministic
    given it; `deterministic` is False only for intentionally ill-behaved
    strategies used to exercise the alignment guard.  A chooser that is a
    `RankRule` is scored on whole chunks as arrays (`batched_stage`).
    """

    name: str
    chooser: Callable[[HistoryView, int], Sequence[int]]
    aux_seed: int | None = None
    deterministic: bool = True

    def select(self, view: HistoryView, size: int) -> tuple[int, ...]:
        return tuple(self.chooser(view, size))

    def describe(self) -> str:
        if self.aux_seed is not None:
            return f"{self.name}(aux_seed={self.aux_seed})"
        return self.name


@dataclass(frozen=True)
class RankRule:
    """A strategy defined once, as a ranking rule that the scalar engine
    (`Strategy.select`) and the batched one (`batched_stage`) both evaluate.

    `score(j, times, n_processes, values, increments, ids)` maps grids cut
    at t_j -- values (rows, k, t_j + 1) and increments (rows, k, t_j) whose
    k columns are the processes `ids` -- to (rows, k) or (1, k) scores.
    Candidates are ranked by score with the package tie rule, and the rule
    keeps the top n_j, or with `sabotage` the bottom n_j at every stage but
    the last.  Exhaustive verification ranks support-scaled integer grids,
    so a score must order scaled grids as it orders the originals (each
    catalog score is positively homogeneous in the paths or ignores them).
    """

    score: Callable[..., np.ndarray]
    sabotage: bool = False

    def kept(self, n_alive: int, n_j: int, last: bool) -> slice:
        """The kept positions of a best-first order of n_alive candidates."""
        return slice(n_alive - n_j, n_alive) if self.sabotage and not last else slice(n_j)

    def __call__(self, view: HistoryView, size: int) -> list[int]:
        # one row of the candidates' grids as exact objects: a candidate is
        # visible up to t_j, so its path and steps split at column t_j + 1
        ids = sorted(view.survivors)
        grid = np.array([[view.path(i) + view.step_increments(i) for i in ids]], dtype=object)
        values, increments = grid[..., :view.time + 1], grid[..., view.time + 1:]
        scores = self.score(view.stage, view.times, view.n_processes, values, increments, ids)
        order = ranked_ids(range(len(ids)), scores[0].tolist().__getitem__)
        return [ids[c] for c in order[self.kept(len(ids), size, view.stage == len(view.times))]]


def _current_value(j, times, n_processes, values, increments, ids):
    return values[..., times[j - 1]]


def _lagged_value(j, times, n_processes, values, increments, ids):
    # the previous observation time; at stage 1 that is time 0, where all
    # values are 0, so the tie rule keeps the smallest ids
    return values[..., 0 if j == 1 else times[j - 2]]


def _drift_aware_score(j, times, n_processes, values, increments, ids):
    # current value + estimated mean step * remaining steps; the step
    # location estimate is the midrange of the process's own observed
    # increments, which is efficient for bounded noise and collapses the
    # strategy to greedy when no steps remain
    t_j = times[j - 1]
    v = values[..., t_j]
    remaining = times[-1] - t_j
    if remaining == 0:
        return v
    # column by column: a numpy min/max over a short last axis is ~5x slower
    lo = hi = increments[..., 0]
    for c in range(1, t_j):
        lo = np.minimum(lo, increments[..., c])
        hi = np.maximum(hi, increments[..., c])
    return v + remaining * ((lo + hi) / 2)


def greedy_strategy() -> Strategy:
    """Keep the survivors with the best current values.  Memoryless: only
    values at the current observation time enter the decision."""
    return Strategy(name="greedy", chooser=RankRule(_current_value))


@lru_cache(maxsize=64)
def _priority_table(aux_seed: int, stages: int, n_processes: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=aux_seed, spawn_key=(0x5EED,)))
    return rng.random((stages, n_processes))


def random_fixed_strategy(aux_seed: int) -> Strategy:
    """Value-blind uniformly random selection, frozen by the auxiliary seed.

    Each (stage, process) gets a pseudo-random priority; the stage keeps the
    survivors with the highest priorities.  Independent uniform priorities
    make every legal subset equally likely, while the fixed table keeps the
    strategy deterministic and recomputable from any history prefix.
    """

    def priority(j, times, n_processes, values, increments, ids):
        # one row of scores, broadcast over the rows of the grids
        return _priority_table(aux_seed, len(times), n_processes)[None, j - 1, ids]

    return Strategy(name="random_fixed", chooser=RankRule(priority), aux_seed=aux_seed)


def baseline_strategies(aux_seed: int = 2024) -> dict[str, Strategy]:
    """The comparison catalog: everything here is deterministic and legal.
    `anti_greedy` sabotages every cut by keeping the worst-ranked
    survivors, but reports the best remaining one at the terminal stage."""
    return {
        "anti_greedy": Strategy(name="anti_greedy", chooser=RankRule(_current_value, sabotage=True)),
        "random_fixed": random_fixed_strategy(aux_seed),
        "lagged_greedy": Strategy(name="lagged_greedy", chooser=RankRule(_lagged_value)),
        "drift_aware": Strategy(name="drift_aware", chooser=RankRule(_drift_aware_score)),
    }


def full_catalog(aux_seed: int = 2024) -> list[Strategy]:
    return [greedy_strategy(), *baseline_strategies(aux_seed).values()]


def batched_stage(alg: Strategy, s: Schedule, j: int, values: np.ndarray,
                  increments: np.ndarray, kept: Sequence[np.ndarray]) -> np.ndarray:
    """Stage j of the strategy on every row of a chunk at once.

    `values` (reps, N, t_j + 1) and `increments` (reps, N, t_j), float64 or
    exact objects, are the grids cut at t_j, so no chooser reads the future;
    `kept` holds the survivor masks (reps, N) of stages 1..j-1.  Returns the
    survivor mask.  A `RankRule` is scored as arrays and ranked with
    `ranked_columns`; any other chooser decides row by row through
    `stage_decision` on the row's `HistoryView`, as in `StagewiseRun`: a
    process that survived m stages is visible up to t_{m+1}.
    """
    alive = kept[-1] if kept else np.ones(values.shape[:2], dtype=bool)
    rule = alg.chooser
    out = np.zeros_like(alive)
    if isinstance(rule, RankRule):
        scores = rule.score(j, s.times, s.N, values, increments, np.arange(s.N))
        order = ranked_columns(scores, alive)
        keep = rule.kept(s.N if j == 1 else s.sizes[j - 2], s.sizes[j - 1], j == s.stages)
        np.put_along_axis(out, order[:, keep], True, axis=1)
        return out
    horizons = np.take(s.times, sum(kept, np.zeros(alive.shape, dtype=np.intp)))
    rows = zip(values.tolist(), increments.tolist(), horizons.tolist(), alive.tolist())
    for r, (v, inc, h, a) in enumerate(rows):
        candidates = tuple(i for i, live in enumerate(a) if live)
        chosen = stage_decision(s, alg, j, candidates, tuple(map(tuple, v)),
                                tuple(map(tuple, inc)), tuple(h))
        out[r, list(chosen)] = True
    return out


def strategy_from_config(obj: dict, path: str = "strategy") -> Strategy:
    if not isinstance(obj, dict) or "name" not in obj:
        raise ConfigInvalid(f"{path}.name: missing required key")
    name = obj["name"]
    extra = set(obj) - {"name", "aux_seed"}
    if extra:
        raise ConfigInvalid(f"{path}.{sorted(extra)[0]}: unknown key")
    if name == "random_fixed":
        if "aux_seed" not in obj:
            raise ConfigInvalid(f"{path}.aux_seed: missing required key for random_fixed")
        aux_seed = obj["aux_seed"]
        if not isinstance(aux_seed, int) or isinstance(aux_seed, bool) or aux_seed < 0:
            raise ConfigInvalid(f"{path}.aux_seed: expected an integer >= 0")
        return random_fixed_strategy(aux_seed)
    if "aux_seed" in obj:
        raise ConfigInvalid(f"{path}.aux_seed: only valid for random_fixed")
    if name == "greedy":
        return greedy_strategy()
    catalog = baseline_strategies()
    if isinstance(name, str) and name in catalog:
        return catalog[name]
    raise ConfigInvalid(f"{path}.name: unknown strategy {name!r}")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageRecord:
    stage: int
    time: int
    candidates: tuple[int, ...]            # W_{j-1}, the set that was ranked
    survivors: tuple[int, ...]             # selected set, sorted
    eliminated: tuple[int, ...]            # dropped at this stage, sorted
    values: tuple[tuple[int, Number], ...]  # (id, value at t_j) for candidates
    indices: tuple[tuple[int, int], ...]   # full temporal index map after ranking


@dataclass(frozen=True)
class SelectionTrace:
    strategy: str
    stages: tuple[StageRecord, ...]
    final_index: int
    final_value: Number

    def survivor_sets(self) -> list[tuple[int, ...]]:
        return [rec.survivors for rec in self.stages]


def assign_temporal_indices(
    trace_so_far: SelectionTrace | Sequence[StageRecord] | None,
    stage: int,
    values_at_tj: Sequence[Number],
) -> dict[int, int]:
    """Rank-based index assignment for one stage.

    Stage 1 ranks all processes by their values; stage j > 1 re-ranks only
    the previous survivors with indices 1..n_{j-1}, while every eliminated
    process keeps the index from its last ranking.
    """
    records: Sequence[StageRecord]
    if trace_so_far is None:
        records = ()
    elif isinstance(trace_so_far, SelectionTrace):
        records = trace_so_far.stages
    else:
        records = tuple(trace_so_far)
    if stage != len(records) + 1:
        raise StageOutOfOrder(f"stage {stage} requested after {len(records)} recorded stages")
    if stage == 1:
        candidates: Sequence[int] = range(len(values_at_tj))
        previous: dict[int, int] = {}
    else:
        candidates = records[-1].survivors
        previous = dict(records[-1].indices)
    order = ranked_ids(candidates, lambda i: values_at_tj[i])
    indices = dict(previous)
    for pos, i in enumerate(order, start=1):
        indices[i] = pos
    return indices


def stage_decision(
    s: Schedule,
    strategy: Strategy,
    stage: int,
    candidates: tuple[int, ...],
    values: Sequence[Sequence[Number]],
    increments: Sequence[Sequence[Number]],
    horizons: tuple[int, ...],
) -> tuple[int, ...]:
    """The strategy's checked stage decision, as a sorted survivor tuple.

    Builds the stage's `HistoryView` (each process visible up to its
    horizon; the candidates' horizon is t_j), runs the strategy once and
    raises `StrategyViolation` unless it picked exactly n_j distinct
    candidates.  Rows need only reach their horizon: reads past it raise
    `ValueHidden` before any row is indexed.
    """
    n_j = s.sizes[stage - 1]
    view = HistoryView(
        stage=stage,
        time=s.times[stage - 1],
        times=s.times,
        survivors=candidates,
        _values=values,
        _increments=increments,
        _horizons=horizons,
    )
    chosen = strategy.select(view, n_j)
    chosen_set = set(chosen)
    if len(chosen) != n_j or len(chosen_set) != n_j:
        raise StrategyViolation(
            f"{strategy.name} returned {len(chosen)} picks at stage {stage}, wanted {n_j} distinct"
        )
    if not chosen_set <= set(candidates):
        raise StrategyViolation(
            f"{strategy.name} selected non-survivors {sorted(chosen_set - set(candidates))} at stage {stage}"
        )
    return tuple(sorted(chosen_set))


class StagewiseRun:
    """Incremental strategy execution over a value grid, one stage at a
    time, with the temporal index bookkeeping of each stage.

    Each stage reads values only up to its own observation time.  Grids
    are held by reference; views are read-only by contract.
    """

    def __init__(self, schedule: Schedule, strategy: Strategy,
                 values: Sequence[Sequence[Number]],
                 increments: Sequence[Sequence[Number]]):
        self.schedule = schedule
        self.strategy = strategy
        self.values = values
        self.increments = increments
        self.survivors: tuple[int, ...] = tuple(range(schedule.N))
        self.horizons = [0] * schedule.N
        self.records: list[StageRecord] = []

    def advance(self) -> StageRecord:
        """Run one more stage and return its record."""
        j = len(self.records) + 1
        if j > self.schedule.stages:
            raise StageOutOfOrder(f"all {self.schedule.stages} stages already run")
        t_j = self.schedule.times[j - 1]
        candidates = self.survivors
        # visibility: candidates up to t_j, earlier casualties stay frozen
        for i in candidates:
            self.horizons[i] = t_j
        survivors = stage_decision(self.schedule, self.strategy, j, candidates,
                                   self.values, self.increments, tuple(self.horizons))
        values_at_tj = [self.values[i][t_j] for i in range(self.schedule.N)]
        indices = tuple(sorted(assign_temporal_indices(self.records, j, values_at_tj).items()))
        observed = tuple((i, self.values[i][t_j]) for i in candidates)
        eliminated = tuple(i for i in candidates if i not in survivors)
        record = StageRecord(
            stage=j,
            time=t_j,
            candidates=tuple(candidates),
            survivors=survivors,
            eliminated=eliminated,
            values=observed,
            indices=indices,
        )
        self.records.append(record)
        self.survivors = survivors
        return record


def run_selection(x: PathEnsemble, s: Schedule, alg: Strategy) -> SelectionTrace:
    """Execute the strategy over every stage and record the full trace."""
    if x.n_processes != s.N or x.horizon != s.T:
        raise DimensionMismatch(
            f"ensemble is {x.n_processes}x{x.horizon}, schedule wants {s.N}x{s.T}"
        )
    run = StagewiseRun(s, alg, x.values, x.increments)
    for _ in range(s.stages):
        run.advance()
    final_index = run.survivors[0]
    return SelectionTrace(
        strategy=alg.describe(),
        stages=tuple(run.records),
        final_index=final_index,
        final_value=x.values[final_index][s.T],
    )


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

TRACE_CSV_HEADER = ("stage", "time", "process_id", "value", "temporal_index", "survived")


def trace_to_csv_rows(trace: SelectionTrace, x: PathEnsemble, s: Schedule) -> list[tuple]:
    """Long-format rows, one per (process, time point).

    `stage` is the stage whose window contains the time (0 for t=0);
    `temporal_index` is the index held at that time (0 before the first
    ranking); `survived` says whether the process was still retained after
    all decisions up to that time.
    """
    stage_of_time = {0: 0}
    for j, t in enumerate(s.times, start=1):
        lo = s.previous_time(j)
        for t_in in range(lo + 1, t + 1):
            stage_of_time[t_in] = j
    index_after = {0: {i: 0 for i in range(s.N)}}
    surviving_after = {0: set(range(s.N))}
    for rec in trace.stages:
        index_after[rec.stage] = dict(rec.indices)
        surviving_after[rec.stage] = set(rec.survivors)
    rows = []
    for i in range(s.N):
        for t in range(s.T + 1):
            j = stage_of_time[t]
            # the ranking and cut at stage j take effect at t = t_j; interior
            # times still carry the previous stage's bookkeeping
            done = sum(1 for obs in s.times if obs <= t)
            held = index_after[done].get(i, 0)
            alive = i in surviving_after[done]
            rows.append((j, t, i, x.values[i][t], held, int(alive)))
    return rows
