"""Exact certification oracles for small discrete instances.

Every result is one exact `fractions.Fraction`, and optimality claims are
equalities of exact rationals, never float comparisons.

Three independent routes to the optimal expected final value exist:

* `exact_expected_value` evaluates one concrete strategy on every
  reachable history: one strategy decision per reachable stage history,
  taken for a whole frontier of histories at once, with only the kept
  processes' rows extended block by block;
* `dp_optimal_value` maximizes over all history-measurable strategies by
  backward induction in `Fraction` arithmetic, memoized on a
  rank-canonicalized history encoding (symmetric states merge; sound
  because processes are exchangeable and increments are independent,
  which the oracle enforces);
* `exhaustive_strategy_search` walks the raw decision histories with no
  state merging at all — full per-process paths, interior steps included —
  and optimizes every reachable decision history pointwise.  It also
  reports the cardinality of the deterministic strategy space it maximized
  over.

The first and the last share one frontier walk (`_frontier_walk`).  It
decides on the grid of `exact_grid`, the support scaled to integers in
float64 where that is exact for the decision and Fraction objects
otherwise, and weights each block outcome by an integer, the product of
its probability numerators over a common denominator: the sums are exact
integers, divided once at the end.

Agreement of all three on an instance certifies the backward-induction
shortcuts empirically rather than by appeal to theory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .core_model import (
    Discrete,
    DriftModel,
    ENUMERATION_CAP,
    REPLICATION_CHUNK,
    Model,
    Number,
    Rademacher,
    Schedule,
)
from .errors import (
    ConfigInvalid,
    EnumerationTooLarge,
    IndependenceViolated,
    PreconditionViolated,
    SearchTooLarge,
)
from .selection_engine import RankRule, Strategy, batched_stage, ranked_columns

#: default cap on decision-tree nodes for the uncompressed search
SEARCH_CAP = 5_000_000


def instance_label(model: Model, s: Schedule) -> str:
    return f"{model.tag()} N={s.N} times={list(s.times)} sizes={list(s.sizes)}"


@dataclass(frozen=True)
class ExactValue:
    """An exact expected final value together with its provenance."""

    value: Fraction
    instance: str
    strategy: str

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


def _require_discrete_independent(model: Model) -> Discrete:
    if isinstance(model, DriftModel):
        raise IndependenceViolated(
            "exact oracles require independent increments; drift models are refused"
        )
    if isinstance(model, Rademacher):
        return model.as_discrete()
    if not isinstance(model, Discrete):
        raise ConfigInvalid(
            f"model: exact oracles need a discrete-step model, got {model.tag()}"
        )
    return model


# ---------------------------------------------------------------------------
# the frontier walk over reachable histories
# ---------------------------------------------------------------------------

def exact_grid(disc: Discrete, T: int, scale_invariant: bool) -> tuple[int, np.ndarray]:
    """The support an exact walk runs on, as (scale, grid).

    A decision that orders support-scaled paths as it orders the originals
    (a `RankRule`, or the search's best current value) runs on the support
    times the lcm of its denominators, in float64: values and rule scores
    are then integers or half-integers, exact under the guard
    2 * T * max|scaled step| < 2**52, so rankings and ties equal the
    rational run's.  Past the guard, and for any other chooser (which may
    rank scaled paths differently), the grid is the unscaled support as
    Fraction objects at scale 1.
    """
    scale = math.lcm(*(v.denominator for v in disc.support))
    steps = [int(v * scale) for v in disc.support]
    if scale_invariant and 2 * T * max(map(abs, steps)) < 2 ** 52:
        return scale, np.array(steps, dtype=float)
    return 1, np.array(disc.support, dtype=object)


class _Frontier(NamedTuple):
    """Reachable stage histories, one per row: `values` (n, t + 1, N), the
    value paths cut at the frontier's time t and stored time-major, so that
    a block appends contiguously, and `survived` (n, N), the number of
    decided stages each process survived.  A process eliminated at stage m
    is frozen at t_m: its later values repeat and no decision reads them."""

    values: np.ndarray
    survived: np.ndarray

    def grids(self, j: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Values (n, N, t + 1), increments (n, N, t) and the survivor
        masks (n, N) of stages 1..j-1, as `batched_stage` takes them."""
        values = self.values.transpose(0, 2, 1)
        return (values, np.diff(values, axis=2),
                tuple(self.survived >= m for m in range(1, j)))


def _frontier_walk(disc: Discrete, s: Schedule, scale: int, grid: np.ndarray,
                   decide) -> tuple[Fraction, int]:
    """Expected final value of a stage rule over every reachable history,
    and the number of stage histories it decided at.

    `decide(j, frontier)` returns, for each history of a stage-j frontier,
    its candidate survivor sets as masks (n, c, N); at the last stage, each
    history's final value (n,).  A set's value sums its next block's
    outcomes for the kept rows only, each weighted by the product of its
    probability numerators over D, the lcm of the probability
    denominators; a history takes its best set.  Every path takes the same
    number of steps, so the values of one level share the denominator
    D^(steps below): the sums are int64 while T * max|step| * D^steps <
    2**63, Python ints past it, and Fractions on an object grid.  The
    result is the root's sum over D^steps * scale.

    A level's (history, set, outcome) triples are expanded
    `REPLICATION_CHUNK` at a time, each slice walked to the last stage
    before the next, so no frontier holds more rows than that.
    """
    m, spans = len(disc.support), s.block_bounds()
    denom = math.lcm(*(p.denominator for p in disc.probs))
    widths = (s.N, *s.sizes[:-1])   # rows that step in block j + 1
    steps = sum(w * (hi - lo) for w, (lo, hi) in zip(widths, spans))
    fits = grid.dtype != object and s.T * int(np.abs(grid).max()) * denom ** steps < 2 ** 63
    acc = np.int64 if fits else object
    numerators = np.array([int(p * denom) for p in disc.probs], dtype=acc)
    visited = 0

    def level(j: int, f: _Frontier) -> np.ndarray:
        nonlocal visited
        n = f.values.shape[0]
        if j == s.stages:
            visited += n
            final = decide(j, f)
            return final if grid.dtype == object else final.astype(np.int64).astype(acc)
        if j:
            visited += n
            sets = decide(j, f)
        else:
            sets = np.ones((1, 1, s.N), dtype=bool)
        c = sets.shape[1]
        sets = sets.reshape(n * c, s.N)
        (lo, hi), width = spans[j], widths[j]
        outcomes = m ** (width * (hi - lo))
        radix = m ** np.arange(width * (hi - lo) - 1, -1, -1)
        value = np.zeros(n * c, dtype=acc)
        total = n * c * outcomes
        for start in range(0, total, REPLICATION_CHUNK):
            flat = np.arange(start, min(start + REPLICATION_CHUNK, total))
            pair, code = flat // outcomes, flat % outcomes
            symbols = (code[:, None] // radix % m).reshape(-1, width, hi - lo)
            child = _extend(f, pair // c, sets[pair], grid[symbols], lo, hi, j > 0)
            weighted = level(j + 1, child) * numerators[symbols].prod(axis=(1, 2))
            first = np.flatnonzero(np.diff(pair, prepend=-1))
            value[pair[first]] += np.add.reduceat(weighted, first)
        return value.reshape(n, c).max(axis=1)

    root = _Frontier(np.zeros((1, 1, s.N), dtype=grid.dtype), np.zeros((1, s.N), dtype=np.intp))
    total = level(0, root).tolist()[0]
    return Fraction(total) / (denom ** steps * scale), visited


def _extend(f: _Frontier, node: np.ndarray, mask: np.ndarray, steps: np.ndarray,
            lo: int, hi: int, decided: bool) -> _Frontier:
    """Frontier rows `node` of f, each extended by one block outcome over
    [lo, hi): the processes of `mask` (rows, N) take `steps`
    (rows, width, hi - lo) in id order, the others stay frozen.  With
    `decided`, `mask` is the new stage's survivor mask."""
    rows, n = mask.shape
    values = np.empty((rows, hi + 1, n), dtype=steps.dtype)
    values[:, :lo + 1] = f.values[node]
    block = np.zeros((rows, hi - lo, n), dtype=steps.dtype)
    block.transpose(0, 2, 1)[mask] = steps.reshape(-1, hi - lo)
    for t in range(lo, hi):   # sequential accumulation, as in `PathEnsemble`
        values[:, t + 1] = values[:, t] + block[:, t - lo]
    survived = f.survived[node]
    return _Frontier(values, survived + mask if decided else survived)


# ---------------------------------------------------------------------------
# strategy evaluation on the frontier walk
# ---------------------------------------------------------------------------

def exact_expected_value(
    model: Model, s: Schedule, alg: Strategy, cap: int = ENUMERATION_CAP
) -> ExactValue:
    """Exact expectation of the strategy's final selected value."""
    return exact_expected_values(model, s, [alg], cap=cap)[0]


def exact_expected_values(
    model: Model, s: Schedule, algs: Sequence[Strategy], cap: int = ENUMERATION_CAP
) -> list[ExactValue]:
    """Evaluate strategies exactly on every reachable history.

    The frontier of stage-j histories is decided at once by
    `batched_stage`, through the same view and legality checks as a
    `StagewiseRun` for a chooser that is not a `RankRule`; the walk then
    branches on block j+1's outcomes for the kept processes only.  An
    eliminated process's later steps reach neither a decision nor the final
    value, so they are summed out rather than enumerated.  The result equals
    the sum of P(atom) * final value over the full path enumeration, which
    the cap still bounds.
    """
    disc = _require_discrete_independent(model)
    count = len(disc.support) ** (s.N * s.T)
    if count > cap:
        raise EnumerationTooLarge(count, cap)
    label = instance_label(model, s)
    out = []
    for alg in algs:
        scale, grid = exact_grid(disc, s.T, isinstance(alg.chooser, RankRule))

        def decide(j: int, f: _Frontier, alg=alg) -> np.ndarray:
            mask = batched_stage(alg, s, j, *f.grids(j))
            if j == s.stages:
                return f.values[np.arange(len(mask)), s.T, np.argmax(mask, axis=1)]
            return mask[:, None, :]

        value, _ = _frontier_walk(disc, s, scale, grid, decide)
        out.append(ExactValue(value=value, instance=label, strategy=alg.describe()))
    return out


# ---------------------------------------------------------------------------
# backward induction over canonicalized histories
# ---------------------------------------------------------------------------

def _sum_distribution(model: Discrete, length: int) -> list[tuple[Fraction, Fraction]]:
    """Exact law of the sum of `length` i.i.d. steps."""
    dist = {Fraction(0): Fraction(1)}
    for _ in range(length):
        new: dict[Fraction, Fraction] = {}
        for v, p in dist.items():
            for step, q in zip(model.support, model.probs):
                key = v + step
                new[key] = new.get(key, Fraction(0)) + p * q
        dist = new
    return sorted(dist.items())


def _format_exact(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class DecisionTable:
    """One argmax decision per reachable canonical decision history."""

    entries: tuple[tuple[str, tuple[Fraction, ...]], ...]

    def to_csv_rows(self) -> list[tuple[str, str]]:
        return [
            (key, " ".join(_format_exact(v) for v in chosen))
            for key, chosen in self.entries
        ]


def dp_optimal_value(
    model: Model, s: Schedule, cap: int = ENUMERATION_CAP
) -> tuple[ExactValue, DecisionTable]:
    """Optimal expected final value over every history-measurable strategy.

    States are canonicalized per stage as the ranked multiset of the ranked
    cohort's values with kept/dropped flags; the memo key is the sequence of
    those records plus the current candidates' ranked values.  Merging
    symmetric states this way is value-preserving because processes are
    interchangeable and, given independent increments, the continuation law
    depends only on the candidates' current values.  The uncompressed search
    below exists precisely to cross-check this encoding.
    """
    disc = _require_discrete_independent(model)
    count = len(disc.support) ** (s.N * s.T)
    if count > cap:
        raise EnumerationTooLarge(count, cap)
    spans = s.block_bounds()
    block_sum_dists = [_sum_distribution(disc, hi - lo) for lo, hi in spans]
    sizes = s.sizes
    k = s.stages
    memo: dict[tuple, Fraction] = {}
    decisions: dict[tuple, tuple[Fraction, ...]] = {}

    def decide(j: int, hist: tuple, anchors: tuple[Fraction, ...]) -> Fraction:
        key = (j, hist, anchors)
        if key in memo:
            return memo[key]
        n_j = sizes[j - 1]
        best: Fraction | None = None
        best_choice: tuple[Fraction, ...] = ()
        seen: set[tuple[Fraction, ...]] = set()
        for positions in itertools.combinations(range(len(anchors)), n_j):
            chosen = tuple(anchors[p] for p in positions)
            if chosen in seen:
                continue  # same value multiset, identical continuation
            seen.add(chosen)
            if j == k:
                value = chosen[0]
            else:
                kept = set(positions)
                record = tuple(
                    (anchors[p], p in kept) for p in range(len(anchors))
                )
                value = expect(j, hist + (record,), chosen)
            if best is None or value > best:
                best = value
                best_choice = chosen
        assert best is not None
        memo[key] = best
        decisions[key] = best_choice
        return best

    def expect(j: int, hist: tuple, kept: tuple[Fraction, ...]) -> Fraction:
        # expectation over the next block's per-survivor sums
        dist = block_sum_dists[j]
        total = Fraction(0)
        for sums in itertools.product(dist, repeat=len(kept)):
            prob = Fraction(1)
            for _, p in sums:
                prob *= p
            new_anchors = tuple(
                sorted((v + ds for v, (ds, _) in zip(kept, sums)), reverse=True)
            )
            total += prob * decide(j + 1, hist, new_anchors)
        return total

    value = expect(0, (), tuple([Fraction(0)] * s.N))
    table = DecisionTable(entries=tuple(
        (_decision_key_string(key), chosen)
        for key, chosen in sorted(decisions.items(), key=lambda kv: _decision_key_string(kv[0]))
    ))
    return (
        ExactValue(value=value, instance=instance_label(model, s), strategy="dp_optimal"),
        table,
    )


def _decision_key_string(key: tuple) -> str:
    j, hist, anchors = key
    stages = []
    for record in hist:
        stages.append(",".join(
            f"{_format_exact(v)}{'+' if kept else '-'}" for v, kept in record
        ))
    hist_part = ";".join(stages) if stages else "-"
    anchor_part = ",".join(_format_exact(v) for v in anchors)
    return f"stage={j}|past={hist_part}|values={anchor_part}"


# ---------------------------------------------------------------------------
# uncompressed pointwise search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    best: ExactValue
    strategy_space_size: int   # deterministic maps the search maximized over
    decision_histories: int    # distinct reachable decision points


def exhaustive_strategy_search(
    model: Model, s: Schedule, cap: int = SEARCH_CAP
) -> SearchResult:
    """Maximize over every deterministic strategy by walking every
    reachable decision history, with every legal survivor set at each,
    without any state merging.

    Histories are raw: every process's full visible path, interior steps
    included, with no canonicalization.  Each reachable decision history is
    optimized independently, which realizes the maximum over the complete
    product space of deterministic maps (choices at distinct histories
    affect disjoint branches); that space's exact cardinality is returned.
    Enumerating strategy profiles one by one would visit
    prod-over-histories(choice counts) profiles, which is astronomically
    redundant — the frontier walk computes the same maximum in
    `decision_histories` node visits, reducing backward: the last stage
    takes the best current value, each earlier one the best set's weighted
    sum over its next block.
    """
    disc = _require_discrete_independent(model)
    spans = s.block_bounds()
    sizes = s.sizes
    k = s.stages

    # work / cardinality accounting before the walk
    histories_at_stage = []
    nodes = 1
    for j in range(1, k + 1):
        lo, hi = spans[j - 1]
        alive = s.N if j == 1 else sizes[j - 2]
        nodes *= len(disc.support) ** (alive * (hi - lo))
        histories_at_stage.append(nodes)
        nodes *= math.comb(alive, sizes[j - 1]) if j < k else 1
    total_nodes = sum(histories_at_stage)
    if total_nodes > cap:
        raise SearchTooLarge(total_nodes, cap)
    strategy_space = 1
    for j in range(1, k + 1):
        alive = s.N if j == 1 else sizes[j - 2]
        strategy_space *= math.comb(alive, sizes[j - 1]) ** histories_at_stage[j - 1]

    choices = [np.array(list(itertools.combinations(range(alive), n_j)))
               for alive, n_j in zip((s.N, *sizes), sizes[:-1])]

    def decide(j: int, f: _Frontier) -> np.ndarray:
        alive = f.survived == j - 1
        if j == k:
            current = f.values[:, s.T]
            best = ranked_columns(current, alive)[:, :1]
            return np.take_along_axis(current, best, axis=1)[:, 0]
        ids = np.flatnonzero(alive).reshape(len(alive), -1) % s.N
        sets = np.zeros((len(alive), len(choices[j - 1]), s.N), dtype=bool)
        np.put_along_axis(sets, ids[:, choices[j - 1]], True, axis=2)
        return sets

    value, visited = _frontier_walk(disc, s, *exact_grid(disc, s.T, True), decide)
    return SearchResult(
        best=ExactValue(value=value, instance=instance_label(model, s),
                        strategy="exhaustive_search"),
        strategy_space_size=strategy_space,
        decision_histories=visited,
    )


# ---------------------------------------------------------------------------
# order statistics lemma
# ---------------------------------------------------------------------------

def order_stat_lemma_check(
    A: Sequence[Number], B: Sequence[Number], C: Sequence[Number]
) -> bool:
    """True iff the m-th largest of A+C is at most the m-th largest of B+C
    for every m, given the componentwise precondition A <= B."""
    if not A or len(A) != len(B) or len(A) != len(C):
        raise PreconditionViolated("A, B, C must be nonempty vectors of equal length")
    if any(a > b for a, b in zip(A, B)):
        raise PreconditionViolated("requires A[i] <= B[i] for all i")
    ac = sorted((a + c for a, c in zip(A, C)), reverse=True)
    bc = sorted((b + c for b, c in zip(B, C)), reverse=True)
    return all(x <= y for x, y in zip(ac, bc))
