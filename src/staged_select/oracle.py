"""Exact certification oracles for small discrete instances.

Everything in this module computes with `fractions.Fraction`: expectations,
probabilities, and path values.  Optimality claims are equalities of exact
rationals, never float comparisons.

Three independent routes to the optimal expected final value exist:

* `exact_expected_value` evaluates one concrete strategy on the tree of
  reachable histories: one strategy decision per reachable stage history,
  with only the kept processes' rows extended block by block, weighted by
  products of step probabilities;
* `dp_optimal_value` maximizes over all history-measurable strategies by
  backward induction, memoized on a rank-canonicalized history encoding
  (symmetric states merge; sound because processes are exchangeable and
  increments are independent, which the oracle enforces);
* `exhaustive_strategy_search` walks the raw decision tree with no state
  merging at all — full per-process paths, interior steps included — and
  optimizes every reachable decision history pointwise.  It also reports
  the cardinality of the deterministic strategy space it maximized over.

Agreement of all three on an instance certifies the backward-induction
shortcuts empirically rather than by appeal to theory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core_model import (
    Discrete,
    DriftModel,
    ENUMERATION_CAP,
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
from .selection_engine import Strategy, stage_decision

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
# the tree of reachable histories
# ---------------------------------------------------------------------------

Rows = tuple[tuple[Number, ...], ...]


class _HistoryTree:
    """Block-by-block expansion of a discrete-step ensemble's histories.

    A node holds every process's visible value and step rows; a row's
    length is its horizon, so eliminated rows stay frozen at their
    elimination time and nothing past the current observation time exists.
    Expanding a node extends only the given processes' rows by one block.
    """

    def __init__(self, disc: Discrete, s: Schedule):
        self.steps = list(zip(disc.support, disc.probs))
        self.spans = s.block_bounds()
        self.N = s.N

    def expectation(self, j: int, values: Rows, increments: Rows,
                    kept: tuple[int, ...], then) -> Fraction:
        """E[then(j + 1, values', increments', kept)] over every outcome of
        block j + 1 for the kept rows (j = 0 expands the empty history)."""
        lo, hi = self.spans[j]
        length = hi - lo
        total = Fraction(0)
        for combo in itertools.product(self.steps, repeat=len(kept) * length):
            prob = Fraction(1)
            new_values = list(values)
            new_increments = list(increments)
            for idx, i in enumerate(kept):
                segment = combo[idx * length:(idx + 1) * length]
                row = list(values[i])
                # sequential accumulation, as in the PathEnsemble constructor
                acc = row[-1]
                for step, q in segment:
                    prob *= q
                    acc = acc + step
                    row.append(acc)
                new_values[i] = tuple(row)
                new_increments[i] = increments[i] + tuple(step for step, _ in segment)
            total += prob * then(j + 1, tuple(new_values), tuple(new_increments), kept)
        return total

    def root_expectation(self, then) -> Fraction:
        """Expectation from time 0, where every process is a candidate."""
        start_values = tuple((0,) for _ in range(self.N))
        start_increments = tuple(() for _ in range(self.N))
        return self.expectation(0, start_values, start_increments,
                                tuple(range(self.N)), then)


# ---------------------------------------------------------------------------
# strategy evaluation on the history tree
# ---------------------------------------------------------------------------

def exact_expected_value(
    model: Model, s: Schedule, alg: Strategy, cap: int = ENUMERATION_CAP
) -> ExactValue:
    """Exact expectation of the strategy's final selected value."""
    return exact_expected_values(model, s, [alg], cap=cap)[0]


def exact_expected_values(
    model: Model, s: Schedule, algs: Sequence[Strategy], cap: int = ENUMERATION_CAP
) -> list[ExactValue]:
    """Evaluate strategies exactly on the tree of reachable histories.

    At each reachable stage-j history the strategy decides once, through
    the same view and legality checks as a `StagewiseRun`; the walk then
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
    tree = _HistoryTree(disc, s)
    label = instance_label(model, s)
    return [
        ExactValue(value=_strategy_value(tree, s, alg), instance=label,
                   strategy=alg.describe())
        for alg in algs
    ]


def _strategy_value(tree: _HistoryTree, s: Schedule, alg: Strategy) -> Fraction:
    def decide(j: int, values: Rows, increments: Rows,
               candidates: tuple[int, ...]) -> Fraction:
        horizons = tuple(len(row) - 1 for row in values)
        chosen = stage_decision(s, alg, j, candidates, values, increments, horizons)
        if j == s.stages:
            return values[chosen[0]][s.T]
        return tree.expectation(j, values, increments, chosen, decide)

    return tree.root_expectation(decide)


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
    """Maximize over every deterministic strategy by walking the full
    decision tree without any state merging.

    Histories are raw: every process's full visible path, interior steps
    included, with no canonicalization.  Each reachable decision history is
    optimized independently, which realizes the maximum over the complete
    product space of deterministic maps (choices at distinct histories
    affect disjoint branches); that space's exact cardinality is returned.
    Enumerating strategy profiles one by one would visit
    prod-over-histories(choice counts) profiles, which is astronomically
    redundant — the tree walk computes the same maximum in
    `decision_histories` node visits.
    """
    disc = _require_discrete_independent(model)
    spans = s.block_bounds()
    sizes = s.sizes
    k = s.stages

    # work / cardinality accounting before touching the tree
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

    tree = _HistoryTree(disc, s)
    visited = 0

    def best_at_decision(j: int, values: Rows, increments: Rows,
                         survivors: tuple[int, ...]) -> Fraction:
        nonlocal visited
        visited += 1
        best: Fraction | None = None
        for chosen in itertools.combinations(survivors, sizes[j - 1]):
            if j == k:
                value = values[chosen[0]][-1]
            else:
                value = tree.expectation(j, values, increments, chosen, best_at_decision)
            if best is None or value > best:
                best = value
        assert best is not None
        return best

    value = tree.root_expectation(best_at_decision)
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
