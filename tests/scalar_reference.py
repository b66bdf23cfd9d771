"""Independent scalar references the suite pins the package against.

The catalog strategies are written here a second time, by hand, as plain
choosers over a `HistoryView`: the package defines each of them once, as a
`RankRule`, and the tests check that the rule picks what these choosers
pick.  The coupling is written a second time too, as the list walk
(`reference_alignment`, `reference_inversion`,
`reference_block_permutation`); `audit_case`, the per-realization audit
composed of them, is the reference for the chunk audit.  The other helpers
are brute-force or construction shortcuts that only tests need.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

import staged_select as ss
from staged_select import alignment
from staged_select.errors import InvalidDimensions, SearchTooLarge
from staged_select.selection_engine import HistoryView, ranked_ids, stage_decision


# --- the catalog, as hand-written choosers ------------------------------------

def top(view: HistoryView, size: int) -> list[int]:
    order = ranked_ids(view.survivors, lambda i: view.value_at(i, view.time))
    return order[:size]


def anti_greedy(view: HistoryView, size: int) -> list[int]:
    # sabotage every cut by keeping the worst-ranked survivors, but report
    # the best remaining one at the terminal stage
    order = ranked_ids(view.survivors, lambda i: view.value_at(i, view.time))
    if view.stage == len(view.times):
        return order[:size]
    return order[len(order) - size:]


def lagged_greedy(view: HistoryView, size: int) -> list[int]:
    t_prev = 0 if view.stage == 1 else view.times[view.stage - 2]
    order = ranked_ids(view.survivors, lambda i: view.value_at(i, t_prev))
    return order[:size]


def drift_aware(view: HistoryView, size: int) -> list[int]:
    remaining = view.final_time - view.time

    def score(i: int):
        v = view.value_at(i, view.time)
        if remaining == 0:
            return v
        steps = view.step_increments(i)
        est = (min(steps) + max(steps)) / 2
        return v + remaining * est

    return ranked_ids(view.survivors, score)[:size]


def random_fixed(aux_seed: int):
    def choose(view: HistoryView, size: int) -> list[int]:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=aux_seed, spawn_key=(0x5EED,)))
        row = rng.random((len(view.times), view.n_processes))[view.stage - 1]
        return ranked_ids(view.survivors, lambda i: float(row[i]))[:size]
    return choose


def reference_catalog(aux_seed: int = 2024) -> list[ss.Strategy]:
    """`ss.full_catalog()` rebuilt from the hand-written choosers, in the
    same order and with the same names."""
    return [
        ss.Strategy(name="greedy", chooser=top),
        ss.Strategy(name="anti_greedy", chooser=anti_greedy),
        ss.Strategy(name="random_fixed", chooser=random_fixed(aux_seed), aux_seed=aux_seed),
        ss.Strategy(name="lagged_greedy", chooser=lagged_greedy),
        ss.Strategy(name="drift_aware", chooser=drift_aware),
    ]


# --- the coupling, as the list walk ----------------------------------------------
#
# The package builds the coupling with one chunk walk (`alignment._walk`),
# also for one realization.  This is the coupling written a second time, on
# nested lists, with the hand-written greedy: run the strategy on X and
# greedy on Y in lockstep and grow the unknown side block by block.

HAND_GREEDY = ss.Strategy(name="greedy", chooser=top)


def _decisions(s: ss.Schedule, alg: ss.Strategy, values, increments):
    """The strategy's checked stage decisions, one (survivors, eliminated)
    pair per `next`.  Stage j reads the grids only up to t_j, so the
    caller may extend them between stages."""
    survivors, horizons = tuple(range(s.N)), [0] * s.N
    for j in range(1, s.stages + 1):
        for i in survivors:
            horizons[i] = s.times[j - 1]
        kept = stage_decision(s, alg, j, survivors, values, increments, tuple(horizons))
        yield kept, tuple(i for i in survivors if i not in kept)
        survivors = kept


def _extend_values(values, increments, lo: int, hi: int) -> None:
    # strictly sequential accumulation, as in the `PathEnsemble` constructor
    for row_v, row_i in zip(values, increments):
        acc = row_v[-1]
        for c in range(lo, hi):
            acc = acc + row_i[c]
            row_v.append(acc)


def _stage_pairs(stage, x_dec, y_dec, x_values, y_values, t_j, frozen):
    """Pairs in effect for the next block: fresh survivor pairs plus the
    frozen eliminated-cohort pairs (extended with this stage's casualties)."""
    (x_kept, x_out), (y_kept, y_out) = x_dec, y_dec
    xs = ranked_ids(x_kept, lambda i: x_values[i][t_j])
    ys = ranked_ids(y_kept, lambda i: y_values[i][t_j])
    survivor_pairs = [alignment.Pair(key=("survivor", r + 1), x_process=xn, y_process=ym)
                      for r, (xn, ym) in enumerate(zip(xs, ys))]
    x_out = ranked_ids(x_out, lambda i: x_values[i][t_j])
    y_out = ranked_ids(y_out, lambda i: y_values[i][t_j])
    frozen.extend(alignment.Pair(key=("elim", stage, r + 1), x_process=xn, y_process=ym)
                  for r, (xn, ym) in enumerate(zip(x_out, y_out)))
    return survivor_pairs + list(frozen)


def _dual_walk(s, alg, x_inc, y_inc, fill: str, known_values):
    """fill="y": X is complete (known_values is its value grid) and Y's
    blocks past the first are written; fill="x": the mirror image.  Both
    increment grids must already agree on block 1."""
    t1 = s.times[0]
    spans = s.block_bounds()
    if fill == "y":
        x_vals = known_values
        y_vals = [list(row[: t1 + 1]) for row in known_values]
    else:
        y_vals = known_values
        x_vals = [list(row[: t1 + 1]) for row in known_values]
    x_run = _decisions(s, alg, x_vals, x_inc)
    y_run = _decisions(s, HAND_GREEDY, y_vals, y_inc)
    by_block = [tuple(alignment.Pair(key=("init", i), x_process=i, y_process=i)
                      for i in range(s.N))]
    frozen: list = []
    x_survivors, y_survivors = [], []
    for j in range(1, s.stages + 1):
        x_dec, y_dec = next(x_run), next(y_run)
        x_survivors.append(x_dec[0])
        y_survivors.append(y_dec[0])
        if j == s.stages:
            break
        pairs = _stage_pairs(j, x_dec, y_dec, x_vals, y_vals, s.times[j - 1], frozen)
        by_block.append(tuple(pairs))
        lo, hi = spans[j]
        if fill == "y":
            for p in pairs:
                y_inc[p.y_process].extend(x_inc[p.x_process][lo:hi])
            _extend_values(y_vals, y_inc, lo, hi)
        else:
            for p in pairs:
                x_inc[p.x_process].extend(y_inc[p.y_process][lo:hi])
            _extend_values(x_vals, x_inc, lo, hi)
    return by_block, x_vals, y_vals, tuple(x_survivors), tuple(y_survivors)


def _grids(values, increments, model_tag) -> ss.PathEnsemble:
    return ss.PathEnsemble(values=tuple(map(tuple, values)),
                           increments=tuple(map(tuple, increments)), model_tag=model_tag)


def reference_alignment(x: ss.PathEnsemble, s: ss.Schedule, alg: ss.Strategy):
    """The `AlignmentWitness` of one realization, by the list walk."""
    y_inc = [list(row[: s.times[0]]) for row in x.increments]
    by_block, x_vals, y_vals, x_survivors, y_survivors = _dual_walk(
        s, alg, x.increments, y_inc, "y", x.values)
    return alignment.AlignmentWitness(
        x=x,
        y=_grids(y_vals, y_inc, x.model_tag),
        schedule=s,
        strategy=alg.describe(),
        pairing=alignment.PairingSequence(by_block=tuple(by_block)),
        dominance=tuple(alignment._dominance_entries(s, by_block, x_vals, y_vals)),
        alg_final=x_vals[x_survivors[-1][0]][s.T],
        greedy_final=y_vals[y_survivors[-1][0]][s.T],
        x_survivors=x_survivors,
        y_survivors=y_survivors,
    )


def reference_inversion(y: ss.PathEnsemble, s: ss.Schedule, alg: ss.Strategy) -> ss.PathEnsemble:
    """X rebuilt from an image Y by the mirror list walk."""
    x_inc = [list(row[: s.times[0]]) for row in y.increments]
    x_vals = _dual_walk(s, alg, x_inc, y.increments, "x", y.values)[1]
    return _grids(x_vals, x_inc, y.model_tag)


def _pairs_from_prefix(w, s, alg, upto_stage: int):
    """The pairing fixed at t_{upto_stage}, from both grids physically
    truncated there: any dependence on later values would crash or differ."""
    t_cut = s.times[upto_stage - 1]
    x_inc = [row[:t_cut] for row in w.x.increments]
    y_inc = [row[:t_cut] for row in w.y.increments]
    x_vals = [row[: t_cut + 1] for row in w.x.values]
    y_vals = [row[: t_cut + 1] for row in w.y.values]
    x_run = _decisions(s, alg, x_vals, x_inc)
    y_run = _decisions(s, HAND_GREEDY, y_vals, y_inc)
    frozen: list = []
    pairs: list = []
    for j in range(1, upto_stage + 1):
        pairs = _stage_pairs(j, next(x_run), next(y_run), x_vals, y_vals, s.times[j - 1], frozen)
    return tuple(pairs)


def reference_block_permutation(w, s: ss.Schedule, alg: ss.Strategy):
    """`check_block_permutation`'s report, with each block's pairing
    recomputed by the list walk on the grids cut at t_{j-1}."""
    spans = s.block_bounds()
    checks = []
    for j in range(1, s.stages + 1):
        pairs = w.pairing.by_block[j - 1]
        xs = sorted(p.x_process for p in pairs)
        ys = sorted(p.y_process for p in pairs)
        bijective = xs == list(range(s.N)) and ys == list(range(s.N))
        lo, hi = spans[j - 1]
        rows_match = all(
            w.y.increments[p.y_process][lo:hi] == w.x.increments[p.x_process][lo:hi]
            for p in pairs
        )
        if j == 1:
            measurable = all(p.x_process == p.y_process for p in pairs)
        else:
            measurable = set(_pairs_from_prefix(w, s, alg, j - 1)) == set(pairs)
        checks.append(alignment.BlockCheck(block=j, bijective=bijective, rows_match=rows_match,
                                           history_measurable=measurable))
    return alignment.PermutationReport(blocks=tuple(checks))


def audit_case(x: ss.PathEnsemble, s: ss.Schedule, alg: ss.Strategy,
               checks: tuple[str, ...] = alignment.ALL_CHECKS):
    """Couple one realization by the list walk and audit the witness:
    returns it with whether it fails dominance (recomputed from the witness
    grids), permutation and inversion (False for a check not selected)."""
    w = reference_alignment(x, s, alg)
    dom_bad = "dominance" in checks and not alignment.check_pairwise_dominance(w, s).ok
    perm_bad = "permutation" in checks and not reference_block_permutation(w, s, alg).ok
    inv_bad = "inversion" in checks and reference_inversion(w.y, s, alg) != x
    return w, dom_bad, perm_bad, inv_bad


# --- the uncompressed search, as the recursive tree walk ---------------------------
#
# The package walks every reachable decision history level by level over
# arrays (`oracle._frontier_walk`) in integer weights.  This is the search
# written a second time: a recursion over raw histories in `Fraction`
# arithmetic, one node and one pointwise maximum at a time.

def reference_search(model, s: ss.Schedule) -> tuple[Fraction, int]:
    """(optimal expected final value, decision histories visited): every
    legal survivor set at every reachable stage history, expanding only
    the kept processes' rows by the next block's outcomes."""
    disc = model.as_discrete() if isinstance(model, ss.Rademacher) else model
    steps = list(zip(disc.support, disc.probs))
    spans = s.block_bounds()
    visited = 0

    def expectation(j, values, kept):
        # E[best(j + 1, values')] over block j + 1's outcomes for the kept rows
        lo, hi = spans[j]
        length = hi - lo
        total = Fraction(0)
        for combo in itertools.product(steps, repeat=len(kept) * length):
            prob = Fraction(1)
            new_values = list(values)
            for idx, i in enumerate(kept):
                row = list(values[i])
                for step, q in combo[idx * length:(idx + 1) * length]:
                    prob *= q
                    row.append(row[-1] + step)
                new_values[i] = tuple(row)
            total += prob * best(j + 1, tuple(new_values), kept)
        return total

    def best(j, values, survivors):
        nonlocal visited
        visited += 1
        if j == s.stages:
            return max(values[i][-1] for i in survivors)
        return max(expectation(j, values, chosen)
                   for chosen in itertools.combinations(survivors, s.sizes[j - 1]))

    value = expectation(0, tuple((0,) for _ in range(s.N)), tuple(range(s.N)))
    return value, visited


# --- small helpers --------------------------------------------------------------

def rank_desc(values) -> list[int]:
    """Rank positions of a value list, 1 = largest, ties to the earlier entry."""
    if not values:
        raise ValueError("cannot rank an empty list")
    order = ranked_ids(range(len(values)), lambda i: values[i])
    ranks = [0] * len(values)
    for pos, i in enumerate(order, start=1):
        ranks[i] = pos
    return ranks


def from_value_rows(rows) -> ss.PathEnsemble:
    """A `PathEnsemble` from a value grid whose rows start at 0; its
    increments are the differences of consecutive values."""
    if not rows or len(rows[0]) < 2:
        raise InvalidDimensions("need at least one process and one step")
    if any(r[0] != 0 for r in rows):
        raise InvalidDimensions("every path must start at 0")
    return ss.PathEnsemble.from_increment_rows(
        [[r[t] - r[t - 1] for t in range(1, len(r))] for r in rows])


def literal_profile_search(model, s, profile_cap: int = 100_000) -> tuple[Fraction, int]:
    """Brute-force maximum over literally enumerated strategy profiles.

    A profile assigns one legal subset to every reachable decision history
    (keyed by the raw visible state: survivor paths up to the current time,
    eliminated paths frozen at their elimination time).  Only feasible on
    tiny instances; it validates that the pointwise tree search equals the
    maximum over whole strategy maps.  Returns (best value, number of
    profiles evaluated).
    """
    atoms = ss.enumerate_paths(model, s.N, s.T)
    k = s.stages

    def visible_key(x, j, survivors, horizons):
        t_j = s.times[j - 1]
        paths = tuple(
            x.values[i][: (t_j if i in survivors else horizons[i]) + 1]
            for i in range(s.N)
        )
        return (j, paths, survivors)

    histories: dict[tuple, list[tuple[int, ...]]] = {}

    def explore(x, j, survivors, horizons):
        key = visible_key(x, j, survivors, horizons)
        if key not in histories:
            histories[key] = list(itertools.combinations(survivors, s.sizes[j - 1]))
        if j == k:
            return
        t_j = s.times[j - 1]
        for chosen in histories[key]:
            new_horizons = dict(horizons)
            for i in survivors:
                if i not in chosen:
                    new_horizons[i] = t_j
            explore(x, j + 1, chosen, new_horizons)

    for x, _ in atoms:
        explore(x, 1, tuple(range(s.N)), {})

    keys = sorted(histories, key=repr)
    n_profiles = 1
    for key in keys:
        n_profiles *= len(histories[key])
    if n_profiles > profile_cap:
        raise SearchTooLarge(n_profiles, profile_cap)

    best = None
    for profile in itertools.product(*(histories[key] for key in keys)):
        choice_of = dict(zip(keys, profile))
        total = Fraction(0)
        for x, prob in atoms:
            survivors = tuple(range(s.N))
            horizons: dict[int, int] = {}
            for j in range(1, k + 1):
                chosen = choice_of[visible_key(x, j, survivors, horizons)]
                for i in survivors:
                    if i not in chosen:
                        horizons[i] = s.times[j - 1]
                survivors = chosen
            total += prob * x.values[survivors[0]][s.T]
        if best is None or total > best:
            best = total
    return best, n_profiles
