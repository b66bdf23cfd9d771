"""Independent scalar references the suite pins the package against.

The catalog strategies are written here a second time, by hand, as plain
choosers over a `HistoryView`: the package defines each of them once, as a
`RankRule`, and the tests check that the rule picks what these choosers
pick.  `audit_case` is the per-realization coupling audit composed of the
public scalar calls, the reference for the chunk audit.  The other helpers
are brute-force or construction shortcuts that only tests need.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

import staged_select as ss
from staged_select import alignment
from staged_select.errors import InvalidDimensions, SearchTooLarge
from staged_select.selection_engine import HistoryView, ranked_ids


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


# --- the coupling audit, one realization at a time ------------------------------

def audit_case(x: ss.PathEnsemble, s: ss.Schedule, alg: ss.Strategy,
               checks: tuple[str, ...] = alignment.ALL_CHECKS):
    """Couple one realization and audit the witness: returns it with
    whether it fails dominance (recomputed from the witness grids),
    permutation and inversion (False for a check not selected)."""
    w = alignment.build_alignment(x, s, alg)
    dom_bad = "dominance" in checks and not alignment.check_pairwise_dominance(w, s).ok
    perm_bad = "permutation" in checks and not alignment.check_block_permutation(w, s, alg).ok
    inv_bad = "inversion" in checks and alignment.invert_alignment(w.y, s, alg) != x
    return w, dom_bad, perm_bad, inv_bad


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
