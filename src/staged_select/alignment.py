"""Construction, inversion, and verification of the alignment coupling.

The coupling maps a realization X (run under an arbitrary strategy) to an
image realization Y on which the greedy strategy is run.  Y starts as an
exact copy of X up to the first observation time; afterwards each block of
Y's step increments is a row permutation of X's block, chosen so that the
greedy run on Y always holds values at least as large as the paired
processes of the original run on X.

Pairing rule.  The permutation feeding block j is fixed at the block's left
endpoint t_{j-1}, using information available there:

* survivors of the strategy on X are paired to survivors of greedy on Y by
  equal rank of their values at t_{j-1} within their own cohort;
* processes eliminated at an earlier stage s were paired cohort-to-cohort by
  rank of their values at t_s, and those pairs stay frozen forever.

Every ranking uses the package-wide tie rule (higher value first, then
smaller id), which keeps the pairing recomputable from truncated history;
that recomputability is what makes the map invertible, and is checked
explicitly by `check_block_permutation`.

Because Y's rows accumulate exactly the same increment values as X's rows
(in the same order, from anchors that dominate), the per-pair inequalities
hold exactly in floating point as well: float addition is monotone in each
argument, so no tolerance is needed anywhere in this module.

One walk (`_walk`) builds the coupling.  Every sweep couples and audits
whole chunks, float64 or exact, for any strategy (`couple_chunk`,
`audit_chunk`); the per-realization calls (`build_alignment`,
`invert_alignment`, `check_block_permutation`) run it on a one-row exact
object chunk.  Tests pin both to the list walk in `tests/scalar_reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core_model import (
    ENUMERATION_CAP,
    REPLICATION_CHUNK,
    Model,
    Number,
    PathEnsemble,
    Rademacher,
    Schedule,
    sample_replications,
    value_grid,
)
from .errors import DimensionMismatch, NonDeterministicStrategy
from .oracle import exact_expected_value, exact_grid
from .selection_engine import (
    RankRule,
    Strategy,
    batched_stage,
    greedy_strategy,
    ranked_columns,
)


# ---------------------------------------------------------------------------
# pairing data
# ---------------------------------------------------------------------------

class Pair(NamedTuple):
    """One matched process pair.  `key` identifies the cohort and rank that
    produced the match: ("init", i) for the identity pairing of block 1,
    ("survivor", r) for rank-r survivors, ("elim", s, r) for rank-r members
    of the cohort eliminated at stage s."""

    key: tuple
    x_process: int
    y_process: int


@dataclass(frozen=True)
class PairingSequence:
    """For each block j (1-based), the full-population pairing that assigned
    Y's block-j increment rows from X's."""

    by_block: tuple[tuple[Pair, ...], ...]

    def permutation(self, block: int) -> dict[int, int]:
        """Row assignment for a block as a {y_process: x_process} map."""
        return {p.y_process: p.x_process for p in self.by_block[block - 1]}


class DominanceEntry(NamedTuple):
    stage: int
    time: int
    key: tuple
    x_process: int
    y_process: int
    x_value: Number
    y_value: Number
    ok: bool


@dataclass(frozen=True)
class AlignmentWitness:
    """The image ensemble with everything needed to audit it."""

    x: PathEnsemble
    y: PathEnsemble
    schedule: Schedule
    strategy: str
    pairing: PairingSequence
    dominance: tuple[DominanceEntry, ...]
    alg_final: Number          # final value of the strategy's run on X
    greedy_final: Number       # final value of greedy's run on Y
    x_survivors: tuple[tuple[int, ...], ...]
    y_survivors: tuple[tuple[int, ...], ...]

    @property
    def headline_ok(self) -> bool:
        return self.alg_final <= self.greedy_final


# ---------------------------------------------------------------------------
# one realization: a one-row call of the chunk walk
# ---------------------------------------------------------------------------

def _require_coupling(inc: np.ndarray, s: Schedule, alg: Strategy) -> None:
    if not alg.deterministic:
        raise NonDeterministicStrategy(
            f"alignment needs a deterministic strategy, {alg.name} is not"
        )
    if inc.shape[1:] != (s.N, s.T):
        raise DimensionMismatch(
            f"rows are {inc.shape[1]}x{inc.shape[2]}, schedule wants {s.N}x{s.T}"
        )


def _row(grid) -> np.ndarray:
    """A one-row exact object chunk, so the walk does Python arithmetic."""
    return np.array([grid], dtype=object)


def _keyed_pairs(s: Schedule, pairing, y_kept, y_val: np.ndarray) -> tuple[tuple[Pair, ...], ...]:
    """A one-row walk's pairing as keyed `Pair`s, block by block.  Each key
    is read from the y side's rank at t_j; a block lists the survivor pairs
    by rank, then the frozen eliminated pairs by (stage, rank)."""
    by_block = [tuple(Pair(key=("init", i), x_process=i, y_process=i) for i in range(s.N))]
    frozen: list[Pair] = []
    alive = np.ones((1, s.N), dtype=bool)
    for j, (src, kept) in enumerate(zip(pairing[1:], y_kept), start=1):
        scores = y_val[:, :, s.times[j - 1]]

        def cohort(mask):
            return ranked_columns(scores, mask)[0, :np.count_nonzero(mask)].tolist()

        survivors = [Pair(key=("survivor", r), x_process=int(src[0, y]), y_process=y)
                     for r, y in enumerate(cohort(kept), start=1)]
        frozen += [Pair(key=("elim", j, r), x_process=int(src[0, y]), y_process=y)
                   for r, y in enumerate(cohort(alive & ~kept), start=1)]
        by_block.append(tuple(survivors + frozen))
        alive = kept
    return tuple(by_block)


def build_alignment(x: PathEnsemble, s: Schedule, alg: Strategy) -> AlignmentWitness:
    """Construct Y and the pairing for a strategy on one realization: the
    chunk walk (`couple_chunk`) on X as a one-row exact object chunk."""
    c = couple_chunk(_row(x.increments), s, alg, invert=False)
    y = PathEnsemble.from_increment_rows(c.y_inc[0].tolist(), model_tag=x.model_tag)
    by_block = _keyed_pairs(s, c.pairing, c.y_kept, c.y_val)

    def survivors(kept):
        return tuple(tuple(np.flatnonzero(m[0]).tolist()) for m in kept)

    return AlignmentWitness(
        x=x,
        y=y,
        schedule=s,
        strategy=alg.describe(),
        pairing=PairingSequence(by_block=by_block),
        dominance=tuple(_dominance_entries(s, by_block, x.values, y.values)),
        alg_final=c.alg_final[0],
        greedy_final=c.greedy_final[0],
        x_survivors=survivors(c.x_kept),
        y_survivors=survivors(c.y_kept),
    )


def invert_alignment(y: PathEnsemble, s: Schedule, alg: Strategy) -> PathEnsemble:
    """Reconstruct the unique X with build_alignment(X) = Y.

    Works stage by stage: X agrees with Y up to t_1; given X up to t_{j-1}
    the strategy's selections and the pairing are recomputable, so X's
    block-j rows can be read off Y's paired rows.  This is the mirror walk
    of `couple_chunk` on Y as a one-row exact object chunk.  The round trip
    through `build_alignment` is exact, including for float-valued paths.
    """
    yi = _row(y.increments)
    _require_coupling(yi, s, alg)
    x_inc = _mirror_walk(alg, s, yi, _row(y.values))[0]
    return PathEnsemble.from_increment_rows(x_inc[0].tolist(), model_tag=y.model_tag)


def _dominance_entries(s: Schedule, by_block, x_vals, y_vals) -> list[DominanceEntry]:
    """Per-stage per-pair value comparisons.

    At t_1 the pairs are the identity pairs (values equal by construction).
    At t_j (j > 1) the pairs checked are the survivor pairs fixed at
    t_{j-1}: those received identical block increments, so the image value
    must stay at or above the original.  Frozen eliminated pairs are part of
    the permutation but carry no inequality.
    """
    return [_entry(j, s.times[j - 1], p.key, p.x_process, p.y_process, x_vals, y_vals)
            for j in range(1, s.stages + 1) for p in by_block[j - 1]
            if j == 1 or p.key[0] == "survivor"]


def _entry(stage: int, time: int, key: tuple, x: int, y: int, x_vals, y_vals) -> DominanceEntry:
    xv, yv = x_vals[x][time], y_vals[y][time]
    return DominanceEntry(stage=stage, time=time, key=key, x_process=x, y_process=y,
                          x_value=xv, y_value=yv, ok=yv >= xv)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceReport:
    entries: tuple[DominanceEntry, ...]
    violations: tuple[DominanceEntry, ...]
    alg_final: Number
    greedy_final: Number
    headline_ok: bool

    @property
    def ok(self) -> bool:
        return self.headline_ok and not self.violations


def check_pairwise_dominance(w: AlignmentWitness, s: Schedule) -> DominanceReport:
    """Recompute every pairwise inequality and the headline inequality
    (strategy final on X <= greedy final on Y) from the witness grids.
    A violation indicates an implementation bug, never a data condition.
    """
    entries = tuple(_entry(e.stage, e.time, e.key, e.x_process, e.y_process,
                           w.x.values, w.y.values) for e in w.dominance)
    return DominanceReport(
        entries=entries,
        violations=tuple(e for e in entries if not e.ok),
        alg_final=w.alg_final,
        greedy_final=w.greedy_final,
        headline_ok=w.alg_final <= w.greedy_final,
    )


@dataclass(frozen=True)
class BlockCheck:
    block: int
    bijective: bool
    rows_match: bool
    history_measurable: bool

    @property
    def ok(self) -> bool:
        return self.bijective and self.rows_match and self.history_measurable


@dataclass(frozen=True)
class PermutationReport:
    blocks: tuple[BlockCheck, ...]

    @property
    def ok(self) -> bool:
        return all(b.ok for b in self.blocks)


def check_block_permutation(w: AlignmentWitness, s: Schedule,
                            alg: Strategy) -> PermutationReport:
    """Verify that each block of Y's increments is exactly a pairing-applied
    reordering of X's rows, and that the pairing for block j is recomputable
    from data up to t_{j-1} alone (history measurability), by rerunning
    `alg` and greedy on both grids cut at t_{j-1}.
    """
    spans = s.block_bounds()
    xi, xv, yi, yv = map(_row, (w.x.increments, w.x.values, w.y.increments, w.y.values))
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
            cut = s.times[j - 2]
            pairing, _, y_kept = _walk(alg, s, xi[:, :, :cut], xv[:, :, :cut + 1],
                                       yi[:, :, :cut], yv[:, :, :cut + 1],
                                       fill=None, stages=j - 1)
            recomputed = _keyed_pairs(s, pairing, y_kept, yv[:, :, :cut + 1])[-1]
            measurable = set(recomputed) == set(pairs)
        checks.append(BlockCheck(
            block=j, bijective=bijective, rows_match=rows_match,
            history_measurable=measurable,
        ))
    return PermutationReport(blocks=tuple(checks))


# ---------------------------------------------------------------------------
# the dual walk over a whole chunk
# ---------------------------------------------------------------------------

_GREEDY = greedy_strategy()

ALL_CHECKS = ("dominance", "permutation", "inversion")


@dataclass(frozen=True)
class ChunkCoupling:
    """The coupling of every realization in a chunk, as arrays whose row r
    is realization r.

    `x_inc`/`x_val` are X's grids and `y_inc`/`y_val` the image's, shapes
    (reps, N, T) and (reps, N, T+1).  `pairing[b-1][r, y]` is the X process
    whose block-b increments Y's process y received (block 1 is the
    identity).  `x_kept[j-1]`/`y_kept[j-1]` are the survivor masks after
    stage j of the strategy on X and of greedy on Y.  `x_back_inc` and
    `x_back_val` are X rebuilt from Y by the mirror walk, or None when the
    inversion was not run.
    """

    x_inc: np.ndarray
    x_val: np.ndarray
    y_inc: np.ndarray
    y_val: np.ndarray
    pairing: tuple[np.ndarray, ...]
    x_kept: tuple[np.ndarray, ...]
    y_kept: tuple[np.ndarray, ...]
    x_back_inc: np.ndarray | None
    x_back_val: np.ndarray | None

    @property
    def alg_final(self) -> np.ndarray:
        """Final value of the strategy's run on X, per row."""
        return _final_of(self.x_val, self.x_kept[-1])

    @property
    def greedy_final(self) -> np.ndarray:
        """Final value of greedy's run on Y, per row."""
        return _final_of(self.y_val, self.y_kept[-1])


def _final_of(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    winner = np.argmax(kept, axis=1)
    return values[np.arange(values.shape[0]), winner, -1]


def _first_block_copy(inc: np.ndarray, val: np.ndarray, t1: int):
    """Grids shaped like (inc, val) that agree with them up to t_1; the
    rest is written block by block by `_walk`."""
    out_inc = np.empty_like(inc)
    out_val = np.empty_like(val)
    out_inc[:, :, :t1] = inc[:, :, :t1]
    out_val[:, :, :t1 + 1] = val[:, :, :t1 + 1]
    return out_inc, out_val


def _walk(alg: Strategy, s: Schedule, xi, xv, yi, yv, fill: str | None,
          stages: int | None = None):
    """Run the strategy on X and greedy on Y stage by stage over a chunk.

    Stage j sees only grids that end at t_j.  After it, survivors are
    paired by equal rank at t_j and the cohorts eliminated at stage j are
    paired by rank at t_j; those pairs stay frozen.  With fill="y" Y's
    block j+1 is then taken from X's paired rows, with fill="x" the mirror
    image; values are extended by a sequential cumsum from the value at
    t_j, bit-identical to `_running_sums`.  fill=None only ranks, on grids
    that already exist (the history-measurability recomputation), and
    `stages` stops it early.  Returns (pairing, x_kept, y_kept).
    """
    reps, n = xi.shape[:2]
    last = s.stages if stages is None else stages
    spans = s.block_bounds()
    src = np.tile(np.arange(n), (reps, 1))
    pairing = [src]
    x_kept: list[np.ndarray] = []
    y_kept: list[np.ndarray] = []
    for j in range(1, last + 1):
        t = s.times[j - 1]
        x_kept.append(batched_stage(alg, s, j, xv[:, :, :t + 1], xi[:, :, :t], x_kept))
        y_kept.append(batched_stage(_GREEDY, s, j, yv[:, :, :t + 1], yi[:, :, :t], y_kept))
        if j == s.stages:
            break
        src = src.copy()
        x_new, y_new = x_kept[-1], y_kept[-1]
        x_alive, y_alive = (x_kept[-2], y_kept[-2]) if j > 1 else (True, True)
        cohorts = ((x_new, y_new, s.sizes[j - 1]),
                   (x_alive & ~x_new, y_alive & ~y_new,
                    (s.N if j == 1 else s.sizes[j - 2]) - s.sizes[j - 1]))
        for x_mask, y_mask, size in cohorts:
            xo = ranked_columns(xv[:, :, t], x_mask)[:, :size]
            yo = ranked_columns(yv[:, :, t], y_mask)[:, :size]
            np.put_along_axis(src, yo, xo, axis=1)
        pairing.append(src)
        lo, hi = spans[j]
        if fill == "y":
            yi[:, :, lo:hi] = np.take_along_axis(xi[:, :, lo:hi], src[:, :, None], axis=1)
            _extend_value_grid(yv, yi, lo, hi)
        elif fill == "x":
            np.put_along_axis(xi[:, :, lo:hi], src[:, :, None], yi[:, :, lo:hi], axis=1)
            _extend_value_grid(xv, xi, lo, hi)
    return tuple(pairing), tuple(x_kept), tuple(y_kept)


def _extend_value_grid(val: np.ndarray, inc: np.ndarray, lo: int, hi: int) -> None:
    val[:, :, lo + 1:hi + 1] = inc[:, :, lo:hi]
    np.cumsum(val[:, :, lo:hi + 1], axis=2, out=val[:, :, lo:hi + 1])


def _mirror_walk(alg: Strategy, s: Schedule, yi: np.ndarray, yv: np.ndarray):
    """X's grids rebuilt from the image's by the mirror walk (fill="x")."""
    xi, xv = _first_block_copy(yi, yv, s.times[0])
    _walk(alg, s, xi, xv, yi, yv, fill="x")
    return xi, xv


def couple_chunk(inc: np.ndarray, s: Schedule, alg: Strategy,
                 invert: bool = True) -> ChunkCoupling:
    """Build the coupling for every row of an increment chunk (reps, N, T)
    at once, and with `invert` the mirror walk that rebuilds X from Y.

    The chunk may be float64 or exact objects (Fractions); the grids keep
    its dtype.  Tests pin every field, row by row, to the list walk in
    `tests/scalar_reference.py`.
    """
    _require_coupling(inc, s, alg)
    xv = value_grid(inc)
    yi, yv = _first_block_copy(inc, xv, s.times[0])
    pairing, x_kept, y_kept = _walk(alg, s, inc, xv, yi, yv, fill="y")
    back_i, back_v = _mirror_walk(alg, s, yi, yv) if invert else (None, None)
    return ChunkCoupling(
        x_inc=inc, x_val=xv, y_inc=yi, y_val=yv, pairing=pairing,
        x_kept=x_kept, y_kept=y_kept, x_back_inc=back_i, x_back_val=back_v,
    )


def audit_chunk(c: ChunkCoupling, s: Schedule, alg: Strategy,
                checks: tuple[str, ...] = ALL_CHECKS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row verdicts on a chunk coupling: boolean (reps,) arrays marking
    the rows that fail dominance, permutation and inversion (all False for
    a check not selected).  The same three verdicts as the scalar audit:

    * dominance: the identity pairs at t_1, the survivor pairs at each
      later t_j, and strategy final on X <= greedy final on Y;
    * permutation: each block's pairing is a bijection, Y's block rows
      equal X's paired rows, and the pairing is recomputed from both grids
      cut at the block's left endpoint;
    * inversion: the mirror walk rebuilt X's increments and values exactly.
    """
    reps, n = c.x_inc.shape[:2]
    ids = np.arange(n)
    spans = s.block_bounds()
    dom_bad = np.zeros(reps, dtype=bool)
    perm_bad = np.zeros(reps, dtype=bool)
    inv_bad = np.zeros(reps, dtype=bool)
    for b in range(1, s.stages + 1):
        src = c.pairing[b - 1]
        idx = np.clip(src, 0, n - 1)
        if "dominance" in checks:
            t = s.times[b - 1]
            ok = c.y_val[:, :, t] >= np.take_along_axis(c.x_val[:, :, t], idx, axis=1)
            if b > 1:
                ok |= ~c.y_kept[b - 2]  # frozen pairs carry no inequality
            dom_bad |= ~ok.all(axis=1)
        if "permutation" in checks:
            lo, hi = spans[b - 1]
            bijective = (np.sort(src, axis=1) == ids).all(axis=1)
            rows = np.take_along_axis(c.x_inc[:, :, lo:hi], idx[:, :, None], axis=1)
            rows_match = (c.y_inc[:, :, lo:hi] == rows).all(axis=(1, 2))
            if b == 1:
                recomputed = ids
            else:
                cut = s.times[b - 2]
                recomputed = _walk(
                    alg, s, c.x_inc[:, :, :cut], c.x_val[:, :, :cut + 1],
                    c.y_inc[:, :, :cut], c.y_val[:, :, :cut + 1],
                    fill=None, stages=b - 1,
                )[0][-1]
            measurable = (recomputed == src).all(axis=1)
            perm_bad |= ~(bijective & rows_match & measurable)
    if "dominance" in checks:
        dom_bad |= ~(c.alg_final <= c.greedy_final)
    if "inversion" in checks:
        inv_bad = ~((c.x_back_inc == c.x_inc).all(axis=(1, 2))
                    & (c.x_back_val == c.x_val).all(axis=(1, 2)))
    return dom_bad, perm_bad, inv_bad


def headline_violations(inc: np.ndarray, s: Schedule, alg: Strategy) -> int:
    """Rows of an increment chunk where the strategy's final value on X
    exceeds greedy's on the image Y (expect zero)."""
    _, _, alg_final, greedy_final = _audit(inc, s, alg, ())
    return int(np.count_nonzero(~(alg_final <= greedy_final)))


# ---------------------------------------------------------------------------
# whole-space / sampled verification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    mode: str
    strategy: str
    cases: int
    dominance_violations: int
    permutation_violations: int
    inversion_failures: int
    bijective: bool
    pushforward_ok: bool
    coupling_expectation_equal: bool

    @property
    def ok(self) -> bool:
        return (
            self.dominance_violations == 0
            and self.permutation_violations == 0
            and self.inversion_failures == 0
            and self.bijective
            and self.pushforward_ok
            and self.coupling_expectation_equal
        )

    def summary(self) -> str:
        unit = "atoms" if self.mode == "exhaustive" else "realizations"
        parts = [
            "dominance " + ("OK" if self.dominance_violations == 0
                            else f"{self.dominance_violations} violations"),
            "permutation " + ("OK" if self.permutation_violations == 0
                              else f"{self.permutation_violations} violations"),
        ]
        if self.mode == "exhaustive":
            parts.append("pushforward " + ("OK" if self.bijective and self.pushforward_ok
                                           and self.coupling_expectation_equal else "FAILED"))
        parts.append("inversion " + ("OK" if self.inversion_failures == 0
                                     else f"{self.inversion_failures} failures"))
        return f"{self.cases}/{self.cases} {unit}: " + ", ".join(parts)


def verify_exhaustive(model, s: Schedule, alg: Strategy,
                      cap: int = ENUMERATION_CAP) -> VerifyResult:
    """Audit the coupling over the entire enumerated path space.

    Every atom is checked exactly for pairwise and headline dominance,
    per-block permutation structure with history measurability, and exact
    inversion; the whole space for injectivity of the image map (hence a
    bijection of atoms), P(image) = P(atom), and the change-of-variables
    identity sum P * greedy(image) = sum P * greedy(atom).

    Atoms are streamed in enumeration order as chunks of symbol indices (a
    mixed-radix count), never listed, and audited a chunk at a time on the
    grid of `exact_grid`: for a `RankRule` under its guard the support
    scaled by the lcm of its denominators, in float64, so rankings and ties
    equal the rational run's; past the guard, and for any other chooser,
    the unscaled support as Fraction objects.  Images are read back as
    symbols (a sorted search on the float grid, a lookup on the object
    grid): injectivity is a bitmap over atom indices, equal symbol counts
    mean equal probabilities, and the image side of the identity is summed
    exactly per count class.  The direct side is greedy's exact value on
    the frontier walk (`exact_expected_value`, which also refuses models
    without discrete, independent steps).
    """
    sum_direct = exact_expected_value(model, s, greedy_strategy(), cap=cap).value
    disc = model.as_discrete() if isinstance(model, Rademacher) else model
    size, length = len(disc.support), s.N * s.T
    scale, grid = exact_grid(disc, s.T, isinstance(alg.chooser, RankRule))
    symbols = _symbol_reader(grid)
    class_prob = lru_cache(maxsize=None)(lambda key: math.prod(disc.probs[k] for k in key))
    count = size ** length
    radix = size ** np.arange(length - 1, -1, -1)
    seen = np.zeros(-(-count // 8), dtype=np.uint8)
    bad = [0, 0, 0]
    bijective = pushforward_ok = True
    class_sums: dict[tuple, Number] = {}
    for start in range(0, count, REPLICATION_CHUNK):
        codes = np.arange(start, min(start + REPLICATION_CHUNK, count))
        x_sym = codes[:, None] // radix % size
        verdicts, y_inc, _, finals = _audit(grid[x_sym].reshape(-1, s.N, s.T), s, alg, ALL_CHECKS)
        bad = [n + int(np.count_nonzero(v)) for n, v in zip(bad, verdicts)]
        y_sym = symbols(y_inc).reshape(len(codes), length)
        off_support = bool((y_sym < 0).any())
        y_codes = y_sym @ radix
        byte, bit = y_codes >> 3, (1 << (y_codes & 7)).astype(np.uint8)
        if off_support or (seen[byte] & bit).any() or np.unique(y_codes).size < y_codes.size:
            bijective = False
        np.bitwise_or.at(seen, byte, bit)
        pushforward_ok &= not off_support
        classes = (map(tuple, np.sort(sym, axis=1).tolist()) for sym in (x_sym, y_sym))
        # exact sums: the scaled float finals are integers
        finals = finals if grid.dtype == object else finals.astype(np.int64)
        for x_class, y_class, final in zip(*classes, finals.tolist()):
            pushforward_ok &= x_class == y_class or class_prob(x_class) == class_prob(y_class)
            class_sums[x_class] = class_sums.get(x_class, 0) + final
    sum_image = sum(class_prob(key) * total for key, total in class_sums.items()) / scale
    return VerifyResult(
        mode="exhaustive",
        strategy=alg.describe(),
        cases=count,
        dominance_violations=bad[0],
        permutation_violations=bad[1],
        inversion_failures=bad[2],
        bijective=bijective,
        pushforward_ok=pushforward_ok,
        coupling_expectation_equal=sum_image == sum_direct,
    )


def _symbol_reader(grid: np.ndarray):
    """A map from an array of grid values to their symbols (indices into
    `grid`), with -1 for a value off the support."""
    if grid.dtype == object:
        index = {v: sym for sym, v in enumerate(grid.tolist())}
        return np.vectorize(lambda v: index.get(v, -1), otypes=[np.int64])
    order = np.argsort(grid)
    ordered = grid[order]

    def symbols(values: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(ordered, values), len(grid) - 1)
        return np.where(ordered[at] == values, order[at], -1)

    return symbols


def verify_mc(model: Model, s: Schedule, alg: Strategy, reps: int,
              seed: int, checks: tuple[str, ...] = ALL_CHECKS) -> VerifyResult:
    """Audit the coupling over sampled realizations.

    `checks` selects the layers to run per realization: "dominance"
    (pairwise and headline inequalities), "permutation" (block structure
    with the history-measurability recomputation) and "inversion" (full
    round trip).  Each sampled chunk is coupled and audited at once
    (`couple_chunk`, `audit_chunk`).  The measure-theoretic checks need an
    enumerable space and are reported as vacuously true here.
    """
    bad = [0, 0, 0]
    count = 0
    for _, inc in sample_replications(model, s.N, s.T, reps, seed):
        verdicts = _audit(inc, s, alg, checks)[0]
        bad = [n + int(np.count_nonzero(v)) for n, v in zip(bad, verdicts)]
        count += inc.shape[0]
    return VerifyResult(
        mode="mc",
        strategy=alg.describe(),
        cases=count,
        dominance_violations=bad[0],
        permutation_violations=bad[1],
        inversion_failures=bad[2],
        bijective=True,
        pushforward_ok=True,
        coupling_expectation_equal=True,
    )


def _audit(inc: np.ndarray, s: Schedule, alg: Strategy, checks: tuple[str, ...]) -> tuple:
    """Couple and audit every row of an increment chunk at once: the
    (dominance, permutation, inversion) failure masks, Y's increments, and
    the final values of the strategy on X and of greedy on Y.  The coupling
    itself is freed on return, before the caller's next chunk."""
    c = couple_chunk(inc, s, alg, invert="inversion" in checks)
    return audit_chunk(c, s, alg, checks), c.y_inc, c.alg_final, c.greedy_final


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

WITNESS_CSV_HEADER = (
    "stage", "pair_key", "x_process", "y_process", "x_value", "y_value", "dominance_ok"
)


def witness_to_csv_rows(w: AlignmentWitness) -> list[tuple]:
    rows = []
    for e in w.dominance:
        rows.append((
            e.stage, "/".join(str(k) for k in e.key), e.x_process, e.y_process,
            e.x_value, e.y_value, int(e.ok),
        ))
    return rows

