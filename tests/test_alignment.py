"""The alignment coupling: construction, dominance, permutation structure,
measure preservation, and inversion."""

from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference
import staged_select as ss
from staged_select import alignment, oracle
from staged_select.alignment import ALL_CHECKS, audit_chunk, couple_chunk
from staged_select.errors import DimensionMismatch, NonDeterministicStrategy

SCHEDULE_A = ss.validate_schedule([1, 2], [2, 1], N=3, T=2)
MODEL_A = ss.rademacher(1)
TRACE_X = ss.PathEnsemble.from_increment_rows([[1, 1], [-1, -1], [-1, 1]])
ANTI = ss.baseline_strategies()["anti_greedy"]
# a custom chooser, not a `RankRule`: the chunk engine runs it row by row
KEEP_WORST = ss.Strategy(
    name="keep_worst",
    chooser=lambda v, n: sorted(v.survivors, key=lambda i: (v.value_at(i, v.time), i))[:n],
)


def _fractions(inc):
    """The same chunk as an exact object grid of Fractions."""
    return np.frompyfunc(Fraction, 1, 1)(inc)


# --- construction -----------------------------------------------------------

def test_greedy_aligns_with_itself():
    w = ss.build_alignment(TRACE_X, SCHEDULE_A, ss.greedy_strategy())
    assert w.y == TRACE_X
    for block in range(1, SCHEDULE_A.stages + 1):
        perm = w.pairing.permutation(block)
        assert all(perm[m] == m for m in perm)


def test_hand_trace_pairs_and_image():
    w = ss.build_alignment(TRACE_X, SCHEDULE_A, ANTI)
    # survivors of the strategy {1,2} pair with greedy's survivors {0,1}
    # by within-cohort rank; the eliminated cohorts pair with each other
    perm = w.pairing.permutation(2)
    assert perm == {0: 1, 1: 2, 2: 0}
    keys = {(p.x_process, p.y_process): p.key for p in w.pairing.by_block[1]}
    assert keys[(1, 0)] == ("survivor", 1)
    assert keys[(2, 1)] == ("survivor", 2)
    assert keys[(0, 2)] == ("elim", 1, 1)
    # image increments of the second block are (-1, +1, +1)
    assert tuple(row[1] for row in w.y.increments) == (-1, 1, 1)
    assert tuple(row[2] for row in w.y.values) == (0, 0, 0)
    assert w.greedy_final == 0 and w.alg_final == 0


def test_identity_on_first_segment():
    rng = np.random.default_rng(3)
    s = ss.validate_schedule([3, 5], [2, 1], N=4, T=5)
    x = ss.PathEnsemble.from_increment_rows(rng.standard_normal((4, 5)).tolist())
    w = ss.build_alignment(x, s, ANTI)
    for i in range(4):
        assert w.y.values[i][: 4] == x.values[i][: 4]


def test_block_increments_conserved_as_multisets():
    rng = np.random.default_rng(11)
    s = ss.validate_schedule([2, 4, 6], [5, 2, 1], N=8, T=6)
    for strat in ss.full_catalog():
        x = ss.PathEnsemble.from_increment_rows(rng.standard_normal((8, 6)).tolist())
        w = ss.build_alignment(x, s, strat)
        for lo, hi in s.block_bounds():
            assert (Counter(row[lo:hi] for row in x.increments)
                    == Counter(row[lo:hi] for row in w.y.increments))


def test_dimension_mismatch_detected():
    x = ss.PathEnsemble.from_increment_rows([[1, -1]] * 4)
    with pytest.raises(DimensionMismatch):
        ss.build_alignment(x, SCHEDULE_A, ANTI)
    with pytest.raises(DimensionMismatch):
        ss.invert_alignment(x, SCHEDULE_A, ANTI)
    with pytest.raises(DimensionMismatch):
        couple_chunk(np.zeros((2, 4, 2)), SCHEDULE_A, ANTI)


def test_nondeterministic_strategy_refused():
    bad = ss.Strategy(name="coin", chooser=lambda v, n: sorted(v.survivors)[:n],
                      deterministic=False)
    with pytest.raises(NonDeterministicStrategy):
        ss.build_alignment(TRACE_X, SCHEDULE_A, bad)
    with pytest.raises(NonDeterministicStrategy):
        ss.invert_alignment(TRACE_X, SCHEDULE_A, bad)


# --- dominance --------------------------------------------------------------

def test_hand_trace_dominance_report():
    w = ss.build_alignment(TRACE_X, SCHEDULE_A, ANTI)
    rep = ss.check_pairwise_dominance(w, SCHEDULE_A)
    assert rep.ok
    stage2 = {(e.x_process, e.y_process): (e.x_value, e.y_value)
              for e in rep.entries if e.stage == 2}
    assert stage2 == {(1, 0): (-2, 0), (2, 1): (0, 0)}
    assert rep.alg_final == 0 and rep.greedy_final == 0


def test_greedy_witness_has_equality_everywhere():
    rng = np.random.default_rng(5)
    s = ss.validate_schedule([2, 4], [3, 1], N=5, T=4)
    x = ss.PathEnsemble.from_increment_rows(rng.standard_normal((5, 4)).tolist())
    w = ss.build_alignment(x, s, ss.greedy_strategy())
    rep = ss.check_pairwise_dominance(w, s)
    assert all(e.x_value == e.y_value for e in rep.entries)
    assert rep.alg_final == rep.greedy_final


def test_dominance_holds_on_random_float_ensembles():
    rng = np.random.default_rng(17)
    s = ss.validate_schedule([2, 4, 8], [8, 4, 1], N=16, T=8)
    for strat in ss.full_catalog():
        for _ in range(40):
            x = ss.PathEnsemble.from_increment_rows(
                rng.standard_normal((16, 8)).tolist())
            w = ss.build_alignment(x, s, strat)
            rep = ss.check_pairwise_dominance(w, s)
            assert rep.ok, (strat.name, rep.violations)


# --- permutation structure ---------------------------------------------------

def test_hand_trace_block_permutation():
    w = ss.build_alignment(TRACE_X, SCHEDULE_A, ANTI)
    rep = ss.check_block_permutation(w, SCHEDULE_A, alg=ANTI)
    assert rep.ok
    assert [b.block for b in rep.blocks] == [1, 2]


def test_permutation_history_measurable_for_catalog():
    rng = np.random.default_rng(23)
    s = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)
    for strat in ss.full_catalog():
        x = ss.PathEnsemble.from_increment_rows(rng.standard_normal((6, 5)).tolist())
        w = ss.build_alignment(x, s, strat)
        rep = ss.check_block_permutation(w, s, alg=strat)
        assert rep.ok, strat.name


# --- inversion ---------------------------------------------------------------

def test_inversion_round_trip_on_atoms():
    atoms = ss.enumerate_paths(MODEL_A, 3, 2)
    for strat in ss.full_catalog():
        for x, _ in atoms:
            w = ss.build_alignment(x, SCHEDULE_A, strat)
            assert ss.invert_alignment(w.y, SCHEDULE_A, strat) == x


def test_inversion_round_trip_float_exact():
    rng = np.random.default_rng(29)
    s = ss.validate_schedule([2, 4], [3, 1], N=6, T=4)
    for strat in ss.full_catalog():
        for _ in range(50):
            x = ss.PathEnsemble.from_increment_rows(
                rng.standard_normal((6, 4)).tolist())
            w = ss.build_alignment(x, s, strat)
            back = ss.invert_alignment(w.y, s, strat)
            assert back == x  # bit-exact, stronger than any tolerance


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_inversion_property_random_seeds(seed):
    s = ss.validate_schedule([1, 2, 4], [3, 2, 1], N=4, T=4)
    x = ss.sample_ensemble(ss.uniform(-2.0, 2.0), N=4, T=4, seed=seed)
    w = ss.build_alignment(x, s, ANTI)
    assert ss.invert_alignment(w.y, s, ANTI) == x
    assert ss.check_pairwise_dominance(w, s).ok


# --- measure preservation ----------------------------------------------------

def test_exhaustive_verification_instance_a():
    for strat in ss.full_catalog():
        res = ss.verify_exhaustive(MODEL_A, SCHEDULE_A, strat)
        assert res.mode == "exhaustive"
        assert res.cases == 64
        assert res.ok, (strat.name, res)


def test_pushforward_equality_with_uneven_probabilities():
    model = ss.discrete([1, -2], ["2/3", "1/3"])
    res = ss.verify_exhaustive(model, SCHEDULE_A, ANTI)
    assert res.ok


def test_verify_summary_wording():
    res = ss.verify_exhaustive(MODEL_A, SCHEDULE_A, ANTI)
    text = res.summary()
    assert text.startswith("64/64 atoms:")
    assert "dominance OK" in text and "permutation OK" in text
    assert "pushforward OK" in text


def test_verify_mc_small_sweep():
    s = ss.validate_schedule([2, 4], [3, 1], N=6, T=4)
    res = ss.verify_mc(ss.gaussian(0, 1), s, ANTI, reps=300, seed=1)
    assert res.cases == 300
    assert res.ok


def test_verify_mc_check_selection():
    s = ss.validate_schedule([2, 4], [3, 1], N=6, T=4)
    res = ss.verify_mc(ss.gaussian(0, 1), s, ANTI, reps=50, seed=2,
                       checks=("dominance",))
    assert res.ok


# --- export -------------------------------------------------------------------

def test_witness_csv_rows():
    w = ss.build_alignment(TRACE_X, SCHEDULE_A, ANTI)
    rows = ss.witness_to_csv_rows(w)
    assert all(len(r) == 7 for r in rows)
    assert any(r[1] == "survivor/1" for r in rows)
    assert all(r[6] == 1 for r in rows)


# --- batched coupling ----------------------------------------------------------
SCHEDULE_G = ss.validate_schedule([2, 4, 8], [8, 4, 1], N=16, T=8)
SCHEDULE_U = ss.validate_schedule([1, 3, 5], [4, 2, 1], N=6, T=5)

# the acceptance gate's discrete certification instances
INSTANCES = [
    ("A", MODEL_A, SCHEDULE_A),
    ("B", ss.discrete([1, -1], ["2/3", "1/3"]), ss.validate_schedule([1, 2], [2, 1], N=4, T=2)),
    ("C", ss.discrete([1, 0, -1], ["1/3", "1/3", "1/3"]), ss.validate_schedule([1, 2], [2, 1], N=3, T=2)),
    ("D", ss.rademacher(1), ss.validate_schedule([1, 2, 3], [3, 2, 1], N=4, T=3)),
    ("E", ss.discrete([2, -1, 0], ["1/6", "1/3", "1/2"]), ss.validate_schedule([1, 2], [3, 1], N=4, T=2)),
    ("F", ss.discrete([1, -1], ["1/2", "1/2"]), ss.validate_schedule([2, 3], [2, 1], N=3, T=3)),
]


# --- the one-row calls against the list walk -----------------------------------

def _pin_cases(name):
    """(schedule, realizations): every atom of A, every 32nd atom of B-F,
    or 10 sampled rows."""
    if name in ("gaussian", "uniform"):
        model, s = (ss.gaussian(0, 1), SCHEDULE_G) if name == "gaussian" else (ss.uniform(-1, 2), SCHEDULE_U)
        inc = ss.sample_chunk(model, s.N, s.T, seed=53, chunk_index=0)[:10]
        return s, [ss.PathEnsemble.from_increment_rows(rows) for rows in inc.tolist()]
    _, model, s = next(i for i in INSTANCES if i[0] == name)
    return s, [x for x, _ in ss.enumerate_paths(model, s.N, s.T)[::1 if name == "A" else 32]]


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E", "F", "gaussian", "uniform"])
def test_one_row_calls_equal_the_list_walk(name):
    s, xs = _pin_cases(name)
    for strat in [*ss.full_catalog(), KEEP_WORST]:
        for x in xs:
            w = ss.build_alignment(x, s, strat)
            ref = scalar_reference.reference_alignment(x, s, strat)
            for f in fields(w):   # pairs with keys and order, dominance, survivors, finals, Y
                assert getattr(w, f.name) == getattr(ref, f.name), (strat.name, f.name)
            back = ss.invert_alignment(w.y, s, strat)
            assert back == scalar_reference.reference_inversion(w.y, s, strat) == x
            report = ss.check_block_permutation(w, s, strat)
            assert report == scalar_reference.reference_block_permutation(w, s, strat)
            assert report.ok, strat.name


def test_swapped_pair_key_fails_history_measurability():
    w = ss.build_alignment(TRACE_X, SCHEDULE_A, ANTI)
    first, second, *rest = w.pairing.by_block[1]
    swapped = (first._replace(key=second.key), second._replace(key=first.key), *rest)
    bad = replace(w, pairing=ss.PairingSequence(by_block=(w.pairing.by_block[0], swapped)))
    for check in (ss.check_block_permutation, scalar_reference.reference_block_permutation):
        block = check(bad, SCHEDULE_A, ANTI).blocks[1]
        assert block.bijective and block.rows_match and not block.history_measurable


def _as_rows(grid):
    return tuple(tuple(float(v) for v in row) for row in grid)


def assert_chunk_matches_scalar(inc, s, strat, invert=True):
    """Every field of the batched coupling equals the list walk's witness
    (and its inversion) of the same row, bit for bit."""
    c = couple_chunk(inc, s, strat)
    for r in range(inc.shape[0]):
        x = ss.PathEnsemble.from_increment_rows(inc[r].tolist())
        w = scalar_reference.reference_alignment(x, s, strat)
        assert _as_rows(c.y_inc[r]) == _as_rows(w.y.increments), (strat.name, r)
        assert _as_rows(c.y_val[r]) == _as_rows(w.y.values), (strat.name, r)
        for b in range(1, s.stages + 1):
            got = {y: int(c.pairing[b - 1][r, y]) for y in range(s.N)}
            assert got == w.pairing.permutation(b), (strat.name, r, b)
        assert tuple(tuple(np.flatnonzero(m[r]).tolist()) for m in c.x_kept) == w.x_survivors
        assert tuple(tuple(np.flatnonzero(m[r]).tolist()) for m in c.y_kept) == w.y_survivors
        assert c.alg_final[r] == w.alg_final and c.greedy_final[r] == w.greedy_final
        back = scalar_reference.reference_inversion(w.y, s, strat) if invert else x
        assert _as_rows(c.x_back_inc[r]) == _as_rows(back.increments), (strat.name, r)
        assert _as_rows(c.x_back_val[r]) == _as_rows(back.values), (strat.name, r)
    dom, perm, inv = audit_chunk(c, s, strat)
    assert not dom.any() and not perm.any() and not inv.any(), strat.name


@pytest.mark.parametrize("model,s", [
    (ss.gaussian(0, 1), SCHEDULE_G),
    (ss.uniform(-1, 2), SCHEDULE_U),
])
def test_batched_coupling_matches_scalar_on_sampled_chunks(model, s):
    inc = ss.sample_chunk(model, s.N, s.T, seed=41, chunk_index=0)[:200]
    for strat in ss.full_catalog():
        assert_chunk_matches_scalar(inc, s, strat)


@pytest.mark.parametrize("name,model,s", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_batched_coupling_matches_scalar_on_every_atom(name, model, s):
    # float casts of every atom: integer-valued paths, ties everywhere.
    # Every field equals the list walk's witness of the exact atom under the
    # hand-written strategy (the casts are integers, so equality is exact),
    # and the inversion rebuilds the atom itself.
    atoms = ss.enumerate_paths(model, s.N, s.T)
    inc = np.array([[[float(v) for v in row] for row in x.increments] for x, _ in atoms])
    for index, strat in enumerate(ss.full_catalog()):
        ref = _catalog_reference(name, index)
        c = couple_chunk(inc, s, strat)
        assert (c.y_inc == ref.y_inc).all() and (c.y_val == ref.y_val).all(), strat.name
        assert all((got == want).all() for got, want in zip(c.pairing, ref.pairing)), strat.name
        assert (np.array(c.x_kept) == ref.x_kept).all() and (np.array(c.y_kept) == ref.y_kept).all()
        assert (c.alg_final == ref.alg_final).all() and (c.greedy_final == ref.greedy_final).all()
        assert (c.x_back_inc == inc).all() and (c.x_back_val == c.x_val).all()
        dom, perm, inv = audit_chunk(c, s, strat)
        assert not dom.any() and not perm.any() and not inv.any(), strat.name


def _audit_rows(inc, s, alg, checks):
    """Violation counts (dominance, permutation, inversion) of a chunk, one
    realization at a time through the scalar `audit_case`."""
    counts = [0, 0, 0]
    for r in range(inc.shape[0]):
        x = ss.PathEnsemble.from_increment_rows(inc[r].tolist())
        counts = [n + bad for n, bad in zip(counts, scalar_reference.audit_case(x, s, alg, checks)[1:])]
    return tuple(counts)


def test_batched_verify_mc_equals_scalar_loop():
    s = SCHEDULE_U
    model = ss.gaussian(0.5, 2)
    for strat in [*ss.full_catalog(), KEEP_WORST]:
        res = ss.verify_mc(model, s, strat, reps=300, seed=8)
        counts = [0, 0, 0]
        for _, inc in ss.sample_replications(model, s.N, s.T, 300, 8):
            counts = [a + b for a, b in zip(counts, _audit_rows(inc, s, strat, ALL_CHECKS))]
        assert res.cases == 300
        assert (res.dominance_violations, res.permutation_violations,
                res.inversion_failures) == tuple(counts) == (0, 0, 0)


def test_audit_case_recomputes_dominance_from_witness_grids(monkeypatch):
    # sink Y's last block after the build: the entries recorded during the
    # build still read ok, so only a recomputation from the grids sees it
    real = scalar_reference.reference_alignment

    def sunk(x, s, alg):
        w = real(x, s, alg)
        rows = [row[:-1] + (row[-1] - 10,) for row in w.y.increments]
        return replace(w, y=ss.PathEnsemble.from_increment_rows(rows))

    monkeypatch.setattr(scalar_reference, "reference_alignment", sunk)
    w, dom_bad, perm_bad, inv_bad = scalar_reference.audit_case(TRACE_X, SCHEDULE_A, ANTI)
    assert all(e.ok for e in w.dominance)
    assert dom_bad and perm_bad and inv_bad
    assert scalar_reference.audit_case(TRACE_X, SCHEDULE_A, ANTI, ("permutation",))[1:] == (
        False, True, False)


def test_verify_mc_falls_back_for_strategies_without_batched_rule():
    # a chooser that is not a `RankRule` is coupled on the chunk engine
    # too, float or exact, field for field as the scalar witness
    res = ss.verify_mc(ss.gaussian(0, 1), SCHEDULE_U, KEEP_WORST, reps=40, seed=3)
    assert res.cases == 40 and res.ok
    inc = ss.sample_chunk(ss.gaussian(0, 1), SCHEDULE_U.N, SCHEDULE_U.T, seed=3, chunk_index=0)[:40]
    assert_chunk_matches_scalar(inc, SCHEDULE_U, KEEP_WORST)
    assert_chunk_matches_scalar(_fractions(inc[:10]), SCHEDULE_U, KEEP_WORST)


def test_batched_coupling_refuses_nondeterministic_strategy():
    bad = ss.Strategy(name="greedy", chooser=lambda v, n: sorted(v.survivors)[:n],
                      deterministic=False)
    with pytest.raises(NonDeterministicStrategy):
        couple_chunk(np.zeros((2, 3, 2)), SCHEDULE_A, bad)


def _corrupt(a, edit):
    a = a.copy()
    edit(a)
    return a


def test_audit_counts_each_planted_fault():
    s = SCHEDULE_G
    inc = ss.sample_chunk(ss.gaussian(0, 1), s.N, s.T, seed=6, chunk_index=0)[:50]
    for chunk in (inc, _fractions(inc)):   # float64 and exact object grids
        _assert_each_planted_fault_counted(couple_chunk(chunk, s, ANTI), s, ANTI)


def _assert_each_planted_fault_counted(c, s, anti):
    lo, hi = s.block_bounds()[1]

    def sink_y_block(a):        # row 7's image loses 1e6 over block 2
        a[7, :, lo + 1:hi + 1] -= 1e6

    def swap_pairing(a):        # row 11's block-2 pairing swaps two entries
        a[11, [0, 1]] = a[11, [1, 0]]

    def nudge_back(a):          # row 23's rebuilt X is off by one at T
        a[23, 0, s.T] += 1.0

    def swap_rows(a):           # row 30's block-2 rows follow the swapped pairing
        a[30, [0, 1], lo:hi] = a[30, [1, 0], lo:hi]

    def swap_pairing_30(a):
        a[30, [0, 1]] = a[30, [1, 0]]

    # a bijective pairing whose rows match Y, but which the history up to
    # t_1 does not produce: only the recomputation can catch it
    repaired = replace(c, y_inc=_corrupt(c.y_inc, swap_rows),
                       pairing=(c.pairing[0], _corrupt(c.pairing[1], swap_pairing_30),
                                *c.pairing[2:]))
    def bump_y_step(a):         # row 41's image increments stop matching X's rows
        a[41, 3, lo] += 0.5

    # the strategy's final pick moved to X's best final value: only the
    # headline inequality sees it
    row = int(np.flatnonzero(c.x_val[:, :, s.T].max(axis=1) > c.greedy_final)[0])

    def pick_best(a):
        a[row] = False
        a[row, np.argmax(c.x_val[row, :, s.T])] = True

    cases = [
        (replace(c, y_val=_corrupt(c.y_val, sink_y_block)), 0, 7),
        (replace(c, x_kept=(*c.x_kept[:-1], _corrupt(c.x_kept[-1], pick_best))), 0, row),
        (replace(c, y_inc=_corrupt(c.y_inc, bump_y_step)), 1, 41),
        (replace(c, pairing=(c.pairing[0], _corrupt(c.pairing[1], swap_pairing),
                             *c.pairing[2:])), 1, 11),
        (repaired, 1, 30),
        (replace(c, x_back_val=_corrupt(c.x_back_val, nudge_back)), 2, 23),
    ]
    for bad, which, row in cases:
        verdicts = audit_chunk(bad, s, anti)
        assert np.flatnonzero(verdicts[which]).tolist() == [row], c.x_inc.dtype
    assert not any(v.any() for v in audit_chunk(c, s, anti))


def test_audit_runs_only_selected_checks():
    s = SCHEDULE_U
    inc = ss.sample_chunk(ss.gaussian(0, 1), s.N, s.T, seed=2, chunk_index=0)[:20]
    anti = ss.baseline_strategies()["anti_greedy"]
    c = couple_chunk(inc, s, anti, invert=False)
    assert c.x_back_inc is None and c.x_back_val is None
    dom, perm, inv = audit_chunk(c, s, anti, checks=("dominance",))
    assert not dom.any() and not perm.any() and not inv.any()


# --- exhaustive verification on atom chunks ------------------------------------------

@lru_cache(maxsize=None)
def _greedy_sum_over_atoms(model, s):
    return sum(p * ss.run_selection(x, s, scalar_reference.HAND_GREEDY).final_value
               for x, p in ss.enumerate_paths(model, s.N, s.T))


class _AtomReference(NamedTuple):
    """The per-atom list-walk audit of one strategy over every atom, in
    enumeration order.  Grids hold the exact values (integral ones as
    ints), so a float-cast chunk compares with them exactly."""

    result: ss.VerifyResult    # what `verify_exhaustive` must return
    y_inc: np.ndarray          # (atoms, N, T) the image's increments
    y_val: np.ndarray          # (atoms, N, T + 1) the image's values
    pairing: np.ndarray        # (stages, atoms, N) X process feeding Y's process per block
    x_kept: np.ndarray         # (stages, atoms, N) the strategy's survivor masks on X
    y_kept: np.ndarray         # (stages, atoms, N) greedy's survivor masks on Y
    alg_final: np.ndarray      # (atoms,)
    greedy_final: np.ndarray   # (atoms,)


_compact = np.frompyfunc(lambda v: v.numerator if v.denominator == 1 else v, 1, 1)


def _verify_exhaustive_reference(model, s, alg) -> _AtomReference:
    """The per-atom list-walk audit, with the hand-written choosers for
    the strategy and for greedy: every enumerated atom through
    `audit_case`, images looked up among the atoms, both sides of the
    identity summed atom by atom."""
    atoms = ss.enumerate_paths(model, s.N, s.T)
    prob_of = {x.values: p for x, p in atoms}
    counts = [0, 0, 0]
    images = set()
    pushforward_ok = True
    sum_image = 0
    witnesses = []
    for x, p in atoms:
        w, *bad = scalar_reference.audit_case(x, s, alg)
        counts = [n + b for n, b in zip(counts, bad)]
        images.add(w.y.values)
        pushforward_ok &= prob_of.get(w.y.values) == p
        sum_image += p * w.greedy_final
        witnesses.append(w)

    def masks(survivors):
        out = np.zeros((s.stages, len(witnesses), s.N), dtype=bool)
        for r, w in enumerate(witnesses):
            for j, kept in enumerate(survivors(w)):
                out[j, r, list(kept)] = True
        return out

    result = ss.VerifyResult(
        mode="exhaustive", strategy=alg.describe(), cases=len(atoms),
        dominance_violations=counts[0], permutation_violations=counts[1],
        inversion_failures=counts[2], bijective=len(images) == len(atoms),
        pushforward_ok=pushforward_ok,
        coupling_expectation_equal=sum_image == _greedy_sum_over_atoms(model, s),
    )
    return _AtomReference(
        result=result,
        y_inc=_compact(np.array([w.y.increments for w in witnesses], dtype=object)),
        y_val=_compact(np.array([w.y.values for w in witnesses], dtype=object)),
        pairing=np.array([[[w.pairing.permutation(b)[y] for y in range(s.N)] for w in witnesses]
                          for b in range(1, s.stages + 1)]),
        x_kept=masks(lambda w: w.x_survivors),
        y_kept=masks(lambda w: w.y_survivors),
        alg_final=_compact(np.array([w.alg_final for w in witnesses], dtype=object)),
        greedy_final=_compact(np.array([w.greedy_final for w in witnesses], dtype=object)),
    )


@lru_cache(maxsize=None)
def _catalog_reference(name: str, index: int) -> _AtomReference:
    """`_verify_exhaustive_reference` of the hand-written catalog strategy
    `index` on instance `name`, computed once per session: the exhaustive
    sweep and the float-cast coupling of every atom are both pinned to it."""
    _, model, s = next(i for i in [*INSTANCES, SCALED] if i[0] == name)
    return _verify_exhaustive_reference(model, s, scalar_reference.reference_catalog()[index])


# support with denominators: the chunk audit runs on the support times 6
SCALED = ("H", ss.discrete(["1/2", "-1/3"], ["2/5", "3/5"]),
          ss.validate_schedule([1, 3], [2, 1], N=3, T=3))
# past the float64 guard: must take the exact object grid
HUGE = ("G", ss.discrete([2 ** 60, -1], ["1/2", "1/2"]), SCHEDULE_A)


def _count_chunk_couplings(monkeypatch):
    """Record (rows, dtype) of every chunk that `verify_exhaustive` couples."""
    calls = []
    real = alignment.couple_chunk

    def counted(inc, s, alg, invert=True):
        calls.append((inc.shape[0], inc.dtype))
        return real(inc, s, alg, invert)

    monkeypatch.setattr(alignment, "couple_chunk", counted)
    return calls


@pytest.mark.parametrize("name,model,s", INSTANCES + [SCALED],
                         ids=[i[0] for i in INSTANCES] + ["H"])
def test_exhaustive_chunk_audit_equals_per_atom_reference(name, model, s, monkeypatch):
    calls = _count_chunk_couplings(monkeypatch)
    for index, strat in enumerate(ss.full_catalog()):
        res = ss.verify_exhaustive(model, s, strat)
        assert res == _catalog_reference(name, index).result, name
        assert res.ok
    # every catalog strategy took the scaled float64 grid, in chunks of at
    # most 4096 atoms
    disc = model.as_discrete() if isinstance(model, ss.Rademacher) else model
    count = len(disc.support) ** (s.N * s.T)
    rows = [n for n, _ in calls]
    assert sum(rows) == 5 * count and max(rows) <= ss.REPLICATION_CHUNK
    assert {dtype for _, dtype in calls} == {np.dtype(float)}


@pytest.mark.parametrize("name,model,s,strat", [
    (*HUGE, ANTI),
    (*HUGE, KEEP_WORST),
    *((*instance, KEEP_WORST) for instance in INSTANCES),
    (*SCALED, KEEP_WORST),
], ids=["huge-anti", "huge-keep_worst", *(f"{i[0]}-keep_worst" for i in INSTANCES),
        "H-keep_worst"])
def test_exhaustive_fallback_equals_per_atom_reference(name, model, s, strat, monkeypatch):
    # past the guard, or for a chooser that is not a `RankRule`, the same
    # chunk audit runs on the unscaled support as exact Fraction objects
    calls = _count_chunk_couplings(monkeypatch)
    res = ss.verify_exhaustive(model, s, strat)
    assert calls and {dtype for _, dtype in calls} == {np.dtype(object)}
    assert res == _verify_exhaustive_reference(model, s, strat).result and res.ok


def test_symbol_readback_marks_off_support_steps():
    # the float grid's sorted search reads symbols as the object grid's
    # lookup does, on an unsorted support, and marks every other value -1
    disc = ss.discrete([2, -1, 0], ["1/6", "1/3", "1/2"])
    scale, grid = oracle.exact_grid(disc, 2, True)
    assert scale == 1 and grid.dtype == float
    steps = [2, -1, 0, 7, -3, Fraction(1, 2), 1]
    want = [[0, 1, 2, -1, -1, -1, -1]]
    floats = np.array([[float(v) for v in steps] + [np.nan]])
    assert alignment._symbol_reader(grid)(floats).tolist() == [want[0] + [-1]]
    exact = np.array([[Fraction(v) for v in steps]], dtype=object)
    assert alignment._symbol_reader(np.array(disc.support, dtype=object))(exact).tolist() == want


def _plant(monkeypatch, edit):
    """Corrupt the chunk coupling that `verify_exhaustive` reads."""
    def corrupted(inc, s, alg, invert=True):
        c = couple_chunk(inc, s, alg, invert)
        y_inc, y_val = c.y_inc.copy(), c.y_val.copy()
        edit(y_inc, y_val)
        return replace(c, y_inc=y_inc, y_val=y_val)

    monkeypatch.setattr(alignment, "couple_chunk", corrupted)


def test_exhaustive_accounting_catches_planted_faults(monkeypatch):
    model, s = INSTANCES[1][1], INSTANCES[1][2]   # B: uneven probabilities

    def duplicate(y_inc, y_val):     # atom 0's image repeats atom 1's
        y_inc[0], y_val[0] = y_inc[1], y_val[1]

    def off_support(y_inc, y_val):   # an image step that no atom has
        y_inc[5, 0, 1] = 7.0

    def reweigh(y_inc, y_val):       # an image step flipped to the other symbol
        y_inc[5, 0, 1] = -y_inc[5, 0, 1]

    def richer(y_inc, y_val):        # greedy's final value on one image grows
        y_val[9, :, -1] += 1.0

    # each fault must clear its own flag; `richer` leaves the image map alone;
    # anti_greedy runs on the scaled float64 grid, keep_worst on Fractions
    cleared = [(duplicate, {"bijective"}), (off_support, {"bijective", "pushforward_ok"}),
               (reweigh, {"pushforward_ok"}), (richer, {"coupling_expectation_equal"})]
    for strat in (ANTI, KEEP_WORST):
        assert ss.verify_exhaustive(model, s, strat).ok
        for edit, flags in cleared:
            _plant(monkeypatch, edit)
            res = ss.verify_exhaustive(model, s, strat)
            assert not any(getattr(res, flag) for flag in flags), (strat.name, edit.__name__)
            if edit is richer:
                assert res.bijective and res.pushforward_ok
            assert not res.ok
        monkeypatch.undo()
