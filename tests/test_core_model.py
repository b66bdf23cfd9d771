"""Models, schedules, ensembles, sampling, and enumeration."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

import staged_select as ss
from scalar_reference import from_value_rows
from staged_select.errors import (
    ConfigInvalid,
    EnumerationTooLarge,
    InvalidDimensions,
    LastSizeNotOne,
    LastTimeNotT,
    NonDecreasingSizes,
    NonMonotoneTimes,
    SizesExceedN,
)

INSTANCE_A = (ss.rademacher(1), ss.validate_schedule([1, 2], [2, 1], N=3, T=2))


# --- models ----------------------------------------------------------------

def test_discrete_probs_must_sum_to_one():
    with pytest.raises(ConfigInvalid):
        ss.discrete([1, -1], ["1/2", "1/3"])


def test_discrete_rejects_duplicate_support():
    with pytest.raises(ConfigInvalid):
        ss.discrete([1, 1], ["1/2", "1/2"])


def test_discrete_rejects_zero_prob():
    with pytest.raises(ConfigInvalid):
        ss.discrete([1, -1, 0], ["1/2", "1/2", "0"])


def test_uniform_requires_lo_below_hi():
    with pytest.raises(ConfigInvalid):
        ss.uniform(1.0, 1.0)


def test_gaussian_allows_zero_stddev():
    assert ss.gaussian(0, 0).stddev == 0.0


def test_rademacher_as_discrete_is_exact():
    d = ss.rademacher(1).as_discrete()
    assert d.support == (Fraction(1), Fraction(-1))
    assert sum(d.probs) == 1


def test_drift_model_is_flagged_dependent():
    m = ss.drift_model(ss.gaussian(0, 1), [1, -1], ["1/2", "1/2"])
    assert not m.independent_increments
    assert ss.gaussian(0, 1).independent_increments


def test_drift_probs_validated():
    with pytest.raises(ConfigInvalid):
        ss.drift_model(ss.gaussian(0, 1), [1], ["1/2"])


# --- schedule --------------------------------------------------------------

def test_schedule_ok():
    s = ss.validate_schedule([1, 2], [2, 1], N=3, T=2)
    assert s.times == (1, 2) and s.sizes == (2, 1)
    assert s.block_bounds() == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "times,sizes,N,T,err",
    [
        ([1, 2], [2, 2], 3, 2, NonDecreasingSizes),
        ([1, 3], [2, 1], 3, 2, LastTimeNotT),
        ([2, 1], [2, 1], 3, 2, NonMonotoneTimes),
        ([0, 2], [2, 1], 3, 2, NonMonotoneTimes),
        ([1, 2], [2, 0], 3, 2, NonDecreasingSizes),
        ([1, 2], [3, 2], 3, 2, LastSizeNotOne),
        ([1, 2], [3, 1], 3, 2, SizesExceedN),
        ([], [], 3, 2, InvalidDimensions),
        ([1, 2], [2], 3, 2, InvalidDimensions),
    ],
)
def test_schedule_violations_named(times, sizes, N, T, err):
    with pytest.raises(err):
        ss.validate_schedule(times, sizes, N, T)


def test_degenerate_single_stage_schedule_is_legal():
    s = ss.validate_schedule([4], [1], N=2, T=4)
    assert s.stages == 1


# --- ensembles ---------------------------------------------------------------

def test_paths_start_at_zero_and_stay_consistent():
    x = ss.PathEnsemble.from_increment_rows([[1, -1], [2, 0]])
    assert all(row[0] == 0 for row in x.values)
    assert x.values == ((0, 1, 0), (0, 2, 2))


def test_from_value_rows_requires_zero_start():
    with pytest.raises(InvalidDimensions):
        from_value_rows([[1, 2]])


# --- sampling --------------------------------------------------------------

def test_zero_variance_model_gives_zero_paths():
    x = ss.sample_ensemble(ss.gaussian(0, 0), N=2, T=3, seed=7)
    assert all(v == 0 for row in x.values for v in row)


def test_sampling_is_deterministic():
    a = ss.sample_ensemble(ss.gaussian(0, 1), N=4, T=5, seed=42)
    b = ss.sample_ensemble(ss.gaussian(0, 1), N=4, T=5, seed=42)
    assert a == b
    c = ss.sample_ensemble(ss.gaussian(0, 1), N=4, T=5, seed=43)
    assert a != c


def test_rademacher_parity():
    x = ss.sample_ensemble(ss.rademacher(1), N=2, T=4, seed=3)
    for row in x.values:
        for t, v in enumerate(row):
            assert abs(v) <= t
            assert int(v) % 2 == t % 2


def test_sample_rejects_bad_dimensions():
    with pytest.raises(InvalidDimensions):
        ss.sample_ensemble(ss.gaussian(0, 1), N=1, T=3, seed=0)
    with pytest.raises(InvalidDimensions):
        ss.sample_ensemble(ss.gaussian(0, 1), N=2, T=0, seed=0)


def test_drift_sampling_adds_persistent_shift():
    m = ss.drift_model(ss.gaussian(0, 0), [3], ["1"])
    x = ss.sample_ensemble(m, N=2, T=3, seed=1)
    assert x.values[0] == (0, 3, 6, 9)


def test_replication_chunks_are_schedule_independent():
    m = ss.gaussian(0, 1)
    one = np.concatenate([inc for _, inc in ss.sample_replications(m, 3, 2, 10, seed=9)])
    two = np.concatenate([inc for _, inc in ss.sample_replications(m, 3, 2, 7000, seed=9)])
    assert np.array_equal(one, two[:10])


@pytest.mark.parametrize("reps,plan", [
    (0, []), (1, [(0, 1)]), (4096, [(0, 4096)]), (4097, [(0, 4096), (1, 1)]),
    (10_000, [(0, 4096), (1, 4096), (2, 1808)]),
])
def test_replication_plan(reps, plan):
    assert ss.core_model.replication_plan(reps) == plan
    starts = [start for start, _ in ss.sample_replications(ss.gaussian(0, 1), 2, 1, reps, 0)]
    assert starts == [c * ss.REPLICATION_CHUNK for c, _ in plan]


# SHA-256 of `sample_chunk` chunk 0 and of one `sample_ensemble` realization
# (values then increments, as float64) at N=3, T=4, seed=7.  Any change to a
# draw routine that moves a single bit of a seeded draw changes these.
GOLDEN_DRAWS = {
    "gaussian": (ss.gaussian(0.5, 2),
                 "e90741910567861a29f0f3b43dabad169497003f704312825a7e37d95d49489c",
                 "664dcbf0ca697b885ad625279987727e56d601275ac720375769ae3304454cf2"),
    "uniform": (ss.uniform(-1, 2),
                "43caef38fec1da8b91effc21488f4a20ea18f527b63eb1800dac484811cff842",
                "d2acf82f67ca3d3a98c5f8c45b2459c72dd034164a80e963df71658428ec7fa4"),
    "discrete": (ss.discrete([2, 0, -1], ["1/4", "1/4", "1/2"]),
                 "39b2f243d444c48711b6d23aab4003753db83b15f7fa15dd07e282d4099868ee",
                 "9f9d6a9d98ff70ab57790ae5c64586c59d8793a84e6c013cc18a4f0b5fe047c1"),
    "rademacher": (ss.rademacher(1),
                   "05138969579ef09f7088b23fc03fd882bbbb6032843d26a1468dd6d32459d2d8",
                   "8dcdda6c6657bef62e8bd7a06404373c1862e703dc483d4008134f0f9798292c"),
    "drift": (ss.drift_model(ss.rademacher(3), [1, -1], ["1/2", "1/2"]),
              "6340455feb58c8829c07fbcd0039b2b293394dfd481e4042e48f3c4ce4c93059",
              "a940c53b4ea1c29b5dbf7be45e77c5dcf6e60e9368999f7d9454c07fec56a098"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_DRAWS))
def test_golden_draws(kind):
    model, chunk_hash, ensemble_hash = GOLDEN_DRAWS[kind]
    chunk = ss.sample_chunk(model, 3, 4, seed=7, chunk_index=0)
    assert chunk.dtype == np.float64 and chunk.shape == (ss.REPLICATION_CHUNK, 3, 4)
    x = ss.sample_ensemble(model, 3, 4, seed=7)
    grids = (np.array(x.values, dtype=np.float64).tobytes()
             + np.array(x.increments, dtype=np.float64).tobytes())
    assert (hashlib.sha256(chunk.tobytes()).hexdigest(),
            hashlib.sha256(grids).hexdigest()) == (chunk_hash, ensemble_hash)


@pytest.mark.parametrize("model", [
    ss.gaussian(1e308, 0),                          # every step is 1e308
    ss.gaussian(-1e308, 1e308),
    ss.drift_model(ss.gaussian(0, 0), [1e308], ["1"]),
    ss.drift_model(ss.gaussian(1e308, 0), [0], ["1"]),
])
def test_sampler_refuses_overflowing_paths(model):
    with pytest.raises(ConfigInvalid, match="non-finite"):
        ss.sample_chunk(model, 3, 2, seed=0, chunk_index=0, chunk=64)
    with pytest.raises(ConfigInvalid, match="non-finite"):
        ss.sample_ensemble(model, 3, 4, seed=0)


def test_sampler_accepts_huge_paths_that_stay_finite():
    inc = ss.sample_chunk(ss.rademacher(1e308), 3, 1, seed=0, chunk_index=0, chunk=64)
    assert np.isfinite(inc).all()


def test_uniform_range_must_be_finite():
    with pytest.raises(ConfigInvalid, match="hi - lo"):
        ss.uniform(-1e308, 1e308)


# --- enumeration -----------------------------------------------------------

def test_enumeration_counts_and_probabilities():
    model, _ = INSTANCE_A
    atoms = ss.enumerate_paths(model, 3, 2)
    assert len(atoms) == 64
    assert all(p == Fraction(1, 64) for _, p in atoms)
    assert sum(p for _, p in atoms) == 1
    keys = {x.values for x, _ in atoms}
    assert len(keys) == 64


def test_enumeration_degenerate_support():
    atoms = ss.enumerate_paths(ss.discrete([0], ["1"]), 2, 2)
    assert len(atoms) == 1
    assert atoms[0][1] == 1


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        ss.enumerate_paths(ss.rademacher(1), 4, 4, cap=100)


def test_enumeration_sum_with_uneven_probs():
    atoms = ss.enumerate_paths(ss.discrete([1, 0, -2], ["1/2", "1/3", "1/6"]), 2, 2)
    assert sum(p for _, p in atoms) == 1


# --- JSON configuration ----------------------------------------------------

def test_model_config_round_trip():
    doc = {"kind": "discrete", "support": [1, -1], "probs": ["1/2", "1/2"]}
    m = ss.model_from_config(doc)
    assert ss.model_to_config(m) == doc
    d = {"kind": "drift", "base": {"kind": "rademacher", "scale": 10},
         "drift_support": [1, -1], "drift_probs": ["1/2", "1/2"]}
    assert ss.model_to_config(ss.model_from_config(d)) == d


def test_model_config_rejects_unknown_key():
    with pytest.raises(ConfigInvalid, match="model.scale"):
        ss.model_from_config({"kind": "gaussian", "mean": 0, "stddev": 1, "scale": 2})


def test_schedule_config_round_trip():
    doc = {"times": [1, 2], "sizes": [2, 1], "N": 3, "T": 2}
    s = ss.schedule_from_config(doc)
    assert ss.schedule_to_config(s) == doc


def test_schedule_config_missing_key_names_path():
    with pytest.raises(ConfigInvalid, match="schedule.sizes"):
        ss.schedule_from_config({"times": [1, 2], "N": 3, "T": 2})


# --- non-finite parameters and the chunk value grid ---------------------------------

@pytest.mark.parametrize("doc", [
    {"kind": "gaussian", "mean": float("nan"), "stddev": 1},
    {"kind": "gaussian", "mean": 0, "stddev": float("inf")},
    {"kind": "uniform", "lo": float("-inf"), "hi": 1},
    {"kind": "uniform", "lo": 0, "hi": float("inf")},
    {"kind": "rademacher", "scale": float("inf")},
    {"kind": "gaussian", "mean": 10 ** 400, "stddev": 1},
    {"kind": "drift", "base": {"kind": "gaussian", "mean": float("nan"), "stddev": 1},
     "drift_support": [1], "drift_probs": [1]},
    {"kind": "drift", "base": {"kind": "rademacher", "scale": 1},
     "drift_support": [float("inf")], "drift_probs": [1]},
])
def test_model_from_config_rejects_non_finite_parameters(doc):
    with pytest.raises(ConfigInvalid):
        ss.model_from_config(doc)


def test_value_grid_equals_ensemble_values():
    inc = ss.sample_chunk(ss.gaussian(0.3, 2), 5, 6, seed=3, chunk_index=0)[:50]
    grid = ss.core_model.value_grid(inc)
    assert grid.shape == (50, 5, 7)
    for r in range(50):
        x = ss.PathEnsemble.from_increment_rows(inc[r].tolist())
        assert tuple(map(tuple, grid[r].tolist())) == x.values
