"""Increment models, observation schedules, path ensembles, sampling and
exact enumeration.

Conventions used throughout the package:

* time is an integer step index 0..T and every process starts at 0;
* process ids are 0-based;
* discrete models carry exact `fractions.Fraction` support values and
  probabilities, so enumeration-based oracles never touch floating point;
* a `PathEnsemble` stores its step increments as the authoritative data and
  its values always equal the running sums of those increments.  This makes
  the value/increment round trip bit-exact even for float-valued paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    ChunkTooLarge,
    ConfigInvalid,
    EnumerationTooLarge,
    InvalidDimensions,
    LastSizeNotOne,
    LastTimeNotT,
    NonDecreasingSizes,
    NonMonotoneTimes,
    ReplicationsTooLarge,
    SizesExceedN,
)

Number = Union[int, float, Fraction]

#: default cap on the number of states `enumerate_paths` may produce
ENUMERATION_CAP = 10_000_000


def as_fraction(x: Number | str) -> Fraction:
    """Exact rational from an int, Fraction, ``"p/q"`` string, or float.

    Floats convert to their exact binary value, so ``as_fraction(0.5)`` is
    exactly 1/2 while ``as_fraction(0.1)`` is the (ugly but exact) binary
    expansion of the double 0.1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to an exact rational")


def _format_rational(q: Fraction) -> str | int:
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# increment models
# ---------------------------------------------------------------------------

def _require_finite(kind: str, *params) -> None:
    # NaN and infinite parameters (JSON accepts both) would sample NaN
    # paths, which every comparison-based check then reports as a violation
    if any(isinstance(p, float) and not math.isfinite(p) for p in params):
        raise ConfigInvalid(f"{kind} model parameters must be finite")


@dataclass(frozen=True)
class Discrete:
    """Finite-support step distribution with exact rational probabilities."""

    support: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    kind = "discrete"
    independent_increments = True

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ConfigInvalid("discrete model needs equal-length nonempty support and probs")
        if len(set(self.support)) != len(self.support):
            raise ConfigInvalid("discrete support values must be distinct")
        if any(p <= 0 for p in self.probs):
            raise ConfigInvalid("discrete probabilities must be positive")
        if sum(self.probs) != 1:
            raise ConfigInvalid(f"discrete probabilities sum to {sum(self.probs)}, not 1")

    def tag(self) -> str:
        pairs = ",".join(
            f"{_format_rational(v)}:{_format_rational(p)}"
            for v, p in zip(self.support, self.probs)
        )
        return f"discrete({pairs})"


@dataclass(frozen=True)
class Gaussian:
    mean: float
    stddev: float

    kind = "gaussian"
    independent_increments = True

    def __post_init__(self):
        _require_finite("gaussian", self.mean, self.stddev)
        if self.stddev < 0:
            raise ConfigInvalid("gaussian stddev must be >= 0")

    def tag(self) -> str:
        return f"gaussian({self.mean},{self.stddev})"


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    kind = "uniform"
    independent_increments = True

    def __post_init__(self):
        _require_finite("uniform", self.lo, self.hi)
        if not self.lo < self.hi:
            raise ConfigInvalid("uniform requires lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise ConfigInvalid("uniform range hi - lo must be finite")

    def tag(self) -> str:
        return f"uniform({self.lo},{self.hi})"


@dataclass(frozen=True)
class Rademacher:
    """Symmetric two-point step: +scale or -scale with probability 1/2 each."""

    scale: Number

    kind = "rademacher"
    independent_increments = True

    def __post_init__(self):
        _require_finite("rademacher", self.scale)
        if not self.scale > 0:
            raise ConfigInvalid("rademacher scale must be > 0")

    def as_discrete(self) -> Discrete:
        s = as_fraction(self.scale)
        return Discrete(support=(s, -s), probs=(Fraction(1, 2), Fraction(1, 2)))

    def tag(self) -> str:
        return f"rademacher({self.scale})"


IncrementModel = Union[Discrete, Gaussian, Uniform, Rademacher]


@dataclass(frozen=True)
class DriftModel:
    """Base increments shifted by a persistent per-process drift drawn once
    at time 0.  Increments of one process are therefore dependent across
    time; consumers that require independent increments must refuse this
    model (`independent_increments` is False).
    """

    base: IncrementModel
    drift_support: tuple[Fraction, ...]
    drift_probs: tuple[Fraction, ...]

    kind = "drift"
    independent_increments = False

    def __post_init__(self):
        if isinstance(self.base, DriftModel):
            raise ConfigInvalid("drift model cannot nest another drift model")
        if len(self.drift_support) != len(self.drift_probs) or not self.drift_support:
            raise ConfigInvalid("drift model needs equal-length nonempty drift_support and drift_probs")
        if any(p <= 0 for p in self.drift_probs):
            raise ConfigInvalid("drift probabilities must be positive")
        if sum(self.drift_probs) != 1:
            raise ConfigInvalid(f"drift probabilities sum to {sum(self.drift_probs)}, not 1")

    def tag(self) -> str:
        pairs = ",".join(
            f"{_format_rational(v)}:{_format_rational(p)}"
            for v, p in zip(self.drift_support, self.drift_probs)
        )
        return f"drift({pairs};{self.base.tag()})"


Model = Union[IncrementModel, DriftModel]


def discrete(support: Iterable[Number | str], probs: Iterable[Number | str]) -> Discrete:
    return Discrete(
        support=tuple(as_fraction(v) for v in support),
        probs=tuple(as_fraction(p) for p in probs),
    )


def gaussian(mean: float, stddev: float) -> Gaussian:
    return Gaussian(mean=float(mean), stddev=float(stddev))


def uniform(lo: float, hi: float) -> Uniform:
    return Uniform(lo=float(lo), hi=float(hi))


def rademacher(scale: Number = 1) -> Rademacher:
    return Rademacher(scale=scale)


def drift_model(
    base: IncrementModel,
    drift_support: Iterable[Number | str],
    drift_probs: Iterable[Number | str],
) -> DriftModel:
    return DriftModel(
        base=base,
        drift_support=tuple(as_fraction(v) for v in drift_support),
        drift_probs=tuple(as_fraction(p) for p in drift_probs),
    )


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Observation times 0 < t_1 < ... < t_k = T with survivor sizes
    N > n_1 > ... > n_k = 1.  Construct through `validate_schedule`."""

    times: tuple[int, ...]
    sizes: tuple[int, ...]
    N: int
    T: int

    @property
    def stages(self) -> int:
        return len(self.times)

    def block_bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open increment column spans [t_{j-1}, t_j) per stage, with
        t_0 = 0.  Column c holds the step from time c to time c+1."""
        prev = 0
        out = []
        for t in self.times:
            out.append((prev, t))
            prev = t
        return tuple(out)

    def previous_time(self, stage: int) -> int:
        return 0 if stage == 1 else self.times[stage - 2]


def validate_schedule(
    times: Sequence[int], sizes: Sequence[int], N: int, T: int
) -> Schedule:
    """Check every schedule constraint, naming the violated one on failure."""
    if not times or not sizes or len(times) != len(sizes):
        raise InvalidDimensions("times and sizes must be nonempty and of equal length")
    times = tuple(int(t) for t in times)
    sizes = tuple(int(n) for n in sizes)
    if not isinstance(N, int) or not isinstance(T, int) or N < 2 or T < 1:
        raise InvalidDimensions(f"need integer N >= 2 and T >= 1, got N={N}, T={T}")
    if times[0] <= 0 or any(a >= b for a, b in zip(times, times[1:])):
        raise NonMonotoneTimes(f"times must be strictly increasing positive integers, got {times}")
    if times[-1] != T:
        raise LastTimeNotT(f"last observation time {times[-1]} != horizon T={T}")
    if any(n <= 0 for n in sizes) or any(a <= b for a, b in zip(sizes, sizes[1:])):
        raise NonDecreasingSizes(f"sizes must be strictly decreasing positive integers, got {sizes}")
    if sizes[-1] != 1:
        raise LastSizeNotOne(f"last size {sizes[-1]} != 1")
    if sizes[0] >= N:
        raise SizesExceedN(f"first size {sizes[0]} must be < N={N}")
    return Schedule(times=times, sizes=sizes, N=N, T=T)


# ---------------------------------------------------------------------------
# path ensembles
# ---------------------------------------------------------------------------

def _running_sums(increments: Sequence[Number]) -> tuple[Number, ...]:
    # strictly sequential left-to-right accumulation; the order matters for
    # the exactness guarantees of the alignment machinery
    out = [0]
    acc: Number = 0
    for d in increments:
        acc = acc + d
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class PathEnsemble:
    """One realization of N value paths on steps 0..T.

    `increments[i][t]` is the step from time t to t+1; `values[i]` is the
    running sum of row i prefixed with the mandatory 0 start.  The pair is
    kept consistent by construction: build instances through
    `from_increment_rows`.  Equality compares the grids; seed and model tag
    are provenance only.
    """

    values: tuple[tuple[Number, ...], ...]
    increments: tuple[tuple[Number, ...], ...]
    seed: int | None = field(default=None, compare=False)
    model_tag: str = field(default="", compare=False)

    @property
    def n_processes(self) -> int:
        return len(self.values)

    @property
    def horizon(self) -> int:
        return len(self.values[0]) - 1

    @staticmethod
    def from_increment_rows(
        rows: Sequence[Sequence[Number]],
        seed: int | None = None,
        model_tag: str = "",
    ) -> "PathEnsemble":
        if not rows or not rows[0]:
            raise InvalidDimensions("need at least one process and one step")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InvalidDimensions("increment rows must have equal length")
        inc = tuple(tuple(r) for r in rows)
        vals = tuple(_running_sums(r) for r in inc)
        return PathEnsemble(values=vals, increments=inc, seed=seed, model_tag=model_tag)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _substream(seed: int, *path: int) -> np.random.Generator:
    """Independent child stream for a derivation path under one master seed.

    Uses numpy's SeedSequence spawn keys, so streams for distinct paths never
    overlap and the draw for a path does not depend on which other paths get
    sampled or in what order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))


#: replication block size for batched Monte Carlo sampling; fixed so that a
#: replication's draws depend only on (model, N, T, seed), never on worker
#: count or total replication budget
REPLICATION_CHUNK = 4096

#: cap on the values (chunk x N x T) of one sampled chunk: coupling and
#: auditing a float64 chunk peaks at ~57 bytes per value (RSS measured at
#: N x T from 128 to 3,200), ~0.9 GiB at the cap
CHUNK_VALUE_CAP = 2 ** 24

#: cap on the replications of one sweep, 24,415 chunks.  At the cap the
#: plan holds 2.4 MB and the chunk results of a 5-strategy, 3-stage
#: `compare` 58 MB (2.4 KB per chunk), and that `compare` runs for about
#: half an hour at the `monte_carlo` bench rate on 2 cores
REPLICATION_CAP = 10 ** 8


def _draw_categorical(support: Sequence[Number], probs: Sequence[Fraction],
                      shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    thresholds = np.cumsum([float(p) for p in probs])
    idx = np.searchsorted(thresholds, rng.random(shape), side="right")
    return np.array([float(v) for v in support])[np.minimum(idx, len(support) - 1)]


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported below
def _draw_increments(model: Model, shape: tuple[int, ...], T: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Step increments of shape `shape + (T,)` from one stream.

    A drift model draws its persistent drift for `shape` first, then the
    base steps.  Raises `ConfigInvalid` when a path's running sum is not
    finite: huge finite parameters would otherwise overflow the paths to
    inf/NaN, which every comparison-based check reports as a violation.
    """
    if isinstance(model, DriftModel):
        drift = _draw_categorical(model.drift_support, model.drift_probs, shape, rng)
        inc = drift[..., None] + _draw_increments(model.base, shape, T, rng)
    elif isinstance(model, (Discrete, Rademacher)):
        d = model.as_discrete() if isinstance(model, Rademacher) else model
        inc = _draw_categorical(d.support, d.probs, shape + (T,), rng)
    elif isinstance(model, Gaussian):
        inc = model.mean + model.stddev * rng.standard_normal(shape + (T,))
    elif isinstance(model, Uniform):
        inc = rng.uniform(model.lo, model.hi, shape + (T,))
    else:
        raise TypeError(f"cannot sample from {type(model).__name__}")
    # sequential sum: once a running sum is inf or NaN it stays so
    total = inc[..., 0].copy()
    for t in range(1, T):
        total += inc[..., t]
    if not np.isfinite(total).all():
        raise ConfigInvalid(f"{model.tag()}: sampled paths overflow to non-finite values")
    return inc


def sample_ensemble(model: Model, N: int, T: int, seed: int) -> PathEnsemble:
    """Sample one realization: N paths of T steps, all starting at 0.

    Process i's draws come from the child stream (seed, i); for a drift
    model the stream's first draw is the persistent drift, followed by the
    T base steps.  The result is therefore fully determined by
    (model, N, T, seed) and independent of sampling order.
    """
    if not isinstance(N, int) or not isinstance(T, int) or N < 2 or T < 1:
        raise InvalidDimensions(f"need integer N >= 2 and T >= 1, got N={N}, T={T}")
    rows = [_draw_increments(model, (), T, _substream(seed, i)).tolist() for i in range(N)]
    return PathEnsemble.from_increment_rows(rows, seed=seed, model_tag=model.tag())


def sample_chunk(model: Model, N: int, T: int, seed: int, chunk_index: int,
                 chunk: int = REPLICATION_CHUNK) -> np.ndarray:
    """One fixed-size block of replication increments, shape (chunk, N, T).

    Chunk c draws from the child stream (seed, c); within a chunk the drift
    (if any) is drawn first as one (chunk, N) array, then the base steps as
    one (chunk, N, T) array.  The full chunk is always drawn, so replication
    r = chunk_index * chunk + row is a fixed function of (model, N, T, seed)
    regardless of the total budget or which worker handles the chunk; a
    chunk of more than `CHUNK_VALUE_CAP` values raises `ChunkTooLarge`.
    """
    if not isinstance(N, int) or not isinstance(T, int) or N < 2 or T < 1:
        raise InvalidDimensions(f"need integer N >= 2 and T >= 1, got N={N}, T={T}")
    if chunk * N * T > CHUNK_VALUE_CAP:
        raise ChunkTooLarge(chunk * N * T, CHUNK_VALUE_CAP)
    return _draw_increments(model, (chunk, N), T, _substream(seed, chunk_index))


def value_grid(inc: np.ndarray) -> np.ndarray:
    """Value grids of an increment chunk, shape (reps, N, T+1), in the
    chunk's dtype (float64, or objects such as Fractions): the zero start
    column, then running sums.  `np.cumsum` adds strictly left to right, so
    every entry equals the `PathEnsemble` value bit for bit."""
    out = np.zeros(inc.shape[:2] + (inc.shape[2] + 1,), dtype=inc.dtype)
    np.cumsum(inc, axis=2, out=out[:, :, 1:])
    return out


def replication_plan(reps: int, chunk: int = REPLICATION_CHUNK) -> list[tuple[int, int]]:
    """(chunk_index, rows) pairs covering `reps` replications: the first
    `rows` rows of each chunk, in chunk order.  More than
    `REPLICATION_CAP` replications raise `ReplicationsTooLarge` before the
    list is built."""
    if reps > REPLICATION_CAP:
        raise ReplicationsTooLarge(reps, REPLICATION_CAP)
    return [(c, min(chunk, reps - c * chunk)) for c in range(-(-reps // chunk))]


def sample_replications(model: Model, N: int, T: int, reps: int, seed: int,
                        chunk: int = REPLICATION_CHUNK):
    """Yield (start_index, increments) blocks covering `reps` replications."""
    for c, rows in replication_plan(reps, chunk):
        yield c * chunk, sample_chunk(model, N, T, seed, c, chunk=chunk)[:rows]


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def enumerate_paths(
    model: IncrementModel, N: int, T: int, cap: int = ENUMERATION_CAP
) -> list[tuple[PathEnsemble, Fraction]]:
    """Every possible realization of a discrete-step ensemble with its exact
    probability.  Values are Fractions; probabilities sum to exactly 1.
    """
    if isinstance(model, Rademacher):
        model = model.as_discrete()
    if not isinstance(model, Discrete):
        raise TypeError("exact enumeration requires a discrete-step model")
    if not isinstance(N, int) or not isinstance(T, int) or N < 1 or T < 1:
        raise InvalidDimensions(f"need integer N >= 1 and T >= 1, got N={N}, T={T}")
    size = len(model.support)
    count = size ** (N * T)
    if count > cap:
        raise EnumerationTooLarge(count, cap)
    tag = model.tag()
    out = []
    for combo in itertools.product(range(size), repeat=N * T):
        prob = Fraction(1)
        for c in combo:
            prob *= model.probs[c]
        rows = [
            tuple(model.support[c] for c in combo[i * T:(i + 1) * T])
            for i in range(N)
        ]
        out.append((PathEnsemble.from_increment_rows(rows, model_tag=tag), prob))
    return out


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigInvalid(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigInvalid(f"{path}.{key}: missing required key")


def model_from_config(obj: dict, path: str = "model") -> Model:
    """Parse a model document, e.g.
    ``{"kind": "discrete", "support": [1, -1], "probs": ["1/2", "1/2"]}``.
    Rational numbers are written as ``"p/q"`` strings or integers.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigInvalid(f"{path}.kind: missing required key")
    kind = obj["kind"]
    try:
        if kind == "discrete":
            _check_keys(obj, {"kind", "support", "probs"}, {"support", "probs"}, path)
            return discrete(obj["support"], obj["probs"])
        if kind == "gaussian":
            _check_keys(obj, {"kind", "mean", "stddev"}, {"mean", "stddev"}, path)
            return gaussian(obj["mean"], obj["stddev"])
        if kind == "uniform":
            _check_keys(obj, {"kind", "lo", "hi"}, {"lo", "hi"}, path)
            return uniform(obj["lo"], obj["hi"])
        if kind == "rademacher":
            _check_keys(obj, {"kind", "scale"}, {"scale"}, path)
            scale = obj["scale"]
            return rademacher(as_fraction(scale) if isinstance(scale, str) else scale)
        if kind == "drift":
            _check_keys(
                obj,
                {"kind", "base", "drift_support", "drift_probs"},
                {"base", "drift_support", "drift_probs"},
                path,
            )
            base = model_from_config(obj["base"], path=f"{path}.base")
            if isinstance(base, DriftModel):
                raise ConfigInvalid(f"{path}.base: cannot nest drift models")
            return drift_model(base, obj["drift_support"], obj["drift_probs"])
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc
    raise ConfigInvalid(f"{path}.kind: unknown model kind {kind!r}")


def model_to_config(model: Model) -> dict:
    if isinstance(model, Discrete):
        return {
            "kind": "discrete",
            "support": [_format_rational(v) for v in model.support],
            "probs": [_format_rational(p) for p in model.probs],
        }
    if isinstance(model, Gaussian):
        return {"kind": "gaussian", "mean": model.mean, "stddev": model.stddev}
    if isinstance(model, Uniform):
        return {"kind": "uniform", "lo": model.lo, "hi": model.hi}
    if isinstance(model, Rademacher):
        scale = model.scale
        out = scale if isinstance(scale, (int, float)) else _format_rational(as_fraction(scale))
        return {"kind": "rademacher", "scale": out}
    if isinstance(model, DriftModel):
        return {
            "kind": "drift",
            "base": model_to_config(model.base),
            "drift_support": [_format_rational(v) for v in model.drift_support],
            "drift_probs": [_format_rational(p) for p in model.drift_probs],
        }
    raise TypeError(f"not a model: {type(model).__name__}")


def schedule_from_config(obj: dict, path: str = "schedule") -> Schedule:
    _check_keys(obj, {"times", "sizes", "N", "T"}, {"times", "sizes", "N", "T"}, path)
    try:
        return validate_schedule(obj["times"], obj["sizes"], obj["N"], obj["T"])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def schedule_to_config(s: Schedule) -> dict:
    return {"times": list(s.times), "sizes": list(s.sizes), "N": s.N, "T": s.T}
