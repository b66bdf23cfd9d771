"""Exception types shared across the package.

Every error that a caller is expected to handle has its own class, so the
CLI can map failures to stable exit codes and tests can assert on the exact
violated constraint.
"""

from __future__ import annotations


class StagedSelectError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(StagedSelectError):
    """A configuration document is malformed (unknown key, missing field,
    bad value). The message always names the offending field path."""


# --- schedule validation -------------------------------------------------

class ScheduleInvalid(StagedSelectError):
    """Base for schedule constraint violations."""


class NonMonotoneTimes(ScheduleInvalid):
    """Observation times are not strictly increasing positive integers."""


class NonDecreasingSizes(ScheduleInvalid):
    """Survivor sizes are not strictly decreasing."""


class LastSizeNotOne(ScheduleInvalid):
    """The final survivor size must be exactly 1."""


class LastTimeNotT(ScheduleInvalid):
    """The final observation time must equal the horizon T."""


class SizesExceedN(ScheduleInvalid):
    """The first survivor size must be strictly smaller than N."""


# --- model / ensemble ----------------------------------------------------

class InvalidDimensions(StagedSelectError):
    """Ensemble dimensions are out of range or inconsistent."""


class DimensionMismatch(StagedSelectError):
    """An ensemble or increment block does not match the schedule's shape."""


class CapExceeded(StagedSelectError):
    """Base for a run that would exceed a cap on its work or memory; the
    CLI exits 3.  A subclass's `message` names what `count` counts."""

    def __init__(self, count: int, cap: int):
        super().__init__(self.message.format(count=count, cap=cap))
        self.count = count
        self.cap = cap


class EnumerationTooLarge(CapExceeded):
    """Exact path enumeration would exceed the configured cap."""

    message = "enumeration needs {count} states, exceeding the cap of {cap}"


class ChunkTooLarge(CapExceeded):
    """A sampled replication chunk would hold more values than the cap."""

    message = "a sampled chunk needs {count} values (chunk x N x T), exceeding the cap of {cap}"


class ReplicationsTooLarge(CapExceeded):
    """A Monte Carlo sweep would run more replications than the cap."""

    message = "the sweep needs {count} replications, exceeding the cap of {cap}"


class TraceTooLarge(CapExceeded):
    """`simulate`'s trace rows would hold more values than the cap."""

    message = "the traces need {count} values (reps x N x (T+1)), exceeding the cap of {cap}"


class IndependenceViolated(StagedSelectError):
    """An exact oracle was given a model that does not have independent
    increments (e.g. a persistent-drift model)."""


# --- selection -----------------------------------------------------------

class StageOutOfOrder(StagedSelectError):
    """Temporal index assignment was requested for a stage that does not
    follow the recorded stages."""


class StrategyViolation(StagedSelectError):
    """A strategy returned an illegal selection (wrong size, non-survivor,
    or duplicates). Aborts the run."""


class NonDeterministicStrategy(StagedSelectError):
    """Alignment requires a deterministic strategy (fixed auxiliary seed)."""


class ValueHidden(StagedSelectError):
    """A strategy attempted to read a value outside its history view
    (an eliminated process past its elimination time, or the future)."""


# --- oracle / experiments ------------------------------------------------

class SearchTooLarge(CapExceeded):
    """The strategy search tree would exceed the configured cap."""

    message = "strategy search needs about {count} tree nodes, exceeding the cap of {cap}"


class InvalidReps(StagedSelectError):
    """Monte Carlo replication count is too small."""


class PreconditionViolated(StagedSelectError):
    """An operation's documented precondition does not hold for the inputs."""
