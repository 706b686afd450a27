"""Exception types shared across the package."""


class DegenerateVector(ValueError):
    """A vector that must be nonzero is numerically zero (e.g. collocated ``agents``)."""

    def __init__(self, message: str, agents: tuple[int, int] | None = None) -> None:
        super().__init__(message)
        self.agents = agents


class DimensionMismatch(ValueError):
    """Inputs disagree on agent count, ambient dimension, or stacking length."""


class UnknownNeighbor(ValueError):
    """Relative-position data does not match the agent's neighbor set."""


class NotRigid(RuntimeError):
    """The target formation is not infinitesimally bearing rigid."""


class NotLocalizable(RuntimeError):
    """Follower positions are not uniquely pinned down by the leaders and bearings."""


class ScheduleGap(ValueError):
    """The leader velocity schedule does not cover the simulation horizon."""


class WindowTooShort(ValueError):
    """Too few samples to fit a decay rate."""


class ParseError(ValueError):
    """A scenario file is malformed; the message carries field diagnostics."""
