"""Bearing-constrained formation maneuvering.

Agents hold a formation defined purely by inter-agent bearing directions.
Leaders move; followers run a distributed PI law that keeps every desired
bearing satisfied, which lets the group translate and rescale as one body.
The package provides the rigidity and localizability analysis that says when
this works, the control law itself, maneuver planning for the leaders, and a
deterministic simulator with a JSON scenario front end.
"""

from .controller import (
    ClosedLoop,
    Gains,
    HurwitzReport,
    closed_loop_spectrum,
    effective_closed_loop_matrix,
    follower_velocity,
    verify_hurwitz,
)
from .errors import (
    DegenerateVector,
    DimensionMismatch,
    NotLocalizable,
    NotRigid,
    ParseError,
    ScheduleGap,
    UnknownNeighbor,
    WindowTooShort,
)
from .formation import (
    BearingSpec,
    Configuration,
    FormationGraph,
    bearing_function,
    combined_command,
    desired_bearing,
    scale,
)
from .laplacian import (
    BearingLaplacian,
    LocalizabilityResult,
    bearing_laplacian,
    check_localizable,
    target_follower_positions,
)
from .rigidity import (
    RigidityReport,
    bearing_rigidity_matrix,
    rigidity_report,
)
from .sim import (
    ExponentialFit,
    Scenario,
    Segment,
    SimContext,
    Trajectory,
    assemble,
    exponential_fit,
    run,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BearingLaplacian",
    "BearingSpec",
    "ClosedLoop",
    "Configuration",
    "DegenerateVector",
    "DimensionMismatch",
    "ExponentialFit",
    "FormationGraph",
    "Gains",
    "HurwitzReport",
    "LocalizabilityResult",
    "NotLocalizable",
    "NotRigid",
    "ParseError",
    "RigidityReport",
    "Scenario",
    "ScheduleGap",
    "Segment",
    "SimContext",
    "Trajectory",
    "UnknownNeighbor",
    "WindowTooShort",
    "assemble",
    "bearing_function",
    "bearing_laplacian",
    "bearing_rigidity_matrix",
    "check_localizable",
    "closed_loop_spectrum",
    "combined_command",
    "desired_bearing",
    "effective_closed_loop_matrix",
    "exponential_fit",
    "follower_velocity",
    "rigidity_report",
    "run",
    "scale",
    "step",
    "target_follower_positions",
    "verify_hurwitz",
]
