"""The package's public surface."""

import bmv

PUBLIC_NAMES = [
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
    "ManeuverCommand",
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

# What the benchmark's layer probe imports from the package.
PROBE_NAMES = [
    "BearingSpec", "assemble", "bearing_function", "bearing_laplacian",
    "check_localizable", "combined_command", "effective_closed_loop_matrix",
    "rigidity_report", "run", "step", "target_follower_positions", "verify_hurwitz",
]


def test_public_names_are_pinned_and_importable():
    assert bmv.__all__ == PUBLIC_NAMES
    assert set(PROBE_NAMES) <= set(PUBLIC_NAMES)
    namespace = {}
    exec("from bmv import *", namespace)  # fails on a listed name that is missing
    assert set(PUBLIC_NAMES) <= set(namespace)
