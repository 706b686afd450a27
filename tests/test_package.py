"""The package's public surface."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

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

# Public names that only tests and the layer probe call: no module of the
# package calls one, so each can be deleted once nothing outside calls it.
# ``configuration`` is Trajectory.configuration.
LEAVES = {"bearing_function", "bearing_laplacian", "check_localizable",
          "target_follower_positions", "step", "effective_closed_loop_matrix",
          "verify_hurwitz", "configuration"}


def test_public_names_are_pinned_and_importable():
    assert bmv.__all__ == PUBLIC_NAMES
    assert set(PROBE_NAMES) <= set(PUBLIC_NAMES)
    namespace = {}
    exec("from bmv import *", namespace)  # fails on a listed name that is missing
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_no_class_is_a_dataclass():
    # generating a dataclass's methods at import costs every bmv process
    import bmv.cli

    objects = [getattr(bmv, name) for name in bmv.__all__]
    classes = [obj for obj in objects + [bmv.cli.LoadedScenario, bmv.sim.ResolvedSegment]
               if isinstance(obj, type)]
    assert len(classes) == 24
    assert not [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)]


def test_no_module_calls_a_leaf_or_imports_a_private_name():
    found = []
    for path in sorted(Path(bmv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in LEAVES:
                    found.append(f"{path.name}:{node.lineno} calls {name}")
            elif isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_names_numpy_random():
    # importing numpy.random costs a run about 13 ms; sim._uniform draws its stream
    found = []
    for path in sorted(Path(bmv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} names {name}" for name in names
                      if name in ("np.random", "numpy.random") or name.startswith("numpy.random.")]
    assert found == []


def test_csvtext_imports_no_other_bmv_module():
    # the CSV writer writes the rows it is given, so it needs nothing of bmv's
    tree = ast.parse((Path(bmv.__file__).parent / "csvtext.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"csvtext.py:{node.lineno} imports {name}" for name in names
                  if name.startswith(".") or name.split(".")[0] == "bmv"]
    assert found == []


def test_benchmark_probe_runs_on_the_2d_bundle(tmp_path):
    # The probe also calls run(ctx), build_summary(ctx, traj),
    # write_trajectory_csv(path, traj, labels, decimate) with a positional
    # decimate, Trajectory.configuration and step.  That decimate serves only
    # the layer probe and the tests: the commands decimate in run.
    checkout = Path(bmv.__file__).resolve().parents[2]
    scenario = checkout / "src" / "bmv" / "scenarios" / "narrow_passage_2d.json"
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "probe.py"), str(scenario), "np2d", "7",
         str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(checkout / "src")}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["steps"] == 24000
    assert report["spans"]
