"""Correctness checks on what the bmv CLI prints and writes.

Each check compares against a computation made here from the scenario
document (see ``oracle``) or against a property the method must have; none
compares against a stored copy of earlier output.  A failed check raises
``CheckFailed`` with the file and the reason.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import oracle
from oracle import Formation

AXES = "xyz"

# The CSV holds shortest round-trip floats, so recomputed columns agree to
# rounding; these bounds leave room only for summation order.
COLUMN_TOL = 1e-12
LEADER_AFFINE_TOL = 1e-9
# `bmv check` prints lambda_min_ff with seven significant digits.
PRINTED_REL_TOL = 1e-6
# Relative residual of an eigenvalue in its quadratic; the non-symmetric
# eigensolver loses up to sqrt(eps) on near-defective pairs.
QUADRATIC_TOL = 1e-6
# The bundles must settle below this bearing error at every segment end and
# track the piecewise-linear scale ramp this closely.
SEGMENT_BEARING_CEILING = 5e-3
RAMP_REL_TOL = 0.02
# Round-off floor added to the RK4 truncation error, relative to |state|.
FLOW_FLOOR = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(ok, where, message: str) -> None:
    if not ok:
        raise CheckFailed(f"{where}: {message}")


def check_output(text: str, f: Formation, where: str) -> None:
    """`bmv check`: rank d*n - d - 1, and lambda_min_ff equal to our own eigvalsh(L_ff)."""
    fields = dict(re.findall(r"^(\w+)\s*=\s*(\S+)\s*$", text, re.M))
    required = f.d * f.n - f.d - 1
    _require(fields.get("rank") == str(required), where, f"rank {fields.get('rank')} != {required}")
    _require(fields.get("required_rank") == str(required), where, "wrong required_rank")
    lam = np.linalg.eigvalsh(oracle.follower_blocks(f)[0])[0]
    printed = float(fields.get("lambda_min_ff", "nan"))
    _require(abs(printed - lam) <= PRINTED_REL_TOL * abs(lam), where,
             f"lambda_min_ff {printed!r} but eigvalsh(L_ff) gives {lam!r}")
    _require("verdict: RIGID, LOCALIZABLE" in text, where, "verdict is not RIGID, LOCALIZABLE")


def spectrum_output(doc: dict, f: Formation, where: str) -> None:
    """`bmv spectrum`: 2*d*n_f eigenvalues, each a root of
    lambda^2 + kp*sigma*lambda + ki*sigma = 0 for a sigma of L_ff, and the
    convergence horizon 12/|max real part|."""
    eigs = np.array([complex(re_, im) for re_, im in doc["eigenvalues"]])
    sigma = np.linalg.eigvalsh(oracle.follower_blocks(f)[0])
    _require(eigs.size == 2 * sigma.size, where,
             f"{eigs.size} eigenvalues, expected {2 * sigma.size}")
    lam = eigs[:, None]
    residual = np.abs(lam * lam + f.kp * sigma * lam + f.ki * sigma)
    size = np.abs(lam) ** 2 + f.kp * sigma * np.abs(lam) + f.ki * sigma
    worst = float((residual / size).min(axis=1).max())
    _require(worst <= QUADRATIC_TOL, where, f"an eigenvalue solves no quadratic (residual {worst:.2e})")
    trace = -f.kp * sigma.sum()
    _require(abs(eigs.sum().real - trace) <= 1e-9 * np.abs(eigs).sum(), where,
             f"eigenvalues sum to {eigs.sum().real!r}, trace is {trace!r}")
    max_real = float(eigs.real.max())
    _require(doc["max_real_part"] == max_real, where, "max_real_part is not the largest real part")
    _require(doc["is_hurwitz"] is True and max_real < 0, where, "closed loop is not Hurwitz")
    horizon = 12.0 / abs(max_real)
    _require(abs(doc["convergence_horizon"] - horizon) <= 1e-12 * horizon, where,
             f"convergence_horizon {doc['convergence_horizon']!r} != 12/|max real| = {horizon!r}")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    _require(data.ndim == 2 and data.shape[1] == len(header), path, "ragged or empty CSV")
    return header, data


def bundle(outdir: Path, f: Formation, decimate: int, settle: bool) -> None:
    """A result bundle written by `bmv run --dump-xi` (or by `bmv batch`,
    which writes no xi.csv).  ``settle`` adds the narrow-passage criteria."""
    where = outdir / "trajectory.csv"
    header, data = _read_csv(where)
    axes = AXES[:f.d]
    positions = [f"{label}_{a}" for label in f.labels for a in axes]
    expected = (["t"] + positions + ["bearing_error", "tracking_error"]
                + [f"centroid_{a}" for a in axes] + ["scale"])
    _require(header == expected, where, "unexpected columns")
    col = {name: k for k, name in enumerate(header)}
    times = data[:, 0]
    P = data[:, 1:1 + len(positions)].reshape(-1, f.n, f.d)

    _require(np.all(np.diff(times) > 0), where, "times are not strictly increasing")
    grid = oracle.time_grid(f)
    kept = grid[::decimate]
    if kept[-1] != grid[-1] and times.size == kept.size + 1:
        kept = np.append(kept, grid[-1])  # the final sample may or may not be written
    _require(times.size == kept.size and np.allclose(times, kept, rtol=0, atol=1e-9),
             where, f"{times.size} rows do not match the {grid.size}-sample grid decimated by {decimate}")

    summary = json.loads((outdir / "summary.json").read_text())
    _require(summary["integration"]["samples"] == grid.size, outdir / "summary.json",
             f"samples {summary['integration']['samples']} != {grid.size}")

    centroid = data[:, [col[f"centroid_{a}"] for a in axes]]
    scale = data[:, col["scale"]]
    size = 1.0 + np.abs(P).max()
    _require(np.abs(centroid - P.mean(axis=1)).max() <= COLUMN_TOL * size, where,
             "centroid columns are not the mean of the positions")
    _require(np.abs(scale - oracle.rms_scale(P)).max() <= COLUMN_TOL * size, where,
             "scale column is not the RMS radius of the positions")
    bearing = oracle.bearing_error(P, f)
    _require(np.abs(data[:, col["bearing_error"]] - bearing).max() <= 1e-9, where,
             "bearing_error column does not match the positions")

    leaders = P[:, :f.n_leaders].reshape(times.size, -1)
    for t0, t1, _, _ in f.schedule:
        rows = np.nonzero((times >= t0 - 1e-9) & (times <= t1 + 1e-9))[0]
        if rows.size < 2:
            continue
        dt = times[rows] - times[rows[0]]
        slope = (leaders[rows[-1]] - leaders[rows[0]]) / dt[-1]
        fit = leaders[rows[0]] + dt[:, None] * slope
        _require(np.abs(leaders[rows] - fit).max() <= LEADER_AFFINE_TOL * size, where,
                 f"leader columns are not affine in time on [{t0}, {t1}]")

    xi_path = outdir / "xi.csv"
    if xi_path.exists():
        _, xi = _read_csv(xi_path)
        _require(np.array_equal(xi[:, 0], times), xi_path, "times differ from trajectory.csv")
        _require(not np.any(xi[0, 1:]), xi_path, "integral state does not start at zero")
        _exact_flow(f, times, P, xi[:, 1:], xi_path)

    if settle:
        _settles(f, times, bearing, scale, where)


def _exact_flow(f: Formation, times, P, XI, where) -> None:
    """Final follower positions and xi against the exact flow of the linear
    closed loop, segment by segment, with the leader paths read from the CSV.
    The allowed gap is twice the RK4 error at this dt, computed here by
    stepping the same linear system with the RK4 step matrix."""
    L_ff, L_fl = oracle.follower_blocks(f)
    s, nf = f.d * f.n_leaders, L_ff.shape[0]
    leaders = P.reshape(times.size, -1)[:, :s]
    followers = P.reshape(times.size, -1)[:, s:]
    w = np.concatenate([followers[0], XI[0], leaders[0], [1.0]])
    w_rk4 = w.copy()
    t_end = times[-1]
    for t0, t1, _, _ in f.schedule:
        t0, t1 = max(t0, 0.0), min(t1, f.duration, t_end)
        if t1 <= t0 + oracle.TIME_TOL:
            continue
        rows = np.nonzero((times >= t0 - 1e-9) & (times <= t1 + 1e-9))[0]
        v_l = (leaders[rows[-1]] - leaders[rows[0]]) / (times[rows[-1]] - times[rows[0]])
        M = oracle.augmented_matrix(L_ff, L_fl, f.kp, f.ki, v_l)
        w = expm(M * (t1 - t0)) @ w
        full = int(np.floor((t1 - t0) / f.dt + oracle.TIME_TOL))
        step = oracle.rk4_step_matrix(M, f.dt)
        for _ in range(full):
            w_rk4 = step @ w_rk4
        rest = (t1 - t0) - full * f.dt
        if rest > oracle.TIME_TOL:
            w_rk4 = oracle.rk4_step_matrix(M, rest) @ w_rk4
    got = np.concatenate([followers[-1], XI[-1]])
    gap = float(np.linalg.norm(got - w[:2 * nf]))
    rk4_error = float(np.linalg.norm(w_rk4[:2 * nf] - w[:2 * nf]))
    allowed = 2.0 * rk4_error + FLOW_FLOOR * (1.0 + np.linalg.norm(w))
    _require(gap <= allowed, where,
             f"final state is {gap:.3e} from the exact flow; RK4 error is {rk4_error:.3e}")


def _settles(f: Formation, times, bearing, scale, where) -> None:
    """Bearing error below the ceiling at every segment end, and scale within
    2% of the piecewise-linear ramp s' = rate * s(segment start)."""
    predicted = np.empty_like(times)
    s_entry = float(oracle.rms_scale(f.reference))
    for t0, t1, _, rate in f.schedule:
        t1 = min(t1, f.duration)
        end = np.nonzero(np.abs(times - t1) <= 1e-9)[0]
        _require(end.size == 1, where, f"no sample at the segment end t = {t1}")
        _require(bearing[end[0]] < SEGMENT_BEARING_CEILING, where,
                 f"bearing error {bearing[end[0]]:.2e} at t = {t1}")
        span = (times >= t0 - 1e-9) & (times <= t1 + 1e-9)
        predicted[span] = s_entry * (1.0 + rate * (times[span] - t0))
        s_entry *= 1.0 + rate * (t1 - t0)
    worst = float(np.max(np.abs(scale - predicted) / predicted))
    _require(worst <= RAMP_REL_TOL, where, f"scale leaves the predicted ramp by {worst:.2%}")


def same_bytes(a: Path, b: Path) -> None:
    _require(a.read_bytes() == b.read_bytes(), a, f"differs from {b}")
