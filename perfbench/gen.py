"""Seeded inputs for the perfbench workloads.

``bundles`` uses the two scenarios shipped with bmv, unchanged.  ``sweep`` and
``wide`` are families of random formations drawn from the workload seed.  A
formation is kept only if this module's own numpy code finds it bearing rigid
(rigidity-matrix rank d*n - d - 1) and localizable (positive definite L_ff);
otherwise it is drawn again, so the program never sees an invalid input.

Regenerate a workload's inputs with::

    python3 perfbench/gen.py --workload sweep --seed 1 --out sweep_inputs
"""

from __future__ import annotations

import argparse
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

SHIPPED = ("narrow_passage_2d", "narrow_passage_3d")

SWEEP_COUNT = 12
SWEEP_DT = 0.01
SWEEP_DURATION = 3.0
SWEEP_N = (8, 32)
SWEEP_KNN = 4

WIDE_COUNT = 3
WIDE_N = 128
WIDE_DT = 1e-3
WIDE_DURATION = 2.0
WIDE_KNN = 6
WIDE_DECIMATE = 7

# Largest |lambda| * dt allowed, so RK4 stays well inside its accuracy range.
STIFFNESS_LIMIT = 0.25


@dataclass(frozen=True)
class Input:
    """One scenario file and the flags the benchmark passes with it."""

    name: str
    path: Path
    decimate: int = 1


def _knn_edges(points: np.ndarray, k: int) -> list[tuple[int, int]]:
    diff = points[:, None, :] - points[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(dist, np.inf)
    near = np.argsort(dist, axis=1)[:, :k]
    return sorted({(min(i, int(j)), max(i, int(j))) for i in range(len(points)) for j in near[i]})


def _formation(rng: np.random.Generator, n: int, d: int, n_leaders: int, k: int):
    """Points at unit density and their k-nearest-neighbour graph, resampled
    until rigid and localizable by this module's own checks."""
    half = 0.5 * n ** (1.0 / d) * 1.5
    while True:
        pts = rng.uniform(-half, half, size=(n, d))
        gaps = np.linalg.norm(pts[:, None] - pts[None], axis=-1) + np.eye(n) * 1e9
        if gaps.min() < 0.35:
            continue
        edges = _knn_edges(pts, k)
        if oracle.rigidity_rank(pts, edges) != d * n - d - 1:
            continue
        L = oracle.laplacian(pts, edges)
        ok, eigs = oracle.is_localizable(L[d * n_leaders:, d * n_leaders:])
        if ok and eigs[0] > 1e-3 * eigs[-1]:
            return pts, edges, eigs


def _gains(rng: np.random.Generator, sigma: np.ndarray, dt: float) -> tuple[float, float]:
    kp = float(rng.uniform(1.0, 4.0))
    ki = float(rng.uniform(0.5, 2.0)) * kp
    while np.abs(oracle.closed_loop_roots(sigma, kp, ki)).max() * dt > STIFFNESS_LIMIT:
        kp, ki = kp / 2.0, ki / 2.0
    return round(kp, 6), round(ki, 6)


def _document(rng, pts, edges, n_leaders, gains, schedule, dt, duration, seed) -> dict:
    n, d = pts.shape
    labels = [f"l{k}" for k in range(n_leaders)] + [f"f{k}" for k in range(n - n_leaders)]
    order = rng.permutation(n)  # file order mixes roles; the program sorts leaders first
    return {
        "dimension": d,
        "agents": [
            {"id": labels[i], "role": "leader" if i < n_leaders else "follower"}
            for i in order
        ],
        "reference_positions": {labels[i]: [float(x) for x in pts[i]] for i in range(n)},
        "edges": [[labels[i], labels[j]] for i, j in edges],
        "gains": {"kp": gains[0], "ki": gains[1]},
        "schedule": schedule,
        "duration": duration,
        "dt": dt,
        "seed": seed,
    }


def _velocity(rng, d: int, speed: float) -> list[float]:
    v = rng.standard_normal(d)
    return [round(float(x), 6) for x in speed * v / np.linalg.norm(v)]


def sweep_documents(seed: int) -> list[dict]:
    """A dozen formations with n spread evenly over [8, 32] and d alternating
    2 and 3: one translation segment then one scaling segment, 300 steps at
    dt = 0.01.  The sizes are fixed so that the workload's cost hardly
    depends on the seed; geometry, graph, leaders, gains and commands do."""
    rng = np.random.default_rng([seed, 1])
    docs = []
    for k, n in enumerate(np.linspace(SWEEP_N[0], SWEEP_N[1], SWEEP_COUNT).round().astype(int)):
        d = 2 + k % 2
        n_leaders = int(rng.integers(2, 4))
        pts, edges, eigs = _formation(rng, int(n), d, n_leaders, SWEEP_KNN)
        gains = _gains(rng, eigs, SWEEP_DT)
        t1 = round(float(rng.uniform(1.0, 2.0)), 2)
        rate = round(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.15)), 4)
        schedule = [
            {"t0": 0.0, "t1": t1, "vc": _velocity(rng, d, 0.4), "scale_rate": 0.0},
            {"t0": t1, "t1": SWEEP_DURATION, "vc": [0.0] * d, "scale_rate": rate},
        ]
        docs.append(_document(rng, pts, edges, n_leaders, gains, schedule,
                              SWEEP_DT, SWEEP_DURATION, int(rng.integers(0, 2**31))))
    return docs


def wide_documents(seed: int) -> list[dict]:
    """A few n = 128, d = 3 formations on 6-nearest-neighbour graphs (about 460
    edges), 2,000 steps: a translation segment then a scaling segment."""
    rng = np.random.default_rng([seed, 2])
    docs = []
    for _ in range(WIDE_COUNT):
        n_leaders = int(rng.integers(2, 4))
        pts, edges, eigs = _formation(rng, WIDE_N, 3, n_leaders, WIDE_KNN)
        gains = _gains(rng, eigs, WIDE_DT)
        t1 = round(float(rng.uniform(0.6, 1.4)), 3)
        rate = round(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.15)), 4)
        schedule = [
            {"t0": 0.0, "t1": t1, "vc": _velocity(rng, 3, 0.6), "scale_rate": 0.0},
            {"t0": t1, "t1": WIDE_DURATION, "vc": _velocity(rng, 3, 0.2), "scale_rate": rate},
        ]
        docs.append(_document(rng, pts, edges, n_leaders, gains, schedule,
                              WIDE_DT, WIDE_DURATION, int(rng.integers(0, 2**31))))
    return docs


def generate(workload: str, seed: int, out: Path, root: Path) -> list[Input]:
    """Write the workload's scenario files under ``out`` and list them in run order."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if workload == "bundles":
        inputs = []
        for name in SHIPPED:
            dest = out / f"{name}.json"
            shutil.copyfile(root / "src" / "bmv" / "scenarios" / f"{name}.json", dest)
            inputs.append(Input(name, dest))
        return inputs
    if workload == "sweep":
        docs, decimate = sweep_documents(seed), 1
    elif workload == "wide":
        docs, decimate = wide_documents(seed), WIDE_DECIMATE
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = []
    for k, doc in enumerate(docs):
        name = f"{workload}_{k:02d}"
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        inputs.append(Input(name, path, decimate))
    return inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bundles", "sweep", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--root", default=".", help="checkout holding src/bmv")
    args = parser.parse_args()
    for item in generate(args.workload, args.seed, Path(args.out), Path(args.root)):
        print(item.path, f"--decimate {item.decimate}")


if __name__ == "__main__":
    main()
