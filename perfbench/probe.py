"""Layer probe: one scenario through bmv's public functions, in process.

    python3 perfbench/probe.py SCENARIO.json NAME DECIMATE OUTDIR

with ``src`` on PYTHONPATH.  Every call into bmv gets one span; nothing is
traced inside bmv itself.  Prints one JSON object with the spans, the step
count, the CSV size and the growth of the process's peak RSS during ``run``.
The probe is a fresh process per scenario so that the peak-RSS reading
belongs to that scenario's run alone.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

from spans import Tracer

# Calls per micro-timed function (step, follower solve, bearing map).
REPEATS = 200


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    path, name, decimate, outdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    from bmv import (
        BearingSpec, assemble, bearing_function, bearing_laplacian, check_localizable,
        combined_command, effective_closed_loop_matrix, rigidity_report, run, step,
        target_follower_positions, verify_hurwitz,
    )
    from bmv.cli import build_summary, load_scenario, write_trajectory_csv

    tr = Tracer()
    with tr.span("probe.scenario", name):
        with tr.span("cli.parse", name):
            loaded = load_scenario(path)
        sc = loaded.scenario
        with tr.span("rigidity.report", name):
            rigidity_report(sc.graph, sc.reference_config)
        with tr.span("formation.spec", name):
            spec = BearingSpec.from_configuration(sc.graph, sc.reference_config)
        with tr.span("laplacian.build", name):
            lap = bearing_laplacian(sc.graph, spec)
        with tr.span("laplacian.localizable", name):
            check_localizable(lap)  # fresh object: its cached result is not yet set
        with tr.span("sim.assemble", name):
            ctx = assemble(sc)
        with tr.span("controller.spectrum", name):
            verify_hurwitz(effective_closed_loop_matrix(ctx.laplacian.L_ff, sc.gains))
        last = sc.schedule[-1]
        with tr.span("maneuver.command", name):
            combined_command(last.v_c, ctx.segments[-1].target_start, sc.graph.n_leaders,
                             last.scale_rate)
        rss_before = _rss_mb()
        with tr.span("sim.run", name):
            traj = run(ctx)
        rss_growth = _peak_rss_mb() - rss_before
        with tr.span("cli.summary", name):
            build_summary(ctx, traj)
        outdir.mkdir(parents=True, exist_ok=True)
        csv = outdir / "trajectory.csv"
        with tr.span("cli.csv", name):
            write_trajectory_csv(csv, traj, loaded.labels, decimate)

        k = traj.times.size // 2
        state, t = (traj.positions[k], traj.xi[k]), float(traj.times[k])
        leaders = traj.positions[k][: sc.graph.d * sc.graph.n_leaders]
        config = traj.configuration(k)
        with tr.span("probe.repeats", name):
            for _ in range(REPEATS):
                with tr.span("sim.step", name):
                    step(ctx, state, t, sc.dt)
            for _ in range(REPEATS):
                with tr.span("laplacian.follower_solve", name):
                    target_follower_positions(ctx.laplacian, leaders)
            for _ in range(REPEATS):
                with tr.span("formation.bearings", name):
                    bearing_function(sc.graph, config)

    print(json.dumps({
        "spans": tr.spans,
        "steps": int(traj.times.size - 1),
        "csv_bytes": csv.stat().st_size,
        "run_rss_growth_mb": rss_growth,
    }))


if __name__ == "__main__":
    main()
