"""perfbench: the bmv CLI end to end, and bmv's layers one by one.

    python3 perfbench/run.py --workload bundles|sweep|wide --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/bmv``; the program is
used from that source tree, never from an installed copy.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Scratch files go to ``perfbench/_work/``.
See perfbench/README.md for the workloads, the metrics and the method.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every process it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from math import isfinite, nan
from pathlib import Path

import numpy as np

import checks
import gen
import oracle
from spans import Tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bundles", "sweep", "wide")
BATCH_WORKERS = 2
# Calls per input and round of `check` and `spectrum`, and batch calls per
# round; a metric takes the median over an input's calls.  Short calls are
# repeated where a workload has few of them: two inputs on `bundles`, one
# batch of about a second on `sweep`.
CALLS = {
    "bundles": {"check": 3, "spectrum": 3, "batch": 1},
    "sweep": {"check": 1, "spectrum": 1, "batch": 5},
    "wide": {"check": 1, "spectrum": 1, "batch": 1},
}
# A CLI call still running after this long is killed and counted as failed.
OP_TIMEOUT_S = 120.0

# Every CLI call is started through this stand-in for the installed `bmv`
# console script.  It behaves the same, but first tells the benchmark on
# stderr when `import bmv.cli` is done, which gives setup_s for every call.
IMPORT_MARK = "perfbench-import-done"
ENTRY = (
    "import sys, time\n"
    "from bmv.cli import script_main\n"
    f"sys.stderr.write('{IMPORT_MARK} %r\\n' % time.perf_counter())\n"
    "sys.argv[0] = 'bmv'\n"
    "script_main()\n"
)

# The host's speed moves between a fast and a slow state, about 2x apart,
# in plateaus of one to several seconds, and each CPU does so on its own
# (see README.md).  So while a CLI call runs, a sampler thread on each of the
# call's CPUs times a short reference burst that bmv never runs (small numpy
# mat-vecs in an interpreter loop, like the program's integration loop)
# every SAMPLE_PERIOD_S.  A call's scaled time is its wall time less the
# bursts, times its speed: the mean over the bursts timed during it of
# BURST_NOMINAL_S / burst, to the power SPEED_EXPONENT.  The program's times
# move less than the burst's between the two states: as its 0.7th power for
# process start and up to its 1.0th for the integration loop, fitted over 18
# runs of the three workloads; 0.8 is the compromise.  A scaled time reads as
# seconds at the host's fast state, where a burst takes BURST_NOMINAL_S.
BURST_MATVECS = 300
BURST_NOMINAL_S = 0.4e-3
SAMPLE_PERIOD_S = 0.05
SPEED_EXPONENT = 0.8

IMPORT_PROBES = 3  # fresh interpreters per import timing in the traced run
MODULE_LAYERS = ("cli", "sim", "rigidity", "laplacian", "controller", "maneuver",
                 "formation", "import")

_BURST_A = np.random.default_rng(0).standard_normal((12, 12))
_BURST_X = np.random.default_rng(1).standard_normal(12)


class Sampler(threading.Thread):
    """Times a reference burst on one CPU every SAMPLE_PERIOD_S until stopped."""

    def __init__(self, cpu: int):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.done = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        a, x = _BURST_A, _BURST_X
        while not self.done.wait(SAMPLE_PERIOD_S):
            start = time.perf_counter()
            for _ in range(BURST_MATVECS):
                a @ x
            self.samples.append((start, time.perf_counter() - start))

    def during(self, start: float, end: float) -> tuple[float, list[float]]:
        """(seconds the bursts took, bursts) among those started in [start, end];
        all of them if none did."""
        inside = [d for s, d in self.samples if start <= s <= end]
        return sum(inside), inside or [d for _, d in self.samples]


def _speed(samplers: list[Sampler], start: float, end: float) -> tuple[float, float]:
    """(seconds the samplers took from each CPU, speed relative to the fast
    state) over [start, end]."""
    busy, speeds = [], []
    for sampler in samplers:
        taken, bursts = sampler.during(start, end)
        busy.append(taken)
        speeds.append(statistics.fmean(BURST_NOMINAL_S / d for d in bursts) if bursts else nan)
    return statistics.fmean(busy), statistics.fmean(speeds) ** SPEED_EXPONENT


def _scaled(samplers: list[Sampler], start: float, end: float) -> float:
    """Wall time of [start, end] less the bursts, at the host's fast state."""
    busy, speed = _speed(samplers, start, end)
    return (end - start - busy) * speed


@dataclass
class Op:
    """One timed CLI call: raw wall times and their scaled counterparts."""

    kind: str
    name: str
    wall: float
    setup: float
    scaled_wall: float
    scaled_setup: float
    rss_mb: float
    ok: bool
    stdout: str
    bursts: list[list[float]]  # per CPU: the reference bursts timed during the call


class Bench:
    """Starts CLI calls one at a time.

    A single-process call runs pinned to one CPU and a batch on two, each
    with a sampler on every CPU it uses.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        # A clean Python environment for the program: its own source tree,
        # bytecode caching on (the warm-up fills the cache), one BLAS thread.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(root / "src")
        allowed = sorted(os.sched_getaffinity(0))
        self.solo = {allowed[0]}
        self.pair = set(allowed[:BATCH_WORKERS])
        self.bursts: list[float] = []
        self.tracer: Tracer | None = None
        self.calls = 0
        (work / "logs").mkdir(parents=True, exist_ok=True)

    def python(self, args: list[str], log: Path, cpus: set[int] | None = None):
        """Run one Python process to its end on ``cpus`` (default: one CPU),
        with a sampler on each: (start, end, exit code, rusage, samplers)."""
        cpus = cpus or self.solo
        samplers = [Sampler(cpu) for cpu in sorted(cpus)]
        for sampler in samplers:
            sampler.start()
        os.sched_setaffinity(0, cpus)  # the child inherits it
        try:
            with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err:
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                        stdout=out, stderr=err)
                timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                end = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            for sampler in samplers:
                sampler.done.set()
                sampler.join()
        for sampler in samplers:
            self.bursts.extend(d for _, d in sampler.samples)
        return start, end, proc.returncode, usage, samplers

    def cli(self, kind: str, name: str, args: list[str]) -> Op:
        cpus = self.pair if kind == "batch" else self.solo
        self.calls += 1
        log = self.work / "logs" / f"{self.calls:04d}-{kind}-{name}"
        start, end, code, usage, samplers = self.python(["-c", ENTRY, kind, *args], log, cpus)
        stderr = Path(f"{log}.err").read_text()
        marks = [line.split()[1] for line in stderr.splitlines() if line.startswith(IMPORT_MARK)]
        ready = float(marks[0]) if marks else nan
        op = Op(kind, name, end - start, ready - start, _scaled(samplers, start, end),
                _scaled(samplers, start, ready) if marks else nan,
                usage.ru_maxrss / 1024, code == 0 and bool(marks), Path(f"{log}.out").read_text(),
                [sampler.during(start, end)[1] for sampler in samplers])
        if not op.ok:
            print(f"perfbench: bmv {kind} {name} exited {code}: {stderr[-400:]}", file=sys.stderr)
        if self.tracer is not None:
            index = self.tracer.add(f"bmv.{kind}", start, end, scenario=name)
            if marks:
                self.tracer.add("bmv.import", start, ready, parent=index, scenario=name)
        return op

    def round(self, inputs: list[gen.Input], outdir: Path, calls: dict[str, int]) -> list[Op]:
        """Every CLI command over every input: check, spectrum and run per
        input, then the batch calls over all of them."""
        ops = []
        for inp in inputs:
            for kind in ("check", "spectrum"):
                for _ in range(calls[kind]):
                    ops.append(self.cli(kind, inp.name, [str(inp.path)]))
            ops.append(self.cli("run", inp.name, [
                str(inp.path), "--out", str(outdir / "run" / inp.name),
                "--decimate", str(inp.decimate), "--dump-xi"]))
        for k in range(calls["batch"]):
            ops.append(self.cli("batch", "all", [
                *(str(inp.path) for inp in inputs), "--workers", str(BATCH_WORKERS),
                "--out", str(outdir / f"batch{k}"), "--decimate", str(inputs[0].decimate)]))
        return ops

    def warm_up(self, inputs: list[gen.Input]) -> None:
        """Untimed: compiles bytecode, loads the page cache, and leaves a bundle
        of the first input for the rerun check."""
        first = inputs[0]
        self.cli("check", first.name, [str(first.path)])
        self.cli("spectrum", first.name, [str(first.path)])
        self.cli("run", first.name, [str(first.path), "--out", str(self.work / "warmup" / first.name),
                                     "--decimate", str(first.decimate), "--dump-xi"])


def end_to_end(ops: list[Op], n_inputs: int, scaled: bool = True) -> dict[str, float]:
    """The six end-to-end metrics of one round; ``scaled=False`` gives raw wall times."""
    ok = [op for op in ops if op.ok]

    def wall(op: Op) -> float:
        return op.scaled_wall if scaled else op.wall

    def total(kind: str) -> float:
        """Sum over inputs of the median over the input's calls."""
        per_input: dict[str, list[float]] = {}
        for op in ok:
            if op.kind == kind:
                per_input.setdefault(op.name, []).append(wall(op))
        return sum(map(statistics.median, per_input.values())) if per_input else nan

    return {
        "setup_s": statistics.median(op.scaled_setup if scaled else op.setup for op in ok)
        if ok else nan,
        "run_s": total("run"),
        "check_s": total("check"),
        "spectrum_s": total("spectrum"),
        "batch_scenarios_per_s": n_inputs / total("batch"),
        "peak_rss_mb": max((op.rss_mb for op in ok if op.kind == "run"), default=nan),
    }


E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "check_s": "s", "spectrum_s": "s",
    "batch_scenarios_per_s": "1/s", "peak_rss_mb": "MiB",
}


def verify(workload: str, inputs: list[gen.Input], rounds: list[list[Op]], dirs: list[Path],
           warm: Path) -> None:
    """Check the first round's outputs in full, and every other output of
    the run byte for byte against them."""
    docs = {inp.name: oracle.formation_from_doc(json.loads(inp.path.read_text())) for inp in inputs}
    decimate = {inp.name: inp.decimate for inp in inputs}
    printed: dict[tuple[str, str], str] = {}
    for k, ops in enumerate(rounds):
        for op in ops:
            if not op.ok or op.kind not in ("check", "spectrum"):
                continue
            where = f"{workload} {op.kind} {op.name}"
            first = printed.setdefault((op.kind, op.name), op.stdout)
            if op.stdout != first:
                raise checks.CheckFailed(f"{where}: output differs between calls")
            if op.kind == "check" and k == 0:
                checks.check_output(op.stdout, docs[op.name], where)
            elif k == 0:
                checks.spectrum_output(json.loads(op.stdout), docs[op.name], where)
    files = ("trajectory.csv", "summary.json")
    reference: dict[str, Path] = {}
    for k, ops in enumerate(rounds):
        for op in ops:
            if not op.ok or op.kind != "run":
                continue
            run_dir = dirs[k] / "run" / op.name
            if op.name not in reference:
                reference[op.name] = run_dir
                checks.bundle(run_dir, docs[op.name], decimate[op.name],
                              settle=workload == "bundles")
            else:
                for name in files + ("xi.csv",):
                    checks.same_bytes(run_dir / name, reference[op.name] / name)
            for batch in sorted(dirs[k].glob("batch*")):
                if (batch / op.name).exists():
                    for name in files:
                        checks.same_bytes(batch / op.name / name, run_dir / name)
    first = inputs[0].name
    if first in reference:
        for name in files + ("xi.csv",):
            checks.same_bytes(warm / first / name, reference[first] / name)


def timed(bench: Bench, workload: str, inputs: list[gen.Input], seconds: float):
    """Whole rounds until the next one would run past ``seconds``; each
    metric is the median over rounds."""
    rounds, dirs = [], []
    measured = 0.0
    while not rounds or measured + measured / len(rounds) <= seconds:
        dirs.append(bench.work / f"round{len(rounds)}")
        start = time.perf_counter()
        rounds.append(bench.round(inputs, dirs[-1], CALLS[workload]))
        measured += time.perf_counter() - start
    metrics = _median_rounds([end_to_end(ops, len(inputs)) for ops in rounds])
    return rounds, dirs, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def _median_rounds(per_round: list[dict[str, float]]) -> dict[str, float]:
    metrics = {name: statistics.median(r[name] for r in per_round) for name in E2E_UNITS}
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in per_round)
    return metrics


def traced(bench: Bench, workload: str, inputs: list[gen.Input]):
    """One pass of the layer probe over every input, fresh-import timings, and
    one round of CLI calls, all under spans."""
    tracer = bench.tracer = Tracer()
    probes = []
    speed: dict[int, float] = {}  # span index -> speed of the process it ran in

    def timed_in(first: int, samplers, start: float, end: float) -> None:
        factor = _speed(samplers, start, end)[1]
        speed.update(dict.fromkeys(range(first, len(tracer.spans)), factor))

    with tracer.span("perfbench.trace", workload):
        with tracer.span("perfbench.imports", workload):
            for k in range(IMPORT_PROBES):
                for layer, module in (("numpy", "numpy"), ("bmv_cli", "bmv.cli")):
                    code = (f"import time; t = time.perf_counter(); import {module}; "
                            "print(t, time.perf_counter())")
                    log = bench.work / "logs" / f"import-{layer}-{k}"
                    _, _, rc, _, samplers = bench.python(["-c", code], log)
                    if rc == 0:
                        start, end = map(float, Path(f"{log}.out").read_text().split())
                        first = tracer.add(f"import.{layer}", start, end, scenario=module)
                        timed_in(first, samplers, start, end)
        with tracer.span("perfbench.layers", workload):
            for inp in inputs:
                log = bench.work / "logs" / f"probe-{inp.name}"
                start, end, rc, _, samplers = bench.python(
                    [str(HERE / "probe.py"), str(inp.path), inp.name, str(inp.decimate),
                     str(bench.work / "probe" / inp.name)], log)
                parent = tracer.add("perfbench.probe", start, end, scenario=inp.name)
                if rc != 0:
                    raise RuntimeError(f"layer probe failed on {inp.name}: "
                                       f"{Path(f'{log}.err').read_text()[-400:]}")
                result = json.loads(Path(f"{log}.out").read_text().splitlines()[-1])
                tracer.adopt(result["spans"], parent)
                timed_in(parent + 1, samplers, start, end)
                probes.append(result)
        with tracer.span("perfbench.round", workload):
            ops = bench.round(inputs, bench.work / "round0", CALLS[workload])
    tracer.write(bench.work / "trace.json")

    span_cost = Tracer()
    start = time.perf_counter()
    for _ in range(10000):
        with span_cost.span("x"):
            pass
    span_cost_us = (time.perf_counter() - start) / 10000 * 1e6

    def dur(name):
        return tracer.durations(name, speed)

    steps = sum(p["steps"] for p in probes)
    csv_mb = sum(p["csv_bytes"] for p in probes) / 2**20
    csv_s = sum(dur("cli.csv"))
    e2e = end_to_end(ops, len(inputs))
    # Self time per layer counts the one-call-per-input pipeline, not the
    # repeated micro timings.
    self_times = tracer.self_times(MODULE_LAYERS, speed, skip={"probe.repeats"})

    def total_ms(name):
        return 1e3 * sum(dur(name))

    def median_us(name):
        return 1e6 * statistics.median(dur(name))

    metrics = {
        "import.numpy_s": (statistics.median(dur("import.numpy")), "s"),
        "import.bmv_cli_s": (statistics.median(dur("import.bmv_cli")), "s"),
        "cli.parse_ms": (total_ms("cli.parse"), "ms"),
        "rigidity.report_ms": (total_ms("rigidity.report"), "ms"),
        "laplacian.build_ms": (total_ms("laplacian.build"), "ms"),
        "laplacian.localizable_ms": (total_ms("laplacian.localizable"), "ms"),
        "sim.assemble_ms": (total_ms("sim.assemble"), "ms"),
        "controller.spectrum_ms": (total_ms("controller.spectrum"), "ms"),
        "maneuver.command_us": (median_us("maneuver.command"), "us"),
        "sim.run_s": (sum(dur("sim.run")), "s"),
        "sim.run_us_per_step": (1e6 * sum(dur("sim.run")) / steps, "us"),
        "sim.steps": (steps, "count"),
        "sim.step_us": (median_us("sim.step"), "us"),
        "laplacian.follower_solve_us": (median_us("laplacian.follower_solve"), "us"),
        "formation.bearings_us": (median_us("formation.bearings"), "us"),
        "sim.run_alloc_peak_mb": (max(p["run_rss_growth_mb"] for p in probes), "MiB"),
        "cli.summary_ms": (total_ms("cli.summary"), "ms"),
        "cli.csv_s": (csv_s, "s"),
        "cli.csv_mb": (csv_mb, "MiB"),
        "cli.csv_mb_per_s": (csv_mb / csv_s, "MiB/s"),
    }
    for layer in MODULE_LAYERS:
        metrics[f"self.{layer}_s"] = (self_times[layer], "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.span_cost_us"] = (span_cost_us, "us")
    for name, value in e2e.items():
        metrics[f"traced.{name}"] = (value, E2E_UNITS[name])
    metrics["host.burst_us"] = (1e6 * statistics.median(bench.bursts), "us")
    return [ops], [bench.work / "round0"], {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="bmv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "bmv" / "cli.py").is_file():
        print(f"perfbench: no bmv source tree at {root / 'src' / 'bmv'}; "
              "run from the root of a bmv checkout", file=sys.stderr)
        return 2
    work = HERE / "_work" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    inputs = gen.generate(args.workload, args.seed, work / "inputs", root)
    bench = Bench(root, work)
    bench.warm_up(inputs)
    if args.trace:
        rounds, dirs, metrics = traced(bench, args.workload, inputs)
    else:
        rounds, dirs, metrics = timed(bench, args.workload, inputs, args.seconds)

    correct = True
    try:
        verify(args.workload, inputs, rounds, dirs, work / "warmup")
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    for path in dirs + [work / "warmup", work / "probe"]:
        shutil.rmtree(path, ignore_errors=True)

    ops = [op for r in rounds for op in r]
    missing = [name for name, m in metrics.items() if not isfinite(m["value"])]
    if missing:
        print(f"perfbench: no successful call gave {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": metrics,
    }
    # The scratch copy also keeps the unscaled wall times and the bursts, for
    # judging the noise the scaling removes.
    (work / "result.json").write_text(json.dumps(
        dict(result, raw=_median_rounds([end_to_end(r, len(inputs), scaled=False) for r in rounds]),
             rounds=len(rounds),
             ops=[[op.kind, op.name, op.wall, op.setup, op.scaled_wall, op.scaled_setup, op.bursts]
                  for op in ops],
             elapsed_s=time.perf_counter() - started), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
