"""Self-tests of the benchmark: the checks reject corrupted output, and the
generator is deterministic per seed.

    python3 -m pytest -q perfbench

from the repository root.  They sit outside the project's test paths.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def bmv(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    code = "import sys; from bmv.cli import script_main; sys.argv[0] = 'bmv'; script_main()"
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return done.stdout


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    inp = gen.generate("sweep", 3, out, ROOT)[0]
    f = oracle.formation_from_doc(json.loads(inp.path.read_text()))
    return inp.path, f


@pytest.fixture(scope="module")
def bundle(scenario, tmp_path_factory):
    path, _ = scenario
    out = tmp_path_factory.mktemp("bundle") / "run"
    bmv("run", str(path), "--out", str(out), "--dump-xi")
    return out


def corrupted(bundle: Path, tmp_path: Path, name: str, edit) -> Path:
    """A copy of the bundle with ``edit`` applied to the lines of one file."""
    copy = tmp_path / "copy"
    shutil.copytree(bundle, copy)
    lines = (copy / name).read_text().splitlines()
    (copy / name).write_text("\n".join(edit(lines)) + "\n")
    return copy


def nudge(column: str, rel: float):
    def edit(lines):
        k = lines[0].split(",").index(column)
        row = lines[-1].split(",")
        row[k] = repr(float(row[k]) * (1.0 + rel))
        return lines[:-1] + [",".join(row)]
    return edit


def test_intact_output_passes(scenario, bundle):
    path, f = scenario
    checks.bundle(bundle, f, 1, settle=False)
    checks.check_output(bmv("check", str(path)), f, "check")
    checks.spectrum_output(json.loads(bmv("spectrum", str(path))), f, "spectrum")


@pytest.mark.parametrize("name, edit", [
    ("trajectory.csv", nudge("f0_x", 1e-6)),             # follower position
    ("xi.csv", nudge("f0_x", 1e-3)),                     # integral state: only the exact flow sees it
    ("trajectory.csv", lambda lines: lines[:5] + lines[6:]),   # dropped row
    ("trajectory.csv", lambda lines: lines[:-1]),               # truncated run
    ("trajectory.csv", nudge("scale", 1e-9)),
    ("trajectory.csv", nudge("l0_y", 1e-6)),             # leader leaves its affine path
])
def test_corrupted_bundle_is_rejected(scenario, bundle, tmp_path, name, edit):
    _, f = scenario
    with pytest.raises(checks.CheckFailed):
        checks.bundle(corrupted(bundle, tmp_path, name, edit), f, 1, settle=False)


def test_changed_byte_is_rejected(bundle, tmp_path):
    copy = corrupted(bundle, tmp_path, "summary.json", lambda lines: lines)
    data = bytearray((copy / "summary.json").read_bytes())
    data[len(data) // 2] ^= 1
    (copy / "summary.json").write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed):
        checks.same_bytes(copy / "summary.json", bundle / "summary.json")


def test_wrong_eigenvalue_is_rejected(scenario):
    path, f = scenario
    doc = json.loads(bmv("spectrum", str(path)))
    doc["eigenvalues"][len(doc["eigenvalues"]) // 2][0] *= 1.001
    with pytest.raises(checks.CheckFailed):
        checks.spectrum_output(doc, f, "spectrum")


def test_wrong_check_output_is_rejected(scenario):
    path, f = scenario
    text = bmv("check", str(path))
    lam = float(text.split("lambda_min_ff")[1].split("=")[1].split()[0])
    with pytest.raises(checks.CheckFailed):
        checks.check_output(text.replace(f"{lam:.6e}", f"{lam * 1.001:.6e}"), f, "check")


def test_decimated_output_passes_with_or_without_final_sample(scenario, tmp_path):
    path, f = scenario
    last = oracle.time_grid(f).size - 1
    divides = next(k for k in range(5, last) if last % k == 0)
    skips = next(k for k in range(5, last) if last % k != 0)
    for decimate in (divides, skips):
        out = tmp_path / f"dec{decimate}"
        bmv("run", str(path), "--out", str(out), "--decimate", str(decimate), "--dump-xi")
        checks.bundle(out, f, decimate, settle=False)


def test_generator_is_deterministic_per_seed():
    assert gen.sweep_documents(11) == gen.sweep_documents(11)
    assert gen.sweep_documents(11) != gen.sweep_documents(12)
    assert gen.wide_documents(11) == gen.wide_documents(11)


@pytest.mark.parametrize("workload", ["sweep", "wide"])
def test_generated_formations_are_rigid_and_localizable(workload):
    for doc in getattr(gen, f"{workload}_documents")(7):
        f = oracle.formation_from_doc(doc)
        assert oracle.rigidity_rank(f.reference, f.edges) == f.d * f.n - f.d - 1
        assert oracle.is_localizable(oracle.follower_blocks(f)[0])[0]
        assert np.abs(oracle.closed_loop_roots(
            np.linalg.eigvalsh(oracle.follower_blocks(f)[0]), f.kp, f.ki)).max() * f.dt \
            <= gen.STIFFNESS_LIMIT
