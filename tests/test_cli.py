"""Scenario parsing, result bundles, and the command-line surface."""

import contextlib
import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bmv
import bmv.cli
from bmv import (BearingSpec, HurwitzReport, ParseError, assemble, bearing_laplacian,
                 closed_loop_spectrum, rigidity_report, run, scale)
from bmv.cli import (
    COORDINATE_LIMIT,
    ECHO_LIMIT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VALIDATION,
    VALIDATION_ERRORS,
    LoadedScenario,
    build_summary,
    bundled_scenario_path,
    load_scenario,
    main,
    parse_scenario,
    write_trajectory_csv,
)
from bmv.controller import GAIN_LIMIT
from conftest import random_formation


def small_doc(**overrides):
    """Minimal valid scenario: the diagonalized unit square, two leaders."""
    doc = {
        "dimension": 2,
        "agents": [
            {"id": "a", "role": "leader"},
            {"id": "b", "role": "leader"},
            {"id": "c", "role": "follower"},
            {"id": "d", "role": "follower"},
        ],
        "reference_positions": {
            "a": [0.0, 0.0],
            "b": [1.0, 0.0],
            "c": [1.0, 1.0],
            "d": [0.0, 1.0],
        },
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"],
                  ["a", "c"], ["b", "d"]],
        "gains": {"kp": 4.0, "ki": 6.0},
        "schedule": [{"t0": 0.0, "t1": 5.0, "vc": [0.1, 0.0], "scale_rate": 0.0}],
        "duration": 1.0,
        "dt": 0.001,
        "seed": 5,
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(small_doc()))
    return path


# ---------------------------------------------------------------------------
# parsing

def test_parse_minimal_document():
    loaded = parse_scenario(small_doc())
    assert loaded.labels == ("a", "b", "c", "d")
    assert loaded.scenario.graph.n_leaders == 2
    assert loaded.scenario.gains.k_p == 4.0
    assert loaded.scenario.initial_config is None


def test_parse_orders_leaders_first():
    doc = small_doc()
    doc["agents"] = [
        {"id": "c", "role": "follower"},
        {"id": "a", "role": "leader"},
        {"id": "d", "role": "follower"},
        {"id": "b", "role": "leader"},
    ]
    loaded = parse_scenario(doc)
    assert loaded.labels == ("a", "b", "c", "d")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("dimension"), "dimension"),
        (lambda d: d.update(dimension=1), "dimension"),
        (lambda d: d.update(dimension=4), "dimension"),
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["agents"][0].pop("id"), "non-empty string"),
        (lambda d: d["agents"][0].update(id="b"), "duplicate"),
        (lambda d: d["agents"][0].update(role="boss"), "role"),
        (lambda d: d["agents"][0].update(color="red"), "color"),
        (lambda d: d["reference_positions"].pop("a"), "reference_positions.a"),
        (lambda d: d["reference_positions"].update(zz=[0.0, 0.0]), "zz"),
        (lambda d: d["reference_positions"].update(a=[0.0]), "list of 2"),
        (lambda d: d["edges"].append(["a", "zz"]), "unknown agent id"),
        (lambda d: d["edges"].append(["a", "b"]), "duplicate"),
        (lambda d: d.update(edges=[]), "edges"),
        (lambda d: d.update(gains={"kp": -1.0}), "gains"),
        (lambda d: d.update(gains={"kq": 1.0}), "gains"),
        (lambda d: d.update(gains={"kp": 1e300}), "gains: k_p must be .* at most 1e.100"),
        (lambda d: d.update(gains={"ki": 1e300}), "gains: k_i must be .* at most 1e.100"),
        (lambda d: d["schedule"][0].pop("t1"), "t0 and t1"),
        (lambda d: d["schedule"][0].update(t1=0.0), "end after it starts"),
        (lambda d: d["schedule"][0].update(vc=[0.0]), "vc"),
        (lambda d: d["schedule"][0].update(pace=2), "pace"),
        (lambda d: d.pop("duration"), "duration"),
        (lambda d: d.update(duration="long"), "duration"),
        (lambda d: d.update(seed=1.5), "seed"),
        (lambda d: d.update(seed=True), "seed"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(duration=math.inf), "duration"),
        (lambda d: d.update(duration=math.nan), "duration"),
        (lambda d: d.update(dt=math.inf), "dt"),
        (lambda d: d.update(dt=math.nan), "dt"),
        (lambda d: d["schedule"][0].update(t1=math.inf), "t1"),
        (lambda d: d["schedule"][0].update(t1=math.nan), "t1"),
        # "." stands for the brackets of the field path
        (lambda d: d["reference_positions"].update(a=[1.7e308, 0.0]), "positions.a.0.: expected a finite"),
        (lambda d: d["reference_positions"].update(b=[0.0, -1e151]), "positions.b.1.: expected a finite"),
        (lambda d: _with_initial(d)["agents"][2].update(initial=[2e150, 1.0]), "agents.2..initial.0.: expected a finite"),
        (["a", "b"], "document: expected an object, got .'a', 'b'."),
        (lambda d: d.pop("agents"), "agents: missing"),
        (lambda d: d.update(agents={}), "agents: expected a non-empty list of agents"),
        (lambda d: d.pop("reference_positions"), "reference_positions: missing"),
        (lambda d: d.update(reference_positions=[]), "reference_positions: expected an object, got"),
        (lambda d: d["reference_positions"].update(zz=[0.0, 0.0]), "reference_positions.zz: unknown field"),
        (lambda d: d.pop("edges"), "edges: missing"),
        (lambda d: d.pop("schedule"), "schedule: missing"),
        (lambda d: d.update(gains=5), "gains: expected an object, got 5"),
        (lambda d: d.update(gains={"kq": 1.0}), "gains.kq: unknown field"),
        (lambda d: d.update(seed=-1), "seed: expected an integer no smaller than 0, got -1"),
    ],
)
def test_parse_rejects_malformed_documents(mutate, fragment):
    doc = small_doc()
    if callable(mutate):
        mutate(doc)
    else:  # a whole document in place of the valid one
        doc = mutate
    with pytest.raises(ParseError, match=fragment):
        parse_scenario(doc)


def _paths(node, prefix=()):
    """Every key path in a decoded JSON document, the root first."""
    yield prefix
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _raised_in_bmv(exc: BaseException) -> bool:
    """Whether the innermost frame of the traceback is bmv's own code."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return Path(tb.tb_frame.f_code.co_filename).parent == Path(bmv.__file__).parent


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(
    st.tuples(st.sampled_from(list(_paths(small_doc()))[1:]),
              st.none() | st.tuples(JSON_VALUES)),  # drop the key, or replace its value
    max_size=4,
))
@example(edits=[(("seed",), (-1,))])
def test_parse_raises_only_parse_errors(edits):
    # A valid document with keys dropped or values replaced either parses
    # into a scenario that assembles, or fails with a message bmv wrote: a
    # ParseError from the parser, a validation error from bmv's own checks.
    doc = small_doc()
    for (*parents, last), edit in edits:
        node = doc
        try:
            for key in parents:
                node = node[key]
            node[last]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed the path
        if not isinstance(node, (dict, list)):
            continue
        if edit is None:
            del node[last]
        else:
            node[last] = edit[0]
    try:
        loaded = parse_scenario(doc)
    except ParseError:
        return
    try:
        assemble(loaded.scenario, force=True)
    except VALIDATION_ERRORS as exc:
        assert _raised_in_bmv(exc), repr(exc)


def test_parse_error_echoes_a_capped_value(tmp_path, capsys):
    # a value nested 950 deep is cut, not echoed in full
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(small_doc()).replace('"dimension": 2', '"dimension": ' + "[" * 950 + "]" * 950))
    assert main(["check", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dimension: expected an integer" in err
    assert len(err) < len(f"error: {path}: dimension: ") + ECHO_LIMIT + 2


def test_parse_requires_a_leader():
    doc = small_doc()
    for agent in doc["agents"]:
        agent["role"] = "follower"
    with pytest.raises(ParseError, match="leader"):
        parse_scenario(doc)


def test_initial_positions_all_or_none():
    doc = small_doc()
    doc["agents"][0]["initial"] = [0.0, 0.0]
    with pytest.raises(ParseError, match="every agent"):
        parse_scenario(doc)
    for agent in doc["agents"]:
        agent["initial"] = [0.0, 0.0]
    # all-collocated start is structurally fine at parse time
    loaded = parse_scenario(doc)
    assert loaded.scenario.initial_config is not None


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 2,,}')
    with pytest.raises(ParseError, match="line 1"):
        load_scenario(path)
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")


def test_load_scenario_rejects_duplicate_keys(tmp_path, capsys):
    path = tmp_path / "twice.json"
    text = json.dumps(small_doc())
    path.write_text(text.replace('"duration": 1.0', '"duration": 1.0, "duration": 24.0'))
    with pytest.raises(ParseError, match="duplicate key 'duration'"):
        load_scenario(path)
    assert main(["check", str(path)]) == EXIT_INPUT
    assert "duplicate key 'duration'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "spectrum", "run"])
def test_an_integer_literal_too_long_to_read_is_an_input_error(tmp_path, capsys, command):
    # json.loads refuses an int of more than sys.get_int_max_str_digits()
    # digits with a bare ValueError; it ends in one line naming the file
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(small_doc()).replace('"seed": 5', '"seed": ' + "7" * 5000))
    flags = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *flags]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ") and "4300 digits" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["check", "spectrum", "run"])
def test_an_id_utf8_cannot_encode_is_refused_at_parse(tmp_path, capsys, command):
    # a lone surrogate, written as a JSON escape, could not head a CSV column
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(small_doc()).replace('"c"', '"\\ud800"'))
    flags = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *flags]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}: agents[2].id: expected text UTF-8 can encode, got '\\ud800'\n")
    assert not (tmp_path / "o").exists()


def _relabelled(doc, ids):
    """doc with its agents, in the order listed, renamed ids[0], ids[1], ..."""
    names = dict(zip([agent["id"] for agent in doc["agents"]], ids))
    doc = json.loads(json.dumps(doc))
    for agent in doc["agents"]:
        agent["id"] = names[agent["id"]]
    doc["reference_positions"] = {names[k]: p for k, p in doc["reference_positions"].items()}
    doc["edges"] = [[names[i], names[j]] for i, j in doc["edges"]]
    return doc


# Ids a CSV header cannot take, and the problem parse_scenario names.
BAD_COLUMN_IDS = {
    **{id_: f"expected no comma, quote or line break, got {id_!r}"
       for id_ in ["c,1", '"c', 'c"1', "c\r", "\nc"]},
    "centroid": "'centroid' would repeat a column of trajectory.csv",
}


@pytest.mark.parametrize("id_", list(BAD_COLUMN_IDS))
@pytest.mark.parametrize("command", ["check", "spectrum", "run"])
def test_an_id_that_would_split_a_csv_column_is_refused_at_parse(tmp_path, capsys, command,
                                                                 id_):
    # the CSV headers join the ids unquoted, so a comma, a quote or a line
    # break in one would leave the header and the rows different widths, and
    # the id "centroid" would head two columns centroid_x
    path = tmp_path / "split.json"
    path.write_text(json.dumps(_relabelled(small_doc(), ["a", "b", id_, "d"])))
    flags = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *flags]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: agents[2].id: {BAD_COLUMN_IDS[id_]}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edge, problem", [
    (["d", "c"], "duplicate edge between 'd' and 'c'"),
    (["c", "c"], "self-loop at agent 'c'"),
], ids=["duplicate", "self-loop"])
def test_a_repeated_or_looped_edge_is_refused_naming_its_ids(tmp_path, capsys, edge, problem):
    # the followers listed first, so no agent's index matches its place in
    # the file: the message names the edge's ids and where it is
    doc = small_doc()
    doc["agents"] = doc["agents"][2:] + doc["agents"][:2]
    doc["edges"].append(edge)
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: edges[6]: {problem}\n"


def _with_initial(doc):
    for agent in doc["agents"]:
        agent["initial"] = list(doc["reference_positions"][agent["id"]])
    return doc


def scenario_document(loaded: LoadedScenario) -> dict:
    """Serialize back to the JSON document shape; inverse of parse_scenario."""
    scenario = loaded.scenario
    labels = loaded.labels
    n_l = scenario.graph.n_leaders
    agents = []
    for k, label in enumerate(labels):
        entry: dict = {"id": label, "role": "leader" if k < n_l else "follower"}
        if scenario.initial_config is not None:
            entry["initial"] = list(scenario.initial_config.points[k])
        agents.append(entry)
    return {
        "dimension": scenario.graph.d,
        "agents": agents,
        "reference_positions": {
            label: list(scenario.reference_config.points[k])
            for k, label in enumerate(labels)
        },
        "edges": [[labels[i], labels[j]] for i, j in scenario.graph.edges],
        "gains": {"kp": scenario.gains.k_p, "ki": scenario.gains.k_i},
        "schedule": [
            {"t0": seg.t_start, "t1": seg.t_end, "vc": list(seg.v_c), "scale_rate": seg.scale_rate}
            for seg in scenario.schedule
        ],
        "dt": scenario.dt,
        "duration": scenario.duration,
        "seed": scenario.seed,
    }


@st.composite
def scenario_documents(draw):
    """Valid documents in the canonical form scenario_document writes."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 5))
    n_leaders = draw(st.integers(1, n))
    # no comma, quote, line break or lone surrogate, which parse_scenario refuses
    label = st.text(st.characters(exclude_characters=',"\r\n', exclude_categories=("Cs",)),
                    min_size=1, max_size=4)
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=1e-6, max_value=1e6)
    point = st.lists(st.floats(-COORDINATE_LIMIT, COORDINATE_LIMIT), min_size=d, max_size=d)
    with_initial = draw(st.booleans())
    agents = []
    for k, label in enumerate(labels):
        agents.append({"id": label, "role": "leader" if k < n_leaders else "follower"})
        if with_initial:
            agents[-1]["initial"] = draw(point)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    times = draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=4, unique=True))
    times.sort()
    return {
        "dimension": d,
        "agents": agents,
        "reference_positions": {label: draw(point) for label in labels},
        "edges": [[labels[i], labels[j]] for i, j in edges],
        "gains": {"kp": draw(positive), "ki": draw(st.just(0.0) | positive)},
        "schedule": [
            {"t0": t0, "t1": t1, "vc": draw(point), "scale_rate": draw(finite)}
            for t0, t1 in zip(times, times[1:])
        ],
        "dt": draw(positive),
        "duration": draw(positive),
        "seed": draw(st.integers(min_value=0)),
    }


@settings(max_examples=100, deadline=None)
@given(doc=scenario_documents())
@example(doc=small_doc())
@example(doc=_with_initial(small_doc()))
def test_document_roundtrip(doc):
    assert scenario_document(parse_scenario(doc)) == doc
    # and through the JSON text, whose float reprs are exact
    assert scenario_document(parse_scenario(json.loads(json.dumps(doc)))) == doc


def test_bundled_scenarios_parse_and_pass_checks():
    for name in ("narrow_passage_2d", "narrow_passage_3d"):
        loaded = load_scenario(bundled_scenario_path(name))
        assert loaded.scenario.graph.n_leaders == 2
    # suffix is optional
    assert bundled_scenario_path("narrow_passage_2d.json").exists()


# ---------------------------------------------------------------------------
# commands

def test_check_command_verdict(scenario_file, capsys):
    code = main(["check", str(scenario_file)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verdict: RIGID, LOCALIZABLE" in out
    assert "rank            = 5" in out


def test_check_command_flags_flexible_formation(tmp_path, capsys):
    doc = small_doc(edges=[["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    path = tmp_path / "floppy.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_VALIDATION
    assert "NOT RIGID" in out


def test_run_command_writes_bundle(scenario_file, tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(["run", str(scenario_file), "--out", str(outdir)])
    assert code == EXIT_OK
    csv_path = outdir / "trajectory.csv"
    summary_path = outdir / "summary.json"
    assert csv_path.exists() and summary_path.exists()

    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "a_x" in header and "d_y" in header
    assert header[-1] == "scale"
    assert len(lines) == 1 + 1001  # header + samples at dt=1e-3 over 1 s

    summary = json.loads(summary_path.read_text())
    assert summary["rigidity"]["rigid"] is True
    assert summary["spectrum"]["is_hurwitz"] is True
    assert summary["agents"]["n"] == 4
    assert summary["final"]["time"] == pytest.approx(1.0)


def test_run_csv_values_roundtrip_exactly(scenario_file, tmp_path):
    outdir = tmp_path / "out"
    main(["run", str(scenario_file), "--out", str(outdir)])
    loaded = load_scenario(scenario_file)
    traj = run(assemble(loaded.scenario))

    lines = (outdir / "trajectory.csv").read_text().splitlines()
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == traj.times[-1]
    np.testing.assert_array_equal(np.array(last[1:9]), traj.positions[-1])
    assert last[9] == traj.bearing_error[-1]
    assert last[10] == traj.tracking_error[-1]


def test_run_decimate_and_xi(scenario_file, tmp_path, capsys):
    # every 100th of 1001 samples; every 7th does not reach the last one,
    # which is written anyway
    for decimate, rows in ((100, 11), (7, 144)):
        outdir = tmp_path / f"out{decimate}"
        code = main([
            "run", str(scenario_file), "--out", str(outdir),
            "--decimate", str(decimate), "--dump-xi",
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"wrote {outdir / 'trajectory.csv'}, {outdir / 'summary.json'} "
            f"and {outdir / 'xi.csv'}")
        lines = (outdir / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + rows
        summary = json.loads((outdir / "summary.json").read_text())
        assert float(lines[-1].split(",")[0]) == summary["final"]["time"]
        xi_lines = (outdir / "xi.csv").read_text().splitlines()
        assert xi_lines[0] == "t,c_x,c_y,d_x,d_y"
        assert [x.split(",")[0] for x in xi_lines] == [x.split(",")[0] for x in lines]


def test_decimate_leaves_samples_and_decay_fit_alone(scenario_file, tmp_path):
    out = {}
    for decimate in (1, 7):
        out[decimate] = tmp_path / f"out{decimate}"
        assert main(["run", str(scenario_file), "--out", str(out[decimate]),
                     "--decimate", str(decimate), "--dump-xi"]) == EXIT_OK
    full, kept = (json.loads((out[k] / "summary.json").read_text()) for k in (1, 7))
    assert kept["integration"]["samples"] == full["integration"]["samples"] == 1001
    assert kept["decay_fit"] == full["decay_fit"] is not None
    assert kept["final"] == full["final"]
    for name in ("trajectory.csv", "xi.csv"):
        rows = (out[1] / name).read_text().splitlines()
        times = [row.split(",")[0] for row in rows]
        kept_times = [row.split(",")[0] for row in (out[7] / name).read_text().splitlines()]
        assert kept_times == times[:1] + times[1::7] + times[-1:]


@pytest.mark.parametrize("k", [7, 1002, 2**64])
def test_write_trajectory_csv_keeps_every_kth_line_and_the_last(scenario_file, tmp_path, k):
    # the writer's own decimation, on one Trajectory of 1001 samples: 7 does
    # not divide the 1000 steps, and the others are past the sample count
    loaded = load_scenario(scenario_file)
    traj = run(assemble(loaded.scenario))
    write_trajectory_csv(tmp_path / "all.csv", traj, loaded.labels)
    write_trajectory_csv(tmp_path / "kept.csv", traj, loaded.labels, k)
    header, *lines = (tmp_path / "all.csv").read_bytes().splitlines(keepends=True)
    assert len(lines) == 1001
    assert (tmp_path / "kept.csv").read_bytes() == b"".join([header, *lines[:-1:k], lines[-1]])


def test_writing_a_trajectory_holds_one_block_of_rows(tmp_path):
    # 24 s at dt 1e-3 and at dt 2.5e-4: the file grows 4x, and the writer's
    # allocations stay at one block of rows.  Tracing costs per value written,
    # so the formation is the narrowest, ten values a row, and the two traced
    # writes run at once, each in a process of its own.
    doc = small_doc(agents=[{"id": "a", "role": "leader"}, {"id": "b", "role": "leader"}],
                    reference_positions={"a": [0.0, 0.0], "b": [1.0, 0.0]}, edges=[["a", "b"]],
                    schedule=[{"t0": 0.0, "t1": 24.0, "vc": [0.1, 0.2], "scale_rate": 0.01}],
                    duration=24.0)
    # run a document, write its trajectory.csv under tracemalloc, and print the
    # row count and the writer's traced peak in bytes
    probe = (
        "import json, sys, tracemalloc\n"
        "from pathlib import Path\n"
        "from bmv import assemble, run\n"
        "from bmv.cli import parse_scenario, write_trajectory_csv\n"
        "loaded = parse_scenario(json.loads(sys.argv[1]))\n"
        "traj = run(assemble(loaded.scenario))\n"
        "tracemalloc.start()\n"
        "write_trajectory_csv(Path(sys.argv[2]), traj, loaded.labels)\n"
        "print(len(traj.times), tracemalloc.get_traced_memory()[1])\n"
    )
    src = Path(bmv.__file__).resolve().parents[1]
    paths = {dt: tmp_path / f"{dt}.csv" for dt in (1e-3, 2.5e-4)}
    writers = [subprocess.Popen([sys.executable, "-c", probe, json.dumps({**doc, "dt": dt}),
                                 str(path)], stdout=subprocess.PIPE, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
               for dt, path in paths.items()]
    printed = [writer.communicate(timeout=120)[0] for writer in writers]
    assert [writer.returncode for writer in writers] == [0, 0]
    rows, peaks = zip(*(map(int, line.split()) for line in printed))
    sizes = [path.stat().st_size for path in paths.values()]
    assert rows == (24_001, 96_001)
    assert sizes[1] > 3.9 * sizes[0]
    assert max(peaks) < 2 * 2**20, peaks


@pytest.mark.parametrize("split", [4.0, 5.0])
def test_decay_fit_ignores_a_segment_the_run_never_reaches(split):
    # the run ends at t = 4, so the fit is over the last segment it integrates
    def decay(schedule):
        doc = small_doc(dt=0.01, duration=4.0, schedule=schedule)
        return run(assemble(parse_scenario(doc).scenario)).decay

    alone = decay([{"t0": 0.0, "t1": 4.0, "vc": [0.1, 0.0]}])
    assert alone is not None
    trailing = decay([{"t0": 0.0, "t1": split, "vc": [0.1, 0.0]},
                      {"t0": split, "t1": 9.0, "vc": [0.0, 0.3]}])
    assert trailing == alone


def test_run_overrides_recorded_in_summary(scenario_file, tmp_path):
    outdir = tmp_path / "out"
    main([
        "run", str(scenario_file), "--out", str(outdir),
        "--dt", "0.01", "--seed", "42",
    ])
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["integration"]["dt"] == 0.01
    assert summary["integration"]["seed"] == 42
    assert summary["integration"]["samples"] == 101


def test_a_tiny_formation_runs_as_the_unit_square_scaled(tmp_path):
    # the scale floor is relative to the reference formation, like its bearings
    a = 1e-5
    still = [{"t0": 0.0, "t1": 5.0, "vc": [0.0, 0.0], "scale_rate": 0.0}]
    tiny = small_doc(schedule=still, reference_positions={
        k: [a * x for x in p] for k, p in small_doc()["reference_positions"].items()})
    tables = []
    for name, doc in (("unit", small_doc(schedule=still)), ("tiny", tiny)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / name)]) == EXIT_OK
        tables.append(np.loadtxt(tmp_path / name / "trajectory.csv", delimiter=",",
                                 skiprows=1))
    base, moved = tables
    np.testing.assert_array_equal(moved[:, 0], base[:, 0])
    np.testing.assert_allclose(moved[:, 1:9], a * base[:, 1:9], rtol=0, atol=1e-10 * (a + 1.0))


@pytest.mark.parametrize("a", [1e-13, 1e-100])
def test_collocation_is_relative_to_the_formation(tmp_path, capsys, a):
    # the unit square scaled down keeps its bearings, so it stays rigid and localizable
    still = [{"t0": 0.0, "t1": 5.0, "vc": [0.0, 0.0], "scale_rate": 0.0}]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(small_doc(schedule=still, reference_positions={
        k: [a * x for x in p] for k, p in small_doc()["reference_positions"].items()})))
    assert main(["check", str(path)]) == EXIT_OK
    assert "verdict: RIGID, LOCALIZABLE" in capsys.readouterr().out
    assert main(["spectrum", str(path)]) == EXIT_OK
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--decimate", "100"]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["check", "spectrum", "run"])
def test_collocated_agents_are_named_by_their_ids(tmp_path, capsys, command):
    # scaled by 1e-160 the square's edges fall below COLLOCATION_FLOOR
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(small_doc(reference_positions={
        k: [1e-160 * x for x in p] for k, p in small_doc()["reference_positions"].items()})))
    flags = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *flags]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: agents a and b are collocated (edge 0)\n"


def test_a_collocation_during_a_run_names_the_agents(tmp_path, capsys):
    agents = small_doc()["agents"]
    starts = {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [1.0, 1.0], "d": [1.0, 1.0]}
    path = tmp_path / "met.json"
    path.write_text(json.dumps(small_doc(agents=[{**agent, "initial": starts[agent["id"]]}
                                                 for agent in agents])))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("error: agents c and d are collocated (edge 2): 0 apart, "
                                       "with the longest edge 1 times the reference formation's\n")


def test_run_refuses_flexible_without_force(tmp_path, capsys):
    doc = small_doc(edges=[["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    path = tmp_path / "floppy.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    code = main(["run", str(path), "--out", str(tmp_path / "o2"), "--force"])
    assert code == EXIT_OK


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000], ids=["not-utf8", "deep"])
def test_unreadable_scenario_is_an_input_error(scenario_file, tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["check", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    code = main(["batch", str(bad), str(scenario_file), "--out", str(tmp_path / "batch"),
                 "--workers", "2", "--decimate", "50"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_INPUT
    assert lines[0].startswith("FAILED") and str(bad) in lines[0]
    assert lines[1].startswith("ok") and "square.json" in lines[1]


def test_no_general_eigensolve_in_the_commands(tmp_path, monkeypatch):
    # In a run, localizability, the spectrum and the loop's modes all come
    # from one symmetric eigensolve of the follower block per scenario, and
    # the rigidity report from one of the rigidity Gram matrix.  check and
    # spectrum read neither eigenvectors nor singular values: one Cholesky
    # proves the rank and one eigvalsh of the follower block gives mu.  The
    # follower targets come from one solve of the follower block in every
    # command that resolves the schedule, so spectrum, run and batch solve
    # it once per scenario.  A formation the Cholesky cannot prove adds the
    # Gram matrix's eigvalsh.
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    calls = []

    def count(name):
        solver = getattr(np.linalg, name)
        def call(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)
        return call

    for name in ("svd", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    for name in ("eigh", "eigvalsh", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, count(name))
    path = str(bundled_scenario_path("narrow_passage_2d"))
    other = str(bundled_scenario_path("narrow_passage_3d"))
    # the square plus a follower 4e-6 from leader a, on edges to a, b and d:
    # sigma_min / sigma_max of about 3.6e-6 is rigid to the report's Gram
    # route, and too small for the certificate to prove
    base = small_doc()
    declined = tmp_path / "declined.json"
    declined.write_text(json.dumps(small_doc(
        agents=base["agents"] + [{"id": "e", "role": "follower"}],
        reference_positions={**base["reference_positions"], "e": [4e-6, 4e-6]},
        edges=base["edges"] + [["a", "e"], ["b", "e"], ["d", "e"]])))
    out = tmp_path / "out"
    for argv, expected in (
        (["check", path], ["cholesky", "eigvalsh"]),
        (["run", path, "--out", str(out), "--decimate", "100"], ["eigh", "eigvalsh", "solve"]),
        (["spectrum", path], ["cholesky", "eigvalsh", "solve"]),
        (["spectrum", str(declined)], ["cholesky", "eigvalsh", "eigvalsh", "solve"]),
        (["batch", path, other, "--out", str(tmp_path / "batch"), "--decimate", "100"],
         ["eigh"] * 2 + ["eigvalsh"] * 2 + ["solve"] * 2),
    ):
        calls.clear()
        assert main(argv) == EXIT_OK
        assert sorted(calls) == expected, argv


def test_run_and_spectrum_build_the_spectrum_once(tmp_path, monkeypatch):
    # the closed loop builds it once: run checks the step, and the summary
    # reads the same report, as does a library run followed by build_summary
    calls = []

    def counted(mu, gains):
        calls.append(gains)
        return closed_loop_spectrum(mu, gains)

    monkeypatch.setattr(bmv.controller, "closed_loop_spectrum", counted)
    path = str(bundled_scenario_path("narrow_passage_2d"))
    assert main(["run", path, "--out", str(tmp_path / "out"), "--decimate", "100"]) == EXIT_OK
    assert len(calls) == 1
    assert main(["spectrum", path]) == EXIT_OK
    assert len(calls) == 2
    ctx = assemble(load_scenario(path).scenario)
    build_summary(ctx, run(ctx, 100))
    assert len(calls) == 3


@pytest.mark.parametrize("name", ["narrow_passage_2d", "narrow_passage_3d", "500 segments"])
def test_the_summary_reads_the_target_scales_assemble_computed(name, monkeypatch):
    # assemble measures each segment's target for its floor check, and the
    # summary records that number: bit for bit scale(target_start), read again
    # by no scale call
    if name == "500 segments":
        schedule = [{"t0": k / 500, "t1": (k + 1) / 500, "vc": [0.1 * (k % 2), 0.0],
                     "scale_rate": 0.1 * (k % 3 - 1)} for k in range(500)]
        scenario = parse_scenario(small_doc(schedule=schedule)).scenario
    else:
        scenario = load_scenario(bundled_scenario_path(name)).scenario
    ctx = assemble(scenario)
    traj = run(ctx, 100)
    calls = []

    def counted(config):
        calls.append(config)
        return scale(config)

    for module in (bmv.formation, bmv.sim):
        monkeypatch.setattr(module, "scale", counted)
    monkeypatch.setattr(bmv.cli, "scale", counted, raising=False)
    segments = build_summary(ctx, traj)["segments"]
    assert calls == []
    assert len(segments) == len(ctx.segments) == (500 if name == "500 segments" else
                                                  len(scenario.schedule))
    for entry, seg in zip(segments, ctx.segments):
        assert entry["target_scale_at_start"].hex() == scale(seg.target_start).hex()


@pytest.mark.parametrize("name", ["narrow_passage_2d", "narrow_passage_3d"])
def test_check_prints_the_same_with_the_rigidity_svd(name, monkeypatch, capsys):
    # The rank the Cholesky certificate proves is the one the Gram matrix's
    # eigenvalues give, and that is the one the SVD of the rigidity matrix
    # gives, byte for byte.
    path = str(bundled_scenario_path(name))
    assert main(["check", path]) == EXIT_OK
    certified = capsys.readouterr().out

    def decline(matrix):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    gram_route = bmv.rigidity._gram_singular_values
    taken = []

    def counted(graph, config):
        taken.append(gram_route(graph, config))
        return taken[-1]

    monkeypatch.setattr(np.linalg, "cholesky", decline)
    monkeypatch.setattr(bmv.rigidity, "_gram_singular_values", counted)
    assert main(["check", path]) == EXIT_OK
    assert capsys.readouterr().out == certified
    assert len(taken) == 1 and taken[0] is not None
    monkeypatch.setattr(bmv.rigidity, "_gram_singular_values", lambda graph, config: None)
    assert main(["check", path]) == EXIT_OK
    assert capsys.readouterr().out == certified


@pytest.mark.parametrize("name", ["narrow_passage_2d", "narrow_passage_3d"])
def test_spectrum_agrees_with_the_summary(name, tmp_path, capsys):
    # spectrum reads mu from one eigvalsh of the follower block, and the
    # summary from the eigh of the run; the two agree to rounding
    path = str(bundled_scenario_path(name))
    assert main(["spectrum", path]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert main(["run", path, "--out", str(tmp_path), "--decimate", "1000"]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    ran = {**summary["spectrum"],
           "max_step_amplification": summary["integration"]["max_step_amplification"]}
    assert printed.keys() == ran.keys()
    got, want = (np.array(doc["eigenvalues"]) for doc in (printed, ran))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.hypot(*want.T).max()
    assert printed["is_hurwitz"] == ran["is_hurwitz"]
    for key in ("convergence_horizon", "max_step_amplification"):
        assert printed[key] == pytest.approx(ran[key], rel=1e-12, abs=0.0)


def test_spectrum_of_an_all_leader_formation(tmp_path, capsys):
    # L_ff is empty: the follower targets come from a solve of a 0x0 block
    path = tmp_path / "leaders.json"
    path.write_text(json.dumps(small_doc(agents=[{"id": a, "role": "leader"} for a in "abcd"])))
    assert main(["spectrum", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        '{\n  "convergence_horizon": null,\n  "eigenvalues": [],\n  "is_hurwitz": true,\n'
        '  "max_real_part": null,\n  "max_step_amplification": 0.0\n}\n')


def test_forced_spectrum_of_a_flexible_formation_warns_with_the_reports_rank(
        tmp_path, capsys, caplog, monkeypatch):
    # four edges from the two leaders pin both followers, but cannot make a
    # formation of four agents in the plane bearing rigid: the certificate
    # declines, and the rank in the warning is the report's
    path = tmp_path / "flexible.json"
    path.write_text(json.dumps(small_doc(edges=[["a", "c"], ["b", "c"], ["a", "d"], ["b", "d"]])))
    reports = []

    def report(graph, config):
        reports.append(rigidity_report(graph, config))
        return reports[-1]

    monkeypatch.setattr(bmv.rigidity, "rigidity_report", report)
    assert main(["spectrum", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("error: reference formation is not infinitesimally "
                                       "bearing rigid (rank 4, need 5)\n")
    with caplog.at_level(logging.WARNING, logger="bmv.sim"):
        assert main(["spectrum", str(path), "--force"]) == EXIT_OK
    assert [record.getMessage() for record in caplog.records] == [
        "reference formation is not infinitesimally bearing rigid (rank 4, need 5); "
        "continuing because force=True"]
    assert [r.rank for r in reports] == [4, 4]


# A square ring with one leader is neither rigid (rank 4, need 5) nor localizable.
RING_AGENTS = [{"id": "a", "role": "leader"}] + [{"id": k, "role": "follower"} for k in "bcd"]
RING_EDGES = [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]


@pytest.mark.parametrize("level, ring, force, err", [
    # BMV_LOG names no level: ignored, as any other value is
    ("basic_format", False, False, ""),
    (None, True, True,
     "WARNING bmv.sim: reference formation is not infinitesimally bearing rigid (rank 4, "
     "need 5); continuing because force=True\n"
     "WARNING bmv.sim: follower block is not positive definite (min eigenvalue 0.000e+00); "
     "continuing because force=True\n"),
    ("InFo", False, False,
     "INFO bmv.sim: assembled scenario: n=4 d=2 m=6 rank=5/5 lambda_min=2.929e-01\n"),
], ids=["basic_format", "force", "info"])
def test_the_log_lines_a_command_prints(tmp_path, level, ring, force, err):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(small_doc(agents=RING_AGENTS, edges=RING_EDGES) if ring
                               else small_doc()))
    env = {k: v for k, v in os.environ.items() if k != "BMV_LOG"}
    env["PYTHONPATH"] = str(Path(bmv.__file__).resolve().parents[1])
    if level is not None:
        env["BMV_LOG"] = level
    done = subprocess.run(
        [sys.executable, "-m", "bmv.cli", "spectrum", str(path)] + ["--force"] * force,
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert (done.returncode, done.stderr) == (EXIT_OK, err)
    assert json.loads(done.stdout)["is_hurwitz"] is not ring


def test_spectrum_of_a_forced_non_localizable_scenario(tmp_path, capsys):
    # One follower on one edge to the only leader may slide along it, so
    # L_ff has an exact zero eigenvalue and the loop is not Hurwitz.
    doc = small_doc(
        agents=[{"id": "a", "role": "leader"}, {"id": "c", "role": "follower"}],
        reference_positions={"a": [0.0, 0.0], "c": [1.0, 0.0]},
        edges=[["a", "c"]],
    )
    path = tmp_path / "slide.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", str(path)]) == EXIT_VALIDATION
    capsys.readouterr()
    assert main(["spectrum", str(path), "--force"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "NaN" not in out
    spectrum = json.loads(out)
    zeros = [x for pair in spectrum["eigenvalues"] for x in pair if x == 0.0]
    assert zeros and all(math.copysign(1.0, x) > 0.0 for x in zeros)
    assert spectrum["max_real_part"] == 0.0
    assert spectrum["is_hurwitz"] is False
    assert spectrum["convergence_horizon"] is None
    assert len(spectrum["eigenvalues"]) == 4
    # the zero mode neither decays nor grows (R = 1), so the run goes ahead
    assert 0.0 < spectrum["max_step_amplification"] < 1.0
    assert main(["run", str(path), "--force", "--out", str(tmp_path / "out")]) == EXIT_OK


def test_spectrum_command(scenario_file, capsys):
    code = main(["spectrum", str(scenario_file)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_hurwitz"] is True
    assert doc["max_real_part"] < 0.0
    assert len(doc["eigenvalues"]) == 8  # 2 followers x d=2, doubled by xi
    assert doc["convergence_horizon"] == pytest.approx(
        12.0 / abs(doc["max_real_part"])
    )


def test_batch_runs_and_reports_worst_code(scenario_file, tmp_path, capsys):
    floppy = tmp_path / "floppy.json"
    floppy.write_text(json.dumps(
        small_doc(edges=[["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    ))
    out_root = tmp_path / "batch"
    code = main([
        "batch", str(scenario_file), str(floppy), "--out", str(out_root),
    ])
    out = capsys.readouterr().out
    assert code == EXIT_VALIDATION
    assert "ok" in out and "FAILED" in out
    assert (out_root / "square" / "summary.json").exists()
    assert not (out_root / "floppy").exists()


def test_batch_parallel_workers(scenario_file, tmp_path):
    other = tmp_path / "square2.json"
    other.write_text(json.dumps(small_doc(seed=9)))
    out_root = tmp_path / "batch"
    code = main([
        "batch", str(scenario_file), str(other),
        "--out", str(out_root), "--workers", "2", "--decimate", "10",
    ])
    assert code == EXIT_OK
    assert (out_root / "square" / "trajectory.csv").exists()
    assert (out_root / "square2" / "trajectory.csv").exists()


def test_batch_keeps_finished_results_when_an_output_fails(scenario_file, tmp_path, capsys):
    other = tmp_path / "square2.json"
    other.write_text(json.dumps(small_doc(seed=9)))
    out_root = tmp_path / "batch"
    out_root.mkdir()
    (out_root / "square2").touch()  # a file where the bundle directory goes
    code = main([
        "batch", str(scenario_file), str(other), "--out", str(out_root),
        "--decimate", "50",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_INPUT
    assert lines[0].startswith("ok") and "square.json" in lines[0]
    assert lines[1].startswith("FAILED") and "square2.json" in lines[1]
    assert (out_root / "square" / "summary.json").exists()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_forks_no_more_workers_than_scenarios(scenario_file, tmp_path, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    other = tmp_path / "square2.json"
    other.write_text(json.dumps(small_doc(seed=9)))
    out_root = tmp_path / "batch"
    code = main([
        "batch", str(scenario_file), str(other), "--out", str(out_root),
        "--workers", "64", "--decimate", "50",
    ])
    assert code == EXIT_OK
    assert forks == [os.getpid()]
    # one scenario runs in this process, without forking
    assert main(["batch", str(scenario_file), "--out", str(out_root),
                 "--workers", "64", "--decimate", "50"]) == EXIT_OK
    assert forks == [os.getpid()]
    _assert_no_child_left()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("failing", [0, 1])
def test_batch_raises_an_unmapped_error_as_at_one_worker(workers, failing, tmp_path,
                                                          monkeypatch, capsys):
    names = [str(tmp_path / f"s{k}.json") for k in range(2)]

    def stub(task):
        if task[0] == names[failing]:
            raise LookupError(f"stub refused {task[0]}")
        return task[0], EXIT_OK, "stub"

    monkeypatch.setattr(bmv.cli, "_batch_one", stub)
    with pytest.raises(LookupError) as info:
        main(["batch", *names, "--workers", workers, "--out", str(tmp_path / "b")])
    assert type(info.value) is LookupError
    assert str(info.value) == f"stub refused {names[failing]}"
    assert capsys.readouterr().out == ""
    _assert_no_child_left()


def test_batch_raises_the_error_a_child_reports(tmp_path, monkeypatch):
    # this process holds its task until a child has raised on the other one
    parent, raised = os.getpid(), tmp_path / "raised"

    def stub(task):
        if os.getpid() != parent:
            raised.touch()
            raise LookupError("stub refused in a child")
        deadline = time.monotonic() + 60
        while not raised.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return task[0], EXIT_OK, "stub"

    monkeypatch.setattr(bmv.cli, "_batch_one", stub)
    with pytest.raises(LookupError, match="^stub refused in a child$"):
        main(["batch", "a.json", "b.json", "--workers", "2", "--out", str(tmp_path / "b")])
    assert raised.exists()
    _assert_no_child_left()


@pytest.mark.parametrize("fork, count, workers, expected", [
    ("dies", 2, 2, "RuntimeError"),
    # more task numbers than a pipe holds, which this process takes alone
    ("dies", 20_000, 2, "RuntimeError"),
    # the second fork is refused: an input error, and the first child ends
    ("fails", 3, 3, "exit 2"),
])
def test_batch_ends_when_a_child_dies_or_a_fork_fails(fork, count, workers, expected, tmp_path):
    src = Path(bmv.__file__).resolve().parents[1]
    probe = (
        "import contextlib, errno, io, os, sys\n"
        "import bmv.cli\n"
        "real_fork, forks = os.fork, []\n"
        "def fork():\n"
        "    forks.append(os.getpid())\n"
        "    if sys.argv[1] == 'fails' and len(forks) == 2:\n"
        "        raise OSError(errno.EAGAIN, 'fork refused')\n"
        "    pid = real_fork()\n"
        "    if pid == 0 and sys.argv[1] == 'dies':\n"
        "        os._exit(3)\n"
        "    return pid\n"
        "os.fork = fork\n"
        "bmv.cli._batch_one = lambda task: (task[0], 0, 'stub')\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "         contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = bmv.cli.main(sys.argv[2:])\n"
        "    print('exit', code)\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    argv = [fork, "batch", *(f"s{k}.json" for k in range(count)), "--workers", str(workers),
            "--out", str(tmp_path / "batch")]
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    assert len(out) == 2, out
    if expected == "RuntimeError":
        assert out[0].startswith("RuntimeError batch worker ")
        assert out[0].endswith(" ended without reporting its results")
    else:
        assert out[0] == expected
    assert out[1] == "no child left"


def test_batch_passes_more_tasks_and_results_than_a_pipe_holds(tmp_path, monkeypatch, capsys):
    # 20,000 task numbers are 80,000 bytes, and the results are larger still;
    # a pipe holds 65,536 bytes
    names = [f"s{k:05d}.json" for k in range(20_000)]
    monkeypatch.setattr(bmv.cli, "_batch_one", lambda task: (task[0], EXIT_OK, "stub"))
    code = main(["batch", *names, "--workers", "2", "--out", str(tmp_path / "b")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [f"ok     {name}: stub" for name in names]
    _assert_no_child_left()


@pytest.mark.parametrize("count, threads", [(2, 0), (128, 0), (129, 1)])
def test_batch_feeds_the_queue_from_a_thread_only_past_128_tasks(count, threads, tmp_path,
                                                                 monkeypatch, capsys):
    # 128 task numbers are 512 bytes, which any pipe holds: they are written
    # before forking, so every process starts at once
    started, start = [], threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(bmv.cli, "_batch_one", lambda task: (task[0], EXIT_OK, "stub"))
    names = [f"s{k:03d}.json" for k in range(count)]
    assert main(["batch", *names, "--workers", "2", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [f"ok     {name}: stub" for name in names]
    assert len(started) == threads
    _assert_no_child_left()


def test_batch_runs_the_largest_file_first(tmp_path, monkeypatch, capsys):
    # files of 10, 30, 20 and 30 bytes and one that cannot be read: largest
    # first, ties in input order, and the lines still in input order
    names = []
    for k, size in enumerate([10, 30, 20, 30]):
        names.append(str(tmp_path / f"s{k}.json"))
        Path(names[-1]).write_text("x" * size)
    names.insert(2, str(tmp_path / "missing.json"))
    ran = []

    def stub(task):
        ran.append(task[0])
        return task[0], EXIT_OK, "stub"

    monkeypatch.setattr(bmv.cli, "_batch_one", stub)
    assert main(["batch", *names, "--workers", "1", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert ran == [names[k] for k in (1, 4, 3, 0, 2)]
    assert capsys.readouterr().out.splitlines() == [f"ok     {name}: stub" for name in names]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_batch_reports_a_path_it_cannot_read(scenario_file, tmp_path, capsys, workers):
    missing = tmp_path / "missing.json"
    code = main(["batch", str(missing), str(scenario_file), "--out", str(tmp_path / "b"),
                 "--workers", workers, "--decimate", "50"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_INPUT
    assert lines[0].startswith(f"FAILED {missing}: ") and ": cannot read: " in lines[0]
    assert lines[1].startswith(f"ok     {scenario_file}: bearing_error=")
    assert len(lines) == 2
    _assert_no_child_left()


def test_run_refuses_unbounded_step_count(scenario_file, tmp_path, capsys):
    # 1e9 steps would need 1.2e10 floats; the run must refuse before allocating
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code = main(["run", str(scenario_file), "--dt", "1e-9", "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_VALIDATION
    assert elapsed < 1.0
    assert peak < 16 * 2**20
    assert "about 1e+09 steps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_formation_too_large_for_dense_matrices_ends_in_one_line(tmp_path):
    # a 3-D chain of 5,000 agents: its Laplacian alone would be 15,000 wide
    # (1.7 GiB), and every command refuses it before building anything.  The
    # 1 GiB address-space cap makes a build that is attempted fail at once.
    ids = [f"a{k}" for k in range(5_000)]
    doc = small_doc(
        dimension=3,
        agents=[{"id": a, "role": "leader" if k < 2 else "follower"} for k, a in enumerate(ids)],
        reference_positions={a: [float(k), float(k % 2), 0.0] for k, a in enumerate(ids)},
        edges=[[a, b] for a, b in zip(ids, ids[1:])],
        schedule=[{"t0": 0.0, "t1": 1.0}])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
             "import bmv.cli\n"
             "print([bmv.cli.main(argv.split()) for argv in sys.argv[1:]])\n")
    argv = [f"check {path}", f"spectrum {path}", f"run {path} --out {tmp_path / 'out'}"]
    src = Path(bmv.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                          timeout=60)
    assert (done.returncode, done.stdout) == (EXIT_OK, f"{[EXIT_VALIDATION] * 3}\n"), done.stderr
    line = ("error: a formation of n = 5000 agents and m = 4999 edges in d = 3 dimensions "
            "needs matrices of 225000000 entries, more than the 67108864 it may have\n")
    assert done.stderr == line * 3
    assert not (tmp_path / "out").exists()


def test_an_oversized_document_is_refused_before_any_agent_is_read(tmp_path, capsys,
                                                                  monkeypatch):
    # a 3-D chain of 3,000 agents: the lengths of agents and edges already
    # exceed the dense-matrix bound, so parsing ends there, with the line
    # sim.structure gives a library caller
    ids = [f"a{k}" for k in range(3_000)]
    doc = small_doc(
        dimension=3,
        agents=[{"id": a, "role": "leader" if k < 2 else "follower"} for k, a in enumerate(ids)],
        reference_positions={a: [float(k), float(k % 2), 0.0] for k, a in enumerate(ids)},
        edges=[[a, b] for a, b in zip(ids, ids[1:])],
        schedule=[{"t0": 0.0, "t1": 5.0, "vc": [0.1, 0.0, 0.0], "scale_rate": 0.0}])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))

    def read(*args):
        raise AssertionError("an agent was read")

    monkeypatch.setattr(bmv.cli, "_as_vector", read)
    monkeypatch.setattr(bmv.cli, "_trajectory_header", read)
    assert main(["check", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: a formation of n = 3000 agents and m = 2999 edges in d = 3 dimensions "
        "needs matrices of 81000000 entries, more than the 67108864 it may have\n")


@pytest.mark.parametrize("command, code", [("spectrum", EXIT_OK), ("run", EXIT_VALIDATION)])
def test_a_subnormal_dt_is_counted_without_overflow(tmp_path, capsys, command, code):
    # the 2-D bundle's 24 s at dt = 5e-324 is an infinite number of steps,
    # which spectrum never counts and run refuses in one line
    path = str(bundled_scenario_path("narrow_passage_2d"))
    flags = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, path, "--dt", "5e-324", *flags]) == code
    err = capsys.readouterr().err
    if command == "run":
        assert err == ("error: the run takes about inf steps of 20 floats each, more than the "
                       "67108864 floats a run may step through\n")
        assert not (tmp_path / "o").exists()
    else:
        assert err == ""


@pytest.mark.parametrize("dt", ["0.2", "1e+300"])
def test_run_refuses_a_step_past_the_rk4_stability_limit(tmp_path, capsys, dt):
    # dt * max|lambda| is 7.4 at dt = 0.2 and 2.6 at dt = 0.07, and RK4 is
    # stable on the negative real axis up to 2.785
    path = str(bundled_scenario_path("narrow_passage_2d"))
    assert main(["run", path, "--dt", dt, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: dt = {dt} ")
    assert "largest stable dt is about 0.0753" in err
    assert not (tmp_path / "o").exists()
    code = main(["batch", path, "--dt", "0.2", "--out", str(tmp_path / "b")])
    assert code == EXIT_VALIDATION and not (tmp_path / "b").exists()
    out = tmp_path / "ok"
    assert main(["run", path, "--dt", "0.07", "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 < summary["integration"]["max_step_amplification"] < 1.0
    assert summary["final"]["tracking_error"] < 1e-6


@pytest.mark.parametrize("command", ["spectrum", "run"])
@pytest.mark.parametrize("key, value", [("vc", [1e300, 0.0]), ("scale_rate", 1e300)])
def test_run_refuses_a_schedule_past_the_coordinate_limit(tmp_path, capsys, key, value,
                                                          command):
    # the leaders would pass 1e150 and their bearings would overflow; spectrum
    # checks the schedule on the targets run steps from, and refuses it alike
    doc = json.loads(bundled_scenario_path("narrow_passage_2d").read_text())
    doc["schedule"][0][key] = value
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *out]) == EXIT_VALIDATION
    assert tuple(capsys.readouterr()) == (
        "", f"error: schedule[0] would carry the leaders beyond {COORDINATE_LIMIT:g}\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("gains", [{"kp": 1e300, "ki": 1e300}, {"kp": 1e200, "ki": 1.0}])
def test_run_refuses_gains_past_the_limit(tmp_path, gains):
    # such gains would overflow the closed-loop spectrum, and with it the
    # search for a stable step
    doc = json.loads(bundled_scenario_path("narrow_passage_2d").read_text())
    doc["gains"] = gains
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    src = Path(bmv.__file__).resolve().parents[1]
    failed = subprocess.run(
        [sys.executable, "-m", "bmv.cli", "run", str(path), "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=30,
    )
    assert failed.returncode == EXIT_INPUT
    assert failed.stderr.count("\n") == 1
    assert failed.stderr.startswith(f"error: {path}: gains: k_p must be positive and at most")
    assert not (tmp_path / "o").exists()


def test_run_refuses_a_step_too_long_for_a_lightly_damped_mode(tmp_path, capsys):
    # kp = 1e-12, ki = 1e10 put the modes near +-2.2e5 i with damping near
    # 1e-12; RK4 at dt = 1e-3 would multiply them by about 1e8 a step
    doc = json.loads(bundled_scenario_path("narrow_passage_2d").read_text())
    doc["gains"] = {"kp": 1e-12, "ki": 1e10}
    path = tmp_path / "damped.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["max_step_amplification"] > 1e7
    src = Path(bmv.__file__).resolve().parents[1]
    failed = subprocess.run(
        [sys.executable, "-m", "bmv.cli", "run", str(path), "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=30,
    )
    assert failed.returncode == EXIT_VALIDATION
    assert failed.stderr.count("\n") == 1 and "Warning" not in failed.stderr
    assert failed.stderr.startswith("error: dt = 0.001 is unstable")
    assert failed.stderr.endswith("largest stable dt is about 1.27e-05\n")
    assert not (tmp_path / "o").exists()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("dt, stable", [("0.2", False), ("0.07", True), ("1e+300", None)])
def test_spectrum_reports_the_step_amplification(dt, stable, capsys):
    path = str(bundled_scenario_path("narrow_passage_2d"))
    assert main(["spectrum", path, "--dt", dt]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    amplification = doc["max_step_amplification"]
    if stable is None:  # overflowed: null, not Infinity
        assert amplification is None
    else:
        assert (amplification < 1.0) == stable


def bundle_doc(**overrides):
    """The 2-D bundle's document with top-level fields replaced."""
    doc = json.loads(bundled_scenario_path("narrow_passage_2d").read_text())
    doc.update(overrides)
    return doc


# Gains that round the real part of every closed-loop eigenvalue to 0 (kp
# subnormal, so -kp mu / 2 underflows), and that put it at -5e-324.
UNDAMPED = bundle_doc(gains={"kp": 5e-324, "ki": 1e4}, dt=0.1, duration=5.0,
                      schedule=[{"t0": 0.0, "t1": 5.0}])
BARELY_STABLE = [bundle_doc(gains={"kp": 1.0, "ki": 5e-324}),
                 bundle_doc(gains={"kp": 5e-324, "ki": 0.0})]


def test_run_refuses_a_step_too_long_for_an_undamped_mode(tmp_path, capsys):
    # the modes sit near +-222i: RK4 at dt = 0.1 multiplies them by 1e4 a step
    path = tmp_path / "undamped.json"
    path.write_text(json.dumps(UNDAMPED))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", str(path)]) == EXIT_OK
        spectrum = json.loads(capsys.readouterr().out)
        assert spectrum["max_real_part"] == 0.0 and spectrum["max_step_amplification"] > 1e3
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: dt = 0.1 is unstable")
    assert err.endswith("largest stable dt is about 0.0127\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", BARELY_STABLE, ids=["ki", "kp"])
def test_spectrum_gives_no_horizon_unless_the_loop_is_hurwitz(tmp_path, capsys, doc):
    # 12 / 5e-324 would overflow to Infinity
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", str(path)]) == EXIT_OK
    spectrum = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert spectrum["is_hurwitz"] is False
    assert spectrum["convergence_horizon"] is None


def test_a_non_finite_value_ends_in_one_line_not_invalid_json(scenario_file, tmp_path, capsys,
                                                              monkeypatch):
    # the summary's last target scale is inf; the first one seeds the start
    schedule = [{"t0": 0.0, "t1": 0.5, "vc": [0.1, 0.0]}, {"t0": 0.5, "t1": 5.0}]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(small_doc(schedule=schedule)))
    assemble = bmv.cli.assemble

    def inflated(*args):
        ctx = assemble(*args)
        *first, last = ctx.segments
        ctx.segments = (*first, last._replace(target_scale=math.inf))
        return ctx

    monkeypatch.setattr(bmv.cli, "assemble", inflated)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not JSON compliant: inf" in err
    assert not (tmp_path / "o").exists()
    stuck = HurwitzReport(False, 0.0, np.array([complex(math.nan, 1.0)]))
    monkeypatch.setattr(bmv.controller, "closed_loop_spectrum", lambda mu, gains: stuck)
    assert main(["spectrum", str(scenario_file)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1


# Gains log-uniform from the smallest subnormal to GAIN_LIMIT.
GAINS = st.floats(-323.3, math.log10(GAIN_LIMIT)).map(lambda e: 10.0 ** e)


@st.composite
def cli_calls(draw):
    """``run`` or ``spectrum`` on the unit square, drawn at any size, gains,
    dt and leader motion, over a run of at most a few hundred steps, its
    agents named by any text, lone surrogates included."""
    size = 10.0 ** draw(st.floats(-100.0, math.log10(COORDINATE_LIMIT)))
    dt = 10.0 ** draw(st.floats(-6.0, 0.0))
    duration = dt * draw(st.floats(0.5, 300.0))
    doc = small_doc(
        reference_positions={k: [size * x for x in p]
                             for k, p in small_doc()["reference_positions"].items()},
        gains={"kp": draw(GAINS), "ki": draw(st.just(0.0) | GAINS)},
        schedule=[{"t0": 0.0, "t1": duration,
                   "vc": [size * draw(st.floats(-10.0, 10.0)) for _ in range(2)],
                   "scale_rate": draw(st.floats(-1.0, 1.0))}],
        dt=dt, duration=duration,
    )
    ids = st.text(st.characters(exclude_categories=()), min_size=1, max_size=4)
    doc = _relabelled(doc, draw(st.lists(ids, min_size=4, max_size=4, unique=True)))
    if draw(st.booleans()):
        return doc, ["spectrum"]
    return doc, ["run", "--dump-xi", "--decimate", str(draw(st.integers(1, 5)))]


def _finite_table(path):
    """Whether the CSV at path reads back as a table of finite values under a
    header of distinct names as wide as every row."""
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    return (len(set(header)) == len(header) and all(len(row) == len(header) for row in rows)
            and np.all(np.isfinite(np.array(rows, dtype=float))))


@settings(max_examples=60, deadline=None)
@given(call=cli_calls())
@example(call=(UNDAMPED, ["run", "--dump-xi"]))
@example(call=(BARELY_STABLE[0], ["spectrum"]))
@example(call=(BARELY_STABLE[1], ["spectrum"]))
@example(call=(_relabelled(small_doc(), ["a", "b", "c,1", "d"]), ["run", "--dump-xi"]))
@example(call=(_relabelled(small_doc(), ["a", "b", "centroid", "d"]), ["run", "--dump-xi"]))
def test_every_input_ends_in_a_bundle_or_one_line(call):
    # exit 0 with finite CSV tables and strict JSON, or exit 1 or 2 with
    # exactly one line on stderr; never a warning and never a traceback.  A
    # library run of the same scenario succeeds when bmv run does, and ends
    # in the same line when bmv run refuses the dt.
    doc, (command, *flags) = call
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        if command == "run":
            flags += ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, str(path), *flags])
        if command == "run":
            every = bmv.cli.build_parser().parse_args([command, str(path), *flags]).decimate
            _library_run_agrees(path, every, code, stderr.getvalue())
        if code != EXIT_OK:
            assert code in (EXIT_VALIDATION, EXIT_INPUT)
            assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().startswith("error: ")
            return
        assert stderr.getvalue() == ""
        if command == "spectrum":
            json.loads(stdout.getvalue(), parse_constant=_no_constant)
            return
        json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
        assert _finite_table(out / "trajectory.csv") and _finite_table(out / "xi.csv")


def _library_run_agrees(path, every, code, stderr):
    """A library run of the scenario at path, kept every ``every`` steps, ends
    as ``bmv run`` did with exit ``code`` and ``stderr``: it succeeds when the
    command did, and raises the command's line when it refused the dt."""
    if code == EXIT_OK:
        run(assemble(load_scenario(path).scenario), every)
    elif (code == EXIT_VALIDATION and stderr.startswith("error: dt = ")
          and " is unstable: " in stderr):
        with pytest.raises(ValueError) as raised:
            run(assemble(load_scenario(path).scenario), every)
        assert f"error: {raised.value}\n" == stderr


def test_a_library_run_refuses_the_dt_bmv_run_refuses(tmp_path, capsys):
    # the 2-D bundle at dt = 0.2, past RK4's step bound, integrates nothing
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(bundle_doc(dt=0.2)))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: dt = 0.2 is unstable: one RK4 step multiplies a mode by up to ")
    assert err.endswith("; the largest stable dt is about 0.07533\n")
    with pytest.raises(ValueError) as raised:
        run(assemble(load_scenario(path).scenario))
    assert f"error: {raised.value}\n" == err


class Symmetry(NamedTuple):
    """p -> a R(theta) p + a beta, time scaled by c, and the agents and edges
    listed in the orders ``agents`` and ``edges`` (indices into the
    document's lists, or None to keep them), acting on the document ``name``
    of SYMMETRY_DOCS, or on the random one ``formation`` draws when ``name``
    is "random"."""

    name: str
    formation: tuple[int, ...] = ()  # n, leaders, seed
    a: float = 1.0
    beta: tuple[float, float] = (0.0, 0.0)
    c: float = 1.0
    theta: float = 0.0
    agents: tuple[int, ...] | None = None
    edges: tuple[int, ...] | None = None


def _moved(doc, sym: Symmetry):
    """doc with every position p moved to a R p + a beta, every velocity
    turned to a R v, and its agents and edges reordered as sym says."""
    doc = json.loads(json.dumps(doc))
    cos, sin = math.cos(sym.theta), math.sin(sym.theta)
    linear = sym.a * np.array([[cos, -sin], [sin, cos]])
    shift = sym.a * np.array(sym.beta)

    def move(p):
        return list(linear @ p + shift)

    doc["reference_positions"] = {k: move(p) for k, p in doc["reference_positions"].items()}
    for agent in doc["agents"]:
        if "initial" in agent:
            agent["initial"] = move(agent["initial"])
    for seg in doc["schedule"]:
        seg["vc"] = list(linear @ seg["vc"])
    if sym.agents is not None:
        doc["agents"] = [doc["agents"][k] for k in sym.agents]
    if sym.edges is not None:
        doc["edges"] = [doc["edges"][k] for k in sym.edges]
    return doc


def _rescaled(doc, c):
    """doc with time scaled by c: every time and dt times c, k_p / c, k_i / c^2,
    and every velocity and scale rate divided by c."""
    doc = json.loads(json.dumps(doc))
    for seg in doc["schedule"]:
        seg.update(t0=c * seg["t0"], t1=c * seg["t1"], vc=[v / c for v in seg["vc"]],
                   scale_rate=seg["scale_rate"] / c)
    doc.update(dt=c * doc["dt"], duration=c * doc["duration"],
               gains={"kp": doc["gains"]["kp"] / c, "ki": doc["gains"]["ki"] / c**2})
    return doc


class Outcome(NamedTuple):
    checked: int
    verdicts: list
    code: int
    summary: dict | None
    final: np.ndarray | None  # the last row's positions


def _outcome(doc) -> Outcome:
    """``check`` and ``run`` of doc in process, with warnings as errors."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            checked = main(["check", str(path)])
            code = main(["run", str(path), "--out", str(out), "--decimate", str(2**62)])
        # lambda_min_ff is printed to 7 digits, which rounding may move
        verdicts = [line for line in printed.getvalue().splitlines()[:6]
                    if not line.startswith("lambda_min_ff")]
        if code != EXIT_OK:
            return Outcome(checked, verdicts, code, None, None)
        width = len(doc["agents"]) * doc["dimension"]
        rows = (out / "trajectory.csv").read_text().splitlines()
        final = np.array(rows[-1].split(",")[1 : 1 + width], dtype=float)
        return Outcome(checked, verdicts, code, json.loads((out / "summary.json").read_text()),
                       final)


def _started(doc):
    """doc with an explicit start: the leaders at their reference positions,
    and follower k moved from its reference by 0.1 (cos 2k, sin 3k)."""
    doc = json.loads(json.dumps(doc))
    followers = [agent for agent in doc["agents"] if agent["role"] == "follower"]
    for agent in doc["agents"]:
        agent["initial"] = list(doc["reference_positions"][agent["id"]])
    for k, agent in enumerate(followers):
        agent["initial"] = [agent["initial"][0] + 0.1 * math.cos(2 * k),
                            agent["initial"][1] + 0.1 * math.sin(3 * k)]
    return doc


# The unit square with a scaling second segment, and the 2-D bundle, each
# also with an explicit start: a seeded start follows translations and
# scales, but not rotations or a new order of the agents.  Both list their
# leaders first.
SQUARE = small_doc(schedule=[
    {"t0": 0.0, "t1": 0.3, "vc": [0.1, 0.0], "scale_rate": 0.0},
    {"t0": 0.3, "t1": 5.0, "vc": [0.0, 0.1], "scale_rate": 0.2}])
SYMMETRY_DOCS = {"square": SQUARE, "bundle": bundle_doc(),
                 "square started": _started(SQUARE), "bundle started": _started(bundle_doc())}


@pytest.fixture(scope="module")
def unmoved() -> dict[str, Outcome]:
    return {name: _outcome(doc) for name, doc in SYMMETRY_DOCS.items()}


def _random_formation(n, leaders, seed):
    """conftest.random_formation in the plane, drawn as the follower-solve
    properties draw theirs."""
    return random_formation(np.random.default_rng(seed), n, 2, n_leaders=min(leaders, n - 1),
                            edge_prob=0.8)


def _document(sym: Symmetry) -> dict:
    """The document sym acts on.  A random formation is started, and runs the
    square's schedule."""
    if sym.name != "random":
        return SYMMETRY_DOCS[sym.name]
    graph, ref = _random_formation(*sym.formation)
    ids = [f"a{k}" for k in range(graph.n)]
    return _started(small_doc(
        agents=[{"id": id_, "role": "leader" if graph.is_leader(k) else "follower"}
                for k, id_ in enumerate(ids)],
        reference_positions=dict(zip(ids, ref.points.tolist())),
        edges=[[ids[i], ids[j]] for i, j in graph.edges],
        schedule=SQUARE["schedule"],
    ))


@st.composite
def formations(draw):
    """(n, leaders, seed) of a random formation that is rigid and whose
    followers the leaders pin down, filtered as the follower-solve
    properties filter theirs."""
    formation = (draw(st.integers(3, 7)), draw(st.integers(2, 4)),
                 draw(st.integers(0, 2**32 - 1)))
    graph, ref = _random_formation(*formation)
    loc = bearing_laplacian(graph, BearingSpec.from_configuration(graph, ref)).localizability
    assume(rigidity_report(graph, ref).is_infinitesimally_bearing_rigid)
    assume(loc.localizable and loc.min_eigenvalue > 1e-3)
    return formation


@st.composite
def symmetries(draw):
    """A Symmetry of one kind: a translation with a spatial scale, a time
    scale, a rotation, or a new order of the agents within each role and of
    the edges.  The last two act on the started documents only, and each
    kind on a random formation too."""
    kind = draw(st.sampled_from(["space", "time", "rotation", "order"]))
    started = sorted(name for name in SYMMETRY_DOCS if name.endswith("started"))
    name = draw(st.sampled_from(
        [*(sorted(SYMMETRY_DOCS) if kind in ("space", "time") else started), "random"]))
    formation = draw(formations()) if name == "random" else ()
    if kind == "space":
        return Symmetry(name, formation, a=10.0 ** draw(st.floats(-12.0, 12.0)), beta=draw(
            st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))))
    if kind == "time":
        return Symmetry(name, formation, c=10.0 ** draw(st.floats(-8.0, 4.0)))
    if kind == "rotation":
        return Symmetry(name, formation, theta=draw(st.floats(-math.pi, math.pi)))
    doc = _document(Symmetry(name, formation))
    agents = list(range(len(doc["agents"])))
    for role in ("leader", "follower"):
        slots = [k for k, agent in enumerate(doc["agents"]) if agent["role"] == role]
        for k, j in zip(slots, draw(st.permutations(slots))):
            agents[k] = j
    edges = draw(st.permutations(range(len(doc["edges"]))))
    return Symmetry(name, formation, agents=tuple(agents), edges=tuple(edges))


def _spectrum_times(summary, c):
    """The closed-loop eigenvalues times c, as sorted real and imaginary parts:
    sorting each alone keeps near-equal eigenvalues from trading places."""
    eigenvalues = c * np.array(summary["spectrum"]["eigenvalues"])
    return np.sort(eigenvalues[:, 0]), np.sort(eigenvalues[:, 1])


@settings(max_examples=100, deadline=None)
@given(symmetry=symmetries())
@example(symmetry=Symmetry("square", c=1e-6))  # a float-walked clock lost a step
@example(symmetry=Symmetry("bundle", a=1e-9))  # an absolute decay-fit floor
@example(symmetry=Symmetry("square", a=1e-12))  # a refused leader near the centroid
@example(symmetry=Symmetry("bundle started", theta=math.pi / 2))
@example(symmetry=Symmetry("bundle started", agents=(1, 0, 5, 4, 3, 2),
                           edges=tuple(range(14, -1, -1))))
def test_units_change_no_result(unmoved, symmetry):
    # bearings ignore p -> a p + b and turn with the formation, the closed
    # loop maps onto itself when time is scaled by c with the gains and
    # rates, and the agents' order is only a labelling: the verdicts, the
    # step count, lambda_min, the spectrum and the decay rate times c, and
    # the final positions stay the same
    doc = _document(symmetry)
    base = unmoved[symmetry.name] if symmetry.name in unmoved else _outcome(doc)
    moved = _outcome(_rescaled(_moved(doc, symmetry), symmetry.c))
    assert base.code == EXIT_OK
    assert (moved.checked, moved.verdicts, moved.code) == (base.checked, base.verdicts, EXIT_OK)
    assert moved.summary["integration"]["samples"] == base.summary["integration"]["samples"]
    # lambda_min and the spectrum moved by at most 3e-15 and 9e-16 of their scale
    assert moved.summary["localizability"]["lambda_min_ff"] == pytest.approx(
        base.summary["localizability"]["lambda_min_ff"], rel=1e-12)
    radius = np.abs(np.array(base.summary["spectrum"]["eigenvalues"])).max()
    for part, expected in zip(_spectrum_times(moved.summary, symmetry.c),
                              _spectrum_times(base.summary, 1.0)):
        np.testing.assert_allclose(part, expected, rtol=0, atol=1e-12 * radius)
    # the bundle's fit reads tracking errors near 2e-9 of its coordinates, whose
    # rounding does not scale with them: over 400 draws the rate moved by 7e-8
    assert moved.summary["decay_fit"]["rate"] * symmetry.c == pytest.approx(
        base.summary["decay_fit"]["rate"], rel=1e-6)
    # equivariance within test_run_is_equivariant_under_translation_and_scaling's
    # tolerance, in the units and the agent order of the unmoved formation
    cos, sin = math.cos(symmetry.theta), math.sin(symmetry.theta)
    points = (moved.final.reshape(-1, 2) - symmetry.a * np.array(symmetry.beta)) / symmetry.a
    points = points @ np.array([[cos, -sin], [sin, cos]])  # turned back by -theta
    expected = base.final.reshape(-1, 2)
    if symmetry.agents is not None:
        expected = expected[list(symmetry.agents)]
    tol = 1e-10 * (2.0 + float(np.abs(symmetry.beta).max()))
    np.testing.assert_allclose(points, expected, rtol=0, atol=tol)


def test_batch_deduplicates_output_names(tmp_path):
    a = tmp_path / "same.json"
    b = tmp_path / "sub"
    b.mkdir()
    b = b / "same.json"
    a.write_text(json.dumps(small_doc()))
    b.write_text(json.dumps(small_doc(seed=8)))
    out_root = tmp_path / "batch"
    code = main(["batch", str(a), str(b), "--out", str(out_root), "--decimate", "50"])
    assert code == EXIT_OK
    assert (out_root / "same").is_dir()
    assert (out_root / "same_2").is_dir()


def test_huge_decimate_keeps_the_first_and_final_rows(tmp_path):
    path = str(bundled_scenario_path("narrow_passage_2d"))
    huge = str(2**64)
    assert main(["run", path, "--out", str(tmp_path / "run"), "--decimate", huge]) == EXIT_OK
    assert main(["batch", path, "--out", str(tmp_path / "batch"), "--decimate", huge]) == EXIT_OK
    for csv in (tmp_path / "run", tmp_path / "batch" / "narrow_passage_2d"):
        rows = (csv / "trajectory.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 24.0]


def test_rejects_nonpositive_decimate(scenario_file, capsys):
    with pytest.raises(SystemExit):
        main(["run", str(scenario_file), "--decimate", "0"])


@pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "inf"])
def test_bad_dt_override_is_an_input_error(scenario_file, capsys, dt):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(scenario_file), "--dt", dt])
    assert exc.value.code == EXIT_INPUT
    assert "--dt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "spectrum"])
def test_negative_seed_override_is_an_input_error(scenario_file, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(scenario_file), "--seed", "-1"])
    assert exc.value.code == EXIT_INPUT
    assert "--seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the console script, which ends its process and so runs in a subprocess

def _console(*args, stdout=subprocess.PIPE, env=None):
    """Run the ``bmv`` console script: (exit code, stdout bytes, stderr text).
    Without PYTHONUNBUFFERED and the like, stdout is block-buffered on a pipe,
    as in a shell pipeline, so the output is written by the final flush.
    ``env`` adds to the environment, which keeps no other PYTHON* variable."""
    src = Path(bmv.__file__).resolve().parents[1]
    kept = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    entry = "import sys; from bmv.cli import script_main; sys.argv[0] = 'bmv'; script_main()"
    done = subprocess.run([sys.executable, "-c", entry, *map(str, args)], stdout=stdout,
                          stderr=subprocess.PIPE,
                          env={**kept, **(env or {}), "PYTHONPATH": str(src)}, timeout=120)
    return done.returncode, done.stdout, done.stderr.decode()


@pytest.mark.parametrize("command", ["check", "spectrum"])
def test_console_stdout_matches_main(command, capsys):
    path = bundled_scenario_path("narrow_passage_3d")
    assert main([command, str(path)]) == EXIT_OK
    assert _console(command, path) == (EXIT_OK, capsys.readouterr().out.encode(), "")


def test_console_run_writes_the_same_bundle(scenario_file, tmp_path):
    code = main(["run", str(scenario_file), "--out", str(tmp_path / "main"), "--dump-xi"])
    assert code == EXIT_OK
    code, _, err = _console("run", scenario_file, "--out", tmp_path / "script", "--dump-xi")
    assert (code, err) == (EXIT_OK, "")
    for name in ("trajectory.csv", "xi.csv", "summary.json"):
        assert (tmp_path / "script" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_bundle_bytes_do_not_depend_on_the_locale(tmp_path):
    # an id outside ASCII, run where the locale's encoding is ASCII
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(small_doc()).replace('"a"', '"\u03b1"'), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "main"), "--dump-xi"]) == EXIT_OK
    ascii_only = {"LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    code, _, err = _console("run", path, "--out", tmp_path / "posix", "--dump-xi",
                            env=ascii_only)
    assert (code, err) == (EXIT_OK, "")
    for name in ("trajectory.csv", "xi.csv", "summary.json"):
        assert (tmp_path / "posix" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
    header = (tmp_path / "posix" / "trajectory.csv").read_bytes().split(b"\n")[0]
    assert header.startswith("t,\u03b1_x,\u03b1_y,".encode())


def test_console_errors_end_in_one_line(tmp_path):
    floppy = tmp_path / "floppy.json"
    cycle = [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]
    floppy.write_text(json.dumps(small_doc(edges=cycle)))
    for args, expected in (
        (["run", floppy, "--out", tmp_path / "o"], EXIT_VALIDATION),
        (["check", tmp_path / "nope.json"], EXIT_INPUT),
    ):
        code, _, err = _console(*args)
        assert code == expected
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_console_output_to_a_closed_pipe_is_an_input_error(scenario_file):
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = _console("check", scenario_file, stdout=write)
    finally:
        os.close(write)
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_out():
    src = Path(bmv.__file__).resolve().parents[1]
    probe = (
        "import sys, bmv.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_no_command_imports_numpy_random(scenario_file, tmp_path):
    # run and batch draw the seeded start without numpy.random; check and
    # spectrum never read the CSV formatter's tables, a batch with more than
    # one worker forks its workers without a process pool, and no command
    # loads logging unless BMV_LOG or --force asks for it
    other = tmp_path / "square2.json"
    other.write_text(json.dumps(small_doc(seed=9)))
    src = Path(bmv.__file__).resolve().parents[1]
    probe = (
        "import contextlib, io, sys\n"
        "import bmv.cli\n"
        "lean = lambda: [m for m in ('concurrent.futures', 'logging', 'multiprocessing',"
        " 'numpy.random') if m in sys.modules]"
        " + ['tables'] * bmv.csvtext._csv_tables.cache_info().currsize\n"
        "seen = [lean()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in sys.argv[1:]:\n"
        "        assert bmv.cli.main(argv.split()) == 0\n"
        "        seen.append(lean())\n"
        "print(seen)\n"
    )
    argv = [f"check {scenario_file}", f"spectrum {scenario_file}",
            f"run {scenario_file} --out {tmp_path / 'out'} --decimate 100",
            f"batch {scenario_file} --out {tmp_path / 'batch'} --workers 1 --decimate 100",
            f"batch {scenario_file} {other} --out {tmp_path / 'pair'} --workers 2 --decimate 100"]
    env = {k: v for k, v in os.environ.items() if k != "BMV_LOG"}
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env={**env, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == str([[], [], [], ["tables"], ["tables"], ["tables"]])


def test_cli_start_leaves_importlib_resources_out(scenario_file):
    # bundled_scenario_path joins the package's own directory; under python -S
    # no site hook imports importlib.resources first, and neither does bmv
    paths = [str(Path(module.__file__).resolve().parents[1]) for module in (bmv, np)]
    probe = (
        "import contextlib, io, sys\n"
        "import bmv.cli\n"
        "seen = ['importlib.resources' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert bmv.cli.main(['check', sys.argv[1]]) == 0\n"
        "print(seen + ['importlib.resources' in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(scenario_file)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[False, False]"
