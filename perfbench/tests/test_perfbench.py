"""Tests of the benchmark's own input generators and a smoke run of each
workload. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pipeline  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from minworld import cli, dcg  # noqa: E402
from minworld.executive import ExecParams, RobotState, navigate  # noqa: E402
from minworld.parse import load_parse_tree  # noqa: E402
from minworld.percept import Scene, visible  # noqa: E402
from minworld.symbols import SymbolSpace  # noqa: E402
from spans import NoSpans  # noqa: E402

ASSOC_RADIUS = 0.5


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Paths of both models, trained as the benchmark trains them."""
    out = tmp_path_factory.mktemp("models")
    paths = {"perception_model": str(out / "perception.json"),
             "behavior_model": str(out / "behavior.json")}
    run.train_models(paths)
    return paths


@pytest.fixture(scope="module")
def perception_model(models):
    return dcg.Model.load(models["perception_model"])


def _trees():
    return [load_parse_tree((workloads.assets_dir() / "trees" / f"{t}.txt")
                            .read_text(encoding="utf-8").strip())
            for t in workloads.TREES]


@pytest.mark.parametrize("n_symbols,seed", [(382, 0), (750, 1), (1507, 2)])
def test_padded_space_keeps_bundled_groundings(perception_model, n_symbols, seed):
    base = json.loads((workloads.assets_dir() / "symbol_space.json").read_text())
    padded = workloads.padded_space(base, n_symbols, random.Random(seed))
    space = SymbolSpace(padded["labels"], padded["hierarchies"], padded["actions"])
    bundled = SymbolSpace(base["labels"], base["hierarchies"], base["actions"])
    assert abs(len(space.perception) - n_symbols) <= 1
    for tree in _trees():
        assert (cli.ground_detectors(tree, perception_model, space)
                == cli.ground_detectors(tree, perception_model, bundled))


@pytest.mark.parametrize("seed", range(5))
def test_clutter_spacing_visibility_and_clear_standoff(seed):
    base = json.loads((workloads.assets_dir() / "door_scene.json").read_text())
    data = workloads.cluttered_scene(base, workloads.CLUTTER_OBJECTS,
                                     random.Random(seed))
    scene = Scene.from_json(data)
    clutter = [o for o in scene.objects if o.label in workloads.CLUTTER_LABELS]
    assert len(clutter) == workloads.CLUTTER_OBJECTS
    for a, b in itertools.combinations(clutter, 2):
        if a.label == b.label:
            gap = math.dist((a.pose.x, a.pose.y), (b.pose.x, b.pose.y))
            assert gap >= workloads.MIN_SAME_LABEL_GAP > ASSOC_RADIUS
    assert all(visible(o, scene.robot_start, scene.visibility) for o in clutter)
    door = next(o for o in scene.objects if o.label == "door")
    # raises NavigationError if any object covers the standoff point
    navigate(RobotState(base=scene.robot_start), door,
             ExecParams().standoff, obstacles=scene.objects)


def test_false_positive_on_the_standoff_point_is_accepted(tmp_path, models):
    # Seed 106 of cluttered_scene: a spurious ball lands on the standoff
    # point of its fourth request, so the drive must stop at dispatch.
    inputs = {**workloads.prepare("cluttered_scene", 106, tmp_path), **models}
    ctx = pipeline.load_context(inputs, NoSpans())
    reference = json.loads(pipeline.REFERENCE.read_text(encoding="utf-8"))
    states = []
    for req in inputs["requests"]:
        out = pipeline.run_request(ctx, req, NoSpans())
        pipeline.check_request(reference, req, out, ctx.scene.robot_start)
        states.append([s.value for s, _ in out.status.trace])
    assert states[3] == ["RECEIVED", "FAILURE"]
    assert states[0] == ["RECEIVED", "NAVIGATING", "COMPLETE"]
    out.status.trace.pop(1)  # a lost transition must still be caught
    with pytest.raises(pipeline.CheckError):
        pipeline.check_request(reference, req, out, ctx.scene.robot_start)


@pytest.mark.parametrize("workload", ["door_tasks", "cluttered_scene"])
def test_check_seed_replay_matches_and_catches_a_changed_world(tmp_path, models,
                                                                workload):
    inputs = {**workloads.prepare(workload, 5, tmp_path / "in"), **models}
    assert pipeline.check_seed_mismatches(inputs, tmp_path / "check") == []
    want = json.loads(pipeline.REFERENCE.read_text(encoding="utf-8"))
    want = want["check_seed"][workload]
    got = json.loads(json.dumps(want))
    got["requests"][0]["world"]["door"] += 1
    got["sim"]["sim.sensing_cost_s"] += 0.1
    assert len(pipeline.replay_mismatches(want, got)) == 2


def test_clutter_fits_the_sweep_range():
    assert len(workloads.clutter_slots(random.Random(0))) >= 130


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_byte_identical_under_a_seed(tmp_path, workload):
    def files(seed, name):
        out = tmp_path / name
        manifest = workloads.prepare(workload, seed, out)
        blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                 if p.name != "inputs.json"}
        return blobs, manifest.get("requests")

    first, second, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == second
    assert first != other


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_errors(workload):
    result = _run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics():
    result = _run("door_tasks", 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["parse.phrases"] == 3.25
    assert metrics["world.integrate_calls"] > 0
    assert metrics["dcg.ground_perception_ms"] > 0


def test_calibration_leaves_numpy_import_in_the_timed_set_up():
    # The worker imports calibrate before it times a set-up, and
    # minworld's import cost is half numpy's.
    code = ("import sys; import calibrate; assert 'numpy' not in sys.modules; "
            "assert calibrate.calibrate() > 0; assert 'numpy' in sys.modules")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                   timeout=60)


def test_end_to_end_metrics_scale_each_chunk_by_its_calibration():
    from calibrate import REFERENCE_MS
    # Two chunks of one request each, the second measured while the host
    # ran at half speed: both scale to the same 10 ms.
    chunk = [[10e6, REFERENCE_MS, [10e6]], [20e6, 2 * REFERENCE_MS, [20e6]]]
    loop = {"passes": [[30e6, False, chunk]], "peak_rss_mb": 40.0,
            "setups": [[{"setup_s": 0.2, "cal_ms": 2 * REFERENCE_MS}]],
            "failed": 0, "attempted": 2}
    units = run.metric_units("end_to_end")
    metrics, extra = run.end_to_end(loop, units)
    assert metrics["latency_ms.p50"] == pytest.approx(10.0)
    assert metrics["throughput_rps"] == pytest.approx(100.0)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert extra["latency_ms.p50_wall"] == pytest.approx(15.0)
