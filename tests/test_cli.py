from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from minworld import cli, dcg
from minworld.cli import build_parser, cmd_bench, main
from minworld.parse import MAX_NESTING
from minworld.world import Aabb, Pose, WorldModel, WorldObject


@pytest.fixture(scope="module")
def trees(assets):
    return {
        "drive": str(assets / "trees" / "drive_to_the_door.txt"),
        "open": str(assets / "trees" / "open_the_door.txt"),
        "turn": str(assets / "trees" / "turn_the_handle_of_the_door.txt"),
    }


@pytest.fixture(scope="module")
def world_file(tmp_path_factory):
    door = WorldObject(1, "door", Pose(5.0, 0.0, 1.0),
                       Aabb((5.0, -0.45, 0.0), (5.05, 0.45, 2.0)))
    handle = WorldObject(2, "door_handle", Pose(5.0, -0.35, 0.95),
                         Aabb((5.0, -0.4, 0.9), (5.04, -0.3, 1.0)), parent=1)
    path = tmp_path_factory.mktemp("worlds") / "world.json"
    path.write_text(json.dumps(WorldModel([door, handle]).to_json()),
                    encoding="utf-8")
    return str(path)


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


# -- package -----------------------------------------------------------------

def test_package_root_imports_no_module():
    # the root holds only __version__; the modules load when imported
    src = str(pathlib.Path(dcg.__file__).resolve().parents[1])
    code = ("import sys, minworld\n"
            "assert 'numpy' not in sys.modules, 'root imported numpy'\n"
            "from minworld import cli, dcg\n"
            "assert cli.main and dcg.train\n")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# -- train -------------------------------------------------------------------

def test_train_perception_model(tmp_path, assets, capsys):
    out = tmp_path / "perception.json"
    code = main(["train", "--corpus", str(assets / "perception_corpus.json"),
                 "--out", str(out), "--json"])
    assert code == 0
    summary = _json_out(capsys)
    assert summary["kind"] == "perception"
    assert summary["recovery"] == 1.0
    assert (summary["converged"], summary["stop"]) == (True, "tol")
    assert summary["grad_norm"] > 0.0
    # one training coordinate per group of identical feature columns
    assert (summary["features"], summary["coordinates"]) == (847, 306)
    data = json.loads(out.read_text())
    assert data["template_version"] == 2
    assert len(data["weights"]) == summary["features"]
    assert not any(n.endswith(("&T", "&F")) for n in data["weights"])


@pytest.mark.parametrize("corpus", ["perception", "behavior"])
def test_train_model_file_does_not_depend_on_the_hash_seed(corpus, tmp_path, assets):
    # the string hash seed orders sets and dicts of strings; the feature
    # numbering, and so the model file, must not follow it
    src = str(pathlib.Path(dcg.__file__).resolve().parents[1])
    files = []
    for seed in ("0", "1"):
        out = tmp_path / f"{corpus}_{seed}.json"
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        subprocess.run([sys.executable, "-c", "from minworld.cli import entry; entry()",
                        "train", "--corpus", str(assets / f"{corpus}_corpus.json"),
                        "--out", str(out)],
                       env=env, check=True, capture_output=True)
        files.append(out.read_bytes())
    assert files[0] == files[1]


def test_train_flag_defaults_are_the_library_defaults():
    # TrainConfig holds exactly what train's flags set
    args = build_parser().parse_args(["train", "--corpus", "c", "--out", "o"])
    want = dataclasses.asdict(dcg.TrainConfig())
    assert list(want) == ["iterations", "step", "l2"]
    assert {name: getattr(args, name) for name in want} == want


@pytest.mark.parametrize("flags", [
    ["--step", "-1"], ["--step", "0"], ["--step", "nan"], ["--iterations", "-3"],
    ["--l2", "-5"], ["--l2", "inf"],
], ids=" ".join)
def test_train_rejects_bad_config_before_reading_corpus(flags, tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main(["train", "--corpus", str(tmp_path / "missing.json"),
                 "--out", str(out), *flags])
    assert code == 1
    assert flags[0][2:] in _one_line_error(capsys, "training")
    assert not out.exists()


def test_train_rejects_bad_corpus(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text('{"kind": "perception"}')
    code = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "error [io]" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("step", ["1e200", "1e308"])
@pytest.mark.parametrize("corpus", ["perception", "behavior"])
def test_train_overflowing_step_exits_training(corpus, step, tmp_path, assets,
                                               capsys):
    # the first trial step overflows the weights or the margins; the
    # non-finite objective prints one line and no numpy warning
    out = tmp_path / "m.json"
    code = main(["train", "--corpus", str(assets / f"{corpus}_corpus.json"),
                 "--out", str(out), "--step", step])
    assert code == 1
    assert _one_line_error(capsys, "training") == \
        "error [training]: iteration 1: non-finite log-likelihood\n"
    assert not out.exists()


def test_train_gold_action_outside_space_exits_io(tmp_path, assets, capsys):
    # the behavior corpus looks at a door, but this space has no look action
    space = json.loads((assets / "symbol_space.json").read_text())
    space["actions"].remove("look")
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code = main(["train", "--corpus", str(assets / "behavior_corpus.json"),
                 "--space", str(path), "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert _one_line_error(capsys, "io").endswith(
        ": gold symbol BehaviorSymbol(action='look', label='door') not in "
        "graph bank\n")


# -- ground ------------------------------------------------------------------

def test_ground_open_instruction(trees, model_dir, capsys):
    code = main(["ground", "--tree", trees["open"],
                 "--model", str(model_dir / "perception.json"), "--json"])
    assert code == 0
    out = _json_out(capsys)
    assert out["instruction"] == "open the door"
    assert out["detectors"] == ["door", "door_handle"]
    assert out["links"] == [["door", "handle"]]


def test_ground_drive_instruction(trees, model_dir, capsys):
    code = main(["ground", "--tree", trees["drive"],
                 "--model", str(model_dir / "perception.json"), "--json"])
    assert code == 0
    out = _json_out(capsys)
    assert out["detectors"] == ["door"]
    assert out["links"] == []


def test_ground_behavior_needs_world(trees, model_dir, capsys):
    code = main(["ground", "--tree", trees["open"],
                 "--model", str(model_dir / "behavior.json")])
    assert code == 1
    capsys.readouterr()


def test_ground_behavior_with_world(trees, model_dir, world_file, capsys):
    code = main(["ground", "--tree", trees["open"],
                 "--model", str(model_dir / "behavior.json"),
                 "--world", world_file, "--json"])
    assert code == 0
    out = _json_out(capsys)
    assert out["action"] == "open"
    assert out["target_label"] == "door"


def test_ground_text_output(trees, model_dir, world_file, capsys):
    assert main(["ground", "--tree", trees["open"],
                 "--model", str(model_dir / "perception.json")]) == 0
    assert capsys.readouterr().out == ("instruction: open the door\n"
                                       "detectors:   door, door_handle\n"
                                       "link:        door -> handle\n")
    assert main(["ground", "--tree", trees["open"],
                 "--model", str(model_dir / "behavior.json"),
                 "--world", world_file]) == 0
    assert capsys.readouterr().out == ("instruction: open the door\n"
                                       "behavior:    open -> object 1 (door)\n")


def test_ground_perception_model_rejects_world(trees, model_dir, capsys):
    # a perception model grounds detectors and never reads the world
    code = main(["ground", "--tree", trees["open"],
                 "--model", str(model_dir / "perception.json"),
                 "--world", "/nonexistent/world.json"])
    assert code == 1
    assert "--world" in _one_line_error(capsys, "io")


def test_ground_zero_model_exits_grounding(tmp_path, trees, assets, capsys):
    flat = tmp_path / "flat.json"
    assert main(["train", "--corpus", str(assets / "perception_corpus.json"),
                 "--out", str(flat), "--iterations", "0"]) == 0
    capsys.readouterr()
    code = main(["ground", "--tree", trees["open"], "--model", str(flat)])
    assert code == 2
    assert "error [grounding]" in capsys.readouterr().err


def test_ground_missing_tree(model_dir, capsys):
    code = main(["ground", "--tree", "/nonexistent/tree.txt",
                 "--model", str(model_dir / "perception.json")])
    assert code == 1
    capsys.readouterr()


def _one_line_error(capsys, stage: str) -> str:
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error [{stage}]: ")
    assert err.count("\n") == 1
    return err


def test_ground_word_with_ampersand_exits_grounding(tmp_path, model_dir, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("(VP (VB open) (NP (DT the) (NN door) (NN a&b)))\n")
    code = main(["ground", "--tree", str(tree),
                 "--model", str(model_dir / "perception.json")])
    assert code == 2
    assert "'word:a&b'" in _one_line_error(capsys, "grounding")


def _rewrite_weights(src, dst, weight_of) -> str:
    data = json.loads(src.read_text())
    data["weights"] = {n: weight_of(n) for n in data["weights"]}
    dst.write_text(json.dumps(data))
    return str(dst)


def test_ground_non_finite_model_weights_exit_io(trees, model_dir, tmp_path,
                                                 capsys):
    bad = _rewrite_weights(model_dir / "perception.json", tmp_path / "nan.json",
                           lambda n: float("nan"))
    assert main(["ground", "--tree", trees["open"], "--model", bad]) == 1
    _one_line_error(capsys, "io")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ground_overflowing_margin_exits_grounding(trees, model_dir, tmp_path,
                                                   capsys):
    # every weight is finite, but the margin of "the door" and the door
    # label is not: two weights on the symbol's label atom sum to inf;
    # one on each of its two atoms overflow numpy's sum of the atoms; or
    # the label atom sums to inf and the category atom to -inf. Each
    # prints one line and no numpy warning.
    big = 1.7e308
    cases = [
        {"word:door&label:door": big, "tag:NN&label:door": big},
        {"word:door&label:door": big, "word:door&category:semantic_label": big},
        {"word:door&label:door": big, "phrase:NP&label:door": big,
         "word:door&category:semantic_label": -big,
         "phrase:NP&category:semantic_label": -big},
    ]
    names = set(json.loads((model_dir / "perception.json").read_text())["weights"])
    for weights in cases:
        assert set(weights) <= names
        huge = _rewrite_weights(model_dir / "perception.json",
                                tmp_path / "huge.json",
                                lambda n: weights.get(n, 0.0))
        assert main(["ground", "--tree", trees["open"], "--model", huge]) == 2
        _one_line_error(capsys, "grounding")


@pytest.mark.parametrize("name", ["word:door", "word:door&label:door&child_none&x"])
def test_ground_non_conjunction_weight_name_exits_io(name, trees, model_dir,
                                                     tmp_path, capsys):
    # checked when the model loads, although inference folds it later
    data = json.loads((model_dir / "perception.json").read_text())
    data["weights"][name] = 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["ground", "--tree", trees["open"], "--model", str(bad)]) == 1
    assert f"feature name {name!r} is not a conjunction" in \
        _one_line_error(capsys, "io")


def test_ground_version_1_model_exits_io(trees, model_dir, tmp_path, capsys):
    # the two-sided format: a weight per conjunction and phi literal
    data = json.loads((model_dir / "perception.json").read_text())
    weights = {}
    for name, w in data["weights"].items():
        weights[f"{name}&T"], weights[f"{name}&F"] = w / 2, -w / 2
    old = tmp_path / "v1.json"
    old.write_text(json.dumps({"template_version": 1, "kind": "perception",
                               "weights": weights}))
    assert main(["ground", "--tree", trees["open"], "--model", str(old)]) == 1
    assert "template version 1" in _one_line_error(capsys, "io")


@pytest.mark.parametrize("text", [
    "{not json",
    '{"objects": [{"id": 1}]}',
    '{"objects": [{"id": 1, "label": "door", "pose": {"x": 0, "y": 0},'
    ' "bbox": {"min": [1, 1, 1], "max": [0, 0, 0]}}]}',
    pytest.param("[]", id="top-level-list"),
    pytest.param('{"objects": {}}', id="objects-not-list"),
    pytest.param('{"objects": [null]}', id="object-null"),
    pytest.param('{"objects": [{"id": 1, "label": "door", "pose": null,'
                 ' "bbox": {"min": [0, 0, 0], "max": [1, 1, 1]}}]}', id="pose-null"),
    pytest.param('{"objects": [{"id": 1, "label": "door", "pose": {"x": null, "y": 0},'
                 ' "bbox": {"min": [0, 0, 0], "max": [1, 1, 1]}}]}', id="pose-x-null"),
    pytest.param('{"objects": [{"id": 1, "label": "door", "pose": {"x": 0, "y": 0},'
                 ' "bbox": {"min": [0, 0], "max": [1, 1, 1]}}]}', id="bbox-2d"),
    pytest.param('{"objects": [{"id": null, "label": "door", "pose": {"x": 0, "y": 0},'
                 ' "bbox": {"min": [0, 0, 0], "max": [1, 1, 1]}}]}', id="id-null"),
])
def test_ground_bad_world_exits_io(text, trees, model_dir, tmp_path, capsys):
    world = tmp_path / "world.json"
    world.write_text(text)
    code = main(["ground", "--tree", trees["open"],
                 "--model", str(model_dir / "behavior.json"), "--world", str(world)])
    assert code == 1
    _one_line_error(capsys, "io")


# -- perceive ----------------------------------------------------------------

def test_perceive_adaptive(tmp_path, capsys):
    out_dir = tmp_path / "sense"
    code = main(["perceive", "--detectors", "door,door_handle",
                 "--links", "door:handle", "--json", "--out-dir", str(out_dir)])
    assert code == 0
    out = _json_out(capsys)
    assert out["metrics"]["avg_period"] == pytest.approx(0.158)
    labels = {o["label"] for o in out["world"]["objects"]}
    assert labels == {"door", "door_handle"}
    assert (out_dir / "world.json").is_file()
    assert (out_dir / "metrics.json").is_file()


def test_perceive_exhaustive(capsys):
    code = main(["perceive", "--exhaustive", "--json"])
    assert code == 0
    out = _json_out(capsys)
    assert out["metrics"]["avg_period"] == pytest.approx(2.060)
    assert out["metrics"]["mode"] == "exhaustive"


def test_perceive_text_output(capsys):
    assert main(["perceive", "--detectors", "door,door_handle",
                 "--links", "door:handle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["mode adaptive, 30 frames, period 0.158 s, total 4.740 s",
                         "active: door, door_handle"]
    (handle,) = [line for line in lines if line.startswith("object 2: ")]
    assert handle.startswith("object 2: door_handle at (")
    assert handle.endswith(") (on 1)")


@pytest.mark.parametrize("flags,flag", [
    (["--detectors", "door", "--links", "door:handle"], "--detectors"),
    (["--links", "door:handle"], "--links"),
], ids=["detectors", "links"])
def test_perceive_exhaustive_rejects_the_adaptive_flags(flags, flag, capsys):
    # the baseline runs its own detectors with no links
    assert main(["perceive", "--exhaustive", *flags]) == 1
    assert flag in _one_line_error(capsys, "io")


def test_perceive_without_detectors_fails(capsys):
    code = main(["perceive"])
    assert code == 3
    assert "error [perception]" in capsys.readouterr().err


def test_perceive_unknown_detector(capsys):
    code = main(["perceive", "--detectors", "window"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("detector,field,bad", [
    ("ball", "frame_cost", float("nan")),
    # a truthy string would put door_handle in the exhaustive baseline
    ("door_handle", "baseline", "false"),
    ("door", "noise_sigma", -0.5),
])
def test_perceive_nan_detector_cost_exits_io(assets, tmp_path, capsys,
                                             detector, field, bad):
    data = json.loads((assets / "detector_registry.json").read_text())
    (entry,) = [d for d in data["detectors"] if d["id"] == detector]
    entry[field] = bad
    registry = tmp_path / "reg_bad.json"
    registry.write_text(json.dumps(data))
    code = main(["perceive", "--registry", str(registry), "--exhaustive", "--json"])
    assert code == 1
    assert field in _one_line_error(capsys, "io")


def test_perceive_overflowing_sensing_cost_exits_perception(assets, tmp_path,
                                                           capsys):
    # each cost passes DetectorSpec, but 30 frames of their sum overflow,
    # and an infinite timestamp is not JSON
    data = json.loads((assets / "detector_registry.json").read_text())
    for entry in data["detectors"]:
        entry["frame_cost"] = 1e307
    registry = tmp_path / "reg_huge.json"
    registry.write_text(json.dumps(data))
    code = main(["perceive", "--registry", str(registry), "--exhaustive", "--json"])
    assert code == 3
    assert "not finite" in _one_line_error(capsys, "perception")


def _frames_deeper(frames: int, fn):
    """``fn()``, called ``frames`` Python frames below this call."""
    return fn() if frames == 0 else _frames_deeper(frames - 1, fn)


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 951])
def test_a_tree_grounds_the_same_at_any_stack_depth(depth, model_dir, tmp_path,
                                                    capsys):
    # a reader that recursed per phrase accepted a 951-bracket tree from
    # the top of the stack and failed it 60 frames deeper
    tree = tmp_path / "deep.txt"
    tree.write_text("(VP (VB open) " + "(NP " * (depth - 2) + "(NN door)"
                    + ")" * (depth - 1))
    argv = ["ground", "--tree", str(tree),
            "--model", str(model_dir / "perception.json")]
    outcomes = []
    for frames in (0, 600):
        code = _frames_deeper(frames, lambda: main(argv))
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if depth <= MAX_NESTING else 1)


# pytest captures warnings, so a numpy warning a shell user would see on
# stderr fails the test instead
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags,name,path", [
    (["--detectors", "door", "--registry"], "detector_registry.json",
     ("detectors", 2, "noise_sigma")),
    (["--detectors", "door", "--seed", "3", "--registry"],
     "detector_registry.json", ("detectors", 2, "noise_sigma")),
    (["--exhaustive", "--scene"], "door_scene.json", ("visibility", "max_range")),
], ids=["noise", "noise-overflow", "range"])
def test_a_detection_past_float_precision_exits_perception(flags, name, path,
                                                           assets, tmp_path,
                                                           capsys):
    # the number is finite, but a door detection moved by that noise, or
    # a spurious one drawn out to that range, has a box of zero volume; at
    # seed 3 the noise itself overflows to inf, with no numpy warning
    data = json.loads((assets / name).read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 1e308
    assert name != "detector_registry.json" or node["id"] == "door"
    (tmp_path / name).write_text(json.dumps(data))
    assert main(["perceive", *flags, str(tmp_path / name)]) == 3
    assert _one_line_error(capsys, "perception").startswith(
        "error [perception]: bad detection: ")


# a JSON integer beyond the float range; once an OverflowError traceback
HUGE = 10 ** 400


@pytest.mark.parametrize("via", ["flag", "config"])
def test_frames_beyond_the_float_range_exit_perception(
        via, trees, model_dir, tmp_path, monkeypatch, capsys):
    # a frame count the cost check let through would start sensing
    def sensed(*args):
        raise AssertionError("the sensing loop started")
    monkeypatch.setattr(cli.percept, "visible", sensed)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "tree": trees["open"], "perception_model": str(model_dir / "perception.json"),
        "behavior_model": str(model_dir / "behavior.json"), "frames": HUGE}))
    argv = (["perceive", "--detectors", "door", "--frames", str(HUGE)] if via == "flag"
            else ["run", "--config", str(config)])
    assert main(argv) == 3
    err = _one_line_error(capsys, "perception")
    assert err.startswith(f"error [perception]: sensing cost of {HUGE} frames at ")
    assert err.endswith(" s a frame is not finite\n")


def test_run_config_sets_tree(trees, model_dir, tmp_path, capsys):
    models = {"perception_model": str(model_dir / "perception.json"),
              "behavior_model": str(model_dir / "behavior.json")}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"tree": trees["open"], **models}))
    sources = {
        "flag": ["--tree", trees["open"], "--perception-model",
                 models["perception_model"], "--behavior-model",
                 models["behavior_model"]],
        "config": ["--config", str(cfg_path)],
    }
    outs = {}
    for name, source in sources.items():
        assert main(["run", *source, "--out-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
        outs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert len(outs["flag"]) == 4
    assert outs["config"] == outs["flag"]


def test_run_without_tree_exits_io(model_dir, capsys):
    code = main(["run", "--perception-model", str(model_dir / "perception.json"),
                 "--behavior-model", str(model_dir / "behavior.json")])
    assert code == 1
    err = _one_line_error(capsys, "io")
    assert err == "error [io]: no instruction tree given (flag or config)\n"


@pytest.mark.parametrize("text", [
    pytest.param("[]", id="top-level-list"),
    pytest.param('{"detectors": {}}', id="detectors-not-list"),
    pytest.param('{"detectors": [null]}', id="detector-null"),
    pytest.param('{"detectors": [{"id": "door", "emits_label": null, '
                 '"frame_cost": 0.1}]}', id="emits-label-null"),
    pytest.param('{"detectors": [{"id": "", "frame_cost": 0.1}]}', id="id-empty"),
    pytest.param('{"detectors": [{"id": 3, "frame_cost": 0.1}]}', id="id-number"),
])
def test_perceive_bad_registry_exits_io(text, tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(text)
    code = main(["perceive", "--registry", str(registry), "--exhaustive"])
    assert code == 1
    _one_line_error(capsys, "io")


BAD_SCENES = [
    pytest.param("[]", id="top-level-list"),
    pytest.param('{"robot_start": {"x": null, "y": 0}}', id="start-x-null"),
    pytest.param('{"robot_start": null}', id="start-null"),
    pytest.param('{"visibility": {"max_range": null}}', id="range-null"),
    # spurious detections are drawn from 1 m out to max_range
    pytest.param('{"visibility": {"max_range": 0.5}}', id="range-under-1"),
    pytest.param('{"visibility": {"max_range": -3}}', id="range-negative"),
    pytest.param('{"visibility": {"fov_deg": -10}}', id="fov-negative"),
    pytest.param('{"objects": [{"id": 1, "label": "door", "pose": {"x": 5, "y": null},'
                 ' "bbox": {"min": [5, 0, 0], "max": [6, 1, 1]}}]}', id="pose-y-null"),
]


@pytest.mark.parametrize("text", BAD_SCENES)
def test_perceive_bad_scene_exits_io(text, tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(text)
    assert main(["perceive", "--scene", str(scene), "--exhaustive"]) == 1
    _one_line_error(capsys, "io")


@pytest.mark.parametrize("text", BAD_SCENES)
def test_run_bad_scene_exits_io(text, trees, model_dir, tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(text)
    code = main(_run_args(trees, model_dir, tmp_path, "open", "--scene", str(scene)))
    assert code == 1
    _one_line_error(capsys, "io")


def test_perceive_bad_link_spec(capsys):
    code = main(["perceive", "--detectors", "door", "--links", "door"])
    assert code == 1
    capsys.readouterr()


# -- run ---------------------------------------------------------------------

def _run_args(trees, model_dir, tmp_path, tree="open", *extra):
    return ["run", "--tree", trees[tree],
            "--perception-model", str(model_dir / "perception.json"),
            "--behavior-model", str(model_dir / "behavior.json"),
            "--out-dir", str(tmp_path / "out"), "--json", *extra]


def test_run_open_completes(trees, model_dir, tmp_path, capsys):
    code = main(_run_args(trees, model_dir, tmp_path))
    assert code == 0
    out = _json_out(capsys)
    assert out["result"] == "COMPLETE"
    assert out["behavior"]["action"] == "open"
    assert out["detectors"] == ["door", "door_handle"]
    assert out["avg_period"] == pytest.approx(0.158)
    out_dir = tmp_path / "out"
    for name in ("world.json", "metrics.json", "trace.json", "trace.log"):
        assert (out_dir / name).is_file()
    trace = json.loads((out_dir / "trace.json").read_text())
    assert [s for s, _ in trace["trace"]] == [
        "RECEIVED", "NAVIGATING", "DETECTING", "LOCALIZING",
        "TURNING", "PUSHING", "COMPLETE",
    ]


TWO_DOOR_SCENE = {
    "objects": [
        # the handle of door 2 is the first parented object listed
        {"id": 3, "label": "door_handle", "parent": 2,
         "pose": {"x": 5.0, "y": 2.15, "z": 0.95},
         "bbox": {"min": [5.0, 2.1, 0.9], "max": [5.04, 2.2, 1.0]}},
        {"id": 1, "label": "door", "pose": {"x": 5.0, "y": 0.0, "z": 1.0},
         "bbox": {"min": [5.0, -0.45, 0.0], "max": [5.05, 0.45, 2.0]}},
        {"id": 2, "label": "door", "pose": {"x": 5.0, "y": 2.5, "z": 1.0},
         "bbox": {"min": [5.0, 2.05, 0.0], "max": [5.05, 2.95, 2.0]}},
        {"id": 4, "label": "door_handle", "parent": 1,
         "pose": {"x": 5.0, "y": -0.35, "z": 0.95},
         "bbox": {"min": [5.0, -0.4, 0.9], "max": [5.04, -0.3, 1.0]}},
    ],
}


@pytest.mark.parametrize("seed", ["0", "3"])
def test_run_open_checks_the_handle_of_the_door_it_opens(seed, trees, model_dir,
                                                         tmp_path, capsys):
    # the true handle is the one on the scene door nearest the world
    # target, not the first parented scene object
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(TWO_DOOR_SCENE), encoding="utf-8")
    code = main(_run_args(trees, model_dir, tmp_path, "open",
                          "--scene", str(scene), "--seed", seed))
    out = _json_out(capsys)
    assert (code, out["result"]) == (0, "COMPLETE"), out
    assert out["behavior"] == {"action": "open", "target": 1}
    world = json.loads((tmp_path / "out" / "world.json").read_text())
    target = world["objects"][0]
    assert (target["id"], target["label"]) == (1, "door")
    assert abs(target["pose"]["y"]) < 0.1  # world object 1 is scene door 1


def test_run_on_a_label_without_a_detector_names_the_asset_gap(model_dir, tmp_path,
                                                               capsys):
    # "box" is a label of the bundled symbol space, and no registered
    # detector emits it
    tree = tmp_path / "tree.txt"
    tree.write_text("(VP (VB drive) (PP (TO to) (NP (DT the) (NN box))))\n")
    code = main(["run", "--tree", str(tree),
                 "--perception-model", str(model_dir / "perception.json"),
                 "--behavior-model", str(model_dir / "behavior.json"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert _one_line_error(capsys, "perception") == (
        "error [perception]: detector ids not in registry: box (grounded from "
        "the symbol space, but the registry has no detector for them)\n")
    assert not (tmp_path / "out").exists()


def test_run_without_behavior_model_exits_io_before_sensing(trees, model_dir,
                                                           tmp_path, capsys,
                                                           monkeypatch):
    # every input loads before the first frame: the missing model, not
    # the unregistered "box" detector, is the error, and a model of the
    # wrong kind is no behavior model either
    box = tmp_path / "box.txt"
    box.write_text("(VP (VB drive) (PP (TO to) (NP (DT the) (NN box))))\n")
    perception = str(model_dir / "perception.json")

    def sense(*args, **kwargs):
        raise AssertionError("sensing began before every input loaded")

    monkeypatch.setattr(cli, "_perceive", sense)
    for tree, extra, error in [
            (str(box), [], "no behavior model given (flag or config)"),
            (trees["open"], [], "no behavior model given (flag or config)"),
            (trees["open"], ["--behavior-model", perception],
             "behavior model has wrong kind")]:
        code = main(["run", "--tree", tree, "--perception-model", perception,
                     "--out-dir", str(tmp_path / "out"), *extra])
        assert code == 1
        assert _one_line_error(capsys, "io") == f"error [io]: {error}\n"
        assert not (tmp_path / "out").exists()


def test_run_drive_completes(trees, model_dir, tmp_path, capsys):
    code = main(_run_args(trees, model_dir, tmp_path, "drive"))
    assert code == 0
    out = _json_out(capsys)
    assert out["result"] == "COMPLETE"
    assert out["behavior"]["action"] == "navigate"
    assert out["detectors"] == ["door"]
    assert out["avg_period"] == pytest.approx(0.092)


def test_run_exhaustive_sees_clutter(trees, model_dir, tmp_path, capsys):
    code = main(_run_args(trees, model_dir, tmp_path, "drive", "--exhaustive"))
    assert code == 0
    out = _json_out(capsys)
    assert out["avg_period"] == pytest.approx(2.060)
    assert out["result"] == "COMPLETE"
    world = json.loads((tmp_path / "out" / "world.json").read_text())
    labels = {o["label"] for o in world["objects"]}
    assert labels - {"door", "door_handle"}


def test_run_dropped_constituent_fails_execution(trees, model_dir, tmp_path,
                                                 capsys):
    code = main(_run_args(trees, model_dir, tmp_path, "open",
                          "--drop-detector", "door_handle"))
    assert code == 4
    out = _json_out(capsys)
    assert out["result"] == "FAILURE"
    trace = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert [s for s, _ in trace["trace"]][-2:] == ["DETECTING", "FAILURE"]


def test_run_exhaustive_rejects_drop_detector(trees, model_dir, tmp_path, capsys):
    # the baseline's detectors are not the grounded ones, so nothing drops
    code = main(_run_args(trees, model_dir, tmp_path, "drive", "--exhaustive",
                          "--drop-detector", "door"))
    assert code == 1
    assert "--drop-detector" in _one_line_error(capsys, "io")
    assert not (tmp_path / "out").exists()


def test_run_dropping_everything_fails_perception(trees, model_dir, tmp_path,
                                                  capsys):
    code = main(_run_args(trees, model_dir, tmp_path, "open",
                          "--drop-detector", "door",
                          "--drop-detector", "door_handle"))
    assert code == 3
    capsys.readouterr()


def test_run_word_outside_lexicon(tmp_path, model_dir, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("(VP (VB burn) (NP (DT the) (NN door)))\n")
    code = main(["run", "--tree", str(tree),
                 "--perception-model", str(model_dir / "perception.json"),
                 "--behavior-model", str(model_dir / "behavior.json")])
    assert code == 1
    assert "lexicon" in capsys.readouterr().err


def test_run_reports_the_first_violation_bottom_up(tmp_path, model_dir, capsys):
    # both words are outside the lexicon; the noun phrase comes first
    tree = tmp_path / "tree.txt"
    tree.write_text("(VP (VB jump) (NP (DT the) (NN window)))\n")
    code = main(["run", "--tree", str(tree),
                 "--perception-model", str(model_dir / "perception.json"),
                 "--behavior-model", str(model_dir / "behavior.json")])
    assert code == 1
    assert _one_line_error(capsys, "io") == (
        "error [io]: word 'window' not in lexicon for tag NN\n")


def test_run_without_models(trees, capsys):
    code = main(["run", "--tree", trees["open"]])
    assert code == 1
    assert "error [io]" in capsys.readouterr().err


def test_run_model_of_the_wrong_kind_exits_io(trees, model_dir, capsys):
    code = main(["run", "--tree", trees["open"],
                 "--perception-model", str(model_dir / "behavior.json"),
                 "--behavior-model", str(model_dir / "behavior.json")])
    assert code == 1
    assert capsys.readouterr() == ("", "error [io]: perception model has wrong kind\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["perceive-exhaustive",
                                     "perceive-adaptive-linked", "bench",
                                     "train", "run"])
def test_run_out_dir_that_is_a_file_exits_io(command, fmt, trees, model_dir,
                                             assets, tmp_path, capsys):
    # each command writes its files before it prints, so a failed write
    # leaves stdout empty
    taken = tmp_path / "out"
    taken.write_text("")
    argv = {
        "perceive-exhaustive": ["perceive", "--exhaustive",
                                "--out-dir", str(taken / "x")],
        "perceive-adaptive-linked": ["perceive", "--detectors", "door,door_handle",
                                     "--links", "door:handle",
                                     "--out-dir", str(taken / "x")],
        "bench": ["bench", "--perception-model", str(model_dir / "perception.json"),
                  "--out", str(taken / "x.json")],
        "train": ["train", "--corpus", str(assets / "perception_corpus.json"),
                  "--out", str(taken / "m.json")],
        "run": [a for a in _run_args(trees, model_dir, tmp_path) if a != "--json"],
    }[command]
    assert main(argv + (["--json"] if fmt == "json" else [])) == 1
    err = _one_line_error(capsys, "io")
    assert ("File exists" if command == "run" else "Not a directory") in err


def test_run_config_overlay(trees, model_dir, tmp_path, capsys):
    cfg = {
        "perception_model": str(model_dir / "perception.json"),
        "behavior_model": str(model_dir / "behavior.json"),
        "out_dir": str(tmp_path / "cfg_out"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["run", "--tree", trees["open"], "--config", str(cfg_path),
                 "--json"])
    assert code == 0
    out = _json_out(capsys)
    assert out["result"] == "COMPLETE"
    assert (tmp_path / "cfg_out" / "trace.json").is_file()


def test_run_config_relative_paths_and_flag_priority(trees, model_dir, tmp_path,
                                                     capsys):
    # config paths resolve against the config file directory
    (tmp_path / "models").mkdir()
    for name in ("perception.json", "behavior.json"):
        (tmp_path / "models" / name).write_bytes(
            (model_dir / name).read_bytes())
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "perception_model": "models/perception.json",
        "behavior_model": "models/behavior.json",
        "out_dir": "from_config",
    }))
    code = main(["run", "--tree", trees["open"], "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "flag_out"), "--json"])
    assert code == 0
    capsys.readouterr()
    # the explicit flag beat the config value
    assert (tmp_path / "flag_out" / "trace.json").is_file()
    assert not (cfg_path.parent / "from_config").exists()


def test_run_config_sets_frames_and_seed_under_flags(trees, model_dir, tmp_path,
                                                    capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"frames": 5, "seed": 3}))

    def run(out, *extra):
        code = main(_run_args(trees, model_dir, tmp_path, "open", *extra,
                              "--out-dir", str(tmp_path / out)))
        assert code == 0
        capsys.readouterr()
        return (json.loads((tmp_path / out / "metrics.json").read_text()),
                (tmp_path / out / "world.json").read_text())

    metrics, _ = run("cfg", "--config", str(cfg_path))
    assert metrics["frames"] == 5
    metrics, _ = run("flag", "--config", str(cfg_path), "--frames", "7")
    assert metrics["frames"] == 7
    # an explicit --seed 0 beats the config's seed 3
    _, world = run("seed0", "--config", str(cfg_path), "--seed", "0")
    assert world == run("plain0", "--frames", "5", "--seed", "0")[1]
    assert world != run("plain3", "--frames", "5", "--seed", "3")[1]


@pytest.mark.parametrize("text", [
    pytest.param("[]", id="top-level-list"),
    pytest.param('{"frames": "5"}', id="frames-string"),
    pytest.param('{"scene": 3}', id="path-number"),
])
def test_run_bad_config_exits_io(text, trees, model_dir, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    code = main(_run_args(trees, model_dir, tmp_path, "open",
                          "--config", str(cfg_path)))
    assert code == 1
    _one_line_error(capsys, "io")


@pytest.mark.parametrize("command,flags,config", [
    ("perceive", ["--detectors", "door", "--seed", "-1"], None),
    ("run", ["--seed", "-2"], None),
    ("bench", [], '{"seed": -3}'),
    ("perceive", ["--detectors", "door", "--frames", "0"], None),
], ids=["perceive-seed", "run-seed", "bench-config-seed", "perceive-frames"])
def test_bad_perception_setting_exits_perception(command, flags, config, trees,
                                                 model_dir, tmp_path, capsys):
    # a negative seed once reached numpy and ended in a traceback
    argv = [command, *flags]
    if command == "run":
        argv = _run_args(trees, model_dir, tmp_path, "open", *flags)
    if command == "bench":
        argv += ["--perception-model", str(model_dir / "perception.json")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 3
    _one_line_error(capsys, "perception")


# -- bench -------------------------------------------------------------------

def test_bench_default_rows(model_dir, tmp_path, capsys):
    out_file = tmp_path / "bench.json"
    code = main(["bench",
                 "--perception-model", str(model_dir / "perception.json"),
                 "--out", str(out_file), "--json"])
    assert code == 0
    payload = _json_out(capsys)
    rows = payload["rows"]
    assert [(r["instruction"], r["mode"]) for r in rows] == [
        ("drive to the door", "exhaustive"),
        ("drive to the door", "adaptive"),
        ("open the door", "adaptive"),
    ]
    periods = [r["avg_period"] for r in rows]
    assert periods[0] == pytest.approx(2.060)
    assert periods[1] == pytest.approx(0.092)
    assert periods[2] == pytest.approx(0.158)
    assert json.loads(out_file.read_text()) == payload


def test_bench_output_is_byte_identical(model_dir, capsys):
    argv = ["bench", "--perception-model", str(model_dir / "perception.json"),
            "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first  # non-empty


def test_bench_custom_case(trees, model_dir, capsys):
    code = main(["bench", "--perception-model", str(model_dir / "perception.json"),
                 "--case", f"{trees['turn']}=adaptive", "--json"])
    assert code == 0
    rows = _json_out(capsys)["rows"]
    assert len(rows) == 1
    assert rows[0]["instruction"] == "turn the handle of the door"
    assert rows[0]["active_detectors"] == ["door", "door_handle"]


def test_bench_passes_each_row_mode_without_a_flag(trees, model_dir):
    # bench has no --exhaustive; a row's mode goes to the sensing loop as is
    args = build_parser().parse_args(
        ["bench", "--perception-model", str(model_dir / "perception.json"),
         "--case", f"{trees['drive']}=exhaustive",
         "--case", f"{trees['drive']}=adaptive", "--json"])
    code, payload, _ = cmd_bench(args)
    assert code == 0
    assert not hasattr(args, "mode")
    rows = payload["rows"]
    assert [r["mode"] for r in rows] == ["exhaustive", "adaptive"]
    assert rows[0]["avg_period"] > rows[1]["avg_period"]


def test_bench_bad_case_mode(trees, model_dir, capsys):
    code = main(["bench", "--perception-model", str(model_dir / "perception.json"),
                 "--case", f"{trees['drive']}=sometimes"])
    assert code == 1
    capsys.readouterr()


def test_bench_reads_each_input_once(model_dir, monkeypatch, capsys):
    reads = collections.Counter()
    read_text = pathlib.Path.read_text

    def counting(self, *args, **kwargs):
        reads[self.name] += 1
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", counting)
    code = main(["bench", "--perception-model", str(model_dir / "perception.json"),
                 "--json"])
    assert code == 0
    capsys.readouterr()
    inputs = ("symbol_space.json", "detector_registry.json", "door_scene.json",
              "lexicon.json", "perception.json")
    assert {name: reads[name] for name in inputs} == dict.fromkeys(inputs, 1)


def test_bench_table_output(model_dir, capsys):
    code = main(["bench", "--perception-model", str(model_dir / "perception.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "instruction" in out
    assert "2.060" in out
    assert "0.158" in out


# -- usage errors ------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["run", "--seed", "abc"], ["perceive", "--space", "x"],
    ["train", "--out", "m.json"], ["bogus"], [],
], ids=["bad-int", "unknown-flag", "missing-required", "unknown-command",
        "no-command"])
def test_usage_error_exits_io_with_one_line(argv, capsys):
    # exit 2 is grounding failure, not argparse's usage exit
    assert main(argv) == 1
    _one_line_error(capsys, "io")


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    assert "--tree" in capsys.readouterr().out


# -- malformed input files ---------------------------------------------------

# Every flag that names an input file, per command; the sweep points one of
# them at a malformed file and the others at good ones.
FILE_FLAGS = {
    "train": ["--corpus", "--space"],
    "ground": ["--tree", "--model", "--world", "--space"],
    "perceive": ["--scene", "--registry"],
    "run": ["--tree", "--config", "--perception-model", "--behavior-model",
            "--scene", "--registry", "--lexicon", "--space"],
    "bench": ["--config", "--perception-model", "--scene", "--registry",
              "--lexicon", "--space", "--case"],
}

# The other flags of each command; with FILE_FLAGS, every flag it declares.
OTHER_FLAGS = {
    "train": ["--json", "--out", "--iterations", "--step", "--l2"],
    "ground": ["--json"],
    "perceive": ["--json", "--seed", "--frames", "--exhaustive", "--detectors",
                 "--links", "--out-dir"],
    "run": ["--json", "--seed", "--frames", "--exhaustive", "--drop-detector",
            "--out-dir"],
    "bench": ["--json", "--seed", "--frames", "--out"],
}


def test_every_flag_is_a_swept_file_flag_or_listed_as_other():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    declared = {name: sorted(flag for action in parser._actions
                             if not isinstance(action, argparse._HelpAction)
                             for flag in action.option_strings)
                for name, parser in commands.choices.items()}
    assert declared == {command: sorted(FILE_FLAGS[command] + OTHER_FLAGS[command])
                        for command in FILE_FLAGS}


# nested past the JSON decoder's recursion limit, and a tree nested past
# parse.MAX_NESTING
DEEP_JSON = "[" * 2000 + "]" * 2000
DEEP_TREE = "(VP (VB open) " + "(NP " * 999 + "(NN door)" + ")" * 1000
DOOR = {"id": 1, "label": "door", "pose": {"x": 5, "y": 0},
        "bbox": {"min": [4, 0, 0], "max": [5, 1, 1]}}

MALFORMED = [(command, flag, text)
             for command, flags in FILE_FLAGS.items() for flag in flags
             for text in ("{bad", "[]", "null", "3", '"x"', DEEP_JSON)] + [
    *[(command, flag, DEEP_TREE) for command, flag in (
        ("ground", "--tree"), ("run", "--tree"), ("bench", "--case"))],
    # once accepted: the labels became "d", "o", "r" and grounding exited 2
    ("run", "--space", '{"labels": "door"}'),
    ("run", "--lexicon", '{"VB": [1]}'),
    # once accepted: an empty model, and a model ground took for a behavior one
    ("ground", "--model", '{"template_version": 2, "kind": "perception", '
                          '"weights": []}'),
    ("ground", "--model", '{"template_version": 2, "kind": "nope", "weights": {}}'),
    ("train", "--corpus", '{"kind": "perception", '
                          '"examples": [{"tree": 5, "gold": []}]}'),
    # once accepted as 1.0 and 1.5
    ("ground", "--model", '{"template_version": 2, "kind": "perception", '
                          '"weights": {"word:door&label:door": true}}'),
    ("ground", "--model", '{"template_version": 2, "kind": "perception", '
                          '"weights": {"word:door&label:door": "1.5"}}'),
    # gold entries once coerced with int(): null ended in a traceback, 1.7
    # trained as phrase 1 and "37" as object 37
    *[("train", "--corpus", f'{{"kind": "{kind}", "examples": [{{"tree": '
                            f'"(VP (VB open) (NP (DT the) (NN door)))", '
                            f'"gold": [{gold}]{world}}}]}}')
      for kind, gold, world in [
          ("behavior", '[0, {"action": "open", "object": null}]',
           ', "world": {"objects": []}'),
          ("perception", '[null, {"label": "door"}]', ""),
          ("perception", '[1.7, {"label": "door"}]', ""),
          ("behavior", '[1, {"action": "open", "object": "37"}]',
           ', "world": {"objects": [{"id": 37, "label": "door", '
           '"pose": {"x": 5, "y": 0}, "bbox": {"min": [4.9, -0.5, 0], '
           '"max": [5.1, 0.5, 2]}}]}'),
      ]],
    # once accepted: a string split into detector ids, an ignored typo and
    # a truthy string
    *[(command, "--config", text) for command in ("run", "bench")
      for text in ('{"drop_detector": "door_handle"}', '{"seeed": 3}',
                   '{"exhaustive": "no"}')],
    # once ignored: bench has no tree, behavior model or out dir to set
    *[("bench", "--config", f'{{"{key}": "x"}}')
      for key in ("tree", "behavior_model", "out_dir")],
    # the inputs only ground reads are no run-config keys
    *[(command, "--config", f'{{"{key}": "x"}}') for command in ("run", "bench")
      for key in ("model", "world")],
    # corpus shapes once untested: examples not a list, an example not an
    # object, an example without gold
    *[("train", "--corpus", f'{{"kind": "perception", "examples": {examples}}}')
      for examples in ('{"a": 1}', "[3]", '[{"tree": "(VP (VB open))"}]')],
    # an integer beyond the float range, once an OverflowError traceback
    *[("perceive", "--scene", json.dumps(scene)) for scene in (
        {"objects": [{**DOOR, "pose": {"x": HUGE, "y": 0}}]},
        {"objects": [{**DOOR, "bbox": {"min": [HUGE, 0, 0], "max": [5, 1, 1]}}]},
        {"visibility": {"max_range": HUGE}})],
    *[("perceive", "--registry", json.dumps({"detectors": [{"id": "door", **d}]}))
      for d in ({"frame_cost": HUGE}, {"frame_cost": 0.1, "false_positive_rate": HUGE})],
    ("ground", "--world", json.dumps({"objects": [{**DOOR, "first_seen": HUGE}]})),
    # once untested: a scene's objects not a list, a parent not an integer
    ("perceive", "--scene", json.dumps({"objects": {"1": DOOR}})),
    ("ground", "--world", json.dumps({"objects": [{**DOOR, "parent": "1"}]})),
    ("ground", "--model", json.dumps({"template_version": 2, "kind": "perception",
                                      "weights": {"word:door&label:door": HUGE}})),
]


@pytest.fixture(scope="module")
def good_files(assets, model_dir, world_file, trees, tmp_path_factory) -> dict:
    config = tmp_path_factory.mktemp("config") / "run.json"
    config.write_text("{}")
    return {
        "--corpus": str(assets / "perception_corpus.json"),
        "--space": str(assets / "symbol_space.json"),
        "--tree": trees["open"],
        "--case": trees["open"],
        # a behavior model, so that ground reads --world too
        "--model": str(model_dir / "behavior.json"),
        "--world": world_file,
        "--scene": str(assets / "door_scene.json"),
        "--registry": str(assets / "detector_registry.json"),
        "--lexicon": str(assets / "lexicon.json"),
        "--config": str(config),
        "--perception-model": str(model_dir / "perception.json"),
        "--behavior-model": str(model_dir / "behavior.json"),
    }


@pytest.mark.parametrize("command,flag,text", MALFORMED, ids=[
    " ".join(case).replace(DEEP_JSON, "deep-json").replace(DEEP_TREE, "deep-tree")
    .replace(str(HUGE), "huge-int") for case in MALFORMED])
def test_malformed_input_file_exits_io(command, flag, text, good_files, tmp_path,
                                       capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    extra = {"train": ["--out", str(tmp_path / "m.json")],
             "run": ["--out-dir", str(tmp_path / "out")]}
    argv = [command, *extra.get(command, [])]
    for f in FILE_FLAGS[command]:
        argv += [f, str(bad) if f == flag else good_files[f]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [io]: bad ")
    assert captured.err.count("\n") == 1
