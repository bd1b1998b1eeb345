"""Generated instructions through ``minworld run``, in both modes.

A fixed, seeded sample of the trees the bundled lexicon can say (see
``gen_trees.py``) runs end to end with the default-trained models. Each
run must exit with a documented code and report itself the documented
way, must repeat byte for byte, and an adaptive run must perceive only
what grounding asked for.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from gen_trees import generate, load_lexicon
from minworld.cli import main
from minworld.parse import load_parse_tree
from minworld.percept import load_registry

SAMPLE = random.Random(18).sample(generate(load_lexicon(), depth=1), 50)
FILES = ("world.json", "metrics.json", "trace.json", "trace.log")


def _run(capsys, argv, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    code = main([*argv, "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    files = {n: (out_dir / n).read_bytes() for n in FILES} if out_dir.exists() else None
    return code, out, err, files


@pytest.fixture(scope="module")
def emits(assets):
    registry = load_registry(assets / "detector_registry.json")
    return {d.id: d.emits_label for d in registry}


@pytest.mark.parametrize("mode", ["adaptive", "exhaustive"])
@pytest.mark.parametrize("index", range(len(SAMPLE)))
def test_generated_instruction_runs(index, mode, model_dir, emits, tmp_path, capsys):
    text = SAMPLE[index]
    tree = tmp_path / "tree.txt"
    tree.write_text(text + "\n", encoding="utf-8")
    argv = ["run", "--tree", str(tree), "--json", "--seed", str(index % 4),
            "--perception-model", str(model_dir / "perception.json"),
            "--behavior-model", str(model_dir / "behavior.json")]
    if mode == "exhaustive":
        argv.append("--exhaustive")
    out_dir = tmp_path / "out"
    first = _run(capsys, argv, out_dir)
    code, out, err, files = first
    assert code in (0, 2, 3, 4), (text, code, err)
    # a stage stops the run with one stderr line; the executive runs to
    # a terminal state and reports it, and any failure reason, on stdout
    if code in (2, 3):
        assert (out, err.count("\n")) == ("", 1), (text, out, err)
        assert files is None
    else:
        assert err == "", (text, err)
        summary = json.loads(out)
        assert (summary["result"] == "COMPLETE") == (code == 0), (text, summary)
        assert files is not None
    assert _run(capsys, argv, out_dir) == first, text

    if mode == "adaptive" and files is not None:
        metrics = json.loads(files["metrics.json"])
        world = json.loads(files["world.json"])["objects"]
        assert metrics["active_detectors"] == summary["detectors"], text
        labels = {emits[i] for i in metrics["active_detectors"]}
        assert {o["label"] for o in world} <= labels, text
        parents = {o["id"]: o["parent"] for o in world if "parent" in o}
        assert not any(p in parents for p in parents.values()), text


def test_sample_is_fixed_and_covers_every_shape_and_verb():
    assert len(SAMPLE) == len(set(SAMPLE)) == 50
    trees = [load_parse_tree(t) for t in SAMPLE]
    instructions = [t.instruction for t in trees]
    for word in ("drive", "open", "turn", "look", " to ", " through ", " of "):
        assert any(word in f" {i} " for i in instructions), word
    assert any(" to " not in i and " through " not in i for i in instructions)
