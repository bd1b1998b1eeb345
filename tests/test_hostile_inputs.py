"""Hostile inputs: one input file at a time is mutated and run through
``cli.main`` in-process. Whatever the file holds, the command must end in
a documented exit code with its one-line error, or none, and do the same
when run again.

Tier-1 tries a few mutations of each input kind; the ``hostile`` profile
of conftest.py (``--hypothesis-profile hostile``) tries 200 of each.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minworld import cli

# every input a command reads: the nine of cli.INPUTS, the training
# corpus and a run config
KINDS = [*cli.INPUTS, "corpus", "config"]

BIG = 1e308
HUGE = 10 ** 400  # an integer beyond the float range
DEEP = "[" * 2000 + "]" * 2000
_DEEP_MARK = "\x00deep"
# one value of each JSON type, for a node of another type
_TYPED = [0, "x", [], {}, True, None]


def _json_type(value):
    return "number" if isinstance(value, (int, float)) \
        and not isinstance(value, bool) else type(value)


def _nodes(value, path=()):
    """Every node of a JSON document, as its path of keys and indices."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, (*path, key))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _nodes(child, (*path, i))


def _mutations(value) -> list:
    """The values a node holding ``value`` may be replaced by: NaN, ±1e308,
    an integer beyond the float range, a 2000-deep nesting, a value of
    another type, or an empty one."""
    empty = {dict: {}, list: [], str: ""}.get(type(value))
    return [float("nan"), BIG, -BIG, HUGE, -HUGE, _DEEP_MARK, empty,
            *(v for v in _TYPED if _json_type(v) != _json_type(value))]


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def inputs(assets, model_dir, tmp_path_factory) -> dict:
    """The path of a good file per input kind, the text of each, and the
    path a mutated file is written to."""
    d = tmp_path_factory.mktemp("hostile")
    paths = {key: str(default) for key, (_, _, default) in cli.INPUTS.items()
             if default is not None}
    paths.update({
        "tree": str(assets / "trees" / "open_the_door.txt"),
        "model": str(model_dir / "behavior.json"),
        "perception_model": str(model_dir / "perception.json"),
        "behavior_model": str(model_dir / "behavior.json"),
        "corpus": str(assets / "perception_corpus.json"),
    })
    paths["world"] = str(d / "world.json")
    code, _, err = _run(["run", "--tree", paths["tree"], "--perception-model",
                         paths["perception_model"], "--behavior-model",
                         paths["behavior_model"], "--out-dir", str(d / "run")])
    assert (code, err) == (0, "")
    (d / "world.json").write_text((d / "run" / "world.json").read_text())
    paths["config"] = str(d / "config.json")
    (d / "config.json").write_text(json.dumps(
        {"tree": paths["tree"], "perception_model": paths["perception_model"],
         "behavior_model": paths["behavior_model"], "seed": 0, "frames": 30}))
    texts = {k: Path(p).read_text(encoding="utf-8") for k, p in paths.items()}
    return {"paths": paths, "texts": texts, "bad": str(d / "bad"),
            "out": str(d / "model.json"), "out_dir": str(d / "out")}


def _argv(kind: str, inputs: dict, data) -> list[str]:
    """The command that reads input ``kind`` from the mutated file. A run
    takes a seed drawn from 0-7, so seed-dependent paths are reached; the
    flag wins over a config's own seed."""
    files = dict(inputs["paths"], **{kind: inputs["bad"]})
    if kind == "corpus":
        return ["train", "--corpus", files["corpus"], "--out", inputs["out"]]
    if kind in ("model", "world"):
        argv, keys = ["ground"], ("tree", "model", "world")
    else:
        seed = str(data.draw(st.integers(0, 7), label="seed"))
        argv = ["run", "--seed", seed, "--out-dir", inputs["out_dir"]]
        keys = ("config",) if kind == "config" else (
            "tree", "perception_model", "behavior_model", kind)
    return argv + [arg for key in dict.fromkeys(keys)
                   for arg in ("--" + key.replace("_", "-"), files[key])]


def _mutated_tree(text: str, data) -> bytes:
    """The tree's bytes with a few bytes deleted, replaced or inserted."""
    raw = bytearray(text.encode("utf-8"))
    byte = st.sampled_from(b"() \n\tAZaz") | st.integers(0, 255)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw)))
        edit = data.draw(st.sampled_from(["delete", "replace", "insert"]))
        if edit == "insert" or at == len(raw):
            raw.insert(at, data.draw(byte))
        elif edit == "delete":
            del raw[at]
        else:
            raw[at] = data.draw(byte)
    return bytes(raw)


def _mutated_json(text: str, data) -> bytes:
    """The document with one node replaced by one of its _mutations."""
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    new = data.draw(st.sampled_from(_mutations(node)))
    if parent is None:
        doc = new
    else:
        parent[path[-1]] = new
    return json.dumps(doc).replace(json.dumps(_DEEP_MARK), DEEP).encode("utf-8")


# an in-process run takes about 10 ms, so tier-1 keeps to 25 examples of
# each kind; the hostile profile sets its own count
EXAMPLES = (settings().max_examples
            if settings.get_current_profile_name() == "hostile" else 25)


# pytest captures warnings, so a numpy warning a shell user would see on
# stderr fails the property instead
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
@settings(database=None, derandomize=True, deadline=None,
          max_examples=EXAMPLES)
@given(data=st.data())
def test_a_hostile_input_ends_in_a_documented_exit(kind, inputs, data):
    text = inputs["texts"][kind]
    mutate = _mutated_tree if kind == "tree" else _mutated_json
    Path(inputs["bad"]).write_bytes(mutate(text, data))
    argv = _argv(kind, inputs, data)
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3, 4)
    assert err.count("\n") == (1 if code in (1, 2, 3) else 0), err
    assert out == "" or code in (0, 4)
    assert "Traceback" not in out + err
    assert _run(argv) == (code, out, err)
