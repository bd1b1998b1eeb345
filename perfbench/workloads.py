"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed: the same seed writes the
same bytes. The program under test only ever sees the files written by
``prepare``, loaded through its own public loaders.
"""

from __future__ import annotations

import json
import math
import random
import string
from pathlib import Path

WORKLOADS = ("door_tasks", "large_vocab", "cluttered_scene", "train")

TREES = ("drive_to_the_door", "open_the_door", "look_through_the_door",
         "turn_the_handle_of_the_door")

# large_vocab: bundled space padded to about this many perception symbols.
LARGE_VOCAB_SYMBOLS = 750
# cluttered_scene: seeded clutter objects added to the door scene.
CLUTTER_OBJECTS = 100
CLUTTER_LABELS = ("ball", "cracker_box", "pitcher", "suitcase")

# Clutter lattice. Labels repeat every second lattice step in x and y, so
# same-label neighbours sit 2 * CLUTTER_STEP apart before jitter; the
# jitter bound keeps them at least MIN_SAME_LABEL_GAP apart, outside the
# perception association radius (0.5 m) plus detector noise.
CLUTTER_STEP = 0.38
CLUTTER_JITTER = 0.02
CLUTTER_SIZE = 0.2
MIN_SAME_LABEL_GAP = 0.7
# Kept inside the 87 degree, 6 m field of view of a robot at the origin
# facing +x, and off the corridor it drives along to the door.
CLUTTER_MAX_BEARING_DEG = 42.0
CLUTTER_RANGE = (0.8, 5.85)
CORRIDOR_HALF_WIDTH = 0.6

# Requests in one pass. Each carries its own perception seed; passes
# repeat, so every request is seen more than once in a run.
PASS_PLAN = {
    "door_tasks": ([(t, "adaptive") for t in TREES], 2),
    "large_vocab": ([(t, "adaptive") for t in TREES], 1),
    # Two drives per open: the trees differ in cost by about 15%, and an
    # even mix would put the median latency in the gap between them.
    "cluttered_scene": ([("drive_to_the_door", "exhaustive"),
                         ("drive_to_the_door", "exhaustive"),
                         ("open_the_door", "exhaustive")], 2),
}


def assets_dir() -> Path:
    import minworld
    return Path(minworld.__file__).resolve().parent / "assets"


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


def padded_space(base: dict, n_perception: int, rng: random.Random) -> dict:
    """The bundled space plus generated labels and parent/subtype pairs,
    for about ``n_perception`` perception symbols in all.

    Generated pairs only use generated labels, so no trained feature that
    names a bundled label fires on them.
    """
    labels = list(base["labels"])
    pairs = [list(p) for p in base.get("hierarchies", [])]
    extra = n_perception - len(labels) - len(pairs)
    if extra <= 0:
        return {"labels": labels, "hierarchies": pairs,
                "actions": list(base.get("actions", []))}
    n_labels = max(2, math.ceil(2 * extra / 3))
    n_pairs = extra - n_labels
    taken = set(labels)
    new_labels: list[str] = []
    while len(new_labels) < n_labels:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
        if word not in taken:
            taken.add(word)
            new_labels.append(word)
    new_pairs: set[tuple[str, str]] = set()
    while len(new_pairs) < n_pairs:
        parent, subtype = rng.sample(new_labels, 2)
        new_pairs.add((parent, subtype))
    return {
        "labels": sorted(labels + new_labels),
        "hierarchies": sorted(pairs + [list(p) for p in new_pairs]),
        "actions": list(base.get("actions", [])),
    }


def clutter_slots(rng: random.Random) -> list[tuple[str, float, float]]:
    """Every clutter slot of the lattice as (label, x, y), jittered."""
    step = CLUTTER_STEP
    lo, hi = CLUTTER_RANGE
    n = math.ceil(hi / step)
    slots = []
    for i in range(1, n + 1):
        for j in range(-n, n + 1):
            x, y = i * step, j * step
            r = math.hypot(x, y)
            if abs(y) < CORRIDOR_HALF_WIDTH or not lo <= r <= hi:
                continue
            if abs(math.degrees(math.atan2(y, x))) > CLUTTER_MAX_BEARING_DEG:
                continue
            label = CLUTTER_LABELS[(i % 2) + 2 * (j % 2)]
            slots.append((label,
                          x + rng.uniform(-CLUTTER_JITTER, CLUTTER_JITTER),
                          y + rng.uniform(-CLUTTER_JITTER, CLUTTER_JITTER)))
    return slots


def cluttered_scene(base: dict, n_objects: int, rng: random.Random) -> dict:
    """The bundled scene plus ``n_objects`` clutter objects (at most one
    per lattice slot), with ids after the scene's own."""
    slots = clutter_slots(rng)
    if n_objects > len(slots):
        raise ValueError(f"at most {len(slots)} clutter objects fit, "
                         f"asked for {n_objects}")
    chosen = sorted(rng.sample(range(len(slots)), n_objects))
    objects = list(base["objects"])
    next_id = max(o["id"] for o in objects) + 1
    half = CLUTTER_SIZE / 2.0
    for k, slot in enumerate(chosen):
        label, x, y = slots[slot]
        x, y = round(x, 4), round(y, 4)
        objects.append({
            "id": next_id + k,
            "label": label,
            "pose": {"x": x, "y": y, "z": half, "yaw": 0.0},
            "bbox": {"min": [round(x - half, 4), round(y - half, 4), 0.0],
                     "max": [round(x + half, 4), round(y + half, 4),
                             CLUTTER_SIZE]},
        })
    return {**base, "objects": objects}


def request_pass(workload: str, rng: random.Random) -> list[dict]:
    """One pass of requests: tree name, perception mode and seed."""
    kinds, repeats = PASS_PLAN[workload]
    return [{"tree": tree, "mode": mode, "seed": rng.randrange(2 ** 31)}
            for _ in range(repeats) for tree, mode in kinds]


def prepare(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under ``out`` and return the manifest
    (also written as ``out/inputs.json``)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    assets = assets_dir()
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed,
                      "space": str(assets / "symbol_space.json")}
    if workload == "train":
        # Same corpora, examples in a seeded order.
        corpora = []
        for name in ("perception_corpus.json", "behavior_corpus.json"):
            data = _read_json(assets / name)
            rng.shuffle(data["examples"])
            corpora.append(_write_json(out / name, data))
        manifest["corpora"] = corpora
        return _finish(manifest, out)
    manifest.update(
        registry=str(assets / "detector_registry.json"),
        scene=str(assets / "door_scene.json"),
        lexicon=str(assets / "lexicon.json"),
        perception_model=str(out / "perception.json"),
        behavior_model=str(out / "behavior.json"),
        trees={t: str(assets / "trees" / f"{t}.txt") for t in TREES},
    )
    if workload == "large_vocab":
        space = padded_space(_read_json(assets / "symbol_space.json"),
                             LARGE_VOCAB_SYMBOLS, rng)
        manifest["space"] = _write_json(out / "symbol_space.json", space)
    if workload == "cluttered_scene":
        scene = cluttered_scene(_read_json(assets / "door_scene.json"),
                                CLUTTER_OBJECTS, rng)
        manifest["scene"] = _write_json(out / "scene.json", scene)
    manifest["requests"] = request_pass(workload, rng)
    return _finish(manifest, out)


def _finish(manifest: dict, out: Path) -> dict:
    _write_json(out / "inputs.json", manifest)
    return manifest
