#!/usr/bin/env python3
"""Wall cost of the sensing loop per detection, against scene clutter.

Builds the bundled door scene plus N clutter objects on a 0.6 m lattice
(ball, cracker_box, pitcher and suitcase in a 2x2 pattern, so same-label
neighbours sit 1.2 m apart and never merge), widens the view to 360
degrees and past the farthest object so every object is seen, and times
``run_perception`` in exhaustive mode over 30 frames with the bundled
registry. Unlike perfbench's ``cluttered_scene``, whose lattice holds at
most 132 clutter objects, N is not capped.

Each measurement is a fresh interpreter on one checkout's ``src/``: one
untimed run, then the median of at least ``RUNS`` timed ones, run until
``MIN_SECONDS`` have passed. With ``--parent
REV``, the tool also measures a ``git archive`` of that revision, and
each of ``--repeats`` rounds runs the two sides one after the other,
which one first alternating by round. Run from the repository root:

    python tools/perception_scaling.py --out scaling.json
    python tools/perception_scaling.py --parent HEAD~1 --repeats 3 \\
        --objects 100,300,1000,3000 --out scaling.json

The JSON file holds, per N and side, the median microseconds per
detection over the rounds, each round's figure, and the exact counts of
detections and world objects beside them; with a parent, whether the
two sides built the same world (sha256 of its JSON).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ASSETS = ROOT / "src" / "minworld" / "assets"
RUNS = 3
MIN_SECONDS = 0.5
FRAMES = 30
STEP = 0.6
SIZE = 0.2
LABELS = ("ball", "cracker_box", "pitcher", "suitcase")


def scene_json(n: int) -> dict:
    """The bundled door scene plus ``n`` clutter objects on a square
    lattice in front of the robot, all in view."""
    scene = json.loads((ASSETS / "door_scene.json").read_text(encoding="utf-8"))
    objects = scene["objects"]
    next_id = max(o["id"] for o in objects) + 1
    side = math.ceil(math.sqrt(n))
    half = SIZE / 2.0
    far = 0.0
    for k in range(n):
        i, j = divmod(k, side)
        x, y = round(1.0 + STEP * i, 4), round(STEP * (j - side // 2), 4)
        far = max(far, math.hypot(x, y))
        objects.append({
            "id": next_id + k,
            "label": LABELS[(i % 2) + 2 * (j % 2)],
            "pose": {"x": x, "y": y, "z": half, "yaw": 0.0},
            "bbox": {"min": [x - half, y - half, 0.0],
                     "max": [x + half, y + half, SIZE]},
        })
    scene["visibility"] = {"max_range": math.ceil(far) + 1.0, "fov_deg": 360.0}
    return scene


def measure(n: int) -> dict:
    """Time the exhaustive sensing loop on the scene of ``n`` clutter
    objects, with the ``minworld`` on ``sys.path``."""
    from minworld.percept import (PerceptionConfig, Scene, load_registry,
                                  run_perception)
    scene = Scene.from_json(scene_json(n))
    config = PerceptionConfig(load_registry(ASSETS / "detector_registry.json"),
                              None, "exhaustive", seed=0, frame_budget=FRAMES)
    world, metrics = run_perception(scene, config)
    times = []
    while len(times) < RUNS or sum(times) < MIN_SECONDS:
        start = time.perf_counter()
        run_perception(scene, config)
        times.append(time.perf_counter() - start)
    ms = 1e3 * statistics.median(times)
    text = json.dumps(world.to_json(), sort_keys=True)
    return {"ms": ms,
            "us_per_detection": 1e3 * ms / metrics.detections_emitted,
            "detections": metrics.detections_emitted,
            "world_objects": len(world.objects),
            "world_sha256": hashlib.sha256(text.encode()).hexdigest()}


def run_side(src: Path, n: int) -> dict:
    """``measure(n)`` in a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--measure", str(n)],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def parent_src(rev: str, into: Path) -> tuple[str, Path]:
    """The full hash of ``rev`` and its ``src/``, unpacked under ``into``."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit, into / "src"


def summary(rounds: list[dict]) -> dict:
    """Median and per-round microseconds per detection, and the counts,
    which every round must agree on."""
    counts = {(r["detections"], r["world_objects"], r["world_sha256"]) for r in rounds}
    if len(counts) != 1:
        raise SystemExit(f"rounds disagree on the world they built: {counts}")
    first = rounds[0]
    per_round = [r["us_per_detection"] for r in rounds]
    return {"us_per_detection": statistics.median(per_round),
            "rounds_us_per_detection": per_round,
            "detections": first["detections"],
            "world_objects": first["world_objects"],
            "world_sha256": first["world_sha256"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--objects", default="100,300,1000,3000",
                    help="comma-separated clutter object counts")
    ap.add_argument("--repeats", type=int, default=3,
                    help="rounds per count; with --parent, pairs")
    ap.add_argument("--parent", help="git revision to measure beside this checkout")
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0
    counts = [int(v) for v in args.objects.split(",")]
    import numpy
    result = {
        "what": "Wall microseconds per detection of run_perception against "
                "clutter: the bundled door scene plus N clutter objects 0.6 m "
                f"apart, all in view, exhaustive, {FRAMES} frames, seed 0.",
        "command": "python tools/perception_scaling.py "
                   + " ".join(argv if argv is not None else sys.argv[1:]),
        "method": f"Each measurement is a fresh interpreter: one untimed run, "
                  f"then the median of at least {RUNS} timed runs, run until "
                  f"{MIN_SECONDS} s have passed. Each round measures "
                  "every side once; with a parent, which side runs first "
                  "alternates by round. The figure per side is the median "
                  "over rounds.",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "parent": None,
        "rows": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"change": ROOT / "src"}
        if args.parent:
            result["parent"], sides["parent"] = parent_src(args.parent, Path(tmp))
        for n in counts:
            rounds = {side: [] for side in sides}
            for r in range(args.repeats):
                order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                for side in order:
                    rounds[side].append(run_side(sides[side], n))
            row = {"objects": n}
            row.update({side: summary(rs) for side, rs in rounds.items()})
            if args.parent:
                row["same_world"] = (row["parent"]["world_sha256"]
                                     == row["change"]["world_sha256"])
            result["rows"].append(row)
            print(f"{n:5d} objects: {row['change']['detections']} detections, "
                  f"{row['change']['world_objects']} world objects; µs/detection "
                  + ", ".join(f"{side} {row[side]['us_per_detection']:.2f}"
                              for side in sides))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
