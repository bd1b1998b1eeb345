"""Scaling sweep: per-module time and counts against input size.

    python3 perfbench/sweep.py [--seed N]

Report only; nothing here is gated. Three sweeps, each changing one input
property of one request and holding the rest at the workload defaults:

* perception bank size (bundled space padded to 7 ... 1500 symbols),
  grounding the five-phrase "turn the handle of the door" tree;
* clutter (10 ... 130 objects), "drive to the door" in exhaustive mode;
* frame budget (30 ... 120) on the 100-object cluttered scene.

Each cell is the lowest of REPEATS runs of the request path the benchmark
times: the host switches between speed states for seconds at a time, and
the minimum keeps a switch in mid-sweep from bending the curve.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from minworld import dcg  # noqa: E402
from minworld.percept import Scene  # noqa: E402
from minworld.symbols import SymbolSpace  # noqa: E402
from minworld.world import WorldModel  # noqa: E402
from spans import Spans  # noqa: E402
from summarize import by_name  # noqa: E402

BANKS = (7, 74, 299, 750, 1199, 1500)
CLUTTER = (10, 30, 60, 100, 130)
FRAMES = (30, 60, 90, 120)
REPEATS = 7
STAGES = ("dcg.ground_perception", "percept.run", "world.integrate",
          "dcg.ground_behavior", "executive", "cli.serialize")


def measure(ctx, req: dict, frames: int) -> tuple[dict, object]:
    """Lowest self ms per stage over REPEATS traced runs."""
    per_stage: dict[str, list[float]] = {s: [] for s in STAGES}
    calls = {}
    for _ in range(REPEATS):
        spans = Spans()
        spans.request = 0
        spans.patch(WorldModel, "integrate", "world.integrate")
        try:
            out = pipeline.run_request(ctx, req, spans, frames)
        finally:
            spans.unpatch()
        names = by_name(spans.records)
        for s in STAGES:
            per_stage[s].append(names.get(s, {}).get("self_ns", 0) / 1e6)
        calls = {s: d["calls"] for s, d in names.items()}
    return ({s: min(v) for s, v in per_stage.items()},
            (out, calls))


def row(label, ms: dict, extra: str) -> str:
    cells = "".join(f"{ms[s]:>11.2f}" for s in STAGES)
    return f"{label:>8}{cells}  {extra}"


def header(first: str) -> str:
    return f"{first:>8}" + "".join(f"{s.split('.')[-1][:10]:>11}"
                                   for s in STAGES) + "  counts"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    work = ROOT / ".bench_out" / "sweep"
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.prepare("door_tasks", args.seed, work)
    run.train_models(inputs)
    ctx = pipeline.load_context(inputs, Spans())
    base_space = {"labels": list(ctx.space.labels),
                  "hierarchies": [list(p) for p in ctx.space.hierarchy_pairs],
                  "actions": list(ctx.space.actions)}
    base_scene = json.loads(
        (workloads.assets_dir() / "door_scene.json").read_text("utf-8"))
    print("times are the lowest self ms per request over "
          f"{REPEATS} runs (seed {args.seed})")

    print("\n-- perception bank size, adaptive 'turn the handle of the door'")
    print(header("symbols"))
    bundled = ctx.space
    turn = {"tree": "turn_the_handle_of_the_door", "mode": "adaptive",
            "seed": args.seed}
    for n in BANKS:
        s = workloads.padded_space(base_space, n, random.Random(args.seed))
        ctx.space = SymbolSpace(s["labels"], s["hierarchies"], s["actions"])
        ms, (out, _) = measure(ctx, turn, 30)
        factors = dcg.build_perception_graph(out.tree, ctx.space).factor_count
        us = 1e3 * ms["dcg.ground_perception"] / factors
        print(row(len(ctx.space.perception), ms,
                  f"factors {factors}, {us:.1f} us/factor"))
    ctx.space = bundled

    print("\n-- clutter objects, exhaustive 'drive to the door', 30 frames")
    print(header("objects"))
    drive = {"tree": "drive_to_the_door", "mode": "exhaustive",
             "seed": args.seed}
    for n in CLUTTER:
        ctx.scene = Scene.from_json(workloads.cluttered_scene(
            base_scene, n, random.Random(args.seed)))
        ms, (out, calls) = measure(ctx, drive, 30)
        print(row(n, ms, f"integrate calls {calls['world.integrate']}, "
                         f"world {len(out.world.objects)} objects"))

    print(f"\n-- frame budget, exhaustive 'drive to the door', "
          f"{workloads.CLUTTER_OBJECTS} clutter objects")
    print(header("frames"))
    ctx.scene = Scene.from_json(workloads.cluttered_scene(
        base_scene, workloads.CLUTTER_OBJECTS, random.Random(args.seed)))
    for frames in FRAMES:
        ms, (out, calls) = measure(ctx, drive, frames)
        print(row(frames, ms, f"integrate calls {calls['world.integrate']}, "
                              f"sim cost {out.metrics.total_cost:.1f} s"))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
