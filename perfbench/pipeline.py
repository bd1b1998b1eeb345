"""The request path the benchmark times, and the checks on its output.

One request is one instruction run the way ``minworld run`` runs it, with
assets and models already loaded: parse and lexicon check, perception
grounding, the sensing loop, behavior grounding, the executive, and the
JSON serialization of the world, metrics and trace that ``run`` writes.
One ``train`` job does what ``minworld train`` does for both bundled
corpora. Every call into the package goes through a span of the given
recorder, so the traced and untraced runs execute the same code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from minworld import cli, dcg
from minworld.executive import (
    DoorSim,
    ExecParams,
    NavigationError,
    RobotState,
    navigate,
    receive_behavior,
)
from minworld.parse import Lexicon, load_parse_tree, validate_against_lexicon
from minworld.percept import (
    DEFAULT_FRAME_BUDGET,
    PerceptionConfig,
    Scene,
    load_registry,
    run_perception,
)
from minworld.symbols import load_symbol_space
from spans import NoSpans

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Workload seed whose requests every run replays once, untimed, and
# compares in full (simulated metrics, final worlds, executive states)
# with the outputs recorded in reference.json under "check_seed".
CHECK_SEED = 0


class CheckError(AssertionError):
    """A request's output differs from what it must be."""


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@dataclass
class Context:
    """Everything a request needs that ``run`` would load from files."""

    space: object
    registry: tuple = ()
    scene: Scene | None = None
    lexicon: Lexicon | None = None
    perception_model: dcg.Model | None = None
    behavior_model: dcg.Model | None = None
    trees: dict | None = None
    corpora: tuple = ()


def load_context(inputs: dict, spans) -> Context:
    with spans.span("symbols.load"):
        space = load_symbol_space(inputs["space"])
    if "corpora" in inputs:
        with spans.span("dcg.corpus_load"):
            for path in inputs["corpora"]:
                dcg.load_corpus(path)
        return Context(space, corpora=tuple(inputs["corpora"]))
    with spans.span("parse.lexicon_load"):
        lexicon = Lexicon.from_json(inputs["lexicon"])
    with spans.span("percept.load"):
        registry = load_registry(inputs["registry"])
        scene = Scene.load(inputs["scene"])
    with spans.span("dcg.model_load"):
        perception_model = dcg.Model.load(inputs["perception_model"])
        behavior_model = dcg.Model.load(inputs["behavior_model"])
    trees = {name: Path(path).read_text(encoding="utf-8").strip()
             for name, path in inputs["trees"].items()}
    return Context(space, registry, scene, lexicon, perception_model,
                   behavior_model, trees)


@dataclass
class Outcome:
    tree: object
    detectors: object
    world: object
    metrics: object
    behavior: object
    status: object
    blobs: tuple[bytes, bytes, bytes]


def run_request(ctx: Context, req: dict, spans,
                frames: int = DEFAULT_FRAME_BUDGET) -> Outcome:
    with spans.span("parse"):
        tree = load_parse_tree(ctx.trees[req["tree"]])
        violations = validate_against_lexicon(tree, ctx.lexicon)
    if violations:
        raise CheckError(f"{req['tree']}: word {violations[0].word!r} "
                         f"not in lexicon")
    with spans.span("dcg.ground_perception"):
        detectors = cli.ground_detectors(tree, ctx.perception_model, ctx.space)
    with spans.span("percept.run"):
        config = PerceptionConfig(ctx.registry, detectors, req["mode"],
                                  req["seed"], frames)
        world, metrics = run_perception(ctx.scene, config)
    with spans.span("dcg.ground_behavior"):
        behavior = cli.ground_behavior(tree, ctx.behavior_model, ctx.space,
                                       world)
    with spans.span("executive"):
        robot = RobotState(base=ctx.scene.robot_start)
        door = DoorSim()
        handles = [o for o in ctx.scene.objects if o.parent is not None]
        if handles:
            door.handle_pose = handles[0].pose
        status = receive_behavior(behavior, world.snapshot, robot, door)
    with spans.span("cli.serialize"):
        blobs = tuple(dump_json(x.to_json()).encode("utf-8")
                      for x in (world, metrics, status))
    return Outcome(tree, detectors, world, metrics, behavior, status, blobs)


def fields(out: Outcome) -> dict:
    """The outputs that do not depend on the perception seed."""
    return {
        "detectors": sorted(out.detectors.ids),
        "links": sorted(list(p) for p in out.detectors.links),
        "active_detectors": list(out.metrics.active_detectors),
        "period": out.metrics.avg_period,
        "action": out.behavior.action,
        "target_label": out.world.objects[out.behavior.target_a].label,
        "states": [s.value for s, _ in out.status.trace],
    }


def expected_states(states: list[str], out: Outcome, start) -> list[str]:
    """The reference state sequence, unless an object other than the
    target covers the standoff point: then the executive must stop at
    dispatch. In exhaustive mode a false positive can land there, so this
    depends on the perception seed; ``navigate`` decides it independently
    of ``receive_behavior``."""
    if "NAVIGATING" not in states:
        return states
    target = out.world.objects[out.behavior.target_a]
    try:
        navigate(RobotState(base=start), target, ExecParams().standoff,
                 obstacles=out.world.query())
    except NavigationError:
        return ["RECEIVED", "FAILURE"]
    return states


def check_request(reference: dict, req: dict, out: Outcome, start) -> None:
    """Compare the seed-independent outputs with the reference; ``start``
    is the scene's robot start pose."""
    want = dict(reference[f"{req['tree']}:{req['mode']}"])
    want["states"] = expected_states(want["states"], out, start)
    got = fields(out)
    for key, value in want.items():
        ok = (math.isclose(got[key], value, rel_tol=1e-9)
              if isinstance(value, float) else got[key] == value)
        if not ok:
            raise CheckError(f"{req['tree']} ({req['mode']}): {key} is "
                             f"{got[key]!r}, reference {value!r}")


def sim_metrics(outs: list[Outcome]) -> dict:
    """The paper's simulated metrics over one pass of requests."""
    n = len(outs)
    return {
        "sim.period_s": sum(o.metrics.avg_period for o in outs) / n,
        "sim.sensing_cost_s": sum(o.metrics.total_cost for o in outs),
        "sim.exec_time_s": sum(o.status.trace[-1][1] for o in outs),
        "sim.world_objects": sum(len(o.world.objects) for o in outs) / n,
    }


def replay_record(outs: list[Outcome]) -> dict:
    """What the check-seed replay pins: the simulated metrics of the pass
    and, per request, the final world's objects per label, the detection
    counts and the executive's states."""
    return {
        "sim": sim_metrics(outs),
        "requests": [{
            "world": dict(Counter(o.label for o in out.world.objects.values())),
            "detections": out.metrics.detections_emitted,
            "spurious": out.metrics.spurious_emitted,
            "states": [s.value for s, _ in out.status.trace],
        } for out in outs],
    }


def _same(got, want) -> bool:
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9)
    return got == want


def replay_mismatches(want: dict, got: dict) -> list[str]:
    problems = [f"check seed: {key} is {got['sim'][key]!r}, reference {value!r}"
                for key, value in want["sim"].items()
                if not _same(got["sim"][key], value)]
    if len(got["requests"]) != len(want["requests"]):
        return problems + ["check seed: number of requests differs"]
    for i, (g, w) in enumerate(zip(got["requests"], want["requests"])):
        problems += [f"check seed: request {i} {key} differs from the reference"
                     for key in w if g[key] != w[key]]
    return problems


def check_seed_mismatches(inputs: dict, work: Path) -> list[str]:
    """Replay the workload's CHECK_SEED requests with the models of
    ``inputs`` and list where they differ from the reference."""
    import workloads
    check = workloads.prepare(inputs["workload"], CHECK_SEED, work)
    check["perception_model"] = inputs["perception_model"]
    check["behavior_model"] = inputs["behavior_model"]
    ctx = load_context(check, NoSpans())
    outs = [run_request(ctx, req, NoSpans()) for req in check["requests"]]
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))["check_seed"]
    return replay_mismatches(want[inputs["workload"]], replay_record(outs))


def run_job(ctx: Context, spans, out_dir: Path) -> list[dict]:
    """Train both corpora as ``minworld train`` does; one summary each."""
    summaries = []
    for path in ctx.corpora:
        with spans.span("dcg.compile"):
            kind, raw = dcg.load_corpus(path)
            examples = dcg.build_examples(kind, raw, ctx.space)
            corpus = dcg.CompiledCorpus(examples)
        with spans.span("dcg.optimize"):
            result = dcg.train(corpus, dcg.TrainConfig(), kind=kind)
        with spans.span("dcg.save"):
            model_path = out_dir / f"{kind}.json"
            result.model.save(model_path)
        with spans.span("dcg.recovery"):
            rec = dcg.recovery(corpus, result.model)
        summaries.append({
            "kind": kind,
            "examples": len(examples),
            "factors": corpus.n_factors,
            "features": corpus.dim,
            "iterations": result.iterations,
            "converged": result.converged,
            "objective": result.objective_history[-1],
            "recovery": rec,
            "model": str(model_path),
        })
    return summaries


def check_job(reference: dict, summaries: list[dict]) -> None:
    """Recovery may not drop and the objective may not fall; both may
    improve, so neither is pinned exactly."""
    for s in summaries:
        want = reference[s["kind"]]
        if s["recovery"] < want["recovery"]:
            raise CheckError(f"{s['kind']}: recovery {s['recovery']} below "
                             f"reference {want['recovery']}")
        floor = want["objective"] - 1e-6 * abs(want["objective"])
        if not s["objective"] >= floor:
            raise CheckError(f"{s['kind']}: objective {s['objective']} below "
                             f"reference {want['objective']}")


def _cli(argv: list[str]) -> dict:
    """The JSON summary ``cli.main`` prints, or {} if it prints none."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    try:
        return json.loads(buf.getvalue())
    except json.JSONDecodeError:
        return {}


def cli_mismatches(inputs: dict, ctx: Context, work: Path) -> list[str]:
    """Run the first request (or one job) through ``cli.main`` on the same
    files and list where its output differs from the library path's."""
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        if "corpora" in inputs:
            lib = run_job(ctx, NoSpans(), tmp)
            problems = []
            for path, want in zip(inputs["corpora"], lib):
                got = _cli(["train", "--corpus", path,
                            "--space", inputs["space"],
                            "--out", str(tmp / "cli.json"), "--json"])
                for key in ("kind", "examples", "factors", "features",
                            "iterations", "objective", "recovery"):
                    if got.get(key) != want[key]:
                        problems.append(f"train {want['kind']} {key}: cli "
                                        f"{got.get(key)!r}, library "
                                        f"{want[key]!r}")
            return problems
        req = inputs["requests"][0]
        out = run_request(ctx, req, NoSpans())
        argv = ["run", "--tree", inputs["trees"][req["tree"]],
                "--space", inputs["space"], "--registry", inputs["registry"],
                "--scene", inputs["scene"], "--lexicon", inputs["lexicon"],
                "--perception-model", inputs["perception_model"],
                "--behavior-model", inputs["behavior_model"],
                "--seed", str(req["seed"]), "--out-dir", str(tmp), "--json"]
        if req["mode"] == "exhaustive":
            argv.append("--exhaustive")
        summary = _cli(argv)
        problems = []
        for name, blob in zip(("world.json", "metrics.json", "trace.json"),
                              out.blobs):
            path = tmp / name
            if not path.is_file() or path.read_bytes() != blob:
                problems.append(f"{name} differs from the library path")
        want = {"detectors": sorted(out.detectors.ids),
                "mode": out.metrics.mode,
                "avg_period": out.metrics.avg_period,
                "world_objects": len(out.world.objects),
                "behavior": {"action": out.behavior.action,
                             "target": out.behavior.target_a},
                "result": out.status.state.value}
        for key, value in want.items():
            if summary.get(key) != value:
                problems.append(f"run summary {key}: cli {summary.get(key)!r}, "
                                f"library {value!r}")
        return problems
