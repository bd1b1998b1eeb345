"""Command-line entry point: train models, ground instructions, run the
perceive-and-act loop, and benchmark perception cost.

Exit codes: 0 success, 1 I/O or format problems, 2 grounding failure,
3 perception configuration failure, 4 execution failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dcg, percept
from .executive import (
    BehaviorRequest,
    DoorSim,
    ExecState,
    ExecStatus,
    RobotState,
    receive_behavior,
)
from .parse import Lexicon, ParseTree, TreeError, load_parse_tree, validate_against_lexicon
from .percept import PerceptionConfig, PerceptionError, Scene, load_registry, run_perception
from .symbols import DetectorSet, SymbolSpace, detectors_from_groundings, load_symbol_space
from .world import WorldError, WorldModel

EXIT_OK = 0
EXIT_IO = 1
EXIT_GROUNDING = 2
EXIT_PERCEPTION = 3
EXIT_EXECUTION = 4


class StageError(Exception):
    def __init__(self, stage: str, message: str, code: int):
        super().__init__(message)
        self.stage = stage
        self.code = code


def _asset(name: str) -> Path:
    return Path(__file__).resolve().parent / "assets" / name


DEFAULTS = {
    "space": _asset("symbol_space.json"),
    "registry": _asset("detector_registry.json"),
    "scene": _asset("door_scene.json"),
    "lexicon": _asset("lexicon.json"),
}


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_tree(path: str | Path) -> ParseTree:
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
        return load_parse_tree(text)
    except OSError as e:
        raise StageError("io", f"cannot read instruction tree: {e}", EXIT_IO)
    except TreeError as e:
        raise StageError("io", f"bad instruction tree {path}: {e}", EXIT_IO)


def _require_file(label: str, path) -> Path:
    if path is None:
        raise StageError("io", f"no {label} given (flag or config)", EXIT_IO)
    p = Path(path)
    if not p.is_file():
        raise StageError("io", f"{label} file not found: {p}", EXIT_IO)
    return p


def ground_detectors(tree: ParseTree, model: dcg.Model,
                     space: SymbolSpace) -> DetectorSet:
    """Infer the minimal detector set the instruction needs."""
    graph = dcg.build_perception_graph(tree, space)
    assignment = dcg.infer(graph, model)
    expressed = assignment.all_symbols(graph)
    if not expressed:
        raise StageError("grounding",
                         f"no detector symbols expressed for {tree.instruction!r}",
                         EXIT_GROUNDING)
    return detectors_from_groundings(expressed)


def ground_behavior(tree: ParseTree, model: dcg.Model, space: SymbolSpace,
                    world: WorldModel) -> BehaviorRequest:
    """Infer the behavior the instruction requests over this world."""
    graph = dcg.build_behavior_graph(tree, space, world)
    if not graph.bank:
        raise StageError("grounding", "world has no objects to ground against",
                         EXIT_GROUNDING)
    assignment = dcg.infer(graph, model)
    root = graph.tree.root.index
    chosen = sorted(assignment.expressed.get(root, frozenset()))
    if not chosen:
        raise StageError("grounding",
                         f"no behavior expressed at the root of {tree.instruction!r}",
                         EXIT_GROUNDING)
    sym = graph.bank[chosen[0]]
    return BehaviorRequest(sym.action, sym.target_a)


def _load_model(label: str, path) -> dcg.Model:
    p = _require_file(label, path)
    try:
        return dcg.Model.load(p)
    except (json.JSONDecodeError, dcg.CorpusError, KeyError) as e:
        raise StageError("io", f"bad model file {p}: {e}", EXIT_IO)


def _load_space(path) -> SymbolSpace:
    p = _require_file("symbol space", path)
    try:
        return load_symbol_space(p)
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        raise StageError("io", f"bad symbol space {p}: {e}", EXIT_IO)


def _load_registry(path):
    p = _require_file("detector registry", path)
    try:
        return load_registry(p)
    except (json.JSONDecodeError, KeyError, PerceptionError, ValueError) as e:
        raise StageError("io", f"bad detector registry {p}: {e}", EXIT_IO)


def _load_scene(path) -> Scene:
    p = _require_file("scene", path)
    try:
        return Scene.load(p)
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        raise StageError("io", f"bad scene {p}: {e}", EXIT_IO)


def _load_world(path) -> WorldModel:
    p = _require_file("world", path)
    try:
        return WorldModel.load(p)
    except (json.JSONDecodeError, KeyError, WorldError) as e:
        raise StageError("io", f"bad world {p}: {e}", EXIT_IO)


# Flags a run config may set, so argparse leaves them None; filled in
# after the overlay.
CONFIG_DEFAULTS = {"seed": 0, "frames": percept.DEFAULT_FRAME_BUDGET}


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay a run-config JSON under explicit flags, then give the
    flags neither set their defaults; relative paths are resolved against
    the config file's directory."""
    if args.config is not None:
        cfg_path = _require_file("config", args.config)
        try:
            cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise StageError("io", f"bad config JSON {cfg_path}: {e}", EXIT_IO)
        if not isinstance(cfg, dict):
            raise StageError("io", f"bad config {cfg_path}: not a JSON object",
                             EXIT_IO)
        path_keys = {"space", "registry", "scene", "lexicon", "tree",
                     "perception_model", "behavior_model", "out_dir"}
        for key, value in cfg.items():
            if key in path_keys:
                if not isinstance(value, str):
                    raise StageError("io", f"bad config {cfg_path}: {key} must "
                                     "be a path string", EXIT_IO)
                value = str((cfg_path.parent / value).resolve()) \
                    if not Path(value).is_absolute() else value
            # identity tests: an explicit --seed 0 equals False but is set
            current = getattr(args, key, None)
            if current is None or current is False:
                setattr(args, key, value)
    for key, default in CONFIG_DEFAULTS.items():
        value = getattr(args, key)
        if value is None:
            setattr(args, key, default)
        elif isinstance(value, bool) or not isinstance(value, int):
            raise StageError("io", f"config {key} must be an integer, got {value!r}",
                             EXIT_IO)


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    try:
        config = dcg.TrainConfig(iterations=args.iterations, step=args.step,
                                 l2=args.l2)
    except dcg.TrainingError as e:
        raise StageError("training", str(e), EXIT_IO)
    space = _load_space(args.space or DEFAULTS["space"])
    corpus_path = _require_file("corpus", args.corpus)
    try:
        kind, raw = dcg.load_corpus(corpus_path)
        examples = dcg.build_examples(kind, raw, space)
        corpus = dcg.CompiledCorpus(examples)
    except (json.JSONDecodeError, dcg.CorpusError, dcg.GroundingError, TreeError,
            ValueError) as e:
        raise StageError("io", f"bad corpus {corpus_path}: {e}", EXIT_IO)
    try:
        result = dcg.train(corpus, config, kind=kind)
    except dcg.TrainingError as e:
        raise StageError("training", str(e), EXIT_IO)
    result.model.save(args.out)
    rec = dcg.recovery(corpus, result.model)
    summary = {
        "kind": kind,
        "examples": len(examples),
        "factors": corpus.n_factors,
        "features": corpus.dim,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop": result.stop,
        "grad_norm": result.grad_norm,
        "objective": result.objective_history[-1],
        "recovery": rec,
        "model": str(args.out),
    }
    if args.json:
        print(_dump_json(summary), end="")
    else:
        print(f"trained {kind} model on {len(examples)} examples "
              f"({corpus.n_factors} factors, {corpus.dim} features)")
        print(f"objective {summary['objective']:.4f} after "
              f"{result.iterations} iterations, recovery {rec:.0%}")
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ground(args) -> int:
    space = _load_space(args.space or DEFAULTS["space"])
    tree = _load_tree(args.tree)
    model = _load_model("model", args.model)
    if model.kind == "perception":
        detectors = ground_detectors(tree, model, space)
        out = {
            "instruction": tree.instruction,
            "detectors": sorted(detectors.ids),
            "links": sorted(list(p) for p in detectors.links),
        }
        if args.json:
            print(_dump_json(out), end="")
        else:
            print(f"instruction: {tree.instruction}")
            print(f"detectors:   {', '.join(sorted(detectors.ids))}")
            for parent, sub in sorted(detectors.links):
                print(f"link:        {parent} -> {sub}")
    else:
        if not args.world:
            raise StageError("io", "behavior grounding needs --world", EXIT_IO)
        world = _load_world(args.world)
        request = ground_behavior(tree, model, space, world)
        label = world.objects[request.target_a].label
        out = {
            "instruction": tree.instruction,
            "action": request.action,
            "target": request.target_a,
            "target_label": label,
        }
        if args.json:
            print(_dump_json(out), end="")
        else:
            print(f"instruction: {tree.instruction}")
            print(f"behavior:    {request.action} -> object {request.target_a} "
                  f"({label})")
    return EXIT_OK


def _parse_links(text: str | None) -> frozenset[tuple[str, str]]:
    if not text:
        return frozenset()
    out = set()
    for part in text.split(","):
        parent, _, sub = part.strip().partition(":")
        if not parent or not sub:
            raise StageError("io", f"bad link spec {part!r}, want parent:subtype",
                             EXIT_IO)
        out.add((parent, sub))
    return frozenset(out)


def _write_outputs(out_dir: Path, world: WorldModel, metrics,
                   status: ExecStatus | None = None) -> None:
    """The world model and perception metrics, plus the executive trace
    when a behavior ran."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"world.json": _dump_json(world.to_json()),
             "metrics.json": _dump_json(metrics.to_json())}
    if status is not None:
        files["trace.json"] = _dump_json(status.to_json())
        files["trace.log"] = "\n".join(status.log_lines()) + "\n"
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")


def _perceive(args, scene: Scene, registry, detectors: DetectorSet | None):
    """Run the sensing loop in the mode, seed and frame budget ``args``
    give; a bad perception configuration exits 3."""
    mode = "exhaustive" if args.exhaustive else "adaptive"
    try:
        config = PerceptionConfig(registry, detectors, mode, args.seed, args.frames)
        return run_perception(scene, config)
    except PerceptionError as e:
        raise StageError("perception", str(e), EXIT_PERCEPTION)


def cmd_perceive(args) -> int:
    scene = _load_scene(args.scene or DEFAULTS["scene"])
    registry = _load_registry(args.registry or DEFAULTS["registry"])
    active = None
    if args.detectors:
        ids = frozenset(x.strip() for x in args.detectors.split(",") if x.strip())
        active = DetectorSet(ids, _parse_links(args.links))
    world, metrics = _perceive(args, scene, registry, active)
    out = {"world": world.to_json(), "metrics": metrics.to_json()}
    if args.json:
        print(_dump_json(out), end="")
    else:
        print(f"mode {metrics.mode}, {metrics.frames} frames, "
              f"period {metrics.avg_period:.3f} s, total {metrics.total_cost:.3f} s")
        print(f"active: {', '.join(metrics.active_detectors)}")
        for obj in world.query():
            parent = f" (on {obj.parent})" if obj.parent is not None else ""
            print(f"object {obj.id}: {obj.label} at "
                  f"({obj.pose.x:.2f}, {obj.pose.y:.2f}, {obj.pose.z:.2f}){parent}")
    if args.out_dir:
        _write_outputs(Path(args.out_dir), world, metrics)
    return EXIT_OK


def _pipeline(args, tree: ParseTree):
    """Shared run/bench front half: parse, ground, perceive."""
    space = _load_space(args.space or DEFAULTS["space"])
    registry = _load_registry(args.registry or DEFAULTS["registry"])
    scene = _load_scene(args.scene or DEFAULTS["scene"])
    lexicon_path = args.lexicon or DEFAULTS["lexicon"]
    lexicon = Lexicon.from_json(_require_file("lexicon", lexicon_path))
    violations = validate_against_lexicon(tree, lexicon)
    if violations:
        v = violations[0]
        raise StageError("io", f"word {v.word!r} not in lexicon for tag {v.tag}",
                         EXIT_IO)
    model = _load_model("perception model", args.perception_model)
    if model.kind != "perception":
        raise StageError("io", "perception model has wrong kind", EXIT_IO)
    detectors = ground_detectors(tree, model, space)
    dropped = frozenset(getattr(args, "drop_detector", None) or ())
    if dropped:
        detectors = DetectorSet(detectors.ids - dropped,
                                frozenset((p, s) for p, s in detectors.links
                                          if f"{p}_{s}" not in dropped))
    world, metrics = _perceive(args, scene, registry, detectors)
    return space, scene, detectors, world, metrics


def cmd_run(args) -> int:
    _apply_config(args)
    tree = _load_tree(args.tree)
    space, scene, detectors, world, metrics = _pipeline(args, tree)
    behavior_model = _load_model("behavior model", args.behavior_model)
    if behavior_model.kind != "behavior":
        raise StageError("io", "behavior model has wrong kind", EXIT_IO)
    request = ground_behavior(tree, behavior_model, space, world)

    robot = RobotState(base=scene.robot_start)
    door = DoorSim()
    handles = [o for o in scene.objects if o.parent is not None]
    if handles:
        door.handle_pose = handles[0].pose
    status = receive_behavior(request, world.snapshot, robot, door)

    out_dir = Path(args.out_dir or "minworld_out")
    _write_outputs(out_dir, world, metrics, status)

    summary = {
        "instruction": tree.instruction,
        "detectors": sorted(detectors.ids),
        "mode": metrics.mode,
        "avg_period": metrics.avg_period,
        "world_objects": len(world.objects),
        "behavior": {"action": request.action, "target": request.target_a},
        "result": status.state.value,
        "out_dir": str(out_dir),
    }
    if status.failure_reason:
        summary["failure_reason"] = status.failure_reason
    if args.json:
        print(_dump_json(summary), end="")
    else:
        print(f"instruction: {tree.instruction}")
        print(f"detectors:   {', '.join(sorted(detectors.ids))} ({metrics.mode}, "
              f"period {metrics.avg_period:.3f} s)")
        print(f"world:       {len(world.objects)} objects")
        print(f"behavior:    {request.action} -> object {request.target_a}")
        for line in status.log_lines():
            print(line)
        print(f"result:      {status.state.value}")
    if status.state is ExecState.FAILURE:
        return EXIT_EXECUTION
    return EXIT_OK


def _bench_cases(args) -> list[tuple[Path, str]]:
    if args.case:
        cases = []
        for spec in args.case:
            path, _, mode = spec.partition("=")
            mode = mode or "adaptive"
            if mode not in ("adaptive", "exhaustive"):
                raise StageError("io", f"bad case mode {mode!r}", EXIT_IO)
            cases.append((_require_file("instruction tree", path), mode))
        return cases
    drive = _asset("trees/drive_to_the_door.txt")
    open_ = _asset("trees/open_the_door.txt")
    return [(drive, "exhaustive"), (drive, "adaptive"), (open_, "adaptive")]


def cmd_bench(args) -> int:
    _apply_config(args)
    rows = []
    for tree_path, mode in _bench_cases(args):
        tree = _load_tree(tree_path)
        args.exhaustive = mode == "exhaustive"
        _, _, detectors, _, metrics = _pipeline(args, tree)
        rows.append({
            "instruction": tree.instruction,
            "mode": mode,
            "avg_period": metrics.avg_period,
            "active_detectors": list(metrics.active_detectors),
        })
    payload = _dump_json({"rows": rows})
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    if args.json:
        print(payload, end="")
    else:
        width = max(len(r["instruction"]) for r in rows) + 2
        print(f"{'instruction':<{width}}{'mode':<12}{'avg period (s)':<16}active detectors")
        for r in rows:
            print(f"{r['instruction']:<{width}}{r['mode']:<12}"
                  f"{r['avg_period']:<16.3f}{', '.join(r['active_detectors'])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", help="symbol space JSON (default: bundled)")
    p.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minworld",
        description="ground instructions to detectors and run the simulated loop")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit factor weights on a corpus")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    defaults = dcg.TrainConfig()
    p.add_argument("--iterations", type=int, default=defaults.iterations)
    p.add_argument("--step", type=float, default=defaults.step)
    p.add_argument("--l2", type=float, default=defaults.l2)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ground", help="infer detectors or behavior for a tree")
    _add_common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--world", help="world snapshot JSON (behavior models)")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("perceive", help="run the sensing loop on a scene")
    _add_common(p)
    p.add_argument("--scene")
    p.add_argument("--registry")
    p.add_argument("--detectors", help="comma-separated detector ids")
    p.add_argument("--links", help="comma-separated parent:subtype pairs")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=percept.DEFAULT_FRAME_BUDGET)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_perceive)

    p = sub.add_parser("run", help="full pipeline: ground, perceive, act")
    _add_common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--config", help="run-config JSON supplying the paths below")
    p.add_argument("--perception-model")
    p.add_argument("--behavior-model")
    p.add_argument("--scene")
    p.add_argument("--registry")
    p.add_argument("--lexicon")
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--frames", type=int,
                   help=f"default {percept.DEFAULT_FRAME_BUDGET}")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--drop-detector", action="append", metavar="ID",
                   help="remove a detector from the inferred set (repeatable)")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="perception-cost benchmark rows")
    _add_common(p)
    p.add_argument("--config", help="run-config JSON supplying the paths below")
    p.add_argument("--perception-model")
    p.add_argument("--scene")
    p.add_argument("--registry")
    p.add_argument("--lexicon")
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--frames", type=int,
                   help=f"default {percept.DEFAULT_FRAME_BUDGET}")
    p.add_argument("--case", action="append", metavar="TREE[=MODE]",
                   help="benchmark row (default: the three bundled rows)")
    p.add_argument("--out", help="also write the JSON rows to this file")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as e:
        print(f"error [{e.stage}]: {e}", file=sys.stderr)
        return e.code
    except (dcg.GroundingError, dcg.NumericError) as e:
        print(f"error [grounding]: {e}", file=sys.stderr)
        return EXIT_GROUNDING
    except OSError as e:
        print(f"error [io]: {e}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
