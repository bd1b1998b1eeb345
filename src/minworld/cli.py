"""Command-line entry point: train models, ground instructions, run the
perceive-and-act loop, and benchmark perception cost.

Exit codes: 0 success, 1 usage, I/O or format problems, 2 grounding
failure, 3 perception configuration failure, 4 execution failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dcg, percept
from .dcg import ground_behavior, ground_detectors
from .executive import (
    DoorSim,
    ExecState,
    ExecStatus,
    RobotState,
    receive_behavior,
)
from .parse import Lexicon, ParseTree, load_parse_tree, validate_against_lexicon
from .percept import (
    PerceptionConfig,
    PerceptionError,
    Scene,
    UnregisteredDetectorError,
    load_registry,
    run_perception,
)
from .symbols import DetectorSet, load_symbol_space
from .world import Pose, WorldError, WorldModel, WorldObject, is_int, read_json

EXIT_OK = 0
EXIT_IO = 1
EXIT_GROUNDING = 2
EXIT_PERCEPTION = 3
EXIT_EXECUTION = 4


class StageError(Exception):
    """Stops a command with one ``error [stage]`` line and the stage's code:
    a ``PerceptionError`` or ``WorldError`` is ``io`` while a file loads and
    ``perception`` while the loop senses. The other library errors reach
    ``main`` as they are."""

    CODES = {"io": EXIT_IO, "perception": EXIT_PERCEPTION}

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
        self.code = self.CODES[stage]


def _asset(name: str) -> Path:
    return Path(__file__).resolve().parent / "assets" / name


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load(label: str, path, loader):
    """``loader(path)`` for one input file; a missing or malformed file
    exits 1 with one line. The loaders report malformed content only as
    a ValueError (bad JSON, JSON nested too deep to decode, a bad tree,
    symbol space, world, scene, corpus or model), a missing key, a bad
    detector, or a corpus word grounding cannot featurize."""
    if path is None:
        raise StageError("io", f"no {label} given (flag or config)")
    p = Path(path)
    if not p.is_file():
        raise StageError("io", f"{label} file not found: {p}")
    try:
        return loader(p)
    except (ValueError, KeyError, PerceptionError, dcg.GroundingError) as e:
        raise StageError("io", f"bad {label} {p}: {e}")


def _read_tree(path: Path) -> ParseTree:
    return load_parse_tree(path.read_text(encoding="utf-8").strip())


# Every input file a command reads but the training corpus, by flag dest:
# the label its error lines use, its loader, and its bundled default.
INPUTS = {
    "space": ("symbol space", load_symbol_space, _asset("symbol_space.json")),
    "registry": ("detector registry", load_registry, _asset("detector_registry.json")),
    "scene": ("scene", Scene.load, _asset("door_scene.json")),
    "lexicon": ("lexicon", Lexicon.from_json, _asset("lexicon.json")),
    "tree": ("instruction tree", _read_tree, None),
    "model": ("model", dcg.Model.load, None),
    "perception_model": ("perception model", dcg.Model.load, None),
    "behavior_model": ("behavior model", dcg.Model.load, None),
    "world": ("world", WorldModel.load, None),
}
SHARED_INPUTS = ("space", "registry", "scene", "lexicon", "perception_model")
# The keys a run config may set: the paths of the inputs and the output
# directory, resolved against the config file's directory, and integer flags
# with their defaults. argparse leaves every one of them None, so a flag given
# on the command line wins. A command reads only the keys it has a flag for.
CONFIG_PATHS = (*INPUTS, "out_dir")
CONFIG_DEFAULTS = {"seed": 0, "frames": percept.DEFAULT_FRAME_BUDGET}


def _input(key: str, path):
    """Input ``key`` of INPUTS, from ``path`` or else its bundled default.
    A ``<kind>_model`` must be a model of that kind."""
    label, loader, default = INPUTS[key]
    value = _load(label, path or default, loader)
    kind = key.removesuffix("_model")
    if kind != key and value.kind != kind:
        raise StageError("io", f"{label} has wrong kind")
    return value


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay the run-config JSON, if the command takes one, under explicit
    flags, then give the integer flags neither set their defaults."""
    if getattr(args, "config", None) is not None:
        cfg_path = Path(args.config)
        cfg = _load("config", cfg_path, lambda p: read_json(p, "config"))
        for key, value in cfg.items():
            if key in CONFIG_PATHS and hasattr(args, key):
                if not isinstance(value, str):
                    raise StageError("io", f"bad config {cfg_path}: {key} must "
                                     "be a path string")
                value = str((cfg_path.parent / value).resolve()) \
                    if not Path(value).is_absolute() else value
            elif key not in CONFIG_DEFAULTS:
                raise StageError("io", f"bad config {cfg_path}: unknown key "
                                 f"{key!r}")
            elif value is not None and not is_int(value):  # null: the default
                raise StageError("io", f"bad config {cfg_path}: {key} must be "
                                 f"an integer, got {value!r}")
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key, default in CONFIG_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    config = dcg.TrainConfig(iterations=args.iterations, step=args.step, l2=args.l2)
    space = _input("space", args.space)

    def compile_corpus(path):
        kind, raw = dcg.load_corpus(path)
        return kind, dcg.CompiledCorpus(dcg.build_examples(kind, raw, space))

    kind, corpus = _load("corpus", args.corpus, compile_corpus)
    result = dcg.train(corpus, config, kind=kind)
    result.model.save(args.out)
    rec = dcg.recovery(corpus, result.model)
    summary = {
        "kind": kind,
        "examples": len(corpus.examples),
        "factors": corpus.n_factors,
        "features": corpus.dim,
        "coordinates": corpus.grouped.n_coords,
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
        print(f"trained {kind} model on {len(corpus.examples)} examples "
              f"({corpus.n_factors} factors, {corpus.dim} features)")
        print(f"objective {summary['objective']:.4f} after "
              f"{result.iterations} iterations, recovery {rec:.0%}")
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ground(args) -> int:
    space = _input("space", args.space)
    tree = _input("tree", args.tree)
    model = _input("model", args.model)
    if model.kind == "perception":
        if args.world:
            raise StageError("io", "--world is unused with a perception model")
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
            raise StageError("io", "behavior grounding needs --world")
        world = _input("world", args.world)
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
            raise StageError("io", f"bad link spec {part!r}, want parent:subtype")
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


def _perceive(args, mode: str, scene: Scene, registry,
              detectors: DetectorSet | None, grounded: bool = False):
    """Run the sensing loop in ``mode`` with the seed and frame budget
    ``args`` give; a bad perception configuration exits 3. ``grounded``
    says the detector ids came from grounding the instruction, so an
    unregistered id is a label of the symbol space the registry lacks."""
    try:
        config = PerceptionConfig(registry, detectors, mode, args.seed, args.frames)
        return run_perception(scene, config)
    except PerceptionError as e:
        why = ""
        if grounded and isinstance(e, UnregisteredDetectorError):
            why = (" (grounded from the symbol space, but the registry has "
                   "no detector for them)")
        raise StageError("perception", f"{e}{why}")
    except WorldError as e:
        # a huge noise or visibility range moved a detection past float precision
        raise StageError("perception", f"bad detection: {e}")


def cmd_perceive(args) -> int:
    if args.exhaustive and args.links:
        raise StageError("io", "--links is unused with --exhaustive")
    _apply_config(args)
    scene = _input("scene", args.scene)
    registry = _input("registry", args.registry)
    active = None
    if args.detectors:
        ids = frozenset(x.strip() for x in args.detectors.split(",") if x.strip())
        active = DetectorSet(ids, _parse_links(args.links))
    mode = "exhaustive" if args.exhaustive else "adaptive"
    world, metrics = _perceive(args, mode, scene, registry, active)
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


def _load_inputs(args) -> tuple:
    return tuple(_input(key, getattr(args, key)) for key in SHARED_INPUTS)


def _ground_and_perceive(args, inputs: tuple, tree: ParseTree, mode: str,
                         dropped: frozenset[str] = frozenset()):
    """Check ``tree`` against the lexicon, ground its detectors less the
    ``dropped`` ones, and run the sensing loop with them in ``mode``."""
    space, registry, scene, lexicon, model = inputs
    violations = validate_against_lexicon(tree, lexicon)
    if violations:
        v = violations[0]
        raise StageError("io", f"word {v.word!r} not in lexicon for tag {v.tag}")
    detectors = ground_detectors(tree, model, space).without(dropped)
    world, metrics = _perceive(args, mode, scene, registry, detectors,
                               grounded=True)
    return detectors, world, metrics


def _true_handle(scene: Scene, target: WorldObject) -> Pose | None:
    """The true pose of the target's handle: the lowest-id scene child of
    the scene object of the target's label nearest to it, or None."""
    truth = min((o for o in scene.objects if o.label == target.label),
                key=lambda o: (o.pose.distance(target.pose), o.id), default=None)
    handles = [o for o in scene.objects
               if truth is not None and o.parent == truth.id]
    return min(handles, key=lambda o: o.id).pose if handles else None


def cmd_run(args) -> int:
    _apply_config(args)
    tree = _input("tree", args.tree)
    inputs = _load_inputs(args)
    behavior_model = _input("behavior_model", args.behavior_model)
    mode = "exhaustive" if args.exhaustive else "adaptive"
    detectors, world, metrics = _ground_and_perceive(
        args, inputs, tree, mode, frozenset(args.drop_detector or ()))
    space, _, scene, _, _ = inputs
    request = ground_behavior(tree, behavior_model, space, world)

    robot = RobotState(base=scene.robot_start)
    door = DoorSim(handle_pose=_true_handle(scene, world.objects[request.target_a]))
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


def _bench_cases(args) -> list[tuple[ParseTree, str]]:
    """A (tree, mode) per ``--case``, or the three bundled rows."""
    cases = []
    for spec in args.case or ():
        path, _, mode = spec.partition("=")
        mode = mode or "adaptive"
        if mode not in percept.MODES:
            raise StageError("io", f"bad case mode {mode!r}")
        cases.append((path, mode))
    if not cases:
        drive = _asset("trees/drive_to_the_door.txt")
        open_ = _asset("trees/open_the_door.txt")
        cases = [(drive, "exhaustive"), (drive, "adaptive"), (open_, "adaptive")]
    return [(_input("tree", path), mode) for path, mode in cases]


def cmd_bench(args) -> int:
    _apply_config(args)
    cases = _bench_cases(args)
    inputs = _load_inputs(args)
    rows = []
    for tree, mode in cases:
        _, _, metrics = _ground_and_perceive(args, inputs, tree, mode)
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

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error [io]`` line and exit 1."""

    def error(self, message: str):
        raise StageError("io", f"{self.prog}: {message}")


def _add_flags(p: argparse.ArgumentParser, *keys: str,
               required: tuple[str, ...] = ()) -> None:
    """``--json`` and a flag per key: an input of INPUTS (one in ``required``
    must be given), ``config``, or an integer of CONFIG_DEFAULTS."""
    p.add_argument("--json", action="store_true", help="emit JSON")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if key in CONFIG_DEFAULTS:
            p.add_argument(flag, type=int, help=f"default {CONFIG_DEFAULTS[key]}")
        elif key == "config":
            p.add_argument(flag, help="run-config JSON setting these flags")
        else:
            label, _, default = INPUTS[key]
            p.add_argument(flag, required=key in required,
                           help=label + (" (default: bundled)" if default else ""))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minworld",
        description="ground instructions to detectors and run the simulated loop")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit factor weights on a corpus")
    _add_flags(p, "space")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    defaults = dcg.TrainConfig()
    p.add_argument("--iterations", type=int, default=defaults.iterations,
                   help="cap on L-BFGS iterations (default %(default)s)")
    p.add_argument("--step", type=float, default=defaults.step,
                   help="trial step of the first iteration, along the "
                        "gradient; later iterations try 1.0 along the "
                        "L-BFGS direction (default %(default)s)")
    p.add_argument("--l2", type=float, default=defaults.l2)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ground", help="infer detectors or behavior for a tree")
    _add_flags(p, "space", "tree", "model", "world", required=("tree", "model"))
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("perceive", help="run the sensing loop on a scene")
    _add_flags(p, "scene", "registry", *CONFIG_DEFAULTS)
    mode = p.add_mutually_exclusive_group()  # the baseline sets its own detectors
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--detectors", help="comma-separated detector ids")
    p.add_argument("--links", help="comma-separated parent:subtype pairs")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_perceive)

    p = sub.add_parser("run", help="full pipeline: ground, perceive, act")
    _add_flags(p, "tree", "config", *SHARED_INPUTS, "behavior_model",
               *CONFIG_DEFAULTS)
    mode = p.add_mutually_exclusive_group()  # the baseline drops no detector
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--drop-detector", action="append", metavar="ID",
                      help="remove a detector from the inferred set (repeatable)")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="perception-cost benchmark rows")
    _add_flags(p, "config", *SHARED_INPUTS, *CONFIG_DEFAULTS)
    p.add_argument("--case", action="append", metavar="TREE[=MODE]",
                   help="benchmark row (default: the three bundled rows)")
    p.add_argument("--out", help="also write the JSON rows to this file")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except StageError as e:
        print(f"error [{e.stage}]: {e}", file=sys.stderr)
        return e.code
    except dcg.TrainingError as e:
        print(f"error [training]: {e}", file=sys.stderr)
        return EXIT_IO
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
