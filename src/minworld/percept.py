"""Simulated perception: detectors, scenes, and the sensing loop.

Each active detector processes every frame and charges a fixed per-frame
cost, so the per-frame sensing period is exactly the sum of the active
frame costs. Adaptive runs activate only a task-inferred detector set;
exhaustive runs activate the registry's static baseline set, false
positives included. All timing is simulated bookkeeping, never wall
clock, so identical invocations produce identical output.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .symbols import DetectorSet, subtype_detector_id
from .world import (
    Aabb,
    Detection,
    Pose,
    WorldError,
    WorldModel,
    WorldObject,
    finite_number,
    is_int,
    json_number,
    json_object,
    read_json,
)

DEFAULT_MAX_RANGE = 6.0
DEFAULT_FOV_DEG = 87.0
DEFAULT_FRAME_BUDGET = 30
MODES = ("adaptive", "exhaustive")


class PerceptionError(RuntimeError):
    pass


class UnregisteredDetectorError(PerceptionError):
    """Active detector ids that the registry has no detector for."""


@dataclass(frozen=True)
class DetectorSpec:
    """One object detector: what it emits, what a frame of it costs, and
    whether it belongs to the static exhaustive baseline."""

    id: str
    emits_label: str
    frame_cost: float
    false_positive_rate: float = 0.0
    noise_sigma: float = 0.0
    baseline: bool = True

    def __post_init__(self):
        for name in ("id", "emits_label"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise PerceptionError(
                    f"detector {name} must be a non-empty string, got {value!r}")
        for name in ("frame_cost", "false_positive_rate", "noise_sigma"):
            value = getattr(self, name)
            if not finite_number(value):
                raise PerceptionError(
                    f"detector {self.id}: {name} must be a finite number, got {value!r}")
        if self.frame_cost <= 0:
            raise PerceptionError(f"detector {self.id}: frame cost must be positive")
        if not 0.0 <= self.false_positive_rate < 1.0:
            raise PerceptionError(f"detector {self.id}: bad false-positive rate")
        if self.noise_sigma < 0:
            raise PerceptionError(f"detector {self.id}: noise_sigma must be >= 0, "
                                  f"got {self.noise_sigma!r}")
        if not isinstance(self.baseline, bool):
            raise PerceptionError(f"detector {self.id}: baseline must be true or "
                                  f"false, got {self.baseline!r}")


@dataclass(frozen=True)
class Visibility:
    """The view from the robot: range in metres, field of view in
    radians. Spurious detections are drawn from 1 m out to the range."""

    max_range: float = DEFAULT_MAX_RANGE
    fov: float = math.radians(DEFAULT_FOV_DEG)

    def __post_init__(self):
        if not self.max_range >= 1.0:
            raise PerceptionError(f"visibility max_range must be >= 1, "
                                  f"got {self.max_range!r}")
        if not 0.0 < self.fov <= 2.0 * math.pi:
            raise PerceptionError(f"visibility fov_deg must be in (0, 360], "
                                  f"got {math.degrees(self.fov):.10g}")


@dataclass
class Scene:
    """Ground truth: the objects that exist, regardless of detection."""

    objects: list[WorldObject]
    visibility: Visibility = Visibility()
    robot_start: Pose = Pose(0.0, 0.0)

    def __post_init__(self):
        # reuse the world model's single-layer check on ground truth
        WorldModel(self.objects)

    @classmethod
    def from_json(cls, data) -> "Scene":
        data = json_object(data, "scene")
        vis_raw = json_object(data.get("visibility", {}), "visibility")
        vis = Visibility(
            max_range=json_number(vis_raw.get("max_range", DEFAULT_MAX_RANGE),
                                  "max_range"),
            fov=math.radians(json_number(vis_raw.get("fov_deg", DEFAULT_FOV_DEG),
                                         "fov_deg")),
        )
        start = Pose.from_json(data.get("robot_start", {"x": 0.0, "y": 0.0}))
        objects = data.get("objects", [])
        if not isinstance(objects, list):
            raise WorldError("scene objects must be a list")
        return cls([WorldObject.from_json(d) for d in objects], vis, start)

    @classmethod
    def load(cls, path: str | Path) -> "Scene":
        return cls.from_json(read_json(path, "scene"))


@dataclass
class PerceptionConfig:
    registry: tuple[DetectorSpec, ...]
    active: DetectorSet | None = None
    mode: str = "adaptive"
    seed: int = 0
    frame_budget: int = DEFAULT_FRAME_BUDGET

    def __post_init__(self):
        if self.mode not in MODES:
            raise PerceptionError(f"unknown perception mode {self.mode!r}")
        if not is_int(self.frame_budget):
            raise PerceptionError(f"frame budget must be an integer >= 1, "
                                  f"got {self.frame_budget!r}")
        if self.frame_budget <= 0:
            raise PerceptionError("frame budget must be positive")
        if not (is_int(self.seed) and self.seed >= 0):
            raise PerceptionError(f"seed must be an integer >= 0, got {self.seed!r}")
        ids = [d.id for d in self.registry]
        if len(set(ids)) != len(ids):
            raise PerceptionError("duplicate detector ids in registry")


@dataclass
class PerceptionMetrics:
    mode: str
    frames: int
    active_detectors: list[str]
    avg_period: float
    total_cost: float
    detections_emitted: int
    spurious_emitted: int

    def to_json(self) -> dict:
        # dataclasses.asdict gives the same dict at ten times the cost
        return {k: copy.copy(v) for k, v in vars(self).items()}


def load_registry(path: str | Path) -> tuple[DetectorSpec, ...]:
    data = read_json(path, "detector registry")
    detectors = data["detectors"]
    if not isinstance(detectors, list):
        raise PerceptionError(f"registry detectors must be a list, "
                              f"got {type(detectors).__name__}")
    entries = [json_object(d, f"detector {i}") for i, d in enumerate(detectors)]
    specs = tuple(
        DetectorSpec(
            id=d["id"],
            emits_label=d.get("emits_label", d["id"]),
            frame_cost=d["frame_cost"],
            false_positive_rate=d.get("false_positive_rate", 0.0),
            noise_sigma=d.get("noise_sigma", 0.0),
            baseline=d.get("baseline", True),
        )
        for d in entries
    )
    PerceptionConfig(specs)  # id uniqueness check
    return specs


def perception_plan(config: PerceptionConfig) -> tuple[
        list[DetectorSpec], frozenset[tuple[str, str]], frozenset[str]]:
    """What a run senses: the detectors it runs, sorted by id; the parent
    label -> emitted child label links it integrates with; and the ids of
    the detectors that may fire false positives. Adaptive: the grounded
    detectors and links, no false positives. Exhaustive: the registry's
    baseline, unlinked, with each positive false-positive rate."""
    if config.mode == "exhaustive":
        chosen = sorted((d for d in config.registry if d.baseline),
                        key=lambda d: d.id)
        if not chosen:
            raise PerceptionError("registry has no baseline detectors")
        return chosen, frozenset(), frozenset(
            d.id for d in chosen if d.false_positive_rate > 0.0)
    if config.active is None or not config.active.ids:
        raise PerceptionError("adaptive perception with no detectors to run")
    by_id = {d.id: d for d in config.registry}
    missing = sorted(config.active.ids - by_id.keys())
    if missing:
        raise UnregisteredDetectorError(
            f"detector ids not in registry: {', '.join(missing)}")
    links = set()
    for parent, subtype in config.active.links:
        child_id = subtype_detector_id(parent, subtype)
        child = by_id.get(child_id)
        if child is None:
            raise PerceptionError(f"no registered detector for subtype {child_id}")
        links.add((parent, child.emits_label))
    return (sorted((by_id[i] for i in config.active.ids), key=lambda d: d.id),
            frozenset(links), frozenset())


def visible(obj: WorldObject, robot: Pose, vis: Visibility) -> bool:
    cx, cy, cz = obj.bbox.center
    if math.dist((cx, cy, cz), (robot.x, robot.y, robot.z)) > vis.max_range:
        return False
    bearing = math.atan2(cy - robot.y, cx - robot.x)
    off = math.remainder(bearing - robot.yaw, math.tau)
    return abs(off) <= vis.fov / 2.0


def run_perception(scene: Scene,
                   config: PerceptionConfig) -> tuple[WorldModel, PerceptionMetrics]:
    """Run the sensing loop and build a world model.

    Every frame, each detector of the plan (in id order) scans the
    visible ground truth for its label and emits one noisy detection per
    hit; a detector the plan lets fire false positives may additionally
    emit one spurious detection per frame at its rate. Detections are
    integrated immediately over the plan's links. Frame timestamps
    advance by the summed frame cost, so total cost is exactly frames
    times the active period. The robot stays at ``scene.robot_start``,
    so visibility is computed once, grouped by label.
    """
    active, links, false_positives = perception_plan(config)
    period = sum(d.frame_cost for d in active)
    # a frame budget beyond the float range has no float cost to check
    if not (finite_number(config.frame_budget)
            and math.isfinite(period * config.frame_budget)):
        raise PerceptionError(f"sensing cost of {config.frame_budget} frames at "
                              f"{period!r} s a frame is not finite")
    robot = scene.robot_start
    rng = np.random.default_rng(config.seed)
    world = WorldModel()
    integrate = world.integrate
    in_view: dict[str, list[WorldObject]] = {}  # label -> visible truth
    for obj in sorted(scene.objects, key=lambda o: o.id):
        if visible(obj, robot, scene.visibility):
            in_view.setdefault(obj.label, []).append(obj)
    emitted = 0
    spurious = 0
    time = 0.0
    for _ in range(config.frame_budget):
        time += period
        for det in active:
            hits = in_view.get(det.emits_label)
            if hits:
                label = det.emits_label
                # one (k, 2) draw reads the stream exactly as k draws of 2
                noise = (rng.normal(0.0, 1.0, (len(hits), 2))
                         * det.noise_sigma).tolist()
                for obj, (dx, dy) in zip(hits, noise):
                    integrate(Detection(
                        label, obj.pose.moved(dx, dy),
                        obj.bbox.translated(dx, dy), time), links)
                emitted += len(hits)
            if det.id in false_positives:
                if rng.random() < det.false_positive_rate:
                    r = rng.uniform(1.0, scene.visibility.max_range)
                    bearing = robot.yaw + rng.uniform(
                        -scene.visibility.fov / 2.0, scene.visibility.fov / 2.0)
                    x = robot.x + r * math.cos(bearing)
                    y = robot.y + r * math.sin(bearing)
                    integrate(Detection(
                        det.emits_label, Pose(x, y, 0.5),
                        Aabb((x - 0.1, y - 0.1, 0.4), (x + 0.1, y + 0.1, 0.6)),
                        time), links)
                    emitted += 1
                    spurious += 1
    metrics = PerceptionMetrics(
        mode=config.mode,
        frames=config.frame_budget,
        active_detectors=[d.id for d in active],
        avg_period=period,
        total_cost=period * config.frame_budget,
        detections_emitted=emitted,
        spurious_emitted=spurious,
    )
    return world, metrics

