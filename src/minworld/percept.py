"""Simulated perception: detectors, scenes, and the sensing loop.

Each active detector processes every frame and charges a fixed per-frame
cost, so the per-frame sensing period is exactly the sum of the active
frame costs. Adaptive runs activate only a task-inferred detector set;
exhaustive runs activate the registry's static baseline set, false
positives included. All timing is simulated bookkeeping, never wall
clock, so identical invocations produce identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .symbols import DetectorSet, subtype_detector_id
from .world import (
    ASSOC_RADIUS,
    Aabb,
    Detection,
    Pose,
    WorldError,
    WorldModel,
    WorldObject,
    finite_number,
    json_number,
    json_object,
)

DEFAULT_MAX_RANGE = 6.0
DEFAULT_FOV_DEG = 87.0
DEFAULT_FRAME_BUDGET = 30


class PerceptionError(RuntimeError):
    pass


class CalibrationError(ValueError):
    pass


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


@dataclass(frozen=True)
class Visibility:
    max_range: float = DEFAULT_MAX_RANGE
    fov: float = math.radians(DEFAULT_FOV_DEG)


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
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class PerceptionConfig:
    registry: tuple[DetectorSpec, ...]
    active: DetectorSet | None = None
    mode: str = "adaptive"
    seed: int = 0
    frame_budget: int = DEFAULT_FRAME_BUDGET
    assoc_radius: float = ASSOC_RADIUS

    def __post_init__(self):
        if self.mode not in ("adaptive", "exhaustive"):
            raise PerceptionError(f"unknown perception mode {self.mode!r}")
        if self.frame_budget <= 0:
            raise PerceptionError("frame budget must be positive")
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
        return {
            "mode": self.mode,
            "frames": self.frames,
            "active_detectors": list(self.active_detectors),
            "avg_period": self.avg_period,
            "total_cost": self.total_cost,
            "detections_emitted": self.detections_emitted,
            "spurious_emitted": self.spurious_emitted,
        }


def load_registry(path: str | Path) -> tuple[DetectorSpec, ...]:
    data = json_object(json.loads(Path(path).read_text(encoding="utf-8")),
                       "detector registry")
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


def active_detectors(config: PerceptionConfig) -> list[DetectorSpec]:
    """Resolve which registry detectors run, sorted by id."""
    by_id = {d.id: d for d in config.registry}
    if config.mode == "exhaustive":
        chosen = [d for d in config.registry if d.baseline]
        if not chosen:
            raise PerceptionError("registry has no baseline detectors")
        return sorted(chosen, key=lambda d: d.id)
    if config.active is None or not config.active.ids:
        raise PerceptionError("adaptive perception with no detectors to run")
    missing = sorted(config.active.ids - by_id.keys())
    if missing:
        raise PerceptionError(f"detector ids not in registry: {', '.join(missing)}")
    return sorted((by_id[i] for i in config.active.ids), key=lambda d: d.id)


def integration_links(config: PerceptionConfig) -> frozenset[tuple[str, str]]:
    """Parent label -> emitted child label pairs for world integration."""
    if config.active is None:
        return frozenset()
    by_id = {d.id: d for d in config.registry}
    out = set()
    for parent, subtype in config.active.links:
        child_id = subtype_detector_id(parent, subtype)
        child = by_id.get(child_id)
        if child is None:
            raise PerceptionError(f"no registered detector for subtype {child_id}")
        out.add((parent, child.emits_label))
    return frozenset(out)


def visible(obj: WorldObject, robot: Pose, vis: Visibility) -> bool:
    cx, cy, cz = obj.bbox.center
    if math.dist((cx, cy, cz), (robot.x, robot.y, robot.z)) > vis.max_range:
        return False
    bearing = math.atan2(cy - robot.y, cx - robot.x)
    off = math.remainder(bearing - robot.yaw, math.tau)
    return abs(off) <= vis.fov / 2.0


def run_perception(scene: Scene, config: PerceptionConfig,
                   pose_stream=None) -> tuple[WorldModel, PerceptionMetrics]:
    """Run the sensing loop and build a world model.

    Every frame, each active detector (in id order) scans the visible
    ground truth for its label and emits one noisy detection per hit; in
    exhaustive mode a detector may additionally emit one spurious
    detection per frame at its false-positive rate. Detections are
    integrated immediately. Frame timestamps advance by the summed frame
    cost, so total cost is exactly frames times the active period.
    Visibility is computed once per distinct robot pose, grouped by label.
    """
    active = active_detectors(config)
    links = integration_links(config) if config.mode == "adaptive" else frozenset()
    period = sum(d.frame_cost for d in active)
    if pose_stream is None:
        poses = [scene.robot_start] * config.frame_budget
    else:
        poses = list(pose_stream)[:config.frame_budget]
        if len(poses) < config.frame_budget:
            last = poses[-1] if poses else scene.robot_start
            poses += [last] * (config.frame_budget - len(poses))
    rng = np.random.default_rng(config.seed)
    world = WorldModel()
    integrate, radius = world.integrate, config.assoc_radius
    truth_by_label: dict[str, list[WorldObject]] = {}
    for obj in sorted(scene.objects, key=lambda o: o.id):
        truth_by_label.setdefault(obj.label, []).append(obj)
    in_view_at: dict[Pose, dict[str, list[WorldObject]]] = {}
    emitted = 0
    spurious = 0
    time = 0.0
    for frame in range(config.frame_budget):
        robot = poses[frame]
        in_view = in_view_at.get(robot)
        if in_view is None:
            in_view = in_view_at[robot] = {
                label: [o for o in objs if visible(o, robot, scene.visibility)]
                for label, objs in truth_by_label.items()}
        time += period
        for det in active:
            hits = in_view.get(det.emits_label)
            if hits:
                label, source = det.emits_label, det.id
                # one (k, 2) draw reads the stream exactly as k draws of 2
                noise = (rng.normal(0.0, 1.0, (len(hits), 2))
                         * det.noise_sigma).tolist()
                for obj, (dx, dy) in zip(hits, noise):
                    pose = obj.pose
                    integrate(Detection(
                        label, Pose(pose.x + dx, pose.y + dy, pose.z, pose.yaw),
                        obj.bbox.translated(dx, dy), time, source),
                        links, radius)
                emitted += len(hits)
            if config.mode == "exhaustive" and det.false_positive_rate > 0.0:
                if rng.random() < det.false_positive_rate:
                    r = rng.uniform(1.0, scene.visibility.max_range)
                    bearing = robot.yaw + rng.uniform(
                        -scene.visibility.fov / 2.0, scene.visibility.fov / 2.0)
                    x = robot.x + r * math.cos(bearing)
                    y = robot.y + r * math.sin(bearing)
                    integrate(Detection(
                        det.emits_label, Pose(x, y, 0.5),
                        Aabb((x - 0.1, y - 0.1, 0.4), (x + 0.1, y + 0.1, 0.6)),
                        time, det.id, spurious=True), links, radius)
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


def calibrate_costs(rows, tolerance: float = 0.01) -> dict[str, float]:
    """Solve per-detector frame costs from measured configuration periods.

    ``rows`` maps a configuration name to (total period, detector ids).
    Costs pin down exactly when a row has one unknown; rows that stay
    underdetermined split their remainder uniformly, smallest row first.
    Every row is re-checked against the solution within ``tolerance``
    relative error.
    """
    pending: dict[str, tuple[float, frozenset[str]]] = {}
    for name, (total, ids) in rows.items():
        ids = frozenset(ids)
        if total <= 0:
            raise CalibrationError(f"row {name}: period must be positive")
        if not ids:
            raise CalibrationError(f"row {name}: no detectors")
        pending[name] = (float(total), ids)
    costs: dict[str, float] = {}

    def settle_forced() -> None:
        progress = True
        while progress:
            progress = False
            for name in sorted(pending):
                total, ids = pending[name]
                unknown = sorted(ids - costs.keys())
                if len(unknown) > 1:
                    continue
                known_sum = sum(costs[i] for i in ids if i in costs)
                if not unknown:
                    if abs(known_sum - total) > tolerance * total:
                        raise CalibrationError(
                            f"row {name}: detectors sum to {known_sum:.6f}, "
                            f"measured {total:.6f}")
                else:
                    remainder = total - known_sum
                    if remainder <= 0:
                        raise CalibrationError(
                            f"row {name}: no positive cost for {unknown[0]}")
                    costs[unknown[0]] = remainder
                del pending[name]
                progress = True
                break

    settle_forced()
    while pending:
        name = min(sorted(pending),
                   key=lambda n: (len(pending[n][1] - costs.keys()), n))
        total, ids = pending.pop(name)
        unknown = sorted(ids - costs.keys())
        remainder = total - sum(costs[i] for i in ids if i in costs)
        if remainder <= 0:
            raise CalibrationError(f"row {name}: no positive cost split")
        share = remainder / len(unknown)
        for i in unknown:
            costs[i] = share
        settle_forced()
    for name, (total, ids) in rows.items():
        got = sum(costs[i] for i in ids)
        if abs(got - float(total)) > tolerance * float(total):
            raise CalibrationError(
                f"row {name}: solved period {got:.6f} misses {total:.6f}")
    return costs
