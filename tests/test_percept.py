from __future__ import annotations

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from minworld.percept import (
    DetectorSpec,
    PerceptionConfig,
    PerceptionError,
    PerceptionMetrics,
    Scene,
    Visibility,
    load_registry,
    perception_plan,
    run_perception,
    visible,
)
from minworld.symbols import DetectorSet
from minworld.world import (
    ASSOC_RADIUS,
    PARENT_FALLBACK_RADIUS,
    PARENT_MARGIN,
    Aabb,
    Detection,
    Pose,
    WorldModel,
    WorldObject,
)


@pytest.fixture(scope="module")
def registry(assets):
    return load_registry(assets / "detector_registry.json")


@pytest.fixture(scope="module")
def scene(assets):
    return Scene.load(assets / "door_scene.json")


def _active(*ids, links=()):
    return DetectorSet(frozenset(ids), frozenset(links))


# -- registry and config -----------------------------------------------------

def test_registry_contents(registry):
    by_id = {d.id: d for d in registry}
    assert set(by_id) == {
        "ball", "cracker_box", "door", "door_handle", "pitcher", "suitcase",
    }
    assert by_id["door_handle"].baseline is False
    assert by_id["door_handle"].emits_label == "door_handle"
    assert all(d.frame_cost > 0 for d in registry)


def test_detector_spec_validation():
    with pytest.raises(PerceptionError):
        DetectorSpec("x", "x", frame_cost=0.0)
    with pytest.raises(PerceptionError):
        DetectorSpec("x", "x", frame_cost=0.1, false_positive_rate=1.0)
    for field, bad in (("noise_sigma", -0.5), ("baseline", "false"),
                       ("baseline", 1)):
        with pytest.raises(PerceptionError, match=field):
            DetectorSpec("x", "x", frame_cost=0.1, **{field: bad})
    for field in ("frame_cost", "false_positive_rate", "noise_sigma"):
        for bad in (math.nan, math.inf, None):
            with pytest.raises(PerceptionError):
                DetectorSpec("x", "x", **{"frame_cost": 0.1, field: bad})
    for ident, label in (("", "x"), (None, "x"), ("x", ""), ("x", None), ("x", 3)):
        with pytest.raises(PerceptionError):
            DetectorSpec(ident, label, frame_cost=0.1)


def test_config_validation(registry):
    with pytest.raises(PerceptionError):
        PerceptionConfig(registry, mode="hybrid")
    with pytest.raises(PerceptionError, match="frame budget must be positive"):
        PerceptionConfig(registry, frame_budget=0)
    # range() takes ints only, and a bool would report "frames": true
    for frames in (2.5, True, "3"):
        with pytest.raises(PerceptionError, match="frame budget"):
            PerceptionConfig(registry, frame_budget=frames)
    with pytest.raises(PerceptionError):
        PerceptionConfig(registry + (registry[0],))
    # numpy's default_rng takes only non-negative integer seeds
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(PerceptionError, match="seed"):
            PerceptionConfig(registry, seed=seed)


def _plan_ids(config):
    detectors, links, false_positives = perception_plan(config)
    return [d.id for d in detectors], links, false_positives


def test_active_exhaustive_is_sorted_baseline(registry):
    config = PerceptionConfig(
        registry, _active("door", "door_handle", links=[("door", "handle")]),
        mode="exhaustive")
    ids, links, false_positives = _plan_ids(config)
    assert ids == ["ball", "cracker_box", "door", "pitcher", "suitcase"]
    assert links == frozenset()
    # door's false-positive rate is 0.0
    assert false_positives == {"ball", "cracker_box", "pitcher", "suitcase"}


def test_active_adaptive_resolves_requested_ids(registry):
    config = PerceptionConfig(registry, _active("door_handle", "door"))
    assert _plan_ids(config) == (["door", "door_handle"], frozenset(), frozenset())


def test_active_adaptive_requires_detectors(registry):
    with pytest.raises(PerceptionError):
        perception_plan(PerceptionConfig(registry, None))
    with pytest.raises(PerceptionError):
        perception_plan(PerceptionConfig(registry, _active()))


def test_active_adaptive_rejects_unknown_ids(registry):
    config = PerceptionConfig(registry, _active("door", "window"))
    with pytest.raises(PerceptionError):
        perception_plan(config)


def test_exhaustive_requires_baseline():
    specs = (DetectorSpec("a", "a", 0.1, baseline=False),)
    with pytest.raises(PerceptionError):
        perception_plan(PerceptionConfig(specs, mode="exhaustive"))


def test_integration_links_resolve_emitted_labels(registry):
    config = PerceptionConfig(
        registry, _active("door", "door_handle", links=[("door", "handle")]))
    assert _plan_ids(config) == (["door", "door_handle"],
                                 frozenset({("door", "door_handle")}), frozenset())


def test_integration_links_reject_unregistered_subtype(registry):
    config = PerceptionConfig(
        registry, _active("door", links=[("door", "hinge")]))
    with pytest.raises(PerceptionError, match="door_hinge"):
        perception_plan(config)


# -- visibility --------------------------------------------------------------

def _obj(i, label, x, y, z=0.5):
    return WorldObject(i, label, Pose(x, y, z),
                       Aabb((x - 0.2, y - 0.2, z - 0.2), (x + 0.2, y + 0.2, z + 0.2)))


def test_visibility_bounds():
    # spurious detections are drawn from 1 m out to the range
    Visibility(max_range=1.0, fov=2 * math.pi)
    for max_range in (0.5, -3.0, math.nan):
        with pytest.raises(PerceptionError, match="max_range must be >= 1"):
            Visibility(max_range=max_range)
    for deg in (-10.0, 0.0, 360.5, math.nan):
        with pytest.raises(PerceptionError, match=r"fov_deg must be in \(0, 360\]"):
            Visibility(fov=math.radians(deg))


def test_visible_range_cut():
    vis = Visibility(max_range=6.0, fov=math.radians(87))
    robot = Pose(0, 0)
    assert visible(_obj(1, "a", 5.0, 0.0), robot, vis)
    assert not visible(_obj(1, "a", 7.0, 0.0), robot, vis)


def test_visible_fov_cut():
    vis = Visibility(max_range=6.0, fov=math.radians(87))
    robot = Pose(0, 0)
    # half angle is 43.5 degrees
    inside = math.radians(40)
    outside = math.radians(50)
    assert visible(_obj(1, "a", 3 * math.cos(inside), 3 * math.sin(inside)),
                   robot, vis)
    assert not visible(_obj(1, "a", 3 * math.cos(outside), 3 * math.sin(outside)),
                       robot, vis)
    assert not visible(_obj(1, "a", -3.0, 0.0), robot, vis)
    # turning the robot brings the rear object into view
    assert visible(_obj(1, "a", -3.0, 0.0), Pose(0, 0, yaw=math.pi), vis)


# -- the sensing loop --------------------------------------------------------

def test_adaptive_period_is_cost_sum(registry, scene):
    config = PerceptionConfig(registry, _active("door"))
    _, metrics = run_perception(scene, config)
    assert metrics.avg_period == pytest.approx(0.092, rel=1e-12)
    assert metrics.total_cost == pytest.approx(0.092 * 30, rel=1e-12)
    assert metrics.frames == 30
    both = PerceptionConfig(registry, _active("door", "door_handle"))
    _, metrics2 = run_perception(scene, both)
    assert metrics2.avg_period == pytest.approx(0.158, rel=1e-12)


def test_exhaustive_period_matches_baseline_sum(registry, scene):
    config = PerceptionConfig(registry, mode="exhaustive")
    _, metrics = run_perception(scene, config)
    assert metrics.avg_period == pytest.approx(2.060, rel=1e-12)
    assert metrics.mode == "exhaustive"


def test_period_monotone_in_active_set(registry, scene):
    one = run_perception(scene, PerceptionConfig(registry, _active("door")))[1]
    two = run_perception(
        scene, PerceptionConfig(registry, _active("door", "door_handle")))[1]
    allb = run_perception(scene, PerceptionConfig(registry, mode="exhaustive"))[1]
    assert one.avg_period < two.avg_period < allb.avg_period


def test_adaptive_world_has_only_requested_labels(registry, scene):
    config = PerceptionConfig(
        registry, _active("door", "door_handle", links=[("door", "handle")]))
    world, metrics = run_perception(scene, config)
    assert {o.label for o in world.query()} <= {"door", "door_handle"}
    assert metrics.spurious_emitted == 0
    assert metrics.detections_emitted == 60  # 2 objects x 30 frames


def test_adaptive_links_attach_handle_to_door(registry, scene):
    config = PerceptionConfig(
        registry, _active("door", "door_handle", links=[("door", "handle")]))
    world, _ = run_perception(scene, config)
    (handle,) = world.query("door_handle")
    (door,) = world.query("door")
    assert handle.parent == door.id


def test_same_seed_reproduces_world(registry, scene):
    config = PerceptionConfig(registry, mode="exhaustive", seed=0)
    w1, m1 = run_perception(scene, config)
    w2, m2 = run_perception(scene, PerceptionConfig(registry, mode="exhaustive",
                                                    seed=0))
    assert json.dumps(w1.to_json(), sort_keys=True) == \
        json.dumps(w2.to_json(), sort_keys=True)
    assert m1.to_json() == m2.to_json()


def test_metrics_json_is_every_field_copied(registry, scene):
    _, metrics = run_perception(scene, PerceptionConfig(registry, mode="exhaustive"))
    data = metrics.to_json()
    assert data == dataclasses.asdict(metrics)
    assert list(data) == [f.name for f in dataclasses.fields(metrics)]
    data["active_detectors"].append("x")
    assert "x" not in metrics.active_detectors


def test_different_seed_moves_noisy_detections(registry, scene):
    config_a = PerceptionConfig(registry, _active("door"), seed=0)
    config_b = PerceptionConfig(registry, _active("door"), seed=1)
    wa = run_perception(scene, config_a)[0]
    wb = run_perception(scene, config_b)[0]
    assert wa.query("door")[0].pose.x != wb.query("door")[0].pose.x


def test_exhaustive_emits_spurious_at_seed_zero(registry, scene):
    world, metrics = run_perception(
        scene, PerceptionConfig(registry, mode="exhaustive", seed=0))
    assert metrics.spurious_emitted > 0
    extras = {o.label for o in world.query()} - {"door", "door_handle"}
    assert extras  # clutter labels the task never asked about
    assert extras <= {"ball", "cracker_box", "pitcher", "suitcase"}


def test_zero_false_positive_adaptive_emits_no_spurious(registry, scene):
    for seed in range(5):
        config = PerceptionConfig(
            registry, _active("door", "door_handle"), seed=seed)
        _, metrics = run_perception(scene, config)
        assert metrics.spurious_emitted == 0


def test_timestamps_advance_by_period(registry, scene):
    config = PerceptionConfig(registry, _active("door"), frame_budget=3)
    world, metrics = run_perception(scene, config)
    (door,) = world.query("door")
    assert door.first_seen == pytest.approx(0.092)
    assert door.last_seen == pytest.approx(3 * 0.092)
    assert metrics.total_cost == pytest.approx(3 * 0.092)


def test_scene_load_shape(scene):
    assert scene.robot_start == Pose(0.0, 0.0, 0.0, 0.0)
    assert scene.visibility.max_range == 6.0
    assert scene.visibility.fov == pytest.approx(math.radians(87.0))
    assert [o.id for o in scene.objects] == [1, 2]
    assert scene.objects[1].parent == 1


# -- equivalence with the full-scan reference --------------------------------

class _FullScanWorld(WorldModel):
    """Reference world model without the label index: every detection
    scans all objects, and every integrate re-checks the whole world."""

    def _associate(self, d, assoc_radius):
        best = None
        best_key = None
        for obj in self.objects.values():
            if obj.label != d.label:
                continue
            dist = obj.pose.distance(d.pose)
            if dist > assoc_radius:
                continue
            key = (dist, obj.id)
            if best_key is None or key < best_key:
                best, best_key = obj, key
        return best

    def _find_parent(self, d, parent_label):
        candidates = [o for o in self.objects.values()
                      if o.label == parent_label and o.parent is None]
        inside = [o for o in candidates
                  if o.bbox.contains(d.bbox.center, margin=PARENT_MARGIN)]
        pool = inside or [o for o in candidates
                          if o.pose.distance(d.pose) <= PARENT_FALLBACK_RADIUS]
        if not pool:
            return None
        return min(pool, key=lambda o: (o.pose.distance(d.pose), o.id)).id

    def integrate(self, d, links=(), assoc_radius=ASSOC_RADIUS):
        obj = self._associate(d, assoc_radius)
        if obj is None:
            obj = WorldObject(self._next_id, d.label, d.pose, d.bbox,
                              first_seen=d.timestamp, last_seen=d.timestamp)
            self._next_id += 1
            self.objects[obj.id] = obj
        else:
            obj.pose = d.pose
            obj.bbox = d.bbox
            obj.last_seen = d.timestamp
        parent_labels = [p for p, c in links if c == d.label]
        if parent_labels and obj.parent is None:
            for parent_label in sorted(parent_labels):
                found = self._find_parent(d, parent_label)
                if found is not None and found != obj.id:
                    obj.parent = found
                    break
        self._check_single_layer()
        return self


def _reference_perception(scene, config):
    """The sensing loop with a visibility test and a noise draw per hit.
    It takes only the detectors and resolved links from the plan, and
    decides by mode itself whether links apply and false positives fire."""
    active, plan_links, _ = perception_plan(config)
    links = plan_links if config.mode == "adaptive" else frozenset()
    period = sum(d.frame_cost for d in active)
    robot = scene.robot_start
    rng = np.random.default_rng(config.seed)
    world = _FullScanWorld()
    emitted = spurious = 0
    time = 0.0
    for _ in range(config.frame_budget):
        time += period
        for det in active:
            for obj in sorted(scene.objects, key=lambda o: o.id):
                if obj.label != det.emits_label:
                    continue
                if not visible(obj, robot, scene.visibility):
                    continue
                dx, dy = rng.normal(0.0, 1.0, 2) * det.noise_sigma
                world.integrate(Detection(
                    det.emits_label,
                    Pose(obj.pose.x + dx, obj.pose.y + dy, obj.pose.z, obj.pose.yaw),
                    obj.bbox.translated(dx, dy), time), links,
                    config.assoc_radius)
                emitted += 1
            if config.mode == "exhaustive" and det.false_positive_rate > 0.0:
                if rng.random() < det.false_positive_rate:
                    r = rng.uniform(1.0, scene.visibility.max_range)
                    bearing = robot.yaw + rng.uniform(
                        -scene.visibility.fov / 2.0, scene.visibility.fov / 2.0)
                    x = robot.x + r * math.cos(bearing)
                    y = robot.y + r * math.sin(bearing)
                    world.integrate(Detection(
                        det.emits_label, Pose(x, y, 0.5),
                        Aabb((x - 0.1, y - 0.1, 0.4), (x + 0.1, y + 0.1, 0.6)),
                        time), links, config.assoc_radius)
                    emitted += 1
                    spurious += 1
    return world, PerceptionMetrics(
        config.mode, config.frame_budget, [d.id for d in active], period,
        period * config.frame_budget, emitted, spurious)


EQUIV_SPECS = (
    DetectorSpec("box", "box", 0.05, false_positive_rate=0.5, noise_sigma=0.3),
    DetectorSpec("cup", "cup", 0.03, false_positive_rate=0.2, noise_sigma=0.05),
    DetectorSpec("door", "door", 0.09, false_positive_rate=0.3, noise_sigma=0.1),
    DetectorSpec("door_handle", "door_handle", 0.07, noise_sigma=0.02,
                 baseline=False),
)


def _random_scene(n: int, rng: random.Random) -> Scene:
    """n objects packed in front of the robot, doors with handles inside."""
    objects = []
    while len(objects) < n:
        x, y = rng.uniform(-1.0, 6.0), rng.uniform(-4.0, 4.0)
        label = rng.choice(("box", "cup", "door", "door"))
        half = 0.05 if label == "cup" else 0.3
        oid = len(objects) + 1
        objects.append(WorldObject(oid, label, Pose(x, y, 0.5),
                                   Aabb((x - half, y - half, 0.0),
                                        (x + half, y + half, 2 * half))))
        if label == "door" and len(objects) < n:
            hx, hy = x - 0.05, y + rng.uniform(-0.25, 0.25)
            objects.append(WorldObject(
                oid + 1, "door_handle", Pose(hx, hy, 0.3),
                Aabb((hx - 0.03, hy - 0.03, 0.27), (hx + 0.03, hy + 0.03, 0.33)),
                parent=oid))
    rng.shuffle(objects)  # run_perception visits truth in id order anyway
    return Scene(objects, Visibility(), Pose(-0.5, 0.0))


def test_perception_matches_full_scan_reference():
    rng = random.Random(7)
    active = DetectorSet(frozenset({"box", "cup", "door", "door_handle"}),
                         frozenset({("door", "handle")}))
    merged = parented = spurious = 0
    for n in (0, 1, 5, 30, 90, 200):
        scene = _random_scene(n, rng)
        for mode in ("adaptive", "exhaustive"):
            for radius in (0.5, 1.2):
                config = PerceptionConfig(
                    EQUIV_SPECS, active if mode == "adaptive" else None, mode,
                    seed=n, frame_budget=8, assoc_radius=radius)
                got_world, got = run_perception(scene, config)
                want_world, want = _reference_perception(scene, config)
                assert json.dumps(got_world.to_json(), sort_keys=True) == \
                    json.dumps(want_world.to_json(), sort_keys=True), (n, config)
                assert got.to_json() == want.to_json()
                merged += got.detections_emitted - len(got_world.objects)
                parented += len([o for o in got_world.query()
                                 if o.parent is not None])
                spurious += got.spurious_emitted
    # the scenes exercised association, parent links and false positives
    assert merged > 0 and parented > 0 and spurious > 0
