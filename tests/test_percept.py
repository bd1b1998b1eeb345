from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minworld.percept import (
    MODES,
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
    GRID_MIN_ROWS,
    PARENT_FALLBACK_RADIUS,
    PARENT_MARGIN,
    Aabb,
    Pose,
    WorldError,
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

class Detection(NamedTuple):
    """One detector hit of the reference loop, its pose and box built."""

    label: str
    pose: Pose
    bbox: Aabb
    timestamp: float


class _FullScanWorld(WorldModel):
    """Reference world model without the label index: every detection
    scans all objects, and every integrate re-checks the whole world."""

    def _associate(self, d):
        best = None
        best_key = None
        for obj in self.objects.values():
            if obj.label != d.label:
                continue
            dist = obj.pose.distance(d.pose)
            if dist > ASSOC_RADIUS:
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

    def integrate(self, d, links=()):
        obj = self._associate(d)
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
                    obj.bbox.translated(dx, dy), time), links)
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
                        time), links)
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
            config = PerceptionConfig(
                EQUIV_SPECS, active if mode == "adaptive" else None, mode,
                seed=n, frame_budget=8)
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


def _coordinate(lo: int, hi: int):
    """Ints and -0.0, which a pose keeps until noise moves it (moving by
    a zero noise still makes them floats: 5 + 0.0 is 5.0, -0.0 + 0.0 is
    0.0); multiples of 0.5, which put a hit exactly ASSOC_RADIUS from an
    object or equally far from two; and any float in range."""
    return st.one_of(st.integers(lo, hi), st.just(-0.0),
                     st.integers(2 * lo, 2 * hi).map(lambda k: k / 2),
                     st.floats(lo, hi))


_X, _Y, _Z = _coordinate(0, 3), _coordinate(-1, 1), _coordinate(0, 1)
# 1e308 moves a hit past float precision: an infinite pose, or a box of
# zero volume unless the truth box is flagged degenerate
_NOISE = st.sampled_from((0.0, 0.02, 0.3, 1e308))


@st.composite
def _hostile_case(draw):
    objects = []
    for oid in range(1, draw(st.integers(0, 16)) + 1):
        label = draw(st.sampled_from(("box", "cup", "door", "door_handle")))
        if objects and draw(st.booleans()):
            # next to an earlier object, for merges, ties and parents
            near = draw(st.sampled_from(objects))
            label = draw(st.sampled_from((near.label, label, "door_handle")))
            x, y, z = (v + draw(st.sampled_from((0, 0.5, -0.5)))
                       for v in (near.pose.x, near.pose.y, near.pose.z))
        else:
            x, y, z = draw(_X), draw(_Y), draw(_Z)
        hx, hy, hz = (draw(st.sampled_from((0, 0.05, 0.3))) for _ in "xyz")
        objects.append(WorldObject(
            oid, label, Pose(x, y, z),
            Aabb((x - hx, y - hy, z - hz), (x + hx, y + hy, z + hz),
                 degenerate=0 in (hx, hy, hz))))
    registry = tuple(
        DetectorSpec(label, label, cost, noise_sigma=draw(_NOISE),
                     false_positive_rate=draw(st.sampled_from((0.0, 0.5))),
                     baseline=label != "door_handle")
        for label, cost in (("box", 0.05), ("cup", 0.03), ("door", 0.09),
                            ("door_handle", 0.07)))
    mode = draw(st.sampled_from(MODES))
    active = None
    if mode == "adaptive":
        ids = draw(st.sets(st.sampled_from([d.id for d in registry]),
                           min_size=1))
        links = draw(st.sampled_from((frozenset(), {("door", "handle")})))
        if links:
            ids |= {"door", "door_handle"}
        active = DetectorSet(frozenset(ids), frozenset(links))
    config = PerceptionConfig(registry, active, mode,
                              seed=draw(st.integers(0, 2 ** 16)),
                              frame_budget=draw(st.integers(1, 8)))
    return Scene(objects, Visibility(), Pose(-0.5, 0.0)), config


def _perceived(perceive, scene, config):
    """The world as JSON text, which tells 5 from 5.0 and -0.0 from 0.0,
    and the metrics; or the WorldError message."""
    try:
        world, metrics = perceive(scene, config)
    except WorldError as e:
        return str(e)
    return (json.dumps(world.to_json(), sort_keys=True),
            json.dumps(metrics.to_json(), sort_keys=True))


# the conftest.py "hostile" profile runs 200 scenes
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(database=None, derandomize=True, deadline=None,
          max_examples=(settings().max_examples
                        if settings.get_current_profile_name() == "hostile"
                        else 40))
@given(case=_hostile_case())
def test_perception_matches_full_scan_reference_on_hostile_scenes(case):
    scene, config = case
    assert _perceived(run_perception, scene, config) == \
        _perceived(_reference_perception, scene, config)


@st.composite
def _crowded_case(draw):
    """30 to 48 objects, nearly all of one label, in a 2 m square at an
    integer corner: on the half-metre lattice, each coordinate moved by up
    to an ulp, so hits fall on cell corners, at exactly ASSOC_RADIUS and
    equally far from two objects."""
    ox, oy = draw(st.sampled_from(((1, -1), (2, 0), (3, -2))))

    def coordinate(origin):
        v = origin + draw(st.integers(0, 4)) / 2
        return draw(st.sampled_from((v, math.nextafter(v, math.inf),
                                     math.nextafter(v, -math.inf))))

    objects = []
    for oid in range(1, draw(st.integers(30, 48)) + 1):
        x, y = coordinate(ox), coordinate(oy)
        label = draw(st.sampled_from(("cup",) * 7 + ("box",)))
        objects.append(WorldObject(oid, label, Pose(x, y, 0.5),
                                   Aabb((x - 0.05, y - 0.05, 0.45),
                                        (x + 0.05, y + 0.05, 0.55))))
    registry = tuple(
        DetectorSpec(label, label, 0.05,
                     noise_sigma=draw(st.sampled_from((0.0, 0.02, 0.3))),
                     false_positive_rate=draw(st.sampled_from((0.0, 0.5))))
        for label in ("box", "cup"))
    mode = draw(st.sampled_from(MODES))
    active = _active("box", "cup") if mode == "adaptive" else None
    config = PerceptionConfig(registry, active, mode,
                              seed=draw(st.integers(0, 2 ** 16)),
                              frame_budget=draw(st.sampled_from((1, 5, 8))))
    return Scene(objects, Visibility(), Pose(0.0, 0.0)), config


@settings(database=None, derandomize=True, deadline=None,
          max_examples=(settings().max_examples
                        if settings.get_current_profile_name() == "hostile"
                        else 25))
@given(case=_crowded_case())
def test_perception_matches_full_scan_reference_on_crowded_cells(case):
    scene, config = case
    assert _perceived(run_perception, scene, config) == \
        _perceived(_reference_perception, scene, config)


# -- held tracks --------------------------------------------------------------

@st.composite
def _lone_track_case(draw):
    """9 to 30 objects of one label on a lattice whose step straddles the
    hold rule's bound (ASSOC_RADIUS plus twice the noise), and one object
    of another label among them; int coordinates where a lattice value is
    whole. The robot stands in the middle with a 3 to 6 m view all round,
    so spurious detections land among the objects."""
    step = draw(st.sampled_from((0.62, 0.66, 0.7, 0.55, 0.8, 1.2)))
    n = draw(st.integers(9, 30))
    columns = draw(st.integers(3, 6))
    ox, oy = draw(st.sampled_from(((1, -2), (0, 0), (-3, 1))))

    def coordinate(v):
        return int(v) if v == int(v) and draw(st.booleans()) else v

    objects = []
    for k in range(n):
        x = coordinate(ox + (k % columns) * step)
        y = coordinate(oy + (k // columns) * step)
        half = draw(st.sampled_from((0.05, 0.2, 0)))
        objects.append(WorldObject(k + 1, "cup", Pose(x, y, 0.5),
                                   Aabb((x - half, y - half, 0.4),
                                        (x + half, y + 0.1, 0.6),
                                        degenerate=half == 0)))
    near = draw(st.sampled_from(objects))
    x, y = near.pose.x + draw(st.sampled_from((0, 0.3, step / 2))), near.pose.y
    objects.insert(draw(st.integers(0, n)), WorldObject(
        n + 1, "box", Pose(x, y, 0.5), Aabb((x - 0.2, y - 0.2, 0.3),
                                            (x + 0.2, y + 0.2, 0.7))))
    registry = (
        DetectorSpec("box", "box", 0.05, noise_sigma=0.02,
                     false_positive_rate=draw(st.sampled_from((0.0, 0.5)))),
        # hypothesis draws the first values most: sigmas under which
        # tracks are held, then released as the noise grows
        DetectorSpec("cup", "cup", 0.03, noise_sigma=draw(st.sampled_from(
            (0.02, 0.05, 0.005, 0.0, 0.09, 0.3, 1e308))),
            false_positive_rate=draw(st.sampled_from((0.0, 0.5, 0.9)))),
    )
    mode = draw(st.sampled_from(MODES))
    config = PerceptionConfig(registry,
                              _active("box", "cup") if mode == "adaptive" else None,
                              mode, seed=draw(st.integers(0, 2 ** 16)),
                              frame_budget=draw(st.sampled_from((12, 5, 2, 1))))
    robot = Pose(ox + (columns - 1) * step / 2, oy + (n // columns) * step / 2)
    view = Visibility(draw(st.sampled_from((3, 4.5, 6.0))), 2 * math.pi)
    return Scene(objects, view, robot), config


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(database=None, derandomize=True, deadline=None,
          max_examples=(settings().max_examples
                        if settings.get_current_profile_name() == "hostile"
                        else 40))
@given(case=_lone_track_case())
def test_perception_matches_full_scan_reference_on_lone_tracks(case):
    scene, config = case
    assert _perceived(run_perception, scene, config) == \
        _perceived(_reference_perception, scene, config)


class _ScriptedRng:
    """Stands in for numpy's Generator: ``normal`` hands out the given
    standard normals in order, as the generator reads its stream, and
    ``random`` and ``uniform`` the given draws in order."""

    def __init__(self, normals, draws):
        self.normals, self.draws = list(normals), list(draws)

    def normal(self, loc, scale, size):
        n = int(np.prod(size))
        out, self.normals = self.normals[:n], self.normals[n:]
        return np.array(out).reshape(size) * scale + loc

    def random(self):
        return self.draws.pop(0)

    def uniform(self, lo, hi):
        return self.draws.pop(0)


def _cups(n=9, second=None):
    """``n`` cups 3 m apart in y at x = 3, from (3, 0), except that the
    second, if given, sits at ``second``; all in view."""
    objects = []
    for k in range(n):
        x, y = second if k == 1 and second else (3.0, 3.0 * k)
        objects.append(WorldObject(k + 1, "cup", Pose(x, y, 0.5),
                                   Aabb((x - 0.05, y - 0.05, 0.45),
                                        (x + 0.05, y + 0.05, 0.55))))
    return Scene(objects, Visibility(1e7, 2 * math.pi), Pose(0.0, 0.0))


def _scripted(monkeypatch, scene, mode, first, second=None, draws=()):
    """Run the loop and the reference over a cup detector with unit noise
    on ``scene``, where frame ``f`` moves the first cup by ``first[f]``,
    the second by ``second[f]`` if given, and every other cup not at
    all; a move is a ``(dx, dy)`` or a ``dx``. ``draws`` feed the false
    positives. Both must build the same world, or fail with the same
    error; returns its objects, or the error, and how many hits the loop
    handed to ``integrate``."""
    normals = []
    for f, move in enumerate(first):
        noise = [(0.0, 0.0)] * len(scene.objects)
        noise[0] = move
        if second is not None:
            noise[1] = second[f]
        normals.extend(v for d in noise
                       for v in (d if isinstance(d, tuple) else (d, 0.0)))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _ScriptedRng(normals, draws))
    registry = (DetectorSpec("cup", "cup", 0.05, noise_sigma=1.0,
                             false_positive_rate=0.5),)
    config = PerceptionConfig(registry, _active("cup"), mode,
                              frame_budget=len(first))
    integrated, got = _integrated_hits(monkeypatch, _perceived, scene, config)
    assert got == _perceived(_reference_perception, scene, config)
    return (json.loads(got[0])["objects"] if isinstance(got, tuple) else got,
            integrated)


def test_held_cups_skip_all_but_their_last_detection(monkeypatch):
    objects, integrated = _scripted(monkeypatch, _cups(), "adaptive",
                                    (0.0, 0.01, -0.02, 0.0, 0.01))
    # frame 1, then each cup's last detection at the end of the run
    assert integrated == 9 + 9
    assert len(objects) == 9
    assert objects[0]["pose"]["x"] == 3.01


def test_own_track_bound_releases_a_cup_whose_detections_can_part(monkeypatch):
    # 2 * sqrt(2) * 0.1768 just exceeds ASSOC_RADIUS: detections at
    # (+m, +m) and (-m, -m) are more than the radius apart
    m = 0.1768
    assert 2 * math.sqrt(2) * m > ASSOC_RADIUS
    objects, _ = _scripted(monkeypatch, _cups(), "adaptive",
                           ((m, m), (-m, -m), (m, m)))
    # the second detection of the first cup made an object of its own
    assert len(objects) == 10


def test_other_cup_bound_counts_twice_the_noise(monkeypatch):
    # 0.6 m apart: farther than ASSOC_RADIUS, nearer than ASSOC_RADIUS +
    # 2 * 0.17. The second cup's detections take the first cup's object,
    # out of reach of the first cup's frame 2 detection, which makes an
    # object of its own
    m = 0.17
    objects, integrated = _scripted(
        monkeypatch, _cups(second=(3.6, 0.0)), "adaptive",
        (m, -m, m), second=(-m, -m, -m))
    assert len(objects) == 9
    assert [objects[i]["pose"]["x"] for i in (0, -1)] == [3.6 - m, 3.0 - m]
    # the seven far cups are held
    assert integrated == 9 + 2 + 2 + 7


def test_spurious_margin_counts_the_noise(monkeypatch):
    # a spurious cup 0.55 m from the first cup: farther than
    # ASSOC_RADIUS, nearer than ASSOC_RADIUS + 0.1, the noise so far; it
    # lands within reach of the cup's detection of its own frame
    draws = (0.9, 0.0, 3.55, 0.0, 0.9)
    objects, _ = _scripted(monkeypatch, _cups(), "exhaustive",
                           (0.0, 0.1, 0.0), draws=draws)
    assert len(objects) == 10
    first = objects[0]
    assert first["pose"]["x"] == 3.55 and first["bbox"]["min"][2] == 0.4


def test_noise_growth_releases_held_cups(monkeypatch):
    # held after frame 2; frame 3's noise of 0.6 breaks the own-track
    # bound, so frame 2's detections reach the world before frame 3's
    objects, _ = _scripted(monkeypatch, _cups(), "adaptive", (0.0, 0.01, 0.6))
    assert len(objects) == 10
    assert objects[0]["pose"]["x"] == 3.01 and objects[0]["last_seen"] == 0.1


def test_released_cup_is_written_with_its_last_held_noise(monkeypatch):
    # held in frame 2 at 0.15; frame 3's -0.4 releases it: written at
    # +0.15, its frame 3 detection at -0.4 is 0.55 away, a new object;
    # written at -0.4 it would have stayed one object
    objects, _ = _scripted(monkeypatch, _cups(), "adaptive", (0.0, 0.15, -0.4))
    assert len(objects) == 10
    assert objects[0]["pose"]["x"] == 3.15


def test_box_bound_integrates_a_box_noise_may_flatten(monkeypatch):
    # a box one ulp wide at 2**22 - 0.05: moved by 0.07 its x bounds round
    # to one float, and integrate raises on frame 2, as the reference does
    x = 2.0 ** 22 - 0.05
    scene = _cups()
    scene.objects[0] = WorldObject(1, "cup", Pose(x, 0.0, 0.5), Aabb(
        (x, -0.05, 0.45), (math.nextafter(x, math.inf), 0.05, 0.55)))
    error, _ = _scripted(monkeypatch, scene, "adaptive", (0.0, 0.07, 0.0))
    assert error == "zero-volume box not flagged degenerate"


def _integrated_hits(monkeypatch, perceive, scene, config):
    """How many hits ``run_perception`` hands to integrate, and what
    ``perceive(run_perception, scene, config)`` returns."""
    integrated = []
    integrate = WorldModel.integrate

    def counted(self, objs, links, noise, time):
        integrated.append(len(objs))
        return integrate(self, objs, links, noise, time)

    with monkeypatch.context() as patch:
        patch.setattr(WorldModel, "integrate", counted)
        out = perceive(run_perception, scene, config)
    return sum(integrated), out


def _emitted(perceive, scene, config):
    return perceive(scene, config)[1].detections_emitted


@pytest.mark.parametrize("n, held", [(GRID_MIN_ROWS, False),
                                     (GRID_MIN_ROWS + 1, True)])
def test_nothing_is_held_at_grid_min_rows_objects(monkeypatch, n, held):
    registry = (DetectorSpec("cup", "cup", 0.05, noise_sigma=0.02),)
    config = PerceptionConfig(registry, _active("cup"), "adaptive",
                              frame_budget=5)
    integrated, emitted = _integrated_hits(monkeypatch, _emitted, _cups(n=n),
                                           config)
    assert emitted == 5 * n
    assert integrated == (2 * n if held else emitted)


def test_nothing_is_held_for_a_label_of_two_detectors(monkeypatch):
    registry = tuple(DetectorSpec(i, "cup", 0.05, noise_sigma=0.02)
                     for i in ("cup", "cup_2"))
    config = PerceptionConfig(registry, None, "exhaustive", frame_budget=5)
    integrated, emitted = _integrated_hits(monkeypatch, _emitted, _cups(),
                                           config)
    assert integrated == emitted == 2 * 5 * 9


def test_nothing_is_held_for_a_linked_label(monkeypatch):
    cups = _cups().objects
    objects = cups + [WorldObject(10 + k, "door_handle",
                                  Pose(o.pose.x + 0.05, o.pose.y, 0.3),
                                  Aabb((o.pose.x, o.pose.y - 0.03, 0.27),
                                       (o.pose.x + 0.1, o.pose.y + 0.03, 0.33)))
                      for k, o in enumerate(cups)]
    scene = Scene([dataclasses.replace(o, label="door") if o.label == "cup"
                   else o for o in objects], Visibility(40.0, 2 * math.pi),
                  Pose(0.0, 0.0))
    registry = (DetectorSpec("door", "door", 0.05, noise_sigma=0.02),
                DetectorSpec("door_handle", "door_handle", 0.05,
                             noise_sigma=0.01))
    linked = PerceptionConfig(registry, _active("door", "door_handle",
                                                links={("door", "handle")}),
                              "adaptive", frame_budget=5)
    integrated, emitted = _integrated_hits(monkeypatch, _emitted, scene, linked)
    assert integrated == emitted == 5 * 18
    unlinked = dataclasses.replace(linked, active=_active("door", "door_handle"))
    assert _integrated_hits(monkeypatch, _emitted, scene, unlinked) == \
        (2 * 18, 5 * 18)
