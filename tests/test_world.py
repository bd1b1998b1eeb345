from __future__ import annotations

import copy
import json
import math
import random

import pytest

from minworld.world import (
    ASSOC_RADIUS,
    Aabb,
    Pose,
    WorldError,
    WorldModel,
    WorldObject,
)


def _det(label, x, y, z=0.0, t=0.0, half=0.4):
    """A detected object, seen at time ``t`` (kept as its last_seen)."""
    box = Aabb((x - half, y - half, z - half), (x + half, y + half, z + half))
    return WorldObject(0, label, Pose(x, y, z), box, last_seen=t)


def _see(world, det, links=()):
    """Integrate ``det`` with zero noise at its time."""
    return world.integrate(det, links, 0.0, 0.0, det.last_seen)


# -- geometry ----------------------------------------------------------------

def test_yaw_normalized_into_half_open_range():
    assert Pose(0, 0, yaw=math.tau + 0.25).yaw == pytest.approx(0.25)
    assert Pose(0, 0, yaw=-math.tau - 0.25).yaw == pytest.approx(-0.25)
    assert Pose(0, 0, yaw=math.pi).yaw == pytest.approx(-math.pi)
    assert Pose(0, 0, yaw=-math.pi).yaw == pytest.approx(-math.pi)
    for k in range(-3, 4):
        y = Pose(0, 0, yaw=1.0 + k * math.tau).yaw
        assert -math.pi <= y < math.pi
        assert y == pytest.approx(1.0)


def test_pose_rejects_non_finite():
    with pytest.raises(WorldError):
        Pose(math.nan, 0)
    with pytest.raises(WorldError):
        Pose(0, math.inf)
    with pytest.raises(WorldError):
        Pose(0, 0, -math.inf)
    for yaw in (math.nan, math.inf):
        with pytest.raises(WorldError):
            Pose(0, 0, yaw=yaw)


def test_pose_distances():
    a = Pose(0, 0, 0)
    b = Pose(3, 4, 12)
    assert a.distance(b) == pytest.approx(13.0)


def test_aabb_validation():
    with pytest.raises(WorldError):
        Aabb((1, 0, 0), (0, 1, 1))
    with pytest.raises(WorldError):
        Aabb((0, 0, 0), (1, 0, 1))
    flat = Aabb((0, 0, 0), (1, 0, 1), degenerate=True)
    assert flat.center == (0.5, 0.0, 0.5)


def test_aabb_contains_and_margin():
    box = Aabb((0, 0, 0), (1, 1, 1))
    assert box.contains((0.5, 0.5, 0.5))
    assert not box.contains((1.05, 0.5, 0.5))
    assert box.contains((1.05, 0.5, 0.5), margin=0.1)


def test_aabb_translated():
    box = Aabb((0, 0, 0), (1, 1, 1)).translated(2, 3)
    assert box.lo == (2.0, 3.0, 0.0)
    assert box.hi == (3.0, 4.0, 1.0)
    assert not box.degenerate
    flat = Aabb((0, 0, 0), (1, 0, 1), degenerate=True).translated(0.5, -0.25)
    assert flat == Aabb((0.5, -0.25, 0.0), (1.5, -0.25, 1.0), degenerate=True)
    for moved in (box, flat):
        assert all(type(v) is float for v in moved.lo + moved.hi)


def _remainder_yaw(yaw):
    out = math.remainder(yaw, math.tau)
    return out - math.tau if out >= math.pi else out


@pytest.mark.parametrize("yaw", [
    0, 1, 0.0, -0.0, 1.0, -1.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0),
    math.nextafter(-math.pi, 0.0), 3 * math.pi, -3 * math.pi, 1e6, math.tau])
def test_yaw_is_remainder_bit_for_bit(yaw):
    got = Pose(0.0, 0.0, yaw=yaw).yaw
    assert type(got) is float
    assert got.hex() == _remainder_yaw(yaw).hex()


def test_translated_box_keeps_the_volume_check():
    thin = Aabb((1.0, 0, 0), (math.nextafter(1.0, 2.0), 1, 1))
    # 2 + 2**-52 rounds to 2.0: the moved box has no volume
    with pytest.raises(WorldError, match="zero-volume"):
        thin.translated(1.0, 0)


def _fields(pose):
    """Each component's type and exact value."""
    return [(type(v), v.hex() if type(v) is float else v)
            for v in (pose.x, pose.y, pose.z, pose.yaw)]


def _outcome(make):
    try:
        return _fields(make())
    except WorldError:
        return WorldError


def test_moved_equals_the_constructor():
    cases = [
        (Pose(1.0, 2.0, 0.5, 0.3), 0.25, -0.125),
        (Pose(1.0, 2.0, 3, 0.3), 0.1, 0.2),  # an int z stays an int
        (Pose(0.5, 0.5, 0.5, -math.pi), 0.1, -0.2),  # the range's closed end
        (Pose(0.5, 0.5, yaw=math.tau + 1.0), 0.1, 0.2),  # normalized once
        (Pose(-0.0, 1.0), -0.0, -0.0),  # -0.0 + -0.0 keeps its sign
        (Pose(0.0, -0.0), -0.0, -0.0),
        (Pose(1, 2, 3), 1, 2),  # int sums stay ints
        # non-finite sums: both raise
        (Pose(1e308, 0.0), 1e308, 0.0),
        (Pose(0.0, -1e308), 0.0, -1e308),
        (Pose(0.0, 0.0), math.inf, 0.0),
        (Pose(0.0, 0.0), 0.0, math.nan),
    ]
    for pose, dx, dy in cases:
        moved = _outcome(lambda: pose.moved(dx, dy))
        built = _outcome(
            lambda: Pose(pose.x + dx, pose.y + dy, pose.z, pose.yaw))
        assert moved == built, (pose, dx, dy)
    assert sum(_outcome(lambda: p.moved(dx, dy)) is WorldError
               for p, dx, dy in cases) == 4


def test_moved_rejects_an_overflowing_sum():
    with pytest.raises(WorldError, match="non-finite"):
        Pose(1e308, 0).moved(1e308, 0)
    with pytest.raises(WorldError, match="non-finite"):
        Pose(0, -1e308).moved(0, -1e308)


@pytest.mark.parametrize("record,field", [
    (Pose(1.0, 2.0, 3.0, 0.5), "x"),
    (Pose(1.0, 2.0, 3.0, 0.5).moved(0.25, 0.5), "x"),
    (Aabb((0, 0, 0), (1, 1, 1)), "lo"),
], ids=["Pose", "moved Pose", "Aabb"])
def test_records_are_immutable_hashable_and_deepcopyable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    twin = copy.deepcopy(record)
    assert twin == record and hash(twin) == hash(record)
    assert {record: 1}[twin] == 1


# -- association -------------------------------------------------------------

def test_new_detection_creates_object():
    world = WorldModel()
    _see(world, _det("door", 5, 0))
    (obj,) = world.query("door")
    assert obj.id == 1
    assert obj.first_seen == obj.last_seen == 0.0


def test_nearby_same_label_updates_in_place():
    world = WorldModel()
    _see(world, _det("door", 5, 0, t=0.0))
    _see(world, _det("door", 5.2, 0, t=1.0))
    (obj,) = world.query("door")
    assert obj.pose.x == pytest.approx(5.2)
    assert obj.first_seen == 0.0
    assert obj.last_seen == 1.0


def test_far_same_label_creates_second_object():
    world = WorldModel()
    _see(world, _det("door", 5, 0))
    _see(world, _det("door", 8, 0))
    assert [o.id for o in world.query("door")] == [1, 2]


def test_same_position_different_label_stays_separate():
    world = WorldModel()
    _see(world, _det("door", 5, 0))
    _see(world, _det("box", 5, 0))
    assert len(world.objects) == 2


def test_association_picks_nearest_then_lowest_id():
    world = WorldModel()
    _see(world, _det("cup", 0, 0))
    _see(world, _det("cup", 1.0, 0))
    _see(world, _det("cup", 0.3, 0, t=2.0))  # nearer object 1
    assert world.objects[1].last_seen == 2.0
    assert world.objects[2].last_seen == 0.0
    # equidistant between two objects: lowest id wins
    world2 = WorldModel()
    _see(world2, _det("cup", 0, 0))
    _see(world2, _det("cup", 0.8, 0))
    _see(world2, _det("cup", 0.4, 0, t=3.0))
    assert world2.objects[1].last_seen == 3.0
    assert world2.objects[2].last_seen == 0.0


def test_association_radius_is_inclusive():
    # a detection exactly ASSOC_RADIUS from an object, on any side of it,
    # updates it; one any farther starts a new object
    beyond = math.nextafter(ASSOC_RADIUS, math.inf)
    for dist, n_objects in ((ASSOC_RADIUS, 1), (beyond, 2)):
        for x, y in ((dist, 0), (-dist, 0), (0, dist), (0, -dist)):
            world = WorldModel()
            _see(world, _det("cup", 0, 0))
            _see(world, _det("cup", x, y, t=1.0))
            assert len(world.objects) == n_objects, (x, y)
            assert world.objects[n_objects].last_seen == 1.0


def test_a_match_moves_the_object_to_the_detection_in_3d():
    # the second detection, 0.5 m above the first, updates object 1 and
    # takes its z along; the third is then 0.5 m from it, not 0.71 m
    world = WorldModel()
    _see(world, _det("cup", 0, 0, 0))
    _see(world, _det("cup", 0, 0, 0.5, t=1.0))
    _see(world, _det("cup", 0.5, 0, 0.5, t=2.0))
    (obj,) = world.query("cup")
    assert (obj.pose.x, obj.pose.z, obj.last_seen) == (0.5, 0.5, 2.0)


# -- parent attachment -------------------------------------------------------

LINKS = (("door", "door_handle"),)


def test_child_attaches_inside_parent_box():
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1, half=1.0))
    _see(world, _det("door_handle", 5, -0.35, 0.95, half=0.05), links=LINKS)
    (handle,) = world.query("door_handle")
    assert handle.parent == world.query("door")[0].id


def test_child_attaches_by_proximity_fallback():
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1, half=0.05))
    # outside the box even with margin, but within 0.75 m
    _see(world, _det("door_handle", 5, 0.6, 1, half=0.05), links=LINKS)
    (handle,) = world.query("door_handle")
    assert handle.parent == world.query("door")[0].id


def test_child_beyond_fallback_stays_orphan():
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1, half=0.05))
    _see(world, _det("door_handle", 5, 2.0, 1, half=0.05), links=LINKS)
    (handle,) = world.query("door_handle")
    assert handle.parent is None


def test_no_parent_without_link():
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1, half=1.0))
    _see(world, _det("door_handle", 5, -0.35, 0.95, half=0.05))
    (handle,) = world.query("door_handle")
    assert handle.parent is None


def test_parents_never_chain():
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1, half=1.0))
    _see(world, _det("door_handle", 5, -0.35, 0.95, half=0.1), links=LINKS)
    # a second-level link may not produce a grandchild chain
    chained = LINKS + (("door_handle", "screw"),)
    _see(world, _det("screw", 5, -0.35, 0.95, half=0.02), links=chained)
    (screw,) = world.query("screw")
    assert screw.parent is None  # candidate parents must be top-level
    for obj in world.objects.values():
        if obj.parent is not None:
            assert world.objects[obj.parent].parent is None


def test_linking_a_parent_under_another_raises():
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1, half=1.0))
    _see(world, _det("door_handle", 5, -0.35, 0.95, half=0.05), links=LINKS)
    _see(world, _det("wall", 5, 0, 1, half=2.0))
    # the door already has a child, so hanging it on the wall would chain
    with pytest.raises(WorldError):
        _see(world, _det("door", 5, 0, 1, half=1.0), links=(("wall", "door"),))


def test_constructor_rejects_bad_graphs():
    box = Aabb((0, 0, 0), (1, 1, 1))
    a = WorldObject(1, "door", Pose(0, 0), box)
    with pytest.raises(WorldError):
        WorldModel([a, WorldObject(1, "box", Pose(2, 2), box)])
    with pytest.raises(WorldError):
        WorldModel([WorldObject(2, "handle", Pose(0, 0), box, parent=9)])
    b = WorldObject(2, "handle", Pose(0, 0), box, parent=1)
    c = WorldObject(3, "screw", Pose(0, 0), box, parent=2)
    with pytest.raises(WorldError):
        WorldModel([a, b, c])


# -- queries and snapshots ---------------------------------------------------

def test_query_filters_and_sorts():
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1, half=1.0))
    _see(world, _det("door_handle", 5, -0.35, 0.95, half=0.05), links=LINKS)
    _see(world, _det("box", 0, 3))
    door_id = world.query("door")[0].id
    assert [o.label for o in world.query()] == ["door", "door_handle", "box"]
    assert [o.id for o in world.query()] == [1, 2, 3]
    assert [o.id for o in world.query(parent=door_id)] == [2]
    assert world.query("door_handle", parent=door_id)[0].id == 2


def test_snapshot_is_isolated():
    world = WorldModel()
    _see(world, _det("door", 5, 0))
    snap = world.snapshot()
    _see(world, _det("box", 1, 1))
    _see(world, _det("door", 5.1, 0, t=9.0))
    assert len(snap.objects) == 1
    assert snap.objects[1].last_seen == 0.0
    _see(snap, _det("cup", 0, 0))
    assert not world.query("cup")
    # the copy carries its own label index: a nearby door updates object 1
    _see(snap, _det("door", 5.2, 0, t=4.0))
    assert [o.id for o in snap.query("door")] == [1]
    assert world.objects[1].last_seen == 9.0
    # mutating an object of the snapshot leaves the source untouched
    snap.objects[1].pose = Pose(-1.0, -1.0)
    snap.objects[1].parent = 2
    assert world.objects[1].pose.x == pytest.approx(5.1)
    assert world.objects[1].parent is None


def test_integration_order_invariant_when_far_apart():
    # detections separated by > 2x assoc radius: same objects either way
    spots = [("door", 0.0, 0.0), ("box", 3.0, 0.0), ("door", 0.0, 3.0),
             ("cup", -3.0, 1.0), ("box", 3.0, 3.0)]
    rng = random.Random(99)
    base = None
    for _ in range(6):
        order = spots[:]
        rng.shuffle(order)
        world = WorldModel()
        for label, x, y in order:
            _see(world, _det(label, x, y))
        summary = sorted((o.label, round(o.pose.x, 6), round(o.pose.y, 6))
                         for o in world.query())
        if base is None:
            base = summary
        assert summary == base


def test_world_json_roundtrip(tmp_path):
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1, half=1.0, t=2.0))
    _see(world, _det("door_handle", 5, -0.35, 0.95, half=0.05, t=3.0),
                    links=LINKS)
    path = tmp_path / "world.json"
    path.write_text(json.dumps(world.to_json()), encoding="utf-8")
    loaded = WorldModel.load(path)
    assert set(loaded.objects) == set(world.objects)
    for i, obj in world.objects.items():
        got = loaded.objects[i]
        assert got.label == obj.label
        assert got.parent == obj.parent
        assert got.pose.x == pytest.approx(obj.pose.x)
        assert got.bbox.lo == obj.bbox.lo
        assert got.last_seen == obj.last_seen


def test_loaded_world_keeps_ids_fresh(tmp_path):
    world = WorldModel()
    _see(world, _det("door", 5, 0))
    _see(world, _det("box", 1, 1))
    path = tmp_path / "world.json"
    path.write_text(json.dumps(world.to_json()), encoding="utf-8")
    loaded = WorldModel.load(path)
    _see(loaded, _det("cup", 9, 9))
    assert max(loaded.objects) == 3
