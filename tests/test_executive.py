from __future__ import annotations

import math

import pytest

from minworld import executive
from minworld.executive import (
    ALLOWED_TRANSITIONS,
    BehaviorRequest,
    DoorSim,
    ExecState,
    NavigationError,
    RobotState,
    navigate,
    receive_behavior,
)
from minworld.world import Aabb, Pose, WorldModel, WorldObject

S = ExecState


def _door():
    return WorldObject(1, "door", Pose(5.0, 0.0, 1.0),
                       Aabb((5.0, -0.45, 0.0), (5.05, 0.45, 2.0)))


def _handle():
    return WorldObject(2, "door_handle", Pose(5.0, -0.35, 0.95),
                       Aabb((5.0, -0.4, 0.9), (5.04, -0.3, 1.0)),
                       parent=1)


def _far_handle():
    """A handle on the door 1.30 m from the standoff point, out of reach."""
    return WorldObject(2, "door_handle", Pose(5.0, -1.2, 0.95),
                       Aabb((5.0, -1.25, 0.9), (5.04, -1.15, 1.0)),
                       parent=1)


def _world(*objects) -> WorldModel:
    return WorldModel(list(objects))


def _robot() -> RobotState:
    return RobotState(Pose(0.0, 0.0))


# -- navigation --------------------------------------------------------------

def test_navigate_reaches_standoff_point():
    robot = navigate(_robot(), _door(), standoff=1.0)
    assert math.hypot(robot.base.x - 4.0, robot.base.y - 0.0) < 0.05
    assert abs(robot.base.yaw) < 1e-9
    assert robot.time == pytest.approx(4.0 / 0.5)


def test_navigate_default_standoff():
    robot = navigate(_robot(), _door())
    assert robot.base.x == pytest.approx(4.5)
    assert robot.base.y == pytest.approx(0.0)


def test_navigate_is_idempotent():
    robot = navigate(_robot(), _door())
    t = robot.time
    again = navigate(robot, _door())
    assert again.time == t
    assert again.base == robot.base


def test_navigate_from_the_side_faces_target():
    robot = RobotState(Pose(5.025, 3.0))
    navigate(robot, _door(), standoff=0.5)
    assert robot.base.y == pytest.approx(0.95)
    assert robot.base.yaw == pytest.approx(-math.pi / 2)


def test_navigate_on_footprint_faces_center():
    robot = RobotState(Pose(5.02, 0.0))
    navigate(robot, _door())
    assert robot.base.x == pytest.approx(5.02)
    assert robot.time == 0.0


def test_navigate_rejects_bad_standoff():
    # before moving: a standoff <= 0 leaves the base and clock as they were
    for standoff in (0.0, -0.5):
        robot = _robot()
        with pytest.raises(ValueError, match="standoff"):
            navigate(robot, _door(), standoff=standoff)
        assert robot.base == Pose(0.0, 0.0) and robot.time == 0.0


def test_navigate_blocked_goal():
    wall = WorldObject(9, "box", Pose(4.5, 0.0, 0.5),
                       Aabb((4.2, -0.5, 0.0), (4.8, 0.5, 1.0)))
    with pytest.raises(NavigationError):
        navigate(_robot(), _door(), obstacles=[wall, _door()])


def test_navigate_target_footprint_never_blocks():
    robot = navigate(_robot(), _door(), obstacles=[_door()])
    assert robot.base.x == pytest.approx(4.5)


# -- the dispatcher ----------------------------------------------------------

def _run(request, world, door=None):
    door = door or DoorSim(handle_pose=_handle().pose)
    robot = _robot()
    return receive_behavior(request, world.snapshot, robot, door), door, robot


def _open(door=None, handle=None):
    """An open dispatch from the origin; the base reaches its standoff
    point at t = 9.0 s, where the default handle is 0.61 m away."""
    return _run(BehaviorRequest("open", 1), _world(_door(), handle or _handle()),
                door=door)


def _times(status) -> dict:
    return dict(status.trace)  # a trace never revisits a state


def test_navigate_behavior_trace():
    status, _, robot = _run(BehaviorRequest("navigate", 1), _world(_door(), _handle()))
    assert status.state is S.COMPLETE
    assert status.states() == [S.RECEIVED, S.NAVIGATING, S.COMPLETE]
    assert robot.base.x == pytest.approx(4.5)


def test_open_behavior_trace():
    status, door, robot = _run(BehaviorRequest("open", 1), _world(_door(), _handle()))
    assert status.state is S.COMPLETE
    assert status.states() == [
        S.RECEIVED, S.NAVIGATING, S.DETECTING, S.LOCALIZING,
        S.TURNING, S.PUSHING, S.COMPLETE,
    ]
    assert not door.latched
    assert robot.time > 0


def test_unsupported_action_fails_from_received():
    for action in ("turn", "look"):
        status, _, _ = _run(BehaviorRequest(action, 1), _world(_door(), _handle()))
        assert status.states() == [S.RECEIVED, S.FAILURE]
        assert "unsupported" in status.failure_reason


def test_missing_target_fails_from_received():
    status, _, _ = _run(BehaviorRequest("open", 77), _world(_door(), _handle()))
    assert status.states() == [S.RECEIVED, S.FAILURE]
    assert "not in world" in status.failure_reason


def test_blocked_goal_fails_at_dispatch():
    wall = WorldObject(9, "box", Pose(4.5, 0.0, 0.5),
                       Aabb((4.2, -0.5, 0.0), (4.8, 0.5, 1.0)))
    status, _, robot = _run(BehaviorRequest("open", 1),
                            _world(_door(), _handle(), wall))
    assert status.states() == [S.RECEIVED, S.FAILURE]
    assert "blocked" in status.failure_reason
    assert robot.base.x == 0.0  # never moved


@pytest.mark.parametrize("action", ["navigate", "open"])
def test_dispatch_plans_one_goal_and_drives_to_it(monkeypatch, action):
    # the goal is planned once, with obstacles, and is the pose driven to
    goals = []

    def counting(*args):
        goals.append(standoff_goal(*args))
        return goals[-1]

    standoff_goal = executive._standoff_goal
    monkeypatch.setattr(executive, "_standoff_goal", counting)
    status, _, robot = _run(BehaviorRequest(action, 1), _world(_door(), _handle()))
    assert status.state is S.COMPLETE
    assert len(goals) == 1
    assert (robot.base.x, robot.base.y, robot.base.yaw) == goals[0]
    reference = navigate(_robot(), _door(), obstacles=[_door(), _handle()])
    assert reference.base == robot.base
    if action == "navigate":
        assert robot.time == reference.time


def test_dispatch_rejects_bad_standoff_before_moving(monkeypatch):
    # the dispatcher plans with ExecParams.standoff before the base moves
    monkeypatch.setattr(executive.ExecParams, "standoff", 0.0)
    robot = _robot()
    with pytest.raises(ValueError, match="standoff"):
        receive_behavior(BehaviorRequest("navigate", 1),
                         _world(_door()).snapshot, robot, DoorSim())
    assert robot.base == Pose(0.0, 0.0) and robot.time == 0.0


@pytest.mark.parametrize("field", list(executive.ExecParams.__annotations__))
def test_exec_params_are_constants_no_instance_can_set(field):
    # the executive reads the class, so a value given here would be ignored
    assert executive.ExecParams().standoff == executive.ExecParams.standoff
    with pytest.raises(TypeError):
        executive.ExecParams(**{field: 0.0})


def test_missing_constituent_fails_at_detecting():
    status, _, _ = _run(BehaviorRequest("open", 1), _world(_door()))
    assert status.states() == [S.RECEIVED, S.NAVIGATING, S.DETECTING, S.FAILURE]
    assert "no constituent" in status.failure_reason


def test_bad_handle_estimate_fails_at_localizing():
    door = DoorSim(handle_pose=Pose(5.0, 0.1, 0.95))
    status, door, _ = _run(BehaviorRequest("open", 1),
                           _world(_door(), _handle()), door=door)
    assert status.states() == [
        S.RECEIVED, S.NAVIGATING, S.DETECTING, S.LOCALIZING, S.FAILURE,
    ]
    assert door.latched


def test_jam_fails_at_turning():
    door = DoorSim(handle_pose=_handle().pose, jam_angle=0.2)
    status, door, _ = _run(BehaviorRequest("open", 1),
                           _world(_door(), _handle()), door=door)
    assert status.states() == [
        S.RECEIVED, S.NAVIGATING, S.DETECTING, S.LOCALIZING,
        S.TURNING, S.FAILURE,
    ]
    assert door.latched
    assert "jam" in status.failure_reason


# -- manipulation, through the dispatch --------------------------------------

def test_localize_makes_contact():
    # the descent onto the handle takes descend_time
    status, _, _ = _open()
    t = _times(status)
    assert t[S.LOCALIZING] == pytest.approx(9.0)
    assert t[S.TURNING] == pytest.approx(t[S.LOCALIZING] + 1.5)


def test_localize_rejects_out_of_reach():
    status, door, robot = _open(handle=_far_handle())
    assert status.states() == [
        S.RECEIVED, S.NAVIGATING, S.DETECTING, S.LOCALIZING, S.FAILURE,
    ]
    assert status.failure_reason == "handle 1.30 m from base exceeds reach 0.9 m"
    assert _times(status)[S.FAILURE] == robot.time == pytest.approx(9.0)
    assert door.latched


def test_localize_rejects_bad_estimate():
    status, door, robot = _open(DoorSim(handle_pose=Pose(5.0, -0.35 + 0.2, 0.95)))
    assert status.states()[-2:] == [S.LOCALIZING, S.FAILURE]
    assert status.failure_reason == "handle estimate off by 0.20 m, tolerance 0.1 m"
    assert _times(status)[S.FAILURE] == robot.time == pytest.approx(9.0)
    assert door.latched


def test_localize_accepts_estimate_within_tolerance():
    status, _, _ = _open(DoorSim(handle_pose=Pose(5.0, -0.35 + 0.05, 0.95)))
    assert status.state is S.COMPLETE


def test_turn_unlatches():
    status, door, _ = _open()
    t = _times(status)
    assert not door.latched
    assert t[S.PUSHING] == pytest.approx(t[S.TURNING] + 0.6 / 0.6)


def test_turn_unlatched_is_a_no_op():
    status, door, _ = _open(DoorSim(handle_pose=_handle().pose, latched=False))
    t = _times(status)
    assert status.state is S.COMPLETE
    assert t[S.PUSHING] == t[S.TURNING]
    assert not door.latched


def test_turn_jam_fails_before_limit():
    status, door, robot = _open(DoorSim(handle_pose=_handle().pose, jam_angle=0.2))
    t = _times(status)
    assert status.states()[-2:] == [S.TURNING, S.FAILURE]
    assert status.failure_reason == "handle jammed at 0.20 rad before limit 0.60 rad"
    assert t[S.FAILURE] == robot.time == pytest.approx(t[S.TURNING] + 0.2 / 0.6)
    assert door.latched


def test_turn_binding_at_the_limit_is_end_of_travel():
    status, door, _ = _open(DoorSim(handle_pose=_handle().pose, jam_angle=0.6))
    t = _times(status)
    assert status.state is S.COMPLETE
    assert t[S.PUSHING] == pytest.approx(t[S.TURNING] + 0.6 / 0.6)
    assert not door.latched


def test_manipulation_tail_timing():
    status, _, robot = _open()
    t = _times(status)
    assert t[S.COMPLETE] == robot.time
    assert t[S.COMPLETE] == pytest.approx(t[S.LOCALIZING] + 1.5 + 1.0 + 1.5)


@pytest.mark.parametrize("action", ["navigate", "open"])
def test_dispatch_reads_the_world_once(action):
    world = _world(_door(), _handle())
    calls = []

    def provider():
        calls.append(None)
        return world.snapshot()

    status = receive_behavior(BehaviorRequest(action, 1), provider, _robot(),
                              DoorSim(handle_pose=_handle().pose))
    assert status.state is S.COMPLETE
    assert len(calls) == 1


def _fault_matrix():
    wall = WorldObject(9, "box", Pose(4.5, 0.0, 0.5),
                       Aabb((4.2, -0.5, 0.0), (4.8, 0.5, 1.0)))
    full = _world(_door(), _handle())
    yield BehaviorRequest("navigate", 1), full, DoorSim()
    yield BehaviorRequest("open", 1), full, DoorSim(handle_pose=_handle().pose)
    yield BehaviorRequest("turn", 1), full, DoorSim()
    yield BehaviorRequest("look", 2), full, DoorSim()
    yield BehaviorRequest("open", 77), full, DoorSim()
    yield BehaviorRequest("open", 1), _world(_door()), DoorSim()
    yield BehaviorRequest("open", 1), _world(_door(), _handle(), wall), DoorSim()
    yield BehaviorRequest("open", 1), _world(_door(), _far_handle()), DoorSim()
    yield (BehaviorRequest("open", 1), full,
           DoorSim(handle_pose=Pose(5.0, 0.2, 0.95)))
    yield (BehaviorRequest("open", 1), full,
           DoorSim(handle_pose=_handle().pose, jam_angle=0.3))
    yield (BehaviorRequest("open", 1), full,
           DoorSim(handle_pose=_handle().pose, latched=False))


def test_fault_matrix_takes_every_edge():
    # an edge of the graph no dispatch can take is dead
    taken = set()
    for request, world, door in _fault_matrix():
        states = _run(request, world, door=door)[0].states()
        taken |= set(zip(states, states[1:]))
    assert taken == ALLOWED_TRANSITIONS


def test_every_trace_follows_the_transition_graph():
    for request, world, door in _fault_matrix():
        status, _, _ = _run(request, world, door=door)
        states = status.states()
        assert states[0] is S.RECEIVED
        assert states[-1] in (S.COMPLETE, S.FAILURE)
        for a, b in zip(states, states[1:]):
            assert (a, b) in ALLOWED_TRANSITIONS, f"{a} -> {b}"
        times = [t for _, t in status.trace]
        assert times == sorted(times)
        assert len(states) == len(set(states))  # no revisits


@pytest.mark.parametrize("edge, action, with_handle", [
    # an edge ``enter`` takes on the way to COMPLETE
    ((S.TURNING, S.PUSHING), "open", True),
    # edges ``fail`` takes
    ((S.RECEIVED, S.FAILURE), "look", True),
    ((S.DETECTING, S.FAILURE), "open", False),
], ids=["enter", "fail-at-dispatch", "fail-at-detecting"])
def test_transition_outside_the_graph_raises(monkeypatch, edge, action,
                                             with_handle):
    monkeypatch.setattr(executive, "ALLOWED_TRANSITIONS",
                        ALLOWED_TRANSITIONS - {edge})
    world = _world(_door(), _handle()) if with_handle else _world(_door())
    with pytest.raises(RuntimeError,
                       match=f"{edge[0].value} -> {edge[1].value}"):
        _run(BehaviorRequest(action, 1), world)


def test_trace_json_and_log_shape():
    status, _, _ = _run(BehaviorRequest("open", 1), _world(_door(), _handle()))
    data = status.to_json()
    assert data["state"] == "COMPLETE"
    assert [s for s, _ in data["trace"]] == [s.value for s in status.states()]
    assert "failure_reason" not in data
    lines = status.log_lines()
    assert len(lines) == len(status.trace)
    assert lines[0].endswith("RECEIVED")

    failed, _, _ = _run(BehaviorRequest("open", 1), _world(_door()))
    data = failed.to_json()
    assert data["failure_reason"]
    assert failed.log_lines()[-1].startswith("reason:")
