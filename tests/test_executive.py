from __future__ import annotations

import math

import pytest

from minworld import executive
from minworld.executive import (
    ALLOWED_TRANSITIONS,
    BehaviorRequest,
    DoorSim,
    ExecParams,
    ExecState,
    LocalizeError,
    NavigationError,
    RobotState,
    TurnError,
    localize,
    navigate,
    push,
    receive_behavior,
    turn,
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
    with pytest.raises(ValueError):
        navigate(_robot(), _door(), standoff=0.0)


def test_navigate_blocked_goal():
    wall = WorldObject(9, "box", Pose(4.5, 0.0, 0.5),
                       Aabb((4.2, -0.5, 0.0), (4.8, 0.5, 1.0)))
    with pytest.raises(NavigationError):
        navigate(_robot(), _door(), obstacles=[wall, _door()])


def test_navigate_target_footprint_never_blocks():
    robot = navigate(_robot(), _door(), obstacles=[_door()])
    assert robot.base.x == pytest.approx(4.5)


# -- manipulation ------------------------------------------------------------

def _ready_robot() -> RobotState:
    return navigate(_robot(), _door())


def test_localize_makes_contact():
    robot = _ready_robot()
    t = robot.time
    localize(robot, DoorSim(), _handle())
    assert robot.arm_extended
    assert robot.contact_force == pytest.approx(6.0)
    assert robot.time == pytest.approx(t + 1.5)


def test_localize_rejects_out_of_reach():
    with pytest.raises(LocalizeError):
        localize(_robot(), DoorSim(), _handle())  # still at the origin


def test_localize_rejects_bad_estimate():
    robot = _ready_robot()
    door = DoorSim(handle_pose=Pose(5.0, -0.35 + 0.2, 0.95))
    with pytest.raises(LocalizeError):
        localize(robot, door, _handle())


def test_localize_accepts_estimate_within_tolerance():
    robot = _ready_robot()
    door = DoorSim(handle_pose=Pose(5.0, -0.35 + 0.05, 0.95))
    localize(robot, door, _handle())
    assert robot.arm_extended


def test_turn_requires_contact():
    robot = _ready_robot()
    with pytest.raises(TurnError):
        turn(robot, DoorSim())


def test_turn_unlatches():
    robot = _ready_robot()
    door = DoorSim()
    localize(robot, door, _handle())
    t = robot.time
    turn(robot, door)
    assert not door.latched
    assert door.handle_angle == pytest.approx(0.6)
    assert robot.applied_torque == pytest.approx(2.0)
    assert robot.time == pytest.approx(t + 0.6 / 0.6)


def test_turn_unlatched_is_a_no_op():
    robot = _ready_robot()
    door = DoorSim(latched=False)
    localize(robot, door, _handle())
    t = robot.time
    turn(robot, door)
    assert robot.time == t
    assert door.handle_angle == 0.0


def test_turn_jam_fails_before_limit():
    robot = _ready_robot()
    door = DoorSim(jam_angle=0.2)
    localize(robot, door, _handle())
    with pytest.raises(TurnError):
        turn(robot, door)
    assert door.latched
    assert door.handle_angle == pytest.approx(0.2)
    assert robot.applied_torque == pytest.approx(2.0)


def test_push_requires_unlatched():
    robot = _ready_robot()
    door = DoorSim()
    localize(robot, door, _handle())
    with pytest.raises(TurnError):
        push(robot, door)


def test_push_opens_and_retracts():
    robot = _ready_robot()
    door = DoorSim()
    localize(robot, door, _handle())
    turn(robot, door)
    push(robot, door)
    assert door.open_fraction == pytest.approx(0.3)
    assert not robot.arm_extended
    assert robot.contact_force == 0.0


def test_manipulation_tail_timing():
    robot = _ready_robot()
    t = robot.time
    door = DoorSim()
    localize(robot, door, _handle())
    turn(robot, door)
    push(robot, door)
    assert robot.time == pytest.approx(t + 1.5 + 1.0 + 1.5)


# -- the dispatcher ----------------------------------------------------------

def _run(request, world, door=None, params=ExecParams(), robot=None):
    door = door or DoorSim(handle_pose=_handle().pose)
    robot = robot or _robot()
    return receive_behavior(request, world.snapshot, robot, door, params), door, robot


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
    assert door.open_fraction == pytest.approx(0.3)
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


def test_detection_uses_a_fresh_snapshot():
    # the handle appears between dispatch and the detection step
    first = _world(_door())
    second = _world(_door(), _handle())
    calls = []

    def provider():
        calls.append(None)
        return (first if len(calls) == 1 else second).snapshot()

    door = DoorSim(handle_pose=_handle().pose)
    status = receive_behavior(BehaviorRequest("open", 1), provider,
                              _robot(), door)
    assert status.state is S.COMPLETE
    assert len(calls) == 2


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
    yield (BehaviorRequest("open", 1), full,
           DoorSim(handle_pose=Pose(5.0, 0.2, 0.95)))
    yield (BehaviorRequest("open", 1), full,
           DoorSim(handle_pose=_handle().pose, jam_angle=0.3))
    yield (BehaviorRequest("open", 1), full,
           DoorSim(handle_pose=_handle().pose, latched=False))


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
