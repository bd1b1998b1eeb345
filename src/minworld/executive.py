"""Executive: dispatch a grounded behavior on the simulated robot.

Navigate drives the base to a standoff point at the target; open chains
navigate, constituent detection, handle localization, turning, and the
final push. The machine only ever takes transitions from the fixed
graph below, and raises RuntimeError on any other; anything that cannot
proceed terminates in FAILURE.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .world import Pose, WorldObject


class ExecState(enum.Enum):
    RECEIVED = "RECEIVED"
    NAVIGATING = "NAVIGATING"
    DETECTING = "DETECTING"
    LOCALIZING = "LOCALIZING"
    TURNING = "TURNING"
    PUSHING = "PUSHING"
    COMPLETE = "COMPLETE"
    FAILURE = "FAILURE"


ALLOWED_TRANSITIONS: frozenset[tuple[ExecState, ExecState]] = frozenset({
    (ExecState.RECEIVED, ExecState.NAVIGATING),
    (ExecState.RECEIVED, ExecState.FAILURE),
    (ExecState.NAVIGATING, ExecState.COMPLETE),
    (ExecState.NAVIGATING, ExecState.DETECTING),
    (ExecState.DETECTING, ExecState.LOCALIZING),
    (ExecState.DETECTING, ExecState.FAILURE),
    (ExecState.LOCALIZING, ExecState.TURNING),
    (ExecState.LOCALIZING, ExecState.FAILURE),
    (ExecState.TURNING, ExecState.PUSHING),
    (ExecState.TURNING, ExecState.FAILURE),
    (ExecState.PUSHING, ExecState.COMPLETE),
})


class NavigationError(RuntimeError):
    pass


class LocalizeError(RuntimeError):
    pass


class TurnError(RuntimeError):
    pass


@dataclass(frozen=True)
class BehaviorRequest:
    action: str
    target_a: int


@dataclass
class RobotState:
    base: Pose
    arm_extended: bool = False
    contact_force: float = 0.0
    applied_torque: float = 0.0
    time: float = 0.0


@dataclass
class DoorSim:
    """Latched door with a lever handle.

    handle_pose, when set, is the true handle location the arm must hit;
    jam_angle, when set below the travel limit, makes the handle bind
    there (torque spikes past the limit before end of travel).
    """

    handle_angle: float = 0.0
    handle_limit: float = 0.6
    handle_torque_limit: float = 2.0
    open_fraction: float = 0.0
    latched: bool = True
    handle_pose: Pose | None = None
    jam_angle: float | None = None


@dataclass(frozen=True)
class ExecParams:
    speed: float = 0.5            # m/s base motion
    standoff: float = 0.5         # m from the target face
    arm_reach: float = 0.9        # m, base to handle in the plane
    localize_tolerance: float = 0.1
    contact_threshold: float = 5.0  # N, descent stops past this
    contact_force: float = 6.0      # N felt at contact
    descend_time: float = 1.5
    turn_rate: float = 0.6        # rad/s handle rotation
    push_time: float = 1.5
    push_fraction: float = 0.3


@dataclass
class ExecStatus:
    state: ExecState
    trace: list[tuple[ExecState, float]]
    failure_reason: str | None = None

    def states(self) -> list[ExecState]:
        return [s for s, _ in self.trace]

    def to_json(self) -> dict:
        d = {"state": self.state.value,
             "trace": [[s.value, t] for s, t in self.trace]}
        if self.failure_reason is not None:
            d["failure_reason"] = self.failure_reason
        return d

    def log_lines(self) -> list[str]:
        lines = [f"t={t:8.3f}  {s.value}" for s, t in self.trace]
        if self.failure_reason is not None:
            lines.append(f"reason: {self.failure_reason}")
        return lines


def _approach_point(robot: Pose, target: WorldObject,
                    standoff: float) -> tuple[float, float, float]:
    """Standoff goal: back off from the nearest face point toward the
    robot; returns (x, y, yaw facing the target)."""
    px = min(max(robot.x, target.bbox.lo[0]), target.bbox.hi[0])
    py = min(max(robot.y, target.bbox.lo[1]), target.bbox.hi[1])
    dx, dy = robot.x - px, robot.y - py
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        # robot is on the target footprint; face its center
        cx, cy, _ = target.bbox.center
        yaw = math.atan2(cy - robot.y, cx - robot.x)
        return robot.x, robot.y, yaw
    ux, uy = dx / dist, dy / dist
    gx, gy = px + standoff * ux, py + standoff * uy
    yaw = math.atan2(-uy, -ux)
    return gx, gy, yaw


def _standoff_goal(robot: Pose, target: WorldObject, standoff: float,
                   obstacles) -> tuple[float, float, float]:
    """The approach point, unless it lies inside another object's
    footprint, which makes it unreachable."""
    gx, gy, yaw = _approach_point(robot, target, standoff)
    for obs in obstacles:
        if obs.id != target.id and obs.bbox.contains((gx, gy, obs.bbox.center[2])):
            raise NavigationError(
                f"standoff point blocked by object {obs.id} ({obs.label})")
    return gx, gy, yaw


def navigate(robot: RobotState, target: WorldObject, standoff: float = 0.5,
             speed: float = 0.5, obstacles=()) -> RobotState:
    """Drive the base to the standoff point, facing the target.

    Already at the goal: pose unchanged, zero additional time. A goal
    inside an obstacle footprint is unreachable.
    """
    if standoff <= 0:
        raise ValueError("standoff must be positive")
    gx, gy, yaw = _standoff_goal(robot.base, target, standoff, obstacles)
    dist = math.hypot(gx - robot.base.x, gy - robot.base.y)
    if dist < 1e-9 and abs(math.remainder(yaw - robot.base.yaw, math.tau)) < 1e-9:
        return robot
    robot.base = Pose(gx, gy, robot.base.z, yaw)
    robot.time += dist / speed
    return robot


def localize(robot: RobotState, door: DoorSim, handle: WorldObject,
             params: ExecParams = ExecParams()) -> RobotState:
    """Descend onto the handle from above until contact.

    The believed handle pose must be within reach of the base and within
    the configured tolerance of the true handle location.
    """
    reach = math.hypot(handle.pose.x - robot.base.x,
                       handle.pose.y - robot.base.y)
    if reach > params.arm_reach:
        raise LocalizeError(
            f"handle {reach:.2f} m from base exceeds reach {params.arm_reach} m")
    actual = door.handle_pose or handle.pose
    error = handle.pose.distance(actual)
    if error > params.localize_tolerance:
        raise LocalizeError(
            f"handle estimate off by {error:.2f} m, tolerance "
            f"{params.localize_tolerance} m")
    robot.arm_extended = True
    robot.contact_force = params.contact_force
    robot.time += params.descend_time
    return robot


def turn(robot: RobotState, door: DoorSim,
         params: ExecParams = ExecParams()) -> tuple[RobotState, DoorSim]:
    """Rotate the handle until the torque limit marks end of travel.

    A jam (binding before the travel limit) spikes torque early and
    leaves the door latched.
    """
    if not robot.arm_extended or robot.contact_force < params.contact_threshold:
        raise TurnError("no handle contact")
    if not door.latched:
        return robot, door
    if door.jam_angle is not None and door.jam_angle < door.handle_limit:
        door.handle_angle = door.jam_angle
        robot.applied_torque = door.handle_torque_limit
        robot.time += door.jam_angle / params.turn_rate
        raise TurnError(
            f"handle jammed at {door.jam_angle:.2f} rad before limit "
            f"{door.handle_limit:.2f} rad")
    door.handle_angle = door.handle_limit
    robot.applied_torque = door.handle_torque_limit
    door.latched = False
    robot.time += door.handle_limit / params.turn_rate
    return robot, door


def push(robot: RobotState, door: DoorSim,
         params: ExecParams = ExecParams()) -> tuple[RobotState, DoorSim]:
    if door.latched:
        raise TurnError("pushing a latched door")
    door.open_fraction = max(door.open_fraction, params.push_fraction)
    robot.arm_extended = False
    robot.contact_force = 0.0
    robot.applied_torque = 0.0
    robot.time += params.push_time
    return robot, door


def receive_behavior(b: BehaviorRequest, world_provider, robot: RobotState,
                     door: DoorSim,
                     params: ExecParams = ExecParams()) -> ExecStatus:
    """Dispatch one behavior request and run it to a terminal state.

    world_provider() yields a fresh world snapshot; it is consulted at
    dispatch and again at the detection step, never mutated.
    """
    trace: list[tuple[ExecState, float]] = [(ExecState.RECEIVED, robot.time)]

    def enter(state: ExecState) -> None:
        edge = (trace[-1][0], state)
        if edge not in ALLOWED_TRANSITIONS:
            raise RuntimeError(f"executive transition {edge[0].value} -> "
                               f"{state.value} is not allowed")
        trace.append((state, robot.time))

    def fail(reason: str) -> ExecStatus:
        enter(ExecState.FAILURE)
        return ExecStatus(ExecState.FAILURE, trace, reason)

    snap = world_provider()
    if b.action not in ("navigate", "open"):
        return fail(f"unsupported action {b.action!r}")
    target = snap.objects.get(b.target_a)
    if target is None:
        return fail(f"target {b.target_a} not in world")
    try:
        # plan before moving so an unreachable goal fails at dispatch
        _standoff_goal(robot.base, target, params.standoff, snap.query())
    except NavigationError as e:
        return fail(str(e))

    enter(ExecState.NAVIGATING)
    navigate(robot, target, params.standoff, params.speed)

    if b.action == "navigate":
        enter(ExecState.COMPLETE)
        return ExecStatus(ExecState.COMPLETE, trace)

    enter(ExecState.DETECTING)
    children = world_provider().query(parent=b.target_a)
    handle = children[0] if children else None
    if handle is None:
        return fail(f"no constituent of target {b.target_a} in world")

    enter(ExecState.LOCALIZING)
    try:
        localize(robot, door, handle, params)
    except LocalizeError as e:
        return fail(str(e))

    enter(ExecState.TURNING)
    try:
        turn(robot, door, params)
    except TurnError as e:
        return fail(str(e))

    enter(ExecState.PUSHING)
    push(robot, door, params)

    enter(ExecState.COMPLETE)
    return ExecStatus(ExecState.COMPLETE, trace)
