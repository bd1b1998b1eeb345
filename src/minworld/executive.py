"""Executive: dispatch a grounded behavior on the simulated robot.

Navigate drives the base to a standoff point at the target; open chains
navigate, constituent detection, handle localization, turning, and the
final push, in one straight-line dispatch. The simulated door models the
arm's reach, the localization tolerance, the latch and a jam; each step
adds its simulated time to the robot's clock. The machine only ever
takes transitions from the fixed graph below, and raises RuntimeError on
any other; anything that cannot proceed terminates in FAILURE.
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


@dataclass(frozen=True)
class BehaviorRequest:
    action: str
    target_a: int


@dataclass
class RobotState:
    base: Pose
    time: float = 0.0


@dataclass
class DoorSim:
    """Latched door with a lever handle.

    handle_pose, when set, is the true handle location the arm must hit;
    jam_angle, when set below ExecParams.handle_limit, makes the handle
    bind there before end of travel and leaves the door latched.
    """

    latched: bool = True
    handle_pose: Pose | None = None
    jam_angle: float | None = None


class ExecParams:
    """The executive's constants, read off the class; it takes no values."""

    speed: float = 0.5            # m/s base motion
    standoff: float = 0.5         # m from the target face
    arm_reach: float = 0.9        # m, base to handle in the plane
    localize_tolerance: float = 0.1
    descend_time: float = 1.5
    turn_rate: float = 0.6        # rad/s handle rotation
    handle_limit: float = 0.6     # rad, the handle's end of travel
    push_time: float = 1.5


@dataclass
class ExecStatus:
    trace: list[tuple[ExecState, float]]
    failure_reason: str | None = None

    @property
    def state(self) -> ExecState:
        return self.trace[-1][0]

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


def _standoff_goal(robot: Pose, target: WorldObject, standoff: float,
                   obstacles) -> tuple[float, float, float]:
    """Standoff goal: back off from the nearest face point toward the
    robot; returns (x, y, yaw facing the target). A goal inside another
    object's footprint is unreachable."""
    if standoff <= 0:
        raise ValueError("standoff must be positive")
    px = min(max(robot.x, target.bbox.lo[0]), target.bbox.hi[0])
    py = min(max(robot.y, target.bbox.lo[1]), target.bbox.hi[1])
    dx, dy = robot.x - px, robot.y - py
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        # robot is on the target footprint; face its center
        cx, cy, _ = target.bbox.center
        gx, gy, yaw = robot.x, robot.y, math.atan2(cy - robot.y, cx - robot.x)
    else:
        ux, uy = dx / dist, dy / dist
        gx, gy, yaw = px + standoff * ux, py + standoff * uy, math.atan2(-uy, -ux)
    for obs in obstacles:
        if obs.id != target.id and obs.bbox.contains((gx, gy, obs.bbox.center[2])):
            raise NavigationError(
                f"standoff point blocked by object {obs.id} ({obs.label})")
    return gx, gy, yaw


def _drive(robot: RobotState, goal, speed: float) -> RobotState:
    gx, gy, yaw = goal
    dist = math.hypot(gx - robot.base.x, gy - robot.base.y)
    if dist < 1e-9 and abs(math.remainder(yaw - robot.base.yaw, math.tau)) < 1e-9:
        return robot
    robot.base = Pose(gx, gy, robot.base.z, yaw)
    robot.time += dist / speed
    return robot


def navigate(robot: RobotState, target: WorldObject,
             standoff: float = ExecParams.standoff, obstacles=()) -> RobotState:
    """Drive the base to the standoff point, facing the target.

    Already at the goal: pose unchanged, zero additional time. A goal
    inside an obstacle footprint is unreachable.
    """
    return _drive(robot, _standoff_goal(robot.base, target, standoff, obstacles),
                  ExecParams.speed)


def receive_behavior(b: BehaviorRequest, world_provider, robot: RobotState,
                     door: DoorSim) -> ExecStatus:
    """Dispatch one behavior request and run it to a terminal state.

    world_provider() yields a snapshot of the finished world; it is
    called once, at dispatch, and the snapshot is never mutated.
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
        return ExecStatus(trace, reason)

    snap = world_provider()
    if b.action not in ("navigate", "open"):
        return fail(f"unsupported action {b.action!r}")
    target = snap.objects.get(b.target_a)
    if target is None:
        return fail(f"target {b.target_a} not in world")
    try:
        # plan before moving so an unreachable goal fails at dispatch
        goal = _standoff_goal(robot.base, target, ExecParams.standoff, snap.query())
    except NavigationError as e:
        return fail(str(e))

    enter(ExecState.NAVIGATING)
    _drive(robot, goal, ExecParams.speed)

    if b.action == "navigate":
        enter(ExecState.COMPLETE)
        return ExecStatus(trace)

    enter(ExecState.DETECTING)
    children = snap.query(parent=b.target_a)
    if not children:
        return fail(f"no constituent of target {b.target_a} in world")
    handle = children[0]

    enter(ExecState.LOCALIZING)
    # descend onto the believed handle: it must be within the arm's reach
    # and within tolerance of the true handle
    reach = math.hypot(handle.pose.x - robot.base.x,
                       handle.pose.y - robot.base.y)
    if reach > ExecParams.arm_reach:
        return fail(f"handle {reach:.2f} m from base exceeds reach "
                    f"{ExecParams.arm_reach} m")
    error = handle.pose.distance(door.handle_pose or handle.pose)
    if error > ExecParams.localize_tolerance:
        return fail(f"handle estimate off by {error:.2f} m, tolerance "
                    f"{ExecParams.localize_tolerance} m")
    robot.time += ExecParams.descend_time

    enter(ExecState.TURNING)
    # turn to end of travel, which unlatches the door; a jam binds the
    # handle first. An unlatched door needs no turn.
    if door.latched:
        if door.jam_angle is not None and door.jam_angle < ExecParams.handle_limit:
            robot.time += door.jam_angle / ExecParams.turn_rate
            return fail(f"handle jammed at {door.jam_angle:.2f} rad before "
                        f"limit {ExecParams.handle_limit:.2f} rad")
        door.latched = False
        robot.time += ExecParams.handle_limit / ExecParams.turn_rate

    enter(ExecState.PUSHING)
    robot.time += ExecParams.push_time

    enter(ExecState.COMPLETE)
    return ExecStatus(trace)
