"""World model: objects accumulated from detections.

One writer (the perception loop) integrates detections; readers take
snapshots, independent mutable copies. Objects may carry a parent link
one level deep (a handle on a door), never chains. Objects are indexed
by label, so a detection is compared only with the objects of its
label. The hold rule (``HoldRule``) says which detections of a standing
robot's sensing loop cannot change the world but by their last one.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from math import isfinite
from pathlib import Path

import numpy as np

ASSOC_RADIUS = 0.5
PARENT_MARGIN = 0.1
PARENT_FALLBACK_RADIUS = 0.75
# the hold rule's margin, relative to the magnitude of a label's
# coordinates: far above the few roundings between a truth pose and a
# distance that integrate computes
HOLD_MARGIN = 2.0 ** -32


class WorldError(ValueError):
    pass


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else WorldError naming ``what``."""
    if not isinstance(value, dict):
        raise WorldError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path``, else WorldError naming
    ``what``. A document nested too deep for the decoder is a WorldError
    with the decoder's message."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError as e:
        raise WorldError(str(e)) from None
    return json_object(value, what)


def is_int(value) -> bool:
    """Whether ``value`` is an int (bools are not numbers)."""
    return isinstance(value, int) and not isinstance(value, bool)


def finite_number(value) -> bool:
    """Whether ``value`` is an int or float within the float range (bools
    are not numbers)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def json_number(value, what: str):
    """``value`` if it is a finite JSON number, else WorldError."""
    if not finite_number(value):
        raise WorldError(f"{what} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class Pose:
    x: float
    y: float
    z: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        if not (isfinite(self.x) and isfinite(self.y) and isfinite(self.z)
                and isfinite(self.yaw)):
            raise WorldError("non-finite pose component")
        # normalize yaw into [-pi, pi); remainder leaves a float yaw in
        # [-pi, pi] unchanged, so one already in range is kept as is
        yaw = self.yaw
        if not (type(yaw) is float and -math.pi <= yaw < math.pi):
            yaw = math.remainder(yaw, math.tau)
            if yaw >= math.pi:
                yaw -= math.tau
            object.__setattr__(self, "yaw", yaw)

    def moved(self, dx: float, dy: float) -> "Pose":
        """This pose moved by (dx, dy): ``Pose(x + dx, y + dy, z, yaw)``,
        where a detected object is seen under noise (dx, dy).
        ``WorldModel.integrate`` runs this check on every detection and
        builds the pose once per object, when the world is read."""
        return Pose(self.x + dx, self.y + dy, self.z, self.yaw)

    def distance(self, other: "Pose") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "yaw": self.yaw}

    @classmethod
    def from_json(cls, d) -> "Pose":
        d = json_object(d, "pose")
        values = (d["x"], d["y"], d.get("z", 0.0), d.get("yaw", 0.0))
        return cls(*(json_number(v, "pose component") for v in values))


def _check_box(lo, hi, degenerate: bool) -> None:
    if lo[0] > hi[0] or lo[1] > hi[1] or lo[2] > hi[2]:
        raise WorldError(f"box min {lo} exceeds max {hi}")
    if not degenerate and (lo[0] == hi[0] or lo[1] == hi[1] or lo[2] == hi[2]):
        raise WorldError("zero-volume box not flagged degenerate")


@dataclass(frozen=True, slots=True)
class Aabb:
    """Axis-aligned box; lo <= hi componentwise, positive volume unless
    explicitly flagged degenerate."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    degenerate: bool = False

    def __post_init__(self):
        lo = (float(self.lo[0]), float(self.lo[1]), float(self.lo[2]))
        hi = (float(self.hi[0]), float(self.hi[1]), float(self.hi[2]))
        _check_box(lo, hi, self.degenerate)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def center(self) -> tuple[float, float, float]:
        lo, hi = self.lo, self.hi
        return ((lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0,
                (lo[2] + hi[2]) / 2.0)

    def contains(self, point, margin: float = 0.0) -> bool:
        (x, y, z), lo, hi = point, self.lo, self.hi
        return (lo[0] - margin <= x <= hi[0] + margin
                and lo[1] - margin <= y <= hi[1] + margin
                and lo[2] - margin <= z <= hi[2] + margin)

    def translated(self, dx: float, dy: float) -> "Aabb":
        """This box moved by (dx, dy) in the plane, under the constructor's
        checks; as with ``Pose.moved``, ``WorldModel.integrate`` checks
        every detection's box and builds it once per object."""
        lo, hi = self.lo, self.hi
        return Aabb((lo[0] + dx, lo[1] + dy, lo[2]),
                    (hi[0] + dx, hi[1] + dy, hi[2]), self.degenerate)

    def to_json(self) -> dict:
        return {"min": list(self.lo), "max": list(self.hi)}

    @classmethod
    def from_json(cls, d) -> "Aabb":
        d = json_object(d, "bbox")
        lo, hi = d["min"], d["max"]
        for corner in (lo, hi):
            if not isinstance(corner, list) or len(corner) != 3:
                raise WorldError(f"bbox corner must be a list of 3 numbers, got {corner!r}")
            for v in corner:
                json_number(v, "bbox corner component")
        lo, hi = tuple(lo), tuple(hi)
        degenerate = any(a == b for a, b in zip(lo, hi))
        return cls(lo, hi, degenerate)


@dataclass
class WorldObject:
    id: int
    label: str
    pose: Pose
    bbox: Aabb
    parent: int | None = None
    first_seen: float = 0.0
    last_seen: float = 0.0

    def to_json(self) -> dict:
        d = {
            "id": self.id,
            "label": self.label,
            "pose": self.pose.to_json(),
            "bbox": self.bbox.to_json(),
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }
        if self.parent is not None:
            d["parent"] = self.parent
        return d

    @classmethod
    def from_json(cls, d) -> "WorldObject":
        d = json_object(d, "world object")
        oid, label, parent = d["id"], d["label"], d.get("parent")
        if not is_int(oid):
            raise WorldError(f"object id must be an integer, got {oid!r}")
        if parent is not None and not is_int(parent):
            raise WorldError(f"object parent must be an integer, got {parent!r}")
        if not isinstance(label, str):
            raise WorldError(f"object label must be a string, got {label!r}")
        return cls(
            id=oid,
            label=label,
            pose=Pose.from_json(d["pose"]),
            bbox=Aabb.from_json(d["bbox"]),
            parent=parent,
            first_seen=json_number(d.get("first_seen", 0.0), "first_seen"),
            last_seen=json_number(d.get("last_seen", 0.0), "last_seen"),
        )


def _nearest(x, y):
    """The L-infinity distance from each point ``(x[i], y[i])`` to its
    nearest other one, where that is below 2 * ASSOC_RADIUS; elsewhere a
    larger distance, or inf. Each block of 64 points in x order is
    compared with the points within 4 * ASSOC_RADIUS of it in x (twice
    the distance needed, which absorbs the rounding of the bounds), so
    the work and memory grow with the points near each one, not with all
    pairs."""
    order = np.argsort(x)
    x, y = x[order], y[order]
    gap = np.empty(len(x))
    for a in range(0, len(x), 64):
        b = min(a + 64, len(x))
        lo = np.searchsorted(x, x[a] - 4 * ASSOC_RADIUS, "left")
        hi = np.searchsorted(x, x[b - 1] + 4 * ASSOC_RADIUS, "right")
        d = np.maximum(np.abs(x[a:b, None] - x[lo:hi]),
                       np.abs(y[a:b, None] - y[lo:hi]))
        d[np.arange(b - a), np.arange(a - lo, b - lo)] = np.inf  # itself
        gap[a:b] = d.min(axis=1)
    out = np.empty_like(gap)
    out[order] = gap
    return out


class HoldRule:
    """Which truth objects of one label a sensing loop that stands still
    need not integrate again: *held* ones, whose every detection provably
    associates with the object its first one made, and which no other
    detection can reach. Then only a held object's last detection
    reaches the world, and the loop may skip the rest.

    With ``m`` the largest noise component (|dx| or |dy|) of the label
    seen so far and ``eps`` HOLD_MARGIN times one plus the largest
    planar coordinate of the label's truth poses and boxes, object ``i``
    is held while all of these hold:
    - ``2√2·m + eps < ASSOC_RADIUS``: two detections of it lie within
      the radius of each other (their z are equal);
    - every other truth object of the label is farther than
      ``ASSOC_RADIUS + 2m + eps`` from it in L-infinity, so no detection
      of one comes within the radius of a detection of the other;
    - every spurious detection of the label so far is farther than
      ``ASSOC_RADIUS + m + eps`` from it in L-infinity;
    - its box is wider than ``eps`` in x and y, so every detection of it
      passes integrate's box check (noise leaves z alone, and a box flat
      in z is flagged degenerate); ``eps`` below the radius keeps every
      detection of it finite.

    The rule is for a label that one detector emits, every frame, from
    a robot that stands still, and that no link names (the parent
    search reads a parent label's objects and runs on a child label's
    detections). ``m`` only grows and spurious detections only
    accumulate, so an object that stops being held is never held again.
    The arrays are float64, so int coordinates of any size in the float
    range convert."""

    def __init__(self, truth):
        v = np.array([(o.pose.x, o.pose.y, *o.bbox.lo[:2], *o.bbox.hi[:2])
                      for o in truth], dtype=np.float64)
        self.xy = v[:, :2]
        self.eps = eps = HOLD_MARGIN * (1.0 + np.abs(v).max())
        self.boxed = (v[:, 4] - v[:, 2] > eps) & (v[:, 5] - v[:, 3] > eps)
        self.gap = _nearest(v[:, 0], v[:, 1])
        self.spurious_gap = np.full(len(v), np.inf)
        self.m = 0.0

    def see_noise(self, noise) -> bool:
        """Take in the ``(dx, dy)`` rows of one frame's detections of the
        label; whether ``m`` grew (a NaN counts as growth)."""
        m = float(np.abs(noise).max())
        if m <= self.m:
            return False
        self.m = m
        return True

    def see_spurious(self, x: float, y: float) -> None:
        """Take in a spurious detection of the label at ``(x, y)``."""
        np.minimum(self.spurious_gap, np.abs(self.xy - (x, y)).max(axis=1),
                   out=self.spurious_gap)

    def held(self):
        """The held objects, as a bool per truth object."""
        m, eps, r = self.m, self.eps, ASSOC_RADIUS
        if not 2.0 * math.sqrt(2.0) * m + eps < r:
            return np.zeros(len(self.xy), dtype=bool)
        return (self.boxed & (self.gap > r + 2.0 * m + eps)
                & (self.spurious_gap > r + m + eps))


class WorldModel:
    """Mutable object store keyed by id; the constructor and integrate()
    are its only writers, and snapshot() hands out copies for readers.

    Association reads one ``[x, y, z, id]`` row of plain numbers per
    object, kept per label. An object's pose and box are built from its
    last detection only when the world is read through ``objects``, so a
    detection that a later one overwrites never builds them. A detection
    scans every row of its label, so its cost grows with the label's
    objects; ``HoldRule`` keeps most of a standing robot's detections
    out of ``integrate``."""

    def __init__(self, objects=None):
        self._objects: dict[int, WorldObject] = {}
        self._rows: dict[str, list[list]] = {}
        # id -> (pose, box, dx, dy, time) of the last detection of an
        # object whose pose and box are not built yet
        self._pending: dict[int, tuple] = {}
        self._next_id = 1
        for obj in objects or []:
            if obj.id in self._objects:
                raise WorldError(f"duplicate object id {obj.id}")
            self._objects[obj.id] = obj
            pose = obj.pose
            self._rows.setdefault(obj.label, []).append(
                [pose.x, pose.y, pose.z, obj.id])
            self._next_id = max(self._next_id, obj.id + 1)
        self._check_single_layer()

    @property
    def objects(self) -> dict[int, WorldObject]:
        """The objects by id, each with the pose and box of its last
        detection."""
        if self._pending:
            for oid, (pose, box, dx, dy, time) in self._pending.items():
                obj = self._objects[oid]
                obj.pose = pose.moved(dx, dy)
                obj.bbox = box.translated(dx, dy)
                obj.last_seen = time
            self._pending.clear()
        return self._objects

    def _check_single_layer(self) -> None:
        for obj in self._objects.values():
            if obj.parent is None:
                continue
            parent = self._objects.get(obj.parent)
            if parent is None:
                raise WorldError(f"object {obj.id} parent {obj.parent} missing")
            if parent.parent is not None:
                raise WorldError(f"parent chain deeper than one at {obj.id}")

    def query(self, label: str | None = None, parent: int | None = None) -> list[WorldObject]:
        out = []
        for obj in sorted(self.objects.values(), key=lambda o: o.id):
            if label is not None and obj.label != label:
                continue
            if parent is not None and obj.parent != parent:
                continue
            out.append(obj)
        return out

    def snapshot(self) -> "WorldModel":
        # Pose and Aabb are frozen, so a new record per object isolates it
        return WorldModel([WorldObject(o.id, o.label, o.pose, o.bbox, o.parent,
                                       o.first_seen, o.last_seen)
                           for o in self.objects.values()])

    def _find_parent(self, child: WorldObject, parent_label: str) -> int | None:
        objects = self.objects
        candidates = [o for o in (objects[row[3]] for row in
                                  self._rows.get(parent_label, ()))
                      if o.parent is None]
        inside = [o for o in candidates if o.bbox.contains(
            child.bbox.center, margin=PARENT_MARGIN)]
        pool = inside or [o for o in candidates
                          if o.pose.distance(child.pose) <= PARENT_FALLBACK_RADIUS]
        if not pool:
            return None
        return min(pool, key=lambda o: (o.pose.distance(child.pose), o.id)).id

    def integrate(self, objs, links, noise, time: float) -> "WorldModel":
        """Fold in one detector's hits of one frame (at least one, all of
        one label), in order. Each scans its label's rows and updates the
        nearest object within ASSOC_RADIUS (3-D distance, lower id on
        ties), else creates a new one; then it attaches a parent when the
        label is a child label in links.

        Hit ``i`` is ``objs[i]`` seen at ``time`` under the ``i``-th
        ``(dx, dy)`` of the iterable ``noise``: its pose moved by
        ``Pose.moved(dx, dy)`` and its box by ``Aabb.translated(dx, dy)``,
        with their checks run here and their records built when the world
        is read. Only the label, pose and box of ``objs[i]`` are read, and
        the label of ``objs[0]`` stands for all, so a spurious hit is a
        truth-less object seen with zero noise, in a batch of one.

        A caller may leave out detections that ``HoldRule`` holds: each
        would only move its own object, so handing in its last one, when
        it stops being held, builds the same world."""
        label = objs[0].label
        rows = self._rows.setdefault(label, [])
        objects, pending = self._objects, self._pending
        r, nr = ASSOC_RADIUS, -ASSOC_RADIUS
        for obj, (dx, dy) in zip(objs, noise):
            pose, box = obj.pose, obj.bbox
            x, y = pose.x + dx, pose.y + dy
            if not (isfinite(x) and isfinite(y)):
                raise WorldError("non-finite pose component")
            lo, hi = box.lo, box.hi
            # a box that keeps a positive extent on every axis passes
            if not (lo[0] + dx < hi[0] + dx and lo[1] + dy < hi[1] + dy
                    and lo[2] < hi[2]):
                _check_box((lo[0] + dx, lo[1] + dy, lo[2]),
                           (hi[0] + dx, hi[1] + dy, hi[2]), box.degenerate)
            z = pose.z
            best = None
            for row in rows:
                # exact prefilter: the 3-D distance is never below |dx|
                # or |dy|
                if nr <= row[0] - x <= r and nr <= row[1] - y <= r:
                    dist = math.dist((row[0], row[1], row[2]), (x, y, z))
                    if dist <= r and (best is None or dist < best_dist
                                      or dist == best_dist
                                      and row[3] < best[3]):
                        best, best_dist = row, dist
            if best is None:
                oid = self._next_id
                self._next_id += 1
                # pose, box and last_seen are filled in when the world is read
                objects[oid] = WorldObject(oid, label, None, None,
                                           first_seen=time)
                rows.append([x, y, z, oid])
            else:
                best[0], best[1], best[2] = x, y, z
                oid = best[3]
            pending[oid] = (pose, box, dx, dy, time)
            if links and objects[oid].parent is None:
                for parent_label in sorted(p for p, c in links if c == label):
                    child = self.objects[oid]
                    found = self._find_parent(child, parent_label)
                    if found is not None and found != oid:
                        child.parent = found
                        # the only mutation that can chain: child may have
                        # children
                        self._check_single_layer()
                        break
        return self

    def to_json(self) -> dict:
        return {"objects": [o.to_json() for o in self.query()]}

    @classmethod
    def from_json(cls, data) -> "WorldModel":
        objects = json_object(data, "world").get("objects", [])
        if not isinstance(objects, list):
            raise WorldError("world objects must be a list")
        return cls([WorldObject.from_json(d) for d in objects])

    @classmethod
    def load(cls, path: str | Path) -> "WorldModel":
        return cls.from_json(read_json(path, "world"))
