"""World model: objects accumulated from detections.

One writer (the perception loop) integrates detections; readers take
snapshots, independent mutable copies. Objects may carry a parent link
one level deep (a handle on a door), never chains. Objects are indexed
by label, so a detection is compared only with the objects of its label.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import NamedTuple

ASSOC_RADIUS = 0.5
PARENT_MARGIN = 0.1
PARENT_FALLBACK_RADIUS = 0.75


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
        """This pose moved by (dx, dy): ``Pose(x + dx, y + dy, z, yaw)``.
        z and yaw were checked and yaw normalized when this pose was
        built, so only the two new components are checked, and the
        record is filled through its slot setters rather than the frozen
        dataclass's ``object.__setattr__``."""
        x, y = self.x + dx, self.y + dy
        if not (isfinite(x) and isfinite(y)):
            raise WorldError("non-finite pose component")
        pose = _new(Pose)
        _set_x(pose, x)
        _set_y(pose, y)
        _set_z(pose, self.z)
        _set_yaw(pose, self.yaw)
        return pose

    def distance(self, other: "Pose") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "yaw": self.yaw}

    @classmethod
    def from_json(cls, d) -> "Pose":
        d = json_object(d, "pose")
        values = (d["x"], d["y"], d.get("z", 0.0), d.get("yaw", 0.0))
        return cls(*(json_number(v, "pose component") for v in values))


# the slot descriptors' setters, which bypass the frozen __setattr__ of
# records built by Pose.moved and Aabb.translated
_new = object.__new__
_set_x, _set_y = Pose.x.__set__, Pose.y.__set__
_set_z, _set_yaw = Pose.z.__set__, Pose.yaw.__set__


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
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def contains(self, point, margin: float = 0.0) -> bool:
        return all(a - margin <= p <= b + margin
                   for p, a, b in zip(point, self.lo, self.hi))

    def translated(self, dx: float, dy: float) -> "Aabb":
        """This box moved by (dx, dy) in the plane, under the constructor's
        checks. The corners are already floats, so float deltas give float
        sums and the constructor's conversion is skipped; the record is
        filled through its slot setters, as in ``Pose.moved``."""
        lo, hi = self.lo, self.hi
        lo = (lo[0] + dx, lo[1] + dy, lo[2])
        hi = (hi[0] + dx, hi[1] + dy, hi[2])
        _check_box(lo, hi, self.degenerate)
        box = _new(Aabb)
        _set_lo(box, lo)
        _set_hi(box, hi)
        _set_degenerate(box, self.degenerate)
        return box

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


_set_lo, _set_hi = Aabb.lo.__set__, Aabb.hi.__set__
_set_degenerate = Aabb.degenerate.__set__


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


class Detection(NamedTuple):
    """One detector hit. A NamedTuple rather than a frozen dataclass
    because the sensing loop builds one per hit and it builds about three
    times faster; unlike a dataclass it compares equal to a plain tuple of
    its fields."""

    label: str
    pose: Pose
    bbox: Aabb
    timestamp: float


class WorldModel:
    """Mutable object store keyed by id and indexed by label; the
    constructor and integrate() are its only writers, and snapshot()
    hands out copies for readers."""

    def __init__(self, objects=None):
        self.objects: dict[int, WorldObject] = {}
        self._by_label: dict[str, dict[int, WorldObject]] = {}
        self._next_id = 1
        for obj in objects or []:
            if obj.id in self.objects:
                raise WorldError(f"duplicate object id {obj.id}")
            self.objects[obj.id] = obj
            self._by_label.setdefault(obj.label, {})[obj.id] = obj
            self._next_id = max(self._next_id, obj.id + 1)
        self._check_single_layer()

    def _check_single_layer(self) -> None:
        for obj in self.objects.values():
            if obj.parent is None:
                continue
            parent = self.objects.get(obj.parent)
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
        # Pose and Aabb are frozen, so a shallow copy per object isolates it
        return WorldModel([copy.copy(o) for o in self.objects.values()])

    def _associate(self, d: Detection) -> WorldObject | None:
        best = None
        best_key = None
        x, y, r = d.pose.x, d.pose.y, ASSOC_RADIUS
        for obj in self._by_label.get(d.label, {}).values():
            # exact prefilter: the 3-D distance is never below |dx| or |dy|
            if not (-r <= obj.pose.x - x <= r and -r <= obj.pose.y - y <= r):
                continue
            dist = obj.pose.distance(d.pose)
            if dist > r:
                continue
            key = (dist, obj.id)
            if best_key is None or key < best_key:
                best, best_key = obj, key
        return best

    def _find_parent(self, d: Detection, parent_label: str) -> int | None:
        candidates = [o for o in self._by_label.get(parent_label, {}).values()
                      if o.parent is None]
        inside = [o for o in candidates if o.bbox.contains(
            d.bbox.center, margin=PARENT_MARGIN)]
        pool = inside or [o for o in candidates
                          if o.pose.distance(d.pose) <= PARENT_FALLBACK_RADIUS]
        if not pool:
            return None
        return min(pool, key=lambda o: (o.pose.distance(d.pose), o.id)).id

    def integrate(self, d: Detection, links=()) -> "WorldModel":
        """Fold one detection in: update the nearest same-label object
        within ASSOC_RADIUS, else create a new one; attach a parent when
        the label is a child label in links."""
        obj = self._associate(d)
        if obj is None:
            obj = WorldObject(self._next_id, d.label, d.pose, d.bbox,
                              first_seen=d.timestamp, last_seen=d.timestamp)
            self._next_id += 1
            self.objects[obj.id] = obj
            self._by_label.setdefault(obj.label, {})[obj.id] = obj
        else:
            obj.pose = d.pose
            obj.bbox = d.bbox
            obj.last_seen = d.timestamp
        if links and obj.parent is None:
            for parent_label in sorted(p for p, c in links if c == d.label):
                found = self._find_parent(d, parent_label)
                if found is not None and found != obj.id:
                    obj.parent = found
                    # the only mutation that can chain: obj may have children
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
