"""Grounding symbols: what an instruction can refer to.

Perception symbols name object detectors: a semantic label, or a
parent/subtype pair for a constituent detector. Behavior symbols name a
robot action over a world label; the behavior graph builds one per
action and label in the world, and grounding picks the label's first
object. A SymbolSpace holds the labels, hierarchy pairs and actions, and
the perception bank in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .world import read_json

ACTIONS = ("navigate", "open", "turn", "look")


class SymbolError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class IndependentDetectorSymbol:
    """The detector of one semantic label."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise SymbolError("empty symbol value")


@dataclass(frozen=True, order=True)
class HierarchicalDetectorSymbol:
    """A subtype detector nested one level under a parent type.

    Exactly one level by construction: parent and subtype are plain
    labels, never symbols.
    """

    parent_type: str
    subtype: str

    def __post_init__(self):
        if not self.parent_type or not self.subtype:
            raise SymbolError("empty hierarchy label")
        if self.parent_type == self.subtype:
            raise SymbolError("hierarchy parent equals subtype")


@dataclass(frozen=True)
class BehaviorSymbol:
    """An action over the world objects of one label."""

    action: str
    label: str

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise SymbolError(f"unknown action {self.action!r}")


def subtype_detector_id(parent: str, subtype: str) -> str:
    """Composite id/label for a constituent detector, e.g. door_handle."""
    return f"{parent}_{subtype}"


@dataclass(frozen=True)
class DetectorSet:
    """Detector ids plus the parent/subtype links among them."""

    ids: frozenset[str]
    links: frozenset[tuple[str, str]] = frozenset()

    def without(self, ids: frozenset[str]) -> "DetectorSet":
        """This set less the detectors ``ids`` and every link whose
        subtype detector is one of them."""
        return DetectorSet(self.ids - ids, frozenset(
            (p, s) for p, s in self.links if subtype_detector_id(p, s) not in ids))


class SymbolSpace:
    """The labels, hierarchy pairs and actions an instruction can use.

    The perception bank holds the semantic-label symbols in sorted label
    order, then the hierarchical symbols in sorted pair order.
    """

    def __init__(self, labels, hierarchies, actions):
        labels = tuple(sorted(set(labels)))
        if not labels:
            raise SymbolError("symbol space needs at least one label")
        pairs = tuple(sorted(set(tuple(p) for p in hierarchies)))
        actions = tuple(sorted(set(actions)))
        for a in actions:
            if a not in ACTIONS:
                raise SymbolError(f"unknown action {a!r}")
        for parent, subtype in pairs:
            if parent not in labels or subtype not in labels:
                raise SymbolError(f"hierarchy ({parent}, {subtype}) uses unknown label")
        self.labels = labels
        self.actions = actions
        self.hierarchy_pairs = pairs
        self.perception: tuple = tuple(
            [IndependentDetectorSymbol(x) for x in labels]
            + [HierarchicalDetectorSymbol(p, s) for p, s in pairs]
        )

    def semantic(self, label: str) -> IndependentDetectorSymbol:
        if label not in self.labels:
            raise SymbolError(f"unknown label {label!r}")
        return IndependentDetectorSymbol(label)

    def hierarchy(self, parent: str, subtype: str) -> HierarchicalDetectorSymbol:
        if (parent, subtype) not in self.hierarchy_pairs:
            raise SymbolError(f"unknown hierarchy ({parent!r}, {subtype!r})")
        return HierarchicalDetectorSymbol(parent, subtype)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def load_symbol_space(path: str | Path) -> SymbolSpace:
    raw = read_json(path, "symbol space")
    labels, actions = raw["labels"], raw.get("actions", [])
    hierarchies = raw.get("hierarchies", [])
    for key, value in (("labels", labels), ("actions", actions)):
        if not _strings(value):
            raise SymbolError(f"symbol space {key} must be a list of strings")
    if not (isinstance(hierarchies, list)
            and all(_strings(p) and len(p) == 2 for p in hierarchies)):
        raise SymbolError("symbol space hierarchies must be a list of "
                          "[parent, subtype] string pairs")
    return SymbolSpace(labels, hierarchies, actions)


def detectors_from_groundings(expressed) -> DetectorSet:
    """Map expressed perception symbols to the minimal detector set.

    A semantic label becomes the detector of that label; a hierarchical
    symbol becomes its parent detector plus the composite subtype
    detector, linked parent -> subtype. Monotone and idempotent in the
    input set; a hierarchical symbol always brings its parent detector.
    """
    ids: set[str] = set()
    links: set[tuple[str, str]] = set()
    for sym in expressed:
        if isinstance(sym, IndependentDetectorSymbol):
            ids.add(sym.value)
        elif isinstance(sym, HierarchicalDetectorSymbol):
            ids.add(sym.parent_type)
            ids.add(subtype_detector_id(sym.parent_type, sym.subtype))
            links.add((sym.parent_type, sym.subtype))
        else:
            raise SymbolError(f"not a perception symbol: {sym!r}")
    return DetectorSet(frozenset(ids), frozenset(links))
