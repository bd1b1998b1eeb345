from __future__ import annotations

import random

import pytest

from minworld.symbols import (
    ACTIONS,
    BehaviorSymbol,
    HierarchicalDetectorSymbol,
    IndependentDetectorSymbol,
    SymbolError,
    SymbolSpace,
    detectors_from_groundings,
    subtype_detector_id,
)


def test_bundled_space_counts(space):
    # 5 labels + 2 hierarchy pairs on the perception side
    assert len(space.perception) == 7
    sem = [s for s in space.perception if isinstance(s, IndependentDetectorSymbol)]
    hier = [s for s in space.perception if isinstance(s, HierarchicalDetectorSymbol)]
    assert len(sem) == 5
    assert len(hier) == 2
    assert len(space.actions) == 4


def test_ids_dense_and_stable(space):
    # labels sorted, then pairs sorted
    sem_values = [s.value for s in space.perception[:5]]
    assert sem_values == sorted(sem_values)
    pairs = [(s.parent_type, s.subtype) for s in space.perception[5:]]
    assert pairs == sorted(pairs)


def test_small_space_counts():
    space = SymbolSpace(
        ["a", "b", "c", "d", "e"], [("a", "b")], ["navigate", "open"],
    )
    assert len(space.perception) == 6
    assert space.actions == ("navigate", "open")


def test_hierarchy_lookup(space):
    sym = space.hierarchy("door", "handle")
    assert isinstance(sym, HierarchicalDetectorSymbol)
    assert (sym.parent_type, sym.subtype) == ("door", "handle")
    with pytest.raises(SymbolError):
        space.hierarchy("door", "top")


def test_semantic_lookup(space):
    sym = space.semantic("door")
    assert isinstance(sym, IndependentDetectorSymbol)
    assert sym.value == "door"
    with pytest.raises(SymbolError):
        space.semantic("window")


def test_hierarchy_requires_known_labels():
    with pytest.raises(SymbolError):
        SymbolSpace(["a"], [("a", "b")], ["navigate"])


def test_hierarchy_rejects_self_pair():
    with pytest.raises(SymbolError):
        HierarchicalDetectorSymbol("door", "door")


def test_independent_symbol_validation():
    assert IndependentDetectorSymbol("door").value == "door"
    with pytest.raises(SymbolError, match="empty symbol value"):
        IndependentDetectorSymbol("")


def test_behavior_symbol_shapes():
    one = BehaviorSymbol("navigate", "door")
    assert (one.action, one.label) == ("navigate", "door")
    with pytest.raises(AttributeError):
        one.action = "look"
    with pytest.raises(SymbolError):
        BehaviorSymbol("fly", "door")


def test_subtype_detector_id():
    assert subtype_detector_id("door", "handle") == "door_handle"
    assert subtype_detector_id("box", "top") == "box_top"


def test_detectors_from_semantic_only(space):
    ds = detectors_from_groundings([space.semantic("door")])
    assert ds.ids == frozenset({"door"})
    assert ds.links == frozenset()


def test_detectors_from_hierarchy(space):
    ds = detectors_from_groundings(
        [space.semantic("door"), space.hierarchy("door", "handle")],
    )
    assert ds.ids == frozenset({"door", "door_handle"})
    assert ds.links == frozenset({("door", "handle")})


def test_hierarchy_alone_pulls_parent(space):
    ds = detectors_from_groundings([space.hierarchy("door", "handle")])
    assert ds.ids == frozenset({"door", "door_handle"})


def test_behavior_symbol_rejected_by_detector_mapping():
    with pytest.raises(SymbolError):
        detectors_from_groundings([BehaviorSymbol("open", 1)])


def test_detectors_monotone_and_idempotent(space):
    # adding groundings can only grow the detector set; mapping twice is stable
    rng = random.Random(20240817)
    pool = list(space.perception)
    for _ in range(50):
        chosen = rng.sample(pool, rng.randrange(1, len(pool) + 1))
        ds = detectors_from_groundings(chosen)
        assert ds == detectors_from_groundings(chosen)
        extra = rng.choice(pool)
        bigger = detectors_from_groundings(chosen + [extra])
        assert ds.ids <= bigger.ids
        assert ds.links <= bigger.links


def test_space_orders_input(space):
    shuffled = SymbolSpace(
        ["top", "handle", "floor", "drawer", "door", "box"],
        [("door", "handle"), ("box", "top")],
        list(ACTIONS),
    )
    assert shuffled.labels == tuple(sorted(shuffled.labels))
    assert shuffled.actions == tuple(sorted(ACTIONS))
