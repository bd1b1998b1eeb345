from __future__ import annotations

import collections
import dataclasses
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from minworld import cli, dcg
from minworld.executive import BehaviorRequest
from minworld.parse import load_parse_tree
from minworld.symbols import BehaviorSymbol, SymbolSpace
from minworld.world import Aabb, Pose, WorldModel, WorldObject

from helpers_oracle import factor_features, hash_model

OPEN = "(VP (VB open) (NP (DT the) (NN door)))"


def _door_np():
    return load_parse_tree(OPEN).phrases[0]


def _det(label, x, y, z=0.0, t=0.0):
    """A detected object, seen at time ``t`` (kept as its last_seen)."""
    box = Aabb((x - 0.5, y - 0.5, z - 0.5), (x + 0.5, y + 0.5, z + 0.5))
    return WorldObject(0, label, Pose(x, y, z), box, last_seen=t)


def _see(world, det, links=()):
    """Integrate ``det`` with zero noise at its time."""
    return world.integrate([det], links, [(0.0, 0.0)], det.last_seen)


# -- feature templates -------------------------------------------------------

def test_phrase_atoms_np():
    atoms = dcg.phrase_atoms(_door_np())
    assert atoms == ["phrase:NP", "word:the", "word:door", "tag:DT", "tag:NN"]


def test_phrase_atoms_verb():
    vp = load_parse_tree(OPEN).root
    atoms = dcg.phrase_atoms(vp)
    assert "verb:open" in atoms
    assert "word:open" in atoms


def test_two_way_feature_names(space):
    names = factor_features(_door_np(), space.semantic("door"))
    assert "word:door&label:door" in names
    assert "tag:NN&category:semantic_label" in names


def test_three_way_feature_name_with_child(space):
    vp = load_parse_tree(OPEN).root
    names = factor_features(
        vp, space.hierarchy("door", "handle"),
        child_symbols={space.semantic("door")},
    )
    assert "verb:open&hier_subtype:handle&child_has:door" in names


def test_no_child_marker(space):
    names = factor_features(_door_np(), space.semantic("door"))
    assert any(n.endswith("&child_none") for n in names)


def test_behavior_atoms_name_the_label():
    # trained behavior model files key their weights by these strings
    sym = BehaviorSymbol("open", "door")
    assert dcg.symbol_atoms(sym) == ["kind:behavior", "action:open",
                                     "target_label:door"]
    assert dcg.child_atoms({sym}) == ["child_has_behavior:open.door",
                                      "child_has_target:door"]


def test_child_atoms_sorted_and_deduped(space):
    atoms = dcg.child_atoms(
        {space.semantic("door"), space.semantic("box"),
         space.hierarchy("door", "handle")},
    )
    assert atoms == sorted(atoms)
    assert "child_has:box" in atoms
    assert "child_has:door" in atoms
    assert "child_has_hier:door.handle" in atoms
    assert dcg.child_atoms(set()) == ["child_none"]


def test_atoms_with_the_name_separator_are_rejected(space):
    phrase = load_parse_tree("(NP (DT the) (NN a&b))").root
    with pytest.raises(dcg.GroundingError):
        factor_features(phrase, space.semantic("door"))
    graph = dcg.build_perception_graph(load_parse_tree("(NP (NN a&b))"), space)
    with pytest.raises(dcg.GroundingError):
        dcg.infer(graph, dcg.Model("perception", {}))


# -- graphs and inference ----------------------------------------------------

def test_factor_count(space):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    assert graph.factor_count == tree.n_phrases * len(space.perception) == 14


def test_behavior_bank_covers_actions_by_objects(space):
    world = WorldModel()
    _see(world, _det("door", 5, 0, 1))
    _see(world, _det("box", 2, 2, 0, t=1.0))
    graph = dcg.build_behavior_graph(load_parse_tree(OPEN), space, world)
    assert len(graph.bank) == len(space.actions) * 2
    assert all(isinstance(sym, BehaviorSymbol) for sym in graph.bank)


def test_zero_model_expresses_nothing(space):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    model = dcg.Model("perception", {n: 0.0 for phrase in tree.phrases
                                     for sym in graph.bank
                                     for n in factor_features(phrase, sym)})
    got = dcg.infer(graph, model)
    assert all(not ids for ids in got.expressed.values())


def test_trained_inference_matches_gold(space, perception_model):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    got = dcg.infer(graph, perception_model)
    assert got.all_symbols(graph) == {
        space.semantic("door"), space.hierarchy("door", "handle"),
    }


def test_assignment_views(space, perception_model):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    got = dcg.infer(graph, perception_model)
    want = {graph.bank[j] for ids in got.expressed.values() for j in ids}
    assert got.all_symbols(graph) == want


def test_infer_with_non_finite_weights_raises(space, perception_model):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    bad = dcg.Model("perception", dict.fromkeys(perception_model.weights, math.nan))
    with pytest.raises(dcg.NumericError):
        dcg.infer(graph, bad)


def test_model_roundtrip_preserves_inference(tmp_path, space, perception_model):
    path = tmp_path / "m.json"
    perception_model.save(path)
    loaded = dcg.Model.load(path)
    assert loaded.kind == "perception"
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    a = dcg.infer(graph, perception_model)
    b = dcg.infer(graph, loaded)
    assert a.expressed == b.expressed


def test_model_load_rejects_other_template_versions(tmp_path, perception_model):
    path = tmp_path / "m.json"
    perception_model.save(path)
    data = json.loads(path.read_text())
    data["template_version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(dcg.CorpusError):
        dcg.Model.load(path)


def test_model_load_rejects_non_finite_weights(tmp_path, perception_model):
    path = tmp_path / "m.json"
    perception_model.save(path)
    data = json.loads(path.read_text())
    data["weights"] = {n: math.nan for n in data["weights"]}
    path.write_text(json.dumps(data))
    with pytest.raises(dcg.CorpusError):
        dcg.Model.load(path)


def test_model_rejects_malformed_names():
    for name in ("word:door", "a&b&c&d"):
        with pytest.raises(dcg.CorpusError):
            dcg.Model("perception", {name: 0.0})


def test_model_weights_are_read_only():
    weights = {"word:door&label:door": 1.0}
    model = dcg.Model("perception", weights)
    with pytest.raises(TypeError):
        model.weights["word:door&label:door"] = 2.0
    # the model keeps its own copy, so its fold cannot go stale
    weights["word:door&label:door"] = 2.0
    assert model.weights == {"word:door&label:door": 1.0}
    assert model.folded == {"label:door": {"word:door": {None: 1.0}}}


def _count_folds(monkeypatch) -> list:
    calls = []
    fold = dcg._fold

    def counting(weights):
        calls.append(1)
        return fold(weights)

    monkeypatch.setattr(dcg, "_fold", counting)
    return calls


def test_a_model_folds_on_first_inference(monkeypatch, tmp_path, space,
                                          perception_model):
    calls = _count_folds(monkeypatch)
    built = dcg.Model("perception", perception_model.weights)
    path = tmp_path / "m.json"
    built.save(path)
    loaded = dcg.Model.load(path)
    assert calls == []
    graph = dcg.build_perception_graph(load_parse_tree(OPEN), space)
    for model in (built, loaded):
        calls.clear()
        first = dcg.infer(graph, model)
        assert len(calls) == 1
        assert dcg.infer(graph, model) == first
        assert len(calls) == 1


def test_training_and_recovery_never_fold(monkeypatch, perception_corpus):
    calls = _count_folds(monkeypatch)
    result = dcg.train(perception_corpus, dcg.TrainConfig(iterations=5))
    dcg.recovery(perception_corpus, result.model)
    assert calls == []


# -- folded inference against per-factor featurization -------------------------

def _reference_infer(graph, model):
    """Inference as a sum over named features: name every factor's
    features and sum their weights."""
    expressed, by_index = {}, {}
    for phrase in graph.tree.phrases:
        ctx: set = set()
        for child in phrase.children:
            ctx |= by_index[child.index]
        chosen = set()
        for j, sym in enumerate(graph.bank):
            margin = sum(model.weights.get(n, 0.0) for n in
                         factor_features(phrase, sym, ctx))
            if margin > 0.0:
                chosen.add(j)
        expressed[phrase.index] = frozenset(chosen)
        by_index[phrase.index] = {graph.bank[j] for j in chosen}
    return expressed


def _bundled_trees(assets):
    return [load_parse_tree(p.read_text().strip())
            for p in sorted((assets / "trees").glob("*.txt"))]


def _padded_space(space, n_symbols, seed=0):
    rng = random.Random(seed)
    labels = set(space.labels)
    extra = []
    while len(space.perception) + len(extra) < n_symbols * 2 // 3:
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))
        if word not in labels:
            labels.add(word)
            extra.append(word)
    pairs = set(space.hierarchy_pairs)
    while len(labels) + len(pairs) < n_symbols:
        pairs.add(tuple(rng.sample(extra, 2)))
    return SymbolSpace(sorted(labels), sorted(pairs), space.actions)


def _random_world(rng, n_objects):
    pool = ["door", "door_handle", "box", "drawer", "ball", "suitcase", "pitcher"]
    objects = []
    for i in range(n_objects):
        x, y = rng.uniform(-4, 4), rng.uniform(-4, 4)
        objects.append(WorldObject(
            i + 1, rng.choice(pool), Pose(x, y, 0.5),
            Aabb((x - 0.3, y - 0.3, 0.0), (x + 0.3, y + 0.3, 1.0))))
    return WorldModel(objects)


def _template_infer(graph, model):
    """Inference with every bank entry scored on its own: each atom score
    a_s summed over the conjunction template in its order, and margins
    summed as ``infer`` sums them. ``_reference_infer`` adds the same
    weights in another order."""
    expressed, by_index = {}, {}
    for phrase in graph.tree.phrases:
        ctx: set = set()
        for child in phrase.children:
            ctx |= by_index[child.index]
        ps = dcg.phrase_atoms(phrase)
        cs = dcg.child_atoms(ctx)
        scores, flat, starts = {}, [], []
        for sym in graph.bank:
            starts.append(len(flat))
            for s in dcg.symbol_atoms(sym):
                if s not in scores:
                    row = model.folded.get(s, {})
                    a = 0.0
                    for name in dcg._stems(ps, [s], cs):
                        p, _, *c = name.split("&")
                        by_c = row.get(p)
                        if by_c is not None:
                            a += by_c.get(c[0] if c else None, 0.0)
                    scores[s] = a
                flat.append(scores[s])
        m = np.add.reduceat(np.array(flat), np.array(starts, dtype=np.intp))
        chosen = np.flatnonzero(m > 0.0).tolist()
        expressed[phrase.index] = frozenset(chosen)
        by_index[phrase.index] = {graph.bank[j] for j in chosen}
    return expressed


def _assert_same(graph, model):
    got = dcg.infer(graph, model)
    assert got.expressed == _template_infer(graph, model)
    assert got.expressed == _reference_infer(graph, model)


def test_folded_inference_bundled_and_padded_banks(assets, space,
                                                   perception_model):
    padded = _padded_space(space, 750)
    assert 740 <= len(padded.perception) <= 760
    for i, tree in enumerate(_bundled_trees(assets)):
        bundled = dcg.build_perception_graph(tree, space)
        hashed = hash_model(bundled, salt=f"tree{i}")
        _assert_same(bundled, perception_model)
        _assert_same(bundled, hashed)
        _assert_same(dcg.build_perception_graph(tree, padded), perception_model)
        if tree.instruction == "open the door":
            # hashed weights on the shared category atoms express hundreds
            # of padded symbols, so the root sees hundreds of child atoms;
            # the reference pays for each by name, hence one tree only
            _assert_same(dcg.build_perception_graph(tree, padded), hashed)


def test_folded_inference_behavior_over_random_worlds(assets, space,
                                                      behavior_model):
    rng = random.Random(7)
    trees = _bundled_trees(assets)
    small = WorldModel([
        WorldObject(1, "door", Pose(5, 0, 1), Aabb((4.9, -0.5, 0), (5.1, 0.5, 2))),
        WorldObject(2, "box", Pose(1, 1, 0.5), Aabb((0.7, 0.7, 0), (1.3, 1.3, 1))),
    ])
    # two actions keep hash_model's exhaustive child contexts small; the
    # other actions still score through their shared atoms
    two_actions = SymbolSpace(space.labels, space.hierarchy_pairs,
                              ("navigate", "open"))
    hashed = [hash_model(dcg.build_behavior_graph(t, two_actions, small),
                         salt=f"b{i}")
              for i, t in enumerate(trees)]
    for n_objects in (1, 3, 6, 12):
        world = _random_world(rng, n_objects)
        for tree, hashed_model in zip(trees, hashed):
            graph = dcg.build_behavior_graph(tree, space, world)
            for model in (behavior_model, hashed_model):
                _assert_same(graph, model)


def _fresh(model):
    return dcg.Model(model.kind, model.weights)


def test_perception_layout_reuse_matches_fresh_models(assets, space,
                                                      perception_model):
    padded = _padded_space(space, 750)
    model = _fresh(perception_model)
    assert model.bank_layout is None
    for tree in _bundled_trees(assets):
        for bank_space in (padded, padded, space, padded):
            graph = dcg.build_perception_graph(tree, bank_space)
            got = dcg.infer(graph, model)
            assert model.bank_layout[0] is bank_space.perception
            want = dcg.infer(graph, _fresh(perception_model))
            assert got.expressed == want.expressed


def test_same_length_bank_of_another_space_is_laid_out_again(space,
                                                             perception_model):
    first, second = _padded_space(space, 750), _padded_space(space, 750, seed=1)
    assert len(first.perception) == len(second.perception)
    assert first.perception != second.perception
    tree = load_parse_tree(OPEN)
    model = _fresh(perception_model)
    dcg.infer(dcg.build_perception_graph(tree, first), model)
    graph = dcg.build_perception_graph(tree, second)
    got = dcg.infer(graph, model)
    assert model.bank_layout[0] is second.perception
    want = dcg.infer(graph, _fresh(perception_model))
    assert got.expressed == want.expressed


def test_behavior_layout_follows_the_bank_across_worlds(assets, space,
                                                        behavior_model):
    # banks of one length whose labels differ: a layout kept by length,
    # or by position, would score the second world with the first's atoms
    worlds = [_labelled_world(["door", "ball", "door_handle"]),
              _labelled_world(["suitcase", "door", "pitcher", "door"])]
    model = _fresh(behavior_model)
    for tree in _bundled_trees(assets):
        graphs = [dcg.build_behavior_graph(tree, space, w) for w in worlds]
        assert len(graphs[0].bank) == len(graphs[1].bank)
        assert graphs[0].bank != graphs[1].bank
        for graph in graphs + graphs[::-1]:
            got = dcg.infer(graph, model)
            assert model.bank_layout[0] is graph.bank
            assert got.expressed == dcg.infer(graph, _fresh(behavior_model)).expressed


def test_bank_with_separator_atom_raises_on_every_call(perception_model):
    bad = SymbolSpace(["a&b", "door"], [], ("navigate",))
    graph = dcg.build_perception_graph(load_parse_tree(OPEN), bad)
    model = _fresh(perception_model)
    for _ in range(3):
        with pytest.raises(dcg.GroundingError):
            dcg.infer(graph, model)
        assert model.bank_layout is None


# -- behavior banks: one symbol per (action, target label) class -------------

_POOL = ["door", "door_handle", "ball", "suitcase", "pitcher"]


def _labelled_world(labels):
    objects = []
    for i, label in enumerate(labels):
        x, y = 1.0 + (i % 12) * 0.9, -4.0 + (i // 12) * 0.9
        objects.append(WorldObject(i + 1, label, Pose(x, y, 0.5),
                                   Aabb((x - 0.3, y - 0.3, 0.0),
                                        (x + 0.3, y + 0.3, 1.0))))
    return WorldModel(objects)


WORLDS = {
    "120_objects_5_labels": [_POOL[(i * 7) % 5] for i in range(120)],
    "every_label_different": _POOL + ["box", "drawer", "top", "cracker_box",
                                      "x1", "x2"],
    "empty": [],
}


@pytest.mark.parametrize("labels", WORLDS.values(), ids=WORLDS.keys())
def test_behavior_classes_share_atoms_with_their_members(space, labels):
    world = _labelled_world(labels)
    graph = dcg.build_behavior_graph(load_parse_tree(OPEN), space, world)
    first = dict.fromkeys(labels)  # labels in order of first id
    assert len(graph.bank) == len(space.actions) * len(set(labels))
    assert graph.bank == tuple(BehaviorSymbol(a, label) for a in space.actions
                               for label in first)
    for action in space.actions:
        for obj in world.query():
            entry = BehaviorSymbol(action, obj.label)
            assert entry in graph.bank
            assert f"target_label:{obj.label}" in dcg.symbol_atoms(entry)
            assert f"child_has_target:{obj.label}" in dcg.child_atoms({entry})


@pytest.mark.parametrize("labels", WORLDS.values(), ids=WORLDS.keys())
def test_class_inference_matches_every_entry_scored(assets, space,
                                                    behavior_model, labels):
    """A per-object bank (every action over every object, so a label
    repeats), scored entry by entry, expresses exactly the members of the
    expressed classes, and its root choice is the behavior
    ``ground_behavior`` requests. Each world is also taken in reverse id
    order, so a label's first object is not always id 1."""
    for ordered in (labels, labels[::-1]):
        world = _labelled_world(ordered)
        targets = [(a, obj.id) for a in space.actions for obj in world.query()]
        per_object = tuple(BehaviorSymbol(a, world.objects[t].label)
                           for a, t in targets)

        def classes(bank, ids):
            return {(bank[j].action, bank[j].label) for j in ids}

        for tree in _bundled_trees(assets):
            graph = dcg.build_behavior_graph(tree, space, world)
            _assert_same(graph, behavior_model)
            got = dcg.infer(graph, behavior_model).expressed
            want = _template_infer(dataclasses.replace(graph, bank=per_object),
                                   behavior_model)
            for index, ids in want.items():
                assert classes(per_object, ids) == classes(graph.bank, got[index])
            root = want[tree.root.index]
            if not root:
                with pytest.raises(dcg.GroundingError):
                    cli.ground_behavior(tree, behavior_model, space, world)
                continue
            assert cli.ground_behavior(tree, behavior_model, space, world) == \
                BehaviorRequest(*targets[min(root)])


def test_ground_behavior_picks_the_label_lowest_id(space, behavior_model):
    # objects listed in reverse id order: the world's insertion order is
    # not its id order
    def obj(obj_id, label, x):
        return WorldObject(obj_id, label, Pose(x, 0.0, 0.5),
                           Aabb((x - 0.3, -0.3, 0.0), (x + 0.3, 0.3, 1.0)))

    world = WorldModel([obj(9, "door", 6.0), obj(5, "ball", 4.0),
                        obj(4, "door", 2.0), obj(2, "suitcase", 1.0)])
    assert list(world.objects) == [9, 5, 4, 2]
    tree = load_parse_tree(OPEN)
    assert cli.ground_behavior(tree, behavior_model, space, world) == \
        BehaviorRequest("open", 4)


def test_world_label_with_separator_raises_on_every_call(space, behavior_model):
    world = _labelled_world(["door", "a&b", "door"])
    graph = dcg.build_behavior_graph(load_parse_tree(OPEN), space, world)
    for _ in range(3):
        with pytest.raises(dcg.GroundingError, match="a&b"):
            dcg.infer(graph, behavior_model)


# -- corpora and training ----------------------------------------------------

def test_load_corpus_validates_kind(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"kind": "mystery", "examples": [{}]}')
    with pytest.raises(dcg.CorpusError):
        dcg.load_corpus(path)


def test_perception_corpus_rejects_worlds(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        '{"kind": "perception", "examples": '
        '[{"tree": "(NP (NN door))", "gold": [], "world": {"objects": []}}]}')
    with pytest.raises(dcg.CorpusError):
        dcg.load_corpus(path)


def test_behavior_corpus_requires_worlds(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        '{"kind": "behavior", "examples": [{"tree": "(NP (NN door))", "gold": []}]}')
    with pytest.raises(dcg.CorpusError):
        dcg.load_corpus(path)


def test_gold_descriptor_resolution(space):
    raw = [{
        "tree": OPEN,
        "gold": [
            [0, {"label": "door"}],
            [1, {"label": "door"}],
            [1, {"parent": "door", "subtype": "handle"}],
        ],
    }]
    (ex,) = dcg.build_examples("perception", raw, space)
    door = ex.graph.bank.index(space.semantic("door"))
    handle = ex.graph.bank.index(space.hierarchy("door", "handle"))
    assert ex.gold == {0: {door}, 1: {door, handle}}


def test_gold_phrase_index_bounds(space):
    raw = [{"tree": OPEN, "gold": [[7, {"label": "door"}]]}]
    with pytest.raises(dcg.CorpusError):
        dcg.build_examples("perception", raw, space)


def _two_door_example(gold_object):
    """"open the door" over a world of two doors (ids 3 and 8) and a
    ball, with gold naming ``gold_object``."""
    def obj(obj_id, label, x):
        return {"id": obj_id, "label": label,
                "pose": {"x": x, "y": 0.0, "z": 0.5, "yaw": 0.0},
                "bbox": {"min": [x - 0.3, -0.3, 0.0], "max": [x + 0.3, 0.3, 1.0]}}

    world = {"objects": [obj(3, "door", 2.0), obj(5, "ball", 4.0),
                         obj(8, "door", 6.0)]}
    gold = [[0, {"action": a, "object": gold_object}]
            for a in ("look", "navigate", "open", "turn")]
    return {"tree": OPEN, "world": world,
            "gold": gold + [[1, {"action": "open", "object": gold_object}]]}


def test_gold_on_a_repeated_label_resolves_to_its_class(space):
    (ex,) = dcg.build_examples("behavior", [_two_door_example(8)], space)
    bank = ex.graph.bank
    assert len(bank) == len(space.actions) * 2
    assert ex.gold[1] == {bank.index(BehaviorSymbol("open", "door"))}
    assert {bank[j].label for ids in ex.gold.values() for j in ids} == {"door"}
    corpus = dcg.CompiledCorpus([ex])
    result = dcg.train(corpus, kind="behavior")
    assert dcg.recovery(corpus, result.model) == 1.0


def test_gold_object_absent_from_world_raises(space):
    with pytest.raises(dcg.CorpusError, match="gold object 9 not in the example's world"):
        dcg.build_examples("behavior", [_two_door_example(9)], space)


@pytest.mark.parametrize("which", ["perception", "behavior"])
def test_corpus_gold_has_the_shape_infer_returns(which, perception_corpus,
                                                 behavior_corpus, perception_model,
                                                 behavior_model):
    # one key per phrase, a phrase without gold mapping to the empty set,
    # so a trained model's assignment compares to gold as is
    corpus, model = {"perception": (perception_corpus, perception_model),
                     "behavior": (behavior_corpus, behavior_model)}[which]
    for ex in corpus.examples:
        assert list(ex.gold) == list(range(ex.graph.tree.n_phrases))
        assert dcg.infer(ex.graph, model).expressed == ex.gold


def test_margins_match_direct_scores(space, perception_corpus, behavior_corpus):
    # flattened sparse arithmetic agrees with per-factor refeaturization,
    # each factor read through its row
    rng = np.random.default_rng(5)
    for corpus in (perception_corpus, behavior_corpus):
        w = rng.normal(size=corpus.dim)
        at = {n: i for i, n in enumerate(corpus.names)}
        got = corpus.margins(w)[corpus.row_of]
        k = 0
        for ex in corpus.examples:
            graph = ex.graph
            for phrase in graph.tree.phrases:
                child_syms = set()
                for child in phrase.children:
                    child_syms |= {graph.bank[j] for j in ex.gold[child.index]}
                for sym in graph.bank:
                    want = sum(w[at[n]] for n in
                               factor_features(phrase, sym, child_syms))
                    assert abs(got[k] - want) < 1e-9
                    k += 1
        assert k == corpus.n_factors


def test_log_likelihood_at_zero(perception_corpus):
    w = np.zeros(perception_corpus.dim)
    want = perception_corpus.n_factors * math.log(0.5)
    assert abs(dcg.log_likelihood(perception_corpus, w) - want) < 1e-9


def test_l2_penalty_is_exact(perception_corpus):
    rng = np.random.default_rng(3)
    w = rng.normal(size=perception_corpus.dim)
    plain = dcg.log_likelihood(perception_corpus, w, l2=0.0)
    reg = dcg.log_likelihood(perception_corpus, w, l2=0.1)
    assert abs(plain - reg - 0.05 * float(w @ w)) < 1e-9
    g_plain = dcg.ll_gradient(perception_corpus, w, l2=0.0)
    g_reg = dcg.ll_gradient(perception_corpus, w, l2=0.1)
    assert np.allclose(g_plain - g_reg, 0.1 * w, atol=1e-12)


def test_gradient_matches_finite_differences(perception_corpus):
    rng = np.random.default_rng(17)
    w = rng.normal(scale=0.5, size=perception_corpus.dim)
    grad = dcg.ll_gradient(perception_corpus, w, l2=1e-3)
    h = 1e-5
    picks = rng.choice(perception_corpus.dim, size=12, replace=False)
    for i in picks:
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd = (dcg.log_likelihood(perception_corpus, wp, 1e-3)
              - dcg.log_likelihood(perception_corpus, wm, 1e-3)) / (2 * h)
        assert abs(fd - grad[i]) < 1e-6 * max(1.0, abs(grad[i]))


def _factor_objective(corpus, w, l2):
    """The objective and gradient summed factor by factor over the
    expanded rows: (log-likelihood, gradient)."""
    factors = _factor_rows(corpus)
    m = np.add.reduceat(w[factors.flat_idx], factors.offsets)
    signed = np.where(factors.golds > 0.5, m, -m)
    ll = float(-np.logaddexp(0.0, -signed).sum()) - 0.5 * l2 * float(w @ w)
    coef = factors.golds - 1.0 / (1.0 + np.exp(-m))
    grad = np.zeros(len(w))
    np.add.at(grad, factors.flat_idx, np.repeat(coef, factors.counts))
    return ll, grad - l2 * w


@pytest.mark.parametrize("l2", [0.0, 0.1])
def test_row_objective_matches_the_per_factor_sum(l2, perception_corpus,
                                                  behavior_corpus):
    rng = np.random.default_rng(11)
    for corpus in (perception_corpus, behavior_corpus):
        for _ in range(3):
            w = rng.normal(size=corpus.dim)
            ll, grad = _factor_objective(corpus, w, l2)
            assert abs(dcg.log_likelihood(corpus, w, l2) - ll) <= 1e-12 * abs(ll)
            assert np.linalg.norm(dcg.ll_gradient(corpus, w, l2) - grad) \
                <= 1e-12 * np.linalg.norm(grad)


def test_repeated_examples_count_twice_on_the_same_rows(space, assets):
    for which in ("perception", "behavior"):
        kind, raw = dcg.load_corpus(assets / f"{which}_corpus.json")
        examples = dcg.build_examples(kind, raw, space)
        once = dcg.CompiledCorpus(examples)
        twice = dcg.CompiledCorpus(examples + examples)
        assert twice.names == once.names
        assert twice.n_factors == 2 * once.n_factors
        for key in ("flat_idx", "counts"):
            assert getattr(twice, key).tolist() == getattr(once, key).tolist()
        assert twice.pos.tolist() == (2 * once.pos).tolist()
        assert twice.neg.tolist() == (2 * once.neg).tolist()
        w = np.random.default_rng(2).normal(size=once.dim)
        assert dcg.log_likelihood(twice, w) == 2 * dcg.log_likelihood(once, w)


def _column_rows(corpus):
    """Each feature column's set of rows."""
    cols = [set() for _ in range(corpus.dim)]
    for r, row in enumerate(_rows(corpus)):
        for i in row:
            cols[i].add(r)
    return [frozenset(c) for c in cols]


def test_grouping_is_exact(space, perception_corpus, behavior_corpus):
    shared_space, shared_raw = _shared_parent_corpus()
    corpora = [perception_corpus, behavior_corpus,
               dcg.CompiledCorpus(dcg.build_examples(
                   "behavior", _one_tree_many_worlds(), space)),
               dcg.CompiledCorpus(dcg.build_examples(
                   "perception", shared_raw, shared_space))]
    for corpus in corpora:
        group_of, grouped = corpus.group_of, corpus.grouped
        cols = _column_rows(corpus)
        by_group: dict[int, set] = {}
        for i, g in enumerate(group_of.tolist()):
            by_group.setdefault(g, set()).add(cols[i])
        # one row set per group, a different one for each group
        assert all(len(sets) == 1 for sets in by_group.values())
        assert len({next(iter(sets)) for sets in by_group.values()}) == len(by_group)
        # numbered 0, 1, ... by first column
        assert list(dict.fromkeys(group_of.tolist())) == list(range(grouped.n_coords))
        # scale^2 is the group's size, up to rounding: scale is its root
        sizes = np.bincount(group_of, minlength=grouped.n_coords)
        assert grouped.scale.tolist() == np.sqrt(sizes).tolist()
        # the same rows, each listing its distinct groups, sorted
        assert _rows(grouped) == [sorted(set(group_of[row].tolist()))
                                  for row in _rows(corpus)]
        assert grouped.pos is corpus.pos and grouped.neg is corpus.neg


def test_bundled_corpora_group_to_fewer_coordinates(perception_corpus,
                                                    behavior_corpus):
    # (features, coordinates, rows, entries read per pass)
    for corpus, want in ((perception_corpus, (847, 306, 133, 966)),
                         (behavior_corpus, (2545, 318, 312, 3164))):
        grouped = corpus.grouped
        assert (corpus.dim, grouped.n_coords, len(grouped.counts),
                len(grouped.flat_idx)) == want
        assert grouped.counts.sum() == len(grouped.flat_idx)


@pytest.mark.parametrize("l2", [0.0, 0.1])
def test_grouped_coordinates_are_an_isometry(l2, perception_corpus,
                                             behavior_corpus):
    # v = sqrt(k) w on a group of k columns sharing weight w
    rng = np.random.default_rng(23)
    for corpus in (perception_corpus, behavior_corpus):
        grouped, group_of = corpus.grouped, corpus.group_of
        for _ in range(3):
            v = rng.normal(size=grouped.n_coords)
            w = (v / grouped.scale)[group_of]
            want = dcg.log_likelihood(corpus, w, l2)
            assert abs(dcg.log_likelihood(grouped, v, l2) - want) <= 1e-12 * abs(want)
            grad = dcg.ll_gradient(grouped, v, l2)
            member = grouped.scale[group_of] * dcg.ll_gradient(corpus, w, l2)
            assert np.abs(grad[group_of] - member).max() <= 1e-12


def test_trained_weights_are_equal_within_each_group(perception_corpus,
                                                     perception_model,
                                                     behavior_corpus,
                                                     behavior_model):
    for corpus, model in ((perception_corpus, perception_model),
                          (behavior_corpus, behavior_model)):
        by_group: dict[int, set] = {}
        for name, g in zip(corpus.names, corpus.group_of.tolist()):
            by_group.setdefault(g, set()).add(model.weights[name].hex())
        assert len(by_group) == corpus.grouped.n_coords
        assert all(len(ws) == 1 for ws in by_group.values())


def test_trivial_groupings():
    empty = dcg.CompiledCorpus([])
    assert (empty.dim, empty.grouped.n_coords) == (0, 0)
    assert len(empty.group_of) == 0 and len(empty.grouped.counts) == 0
    # columns 0..3 each in a row set of their own
    counts = np.array([2, 3, 1])
    flat_idx = np.array([0, 1, 0, 2, 3, 3])
    rows = dcg.CorpusRows(np.array([1.0, 0.0, 2.0]), np.array([1.0, 3.0, 0.0]),
                          counts, flat_idx, np.ones(4))
    group_of, grouped = dcg._grouped(rows)
    assert group_of.tolist() == [0, 1, 2, 3]
    assert grouped.scale.tolist() == [1.0] * 4
    assert grouped.counts.tolist() == counts.tolist()
    assert grouped.flat_idx.tolist() == flat_idx.tolist()
    w = np.random.default_rng(4).normal(size=4)
    assert dcg.log_likelihood(grouped, w, 0.1) == dcg.log_likelihood(rows, w, 0.1)
    assert np.array_equal(dcg.ll_gradient(grouped, w, 0.1),
                          dcg.ll_gradient(rows, w, 0.1))


def test_a_weight_vector_must_match_the_coordinates(perception_corpus,
                                                    behavior_corpus):
    for corpus in (perception_corpus, behavior_corpus):
        for rows in (corpus, corpus.grouped):
            other = corpus.grouped if rows is corpus else corpus
            for n in (other.n_coords, rows.n_coords - 1, rows.n_coords + 1):
                w = np.zeros(n)
                m = np.zeros(len(rows.counts))
                with pytest.raises(dcg.NumericError, match="coordinates"):
                    rows.margins(w)
                for f in (dcg.log_likelihood, dcg.ll_gradient):
                    with pytest.raises(dcg.NumericError, match="coordinates"):
                        f(rows, w)
                    with pytest.raises(dcg.NumericError, match="coordinates"):
                        f(rows, w, 0.1, m=m)


def test_given_margins_give_the_same_objective(perception_corpus):
    rng = np.random.default_rng(5)
    w = rng.normal(size=perception_corpus.dim)
    m = perception_corpus.margins(w)
    for l2 in (0.0, 0.1):
        assert dcg.log_likelihood(perception_corpus, w, l2, m=m) \
            == dcg.log_likelihood(perception_corpus, w, l2)
        assert np.array_equal(dcg.ll_gradient(perception_corpus, w, l2, m=m),
                              dcg.ll_gradient(perception_corpus, w, l2))


def test_training_scores_through_the_public_objective(perception_corpus,
                                                      perception_train,
                                                      monkeypatch):
    # a profiler that wraps log_likelihood/ll_gradient sees every evaluation
    calls = collections.Counter()

    def counting(name):
        inner = getattr(dcg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("log_likelihood", "ll_gradient"):
        monkeypatch.setattr(dcg, name, counting(name))
    got = dcg.train(perception_corpus, dcg.TrainConfig(), kind="perception")
    assert calls["log_likelihood"] > 0 and calls["ll_gradient"] > 0
    assert got.model.weights == perception_train.model.weights
    assert got.objective_history == perception_train.objective_history


def test_training_monotone_and_recovers(perception_corpus, perception_train):
    history = perception_train.objective_history
    assert all(b >= a for a, b in zip(history, history[1:]))
    assert dcg.recovery(perception_corpus, perception_train.model) == 1.0


def test_behavior_training_recovers(behavior_corpus, behavior_train):
    history = behavior_train.objective_history
    assert all(b >= a for a, b in zip(history, history[1:]))
    assert dcg.recovery(behavior_corpus, behavior_train.model) == 1.0


def test_stronger_l2_shrinks_weights(perception_corpus):
    light = dcg.train(perception_corpus, dcg.TrainConfig(iterations=60, l2=1e-3))
    heavy = dcg.train(perception_corpus, dcg.TrainConfig(iterations=60, l2=1.0))
    n_light = float(np.linalg.norm(list(light.model.weights.values())))
    n_heavy = float(np.linalg.norm(list(heavy.model.weights.values())))
    assert n_heavy < n_light


def test_zero_iterations_returns_zero_model(perception_corpus):
    result = dcg.train(perception_corpus, dcg.TrainConfig(iterations=0))
    assert result.iterations == 0
    assert not any(result.model.weights.values())
    assert len(result.objective_history) == 1


# -- recovery from the compiled rows ---------------------------------------------

def _infer_recovery(corpus, model):
    """The definition: the fraction of examples ``infer`` reproduces."""
    examples = corpus.examples
    if not examples:
        return 1.0
    return sum(dcg.infer(ex.graph, model).expressed == ex.gold
               for ex in examples) / len(examples)


@pytest.mark.parametrize("l2", [0.0, 5e-4])
@pytest.mark.parametrize("which", ["perception", "behavior"])
def test_recovery_matches_inference_along_training(which, l2, perception_corpus,
                                                   behavior_corpus):
    corpus = {"perception": perception_corpus, "behavior": behavior_corpus}[which]
    seen = set()
    for iterations in range(41):
        model = dcg.train(corpus, dcg.TrainConfig(iterations=iterations, l2=l2),
                          kind=which).model
        got = dcg.recovery(corpus, model)
        assert got == _infer_recovery(corpus, model), iterations
        seen.add(got)
    # the sweep passes through partial recovery on its way to 1.0
    assert 1.0 in seen and len(seen) > 2


def test_recovery_of_foreign_and_zero_models(perception_corpus, behavior_corpus,
                                             perception_model, behavior_model):
    half = dcg.CompiledCorpus(perception_corpus.examples[::2])
    partial = dcg.train(half, kind="perception").model
    for corpus in (perception_corpus, behavior_corpus):
        for model in (perception_model, behavior_model, partial,
                      dcg.Model("perception", {})):
            assert dcg.recovery(corpus, model) == _infer_recovery(corpus, model)
    assert 0.0 < dcg.recovery(perception_corpus, partial) < 1.0
    assert dcg.recovery(behavior_corpus, dcg.Model("behavior", {})) == 0.0


def test_recovery_of_small_corpora(space):
    shared_space, shared_raw = _shared_parent_corpus()
    # an example whose gold is empty everywhere: a margin of exactly 0
    # ties to false, so the zero model recovers it
    no_gold = {"tree": "(NP (DT the) (NN top))", "gold": []}
    corpora = [
        dcg.CompiledCorpus(dcg.build_examples("behavior", _one_tree_many_worlds(),
                                              space)),
        dcg.CompiledCorpus(dcg.build_examples("perception",
                                              [*shared_raw, no_gold],
                                              shared_space)),
    ]
    for corpus in corpora:
        for iterations in (0, 1, 2, 3, 5, 300):
            model = dcg.train(corpus, dcg.TrainConfig(iterations=iterations)).model
            assert dcg.recovery(corpus, model) == _infer_recovery(corpus, model)
    zero = dcg.train(corpora[1], dcg.TrainConfig(iterations=0)).model
    assert dcg.recovery(corpora[1], zero) == 1 / 3
    empty = dcg.CompiledCorpus([])
    assert dcg.recovery(empty, dcg.Model("perception", {})) == 1.0


def test_recovery_counts_an_example_of_no_factors(space):
    # a world of no objects gives an empty behavior bank, so the example
    # has no factors and is recovered whatever the model; the example
    # after it has a factor at bank id 0 that gold leaves false
    raw = _one_tree_many_worlds()
    empty_world = {"tree": OPEN, "world": _world_json([]), "gold": []}
    examples = dcg.build_examples("behavior", [raw[0], empty_world, *raw[1:]],
                                  space)
    assert examples[1].graph.factor_count == 0
    assert 0 not in examples[2].gold[0]
    corpus = dcg.CompiledCorpus(examples)
    trained = dcg.train(corpus, kind="behavior").model
    # every factor true: all examples but the empty one are wrong
    eager = dcg.Model("behavior", dict.fromkeys(corpus.names, 1.0))
    for model in (trained, eager, dcg.Model("behavior", {})):
        assert dcg.recovery(corpus, model) == _infer_recovery(corpus, model)
    assert dcg.recovery(corpus, trained) == 1.0
    assert dcg.recovery(corpus, eager) == 1 / len(examples)


def test_recovery_does_not_infer_or_fold(monkeypatch, perception_corpus,
                                         perception_model):
    def forbidden(*args):
        raise AssertionError("recovery inferred or folded")

    monkeypatch.setattr(dcg, "infer", forbidden)
    monkeypatch.setattr(dcg, "_fold", forbidden)
    model = dcg.Model("perception", perception_model.weights)
    assert dcg.recovery(perception_corpus, model) == 1.0


def test_recovery_overflowing_margin_raises(space, perception_corpus):
    # two finite weights of the first row, on one symbol atom, sum to
    # inf, in infer as in the row
    first = [perception_corpus.names[i]
             for i in perception_corpus.flat_idx[:perception_corpus.counts[0]]]
    atom = first[0].split("&")[1]
    pair = [n for n in first if n.split("&")[1] == atom][:2]
    assert len(pair) == 2
    model = dcg.Model("perception", dict.fromkeys(pair, 1.7e308))
    with pytest.raises(dcg.NumericError):
        dcg.recovery(perception_corpus, model)
    with pytest.raises(dcg.NumericError):
        dcg.infer(perception_corpus.examples[0].graph, model)


def _two_sided_compile(examples):
    """The corpus build of the two-sided factor this module's factor
    replaced: each conjunction has a weight for phi = true (``name&T``)
    and one for phi = false (``name&F``), a factor's margin is its true
    weights minus its false weights, and each factor registers its true
    names before its false names."""
    index: dict[str, int] = {}

    def ids(names):
        return sorted(index.setdefault(n, len(index)) for n in names)

    golds, counts, flat_idx, flat_val = [], [], [], []
    for ex in examples:
        graph = ex.graph
        for phrase in graph.tree.phrases:
            child_syms = set()
            for child in phrase.children:
                child_syms |= {graph.bank[j] for j in ex.gold[child.index]}
            for j, sym in enumerate(graph.bank):
                stems = factor_features(phrase, sym, child_syms)
                ti = ids([s + "&T" for s in stems])
                fi = ids([s + "&F" for s in stems])
                golds.append(float(j in ex.gold[phrase.index]))
                counts.append(len(ti) + len(fi))
                flat_idx += [*ti, *fi]
                flat_val += [1.0] * len(ti) + [-1.0] * len(fi)
    counts = np.array(counts, dtype=int)
    return SimpleNamespace(
        names=list(index), golds=np.array(golds), counts=counts,
        offsets=np.concatenate(([0], np.cumsum(counts)[:-1])),
        flat_idx=np.array(flat_idx, dtype=int), flat_val=np.array(flat_val))


@pytest.mark.parametrize("which", ["perception", "behavior"])
def test_compiled_corpus_matches_two_sided_featurize(which, perception_corpus,
                                                     behavior_corpus):
    # one weight per conjunction: the stems of the two-sided build's true
    # names, in the same order, factor by factor
    corpus = {"perception": perception_corpus, "behavior": behavior_corpus}[which]
    ref = _two_sided_compile(corpus.examples)
    factors = _factor_rows(corpus)
    assert factors.names == [n[:-2] for n in ref.names if n.endswith("&T")]
    assert factors.golds.tolist() == ref.golds.tolist()
    assert (2 * factors.counts).tolist() == ref.counts.tolist()
    names = factors.names
    assert [names[i] for i in factors.flat_idx] == \
        [ref.names[i][:-2] for i, v in zip(ref.flat_idx, ref.flat_val) if v > 0]


def _per_factor_compile(examples):
    """The per-factor corpus build: every factor formats and numbers
    its own template names, in order."""
    index: dict[str, int] = {}
    golds, counts, flat_idx = [], [], []
    for ex in examples:
        for phrase in ex.graph.tree.phrases:
            ps, cs = dcg._context(phrase, ex.graph.bank, ex.gold)
            for j, sym in enumerate(ex.graph.bank):
                idx = sorted(index.setdefault(n, len(index)) for n in
                             dcg._stems(ps, dcg.symbol_atoms(sym), cs))
                golds.append(j in ex.gold[phrase.index])
                counts.append(len(idx))
                flat_idx += idx
    counts = np.array(counts, dtype=int)
    return SimpleNamespace(
        names=list(index), golds=np.array(golds, dtype=float), counts=counts,
        offsets=np.concatenate(([0], np.cumsum(counts)[:-1])),
        flat_idx=np.array(flat_idx, dtype=int))


def _rows(corpus):
    """Each compiled row's feature ids, as a list."""
    return [corpus.flat_idx[o:o + n].tolist()
            for o, n in zip(corpus.offsets, corpus.counts)]


def _factor_rows(corpus):
    """The compiled corpus expanded back to one row per factor, through
    ``row_of``, in the shape ``_per_factor_compile`` returns."""
    rows = _rows(corpus)
    counts = corpus.counts[corpus.row_of]
    return SimpleNamespace(
        names=corpus.names, golds=corpus.golds, counts=counts,
        offsets=np.concatenate(([0], np.cumsum(counts)[:-1])),
        flat_idx=np.array([i for r in corpus.row_of for i in rows[r]], dtype=int))


def _assert_compiles_like(corpus, ref):
    factors = _factor_rows(corpus)
    assert factors.names == ref.names
    for key in ("golds", "counts", "offsets", "flat_idx"):
        got, want = getattr(factors, key), getattr(ref, key)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), key
    # each distinct row once, counting its factors by gold value
    rows = [tuple(r) for r in _rows(corpus)]
    assert len(set(rows)) == len(rows)
    n_rows = len(rows)
    assert corpus.pos.tolist() == np.bincount(
        corpus.row_of, weights=corpus.golds, minlength=n_rows).tolist()
    assert corpus.neg.tolist() == np.bincount(
        corpus.row_of, weights=1.0 - corpus.golds, minlength=n_rows).tolist()


def _world_json(objects):
    """A world of (id, label) objects, in that order."""
    return {"objects": [
        {"id": obj_id, "label": label,
         "pose": {"x": float(obj_id), "y": 0.0, "z": 0.5, "yaw": 0.0},
         "bbox": {"min": [obj_id - 0.3, -0.3, 0.0],
                  "max": [obj_id + 0.3, 0.3, 1.0]}}
        for obj_id, label in objects]}


def _one_tree_many_worlds():
    """"open the door" over worlds whose labels come in different
    first-id orders, so one symbol sits at a different bank id in each."""
    out = []
    for order in (["door", "ball", "suitcase"], ["ball", "door", "suitcase"],
                  ["suitcase", "ball", "door", "ball"], ["door"]):
        objects = list(enumerate(order, start=1))
        door = next(i for i, label in objects if label == "door")
        gold = [[0, {"action": a, "object": door}] for a in ("navigate", "open")]
        out.append({"tree": OPEN, "world": _world_json(objects),
                    "gold": gold + [[1, {"action": "open", "object": door}]]})
    return out


def _shared_parent_corpus():
    """A space whose hierarchies share parents (door.handle, door.hinge)
    and subtypes (box.handle), so in one context a hierarchy symbol
    brings one or two atoms next to ones an earlier symbol featurized."""
    space = SymbolSpace(["box", "door", "handle", "hinge", "top"],
                        [("door", "handle"), ("box", "top"), ("door", "hinge"),
                         ("box", "handle"), ("top", "door")], ["open"])
    raw = [{"tree": OPEN, "gold": [[0, {"label": "door"}], [1, {"label": "door"}],
                                   [1, {"parent": "door", "subtype": "hinge"}]]},
           {"tree": "(NP (DT the) (NN box))",
            "gold": [[0, {"parent": "box", "subtype": "handle"}]]}]
    return space, raw


def test_compiled_corpus_matches_the_per_factor_template(space, assets):
    corpora = {}
    for which in ("perception", "behavior"):
        kind, raw = dcg.load_corpus(assets / f"{which}_corpus.json")
        corpora[which] = dcg.build_examples(kind, raw, space)
        for seed in (1, 2, 3):
            shuffled = list(raw)
            random.Random(seed).shuffle(shuffled)
            corpora[f"{which}_shuffled_{seed}"] = \
                dcg.build_examples(kind, shuffled, space)
    corpora["one_tree_many_worlds"] = dcg.build_examples(
        "behavior", _one_tree_many_worlds(), space)
    shared_space, shared_raw = _shared_parent_corpus()
    corpora["shared_parent"] = dcg.build_examples(
        "perception", shared_raw, shared_space)
    parents = [a for sym in shared_space.perception
               for a in dcg.symbol_atoms(sym) if a.startswith("hier_parent:")]
    assert len(set(parents)) < len(parents)
    for examples in corpora.values():
        _assert_compiles_like(dcg.CompiledCorpus(examples),
                              _per_factor_compile(examples))
    # back to back: the second corpus starts from no cache of the first
    for first, second in (("perception", "behavior"),
                          ("behavior", "perception_shuffled_1"),
                          ("shared_parent", "perception")):
        a = dcg.CompiledCorpus(corpora[first])
        b = dcg.CompiledCorpus(corpora[second])
        _assert_compiles_like(a, _per_factor_compile(corpora[first]))
        _assert_compiles_like(b, _per_factor_compile(corpora[second]))


@pytest.mark.parametrize("cached", [False, True], ids=["new", "cached"])
def test_compiled_corpus_rejects_a_world_label_with_separator(space, cached):
    # the label's context is new, or compiled already from an earlier
    # example whose world lacks the label
    bad = {"tree": OPEN, "world": _world_json([(1, "door"), (2, "a&b")]),
           "gold": [[0, {"action": "open", "object": 1}]]}
    good = {**bad, "world": _world_json([(1, "door")])}
    raw = [good, bad] if cached else [bad]
    examples = dcg.build_examples("behavior", raw, space)
    with pytest.raises(dcg.GroundingError, match="a&b"):
        dcg.CompiledCorpus(examples)


def two_loop(grad, pairs):
    """The textbook L-BFGS two-loop recursion over ``(s, y)`` pairs."""
    q = grad.copy()
    alphas = []
    for s, y in reversed(pairs):
        alphas.append(float(s @ q) / float(s @ y))
        q -= alphas[-1] * y
    s, y = pairs[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - float(y @ q) / float(s @ y)) * s
    return q


@pytest.mark.parametrize("memory", [1, 3, 10])
def test_lbfgs_direction_matches_the_textbook_two_loop(memory):
    rng = np.random.default_rng(memory)
    for _ in range(20):
        dim = int(rng.integers(1, 60))
        pairs = []
        while len(pairs) < memory:
            s = rng.normal(size=dim)
            y = s * rng.uniform(0.1, 3.0, size=dim) + rng.normal(scale=0.3, size=dim)
            if float(s @ y) > 0.0:
                pairs.append((s, y))
        grad = rng.normal(size=dim)
        got = dcg._lbfgs_direction(grad, [(s, y, float(s @ y)) for s, y in pairs])
        assert np.array_equal(got, two_loop(grad, pairs))


def _two_sided_train(ref, iterations, step=1.0, l2=1e-3, tol=1e-9,
                     max_backtracks=40, armijo=1e-4, memory=10):
    """L-BFGS ascent on the two-sided weights, evaluating the full
    objective at every line-search trial and summing the gradient with
    np.add.at: (weights, history, iterations, stop, gradient norm)."""
    def objective(w):
        m = np.add.reduceat(w[ref.flat_idx] * ref.flat_val, ref.offsets)
        signed = np.where(ref.golds > 0.5, m, -m)
        return float(-np.logaddexp(0.0, -signed).sum()) - 0.5 * l2 * float(w @ w)

    def gradient(w):
        m = np.add.reduceat(w[ref.flat_idx] * ref.flat_val, ref.offsets)
        coef = ref.golds - 1.0 / (1.0 + np.exp(-m))
        grad = np.zeros(len(w))
        np.add.at(grad, ref.flat_idx, np.repeat(coef, ref.counts) * ref.flat_val)
        return grad - l2 * w

    w = np.zeros(len(ref.names))
    obj = objective(w)
    grad = gradient(w)
    history = [obj]
    pairs = []
    stop = "iterations"
    it = 0
    for it in range(1, iterations + 1):
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            stop = "zero_gradient"
            break
        d, slope, trial = grad, gnorm2, step
        if pairs:
            d_q = two_loop(grad, pairs)
            if float(grad @ d_q) > 0.0:
                d, slope, trial = d_q, float(grad @ d_q), 1.0
        for _ in range(max_backtracks):
            w_new = w + trial * d
            obj_new = objective(w_new)
            if obj_new >= obj + armijo * trial * slope:
                break
            trial *= 0.5
        else:
            stop = "line_search"
            break
        gain = obj_new - obj
        grad_new = gradient(w_new)
        s, y = w_new - w, grad - grad_new
        if float(s @ y) > 0.0:
            pairs = (pairs + [(s, y)])[-memory:]
        w, obj, grad = w_new, obj_new, grad_new
        history.append(obj)
        if gain <= tol * (1.0 + abs(obj)):
            stop = "tol"
            break
    return w, history, it, stop, float(np.linalg.norm(gradient(w)))


@pytest.mark.parametrize("which,iterations", [("perception", 300),
                                              ("behavior", 40)])
def test_cached_margin_training_matches_reference(which, iterations,
                                                  perception_corpus,
                                                  behavior_corpus):
    # theta = w_T - w_F with half the l2 and twice the gradient step takes
    # the two-sided factor's iterates exactly, up to rounding; the two-loop
    # direction and its unit step map across unchanged
    corpus = {"perception": perception_corpus, "behavior": behavior_corpus}[which]
    ref = _two_sided_compile(corpus.examples)
    w, history, it, stop, gnorm = _two_sided_train(ref, iterations)
    got = dcg.train(corpus, dcg.TrainConfig(iterations=iterations), kind=which)
    assert (got.iterations, got.stop) == (it, stop)
    assert len(got.objective_history) == len(history)
    assert np.allclose(got.objective_history, history, rtol=0.0, atol=1e-10)
    at = {n: i for i, n in enumerate(ref.names)}
    theta = np.array([w[at[n + "&T"]] - w[at[n + "&F"]]
                      for n in corpus.names])
    w_got = np.array([got.model.weights[n] for n in corpus.names])
    assert np.allclose(w_got, theta, rtol=0.0, atol=1e-10)
    assert got.grad_norm == pytest.approx(gnorm / math.sqrt(2.0), rel=1e-9)


def test_converged_behavior_training_follows_the_reference(behavior_corpus):
    # run to convergence the objective history follows the two-sided
    # reference; theta is not compared, since in the ill-conditioned
    # directions both runs stop ~1e-8 apart
    ref = _two_sided_compile(behavior_corpus.examples)
    _, history, it, stop, _ = _two_sided_train(ref, 300)
    got = dcg.train(behavior_corpus, dcg.TrainConfig(iterations=300),
                    kind="behavior")
    assert (got.iterations, got.stop) == (it, stop) == (92, "tol")
    assert len(got.objective_history) == len(history)
    assert np.allclose(got.objective_history, history, rtol=0.0, atol=1e-10)


def _newton_optimum(corpus, l2):
    """The maximizer of the l2-regularised log-likelihood by damped
    Newton steps on a dense design matrix with one row per factor,
    solved to |g| < 1e-11: (weights, objective)."""
    factors = _factor_rows(corpus)
    x = np.zeros((corpus.n_factors, corpus.dim))
    np.add.at(x, (np.repeat(np.arange(corpus.n_factors), factors.counts),
                  factors.flat_idx), 1.0)
    sign = np.where(factors.golds > 0.5, 1.0, -1.0)

    def objective(w):
        return float(-np.logaddexp(0.0, -sign * (x @ w)).sum()) - 0.5 * l2 * float(w @ w)

    w = np.zeros(corpus.dim)
    for _ in range(100):
        p_true = 1.0 / (1.0 + np.exp(-(x @ w)))
        grad = x.T @ (factors.golds - p_true) - l2 * w
        if np.linalg.norm(grad) < 1e-11:
            return w, objective(w)
        hessian = (x.T * (p_true * (1.0 - p_true))) @ x + l2 * np.eye(corpus.dim)
        d = np.linalg.solve(hessian, grad)
        step = 1.0
        while objective(w + step * d) < objective(w):
            step *= 0.5
        w = w + step * d
    raise AssertionError("Newton solve did not converge")


def test_training_reaches_the_newton_optimum(perception_corpus, perception_train,
                                            monkeypatch):
    # the objective is strictly concave for l2 > 0, so L-BFGS run until
    # the objective stops rising lands on the one maximizer
    config = dcg.TrainConfig()
    w_opt, obj_opt = _newton_optimum(perception_corpus, config.l2)
    names = perception_corpus.names
    monkeypatch.setattr(dcg, "TOL", 0.0)
    exact = dcg.train(perception_corpus, config)
    w_got = np.array([exact.model.weights[n] for n in names])
    assert np.abs(w_got - w_opt).max() < 1e-5
    default = perception_train.objective_history[-1]
    assert abs(default - obj_opt) <= 1e-7 * abs(obj_opt)


def test_unregularised_training_on_separable_data_stays_finite(perception_corpus):
    # with l2 = 0 the corpus is separable and the objective has no
    # maximizer; training still stops with finite weights
    result = dcg.train(perception_corpus, dcg.TrainConfig(l2=0.0))
    history = result.objective_history
    assert np.isfinite(history).all()
    assert all(b >= a for a, b in zip(history, history[1:]))
    assert np.isfinite(list(result.model.weights.values())).all()
    assert math.isfinite(result.grad_norm)
    assert result.stop in ("tol", "line_search", "iterations")


@pytest.mark.parametrize("field,bad", [
    ("iterations", -3), ("iterations", 2.0), ("iterations", True),
    ("step", 0.0), ("step", -1.0), ("step", math.nan), ("step", math.inf),
    ("l2", -5.0), ("l2", math.nan), ("l2", math.inf),
])
def test_train_config_rejects_bad_values(field, bad):
    with pytest.raises(dcg.TrainingError, match=field):
        dcg.TrainConfig(**{field: bad})


def test_train_config_accepts_edges():
    dcg.TrainConfig(iterations=0, l2=0.0, step=1)


def test_training_reports_stop_reason_and_gradient_norm(perception_corpus,
                                                         monkeypatch):
    def norm_at(result, l2):
        w = np.array([result.model.weights[n] for n in perception_corpus.names])
        g = dcg.ll_gradient(perception_corpus, w, l2)
        return float(np.linalg.norm(g))

    l2 = dcg.TrainConfig().l2

    capped = dcg.train(perception_corpus, dcg.TrainConfig(iterations=5))
    assert (capped.stop, capped.iterations, capped.converged) == \
        ("iterations", 5, False)
    assert capped.grad_norm == pytest.approx(norm_at(capped, l2), rel=1e-9)

    with monkeypatch.context() as m:
        m.setattr(dcg, "TOL", 1.0)
        tol = dcg.train(perception_corpus, dcg.TrainConfig())
    assert (tol.stop, tol.iterations, tol.converged) == ("tol", 1, True)
    assert tol.grad_norm == pytest.approx(norm_at(tol, l2), rel=1e-9)

    with monkeypatch.context() as m:
        m.setattr(dcg, "MAX_BACKTRACKS", 1)
        stuck = dcg.train(perception_corpus, dcg.TrainConfig(step=1e6))
    assert (stuck.stop, stuck.iterations, stuck.converged) == \
        ("line_search", 1, True)
    assert len(stuck.objective_history) == 1
    assert stuck.grad_norm == pytest.approx(norm_at(stuck, l2), rel=1e-9)

    zero = dcg.train(perception_corpus, dcg.TrainConfig(iterations=0))
    assert (zero.stop, zero.converged) == ("iterations", False)
    assert zero.grad_norm == pytest.approx(norm_at(zero, l2), rel=1e-9)

    empty = dcg.train(dcg.CompiledCorpus([]))
    assert (empty.stop, empty.iterations, empty.grad_norm) == \
        ("zero_gradient", 1, 0.0)
