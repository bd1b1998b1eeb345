from __future__ import annotations

import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from minworld import dcg
from minworld.parse import load_parse_tree
from minworld.symbols import BehaviorSymbol, SymbolSpace
from minworld.world import Aabb, Detection, Pose, WorldModel, WorldObject

from helpers_oracle import hash_model

OPEN = "(VP (VB open) (NP (DT the) (NN door)))"


def _door_np():
    return load_parse_tree(OPEN).phrases_bottom_up()[0]


def _det(label, x, y, z=0.0, t=0.0):
    box = Aabb((x - 0.5, y - 0.5, z - 0.5), (x + 0.5, y + 0.5, z + 0.5))
    return Detection(label, Pose(x, y, z), box, t, label)


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
    names = dcg.feature_names(_door_np(), space.semantic("door"))
    assert "word:door&label:door" in names
    assert "tag:NN&category:semantic_label" in names


def test_three_way_feature_name_with_child(space):
    vp = load_parse_tree(OPEN).root
    names = dcg.feature_names(
        vp, space.hierarchy("door", "handle"),
        child_symbols={space.semantic("door")},
    )
    assert "verb:open&hier_subtype:handle&child_has:door" in names


def test_no_child_marker(space):
    names = dcg.feature_names(_door_np(), space.semantic("door"))
    assert any(n.endswith("&child_none") for n in names)


def test_behavior_atoms_resolve_labels_through_world():
    world = WorldModel()
    world.integrate(_det("door", 5, 0, 1))
    obj_id = world.query("door")[0].id
    with_world = dcg.symbol_atoms(BehaviorSymbol("open", obj_id), world)
    assert "target_label:door" in with_world
    without = dcg.symbol_atoms(BehaviorSymbol("open", obj_id), None)
    assert f"target_label:object{obj_id}" in without


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
        dcg.feature_names(phrase, space.semantic("door"))
    graph = dcg.build_perception_graph(load_parse_tree("(NP (NN a&b))"), space)
    fs = dcg.FeatureSpace(frozen=True)
    with pytest.raises(dcg.GroundingError):
        dcg.infer(graph, dcg.Model("perception", fs, np.zeros(0)))


def test_feature_space_grows_then_freezes(space):
    fs = dcg.FeatureSpace()
    fv = fs.featurize(_door_np(), space.semantic("door"))
    assert fs.dim == len(fv.indices) > 0
    fs.freeze()
    fv2 = fs.featurize(_door_np(), space.semantic("box"))
    # overlap (shared phrase atoms with known names) but no growth
    assert fs.dim == len(fv.indices)
    assert len(fv2.indices) < fs.dim or fs.dim == 0


def test_feature_space_rejects_duplicates():
    with pytest.raises(ValueError):
        dcg.FeatureSpace(["a&b", "a&b"])


# -- graphs and inference ----------------------------------------------------

def test_factor_count(space):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    assert graph.factor_count == tree.n_phrases * len(space.perception) == 14


def test_behavior_bank_covers_actions_by_objects(space):
    world = WorldModel()
    world.integrate(_det("door", 5, 0, 1))
    world.integrate(_det("box", 2, 2, 0, t=1.0))
    graph = dcg.build_behavior_graph(load_parse_tree(OPEN), space, world)
    assert len(graph.bank) == len(space.actions) * 2
    assert graph.kind == "behavior"


def test_zero_model_expresses_nothing(space):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    fs = dcg.FeatureSpace()
    for phrase in tree.phrases_bottom_up():
        for sym in graph.bank:
            fs.featurize(phrase, sym)
    fs.freeze()
    model = dcg.Model("perception", fs, np.zeros(fs.dim))
    got = dcg.infer(graph, model)
    assert all(not ids for ids in got.expressed.values())
    # ties all break to false at probability one half each
    assert abs(got.log_score - graph.factor_count * math.log(0.5)) < 1e-9


def test_trained_inference_matches_gold(space, perception_model):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    got = dcg.infer(graph, perception_model)
    assert got.all_symbols(graph) == {
        space.semantic("door"), space.hierarchy("door", "handle"),
    }
    assert got.log_score < 0.0


def test_assignment_views(space, perception_model):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    got = dcg.infer(graph, perception_model)
    want = {graph.bank[j] for ids in got.expressed.values() for j in ids}
    assert got.all_symbols(graph) == want


def test_infer_with_non_finite_weights_raises(space, perception_model):
    tree = load_parse_tree(OPEN)
    graph = dcg.build_perception_graph(tree, space)
    bad = dcg.Model("perception", perception_model.space,
                    np.full(perception_model.space.dim, math.nan))
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
    assert abs(a.log_score - b.log_score) < 1e-9


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


def test_model_rejects_malformed_names_and_lengths():
    for name in ("word:door", "a&b&c&d"):
        with pytest.raises(dcg.CorpusError):
            dcg.Model("perception", dcg.FeatureSpace([name]), np.zeros(1))
    with pytest.raises(dcg.NumericError):
        dcg.Model("perception", dcg.FeatureSpace(["a&b"]), np.zeros(2))


def test_model_weights_are_read_only(perception_model):
    with pytest.raises(ValueError):
        perception_model.weights[0] = 1.0


# -- folded inference against per-factor featurization -------------------------

def _reference_infer(graph, model):
    """Inference as a sum over named features: featurize every factor
    and sum its weights."""
    fs, w = model.space, model.weights
    expressed, by_index, log_score = {}, {}, 0.0
    for phrase in graph.tree.phrases_bottom_up():
        ctx: set = set()
        for child in phrase.children:
            ctx |= by_index[child.index]
        chosen = set()
        for j, sym in enumerate(graph.bank):
            fv = fs.featurize(phrase, sym, ctx, graph.world)
            margin = float(w[list(fv.indices)].sum())
            if margin > 0.0:
                chosen.add(j)
            log_score -= float(np.logaddexp(0.0, -abs(margin)))
        expressed[phrase.index] = frozenset(chosen)
        by_index[phrase.index] = {graph.bank[j] for j in chosen}
    return expressed, log_score


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


def _assert_same(graph, model):
    got = dcg.infer(graph, model)
    want_expressed, want_log_score = _reference_infer(graph, model)
    assert got.expressed == want_expressed
    assert abs(got.log_score - want_log_score) < 1e-9


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
    return dcg.Model(model.kind, model.space, model.weights)


def test_perception_layout_reuse_matches_fresh_models(assets, space,
                                                      perception_model):
    padded = _padded_space(space, 750)
    model = _fresh(perception_model)
    assert model.perception_layout is None
    for tree in _bundled_trees(assets):
        for bank_space in (padded, padded, space, padded):
            graph = dcg.build_perception_graph(tree, bank_space)
            got = dcg.infer(graph, model)
            assert model.perception_layout[0] is bank_space.perception
            want = dcg.infer(graph, _fresh(perception_model))
            assert got.expressed == want.expressed
            assert got.log_score == want.log_score


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
    assert model.perception_layout[0] is second.perception
    want = dcg.infer(graph, _fresh(perception_model))
    assert (got.expressed, got.log_score) == (want.expressed, want.log_score)


def test_behavior_graphs_store_no_layout(space, behavior_model):
    world = WorldModel()
    world.integrate(_det("door", 5, 0, 1))
    graph = dcg.build_behavior_graph(load_parse_tree(OPEN), space, world)
    model = _fresh(behavior_model)
    dcg.infer(graph, model)
    dcg.infer(graph, model)
    assert model.perception_layout is None


def test_bank_with_separator_atom_raises_on_every_call(perception_model):
    bad = SymbolSpace(["a&b", "door"], [], ("navigate",))
    graph = dcg.build_perception_graph(load_parse_tree(OPEN), bad)
    model = _fresh(perception_model)
    for _ in range(3):
        with pytest.raises(dcg.GroundingError):
            dcg.infer(graph, model)
        assert model.perception_layout is None


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
    assert len(ex.gold) == 3
    ids = {j for (_, j) in ex.gold}
    assert ids == {
        ex.graph.bank.index(space.semantic("door")),
        ex.graph.bank.index(space.hierarchy("door", "handle")),
    }


def test_gold_phrase_index_bounds(space):
    raw = [{"tree": OPEN, "gold": [[7, {"label": "door"}]]}]
    with pytest.raises(dcg.CorpusError):
        dcg.build_examples("perception", raw, space)


def test_margins_match_direct_scores(space, perception_corpus):
    # flattened sparse arithmetic agrees with per-factor refeaturization
    rng = np.random.default_rng(5)
    w = rng.normal(size=perception_corpus.dim)
    fs = perception_corpus.feature_space
    got = perception_corpus.margins(w)
    k = 0
    for ex in perception_corpus.examples:
        graph = ex.graph
        gold_at = {p.index: {j for (i, j) in ex.gold if i == p.index}
                   for p in graph.tree.phrases_bottom_up()}
        for phrase in graph.tree.phrases_bottom_up():
            child_syms = set()
            for child in phrase.children:
                child_syms |= {graph.bank[j] for j in gold_at[child.index]}
            for sym in graph.bank:
                fv = fs.featurize(phrase, sym, child_syms, graph.world)
                want = float(w[list(fv.indices)].sum())
                assert abs(got[k] - want) < 1e-9
                k += 1
    assert k == perception_corpus.n_factors


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
    n_light = float(np.linalg.norm(light.model.weights))
    n_heavy = float(np.linalg.norm(heavy.model.weights))
    assert n_heavy < n_light


def test_zero_iterations_returns_zero_model(perception_corpus):
    result = dcg.train(perception_corpus, dcg.TrainConfig(iterations=0))
    assert result.iterations == 0
    assert not np.any(result.model.weights)
    assert len(result.objective_history) == 1


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
        gold_at = {p.index: {j for (i, j) in ex.gold if i == p.index}
                   for p in graph.tree.phrases_bottom_up()}
        for phrase in graph.tree.phrases_bottom_up():
            child_syms = set()
            for child in phrase.children:
                child_syms |= {graph.bank[j] for j in gold_at[child.index]}
            for j, sym in enumerate(graph.bank):
                stems = dcg.feature_names(phrase, sym, child_syms, graph.world)
                ti = ids([s + "&T" for s in stems])
                fi = ids([s + "&F" for s in stems])
                golds.append(float(j in gold_at[phrase.index]))
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
    assert corpus.feature_space.names == [n[:-2] for n in ref.names
                                          if n.endswith("&T")]
    assert corpus.golds.tolist() == ref.golds.tolist()
    assert (2 * corpus.counts).tolist() == ref.counts.tolist()
    names = corpus.feature_space.names
    assert [names[i] for i in corpus.flat_idx] == \
        [ref.names[i][:-2] for i, v in zip(ref.flat_idx, ref.flat_val) if v > 0]


def _two_sided_train(ref, iterations, step=1.0, l2=1e-3, tol=1e-9,
                     max_backtracks=40, armijo=1e-4):
    """Gradient ascent on the two-sided weights, evaluating the full
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
    history = [obj]
    stop = "iterations"
    it = 0
    for it in range(1, iterations + 1):
        grad = gradient(w)
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            stop = "zero_gradient"
            break
        trial = step
        for _ in range(max_backtracks):
            w_new = w + trial * grad
            obj_new = objective(w_new)
            if obj_new >= obj + armijo * trial * gnorm2:
                break
            trial *= 0.5
        else:
            stop = "line_search"
            break
        gain = obj_new - obj
        w, obj = w_new, obj_new
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
    # theta = w_T - w_F with half the l2 and twice the step takes the
    # two-sided factor's iterates exactly, up to rounding
    corpus = {"perception": perception_corpus, "behavior": behavior_corpus}[which]
    ref = _two_sided_compile(corpus.examples)
    w, history, it, stop, gnorm = _two_sided_train(ref, iterations)
    got = dcg.train(corpus, dcg.TrainConfig(iterations=iterations), kind=which)
    assert (got.iterations, got.stop) == (it, stop)
    assert len(got.objective_history) == len(history)
    assert np.allclose(got.objective_history, history, rtol=0.0, atol=1e-10)
    at = {n: i for i, n in enumerate(ref.names)}
    theta = np.array([w[at[n + "&T"]] - w[at[n + "&F"]]
                      for n in corpus.feature_space.names])
    assert np.allclose(got.model.weights, theta, rtol=0.0, atol=1e-10)
    assert got.grad_norm == pytest.approx(gnorm / math.sqrt(2.0), rel=1e-9)


@pytest.mark.parametrize("field,bad", [
    ("iterations", -3), ("iterations", 2.0), ("iterations", True),
    ("step", 0.0), ("step", -1.0), ("step", math.nan), ("step", math.inf),
    ("l2", -5.0), ("l2", math.nan), ("l2", math.inf),
    ("tol", -1e-9), ("tol", math.nan),
    ("max_backtracks", 0), ("max_backtracks", 1.5),
    ("armijo", 0.0), ("armijo", 1.0), ("armijo", math.nan),
])
def test_train_config_rejects_bad_values(field, bad):
    with pytest.raises(dcg.TrainingError, match=field):
        dcg.TrainConfig(**{field: bad})


def test_train_config_accepts_edges():
    dcg.TrainConfig(iterations=0, l2=0.0, tol=0.0, max_backtracks=1, step=1)


def test_training_reports_stop_reason_and_gradient_norm(perception_corpus,
                                                        perception_train):
    def norm_at(result, l2):
        g = dcg.ll_gradient(perception_corpus, np.array(result.model.weights), l2)
        return float(np.linalg.norm(g))

    l2 = dcg.TrainConfig().l2

    capped = perception_train
    assert (capped.stop, capped.converged) == ("iterations", False)
    assert capped.grad_norm == pytest.approx(norm_at(capped, l2), rel=1e-9)

    tol = dcg.train(perception_corpus, dcg.TrainConfig(tol=1.0))
    assert (tol.stop, tol.iterations, tol.converged) == ("tol", 1, True)
    assert tol.grad_norm == pytest.approx(norm_at(tol, l2), rel=1e-9)

    stuck = dcg.train(perception_corpus,
                      dcg.TrainConfig(step=1e6, max_backtracks=1))
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
