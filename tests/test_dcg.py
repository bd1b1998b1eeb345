from __future__ import annotations

import json
import math
import random

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
    names = dcg.feature_names(_door_np(), space.semantic("door"), True)
    assert "word:door&label:door&T" in names
    assert "tag:NN&category:semantic_label&T" in names


def test_three_way_feature_name_with_child(space):
    vp = load_parse_tree(OPEN).root
    names = dcg.feature_names(
        vp, space.hierarchy("door", "handle"), True,
        child_symbols={space.semantic("door")},
    )
    assert "verb:open&hier_subtype:handle&child_has:door&T" in names


def test_no_child_marker(space):
    names = dcg.feature_names(_door_np(), space.semantic("door"), True)
    assert any(n.endswith("&child_none&T") for n in names)


def test_true_false_sides_disjoint(space):
    phrase = _door_np()
    for sym in space.perception:
        t = set(dcg.feature_names(phrase, sym, True))
        f = set(dcg.feature_names(phrase, sym, False))
        assert not t & f
        assert len(t) == len(f)


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
        dcg.feature_names(phrase, space.semantic("door"), True)
    graph = dcg.build_perception_graph(load_parse_tree("(NP (NN a&b))"), space)
    fs = dcg.FeatureSpace(frozen=True)
    with pytest.raises(dcg.GroundingError):
        dcg.infer(graph, dcg.Model("perception", fs, np.zeros(0)))


def test_feature_space_grows_then_freezes(space):
    fs = dcg.FeatureSpace()
    fv = fs.featurize(_door_np(), space.semantic("door"), True)
    assert fs.dim == len(fv.indices) > 0
    fs.freeze()
    fv2 = fs.featurize(_door_np(), space.semantic("box"), True)
    # overlap (shared phrase atoms with known names) but no growth
    assert fs.dim == len(fv.indices)
    assert len(fv2.indices) < fs.dim or fs.dim == 0


def test_feature_space_rejects_duplicates():
    with pytest.raises(ValueError):
        dcg.FeatureSpace(["a&T", "a&T"])


# -- factor math -------------------------------------------------------------

def test_factor_prob_half_at_zero():
    fv = dcg.FeatureVector((0,), 2)
    fw = dcg.FeatureVector((1,), 2)
    assert dcg.factor_prob(fv, fw, np.zeros(2)) == 0.5


def test_factor_prob_ln3_margin():
    fv = dcg.FeatureVector((0,), 2)
    fw = dcg.FeatureVector((1,), 2)
    w = np.array([math.log(3.0), 0.0])
    assert abs(dcg.factor_prob(fv, fw, w) - 0.75) < 1e-12
    assert abs(dcg.factor_prob(fw, fv, w) - 0.25) < 1e-12


def test_factor_prob_exact_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim = int(rng.integers(1, 8))
        w = rng.normal(scale=4.0, size=dim)
        k_t = int(rng.integers(0, dim + 1))
        k_f = int(rng.integers(0, dim + 1))
        fv_t = dcg.FeatureVector(
            tuple(sorted(rng.choice(dim, size=k_t, replace=False))), dim)
        fv_f = dcg.FeatureVector(
            tuple(sorted(rng.choice(dim, size=k_f, replace=False))), dim)
        p = dcg.factor_prob(fv_t, fv_f, w)
        q = dcg.factor_prob(fv_f, fv_t, w)
        assert p + q == 1.0
        assert 0.0 < p < 1.0


def test_score_rejects_out_of_range_index():
    fv = dcg.FeatureVector((3,), 4)
    with pytest.raises(dcg.NumericError):
        dcg.factor_prob(fv, dcg.FeatureVector((), 4), np.zeros(2))


def test_score_rejects_non_finite():
    fv = dcg.FeatureVector((0,), 1)
    with pytest.raises(dcg.NumericError):
        dcg.factor_prob(fv, dcg.FeatureVector((), 1), np.array([math.inf]))


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
            fs.featurize(phrase, sym, True)
            fs.featurize(phrase, sym, False)
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
    sym_union = set()
    for p in tree.phrases_bottom_up():
        sym_union |= got.phrase_symbols(graph, p.index)
    assert sym_union == got.all_symbols(graph)
    variables = got.variables(graph)
    assert len(variables) == graph.factor_count
    true_vars = {(v.phrase_index, v.symbol_id) for v in variables if v.value}
    want = {(i, j) for i, ids in got.expressed.items() for j in ids}
    assert true_vars == want


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
    text = path.read_text().replace(
        f'"template_version": {dcg.TEMPLATE_VERSION}', '"template_version": 99')
    path.write_text(text)
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
    with pytest.raises(dcg.CorpusError):
        dcg.Model("perception", dcg.FeatureSpace(["word:door&T"]), np.zeros(1))
    with pytest.raises(dcg.NumericError):
        dcg.Model("perception", dcg.FeatureSpace(["a&b&T"]), np.zeros(2))


def test_model_weights_are_read_only(perception_model):
    with pytest.raises(ValueError):
        perception_model.weights[0] = 1.0


# -- folded inference against per-factor featurization -------------------------

def _reference_infer(graph, model):
    """Inference as a sum over named features: featurize both sides of
    every factor and sum each side's weights."""
    fs, w = model.space, model.weights
    expressed, by_index, log_score = {}, {}, 0.0
    for phrase in graph.tree.phrases_bottom_up():
        ctx: set = set()
        for child in phrase.children:
            ctx |= by_index[child.index]
        chosen = set()
        for j, sym in enumerate(graph.bank):
            s_t, s_f = (float(w[list(fs.featurize(phrase, sym, phi, ctx,
                                                   graph.world).indices)].sum())
                        for phi in (True, False))
            margin = s_t - s_f
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
                fv_t = fs.featurize(phrase, sym, True, child_syms, graph.world)
                fv_f = fs.featurize(phrase, sym, False, child_syms, graph.world)
                want = (float(w[list(fv_t.indices)].sum())
                        - float(w[list(fv_f.indices)].sum()))
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


def _reference_compile(examples):
    """The corpus build as two one-sided featurize calls per factor."""
    fs = dcg.FeatureSpace()
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
                ti = fs.featurize(phrase, sym, True, child_syms, graph.world).indices
                fi = fs.featurize(phrase, sym, False, child_syms, graph.world).indices
                golds.append(float(j in gold_at[phrase.index]))
                counts.append(len(ti) + len(fi))
                flat_idx += [*ti, *fi]
                flat_val += [1.0] * len(ti) + [-1.0] * len(fi)
    return fs.names, golds, counts, flat_idx, flat_val


@pytest.mark.parametrize("which", ["perception", "behavior"])
def test_compiled_corpus_matches_two_sided_featurize(which, perception_corpus,
                                                     behavior_corpus):
    corpus = {"perception": perception_corpus, "behavior": behavior_corpus}[which]
    names, golds, counts, flat_idx, flat_val = _reference_compile(corpus.examples)
    assert corpus.feature_space.names == names
    assert corpus.golds.tolist() == golds
    assert corpus.counts.tolist() == counts
    assert corpus.flat_idx.tolist() == flat_idx
    assert corpus.flat_val.tolist() == flat_val


def _reference_gradient(corpus, w, l2):
    m = corpus.margins(w)
    coef = corpus.golds - 1.0 / (1.0 + np.exp(-m))
    grad = np.zeros(len(w))
    np.add.at(grad, corpus.flat_idx,
              np.repeat(coef, corpus.counts) * corpus.flat_val)
    return grad - l2 * w


def _reference_train(corpus, config):
    """Gradient ascent that evaluates the full objective at every
    line-search trial: (weights, history, iterations, converged)."""
    w = np.zeros(corpus.dim)
    obj = dcg.log_likelihood(corpus, w, config.l2)
    history = [obj]
    converged = False
    it = 0
    for it in range(1, config.iterations + 1):
        grad = _reference_gradient(corpus, w, config.l2)
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            converged = True
            break
        step = config.step
        accepted = False
        for _ in range(config.max_backtracks):
            w_new = w + step * grad
            obj_new = dcg.log_likelihood(corpus, w_new, config.l2)
            if obj_new >= obj + config.armijo * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        gain = obj_new - obj
        w, obj = w_new, obj_new
        history.append(obj)
        if gain <= config.tol * (1.0 + abs(obj)):
            converged = True
            break
    return w, history, it, converged


@pytest.mark.parametrize("which,iterations", [("perception", 300),
                                              ("behavior", 40)])
def test_cached_margin_training_matches_reference(which, iterations,
                                                  perception_corpus,
                                                  behavior_corpus):
    corpus = {"perception": perception_corpus, "behavior": behavior_corpus}[which]
    config = dcg.TrainConfig(iterations=iterations)
    w, history, it, converged = _reference_train(corpus, config)
    got = dcg.train(corpus, config, kind=which)
    assert (got.iterations, got.converged) == (it, converged)
    assert len(got.objective_history) == len(history)
    assert np.allclose(got.objective_history, history, rtol=0.0, atol=1e-10)
    assert np.allclose(got.model.weights, w, rtol=0.0, atol=1e-10)


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

    capped = perception_train
    assert (capped.stop, capped.converged) == ("iterations", False)
    assert capped.grad_norm == pytest.approx(norm_at(capped, 1e-3), rel=1e-9)

    tol = dcg.train(perception_corpus, dcg.TrainConfig(tol=1.0))
    assert (tol.stop, tol.iterations, tol.converged) == ("tol", 1, True)
    assert tol.grad_norm == pytest.approx(norm_at(tol, 1e-3), rel=1e-9)

    stuck = dcg.train(perception_corpus,
                      dcg.TrainConfig(step=1e6, max_backtracks=1))
    assert (stuck.stop, stuck.iterations, stuck.converged) == \
        ("line_search", 1, True)
    assert len(stuck.objective_history) == 1
    assert stuck.grad_norm == pytest.approx(norm_at(stuck, 1e-3), rel=1e-9)

    zero = dcg.train(perception_corpus, dcg.TrainConfig(iterations=0))
    assert (zero.stop, zero.converged) == ("iterations", False)
    assert zero.grad_norm == pytest.approx(norm_at(zero, 1e-3), rel=1e-9)

    empty = dcg.train(dcg.CompiledCorpus([]))
    assert (empty.stop, empty.iterations, empty.grad_norm) == \
        ("zero_gradient", 1, 0.0)


def test_compile_corpus_from_path(space, assets):
    corpus = dcg.compile_corpus(assets / "perception_corpus.json", space)
    assert corpus.n_factors > 0
    assert corpus.feature_space.frozen
