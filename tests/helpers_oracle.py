"""Shared test helpers: randomized factor graphs and an independent
exhaustive-enumeration oracle for inference."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from minworld import dcg, parse, symbols
from minworld.world import Aabb, Pose, WorldModel, WorldObject

VERBS = ["open", "drive", "grab", "poke"]
NOUN_POOL = ["door", "box", "ball", "cup", "jar", "bin"]


def hash_weight(name: str, salt: str) -> float:
    digest = hashlib.sha1(f"{salt}|{name}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    return 4.0 * u - 2.0


def _rand_phrase(rng, budget: list[int], nouns, depth: int) -> str:
    # consumes one phrase from the budget, maybe nesting more
    budget[0] -= 1
    label = rng.choice(["NP", "VP", "PP"])
    tag = {"NP": "NN", "VP": "VB", "PP": "IN"}[label]
    word = rng.choice(VERBS) if tag == "VB" else rng.choice(nouns + ["of", "to"])
    parts = [f"({tag} {word})"]
    while budget[0] > 0 and depth < 3 and rng.random() < 0.7:
        parts.append(_rand_phrase(rng, budget, nouns, depth + 1))
        if rng.random() < 0.5:
            break
    return f"({label} " + " ".join(parts) + ")"


def random_graph(seed: int):
    """A random graph with at most 12 correspondence variables, mixing
    perception and behavior banks."""
    rng = np.random.default_rng(seed)
    n_labels = int(rng.integers(2, 5))
    labels = list(rng.choice(NOUN_POOL, n_labels, replace=False))
    pairs = []
    if n_labels >= 2 and rng.random() < 0.6:
        a, b = rng.choice(labels, 2, replace=False)
        pairs.append((a, b))
    behavior = rng.random() < 0.35
    if behavior:
        actions = sorted(str(a) for a in rng.choice(
            symbols.ACTIONS, int(rng.integers(1, 3)), replace=False))
        n_objects = int(rng.integers(1, 4))
        bank_size = len(actions) * n_objects
    else:
        actions = list(symbols.ACTIONS)
        bank_size = n_labels + len(pairs)
    n_phrases = max(1, min(4, 12 // max(bank_size, 1)))
    budget = [n_phrases]
    text = _rand_phrase(rng, budget, labels, 0)
    tree = parse.load_parse_tree(text)
    space = symbols.SymbolSpace(labels, pairs, actions)
    if behavior:
        objects = []
        for i in range(n_objects):
            x, y = rng.uniform(-3, 3, 2)
            objects.append(WorldObject(
                i + 1, str(rng.choice(labels)), Pose(float(x), float(y), 0.5),
                Aabb((float(x) - 0.3, float(y) - 0.3, 0.0),
                     (float(x) + 0.3, float(y) + 0.3, 1.0))))
        world = WorldModel(objects)
        graph = dcg.build_behavior_graph(tree, space, world)
    else:
        graph = dcg.build_perception_graph(tree, space)
    assert graph.factor_count <= 12
    return graph


def hash_model(graph, salt: str) -> dcg.Model:
    """Weights for every feature reachable from any child context,
    derived per-name from a hash so discovery order cannot matter."""
    fs = dcg.FeatureSpace()
    bank_sets = [frozenset(combo)
                 for r in range(len(graph.bank) + 1)
                 for combo in itertools.combinations(graph.bank, r)]
    for phrase in graph.tree.phrases_bottom_up():
        for sym in graph.bank:
            for ctx in bank_sets:
                fs.featurize(phrase, sym, set(ctx), graph.world)
    fs.freeze()
    w = np.array([hash_weight(n, salt) for n in fs.names])
    return dcg.Model(graph.kind, fs, w)


def enumerate_assignment(graph, model) -> dict[int, frozenset[int]]:
    """Independent oracle: exhaustively enumerate every phrase's joint
    block of correspondence variables (recursing into children first so
    the conditioning contexts match inference's), keeping the first
    maximizer in false-first lexicographic order. A variable scores the
    weights of its factor's features when true and 0 when false."""
    w = model.weights
    fs = model.space
    result: dict[int, frozenset[int]] = {}

    def solve(phrase) -> set:
        ctx: set = set()
        for child in phrase.children:
            ctx |= solve(child)
        best_bits = None
        best_score = -math.inf
        for bits in itertools.product((False, True), repeat=len(graph.bank)):
            score = 0.0
            for j, value in enumerate(bits):
                if value:
                    fv = fs.featurize(phrase, graph.bank[j], ctx, graph.world)
                    score += float(w[list(fv.indices)].sum()) if fv.indices else 0.0
            if score > best_score:
                best_bits, best_score = bits, score
        chosen = frozenset(j for j, v in enumerate(best_bits) if v)
        result[phrase.index] = chosen
        return {graph.bank[j] for j in chosen}

    solve(graph.tree.root)
    return result
