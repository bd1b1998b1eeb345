"""Randomized cross-check of bottom-up inference against an independent
exhaustive enumerator (small graphs, every joint block scored)."""

from __future__ import annotations

from minworld import dcg

from helpers_oracle import (
    enumerate_assignment,
    factor_features,
    graph_kind,
    hash_model,
    random_graph,
)


def test_inference_matches_exhaustive_enumeration():
    nontrivial = 0
    kinds = set()
    for seed in range(60):
        graph = random_graph(seed)
        kinds.add(graph_kind(graph))
        model = hash_model(graph, salt=f"s{seed}")
        got = dcg.infer(graph, model).expressed
        want = enumerate_assignment(graph, model)
        assert got == want, f"seed {seed}: {got} != {want}"
        if any(ids for ids in got.values()):
            nontrivial += 1
    # the sweep must actually exercise both graph kinds and real choices
    assert nontrivial >= 20
    assert kinds == {"perception", "behavior"}


def test_oracle_prefers_false_on_ties():
    graph = random_graph(0)
    model = dcg.Model(graph_kind(graph), {
        n: 0.0 for phrase in graph.tree.phrases
        for sym in graph.bank
        for n in factor_features(phrase, sym, set())})
    want = enumerate_assignment(graph, model)
    assert all(not ids for ids in want.values())
    got = dcg.infer(graph, model).expressed
    assert got == want
