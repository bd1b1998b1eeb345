"""Correspondence factor graphs over parse trees and symbol banks.

Each phrase i and candidate symbol j get a boolean correspondence
variable phi_ij ("this phrase expresses that symbol"). A log-linear
factor scores each variable given the phrase, the symbol, and a summary
of what the phrase's children expressed, so the full objective factors
as a product over (phrase, symbol) pairs. Each factor is a logistic
regression: p(phi_ij = true) = sigmoid(margin), where the margin is the
sum of the weights theta of the factor's active features. Inference
walks phrases bottom-up and sets every variable to its own factor's
argmax under the already-fixed child assignments; training fits theta by
maximum likelihood on annotated corpora. Feature columns that occur in
exactly the same corpus rows share one training coordinate
(``CompiledCorpus.grouped``), so the optimizer moves one number per
group of identical columns.

Features are named conjunctions of phrase atoms, symbol atoms, and
child-summary atoms, one weight per conjunction. One template,
``_stems``, names them by joining the atoms with ``&`` (``p&s`` or
``p&s&c``), so no atom may contain ``&``.

A ``Model`` holds theta once, as a read-only map from conjunction name
to weight, and inference scores with that map folded instead of names.
Within one phrase the phrase and child atoms are fixed, so a factor's
margin is the sum, over the symbol's atoms s, of a_s = sum_p (theta[p,s]
+ sum_c theta[p,s,c]). Each ``Model`` folds its weights into a table
keyed s -> p -> c|None on first inference, and ``infer`` computes each
a_s once per phrase and each margin as a sum of 2-3 atom scores.
Training never folds: ``recovery`` scores the compiled corpus rows.

A behavior symbol names an action and a label, and a factor sees only
the symbol's atoms, never the world. A behavior bank holds one symbol
per action and world label, so it grows with the world's labels, not its
objects; ``ground_behavior`` acts on the chosen label's lowest object id.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .executive import BehaviorRequest
from .parse import ParseTree, Phrase, load_parse_tree
from .symbols import (
    BehaviorSymbol,
    DetectorSet,
    HierarchicalDetectorSymbol,
    IndependentDetectorSymbol,
    SymbolSpace,
    detectors_from_groundings,
)
from .world import WorldModel, finite_number, is_int, read_json

TEMPLATE_VERSION = 2
# curvature pairs the L-BFGS direction in ``train`` remembers
LBFGS_MEMORY = 10
# ``train`` stops when an iteration's objective gain falls under
# TOL * (1 + |objective|), or when none of MAX_BACKTRACKS trial steps,
# each half the last, passes the Armijo test gain >= ARMIJO * step * slope
TOL = 1e-9
MAX_BACKTRACKS = 40
ARMIJO = 1e-4


class NumericError(ArithmeticError):
    pass


class TrainingError(RuntimeError):
    pass


class CorpusError(ValueError):
    pass


class GroundingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# feature templates

def phrase_atoms(phrase: Phrase) -> list[str]:
    atoms = [f"phrase:{phrase.label}"]
    atoms += [f"word:{w}" for w, _ in phrase.words]
    atoms += [f"tag:{t}" for t in sorted({t for _, t in phrase.words})]
    atoms += [f"verb:{w}" for w, t in phrase.words if t == "VB"]
    seen: dict[str, None] = dict.fromkeys(atoms)
    return list(seen)


def symbol_atoms(symbol) -> list[str]:
    if isinstance(symbol, IndependentDetectorSymbol):
        return ["category:semantic_label", f"label:{symbol.value}"]
    if isinstance(symbol, HierarchicalDetectorSymbol):
        return [
            "kind:hierarchy",
            f"hier_parent:{symbol.parent_type}",
            f"hier_subtype:{symbol.subtype}",
        ]
    if isinstance(symbol, BehaviorSymbol):
        return [
            "kind:behavior",
            f"action:{symbol.action}",
            f"target_label:{symbol.label}",
        ]
    raise TypeError(f"not a symbol: {symbol!r}")


def child_atoms(child_symbols) -> list[str]:
    atoms: set[str] = set()
    for sym in child_symbols:
        if isinstance(sym, IndependentDetectorSymbol):
            atoms.add(f"child_has:{sym.value}")
        elif isinstance(sym, HierarchicalDetectorSymbol):
            atoms.add(f"child_has_hier:{sym.parent_type}.{sym.subtype}")
        elif isinstance(sym, BehaviorSymbol):
            atoms.add(f"child_has_behavior:{sym.action}.{sym.label}")
            atoms.add(f"child_has_target:{sym.label}")
    if not atoms:
        return ["child_none"]
    return sorted(atoms)


def _check_atoms(*groups) -> None:
    for atoms in groups:
        for a in atoms:
            if "&" in a:
                raise GroundingError(f"atom {a!r} contains '&', the feature "
                                     f"name separator")


def _context(phrase: Phrase, bank,
             expressed: Mapping[int, frozenset[int]]) -> tuple[list[str], list[str]]:
    """A phrase's atoms and the child atoms of the bank symbols its
    children express; ``expressed`` maps phrase index to bank ids."""
    ps = phrase_atoms(phrase)
    cs = child_atoms({bank[j] for child in phrase.children
                      for j in expressed[child.index]})
    _check_atoms(ps, cs)
    return ps, cs


def _stems(ps, ss, cs) -> list[str]:
    """Feature names of the conjunction template: every (phrase atom,
    symbol atom) pair ``p&s``, and then each pair with each child atom,
    ``p&s&c``."""
    _check_atoms(ps, ss, cs)
    pairs = [f"{p}&{s}" for p in ps for s in ss]
    return pairs + [f"{pair}&{c}" for pair in pairs for c in cs]


# ---------------------------------------------------------------------------
# graphs

@dataclass
class FactorGraph:
    """One factor per (phrase, symbol-bank entry) pair. Symbol ids are
    positions in the bank."""

    tree: ParseTree
    bank: tuple

    @property
    def factor_count(self) -> int:
        return self.tree.n_phrases * len(self.bank)


def build_perception_graph(tree: ParseTree, space: SymbolSpace) -> FactorGraph:
    # the space's own tuple, so every graph of one space shares one bank
    # object and ``infer`` reuses its layout
    return FactorGraph(tree, space.perception)


def build_behavior_graph(tree: ParseTree, space: SymbolSpace,
                         world: WorldModel) -> FactorGraph:
    """One symbol per action and distinct world label, in action order
    and then label order of first object id."""
    labels = dict.fromkeys(obj.label for obj in world.query())
    return FactorGraph(tree, tuple(BehaviorSymbol(a, label) for a in space.actions
                                   for label in labels))


@dataclass(frozen=True)
class Assignment:
    """Inferred correspondence values: per-phrase sets of expressed bank ids."""

    expressed: dict[int, frozenset[int]]

    def all_symbols(self, graph: FactorGraph) -> set:
        out: set = set()
        for ids in self.expressed.values():
            out |= {graph.bank[j] for j in ids}
        return out


def _fold(weights: Mapping[str, float]) -> dict:
    """The weight of every conjunction, keyed s -> p -> c|None; ``Model``
    has checked that every name is one."""
    table: dict[str, dict[str, dict[str | None, float]]] = {}
    shared: dict[str, str] = {}  # one string object per distinct child atom
    for name, w in weights.items():
        atoms = name.split("&")
        p, s = atoms[0], atoms[1]
        c = shared.setdefault(atoms[2], atoms[2]) if len(atoms) == 3 else None
        row = table.get(s)
        if row is None:
            row = table[s] = {}
        by_c = row.get(p)
        if by_c is None:
            by_c = row[p] = {}
        by_c[c] = w
    return table


@dataclass(frozen=True)
class Model:
    """Trained factor weights, as a read-only map from conjunction name
    to theta. Every name must be a conjunction of two or three atoms.
    ``folded`` is the weights folded by symbol atom, made on first
    inference; the map is a view of the model's own copy, so the fold
    cannot go stale.

    ``bank_layout`` is ``(bank, layout)`` for the last tuple bank
    ``infer`` laid out against this model, or None. The entry holds the
    bank itself, so a later bank cannot share its id.
    """

    kind: str
    weights: Mapping[str, float]
    bank_layout: tuple | None = field(default=None, init=False,
                                      repr=False, compare=False)

    def __post_init__(self):
        weights = MappingProxyType({n: float(w) for n, w in self.weights.items()})
        for name in weights:
            if name.count("&") not in (1, 2):
                raise CorpusError(f"feature name {name!r} is not a conjunction")
        object.__setattr__(self, "weights", weights)

    @cached_property
    def folded(self) -> dict:
        return _fold(self.weights)

    def save(self, path: str | Path) -> None:
        data = {
            "template_version": TEMPLATE_VERSION,
            "kind": self.kind,
            "weights": dict(self.weights),
        }
        Path(path).write_text(json.dumps(data, sort_keys=True,
                                         separators=(",", ":")) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Model":
        data = read_json(path, "model")
        if data.get("template_version") != TEMPLATE_VERSION:
            raise CorpusError(
                f"model template version {data.get('template_version')!r} "
                f"does not match {TEMPLATE_VERSION}")
        kind, weights = data["kind"], data["weights"]
        if kind not in ("perception", "behavior"):
            raise CorpusError(f"model kind {kind!r} must be perception or behavior")
        if not isinstance(weights, dict):
            raise CorpusError("model weights must be a JSON object")
        for name, w in weights.items():
            if not finite_number(w):
                raise CorpusError(f"weight for feature {name!r} must be a "
                                  f"finite number, got {w!r}")
        return cls(kind, weights)


def _layout(bank: tuple, table: dict) -> tuple:
    """The bank's atoms as one flat run of slots per symbol, as
    ``(flat_at, starts_at, known)``: slot k > 0 is ``known[k - 1]``, the
    k-th distinct atom the model knows, and slot 0 every other atom."""
    slot: dict[str, int] = {}
    flat: list[int] = []
    starts: list[int] = []
    for sym in bank:
        atoms = symbol_atoms(sym)
        _check_atoms(atoms)
        starts.append(len(flat))
        flat += [slot.setdefault(a, len(slot) + 1) if a in table else 0
                 for a in atoms]
    flat_at = np.array(flat, dtype=np.intp)
    starts_at = np.array(starts, dtype=np.intp)
    flat_at.flags.writeable = starts_at.flags.writeable = False
    return flat_at, starts_at, tuple(slot)


# an overflowing or inf - inf sum of atom scores is left to the check of
# the margins, so it prints one error line and no warning
@np.errstate(over="ignore", invalid="ignore")
def infer(graph: FactorGraph, model: Model) -> Assignment:
    """Bottom-up per-factor argmax under fixed child assignments.

    Ties (equal scores for both values) break to phi=false, so the zero
    model expresses nothing. Deterministic: pure arithmetic over a fixed
    traversal order.

    The bank's atom slots (``_layout``) depend only on the bank and the
    model. The model keeps the last tuple bank it laid out, with its
    layout, and reuses it while ``graph.bank`` is that same object. Every
    perception graph of one space holds the space's own tuple of frozen
    symbols, so a perception bank is laid out once per model.
    """
    table = model.folded
    bank = graph.bank
    cached = model.bank_layout
    if cached is not None and cached[0] is bank:
        layout = cached[1]
    else:
        layout = _layout(bank, table)
        if isinstance(bank, tuple):
            object.__setattr__(model, "bank_layout", (bank, layout))
    flat_at, starts_at, known = layout

    expressed: dict[int, frozenset[int]] = {}
    margins = []
    for phrase in graph.tree.phrases:
        ps, cs = _context(phrase, bank, expressed)
        atom_scores = [0.0]
        for s in known:
            # a_s summed in _stems' order: every p&s, then every p&s&c
            rows = [by_c for by_c in map(table[s].get, ps) if by_c is not None]
            a = 0.0
            for by_c in rows:
                a += by_c.get(None, 0.0)
            for by_c in rows:
                for c in cs:
                    a += by_c.get(c, 0.0)
            atom_scores.append(a)
        m = np.add.reduceat(np.array(atom_scores)[flat_at], starts_at)
        margins.append(m)
        expressed[phrase.index] = frozenset(np.flatnonzero(m > 0.0).tolist())
    if not np.isfinite(np.concatenate(margins)).all():
        raise NumericError("non-finite factor margin")
    return Assignment(expressed)


def ground_detectors(tree: ParseTree, model: Model,
                     space: SymbolSpace) -> DetectorSet:
    """Infer the minimal detector set the instruction needs."""
    graph = build_perception_graph(tree, space)
    expressed = infer(graph, model).all_symbols(graph)
    if not expressed:
        raise GroundingError(f"no detector symbols expressed for {tree.instruction!r}")
    return detectors_from_groundings(expressed)


def ground_behavior(tree: ParseTree, model: Model, space: SymbolSpace,
                    world: WorldModel) -> BehaviorRequest:
    """Infer the behavior the instruction requests over this world: the
    first expressed (action, label) at the root, on the label's lowest
    object id."""
    graph = build_behavior_graph(tree, space, world)
    if not graph.bank:
        raise GroundingError("world has no objects to ground against")
    chosen = sorted(infer(graph, model).expressed[tree.root.index])
    if not chosen:
        raise GroundingError("no behavior expressed at the root of "
                             f"{tree.instruction!r}")
    sym = graph.bank[chosen[0]]
    return BehaviorRequest(sym.action, world.query(sym.label)[0].id)


# ---------------------------------------------------------------------------
# corpora and training

@dataclass(frozen=True)
class TrainingExample:
    """One annotated instruction: its graph plus, for every phrase index,
    the bank ids whose variables are true (the shape of
    ``Assignment.expressed``)."""

    graph: FactorGraph
    gold: dict[int, frozenset[int]]


def _descriptor_ok(desc: dict) -> bool:
    """Whether a gold descriptor names a symbol with fields of the right
    types: a ``label``, a ``parent`` and ``subtype``, or an ``action``
    over an integer ``object``."""
    def strings(*keys):
        return all(isinstance(desc.get(k), str) for k in keys)

    if "label" in desc:
        return strings("label")
    if "parent" in desc:
        return strings("parent", "subtype")
    return strings("action") and is_int(desc.get("object"))


def _resolve_descriptor(desc: dict, graph: FactorGraph, space: SymbolSpace,
                        labels: Mapping[int, str]) -> int:
    """The bank id of a gold descriptor's symbol. ``labels`` maps the
    example's object ids to their labels; an action names its object's
    label."""
    if "label" in desc:
        sym = space.semantic(desc["label"])
    elif "parent" in desc:
        sym = space.hierarchy(desc["parent"], desc["subtype"])
    elif desc["object"] in labels:
        sym = BehaviorSymbol(desc["action"], labels[desc["object"]])
    else:
        raise CorpusError(f"gold object {desc['object']} not in the "
                          f"example's world")
    try:
        return graph.bank.index(sym)
    except ValueError:
        raise CorpusError(f"gold symbol {sym!r} not in graph bank") from None


def load_corpus(path: str | Path) -> tuple[str, list[dict]]:
    data = read_json(path, "corpus")
    kind = data.get("kind")
    if kind not in ("perception", "behavior"):
        raise CorpusError(f"corpus kind {kind!r} must be perception or behavior")
    examples = data.get("examples")
    if not examples:
        raise CorpusError("corpus has no examples")
    if not isinstance(examples, list):
        raise CorpusError("corpus examples must be a list")
    for i, ex in enumerate(examples):
        if not isinstance(ex, dict):
            raise CorpusError(f"example {i} must be a JSON object")
        if "tree" not in ex or "gold" not in ex:
            raise CorpusError(f"example {i} needs 'tree' and 'gold'")
        if not isinstance(ex["tree"], str) or not isinstance(ex["gold"], list):
            raise CorpusError(f"example {i}: 'tree' must be a string and 'gold' a list")
        for g in ex["gold"]:
            if not (isinstance(g, list) and len(g) == 2 and is_int(g[0])
                    and isinstance(g[1], dict) and _descriptor_ok(g[1])):
                raise CorpusError(
                    f"example {i}: gold entry {g!r} must be a [phrase index, "
                    "descriptor] pair, the descriptor a string label, a "
                    "string parent and subtype, or a string action and an "
                    "integer object")
        if kind == "perception" and "world" in ex:
            raise CorpusError(f"example {i}: perception corpora carry no worlds")
        if kind == "behavior" and "world" not in ex:
            raise CorpusError(f"example {i}: behavior corpora need worlds")
    return kind, examples


def build_examples(kind: str, raw_examples: list[dict],
                   space: SymbolSpace) -> list[TrainingExample]:
    out = []
    for i, raw in enumerate(raw_examples):
        tree = load_parse_tree(raw["tree"])
        if kind == "perception":
            graph, labels = build_perception_graph(tree, space), {}
        else:
            world = WorldModel.from_json(raw["world"])
            graph = build_behavior_graph(tree, space, world)
            labels = {obj_id: obj.label for obj_id, obj in world.objects.items()}
        gold: dict[int, set[int]] = {k: set() for k in range(tree.n_phrases)}
        for phrase_index, desc in raw["gold"]:
            if phrase_index not in gold:
                raise CorpusError(f"example {i}: phrase index {phrase_index} "
                                  f"outside tree")
            gold[phrase_index].add(_resolve_descriptor(desc, graph, space, labels))
        out.append(TrainingExample(graph, {k: frozenset(js) for k, js in gold.items()}))
    return out


class CorpusRows:
    """A corpus's distinct rows in one system of training coordinates.

    Row r reads the coordinates ``flat_idx[offsets[r]:offsets[r] +
    counts[r]]``, each times its ``scale``, and stands for ``pos[r]``
    factors that are gold true and ``neg[r]`` that are gold false. A
    weight vector has exactly ``n_coords`` entries.
    """

    def __init__(self, pos: np.ndarray, neg: np.ndarray, counts: np.ndarray,
                 flat_idx: np.ndarray, scale: np.ndarray):
        self.pos, self.neg, self.counts = pos, neg, counts
        self.offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self.flat_idx = flat_idx
        self.scale = scale

    @property
    def n_coords(self) -> int:
        return len(self.scale)

    def margins(self, w: np.ndarray) -> np.ndarray:
        """Per-row sum of the active coordinates' scaled weights."""
        _check_length(self, w)
        return np.add.reduceat((w * self.scale)[self.flat_idx], self.offsets) \
            if len(self.counts) else np.zeros(0)


def _check_length(rows: CorpusRows, w: np.ndarray) -> None:
    if len(w) != rows.n_coords:
        raise NumericError(f"weight vector has {len(w)} entries for "
                           f"{rows.n_coords} coordinates")


# the bit values of 32 consecutive rows in one word; a sum of distinct
# ones is an exact float
_ROW_BITS = 2.0 ** np.arange(31, -1, -1)


def _grouped(rows: CorpusRows) -> tuple[np.ndarray, CorpusRows]:
    """Group the columns of name-space ``rows`` by the set of rows they
    occur in: ``(group_of, grouped)``, each column's group, numbered in
    the order of the groups' first columns, and the rows over the
    groups.

    A column's row set is its bit string, 32 rows to a word; word b of
    every column is one ``bincount`` over the entries of rows 32b to
    32b + 31, and equal strings are found by ``np.unique``."""
    counts, flat_idx, offsets = rows.counts, rows.flat_idx, rows.offsets
    dim = rows.n_coords
    word = len(_ROW_BITS)
    bounds = offsets[::word].tolist() + [len(flat_idx)]
    width = len(bounds) - 1
    bits = np.empty((dim, width), dtype=np.uint32)
    for b in range(width):
        in_word = counts[word * b:word * (b + 1)]
        bits[:, b] = np.bincount(
            flat_idx[bounds[b]:bounds[b + 1]], minlength=dim,
            weights=np.repeat(_ROW_BITS[:len(in_word)], in_word))
    strings = bits.view(np.dtype((np.void, bits.itemsize * width))).ravel()
    _, first, inverse = np.unique(strings, return_index=True, return_inverse=True)
    is_first = np.zeros(dim, dtype=bool)
    is_first[first] = True
    # a group's number is its first column's rank among first columns
    rank = np.cumsum(is_first) - 1
    group_of = rank[first][inverse]
    # a row holds all of a group or none of it, so its groups' first
    # columns, already sorted, list its groups
    keep = is_first[flat_idx]
    return group_of, CorpusRows(
        rows.pos, rows.neg,
        np.add.reduceat(keep, offsets, dtype=int) if len(counts) else counts,
        rank[flat_idx[keep]],
        np.sqrt(np.bincount(group_of, minlength=len(first))))


class CompiledCorpus(CorpusRows):
    """Featurized corpus: the feature names in the order first seen,
    and the distinct rows (phrase context, symbol) with their active
    feature indices (positions in ``names``), flattened for vectorized
    math, each with two gold counts: ``pos`` factors of the row are
    gold true and ``neg`` gold false. As ``CorpusRows`` its coordinates
    are the names, each with scale 1.

    Each phrase's context comes from ``_context`` over the gold ids of
    its children, the walk ``infer`` makes over the ids it inferred.

    Each context (phrase atoms, child atoms) featurizes a symbol atom
    once, as the ids of ``_stems(ps, [s], cs)``, and makes each symbol's
    row once: its atoms' ids, sorted. Atoms new to a context are
    numbered in one ``_stems(ps, new, cs)`` pass, and each new atom's
    block is read from it; the rest are numbered already, so ``names``
    keeps the per-factor template's first-seen order. Factor k is row
    ``row_of[k]`` with gold value ``golds[k]``; ``n_factors`` counts
    factors, not rows. Factors are numbered as ``infer`` scores them:
    example by example, phrase by phrase, then by bank id. ``recovery``
    reads ``row_of`` and ``golds`` in that order.

    Columns that occur in exactly the same rows are one training
    coordinate. ``group_of`` maps each name to its group, numbered by
    first column, and ``grouped`` holds the same rows over the groups:
    each row lists its distinct groups, sorted, and a group of k
    columns sharing weight w has coordinate v = sqrt(k) w and scale
    sqrt(k). Dot products and norms in these coordinates equal those in
    name space.
    """

    def __init__(self, examples: list[TrainingExample]):
        self.examples = examples
        index: dict[str, int] = {}
        # (ps, cs) -> (symbol atom -> block, symbol -> row number)
        contexts: dict[tuple, tuple[dict, dict]] = {}
        row_of, golds, counts, flat_idx = [], [], [], []
        for ex in examples:
            bank = ex.graph.bank
            for phrase in ex.graph.tree.phrases:
                ps, cs = _context(phrase, bank, ex.gold)
                blocks, rows = contexts.setdefault((tuple(ps), tuple(cs)), ({}, {}))
                true_ids = ex.gold[phrase.index]
                for j, sym in enumerate(bank):
                    r = rows.get(sym)
                    if r is None:
                        atoms = symbol_atoms(sym)
                        new = [s for s in atoms if s not in blocks]
                        if new:  # _stems checks them for '&'
                            ids = [index.setdefault(n, len(index))
                                   for n in _stems(ps, new, cs)]
                            # _stems lists p&s over (p, s), then p&s&c
                            # over (p, s, c): atom t's ids sit every
                            # len(new)-th pair and every len(new)-th run
                            # of len(cs) triples
                            k, c = len(new), len(cs)
                            n_pairs = len(ps) * k
                            for t, s in enumerate(new):
                                blocks[s] = ids[t:n_pairs:k] + [
                                    i for at in range(n_pairs + t * c, len(ids), k * c)
                                    for i in ids[at:at + c]]
                        row = sorted([i for s in atoms for i in blocks[s]])
                        r = rows[sym] = len(counts)
                        counts.append(len(row))
                        flat_idx += row
                    row_of.append(r)
                    golds.append(j in true_ids)
        self.names = list(index)
        self.n_factors = len(golds)
        self.row_of = np.array(row_of, dtype=int)
        self.golds = np.array(golds, dtype=float)
        pos = np.bincount(self.row_of, weights=self.golds, minlength=len(counts))
        neg = np.bincount(self.row_of, minlength=len(counts)) - pos
        super().__init__(pos, neg, np.array(counts, dtype=int),
                         np.array(flat_idx, dtype=int), np.ones(len(index)))
        # free the lists and caches first: grouping must not add its
        # temporaries to them at the compile's peak
        del index, contexts, row_of, golds, counts, flat_idx
        self.group_of, self.grouped = _grouped(self)

    @property
    def dim(self) -> int:
        return len(self.names)


def log_likelihood(corpus: CorpusRows, w: np.ndarray, l2: float = 0.0,
                   m: np.ndarray | None = None) -> float:
    """Sum of per-factor log p(gold phi) minus (l2/2)|w|^2, as a row's
    margin m counted ``pos`` times gold true and ``neg`` times gold
    false: -pos softplus(-m) - neg softplus(m). ``w`` is in the
    coordinates of ``corpus``, the names of a ``CompiledCorpus`` or its
    ``grouped`` form; ``m`` is ``corpus.margins(w)`` when the caller
    already has it."""
    _check_length(corpus, w)
    if m is None:
        m = corpus.margins(w)
    lp = corpus.pos.dot(np.logaddexp(0.0, -m)) \
        + corpus.neg.dot(np.logaddexp(0.0, m))
    val = -float(lp) - 0.5 * l2 * float(w @ w)
    if not math.isfinite(val):
        raise NumericError("non-finite log-likelihood")
    return val


def ll_gradient(corpus: CorpusRows, w: np.ndarray, l2: float = 0.0,
                m: np.ndarray | None = None) -> np.ndarray:
    """Analytic gradient: sum over rows of (pos - (pos + neg) p_true)
    times the row's coordinates, each times its scale, minus l2 w;
    ``w`` and ``m`` as in ``log_likelihood``."""
    _check_length(corpus, w)
    if m is None:
        m = corpus.margins(w)
    with np.errstate(over="ignore"):
        p_true = 1.0 / (1.0 + np.exp(-m))
    coef = corpus.pos - (corpus.pos + corpus.neg) * p_true
    # not in place: bincount over an empty corpus returns integers
    return corpus.scale * np.bincount(
        corpus.flat_idx, weights=np.repeat(coef, corpus.counts),
        minlength=len(w)) - l2 * w


@dataclass(frozen=True)
class TrainConfig:
    """What ``minworld train`` can set."""

    iterations: int = 300
    step: float = 2.0
    l2: float = 5e-4

    def __post_init__(self):
        for name, ok, want in (
            ("iterations", is_int(self.iterations) and self.iterations >= 0,
             "an integer >= 0"),
            ("step", finite_number(self.step) and self.step > 0,
             "a finite number > 0"),
            ("l2", finite_number(self.l2) and self.l2 >= 0,
             "a finite number >= 0"),
        ):
            if not ok:
                raise TrainingError(f"{name} must be {want}, "
                                    f"got {getattr(self, name)!r}")


@dataclass
class TrainResult:
    model: Model
    objective_history: list[float]
    iterations: int
    # why training stopped: "zero_gradient", "tol" (an iteration's
    # objective gain fell under TOL * (1 + |obj|); theta itself is not
    # within a tolerance of the optimum), "line_search" (no backtracked
    # step passed the Armijo test) or "iterations" (the cap)
    stop: str
    grad_norm: float  # |gradient of the objective| at the returned weights

    @property
    def converged(self) -> bool:
        return self.stop != "iterations"


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """The two-loop recursion: the inverse-Hessian estimate of the last
    curvature pairs ``(s, y, s.y)`` applied to ``grad``, with H0 =
    (s.y)/(y.y) from the newest pair. y is the old gradient minus the
    new, so the result is an ascent direction. Every scaled pair vector
    is written into one scratch buffer."""
    q = grad.copy()
    scaled = np.empty_like(q)
    alphas = []
    for s, y, sy in reversed(pairs):
        a = s.dot(q) / sy
        alphas.append(a)
        q -= np.multiply(a, y, out=scaled)
    _, y, sy = pairs[-1]
    q *= sy / y.dot(y)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q += np.multiply(a - y.dot(q) / sy, s, out=scaled)
    return q


# an overflowing trial point is left to the checks of the objective and
# the gradient, so it prints one error line and no warning
@np.errstate(over="ignore", invalid="ignore")
def train(corpus: CompiledCorpus, config: TrainConfig = TrainConfig(),
          kind: str = "perception") -> TrainResult:
    """L-BFGS ascent (Liu & Nocedal, 1989) with backtracking line search.

    A step along the gradient (the first, or any taken while no
    curvature pair is stored or the quasi-Newton direction does not
    ascend) starts its line search at ``config.step``; a step along the
    two-loop direction starts at 1.0. The last ``LBFGS_MEMORY`` pairs
    with s.y > 0 are kept. Every accepted step satisfies the
    sufficient-increase condition, so the recorded objective history is
    non-decreasing. Non-finite values abort with the iteration number.

    Margins are linear in the weights, so a trial point v + step * d
    has margins m + step * margins(d): each iteration reads the sparse
    corpus twice (the margins of the direction, then the gradient at the
    accepted point) however many steps the line search tries. Both reads
    and every objective are over the corpus's distinct rows, each
    weighted by its gold counts, so a repeated (context, symbol) costs
    nothing per iteration.

    The loop runs in ``corpus.grouped``'s coordinates, one per group of
    identical feature columns. Started from zero, a group's weights stay
    equal in name space, and the change of variables v = sqrt(k) w is an
    isometry, so every step is the name-space step on fewer numbers.
    The model is written back as w = v / sqrt(k) for every name of a
    group, and ``grad_norm`` is the norm in the grouped coordinates,
    equal to the name-space norm.
    """
    l2 = config.l2
    rows = corpus.grouped

    def gradient_at(m, v):
        grad = ll_gradient(rows, v, l2, m)
        gnorm2 = float(grad @ grad)
        if not math.isfinite(gnorm2):
            raise NumericError("non-finite gradient")
        return grad, gnorm2

    v = np.zeros(rows.n_coords)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    stop = "iterations"
    it = 0
    try:
        m = rows.margins(v)
        obj = log_likelihood(rows, v, l2, m)
        grad, gnorm2 = gradient_at(m, v)
        history = [obj]
        for it in range(1, config.iterations + 1):
            if gnorm2 == 0.0:
                stop = "zero_gradient"
                break
            d, slope, step = grad, gnorm2, config.step
            if pairs:
                d_q = _lbfgs_direction(grad, pairs)
                slope_q = float(grad @ d_q)
                if slope_q > 0.0:
                    d, slope, step = d_q, slope_q, 1.0
            md = rows.margins(d)
            accepted = False
            for _ in range(MAX_BACKTRACKS):
                v_new = v + step * d
                m_new = m + step * md
                obj_new = log_likelihood(rows, v_new, l2, m_new)
                if obj_new >= obj + ARMIJO * step * slope:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                stop = "line_search"
                break
            gain = obj_new - obj
            grad_new, gnorm2 = gradient_at(m_new, v_new)
            s, y = v_new - v, grad - grad_new
            sy = float(s @ y)
            if sy > 0.0:
                pairs.append((s, y, sy))
            v, m, obj, grad = v_new, m_new, obj_new, grad_new
            history.append(obj)
            if gain <= TOL * (1.0 + abs(obj)):
                stop = "tol"
                break
    except NumericError as e:
        raise TrainingError(f"iteration {it}: {e}") from e
    theta = (v / rows.scale)[corpus.group_of]
    model = Model(kind, dict(zip(corpus.names, theta.tolist())))
    return TrainResult(model, history, it, stop, math.sqrt(gnorm2))


def recovery(corpus: CompiledCorpus, model: Model) -> float:
    """Fraction of corpus examples whose inferred assignment reproduces
    the gold assignment exactly (every variable, every phrase).

    Read from the compiled rows, without inference: ``infer`` reproduces
    an example's gold iff every factor of it, scored at its gold context,
    has margin > 0 exactly where gold is true. By induction over the
    post-order phrases, children inferred as gold give the phrase its
    gold context, and there the factor's margin is its row's. The two
    margins sum the same weights, in another order. A name the model
    lacks has weight 0, and a model weight the corpus never names is in
    no gold context. A non-finite margin raises ``NumericError``, as
    ``infer`` does."""
    examples = corpus.examples
    if not examples:
        return 1.0
    w = np.array([model.weights.get(n, 0.0) for n in corpus.names])
    with np.errstate(over="ignore", invalid="ignore"):
        m = corpus.margins(w)
    if not np.isfinite(m).all():
        raise NumericError("non-finite factor margin")
    wrong = (m[corpus.row_of] > 0.0) != (corpus.golds > 0.0)
    # factors are numbered example by example; bincount, not reduceat,
    # so an example of no factors (an empty bank) counts none wrong
    example_of = np.repeat(np.arange(len(examples)),
                           [ex.graph.factor_count for ex in examples])
    n_wrong = np.bincount(example_of, weights=wrong, minlength=len(examples))
    return int(np.count_nonzero(n_wrong == 0)) / len(examples)
