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
maximum likelihood on annotated corpora.

Features are named conjunctions of phrase atoms, symbol atoms, and
child-summary atoms, one weight per conjunction. One template,
``_conjunctions``, yields the (phrase, symbol, child-or-None) atom
triples; training joins them into names with ``&`` (``p&s`` or
``p&s&c``), so no atom may contain ``&``.

Inference scores with folded weights instead of names. Within one phrase
the phrase and child atoms are fixed, so a factor's margin is the sum,
over the symbol's atoms s, of a_s = sum_p (theta[p,s] + sum_c
theta[p,s,c]). Each ``Model`` folds its weights into a table keyed
s -> p -> c|None once, and ``infer`` computes each a_s once per phrase
and each margin as a sum of 2-3 atom scores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .parse import ParseTree, Phrase, load_parse_tree
from .symbols import (
    BehaviorSymbol,
    HierarchicalDetectorSymbol,
    IndependentDetectorSymbol,
    SymbolSpace,
)
from .world import WorldModel, finite_number

TEMPLATE_VERSION = 2


class NumericError(ArithmeticError):
    pass


class TrainingError(RuntimeError):
    pass


class CorpusError(ValueError):
    pass


class GroundingError(RuntimeError):
    pass


@dataclass(frozen=True)
class FeatureVector:
    """Active binary feature indices, sorted ascending."""

    indices: tuple[int, ...]
    dim: int


# ---------------------------------------------------------------------------
# feature templates

def phrase_atoms(phrase: Phrase) -> list[str]:
    atoms = [f"phrase:{phrase.label}"]
    atoms += [f"word:{w}" for w, _ in phrase.words]
    atoms += [f"tag:{t}" for t in sorted({t for _, t in phrase.words})]
    atoms += [f"verb:{w}" for w, t in phrase.words if t == "VB"]
    seen: dict[str, None] = dict.fromkeys(atoms)
    return list(seen)


def _target_label(target: int, world: WorldModel | None) -> str:
    if world is not None and target in world.objects:
        return world.objects[target].label
    return f"object{target}"


def symbol_atoms(symbol, world: WorldModel | None = None) -> list[str]:
    if isinstance(symbol, IndependentDetectorSymbol):
        return [f"category:{symbol.category}", f"label:{symbol.value}"]
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
            f"target_label:{_target_label(symbol.target_a, world)}",
        ]
    raise TypeError(f"not a symbol: {symbol!r}")


def child_atoms(child_symbols, world: WorldModel | None = None) -> list[str]:
    atoms: set[str] = set()
    for sym in child_symbols:
        if isinstance(sym, IndependentDetectorSymbol):
            atoms.add(f"child_has:{sym.value}")
        elif isinstance(sym, HierarchicalDetectorSymbol):
            atoms.add(f"child_has_hier:{sym.parent_type}.{sym.subtype}")
        elif isinstance(sym, BehaviorSymbol):
            label = _target_label(sym.target_a, world)
            atoms.add(f"child_has_behavior:{sym.action}.{label}")
            atoms.add(f"child_has_target:{label}")
    if not atoms:
        return ["child_none"]
    return sorted(atoms)


def _check_atoms(*groups) -> None:
    for atoms in groups:
        for a in atoms:
            if "&" in a:
                raise GroundingError(f"atom {a!r} contains '&', the feature "
                                     f"name separator")


def _conjunctions(ps, ss, cs) -> list[tuple[str, str, str | None]]:
    """The conjunction template: every (phrase atom, symbol atom) pair,
    alone (child None) and then with each child atom."""
    _check_atoms(ps, ss, cs)
    pairs = [(p, s) for p in ps for s in ss]
    return ([(p, s, None) for p, s in pairs]
            + [(p, s, c) for p, s in pairs for c in cs])


def _stems(ps, ss, cs) -> list[str]:
    """Feature names of the conjunction template."""
    return [f"{p}&{s}" if c is None else f"{p}&{s}&{c}"
            for p, s, c in _conjunctions(ps, ss, cs)]


def feature_names(phrase: Phrase, symbol, child_symbols=frozenset(),
                  world: WorldModel | None = None) -> list[str]:
    """Expand the conjunction template for one factor."""
    return _stems(phrase_atoms(phrase), symbol_atoms(symbol, world),
                  child_atoms(child_symbols, world))


class FeatureSpace:
    """Feature-name registry. Grows while compiling a corpus, then
    frozen; a frozen registry skips unknown names, which carry zero
    weight."""

    def __init__(self, names=(), frozen: bool = False):
        self._index: dict[str, int] = {n: i for i, n in enumerate(names)}
        if len(self._index) != len(tuple(names)):
            raise ValueError("duplicate feature names")
        self.frozen = frozen

    @property
    def dim(self) -> int:
        return len(self._index)

    @property
    def names(self) -> list[str]:
        return list(self._index)

    def freeze(self) -> None:
        self.frozen = True

    def _indices(self, names: list[str]) -> tuple[int, ...]:
        """Sorted indices of ``names``, registering new ones in order
        unless frozen."""
        index = self._index
        idx = []
        for name in names:
            i = index.get(name)
            if i is None:
                if self.frozen:
                    continue
                i = index[name] = len(index)
            idx.append(i)
        return tuple(sorted(idx))

    def featurize(self, phrase: Phrase, symbol, child_symbols=frozenset(),
                  world: WorldModel | None = None) -> FeatureVector:
        names = feature_names(phrase, symbol, child_symbols, world)
        return FeatureVector(self._indices(names), self.dim)


# ---------------------------------------------------------------------------
# graphs

@dataclass
class FactorGraph:
    """One factor per (phrase, symbol-bank entry) pair. Symbol ids are
    positions in the bank. Perception banks ignore the world entirely;
    behavior banks are instantiated over the world's objects."""

    tree: ParseTree
    bank: tuple
    kind: str
    world: WorldModel | None = None

    @property
    def factor_count(self) -> int:
        return self.tree.n_phrases * len(self.bank)


def build_perception_graph(tree: ParseTree, space: SymbolSpace) -> FactorGraph:
    # the space's own tuple, so every graph of one space shares one bank
    # object and ``infer`` reuses its layout
    return FactorGraph(tree, space.perception, "perception")


def build_behavior_graph(tree: ParseTree, space: SymbolSpace,
                         world: WorldModel) -> FactorGraph:
    objects = world.query()
    bank = tuple(
        BehaviorSymbol(action, obj.id)
        for action in space.actions
        for obj in objects
    )
    return FactorGraph(tree, bank, "behavior", world)


@dataclass(frozen=True)
class Assignment:
    """Inferred correspondence values: per-phrase sets of expressed bank
    ids, plus the total conditional log-probability."""

    expressed: dict[int, frozenset[int]]
    log_score: float

    def all_symbols(self, graph: FactorGraph) -> set:
        out: set = set()
        for ids in self.expressed.values():
            out |= {graph.bank[j] for j in ids}
        return out


def _fold(names: list[str], weights: np.ndarray) -> dict:
    """The weight of every conjunction, keyed s -> p -> c|None."""
    table: dict[str, dict[str, dict[str | None, float]]] = {}
    shared: dict[str, str] = {}  # one string object per distinct child atom
    for name, w in zip(names, weights.tolist()):
        atoms = name.split("&")
        if len(atoms) not in (2, 3):
            raise CorpusError(f"feature name {name!r} is not a conjunction")
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
    """Trained factor weights bound to their feature-name registry, plus
    the weights folded by symbol atom for inference. The weights are
    read-only so the fold cannot go stale.

    ``perception_layout`` is ``(bank, layout)`` for the last world-free
    bank ``infer`` laid out against this model, or None. The entry holds
    the bank itself, so a later bank cannot share its id.
    """

    kind: str
    space: FeatureSpace
    weights: np.ndarray
    folded: dict = field(init=False, repr=False, compare=False)
    perception_layout: tuple | None = field(default=None, init=False,
                                            repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.space.dim,):
            raise NumericError(f"{w.size} weights for {self.space.dim} features")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "folded", _fold(self.space.names, w))

    def save(self, path: str | Path) -> None:
        names = self.space.names
        data = {
            "template_version": TEMPLATE_VERSION,
            "kind": self.kind,
            "weights": {n: float(self.weights[i]) for i, n in enumerate(names)},
        }
        Path(path).write_text(json.dumps(data, sort_keys=True,
                                         separators=(",", ":")) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Model":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("template_version") != TEMPLATE_VERSION:
            raise CorpusError(
                f"model template version {data.get('template_version')!r} "
                f"does not match {TEMPLATE_VERSION}")
        kind, weights = data["kind"], data.pop("weights")
        names = sorted(weights)
        try:
            w = np.array([weights[n] for n in names], dtype=float)
        except (TypeError, ValueError) as e:
            raise CorpusError(f"non-numeric weight: {e}") from None
        if not np.isfinite(w).all():
            bad = names[int(np.flatnonzero(~np.isfinite(w))[0])]
            raise CorpusError(f"non-finite weight for feature {bad!r}")
        # free the parsed file before folding, so the fold reuses its memory
        del data, weights
        return cls(kind, FeatureSpace(names, frozen=True), w)


def _layout(bank: tuple, world: WorldModel | None, table: dict) -> tuple:
    """The bank's atoms as one flat run of slots per symbol, as
    ``(flat_at, starts_at, known)``: slot k > 0 is ``known[k - 1]``, the
    k-th distinct atom the model knows, and slot 0 every other atom."""
    slot: dict[str, int] = {}
    flat: list[int] = []
    starts: list[int] = []
    for sym in bank:
        atoms = symbol_atoms(sym, world)
        _check_atoms(atoms)
        starts.append(len(flat))
        flat += [slot.setdefault(a, len(slot) + 1) if a in table else 0
                 for a in atoms]
    flat_at = np.array(flat, dtype=np.intp)
    starts_at = np.array(starts, dtype=np.intp)
    flat_at.flags.writeable = starts_at.flags.writeable = False
    return flat_at, starts_at, tuple(slot)


def infer(graph: FactorGraph, model: Model) -> Assignment:
    """Bottom-up per-factor argmax under fixed child assignments.

    Ties (equal scores for both values) break to phi=false, so the zero
    model expresses nothing. Deterministic: pure arithmetic over a fixed
    traversal order.

    The bank's atom slots (``_layout``) depend on the world only through
    behavior symbols' targets. A world-free tuple bank, such as a
    perception graph's (the space's own tuple of frozen symbols), is laid
    out once per model: the model keeps the last such bank with its
    layout and reuses it while ``graph.bank`` is that same object. Banks
    over a world are laid out on every call.
    """
    table = model.folded
    world_free = graph.world is None and isinstance(graph.bank, tuple)
    cached = model.perception_layout
    if world_free and cached is not None and cached[0] is graph.bank:
        layout = cached[1]
    else:
        layout = _layout(graph.bank, graph.world, table)
        if world_free:
            object.__setattr__(model, "perception_layout", (graph.bank, layout))
    flat_at, starts_at, known = layout

    expressed: dict[int, frozenset[int]] = {}
    margins = []
    by_index: dict[int, set] = {}
    for phrase in graph.tree.phrases_bottom_up():
        child_syms: set = set()
        for child in phrase.children:
            child_syms |= by_index[child.index]
        score = dict.fromkeys(known, 0.0)
        for p, s, c in _conjunctions(phrase_atoms(phrase), known,
                                     child_atoms(child_syms, graph.world)):
            by_c = table[s].get(p)
            if by_c is not None:
                score[s] += by_c.get(c, 0.0)
        atom_scores = np.array([0.0, *score.values()])
        m = np.add.reduceat(atom_scores[flat_at], starts_at)
        margins.append(m)
        chosen = np.flatnonzero(m > 0.0).tolist()
        expressed[phrase.index] = frozenset(chosen)
        by_index[phrase.index] = {graph.bank[j] for j in chosen}
    all_m = np.concatenate(margins)
    if not np.isfinite(all_m).all():
        raise NumericError("non-finite factor margin")
    # log p(phi = argmax) = -log(1 + exp(-|margin|)), ties included
    log_score = -float(np.logaddexp(0.0, -np.abs(all_m)).sum())
    return Assignment(expressed, log_score)


# ---------------------------------------------------------------------------
# corpora and training

@dataclass(frozen=True)
class TrainingExample:
    """One annotated instruction: its graph plus the gold set of
    (phrase_index, bank_id) pairs whose variables are true."""

    graph: FactorGraph
    gold: frozenset[tuple[int, int]]


def _resolve_descriptor(desc: dict, graph: FactorGraph, space: SymbolSpace) -> int:
    if "label" in desc:
        sym = space.semantic(desc["label"])
    elif "parent" in desc:
        sym = space.hierarchy(desc["parent"], desc["subtype"])
    elif "action" in desc:
        sym = BehaviorSymbol(desc["action"], int(desc["object"]))
    else:
        raise CorpusError(f"unintelligible gold descriptor {desc!r}")
    try:
        return graph.bank.index(sym)
    except ValueError:
        raise CorpusError(f"gold symbol {sym!r} not in graph bank") from None


def load_corpus(path: str | Path) -> tuple[str, list[dict]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = data.get("kind")
    if kind not in ("perception", "behavior"):
        raise CorpusError(f"corpus kind {kind!r} must be perception or behavior")
    examples = data.get("examples")
    if not examples:
        raise CorpusError("corpus has no examples")
    for i, ex in enumerate(examples):
        if "tree" not in ex or "gold" not in ex:
            raise CorpusError(f"example {i} needs 'tree' and 'gold'")
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
            graph = build_perception_graph(tree, space)
        else:
            world = WorldModel.from_json(raw["world"])
            graph = build_behavior_graph(tree, space, world)
        gold = set()
        for entry in raw["gold"]:
            phrase_index, desc = entry
            if not 0 <= int(phrase_index) < tree.n_phrases:
                raise CorpusError(f"example {i}: phrase index {phrase_index} "
                                  f"outside tree")
            gold.add((int(phrase_index), _resolve_descriptor(desc, graph, space)))
        out.append(TrainingExample(graph, frozenset(gold)))
    return out


class CompiledCorpus:
    """Featurized corpus: per-factor gold values and active feature
    indices, flattened for vectorized math.

    Child conditioning during compilation uses the gold assignments of
    the children, matching what inference reconstructs once trained.
    """

    def __init__(self, examples: list[TrainingExample]):
        self.examples = examples
        self.feature_space = fs = FeatureSpace()
        golds, counts, flat_idx = [], [], []
        for ex in examples:
            graph = ex.graph
            gold_at = {p.index: {j for (i, j) in ex.gold if i == p.index}
                       for p in graph.tree.phrases_bottom_up()}
            for phrase in graph.tree.phrases_bottom_up():
                child_syms: set = set()
                for child in phrase.children:
                    child_syms |= {graph.bank[j] for j in gold_at[child.index]}
                ps = phrase_atoms(phrase)
                cs = child_atoms(child_syms, graph.world)
                for j, sym in enumerate(graph.bank):
                    idx = fs._indices(
                        _stems(ps, symbol_atoms(sym, graph.world), cs))
                    golds.append(j in gold_at[phrase.index])
                    counts.append(len(idx))
                    flat_idx += idx
        fs.freeze()
        self.n_factors = len(golds)
        self.golds = np.array(golds, dtype=float)
        self.counts = np.array(counts, dtype=int)
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)[:-1]))
        self.flat_idx = np.array(flat_idx, dtype=int)

    @property
    def dim(self) -> int:
        return self.feature_space.dim

    def margins(self, w: np.ndarray) -> np.ndarray:
        """Per-factor sum of the active features' weights."""
        if len(w) < self.dim:
            raise NumericError("weight vector shorter than feature space")
        return np.add.reduceat(w[self.flat_idx], self.offsets) \
            if self.n_factors else np.zeros(0)


def _objective(corpus: CompiledCorpus, m: np.ndarray, w: np.ndarray,
               l2: float) -> float:
    """``log_likelihood`` at ``w``, given its margins ``m``."""
    signed = np.where(corpus.golds > 0.5, m, -m)
    lp = -np.logaddexp(0.0, -signed)
    val = float(lp.sum()) - 0.5 * l2 * float(w @ w)
    if not math.isfinite(val):
        raise NumericError("non-finite log-likelihood")
    return val


def _gradient(corpus: CompiledCorpus, m: np.ndarray, w: np.ndarray,
              l2: float) -> np.ndarray:
    """``ll_gradient`` at ``w``, given its margins ``m``."""
    with np.errstate(over="ignore"):
        p_true = 1.0 / (1.0 + np.exp(-m))
    coef = corpus.golds - p_true
    # not in place: bincount over an empty corpus returns integers
    return np.bincount(corpus.flat_idx, weights=np.repeat(coef, corpus.counts),
                       minlength=len(w)) - l2 * w


def log_likelihood(corpus: CompiledCorpus, w: np.ndarray, l2: float = 0.0) -> float:
    """Sum of per-factor log p(gold phi) minus (l2/2)|w|^2."""
    return _objective(corpus, corpus.margins(w), w, l2)


def ll_gradient(corpus: CompiledCorpus, w: np.ndarray, l2: float = 0.0) -> np.ndarray:
    """Analytic gradient: sum over factors of (1_gold - p_true) times
    the factor's features, minus l2 w."""
    return _gradient(corpus, corpus.margins(w), w, l2)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 300
    step: float = 2.0
    l2: float = 5e-4
    tol: float = 1e-9
    max_backtracks: int = 40
    armijo: float = 1e-4

    def __post_init__(self):
        def count_from(value, low: int) -> bool:
            return (isinstance(value, int) and not isinstance(value, bool)
                    and value >= low)

        for name, ok, want in (
            ("iterations", count_from(self.iterations, 0), "an integer >= 0"),
            ("step", finite_number(self.step) and self.step > 0,
             "a finite number > 0"),
            ("l2", finite_number(self.l2) and self.l2 >= 0,
             "a finite number >= 0"),
            ("tol", finite_number(self.tol) and self.tol >= 0,
             "a finite number >= 0"),
            ("max_backtracks", count_from(self.max_backtracks, 1),
             "an integer >= 1"),
            ("armijo", finite_number(self.armijo) and 0 < self.armijo < 1,
             "a number in (0, 1)"),
        ):
            if not ok:
                raise TrainingError(f"{name} must be {want}, "
                                    f"got {getattr(self, name)!r}")


@dataclass
class TrainResult:
    model: Model
    objective_history: list[float]
    iterations: int
    # why training stopped: "zero_gradient", "tol" (the gain fell under
    # tol), "line_search" (no backtracked step passed the Armijo test) or
    # "iterations" (the cap)
    stop: str
    grad_norm: float  # |gradient of the objective| at the returned weights

    @property
    def converged(self) -> bool:
        return self.stop != "iterations"


def train(corpus: CompiledCorpus, config: TrainConfig = TrainConfig(),
          kind: str = "perception") -> TrainResult:
    """Batch gradient ascent with backtracking line search.

    Every accepted step satisfies the sufficient-increase condition, so
    the recorded objective history is non-decreasing. Non-finite values
    abort with the iteration number.

    Margins are linear in the weights, so a trial point w + step * grad
    has margins m + step * margins(grad): each iteration reads the sparse
    corpus twice (the margins of the gradient, then the gradient at the
    accepted point) however many steps the line search tries.
    """
    l2 = config.l2

    def gradient_at(m, w):
        grad = _gradient(corpus, m, w, l2)
        gnorm2 = float(grad @ grad)
        if not math.isfinite(gnorm2):
            raise NumericError("non-finite gradient")
        return grad, gnorm2

    w = np.zeros(corpus.dim)
    stop = "iterations"
    it = 0
    try:
        m = corpus.margins(w)
        obj = _objective(corpus, m, w, l2)
        grad, gnorm2 = gradient_at(m, w)
        history = [obj]
        for it in range(1, config.iterations + 1):
            if gnorm2 == 0.0:
                stop = "zero_gradient"
                break
            mg = corpus.margins(grad)
            step = config.step
            accepted = False
            for _ in range(config.max_backtracks):
                w_new = w + step * grad
                m_new = m + step * mg
                obj_new = _objective(corpus, m_new, w_new, l2)
                if obj_new >= obj + config.armijo * step * gnorm2:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                stop = "line_search"
                break
            gain = obj_new - obj
            w, m, obj = w_new, m_new, obj_new
            history.append(obj)
            grad, gnorm2 = gradient_at(m, w)
            if gain <= config.tol * (1.0 + abs(obj)):
                stop = "tol"
                break
    except NumericError as e:
        raise TrainingError(f"iteration {it}: {e}") from e
    model = Model(kind, corpus.feature_space, w)
    return TrainResult(model, history, it, stop, math.sqrt(gnorm2))


def recovery(corpus: CompiledCorpus, model: Model) -> float:
    """Fraction of corpus examples whose inferred assignment reproduces
    the gold assignment exactly (every variable, every phrase)."""
    if not corpus.examples:
        return 1.0
    hits = 0
    for ex in corpus.examples:
        got = infer(ex.graph, model)
        want = {p.index: frozenset(j for (i, j) in ex.gold if i == p.index)
                for p in ex.graph.tree.phrases_bottom_up()}
        if got.expressed == want:
            hits += 1
    return hits / len(corpus.examples)
