"""Constituency parse trees for natural-language instructions.

Instructions arrive as bracketed text, e.g.::

    (VP (VB open) (NP (DT the) (NN door)))

A leaf is ``(TAG word)``; everything else is a phrase. Phrases get
post-order indices, so walking phrases in index order always visits
children before their parent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .world import json_object


class TreeError(ValueError):
    """Malformed bracketed-tree text; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Phrase:
    """One internal node of the parse tree.

    ``words`` holds the phrase's direct leaves as (word, tag) pairs and
    ``children`` its nested phrases. ``index`` is the post-order position.
    """

    label: str
    words: tuple[tuple[str, str], ...]
    children: tuple["Phrase", ...]
    index: int


@dataclass(frozen=True)
class ParseTree:
    """A tree as its phrases in post-order, so ``phrases[i].index == i``,
    children come before their parent and the root is last;
    ``instruction`` is the leaf words in text order."""

    phrases: tuple[Phrase, ...]
    instruction: str

    @property
    def root(self) -> Phrase:
        return self.phrases[-1]

    @property
    def n_phrases(self) -> int:
        return len(self.phrases)


def _check_label(label: str, what: str, offset: int) -> None:
    if not label or not label.isalpha() or label != label.upper():
        raise TreeError(f"{what} {label!r} is not uppercase-alphabetic", offset)


def load_parse_tree(text: str) -> ParseTree:
    """Parse one bracketed tree; raises TreeError with a char offset."""
    s = text
    n = len(s)
    phrases: list[Phrase] = []
    leaf_words: list[str] = []  # in text order

    def skip_ws(i: int) -> int:
        while i < n and s[i].isspace():
            i += 1
        return i

    def read_token(i: int) -> tuple[str, int]:
        j = i
        while j < n and not s[j].isspace() and s[j] not in "()":
            j += 1
        if j == i:
            raise TreeError("expected a token", i)
        return s[i:j], j

    def read_node(i: int) -> tuple[Phrase | tuple[str, str], int]:
        # s[i] == '(' on entry
        start = i
        i = skip_ws(i + 1)
        label, i = read_token(i)
        i = skip_ws(i)
        bare: list[str] = []
        nodes: list[Phrase | tuple[str, str]] = []
        while i < n and s[i] != ")":
            if s[i] == "(":
                node, i = read_node(i)
                nodes.append(node)
            else:
                tok, i = read_token(i)
                bare.append(tok)
            i = skip_ws(i)
        if i >= n:
            raise TreeError("unbalanced bracket, missing ')'", n)
        i += 1  # consume ')'
        if bare and nodes:
            raise TreeError("bare words mixed with nested phrases", start)
        if len(bare) > 1:
            raise TreeError("leaf with more than one word", start)
        if bare:
            _check_label(label, "POS tag", start)
            word = bare[0].lower()
            leaf_words.append(word)
            return (word, label), i
        if not nodes:
            raise TreeError("empty phrase", start)
        _check_label(label, "phrase label", start)
        phrase = Phrase(label,
                        tuple(x for x in nodes if not isinstance(x, Phrase)),
                        tuple(x for x in nodes if isinstance(x, Phrase)),
                        len(phrases))
        phrases.append(phrase)
        return phrase, i

    try:
        i = skip_ws(0)
        if i >= n or s[i] != "(":
            raise TreeError("expected '('", i)
        node, i = read_node(i)
    finally:
        # read_node reaches itself through its closure cell; emptying the
        # cell frees the closures by reference counting, not the cyclic GC
        del read_node
    i = skip_ws(i)
    if i != n:
        raise TreeError("trailing text after tree", i)
    if not isinstance(node, Phrase):
        # a single leaf like "(NN door)" is not an instruction
        raise TreeError("tree has no phrase structure", 0)
    return ParseTree(tuple(phrases), " ".join(leaf_words))


@dataclass(frozen=True)
class Lexicon:
    """Known words per POS tag. Every stored set is non-empty."""

    entries: dict[str, frozenset[str]]

    def __post_init__(self):
        for tag, words in self.entries.items():
            _check_label(tag, "POS tag", 0)
            if not words:
                raise ValueError(f"lexicon entry {tag} is empty")

    @classmethod
    def from_json(cls, path: str | Path) -> "Lexicon":
        raw = json_object(json.loads(Path(path).read_text(encoding="utf-8")),
                          "lexicon")
        for tag, words in raw.items():
            if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
                raise ValueError(f"lexicon entry {tag} must be a list of strings")
        return cls({tag: frozenset(w.lower() for w in words)
                    for tag, words in raw.items()})


@dataclass(frozen=True)
class LexiconViolation:
    phrase_index: int
    tag: str
    word: str


def validate_against_lexicon(tree: ParseTree, lexicon: Lexicon) -> list[LexiconViolation]:
    """Leaves whose word is not listed for their tag, phrase by phrase
    bottom-up (children before parents), in word order within a phrase."""
    out = []
    for phrase in tree.phrases:
        for word, tag in phrase.words:
            if word not in lexicon.entries.get(tag, frozenset()):
                out.append(LexiconViolation(phrase.index, tag, word))
    return out
