"""Constituency parse trees for natural-language instructions.

Instructions arrive as bracketed text, e.g.::

    (VP (VB open) (NP (DT the) (NN door)))

A leaf is ``(TAG word)``; everything else is a phrase. Phrases get
post-order indices, so walking phrases in index order always visits
children before their parent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .world import read_json

# how many brackets deep a tree may nest; the bundled, corpus and generated
# trees nest at most 8
MAX_NESTING = 100


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
    """Parse one bracketed tree; raises TreeError with a char offset.
    The reader keeps a stack of open brackets, so a tree nested deeper
    than MAX_NESTING brackets fails at the bracket that goes past it."""
    phrases: list[Phrase] = []
    leaf_words: list[str] = []  # in text order
    # per open bracket: its offset, label, bare words and closed nodes
    stack: list[tuple[int, str, list[str], list]] = []
    root = None
    tokens = re.finditer(r"[()]|[^\s()]+", text)
    for m in tokens:
        token = m.group()
        if root is not None:
            raise TreeError("trailing text after tree", m.start())
        if token == "(":
            if len(stack) == MAX_NESTING:
                raise TreeError(f"tree nested deeper than {MAX_NESTING} "
                                "brackets", m.start())
            head = next(tokens, None)
            if head is None or head.group() in "()":
                raise TreeError("expected a token",
                                len(text) if head is None else head.start())
            stack.append((m.start(), head.group(), [], []))
        elif not stack:
            raise TreeError("expected '('", m.start())
        elif token != ")":
            stack[-1][2].append(token)
        else:
            start, label, bare, nodes = stack.pop()
            if bare and nodes:
                raise TreeError("bare words mixed with nested phrases", start)
            if len(bare) > 1:
                raise TreeError("leaf with more than one word", start)
            if bare:
                _check_label(label, "POS tag", start)
                node = (bare[0].lower(), label)
                leaf_words.append(node[0])
            else:
                if not nodes:
                    raise TreeError("empty phrase", start)
                _check_label(label, "phrase label", start)
                node = Phrase(label,
                              tuple(x for x in nodes if not isinstance(x, Phrase)),
                              tuple(x for x in nodes if isinstance(x, Phrase)),
                              len(phrases))
                phrases.append(node)
            if stack:
                stack[-1][3].append(node)
            else:
                root = node
    if root is None:
        raise TreeError("unbalanced bracket, missing ')'" if stack
                        else "expected '('", len(text))
    if not isinstance(root, Phrase):
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
        raw = read_json(path, "lexicon")
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
