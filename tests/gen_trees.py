"""Every instruction tree the bundled lexicon can say in the phrase shapes
of the bundled trees.

A tree is a verb with a direct object, a ``to`` phrase or a ``through``
phrase. The noun phrase is ``the NOUN``, nested with "of" up to a depth:
depth 1 gives "the handle of the door". Words come from the lexicon; the
shapes and their function words come from the bundled trees. Depth 1
gives 360 trees and depth 2 gives 1860, in a fixed order.
"""

from __future__ import annotations

import json
from pathlib import Path

LEXICON = (Path(__file__).resolve().parents[1]
           / "src" / "minworld" / "assets" / "lexicon.json")

# the three verb-phrase shapes of the bundled trees, and their nesting
VERB_PHRASES = (
    "(VP (VB {verb}) {np})",
    "(VP (VB {verb}) (PP (TO to) {np}))",
    "(VP (VB {verb}) (PP (IN through) {np}))",
)
NESTED_NP = "(NP {head} (PP (IN of) {np}))"


def _noun_phrases(lexicon: dict, depth: int) -> list[str]:
    base = [f"(NP (DT {det}) (NN {noun}))"
            for det in lexicon["DT"] for noun in lexicon["NN"]]
    out, inner = list(base), list(base)
    for _ in range(depth):
        inner = [NESTED_NP.format(head=head, np=np) for head in base for np in inner]
        out += inner
    return out


def generate(lexicon: dict, depth: int = 1) -> list[str]:
    """Every tree with noun phrases nested at most ``depth`` times."""
    for tag, word in (("TO", "to"), ("IN", "through"), ("IN", "of")):
        if word not in lexicon.get(tag, ()):
            raise ValueError(f"lexicon lacks {word!r} for tag {tag}")
    nps = _noun_phrases(lexicon, depth)
    return [shape.format(verb=verb, np=np)
            for shape in VERB_PHRASES for verb in lexicon["VB"] for np in nps]


def load_lexicon() -> dict:
    return json.loads(LEXICON.read_text(encoding="utf-8"))

