from __future__ import annotations

import gc
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minworld.parse import (
    Lexicon,
    LexiconViolation,
    TreeError,
    load_parse_tree,
    validate_against_lexicon,
)

DRIVE = "(VP (VB drive) (PP (TO to) (NP (DT the) (NN door))))"
OPEN = "(VP (VB open) (NP (DT the) (NN door)))"
TURN = ("(VP (VB turn) (NP (NP (DT the) (NN handle)) "
        "(PP (IN of) (NP (DT the) (NN door)))))")


def test_drive_tree_structure():
    tree = load_parse_tree(DRIVE)
    assert [p.label for p in tree.phrases] == ["NP", "PP", "VP"]
    assert tree.n_phrases == 3
    assert tree.instruction == "drive to the door"


def test_open_tree_structure():
    tree = load_parse_tree(OPEN)
    assert tree.n_phrases == 2
    assert [p.label for p in tree.phrases] == ["NP", "VP"]


def test_indices_are_postorder_and_contiguous():
    tree = load_parse_tree(TURN)
    phrases = tree.phrases
    assert [p.index for p in phrases] == [0, 1, 2, 3, 4]
    assert [p.label for p in phrases] == ["NP", "NP", "PP", "NP", "VP"]
    # exhaustive ancestor scan: every child index below its parent's
    def check(p):
        for c in p.children:
            assert c.index < p.index
            check(c)
    check(tree.root)
    assert tree.root is phrases[-1]
    # inner NP(the handle) precedes the wrapping NP
    assert phrases[0].words == (("the", "DT"), ("handle", "NN"))
    assert phrases[3].children[0] is phrases[0]


def test_words_are_direct_leaves_only():
    tree = load_parse_tree(DRIVE)
    vp = tree.root
    assert vp.words == (("drive", "VB"),)
    pp = vp.children[0]
    assert pp.words == (("to", "TO"),)


def test_whitespace_normalizes():
    tree = load_parse_tree("  (VP   (VB open)\n  (NP (DT the) (NN door))) ")
    assert tree == load_parse_tree(OPEN)


def test_words_lowercased():
    tree = load_parse_tree("(VP (VB Open) (NP (DT The) (NN Door)))")
    assert tree.instruction == "open the door"


def test_a_parse_leaves_nothing_for_the_cyclic_gc():
    # the recursive reader's closures would otherwise form a reference
    # cycle that outlives every parse
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        tree = load_parse_tree(TURN)
        assert tree.n_phrases == 5
        del tree
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_instruction_keeps_a_phrase_before_a_word_in_text_order():
    tree = load_parse_tree("(VP (NP (DT the) (NN door)) (VB open))")
    assert tree.instruction == "the door open"
    assert tree.root.words == (("open", "VB"),)
    assert [p.label for p in tree.root.children] == ["NP"]


# A generated node is (tag, word) for a leaf or (label, [node, ...]) for a
# phrase, so leaves and sub-phrases interleave in any order.
_LABEL = st.text(string.ascii_uppercase, min_size=1, max_size=3)
_WORD = st.text(string.ascii_letters, min_size=1, max_size=6)
_NODE = st.recursive(st.tuples(_LABEL, _WORD),
                     lambda node: st.tuples(_LABEL, st.lists(node, min_size=1,
                                                             max_size=4)),
                     max_leaves=12)
_TREE = st.tuples(_LABEL, st.lists(_NODE, min_size=1, max_size=4))


def _render(node, ws) -> str:
    """Bracketed text with ``ws(k)``, at least k whitespace characters,
    wherever whitespace may go."""
    label, body = node
    if isinstance(body, str):
        return f"({ws(0)}{label}{ws(1)}{body}{ws(0)})"
    return f"({ws(0)}{label}{''.join(ws(0) + _render(c, ws) for c in body)}{ws(0)})"


def _expected_phrases(node, out: list) -> int:
    """Append node's phrases to ``out`` in post-order as (label, direct
    leaves, child indices); return node's index."""
    label, body = node
    words, kids = [], []
    for child in body:
        if isinstance(child[1], str):
            words.append((child[1].lower(), child[0]))
        else:
            kids.append(_expected_phrases(child, out))
    out.append((label, tuple(words), tuple(kids)))
    return len(out) - 1


def _leaf_words(node) -> list[str]:
    label, body = node
    if isinstance(body, str):
        return [body.lower()]
    return [w for child in body for w in _leaf_words(child)]


@settings(database=None, derandomize=True, deadline=None)
@given(root=_TREE, seed=st.integers(0, 2**32 - 1))
def test_parse_property(root, seed):
    rnd = random.Random(seed)

    def ws(least: int) -> str:
        return "".join(rnd.choice(" \t\n") for _ in range(least + rnd.randrange(3)))

    tree = load_parse_tree(ws(0) + _render(root, ws) + ws(0))
    expected: list = []
    _expected_phrases(root, expected)
    assert [p.index for p in tree.phrases] == list(range(len(expected)))
    assert tree.n_phrases == len(expected)
    assert tree.root is tree.phrases[-1]
    for p in tree.phrases:
        for c in p.children:
            assert c.index < p.index and tree.phrases[c.index] is c
    assert [(p.label, p.words, tuple(c.index for c in p.children))
            for p in tree.phrases] == expected
    assert tree.instruction == " ".join(_leaf_words(root))
    assert load_parse_tree(_render(root, ws)) == tree


def test_missing_bracket_reports_offset():
    with pytest.raises(TreeError) as err:
        load_parse_tree("(NP (DT the) (NN door)")
    assert err.value.offset == len("(NP (DT the) (NN door)")


def test_empty_phrase_rejected():
    with pytest.raises(TreeError):
        load_parse_tree("(NP)")
    with pytest.raises(TreeError):
        load_parse_tree("(VP (VB open) (NP))")


def test_mixed_bare_words_rejected():
    with pytest.raises(TreeError):
        load_parse_tree("(NP the (NN door))")


def test_multiword_leaf_rejected():
    with pytest.raises(TreeError):
        load_parse_tree("(NN door frame)")


def test_lowercase_label_rejected():
    with pytest.raises(TreeError):
        load_parse_tree("(np (DT the) (NN door))")
    with pytest.raises(TreeError):
        load_parse_tree("(NP (dt the) (NN door))")


def test_trailing_text_rejected():
    with pytest.raises(TreeError) as err:
        load_parse_tree(OPEN + " extra")
    assert err.value.offset == len(OPEN) + 1


def test_bare_leaf_is_not_a_tree():
    with pytest.raises(TreeError):
        load_parse_tree("(NN door)")


def test_unknown_tags_accepted_structurally():
    tree = load_parse_tree("(XP (ZZ blorp))")
    assert tree.instruction == "blorp"


@pytest.fixture
def lexicon(assets):
    return Lexicon.from_json(assets / "lexicon.json")


def test_valid_tree_has_no_violations(lexicon):
    for text in (DRIVE, OPEN, TURN):
        assert validate_against_lexicon(load_parse_tree(text), lexicon) == []


def test_unknown_word_flagged(lexicon):
    tree = load_parse_tree("(VP (VB open) (NP (DT the) (NN window)))")
    violations = validate_against_lexicon(tree, lexicon)
    assert violations == [LexiconViolation(phrase_index=0, tag="NN", word="window")]


def test_violations_come_bottom_up_by_phrase(lexicon):
    # the NP's word comes before the verb that precedes it in the text
    tree = load_parse_tree("(VP (VB jump) (NP (DT the) (NN window)))")
    assert validate_against_lexicon(tree, lexicon) == [
        LexiconViolation(phrase_index=0, tag="NN", word="window"),
        LexiconViolation(phrase_index=1, tag="VB", word="jump"),
    ]
    tree = load_parse_tree(TURN.replace("handle", "lever").replace("turn", "spin")
                           .replace("door", "gate"))
    assert [v.word for v in validate_against_lexicon(tree, lexicon)] == [
        "lever", "gate", "spin"]


def test_empty_lexicon_flags_every_leaf():
    tree = load_parse_tree(DRIVE)
    violations = validate_against_lexicon(tree, Lexicon({}))
    assert len(violations) == 4
    assert {v.word for v in violations} == {"drive", "to", "the", "door"}


def test_lexicon_rejects_empty_entry():
    with pytest.raises(ValueError):
        Lexicon({"NN": frozenset()})
