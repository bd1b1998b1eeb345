from __future__ import annotations

import gc
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minworld.parse import (
    MAX_NESTING,
    Lexicon,
    LexiconViolation,
    TreeError,
    load_parse_tree,
    validate_against_lexicon,
)
from minworld.world import WorldError, read_json

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
    # a parse frees all it built by reference counting; the reader keeps
    # no closure or stack entry that could form a cycle
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


# Every TreeError the reader raises, with its exact text and offset. An
# error inside a phrase is raised when that phrase closes, so the first
# bad phrase in text order wins.
TREE_ERRORS = [
    ("", "expected '('", 0),
    ("  \n\t", "expected '('", 4),
    ("door (VP (VB open))", "expected '('", 0),
    (" ) (VP (VB open))", "expected '('", 1),
    ("(", "expected a token", 1),
    ("(VP (VB open) (", "expected a token", 15),
    ("( (NN door))", "expected a token", 2),
    ("(VP (VB open) ())", "expected a token", 15),
    ("(NP (DT the) (NN door)", "unbalanced bracket, missing ')'", 22),
    (OPEN[:-1], "unbalanced bracket, missing ')'", len(OPEN) - 1),
    ("(NP the (NN door))", "bare words mixed with nested phrases", 0),
    ("(VP (VB open) (NP (NN door) the))",
     "bare words mixed with nested phrases", 14),
    ("(NN door frame)", "leaf with more than one word", 0),
    ("(VP (VB open) (NP (DT the) (NN door frame)))",
     "leaf with more than one word", 27),
    ("(NP (dt the) (NN door))", "POS tag 'dt' is not uppercase-alphabetic", 4),
    ("(VP (VB open) (NP (D1 the) (NN door)))",
     "POS tag 'D1' is not uppercase-alphabetic", 18),
    ("(np (DT the) (NN door))",
     "phrase label 'np' is not uppercase-alphabetic", 0),
    ("(VP (VB open) (Np (DT the) (NN door)))",
     "phrase label 'Np' is not uppercase-alphabetic", 14),
    ("(VP (np (DT the)) (NN door frame)",
     "phrase label 'np' is not uppercase-alphabetic", 4),
    ("(NP)", "empty phrase", 0),
    ("(VP (VB open) (NP))", "empty phrase", 14),
    (OPEN + " extra", "trailing text after tree", len(OPEN) + 1),
    (OPEN + ")", "trailing text after tree", len(OPEN)),
    (OPEN + " (NN x)", "trailing text after tree", len(OPEN) + 1),
    ("(NN door) x", "trailing text after tree", 10),
    ("(NN door)", "tree has no phrase structure", 0),
    (" (NN door) ", "tree has no phrase structure", 0),
]


@pytest.mark.parametrize("text,message,offset", TREE_ERRORS)
def test_tree_error_message_and_offset(text, message, offset):
    with pytest.raises(TreeError) as err:
        load_parse_tree(text)
    assert (str(err.value), err.value.offset) == (
        f"{message} (offset {offset})", offset)


def _nested(depth: int) -> str:
    """A tree ``depth`` brackets deep: a verb over nested noun phrases."""
    return "(VP (VB open) " + "(NP " * (depth - 2) + "(NN door)" + ")" * (depth - 1)


def test_a_tree_at_max_nesting_parses():
    tree = load_parse_tree(_nested(MAX_NESTING))
    assert tree.n_phrases == MAX_NESTING - 1
    assert tree.instruction == "open door"


def test_one_bracket_past_max_nesting_fails_at_that_bracket():
    text = _nested(MAX_NESTING + 1)
    offset = text.index("(NN door)")
    with pytest.raises(TreeError) as err:
        load_parse_tree(text)
    assert (str(err.value), err.value.offset) == (
        f"tree nested deeper than {MAX_NESTING} brackets (offset {offset})",
        offset)


def test_a_tree_at_max_nesting_compares_hashes_and_prints():
    # Phrase's dataclass methods recurse once per level of nesting
    tree, again = load_parse_tree(_nested(MAX_NESTING)), load_parse_tree(
        _nested(MAX_NESTING))
    assert tree == again and tree is not again
    assert hash(tree) == hash(again)
    assert repr(tree.root).count("Phrase(") == MAX_NESTING - 1


@pytest.mark.parametrize("text", ["[]", "null", "3", '"x"', "true"])
def test_read_json_requires_an_object(tmp_path, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    with pytest.raises(WorldError, match="^thing must be a JSON object, got "):
        read_json(path, "thing")


def test_read_json_reports_deep_nesting_as_a_world_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000 + "]" * 2000)
    with pytest.raises(WorldError, match="maximum recursion depth exceeded"):
        read_json(path, "thing")


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
