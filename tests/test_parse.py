from __future__ import annotations

import pytest

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
    phrases = tree.phrases_bottom_up()
    assert [p.label for p in phrases] == ["NP", "PP", "VP"]
    assert tree.n_phrases == 3
    assert [w for w, _ in tree.root.leaves()] == ["drive", "to", "the", "door"]
    assert tree.instruction == "drive to the door"


def test_open_tree_structure():
    tree = load_parse_tree(OPEN)
    assert tree.n_phrases == 2
    assert [p.label for p in tree.phrases_bottom_up()] == ["NP", "VP"]


def test_indices_are_postorder_and_contiguous():
    tree = load_parse_tree(TURN)
    phrases = tree.phrases_bottom_up()
    assert [p.index for p in phrases] == [0, 1, 2, 3, 4]
    assert [p.label for p in phrases] == ["NP", "NP", "PP", "NP", "VP"]
    # exhaustive ancestor scan: every child index below its parent's
    def check(p):
        for c in p.children:
            assert c.index < p.index
            check(c)
    check(tree.root)
    # inner NP(the handle) precedes the wrapping NP
    assert phrases[0].words == (("the", "DT"), ("handle", "NN"))
    assert phrases[3].children[0] is phrases[0]


def test_words_are_direct_leaves_only():
    tree = load_parse_tree(DRIVE)
    vp = tree.root
    assert vp.words == (("drive", "VB"),)
    pp = vp.children[0]
    assert pp.words == (("to", "TO"),)


def test_roundtrip_serialization():
    for text in (DRIVE, OPEN, TURN):
        tree = load_parse_tree(text)
        assert tree.serialize() == text
        again = load_parse_tree(tree.serialize())
        assert again.serialize() == tree.serialize()


def test_whitespace_normalizes():
    tree = load_parse_tree("  (VP   (VB open)\n  (NP (DT the) (NN door))) ")
    assert tree.serialize() == OPEN


def test_words_lowercased():
    tree = load_parse_tree("(VP (VB Open) (NP (DT The) (NN Door)))")
    assert tree.instruction == "open the door"


def test_leaf_concat_matches_instruction():
    tree = load_parse_tree(TURN)
    assert " ".join(w for w, _ in tree.root.leaves()) == tree.instruction


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


def test_empty_lexicon_flags_every_leaf():
    tree = load_parse_tree(DRIVE)
    violations = validate_against_lexicon(tree, Lexicon({}))
    assert len(violations) == 4
    assert {v.word for v in violations} == {"drive", "to", "the", "door"}


def test_lexicon_rejects_empty_entry():
    with pytest.raises(ValueError):
        Lexicon({"NN": frozenset()})
