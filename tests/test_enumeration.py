"""Family enumeration against an independent brute-force oracle."""

import sys

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from helpers import brute_force_members  # noqa: E402

from shifted_tableaux.core import ShiftedSkewShape, reading_word, render_text
from shifted_tableaux.engine import skew_families, straight_families
from shifted_tableaux.enumeration import (enumerate_tableaux, skew_shapes,
                                          straight_shapes)


def test_golden_two_cell_row():
    fam = enumerate_tableaux(ShiftedSkewShape((2,), ()), 2)
    assert [render_text(t) for t in fam] == ["1 1", "1 2", "2 2"]


def test_reading_word_lex_order():
    """Members come out of the search strictly increasing in their reading
    words, with no sort afterwards."""
    for shape in skew_shapes(6, include_straight=True):
        fam = enumerate_tableaux(shape, 3)
        keys = [tuple(e.order_key for e in reading_word(t)) for t in fam]
        assert all(a < b for a, b in zip(keys, keys[1:])), shape


@pytest.mark.parametrize("n", range(5))
def test_keys_are_valid_canonical_fillings(n):
    """Every enumerated key is the key of the validated tableau member
    builds from it, over the preset families: membership by key, which
    verification relies on, rests on the enumerator alone."""
    for family in straight_families(n) + skew_families(n, include_straight=True):
        assert tuple(t.key for t in family) == family.keys, family.shape


def test_oracle_equivalence_small():
    for shape in skew_shapes(4, 3, include_straight=True):
        for n in (2, 3):
            assert set(enumerate_tableaux(shape, n)) == \
                brute_force_members(shape, n), (shape, n)


def test_straight_shapes_bounded():
    shapes = straight_shapes(10, 4)
    outers = {s.outer for s in shapes}
    assert (4, 3, 2, 1) in outers
    assert all(not s.inner for s in shapes)
    assert all(sum(s.outer) <= 10 and max(s.outer, default=0) <= 4
               for s in shapes)


def test_skew_shapes_deduped_and_sized():
    shapes = skew_shapes(3, 3)
    seen = set()
    for s in shapes:
        assert 1 <= len(s.cells) <= 3
        assert frozenset(s.cells) not in seen
        seen.add(frozenset(s.cells))


def test_empty_family_for_overfull_shape():
    # the hook shape (2,1) admits no filling over a single letter family
    shape = ShiftedSkewShape((2, 1), ())
    assert len(enumerate_tableaux(shape, 1)) == 0


def test_empty_shape_has_one_member():
    for n in (0, 3):
        fam = enumerate_tableaux(ShiftedSkewShape(), n)
        assert len(fam) == 1 and fam.member(0).entries == ()


def test_member_is_built_on_the_family_key():
    fam = enumerate_tableaux(ShiftedSkewShape((3, 1), (1,)), 3)
    for x in range(len(fam)):
        assert fam.member(x).key is fam.keys[x]


def test_no_letters_no_members():
    assert len(enumerate_tableaux(ShiftedSkewShape((2, 1)), 0)) == 0


def test_negative_alphabet_rejected():
    with pytest.raises(ValueError):
        enumerate_tableaux(ShiftedSkewShape((2,)), -1)
