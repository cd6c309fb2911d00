"""Family enumeration against an independent brute-force oracle."""

import hashlib
import itertools
import sys

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from helpers import (brute_force_members, layout_of, skew_families,  # noqa: E402
                     straight_families)

from shifted_tableaux.core import ShiftedSkewShape, reading_word, render_text
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
    """Every enumerated layout is the layout of the validated tableau
    member builds from it, over the preset families: membership by
    layout, which verification relies on, rests on the enumerator
    alone."""
    for family in straight_families(n) + skew_families(n, include_straight=True):
        assert [layout_of(t) for t in family] == list(family.layouts), family.shape


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


@pytest.mark.parametrize("shapes, count, digest", [
    (lambda: straight_shapes(10, 4), 15,
     "ca609e9951fe6d47421ed644e3b0387a1bfdb98225defff49fdab443d04a033e"),
    (lambda: straight_shapes(9, 4), 14,
     "b6cdc2e99ef8ef7e03915b6479d17d83f0177371e90a4bbe863bec0b043da475"),
    (lambda: skew_shapes(5, 4), 66,
     "1c83c8d87435f538272f418f63bf393fe0a5f44856fa66d3eb2d8a7dd3073d52"),
    (lambda: skew_shapes(5, 4, True), 74,
     "58356ea6b5f46a3b54eb721392a4e2c7af09840e0ed06d3b13f6bb395e0a4d48"),
    (lambda: skew_shapes(9, 4, True), 94,
     "c8f3eff338b4050aac03cbe4061303c75bc125b85903aee59beb14a614155a1f"),
    (lambda: skew_shapes(10), 70941,
     "e0318ecbdc0a9d4d046cef51fed4e003f19e770c7f39b492c092ffa463b7540f"),
    (lambda: straight_shapes(64), 158744,
     "89f7b1b88f36763c221fa551e8cd692b7b559d8b8fdc9017e85f1fd267aca917"),
], ids=["straight-10-4", "straight-9-4", "skew-5-4", "skew-5-4-straight",
        "skew-9-4-straight", "skew-10", "straight-64"])
def test_shape_lists_are_pinned(shapes, count, digest):
    """Each shape list's (outer, inner) pairs, in order, pinned by
    SHA-256: the order decides which pair names each skew cell set, and
    every preset and search walks these lists."""
    pairs = [(s.outer, s.inner) for s in shapes()]
    assert len(pairs) == count
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


@pytest.mark.parametrize("max_part", [None, 1, 2, 3, 4, 5, 6])
def test_straight_shapes_match_subsets(max_part):
    """A strict partition is a set of distinct parts: the straight shapes
    are the nonempty subsets of 1..max_part within the cell bound, each
    read largest part first, ordered by (cells, parts)."""
    for max_cells in range(13):
        cap = max_part or max_cells
        want = [tuple(reversed(c)) for k in range(1, cap + 1)
                for c in itertools.combinations(range(1, cap + 1), k) if sum(c) <= max_cells]
        want.sort(key=lambda s: (sum(s), s))
        assert [s.outer for s in straight_shapes(max_cells, max_part)] == want, max_cells
        assert all(not s.inner for s in straight_shapes(max_cells, max_part))


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
    """member(x)'s key is read off layout x at its cells' places in the
    global numbering, (r, c) at c(c-1)/2 + r - 1."""
    shape = ShiftedSkewShape((3, 1), (1,))
    fam = enumerate_tableaux(shape, 3)
    places = [c * (c - 1) // 2 + r - 1 for r, c in shape.sorted_cells]
    for x in range(len(fam)):
        assert fam.member(x).key == tuple(ord(fam.layouts[x][p]) for p in places)


def test_no_letters_no_members():
    assert len(enumerate_tableaux(ShiftedSkewShape((2, 1)), 0)) == 0


def test_negative_alphabet_rejected():
    with pytest.raises(ValueError):
        enumerate_tableaux(ShiftedSkewShape((2,)), -1)
