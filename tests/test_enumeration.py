"""Family enumeration against an independent brute-force oracle."""

import itertools

from shifted_tableaux.core import (Entry, InvalidTableauError, ShiftedSkewShape,
                                   ShiftedTableau, reading_word, render_text)
from shifted_tableaux.enumeration import (enumerate_tableaux, skew_shapes,
                                          straight_shapes)


def brute_force_members(shape, n):
    """Raw per-row assignments filtered only by the row rules, combined, then
    validated by the tableau constructor; independent of the backtracking
    enumerator."""
    alphabet = [Entry(v, p) for v in range(1, n + 1) for p in (True, False)]
    rows = sorted({r for r, _ in shape.cells})
    row_choices = []
    for r in rows:
        cells = sorted(shape.row_cells(r))
        good = []
        for combo in itertools.product(alphabet, repeat=len(cells)):
            if any(b < a for a, b in zip(combo, combo[1:])):
                continue
            primed = [e.value for e in combo if e.primed]
            if len(primed) != len(set(primed)):
                continue
            good.append(dict(zip(cells, combo)))
        row_choices.append(good)
    members = set()
    for pick in itertools.product(*row_choices):
        entries = {}
        for d in pick:
            entries.update(d)
        try:
            members.add(ShiftedTableau.from_map(entries, n, shape))
        except InvalidTableauError:
            continue
    return members


def test_golden_two_cell_row():
    fam = enumerate_tableaux(ShiftedSkewShape((2,), ()), 2)
    assert [render_text(t) for t in fam] == ["1 1", "1 2", "2 2"]


def test_reading_word_lex_order():
    fam = enumerate_tableaux(ShiftedSkewShape((3, 1), (1,)), 3)
    keys = [tuple(e.order_key for e in reading_word(t)) for t in fam]
    assert keys == sorted(keys)


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
