"""Entries, shapes, validation, canonical form, (de)standardization, I/O."""

import copy
import pickle

import pytest

from shifted_tableaux import core
from shifted_tableaux.core import (Entry, InvalidTableauError, ShiftedSkewShape,
                                   ShiftedTableau, StrictPartition, TableauError,
                                   canonicalize, destandardize, from_json,
                                   parse_tableau, reading_word, render_text,
                                   standardize, to_json, weight)


def rt(t):
    return render_text(t).replace("\n", " / ")


class TestEntry:
    def test_total_order(self):
        # 1' < 1 < 2' < 2 < 3' < 3
        seq = [Entry(1, True), Entry(1, False), Entry(2, True),
               Entry(2, False), Entry(3, True), Entry(3, False)]
        assert seq == sorted(seq)
        assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_parse_and_str(self):
        assert Entry.parse("3'") == Entry(3, True)
        assert Entry.parse("12") == Entry(12, False)
        assert str(Entry(2, True)) == "2'"
        assert str(Entry(2, False)) == "2"

    def test_invalid(self):
        with pytest.raises(TableauError):
            Entry.parse("0")
        with pytest.raises(TableauError):
            Entry.parse("x")
        # digits that are not decimal digits, though str.isdigit holds
        for token in ("\u00b2", "1\u00b2'"):
            with pytest.raises(TableauError) as info:
                Entry.parse(token)
            assert str(info.value) == f"malformed cell token {token!r}"
        for value in (0, -2):
            with pytest.raises(TableauError) as info:
                Entry(value)
            assert str(info.value) == f"entry value must be positive, got {value}"

    def test_one_instance_per_letter(self):
        assert Entry(3, 1) is Entry(3, True) is Entry(value=3, primed=True)
        assert Entry(3) is Entry(3, False) is Entry(3, 0)
        assert Entry(3) is not Entry(3, True)
        # a letter first made with primed given as an int stores a bool
        fresh = Entry(777_777, 1), Entry(777_778, 0)
        assert [e.primed for e in fresh] == [True, False]
        assert fresh == (Entry(777_777, True), Entry(777_778, False))
        assert repr(fresh[0]) == "Entry(value=777777, primed=True)"
        assert Entry.parse("3'") is Entry(3, True)

    def test_intern_table_grows_by_two_per_value(self):
        before = len(core._INTERNED)
        values = range(10**6, 10**6 + 5)
        for value in values:
            for primed in (False, True, 0, 1):
                Entry(value, primed)
        assert len(core._INTERNED) - before == 2 * len(values)

    def test_equality_order_and_hash(self):
        letters = [Entry(1, True), Entry(1), Entry(2, True), Entry(2)]
        for a, b in zip(letters, letters[1:]):
            assert a < b and b > a and a <= b and b >= a and a != b
            assert not (b < a or a > b or b <= a or a >= b or a == b)
        assert Entry(2) == Entry(2) and Entry(2) <= Entry(2) and Entry(2) >= Entry(2)
        assert Entry(2) != 2 and Entry(2) != (2, False)
        for e in letters:
            assert hash(e) == hash((e.value, e.primed))
            assert e.order_key == 2 * e.value - e.primed
        # sets and dicts of entries iterate as those of their (value, primed)
        pairs = [(v, p) for v in (5, 1, 3, 2) for p in (True, False)]
        assert [(e.value, e.primed) for e in set(Entry(*p) for p in pairs)] == list(set(pairs))

    def test_key_table(self):
        for k in range(1, 9):
            assert core.entry_of_key[k] is Entry((k + 1) // 2, k % 2 == 1)
            assert core.entry_of_key[k].order_key == k
        with pytest.raises(TableauError, match="must be positive, got 0"):
            core.entry_of_key[0]

    def test_repr(self):
        assert repr(Entry(1, True)) == "Entry(value=1, primed=True)"
        assert repr(Entry(12)) == "Entry(value=12, primed=False)"

    def test_copies_are_the_instance(self):
        e = Entry(2, True)
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert copy.deepcopy([e, {e: e}]) == [e, {e: e}]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(e, protocol)) is e

    def test_immutable(self):
        e = Entry(2)
        for name in ("value", "primed", "order_key", "other"):
            with pytest.raises(AttributeError):
                setattr(e, name, 3)
            with pytest.raises(AttributeError):
                delattr(e, name)
        assert (e.value, e.primed, e.order_key) == (2, False, 4)


class TestShapes:
    def test_strict_partition(self):
        assert StrictPartition((4, 3, 1)).size == 8
        with pytest.raises(TableauError):
            StrictPartition((3, 3))
        with pytest.raises(TableauError):
            StrictPartition((1, 2))

    @pytest.mark.parametrize("build, message", [
        (lambda: StrictPartition((3, 3)), "parts not strictly decreasing: (3, 3)"),
        (lambda: StrictPartition((2, 0)), "parts must be positive: (2, 0)"),
        (lambda: ShiftedSkewShape((2, 2)),
         "outer shape not strictly decreasing: (2, 2)"),
        (lambda: ShiftedSkewShape((2, 0)),
         "outer shape must have positive parts: (2, 0)"),
        (lambda: ShiftedSkewShape((3, 2), (1, 1)),
         "inner shape not strictly decreasing: (1, 1)"),
        (lambda: ShiftedSkewShape((3, 2), (1, -1)),
         "inner shape must have positive parts: (1, -1)"),
        (lambda: ShiftedSkewShape((3, 2), (0, 1)),
         "inner shape not strictly decreasing: (0, 1)"),
        (lambda: ShiftedSkewShape((4, 2, 1), (2, 0, 1)),
         "inner shape not strictly decreasing: (2, 0, 1)"),
    ])
    def test_strict_parts_messages(self, build, message):
        with pytest.raises(TableauError) as info:
            build()
        assert str(info.value) == message

    def test_trailing_zero_inner_parts_are_dropped(self):
        assert ShiftedSkewShape((3, 2), (1, 0)) == ShiftedSkewShape((3, 2), (1,))
        assert ShiftedSkewShape((3, 2), (0, 0)).inner == ()

    def test_staircase_complement(self):
        assert StrictPartition((3,)).complement(3).parts == (2, 1)
        assert StrictPartition(()).complement(3).parts == (3, 2, 1)

    def test_cells_are_shifted(self):
        s = ShiftedSkewShape((3, 1), ())
        assert s.cells == {(1, 1), (1, 2), (1, 3), (2, 2)}
        skew = ShiftedSkewShape((3, 1), (1,))
        assert skew.cells == {(1, 2), (1, 3), (2, 2)}

    def test_from_cells_round_trip(self):
        s = ShiftedSkewShape((4, 2), (2,))
        assert ShiftedSkewShape.from_cells(s.cells) == s

    def test_inner_must_nest(self):
        with pytest.raises(TableauError):
            ShiftedSkewShape((2,), (3,))


class TestValidation:
    def test_golden_straight(self):
        t = parse_tableau("1 1 2' 2\n2 3'\n3", 3)
        assert t.size == 7
        assert weight(t) == (2, 3, 2)

    def test_row_strictness_for_primes(self):
        # two 2' in a row is illegal
        with pytest.raises(InvalidTableauError):
            parse_tableau("2' 2'", 2)

    def test_column_strictness(self):
        # two 2 in a column is illegal
        with pytest.raises(InvalidTableauError):
            parse_tableau("1 2\n2", 2)

    def test_decreasing_row_rejected(self):
        with pytest.raises(InvalidTableauError):
            parse_tableau("2 1", 2)

    def test_key_of_wrong_length_rejected(self):
        for key in ((2, 4), ()):
            with pytest.raises(InvalidTableauError) as exc:
                ShiftedTableau(ShiftedSkewShape((1,)), key, 2)
            assert exc.value.rule == "coverage" and exc.value.cell is None
            assert str(exc.value) == \
                f"filling of {len(key)} keys does not cover the 1 cells of [1]"

    @pytest.mark.parametrize("key", [(0, 2), (2, -1)])
    def test_nonpositive_key_rejected(self, key):
        with pytest.raises(InvalidTableauError) as exc:
            ShiftedTableau(ShiftedSkewShape((2,)), key, 2)
        cell = (1, 1 + key.index(min(key)))
        assert (exc.value.rule, exc.value.cell) == ("alphabet", cell)
        assert str(exc.value) == f"order key {min(key)} at {cell} is not positive"

    def test_bad_skew_rejected(self):
        with pytest.raises(TableauError):
            parse_tableau("1 2'\n. 2", 2)


class TestKeyForm:
    def test_same_key_on_two_cell_sets_is_unequal(self):
        row, column = ShiftedSkewShape((2,)), ShiftedSkewShape((2, 1), (1,))
        a, b = ShiftedTableau(row, (2, 4), 2), ShiftedTableau(column, (2, 4), 2)
        assert a.key == b.key and a != b

    def test_one_cell_set_under_two_pairs_is_equal(self):
        a = ShiftedTableau(ShiftedSkewShape((3, 1), (3,)), (2,), 1)
        b = ShiftedTableau(ShiftedSkewShape((2, 1), (2,)), (2,), 1)
        assert a.shape != b.shape and a.cells == b.cells
        assert a == b and hash(a) == hash(b)

    def test_alphabet_bound_is_compared(self):
        shape = ShiftedSkewShape((2,))
        assert ShiftedTableau(shape, (2, 4), 2) != ShiftedTableau(shape, (2, 4), 3)

    def test_entries_are_views_of_the_key(self):
        t = parse_tableau("1 2' 2\n2", 3)
        assert t.key == (2, 3, 4, 4)
        assert t.entries == (((1, 1), Entry(1)), ((1, 2), Entry(2, True)),
                             ((1, 3), Entry(2)), ((2, 2), Entry(2)))
        assert t.entry_map == dict(t.entries)

    def test_from_map_on_other_cells_is_a_coverage_error(self):
        with pytest.raises(InvalidTableauError) as exc:
            ShiftedTableau.from_map({(1, 1): Entry(1), (2, 2): Entry(2)}, 2,
                                    ShiftedSkewShape((2,)))
        assert (exc.value.rule, exc.value.cell) == ("coverage", (2, 2))
        assert str(exc.value) == \
            "filling does not cover shape exactly (extra=[(2, 2)], missing=[(1, 2)])"


class TestCanonicalForm:
    def test_first_occurrence_unprimed(self):
        shape = ShiftedSkewShape((2,), ())
        ent = {(1, 1): Entry(1, False), (1, 2): Entry(2, True)}
        assert rt(canonicalize(shape, ent, 2)) == "1 2"

    def test_noncanonical_input_rejected(self):
        with pytest.raises(InvalidTableauError):
            parse_tableau("1 2'", 2)

    def test_later_primes_kept(self):
        t = parse_tableau("1 1 2' 2\n2 3'\n3", 3)
        assert rt(t) == "1 1 2' 2 / 2 3' / 3"


class TestReadingWord:
    def test_bottom_row_first(self):
        t = parse_tableau("1 1\n2", 2)
        assert [str(e) for e in reading_word(t)] == ["2", "1", "1"]

    def test_weight_counts_primes_with_unprimed(self):
        t = parse_tableau("1 1 2' 2\n2 3'\n3", 3)
        assert weight(t) == (2, 3, 2)


class TestStandardization:
    def test_round_trip(self):
        t = parse_tableau("1 1 2' 2\n2 3'\n3", 3)
        std = standardize(t)
        assert sorted(e.value for _, e in std.entries) == list(range(1, 8))
        assert destandardize(std, weight(t)) == t

    def test_standard_is_fixed(self):
        t = parse_tableau("1 2\n3", 3)
        assert standardize(t).entry_map == t.entry_map


class TestIO:
    def test_text_round_trip(self):
        for text in ("1 1 2' 2\n2 3'\n3", ". 1 2\n2", "1 2\n3"):
            t = parse_tableau(text, 3)
            assert parse_tableau(render_text(t), 3) == t

    def test_json_round_trip(self):
        t = parse_tableau(". 1 2\n2", 2)
        assert from_json(to_json(t)) == t

    def test_from_map(self):
        t = ShiftedTableau.from_map({(1, 1): Entry(1, False),
                                     (1, 2): Entry(2, False)}, 2)
        assert rt(t) == "1 2"

    @pytest.mark.parametrize("doc", ["[1, 2]", '"1 2"', "3", "null"])
    def test_json_tableau_must_be_an_object(self, doc):
        with pytest.raises(TableauError, match="^a JSON tableau must be an object$"):
            from_json(doc)


class TestBounds:
    @pytest.mark.parametrize("n", [-1, -7])
    def test_negative_alphabet_is_a_tableau_error(self, n):
        with pytest.raises(TableauError, match="^alphabet bound must be >= 0$"):
            core.check_letters(n)
        with pytest.raises(TableauError, match="^alphabet bound must be >= 0$"):
            ShiftedTableau(ShiftedSkewShape(), (), n)

    def test_band_operator_on_other_cells_is_an_error(self):
        t = parse_tableau("1 2 / 3", 3)
        with pytest.raises(RuntimeError, match=r"^operator on the letters 1\.\.2 changed "
                           "their cells$"):
            core.act_on_band(t, 1, 2, lambda entries, n: {(5, 5): Entry(1)})
