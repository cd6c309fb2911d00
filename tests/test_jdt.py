"""Jeu de taquin: slides, rectification, complement, evacuation, reversal,
and the interval restrictions of the full involution."""

import pytest

from shifted_tableaux.core import (ShiftedSkewShape, ShiftedTableau, TableauError,
                                   parse_tableau, render_text, weight)
from shifted_tableaux.enumeration import enumerate_tableaux, skew_shapes, straight_shapes
from shifted_tableaux.jdt import (complement, dual_equivalent, eta,
                                  evacuation_jdt, inner_corners, inner_slide,
                                  knuth_equivalent, outer_slide, rectify,
                                  reversal, sigma)


def rt(t):
    return render_text(t).replace("\n", " / ")


def skew_family_sample(max_cells=5, n=3):
    for shape in skew_shapes(max_cells, 3, include_straight=True):
        yield from enumerate_tableaux(shape, n)


def standard_fillings(shape):
    """Every standard filling of a straight shape, as a cell -> value map,
    grown one value at a time into the cells whose west and north
    neighbours in the shape are filled."""
    cells, filling = shape.cells, {}

    def grow():
        if len(filling) == len(cells):
            yield dict(filling)
            return
        for r, c in sorted(cells - filling.keys()):
            if all(p in filling or p not in cells for p in ((r, c - 1), (r - 1, c))):
                filling[r, c] = len(filling) + 1
                yield from grow()
                del filling[r, c]
    return grow()


class TestSlides:
    def test_inner_corner_must_extend_diagram(self):
        # (3,2,1)/(2,1): position (1,2) would leave a non-strict inner shape
        shape = ShiftedSkewShape((3, 2, 1), (2, 1))
        assert inner_corners(shape) == [(2, 2)]

    def test_inner_then_outer_round_trip(self):
        t = parse_tableau(". 1 2\n2", 2)
        corner = inner_corners(t.shape)[0]
        slid = inner_slide(t, corner)
        assert slid.size == t.size
        # replaying the vacated cell outward restores the tableau
        vacated = (t.cells | {corner}) - slid.cells
        assert reversal(reversal(t)) == t  # sanity on the same tableau
        back = outer_slide(slid, next(iter(vacated)))
        assert back == t

    def test_bad_corner_rejected(self):
        t = parse_tableau("1 2", 2)
        with pytest.raises(TableauError):
            inner_slide(t, (5, 5))


class TestRectification:
    def test_straight_is_fixed(self):
        t = parse_tableau("1 1 2", 2)
        assert rectify(t)[0] == t

    def test_strategy_independence(self):
        for t in skew_family_sample():
            assert rectify(t, "first")[0] == rectify(t, "last")[0]

    def test_result_is_straight(self):
        for t in skew_family_sample(4):
            assert rectify(t)[0].shape.straight

    def test_knuth_equivalence_reflexive_on_rectification(self):
        t = parse_tableau(". 1 2\n2", 2)
        assert knuth_equivalent(t, rectify(t)[0])


class TestComplement:
    def test_involution_at_fixed_width(self):
        for t in skew_family_sample(4):
            w = t.shape.outer[0]
            assert complement(complement(t, width=w), width=w) == t

    def test_weight_reversed(self):
        for t in skew_family_sample(4):
            assert weight(complement(t)) == tuple(reversed(weight(t)))

    def test_shape_reflected(self):
        t = parse_tableau("1 1 2", 2)
        c = complement(t)
        assert c.shape.outer == (3, 2, 1) and c.shape.inner == (2, 1)

    def test_n_below_the_largest_entry(self):
        t = parse_tableau("1 2' 2 / 2", 2)
        with pytest.raises(TableauError) as info:
            complement(t, n=1)
        assert str(info.value) == "complement with n=1 needs n >= the largest entry 2"
        assert rt(complement(t, n=2)) == rt(complement(t))


class TestEvacuation:
    def test_golden(self):
        assert rt(evacuation_jdt(parse_tableau("1 1 2", 2))) == "1 2 2"

    def test_involution(self):
        for shape in skew_shapes(5, 3, include_straight=True):
            if not shape.straight:
                continue
            for t in enumerate_tableaux(shape, 3):
                assert evacuation_jdt(evacuation_jdt(t)) == t

    def test_skew_rejected(self):
        with pytest.raises(TableauError):
            evacuation_jdt(parse_tableau(". 1", 1))

    def test_is_the_rectified_complement_on_standard_fillings(self):
        """Evacuation by delta steps equals the complement rectified by
        inner slides, on every standard filling of every straight shape
        of at most 11 cells."""
        count = 0
        for shape in straight_shapes(11):
            for filling in standard_fillings(shape):
                t = ShiftedTableau.from_keys({c: 2 * v for c, v in filling.items()},
                                             len(filling), shape)
                assert evacuation_jdt(t) == rectify(complement(t))[0], rt(t)
                count += 1
        assert count == 1722


class TestReversal:
    def test_involution(self):
        for t in skew_family_sample():
            assert reversal(reversal(t)) == t

    def test_weight_reversed(self):
        for t in skew_family_sample():
            assert weight(reversal(t)) == tuple(reversed(weight(t)))

    def test_dual_equivalent_to_original(self):
        for t in skew_family_sample(4):
            assert dual_equivalent(t, reversal(t))

    def test_knuth_equivalent_to_complement(self):
        for t in skew_family_sample(4):
            assert knuth_equivalent(reversal(t), complement(t))


class TestEta:
    def test_full_interval_is_reversal(self):
        for t in skew_family_sample(4):
            assert eta(t) == reversal(t)

    def test_involution(self):
        for t in skew_family_sample(4):
            for i, j in ((1, 2), (2, 3), (1, 3)):
                assert eta(eta(t, i, j), i, j) == t

    def test_singleton_interval_trivial(self):
        t = parse_tableau("1 2\n3", 3)
        assert eta(t, 2, 2) == t

    def test_sigma_is_two_letter_eta(self):
        for t in skew_family_sample(4):
            assert sigma(t, 1) == eta(t, 1, 2)

    def test_invalid_interval(self):
        with pytest.raises(TableauError):
            eta(parse_tableau("1 2", 2), 2, 1)

    @pytest.mark.parametrize("i, j", [(1, None), (None, 2)])
    def test_one_end_of_the_interval(self, i, j):
        with pytest.raises(TableauError) as info:
            eta(parse_tableau("1 2", 2), i, j)
        assert str(info.value) == "eta takes both ends of the interval or neither"


class TestDualEquivalence:
    def test_reflexive(self):
        t = parse_tableau(". 1 2\n2", 2)
        assert dual_equivalent(t, t)

    def test_distinguishes(self):
        fam = list(enumerate_tableaux(ShiftedSkewShape((3, 1), (1,)), 4))
        classes = {frozenset(u for u in fam if dual_equivalent(t, u)) for t in fam}
        assert len(classes) == 2

    def test_beyond_six_cells(self):
        # (5,3,1)/(2) has 7 cells; at n=2 its members rectify to (5,2)
        # and (4,3) only, two classes each
        t = parse_tableau("1 1 1 1 1 1 1", 1)
        assert dual_equivalent(t, t)
        fam = list(enumerate_tableaux(ShiftedSkewShape((5, 3, 1), (2,)), 2))
        classes = {frozenset(u for u in fam if dual_equivalent(t, u)) for t in fam}
        assert sorted(map(len, classes)) == [2, 2, 6, 6]
        assert all(dual_equivalent(t, reversal(t)) for t in fam)

    def test_unequal_cells(self):
        with pytest.raises(TableauError, match="requires equal shapes"):
            dual_equivalent(parse_tableau("1 2", 2), parse_tableau(". 1 2", 2))
