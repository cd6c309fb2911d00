"""Tableau switching: local rules, the full process, and the switching-based
evacuation operators."""

import re

import pytest

from shifted_tableaux.core import (Entry, ShiftedSkewShape, ShiftedTableau,
                                   parse_tableau, render_text)
from shifted_tableaux.enumeration import enumerate_tableaux, skew_shapes
from shifted_tableaux.jdt import evacuation_jdt, rectify, reversal
from shifted_tableaux.switching import (PerforatedFilling, PerforatedPair,
                                        SwitchingError, evac_k_skew,
                                        evac_k_switch, evac_skew, evac_switch,
                                        full_switch, switch_pair)


def rt(t):
    return render_text(t).replace("\n", " / ")


def golden_pair():
    s = parse_tableau("1 1 1\n2", 2)
    t = ShiftedTableau.from_map({(1, 4): Entry(1, False),
                                 (2, 3): Entry(1, False)}, 1)
    return s, t


class TestFullSwitchGolden:
    def test_rules_and_results(self):
        s, t = golden_pair()
        res_t, res_s, trace = full_switch(s, t)
        assert [step.rule for step in trace] == ["S1", "S1", "S7", "S1"]
        assert rt(res_t) == "1 1"
        assert rt(res_s) == ". . 1' 1 / 1 2"

    def test_against_rectification(self):
        # moving a straight tableau through an extension rectifies it
        for shape in skew_shapes(5, 3):
            if not shape.inner:
                continue
            inner = ShiftedSkewShape(shape.inner, ())
            for s in enumerate_tableaux(inner, 2):
                for t in enumerate_tableaux(shape, 3):
                    assert full_switch(s, t)[0] == rectify(t)[0]

    def test_involution(self):
        s, t = golden_pair()
        res_t, res_s, _ = full_switch(s, t)
        back_s, back_t, _ = full_switch(res_t, res_s)
        assert (back_s, back_t) == (s, t)

    def test_empty_side(self):
        """With S or T empty nothing switches: the other tableau passes
        through with its (outer, inner) pair and the empty side stays the
        empty tableau."""
        empty, full = ShiftedTableau(ShiftedSkewShape(), (), 2), parse_tableau(". 1 2\n2", 2)
        for s, t in ((empty, full), (full, empty)):
            res_t, res_s, trace = full_switch(s, t)
            assert (res_t, res_s, trace) == (t, s, [])
            assert [(r.shape.outer, r.shape.inner) for r in (res_t, res_s)] == \
                [(r.shape.outer, r.shape.inner) for r in (t, s)]

    def test_requires_extension(self):
        s = parse_tableau("1 1", 2)
        with pytest.raises(SwitchingError):
            full_switch(s, s)


class TestSwitchPair:
    def band_pairs(self, n=3, max_cells=5):
        for shape in skew_shapes(max_cells, 3, include_straight=True):
            for t in enumerate_tableaux(shape, n):
                a = {c: e.primed for c, e in t.entries if e.value == 1}
                b = {c: e.primed for c, e in t.entries if e.value == 2}
                if a and b:
                    yield (PerforatedFilling.from_map("a", a),
                           PerforatedFilling.from_map("b", b))

    def test_involution(self):
        for a, b in self.band_pairs():
            new_b, new_a, _ = switch_pair(a, b)
            back_a, back_b, _ = switch_pair(
                PerforatedFilling.from_map("a", new_b.cell_map),
                PerforatedFilling.from_map("b", new_a.cell_map))
            assert back_a.cell_map == a.cell_map
            assert back_b.cell_map == b.cell_map

    def test_region_preserved(self):
        for a, b in self.band_pairs():
            new_b, new_a, _ = switch_pair(a, b)
            assert set(a.cell_map) | set(b.cell_map) == \
                set(new_a.cell_map) | set(new_b.cell_map)

    def test_b_extends_a_after_switch(self):
        # after switching, the a-letters sit outside (south-east of) the
        # b-letters: switching them again makes no move
        for a, b in self.band_pairs():
            new_b, new_a, _ = switch_pair(a, b)
            _, _, trace = switch_pair(
                PerforatedFilling.from_map("a", new_a.cell_map),
                PerforatedFilling.from_map("b", new_b.cell_map))
            assert trace == []


def bands(text):
    """The 1-band as a and the 2-band as b of a two-letter tableau."""
    t = parse_tableau(text, 2)
    return tuple(PerforatedFilling.from_map(letter, {c: e.primed for c, e in t.entries
                                                     if e.value == letter})
                 for letter in (1, 2))


@pytest.mark.parametrize("text, rules, a_after, b_after", [
    ("1 2", ["S1"], {(1, 2): False}, {(1, 1): False}),
    (". 1 / 2", ["S2"], {(2, 2): False}, {(1, 2): False}),
    ("1 2' / 2", ["S3"], {(2, 2): False}, {(1, 1): False, (1, 2): False}),
    ("1 1 / 2", ["S4"], {(1, 2): True, (2, 2): False}, {(1, 1): False}),
    (". 1 2' / 2", ["S5"], {(1, 3): False}, {(1, 2): True, (2, 2): False}),
    (". 1 2 / 2", ["S6"], {(2, 2): False}, {(1, 2): False, (1, 3): False}),
    ("1 1 2 / 2", ["S7", "S1"], {(1, 3): True, (2, 2): False},
     {(1, 1): False, (1, 2): False}),
], ids=["S1", "S2", "S3", "S4", "S5", "S6", "S7"])
def test_each_rule_on_its_smallest_pair(text, rules, a_after, b_after):
    """The smallest (1, 2) band pair that fires each rule; the results are
    worked by hand from the rule pictures."""
    a, b = bands(text)
    new_b, new_a, trace = switch_pair(a, b)
    assert [rule for rule, _ in trace] == rules
    assert (new_a.letter, new_a.cell_map) == (1, a_after)
    assert (new_b.letter, new_b.cell_map) == (2, b_after)


def test_overlapping_fillings_rejected():
    a = PerforatedFilling.from_map(1, {(1, 1): False, (1, 2): False})
    b = PerforatedFilling.from_map(2, {(1, 2): False, (1, 3): False})
    with pytest.raises(SwitchingError, match="a-cells and b-cells overlap"):
        switch_pair(a, b)


class TestExtends:
    def test_t_inside_s_rejected(self):
        """T on (1,1) lies inside S on (1,2): mu ∪ S is (2)/(1), not
        straight."""
        s, t = parse_tableau(". 1", 2), parse_tableau("1", 2)
        with pytest.raises(SwitchingError, match="^T does not extend S$"):
            full_switch(s, t)

    def test_t_outside_s_switches(self):
        s, t = parse_tableau("1", 2), parse_tableau(". 1", 2)
        new_t, new_s, trace = full_switch(s, t)
        assert (rt(new_t), rt(new_s), [step.rule for step in trace]) == ("1", ". 1", ["S1"])


class TestPerforatedValidation:
    def test_overlap_rejected(self):
        a = PerforatedFilling.from_map("a", {(1, 1): False})
        b = PerforatedFilling.from_map("b", {(1, 1): False})
        with pytest.raises(SwitchingError):
            PerforatedPair(a, b).validate()

    def test_double_border_strip_rejected(self):
        cells = {(1, 1): False, (2, 2): False, (3, 3): False}
        a = PerforatedFilling.from_map("a", cells)
        b = PerforatedFilling.from_map("b", {(1, 2): False})
        with pytest.raises(SwitchingError):
            PerforatedPair(a, b).validate()

    @pytest.mark.parametrize("band", ["a", "b"])
    @pytest.mark.parametrize("cells, message", [
        ({(1, 2): False, (2, 3): True}, "{x}'-box (2, 3) south-east of {x}-box (1, 2)"),
        ({(1, 2): False, (2, 2): False}, "two unprimed {x}-letters in one column"),
        ({(1, 2): True, (1, 3): True}, "two primed {x}-letters in one row"),
        ({(1, 1): False, (2, 2): False}, "two {x}-letters on the main diagonal"),
    ], ids=["primed-south-east", "column", "row", "diagonal"])
    def test_each_band_rule(self, band, cells, message):
        """Each band rule on a pair that breaks it alone, in either band;
        the other band is one cell away from the first."""
        fillings = {band: PerforatedFilling.from_map(band, cells),
                    "ab".replace(band, ""): PerforatedFilling.from_map("other", {(4, 7): False})}
        with pytest.raises(SwitchingError, match=f"^{re.escape(message.format(x=band))}$"):
            PerforatedPair(fillings["a"], fillings["b"]).validate()

    def test_band_pairs_of_tableaux_are_valid_before_and_after_switching(self):
        """Every (i, i+1) band pair of every member of the skew shapes of at
        most 7 cells at n=3, empty bands included, is a valid perforated
        pair, and so is its switch."""
        validated = 0
        for shape in skew_shapes(7, 4, include_straight=True):
            for t in enumerate_tableaux(shape, 3):
                for i in (1, 2):
                    a, b = (PerforatedFilling.from_map(k, {c: e.primed for c, e in t.entries
                                                           if e.value == k})
                            for k in (i, i + 1))
                    new_b, new_a, _ = switch_pair(a, b)
                    for pair in (PerforatedPair(a, b), PerforatedPair(new_b, new_a)):
                        pair.validate()
                        validated += 1
        assert validated == 7484


class TestEvacSwitch:
    def straight_sample(self, n=3, max_cells=6):
        for shape in skew_shapes(max_cells, 3, include_straight=True):
            if shape.straight:
                yield from enumerate_tableaux(shape, n)

    def test_agrees_with_jdt_route(self):
        for t in self.straight_sample():
            assert evac_switch(t) == evacuation_jdt(t)

    def test_evac_k_full_interval(self):
        for t in self.straight_sample():
            assert evac_k_switch(t, t.n) == evac_switch(t)

    def test_evac_k_involution(self):
        for t in self.straight_sample(3, 5):
            for k in (2, 3):
                assert evac_k_switch(evac_k_switch(t, k), k) == t

    def test_skew_evac_involution(self):
        for shape in skew_shapes(5, 3, include_straight=True):
            for t in enumerate_tableaux(shape, 3):
                assert evac_skew(evac_skew(t)) == t
                assert evac_k_skew(evac_k_skew(t, 2), 2) == t

    def test_skew_evac_differs_from_reversal_somewhere(self):
        hit = False
        for shape in skew_shapes(5, 3, include_straight=False):
            for t in enumerate_tableaux(shape, 3):
                if evac_skew(t) != reversal(t):
                    hit = True
                    break
            if hit:
                break
        assert hit
