"""Shifted Bender-Knuth involutions, promotion, and the derived q-operators."""

import pytest

from shifted_tableaux.core import TableauError, parse_tableau, render_text, weight
from shifted_tableaux.enumeration import enumerate_tableaux, skew_shapes
from shifted_tableaux.bender_knuth import bk, bk_trace, promotion, q, q_interval


def rt(t):
    return render_text(t).replace("\n", " / ")


def sample(max_cells=5, n=3):
    for shape in skew_shapes(max_cells, 3, include_straight=True):
        yield from enumerate_tableaux(shape, n)


class TestGolden:
    def setup_method(self):
        self.t = parse_tableau("1 1 2' 2\n2 3'\n3", 3)

    def test_t1(self):
        res, steps = bk_trace(self.t, 1)
        assert [s.rule for s in steps] == ["S5", "S1", "S3"]
        assert rt(res) == "1 1 1 2 / 2 3' / 3"

    def test_t2(self):
        res, steps = bk_trace(self.t, 2)
        assert [s.rule for s in steps] == ["S3", "S2"]
        assert rt(res) == "1 1 2 3 / 2 3' / 3"

    def test_trace_layouts(self):
        # moving holds both switched bands, fixed the rest, after each rule
        def layout(items):
            return " ".join(f"{r}{c}:{e}" for (r, c), e in items)

        def steps(i):
            return [(s.rule, layout(s.moving), layout(s.fixed))
                    for s in bk_trace(self.t, i)[1]]

        assert steps(1) == [
            ("S5", "11:1 12:2' 13:1 14:2 22:2", "23:3' 33:3"),
            ("S1", "11:1 12:2' 13:2 14:1 22:2", "23:3' 33:3"),
            ("S3", "11:2 12:2 13:2 14:1 22:1", "23:3' 33:3")]
        assert steps(2) == [
            ("S3", "13:2' 14:2 22:3 23:3 33:2", "11:1 12:1"),
            ("S2", "13:3 14:2 22:3 23:2' 33:2", "11:1 12:1")]

    def test_order_twelve_witness(self):
        w = parse_tableau("1 1 2' 2 3\n2 3' 3\n3", 3)
        cur = w
        for _ in range(6):
            cur = bk(bk(cur, 2), 1)
        assert rt(cur) == "1 1 2' 3' 3 / 2 2 3 / 3"
        assert cur != w


class TestBk:
    def test_involution(self):
        for t in sample():
            for i in (1, 2):
                assert bk(bk(t, i), i) == t

    def test_swaps_weight_components(self):
        for t in sample():
            w = weight(t)
            assert weight(bk(t, 1)) == (w[1], w[0], w[2])

    def test_index_bounds(self):
        t = parse_tableau("1 2", 2)
        with pytest.raises(TableauError):
            bk(t, 2)
        with pytest.raises(TableauError):
            bk(t, 0)


class TestDerivedOperators:
    def test_promotion_expansion(self):
        for t in list(sample(4))[:200]:
            assert promotion(t, 2) == bk(bk(t, 1), 2)

    def test_q_is_involution(self):
        for t in sample(4):
            for i in (1, 2):
                assert q(q(t, i), i) == t

    def test_q1_is_t1(self):
        for t in sample(4):
            assert q(t, 1) == bk(t, 1)

    def test_q_interval_base_case(self):
        for t in list(sample(4))[:200]:
            assert q_interval(t, 1, 3) == q(t, 2)

    def test_q_interval_conjugation(self):
        for t in list(sample(4))[:200]:
            assert q_interval(t, 2, 3) == q(q(q(t, 2), 1), 2)

    def test_q_interval_bounds(self):
        t = parse_tableau("1 2", 2)
        with pytest.raises(TableauError):
            q_interval(t, 2, 2)
