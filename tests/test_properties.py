"""Property tests on random shapes of at most 10 cells and n <= 5, beyond
the reach of the exhaustive checks."""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shifted_tableaux.core import (Entry, InvalidTableauError, ShiftedSkewShape,
                                   canonicalize, standardize_map, weight)
from shifted_tableaux.bender_knuth import bk, bk_trace
from shifted_tableaux.engine import GeneratorSymbol, apply_symbol
from shifted_tableaux.jdt import (dual_equivalent, eta, evacuation_map, rectify, reversal,
                                  reversal_map)
from shifted_tableaux.switching import PerforatedFilling, switch_pair

MAX_CELLS = 10
MAX_N = 5

# one memo shared across all draws of the memo property
SHARED_MEMO = {}

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def shapes(draw):
    """A strict outer partition and a strict inner one inside it, with at
    most MAX_CELLS cells between them."""
    outer = sorted(draw(st.sets(st.integers(1, MAX_CELLS), min_size=1, max_size=4)),
                   reverse=True)
    inner = []
    for part in outer:
        bound = min(part, inner[-1] - 1 if inner else part)
        if bound < 1:
            break
        choice = draw(st.integers(0, bound))
        if choice == 0:
            break
        inner.append(choice)
    shape = ShiftedSkewShape(tuple(outer), tuple(inner))
    assume(0 < shape.size <= MAX_CELLS)
    return shape


def random_filling(shape, n, rng):
    """A semistandard filling found by backtracking over the cells in row
    order, trying the admissible letters in random order; None if the
    shape admits no filling over 1..n."""
    order = sorted(shape.cells)
    alphabet = [Entry(k, p) for k in range(1, n + 1) for p in (True, False)]
    entries = {}

    def place(idx):
        if idx == len(order):
            return True
        r, c = order[idx]
        floor = max((e for e in (entries.get((r, c - 1)), entries.get((r - 1, c)))
                     if e is not None), default=Entry(1, True))
        options = [e for e in alphabet if not e < floor and not any(
            (e.primed and cell[0] == r or not e.primed and cell[1] == c) and other == e
            for cell, other in entries.items())]
        rng.shuffle(options)
        for e in options:
            entries[(r, c)] = e
            if place(idx + 1):
                return True
            del entries[(r, c)]
        return False

    return dict(entries) if place(0) else None


@st.composite
def tableaux(draw):
    shape = draw(shapes())
    n = draw(st.integers(2, MAX_N))
    filling = random_filling(shape, n, random.Random(draw(st.integers(0, 2**32))))
    assume(filling is not None)
    try:
        return canonicalize(shape, filling, n)
    except InvalidTableauError:
        assume(False)


def intervals(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@PROPERTY
@given(tableaux())
def test_rectify_independent_of_corner_strategy(t):
    assert rectify(t, "first")[0] == rectify(t, "last")[0]


@PROPERTY
@given(tableaux(), st.integers(0, 2**32))
def test_dual_equivalence_is_strategy_free_and_holds_for_reversal(t, seed):
    """t is dual equivalent to its reversal; against another filling u of
    its shape, dual_equivalent agrees with the slide records of the
    "last" strategy."""
    assert dual_equivalent(t, reversal(t))
    try:
        u = canonicalize(t.shape, random_filling(t.shape, t.n, random.Random(seed)), t.n)
    except InvalidTableauError:
        assume(False)
    for v in (u, reversal(t)):
        assert dual_equivalent(t, v) == (rectify(t, "last")[1] == rectify(v, "last")[1])


@PROPERTY
@given(tableaux(), st.data())
def test_eta_is_an_involution_reversing_the_band_weight(t, data):
    i, j = data.draw(st.sampled_from(intervals(t.n)))
    out = eta(t, i, j)
    assert eta(out, i, j) == t
    before, after = weight(t), weight(out)
    assert after[i - 1:j] == before[i - 1:j][::-1]
    assert after[:i - 1] == before[:i - 1] and after[j:] == before[j:]


@PROPERTY
@given(tableaux())
def test_operators_keep_the_cells(t):
    n = t.n
    symbols = [GeneratorSymbol(kind, i) for kind in ("t", "p", "q", "sigma")
               for i in range(1, n)]
    symbols += [GeneratorSymbol("evacs", i) for i in range(1, n + 1)]
    symbols += [GeneratorSymbol(kind, i, j) for kind in ("qij", "eta", "evacsij")
                for i, j in intervals(n)]
    for sym in symbols:
        assert apply_symbol(t, sym).cells == t.cells, sym
    assert reversal(t).cells == t.cells


@PROPERTY
@given(tableaux(), st.data())
def test_bk_is_a_weight_swapping_involution_built_from_switching(t, data):
    i = data.draw(st.integers(1, t.n - 1))
    out = bk(t, i)
    assert bk_trace(t, i)[0] == out
    assert bk(out, i) == t
    before, after = list(weight(t)), list(weight(out))
    before[i - 1], before[i] = before[i], before[i - 1]
    assert after == before
    a = {c: e.primed for c, e in t.entries if e.value == i}
    b = {c: e.primed for c, e in t.entries if e.value == i + 1}
    new_b, new_a, _ = switch_pair(PerforatedFilling.from_map(i, a),
                                  PerforatedFilling.from_map(i + 1, b))
    assert new_a.cell_map.keys() | new_b.cell_map.keys() == a.keys() | b.keys()
    back_a, back_b, _ = switch_pair(PerforatedFilling.from_map(i, new_b.cell_map),
                                    PerforatedFilling.from_map(i + 1, new_a.cell_map))
    assert (back_a.cell_map, back_b.cell_map) == (a, b)


@PROPERTY
@given(tableaux())
def test_memoized_reversal_and_evacuation_equal_the_memo_free_ones(t):
    """reversal_map, and evacuation_map on straight shapes, give with one
    memo shared across all draws what they give without a memo; each
    runs on a tableau and then on its standardization, which finds the
    standard result the first call kept."""
    for op, u in ((reversal_map, t), (evacuation_map, rectify(t)[0])):
        std = {c: Entry(v) for c, v in standardize_map(u.entries).items()}
        for entries, n in ((u.entry_map, u.n), (std, len(std))):
            assert op(entries, n, SHARED_MEMO) == op(entries, n)
