"""Property tests on random shapes of at most 10 cells and n <= 5 (12
cells and n <= 6 for the Bender-Knuth kernel), beyond the reach of the
exhaustive checks."""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shifted_tableaux.core import (Entry, InvalidTableauError, ShiftedSkewShape, band_keys,
                                   canonical_map, canonicalize, entry_of_key, standardize_map,
                                   weight)
from shifted_tableaux.bender_knuth import (bk, bk_map, bk_trace, promotion, promotion_word, q,
                                           q_interval, q_interval_word, q_word)
from shifted_tableaux.engine import (GeneratorSymbol, _band_bk, _band_evac, _images, apply_symbol,
                                     eval_word, word_permutation)
from shifted_tableaux.enumeration import enumerate_tableaux
from shifted_tableaux.jdt import (dual_equivalent, eta, evacuation_jdt, evacuation_map, rectify,
                                  reversal, reversal_map)
from shifted_tableaux.switching import PerforatedFilling, evac_map, evac_switch, switch_pair

MAX_CELLS = 10
MAX_N = 5

# one memo shared across all draws of the memo property
SHARED_MEMO = {}

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# the inner partitions drawn, all but the first skew
INNERS = ((), (1,), (2,), (2, 1), (3,), (3, 1), (3, 2), (4, 1))


@st.composite
def shapes(draw, max_cells=MAX_CELLS):
    """A shifted shape of 1..max_cells cells, its size drawn first: an
    inner strict partition from INNERS, and an outer one grown from it
    one cell at a time, each cell put at the end of a row where the
    parts stay strict (row 0 always qualifies, and a new row when the
    last part exceeds 1)."""
    size = draw(st.one_of(st.integers(min(6, max_cells), max_cells),
                          st.integers(1, max_cells)))
    inner = draw(st.sampled_from(INNERS))
    outer = list(inner)
    for _ in range(size):
        rows = [r for r in range(len(outer) + 1)
                if r == 0 or outer[r - 1] > (outer[r] if r < len(outer) else 0) + 1]
        r = draw(st.sampled_from(rows))
        if r == len(outer):
            outer.append(0)
        outer[r] += 1
    return ShiftedSkewShape(tuple(outer), inner)


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
def tableaux(draw, max_cells=MAX_CELLS, max_n=MAX_N):
    shape = draw(shapes(max_cells))
    n = draw(st.integers(2, max_n))
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
@given(tableaux(), st.data())
def test_q_and_reversal_are_involutions_reversing_their_band_weight(t, data):
    """q_i reverses the weight of the letters 1..i+1, and reversal that
    of the whole alphabet; both are involutions, on skew shapes too."""
    i = data.draw(st.integers(1, t.n - 1))
    before = weight(t)
    for op, top in ((lambda u: q(u, i), i + 1), (reversal, t.n)):
        out = op(t)
        assert op(out) == t
        assert weight(out) == before[:top][::-1] + before[top:]


@PROPERTY
@given(tableaux())
def test_evacuation_routes_agree_on_straight_shapes(t):
    """On the rectification of t, evacuation by switching, by jeu de
    taquin after the complement, and the full eta are one tableau."""
    s = rectify(t)[0]
    assert evac_switch(s) == evacuation_jdt(s) == eta(s)


def symbols(n, straight=False):
    """Every generator in range for n; evac only on straight shapes."""
    out = [GeneratorSymbol(kind, i) for kind in ("t", "p", "q", "sigma")
           for i in range(1, n)]
    out += [GeneratorSymbol(kind, i) for kind in ("evacs", "evac")[:1 + straight]
            for i in range(1, n + 1)]
    out += [GeneratorSymbol(kind, i, j) for kind in ("qij", "eta", "evacsij")
            for i, j in intervals(n)]
    return out


@PROPERTY
@given(tableaux())
def test_operators_keep_the_cells(t):
    for sym in symbols(t.n):
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


# the Bender-Knuth kernel is drawn over explore's range of tableaux
KERNEL = settings(PROPERTY, max_examples=40)
KERNEL_TABLEAUX = tableaux(max_cells=12, max_n=6)


@KERNEL
@given(KERNEL_TABLEAUX)
def test_composites_are_bk_factor_by_factor(t):
    """promotion, q and q_interval, each folded over one set of letter
    bands, equal the public bk applied factor by factor, which builds
    and validates every intermediate tableau."""
    ops = [(promotion, (i,), promotion_word(i)) for i in range(1, t.n)]
    ops += [(q, (i,), q_word(i)) for i in range(1, t.n)]
    ops += [(q_interval, ij, q_interval_word(*ij)) for ij in intervals(t.n)]
    for op, args, word in ops:
        u = t
        for k in word:
            u = bk(u, k)
        assert op(t, *args) == u, (op.__name__, args)


@KERNEL
@given(KERNEL_TABLEAUX)
def test_bk_and_evac_maps_are_canonical(t):
    """Switching a canonical pair leaves each band's first reading cell
    unprimed.  So bk_map and evac_map, which write the switched bands
    back as switching leaves them, give canonical maps: t_i on the whole
    map, and switching evacuation on every letter band i..j, re-indexed
    to 1..j-i+1 through band_keys as the family tables run it."""
    for i in range(1, t.n):
        out = bk_map(t.entry_map, i)
        assert canonical_map(out) == out, i
    cells = [c for c, _ in t.entries]
    for i in range(1, t.n + 1):
        for j in range(i, t.n + 1):
            key = band_keys(cells, t.key, i, j, evac_map)
            out = {c: entry_of_key[k] for c, k in zip(cells, key)}
            assert canonical_map(out) == out, (i, j)


@KERNEL
@given(KERNEL_TABLEAUX, st.data())
def test_bk_trace_is_the_switch_of_its_two_bands(t, data):
    """Each step of bk_trace is the matching step of switch_pair on the
    i- and (i+1)-bands, with both bands under their own letters in
    moving and every other entry, unchanged, in fixed."""
    i = data.draw(st.integers(1, t.n - 1))
    a = {c: e.primed for c, e in t.entries if e.value == i}
    b = {c: e.primed for c, e in t.entries if e.value == i + 1}
    _, _, pair_trace = switch_pair(PerforatedFilling.from_map(i, a),
                                   PerforatedFilling.from_map(i + 1, b))
    fixed = tuple((c, e) for c, e in t.entries if e.value not in (i, i + 1))
    steps = bk_trace(t, i)[1]
    assert [s.rule for s in steps] == [rule for rule, _ in pair_trace]
    for step, (_, pair) in zip(steps, pair_trace):
        moving = sorted([(c, Entry(i, p)) for c, p in pair.a.cells]
                        + [(c, Entry(i + 1, p)) for c, p in pair.b.cells])
        assert step.moving == tuple(moving) and step.fixed == fixed


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


@settings(PROPERTY, max_examples=40)
@given(shapes(max_cells=6), st.integers(1, 4), st.data())
def test_word_permutation_is_member_by_member_evaluation(shape, n, data):
    """A word of 1..4 symbols, composed from the family's tables, sends
    each member where eval_word sends it."""
    family = enumerate_tableaux(shape, n)
    word = data.draw(st.lists(st.sampled_from(symbols(n, shape.straight)),
                              min_size=1, max_size=4))
    perm = word_permutation(family, word)
    assert type(perm) is tuple and len(perm) == len(family)
    for x, member in enumerate(family):
        assert perm[x] == family.positions[eval_word(word, member).key]


@settings(PROPERTY, max_examples=40)
@given(shapes(max_cells=8), st.integers(0, 4), st.data())
def test_members_are_built_from_the_keys(shape, n, data):
    """positions is a bijection from the family's keys onto
    range(len(family)), and member(x), drawn before members is built,
    is members[x]."""
    family = enumerate_tableaux(shape, n)
    assert list(family.positions) == list(family.keys)
    assert list(family.positions.values()) == list(range(len(family)))
    drawn = data.draw(st.lists(st.integers(0, len(family) - 1), max_size=5)) \
        if len(family) else []
    singles = [family.member(x) for x in drawn]
    assert singles == [family.members[x] for x in drawn]


# the most cells a band-table family is drawn with, by n
BAND_TABLE_CELLS = {3: MAX_CELLS, 4: 6, 5: 4}


@settings(PROPERTY, max_examples=30)
@given(st.integers(3, MAX_N), st.data())
def test_band_tables_are_band_keys_member_by_member(n, data):
    """The band tables cut out of the layouts, filled for two families
    through one band memo, give for every band lo < hi, those that no
    member uses included, what band_keys gives member by member, looked
    up in positions: for the t core, switching evacuation and jdt
    reversal.  Most drawn shapes leave holes in the global cell
    numbering, as (3) does at the cell (2, 2).  The member loop shares
    jdt's standard results alone, in a memo of its own; it runs every
    core on every member for every band, so the shapes shrink as n
    grows (BAND_TABLE_CELLS)."""
    memo, standard = {}, {}
    for _ in range(2):
        shape = data.draw(shapes(max_cells=BAND_TABLE_CELLS[n]))
        family = enumerate_tableaux(shape, n)
        for core in (_band_bk, _band_evac, reversal_map):
            for lo, hi in intervals(n):
                want = [family.positions.get(band_keys(shape.sorted_cells, key, lo, hi, core,
                                                       standard))
                        for key in family.keys]
                assert list(_images(family, lo, hi, core, memo)) == want, (shape, core, lo, hi)
