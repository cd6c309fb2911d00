"""The operators slide and evacuate standard cell maps and build one
tableau per result.  These tests keep the step-by-step path, one
validated tableau per slide and per band, as the reference for
rectification, reversal and the band operators, over every straight and
skew family of at most 6 cells with outer_1 <= 4 at n=4, and for dual
equivalence, which compares two slide records, as the walk over every
common slide sequence of every pair of smaller families and of standard
fillings of at most 7 cells.  They also
keep the row-order enumeration, with canonical form as a filter and a
final sort, as the reference for the reading-order search; the
member-by-member loops with eval_word and with the public evacuations
as the reference for the verdicts, counts and first failures of the
permutation checks; the destandardization that tries every split of
each letter as the reference for the one-pass split; the rule-by-rule
validator as the reference for the one pass over order keys, on every
filling of the small shapes; and the cell-by-cell text and JSON
renderers as the reference for the row walk over the key."""

import sys
from collections import Counter
from functools import cache
from itertools import combinations, permutations, product

import pytest

from shifted_tableaux import engine, jdt, switching
from shifted_tableaux.core import (Entry, InvalidTableauError, ShiftedSkewShape,
                                   ShiftedTableau, TableauError, _validate_filling,
                                   destandardize, destandardize_map, parse_tableau,
                                   from_json, reading_cells, render_text, standardize_map,
                                   to_json, weight)
from shifted_tableaux.engine import (Counterexample, Verdict, eval_word, parse_word,
                                     sbk_core_schemas, verify_cactus_action, verify_relation_over)
from shifted_tableaux.enumeration import enumerate_tableaux, skew_shapes
from shifted_tableaux.jdt import (complement, dual_equivalent, eta, inner_corners, rectify,
                                  reversal, reversal_map)
from shifted_tableaux.switching import evac_interval_skew, evac_k_skew, evac_skew

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from helpers import (evac_routes_schema, key_positions, probing_inner_corners,  # noqa: E402
                     reference_knuth_witness, reference_member_loop, reference_parse_entry,
                     reference_rectify, reference_render_text, reference_reversal,
                     reference_slide, reference_to_json, reference_validate_filling, same,
                     skew_families, straight_families)

N = 4
INTERVALS = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]


@pytest.fixture(scope="module")
def members():
    return [t for shape in skew_shapes(6, 4, include_straight=True)
            for t in enumerate_tableaux(shape, N)]


# -- the step-by-step reference ---------------------------------------------

def reference_dual_equivalent(t1, t2, slide=reference_slide,
                              corners=probing_inner_corners):
    """Every common inner-slide sequence keeps the shapes equal, walked on
    one validated tableau per slide."""
    seen = set()

    def walk(a, b):
        if (a, b) in seen:
            return True
        seen.add((a, b))
        for corner in corners(a.shape):
            a2, ea = slide(a, corner, outer=False)
            b2, eb = slide(b, corner, outer=False)
            if ea != eb or not walk(a2, b2):
                return False
        return True

    return walk(t1, t2)


def reference_split(t, i, j):
    """The prefix (letters < i) entry map, the band (i..j) tableau and the
    suffix (> j) entry map."""
    def part(keep):
        return {c: e for c, e in t.entries if keep(e.value)}

    return (part(lambda v: v < i), ShiftedTableau.from_map(part(lambda v: i <= v <= j), t.n),
            part(lambda v: v > j))


def reference_band(t, i, j, split, op):
    """Re-index the band to 1..j-i+1, apply op, re-index back and
    reassemble the three parts."""
    prefix, band, suffix = split
    if band.size == 0:
        return t
    local = ShiftedTableau.from_map({c: e.shift(1 - i) for c, e in band.entries},
                                    j - i + 1, band.shape)
    done = op(local)
    back = ShiftedTableau.from_map({c: e.shift(i - 1) for c, e in done.entries},
                                   t.n, done.shape)
    entries = {}
    for items in (prefix.items(), back.entries, suffix.items()):
        for c, e in items:
            assert c not in entries
            entries[c] = e
    return ShiftedTableau.from_map(entries, t.n)


def row_order_enumeration(shape, n):
    """Backtrack over the cells top row first, each bounded below by its
    west and north neighbours, keep the complete fillings whose first
    occurrence of each letter in the reading word is unprimed, and sort
    them by their reading words."""
    order = sorted(shape.cells)
    reading = reading_cells(shape)
    alphabet = [Entry(k, p) for k in range(1, n + 1) for p in (True, False)]
    entries, primed_rows, used_cols = {}, set(), set()
    kept = []

    def canonical():
        seen = set()
        for cell in reading:
            e = entries[cell]
            if e.value not in seen:
                if e.primed:
                    return False
                seen.add(e.value)
        return True

    def place(idx):
        if idx == len(order):
            if canonical():
                kept.append((tuple(entries[c].order_key for c in reading),
                             dict(entries)))
            return
        r, c = order[idx]
        floor = max((e for e in (entries.get((r, c - 1)), entries.get((r - 1, c)))
                     if e is not None), default=None)
        for e in alphabet:
            if floor is not None and e < floor:
                continue
            used = primed_rows if e.primed else used_cols
            mark = (r, e.value) if e.primed else (c, e.value)
            if mark in used:
                continue
            used.add(mark)
            entries[(r, c)] = e
            place(idx + 1)
            del entries[(r, c)]
            used.discard(mark)

    place(0)
    kept.sort(key=lambda kf: kf[0])
    return tuple(ShiftedTableau.from_map(f, n, shape) for _, f in kept)


def letter_split_ok(cells_in_order, s):
    prefix, suffix = cells_in_order[:s], cells_in_order[s:]
    if any(a[0] >= b[0] for a, b in zip(prefix, prefix[1:])):
        return False
    if any(a[1] >= b[1] for a, b in zip(suffix, suffix[1:])):
        return False
    for p in prefix:
        for u in suffix:
            if p[0] == u[0] and p[1] > u[1]:
                return False
            if p[1] == u[1] and p[0] > u[0]:
                return False
    return True


def try_every_split(std, wt):
    """destandardize_map, trying every primed/unprimed split of each
    letter's cells against every rule; a cell -> order key map."""
    if sum(wt) != len(std):
        raise TableauError(f"weight {wt} does not sum to {len(std)} cells")
    by_value = {v: c for c, v in std.items()}
    entries = {}
    offset = 0
    for k, w in enumerate(wt, start=1):
        group = [by_value[v] for v in range(offset + 1, offset + w + 1)]
        offset += w
        if not group:
            continue
        first_read = min(group, key=lambda rc: (-rc[0], rc[1]))
        chosen = None
        for s in range(len(group) + 1):
            if first_read in group[:s] or not letter_split_ok(group, s):
                continue
            if chosen is not None:
                raise InvalidTableauError(
                    f"ambiguous destandardization for letter {k}", rule="destandardize")
            chosen = s
        if chosen is None:
            raise InvalidTableauError(
                f"no valid destandardization for letter {k}", rule="destandardize")
        entries.update((c, Entry(k, True).order_key) for c in group[:chosen])
        entries.update((c, Entry(k).order_key) for c in group[chosen:])
    return entries


# -- the operators against it ------------------------------------------------

def test_family_size(members):
    assert len(members) == 5134


def strict_partitions(max_part):
    return [tuple(sorted(parts, reverse=True)) for size in range(max_part + 1)
            for parts in combinations(range(1, max_part + 1), size)]


def test_inner_corners_match_probing():
    """Every (outer, inner) pair with parts <= 7, lambda/lambda and pairs
    with empty rows included."""
    partitions = strict_partitions(7)
    pairs = [(outer, inner) for outer in partitions for inner in partitions
             if len(inner) <= len(outer) and all(map(int.__le__, inner, outer))]
    assert len(pairs) == 6435  # the empty shape included
    for outer, inner in pairs:
        shape = ShiftedSkewShape(outer, inner)
        assert inner_corners(shape) == probing_inner_corners(shape), (outer, inner)


@pytest.mark.parametrize("strategy", ["first", "last"])
def test_rectify_matches_slide_by_slide(members, strategy):
    for t in members:
        rect, record = rectify(t, strategy)
        ref_rect, ref_record = reference_rectify(t, strategy)
        assert same(rect, ref_rect), render_text(t)
        assert record == ref_record, render_text(t)


def test_reversal_matches_outer_slides(members):
    for t in members:
        assert same(reversal(t), reference_reversal(t)), render_text(t)


def test_reversal_commutes_with_standardization(members):
    """The identity the engine's band memo rests on: the reversal of T is
    the reversal of its standardization, destandardized with the
    reversed weight."""
    for t in members:
        std = standardize_map(t.key_map.items())
        out = reversal_map({c: 2 * v for c, v in std.items()}, len(std))
        assert all(k % 2 == 0 for k in out.values()), render_text(t)
        values = {c: k // 2 for c, k in out.items()}
        assert reversal_map(t.key_map, t.n) == \
            destandardize_map(values, weight(t)[::-1]), render_text(t)


def compositions(size, parts):
    """Every weight vector of the given length and sum."""
    if parts == 1:
        return [(size,)]
    return [(a, *rest) for a in range(size + 1)
            for rest in compositions(size - a, parts - 1)]


def destandardized(std, wt):
    """destandardize_map's result, or its error's type, rule and message."""
    try:
        return destandardize_map(std, wt)
    except TableauError as exc:
        return type(exc), getattr(exc, "rule", ""), str(exc)


def test_destandardize_matches_every_split(members):
    """Every standardization of a member, with its own weight and with
    every other weight vector of length at most 4 and the same sum."""
    seen, outcomes = set(), Counter()
    for t in members:
        std = standardize_map(t.key_map.items())
        assert destandardize_map(std, weight(t)) == t.key_map, render_text(t)
        key = frozenset(std.items())
        if key in seen:
            continue
        seen.add(key)
        for n in range(1, N + 1):
            for wt in compositions(len(std), n):
                got = destandardized(std, wt)
                try:
                    assert got == try_every_split(std, wt), (render_text(t), wt)
                    outcomes["ok"] += 1
                except TableauError as exc:
                    assert got == (type(exc), exc.rule, str(exc)), (render_text(t), wt)
                    outcomes[str(exc).split(" for ")[0]] += 1
    assert outcomes == {"ok": 7265, "no valid destandardization": 6814}


def test_destandardize_matches_every_split_off_shapes():
    """Every placement of the values 1..3 on 3 of the cells (r, c) with
    r <= 3 and r <= c <= r+2, most of them no shape's standard filling,
    with every weight vector of length at most 3."""
    region = [(r, c) for r in range(1, 4) for c in range(r, r + 3)]
    outcomes = Counter()
    for cells in combinations(region, 3):
        for values in permutations(range(1, 4)):
            std = dict(zip(cells, values))
            for n in range(1, 4):
                for wt in compositions(3, n):
                    try:
                        want = try_every_split(std, wt)
                        outcomes["ok"] += 1
                    except TableauError as exc:
                        want = type(exc), exc.rule, str(exc)
                        outcomes[str(exc).split(" for ")[0]] += 1
                    assert destandardized(std, wt) == want, (std, wt)
    assert outcomes == {"ok": 1788, "no valid destandardization": 4328,
                        "ambiguous destandardization": 1444}


def test_dual_equivalent_matches_slide_by_slide():
    """Every pair in each family of at most 5 cells with outer_1 <= 4 at
    n=3.  The reference slides each tableau into each corner, and probes
    each shape, once: the walks of different pairs meet the same ones."""
    slide, corners = cache(reference_slide), cache(probing_inner_corners)
    pairs = equivalent = 0
    for shape in skew_shapes(5, 4, include_straight=True):
        family = tuple(enumerate_tableaux(shape, 3))
        for a in family:
            for b in family:
                got = dual_equivalent(a, b)
                assert got == reference_dual_equivalent(a, b, slide, corners), \
                    (render_text(a), render_text(b))
                pairs, equivalent = pairs + 1, equivalent + got
    assert (pairs, equivalent) == (40443, 22239)


def standard_fillings(shape):
    """Every assignment of 1..N to the N cells that the tableau
    constructor accepts."""
    cells = sorted(shape.cells)
    out = []
    for values in permutations(range(1, len(cells) + 1)):
        try:
            out.append(ShiftedTableau.from_map(
                {c: Entry(v) for c, v in zip(cells, values)}, len(cells), shape))
        except InvalidTableauError:
            continue
    return out


def test_dual_equivalent_matches_slide_by_slide_on_standard_fillings():
    """Every pair of distinct standard fillings of each shape of at most 7
    cells with outer_1 <= 4."""
    slide, corners = cache(reference_slide), cache(probing_inner_corners)
    pairs = equivalent = 0
    for shape in skew_shapes(7, 4, include_straight=True):
        for a, b in combinations(standard_fillings(shape), 2):
            got = dual_equivalent(a, b)
            assert got == reference_dual_equivalent(a, b, slide, corners), \
                (render_text(a), render_text(b))
            pairs, equivalent = pairs + 1, equivalent + got
    assert (pairs, equivalent) == (504, 262)


def test_band_operators_match_band_composition(members):
    """eta, evac_interval_skew and evac_k_skew.  The reference reverses
    and evacuates each distinct band tableau once: bands recur across
    members, and the operators themselves keep no cache."""
    band_reversal, band_evac = cache(reversal), cache(evac_skew)
    for t in members:
        for i, j in INTERVALS:
            split = reference_split(t, i, j)
            where = (render_text(t), i, j)
            assert same(eta(t, i, j), reference_band(t, i, j, split, band_reversal)), where
            evac = reference_band(t, i, j, split, band_evac)
            assert same(evac_interval_skew(t, i, j), evac), where
            if i == 1:
                assert same(evac_k_skew(t, j), evac), where


ENUMERATION_SHAPES = skew_shapes(7, 4, include_straight=True) + [
    ShiftedSkewShape((4, 2, 1), (3, 2)),  # an empty middle row
    # an empty middle row off canonical form, with outer part 5
    ShiftedSkewShape((5, 3, 1), (4, 3)),
    ShiftedSkewShape(),
    ShiftedSkewShape((3, 1), (3, 1)),
]


@pytest.mark.parametrize("n", range(6))
def test_enumeration_matches_row_order(n):
    """Members, their order and each member's (outer, inner) pair."""
    for shape in ENUMERATION_SHAPES:
        got = tuple(enumerate_tableaux(shape, n))
        want = row_order_enumeration(shape, n)
        assert got == want, (shape, n)
        assert [(t.shape.outer, t.shape.inner) for t in got] == \
            [(t.shape.outer, t.shape.inner) for t in want], (shape, n)


# -- the member-by-member verification loop ---------------------------------

def reference_verify(families, checks_of, exhaustive=False):
    """(holds, instances_checked, note, counterexample) of checking, family
    by family and for each family check list by check list, every member
    in turn against every check in turn with eval_word; the first failure
    ends the run unless exhaustive."""
    checked, failed = 0, None
    for family in families:
        for checks in checks_of(family):
            for t in family:
                for note, subs, lhs, rhs in checks:
                    checked += 1
                    left, right = eval_word(lhs, t), eval_word(rhs, t)
                    if left != right and failed is None:
                        failed = note, Counterexample(t, subs, left, right, family.shape)
                        if not exhaustive:
                            return False, checked, *failed
    return (True, checked, "", None) if failed is None else (False, checked, *failed)


def fields(verdict):
    return (verdict.holds, verdict.instances_checked, verdict.note,
            verdict.counterexample)


def schema_checks(schema):
    return lambda family: [[("", tuple(sorted(subs.items())), lhs, rhs)]
                           for subs, lhs, rhs in schema.instantiations(family.n)]


def skew_42_2():
    """(4,2)/(2) at n=4, where neither q_ij nor (t_i q_jk)^2 = 1 behaves
    as on straight shapes."""
    return [enumerate_tableaux(ShiftedSkewShape((4, 2), (2,)), 4)]


@pytest.mark.parametrize("route", ["q", "eta"])
@pytest.mark.parametrize("families", [
    lambda: skew_families(3, include_straight=True), skew_42_2], ids=["n3", "(4,2)/(2)"])
def test_cactus_verdict_matches_member_loop(route, families):
    want = reference_verify(families(), lambda family: [
        engine._cactus_checks(route, family.n)])
    assert fields(verify_cactus_action(route, families())) == want


@pytest.mark.parametrize("exhaustive", [False, True])
def test_sbk_core_verdicts_match_member_loop(exhaustive):
    """Over straight and skew families at n=3, and on (4,2)/(2) at n=4,
    where the straight-only (t_i q_jk)^2 = 1 fails."""
    families = [straight_families(3) + skew_families(3), skew_42_2()]
    for schema in sbk_core_schemas():
        for fams in families:
            want = reference_verify(fams, schema_checks(schema), exhaustive)
            assert fields(verify_relation_over(schema, fams, exhaustive)) == want, \
                schema.name


@pytest.mark.parametrize("exhaustive", [False, True])
def test_later_check_failing_at_earlier_member_comes_first(exhaustive):
    """On (3,1)/(1) at n=3, sigma_2 = t_2 first fails at member 6 and
    sigma_1 = t_1 at member 1, so the second check's failure is the
    first one met member by member."""
    family = enumerate_tableaux(ShiftedSkewShape((3, 1), (1,)), 3)
    checks = [(f"sigma{i} = t{i} fails", (("i", i),), parse_word(f"sigma{i}"),
               parse_word(f"t{i}")) for i in (2, 1)]
    want = reference_verify([family], lambda _: [checks], exhaustive)
    assert want[:3] == (False, 34 if exhaustive else 4, "sigma1 = t1 fails")
    assert want[3].tableau == family.member(1)
    assert fields(engine._check(family, checks, {}, exhaustive)) == want


def reference_fold(verdicts):
    """Verdicts of families drawn in turn, folded into one: their
    instances added up to the first failure, which ends the draw and
    gives the counterexample and note."""
    checked = 0
    for verdict in verdicts:
        checked += verdict.instances_checked
        if not verdict.holds:
            return Verdict(False, checked, verdict.counterexample, verdict.note)
    return Verdict(True, checked)


def route_outcome(check):
    """(holds, instances_checked, counterexample) of a check, or the type
    and message of the error it raises."""
    try:
        verdict = check()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return verdict.holds, verdict.instances_checked, verdict.counterexample


def swapped_evacuations(first, second):
    """A standard evacuation with the results of two standard tableaux
    of one shape exchanged."""
    evacuate = jdt._evacuate_standard
    a, b = (standardize_map(parse_tableau(text).key_map.items()) for text in (first, second))

    def wrong(std, memo):
        return evacuate(dict(b) if std == a else dict(a) if std == b else std, memo)
    return wrong


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("wrong, verdict", [
    (None, True),
    (lambda: swapped_evacuations("1 2 3 7 / 4 5 / 6", "1 2 3 5 / 4 6 / 7"), False),
    (lambda: lambda std, memo: dict(std), InvalidTableauError),
], ids=["jdt", "swapped", "identity"])
def test_evac_routes_match_member_loop(monkeypatch, n, wrong, verdict):
    """The routes line of evac-agreement, evac_n against eta:1,n on
    tables, against the member loop with evac_switch and evacuation_jdt,
    also with a wrong standard evacuation: two exchanged results give a
    counterexample, the identity a destandardization error, at the same
    member on both paths."""
    if wrong is not None:
        monkeypatch.setattr(jdt, "_evacuate_standard", wrong())
    want = route_outcome(lambda: reference_fold(
        reference_member_loop(family, switching.evac_switch, jdt.evacuation_jdt)
        for family in straight_families(n)))
    assert want[0] is verdict
    assert route_outcome(lambda: verify_relation_over(
        evac_routes_schema(n), straight_families(n))) == want


@pytest.mark.parametrize("evac_map", [None, lambda entries, n: dict(entries)],
                         ids=["switching", "identity"])
def test_knuth_witness_matches_member_loop(monkeypatch, evac_map):
    """The skew Knuth-equivalence witness of non-relations, which compares
    rectifications of table images on keys, gives the verdict of the
    member loop that rectifies evac_skew and complement of each member,
    on every family of skew_shapes(7, 4) at n=0..4; also with the
    identity in place of switching evacuation, where the witness is
    found elsewhere.  The engine evacuates bands of three letters or
    more through its band memo, not through evac_map, so the identity
    replaces its evacuation core too."""
    if evac_map is not None:
        monkeypatch.setattr(switching, "evac_map", evac_map)
        monkeypatch.setattr(engine, "_band_evac", lambda local, n, memo: evac_map(local, n))
    shapes = skew_shapes(7, 4)
    for n in range(5):
        memo = {}
        for shape in shapes:
            family = enumerate_tableaux(shape, n)
            assert engine._knuth_witness(family, memo) == reference_knuth_witness(family), \
                (shape, n)


def test_knuth_witness_image_off_its_family_is_a_runtime_error(monkeypatch):
    """An evac_map image that is no member of the family raises the
    RuntimeError a table raises, naming the whole-alphabet generator."""
    monkeypatch.setattr(switching, "evac_map", lambda entries, n: dict.fromkeys(entries, 2))
    family = enumerate_tableaux(ShiftedSkewShape((3, 1), (1,)), 2)
    with pytest.raises(RuntimeError, match=r"^evacs2 took member 0 of ShST\(.*, 2\) out of its "
                       "family$"):
        engine._knuth_witness(family, {})


def member_loop(family, op):
    """The position of op(member) for each member, op run on the member's
    cell -> order key map with no memo and its result's key looked up
    among the members."""
    cells, positions = sorted(family.shape.cells), key_positions(family)
    images = (op(t.key_map, family.n) for t in family)
    return [positions[tuple(out[c] for c in cells)] for out in images]


@pytest.mark.parametrize("n", [3, 4])
def test_whole_member_tables_match_member_loop(n):
    """eta:1,n on every family of cactus-eta and evac-agreement is looked
    up by standardization and weight: it equals reversal_map run member
    by member, and, on the straight families, where the routes line of
    evac-agreement reads it and the reversal is the evacuation, rectify
    after the complement; no two members share a standardization and a
    weight, so the lookup is well defined."""
    straight = straight_families(n)
    eta_1n = (engine.GeneratorSymbol("eta", 1, n),)
    for family in skew_families(n, include_straight=True) + straight:
        assert list(engine.word_permutation(family, eta_1n)) == \
            member_loop(family, reversal_map), family.shape
        cells = sorted(family.shape.cells)
        labels = {(tuple(map(standardize_map(t.key_map.items()).get, cells)), weight(t))
                  for t in family}
        assert len(labels) == len(family), family.shape
    for family in straight:
        positions = key_positions(family)
        assert list(engine.word_permutation(family, eta_1n)) == \
            [positions[rectify(complement(t))[0].key] for t in family], family.shape


# -- validation messages -----------------------------------------------------

@pytest.mark.parametrize("build, rule, message, cell", [
    (lambda: ShiftedTableau.from_map({(1, 1): Entry(1), (1, 2): Entry(2)}, 2,
                                     ShiftedSkewShape((3,))),
     "coverage", "filling does not cover shape exactly (extra=[], missing=[(1, 3)])",
     (1, 3)),
    (lambda: parse_tableau("1 3", 2),
     "alphabet", "entry 3 at (1, 2) exceeds alphabet bound n=2", (1, 2)),
    (lambda: parse_tableau("2 1", 2),
     "row-order", "row not weakly increasing at (1, 1): 2 > 1", (1, 2)),
    (lambda: parse_tableau("1 2\n1", 2),
     "column-order", "column not weakly increasing at (1, 2): 2 > 1", (2, 2)),
    (lambda: parse_tableau("1 2' 2'", 2),
     "primed-row-multiplicity", "two 2' in row 1", (1, 3)),
    (lambda: parse_tableau("1 2\n2", 2),
     "column-multiplicity", "two 2 in column 2", (2, 2)),
    # letters 3 and 2 both start primed; 3 comes first in the reading word
    (lambda: parse_tableau("1 2' 3' 3\n3'", 3),
     "canonical-form", "first occurrence of letter 3 in reading word is primed", None),
], ids=["coverage", "alphabet", "row-order", "column-order",
        "primed-row-multiplicity", "column-multiplicity", "canonical-form"])
def test_bad_filling_rule_and_message(build, rule, message, cell):
    with pytest.raises(InvalidTableauError) as info:
        build()
    assert (info.value.rule, str(info.value), info.value.cell) == (rule, message, cell)


def every_representation(max_cells):
    """Every (outer, inner) pair with outer_1 <= 4 and at most max_cells
    cells, not deduplicated by cell set: the empty shape, lambda/lambda,
    and pairs with an empty row such as (2,1)/(2) are among them."""
    parts = [tuple(sorted(p, reverse=True)) for k in range(5)
             for p in combinations(range(1, 5), k)]
    shapes = []
    for outer, inner in product(parts, parts):
        try:
            shape = ShiftedSkewShape(outer, inner)
        except TableauError:
            continue
        if shape.size <= max_cells:
            shapes.append(shape)
    return shapes


def validation_outcome(validate, *args):
    try:
        validate(*args)
    except InvalidTableauError as exc:
        return type(exc), exc.rule, str(exc), exc.cell
    return None


def test_validator_matches_rule_by_rule():
    """Every filling with order keys 1..2n+2 (so letters up to n+1) of
    every representation of at most 4 cells, at n = 1..3: the validator
    on the key gives the reference's verdict on the (cell, entry) items,
    and on a fault the same rule, message and cell."""
    shapes = every_representation(4)
    assert ShiftedSkewShape((2, 1), (2,)) in shapes and ShiftedSkewShape((2,), (2,)) in shapes
    faults = Counter()
    for n in (1, 2, 3):
        entries = [Entry((k + 1) // 2, k % 2 == 1) for k in range(1, 2 * n + 3)]
        for shape in shapes:
            for filling in product(entries, repeat=shape.size):
                items = tuple(zip(shape.sorted_cells, filling))
                key = tuple(e.order_key for e in filling)
                got = validation_outcome(_validate_filling, shape, key, n)
                assert got == validation_outcome(reference_validate_filling, shape, items, n), \
                    (shape, items, n)
                faults[got and got[1]] += 1
    # every rule is met, and most fillings fail
    assert set(faults) == {None, "alphabet", "row-order", "column-order",
                           "primed-row-multiplicity", "column-multiplicity",
                           "canonical-form"}
    assert faults[None] < sum(faults.values()) // 4


def test_validator_matches_rule_by_rule_on_bad_cells():
    """Maps on cells missing from or off the shape, alone and together, on
    every representation of at most 3 cells: from_map raises the
    reference's coverage error.  A key one entry too short or too long
    is a coverage error of the validator."""
    staircase = ShiftedSkewShape((4, 3, 2, 1)).sorted_cells
    entries = [Entry(1), Entry(2, True), Entry(2)]
    checked = 0
    for shape in every_representation(3):
        cells = list(shape.sorted_cells)
        variants = [cells[:x] + cells[x + 1:] for x in range(len(cells))]   # missing
        variants += [cells + [c] for c in staircase if c not in cells]       # extra
        variants += [cells[1:] + [c] for c in staircase if c not in cells]   # both
        for variant in variants:
            for filling in product(entries, repeat=len(variant)):
                items = tuple(sorted(zip(variant, filling)))
                got = validation_outcome(ShiftedTableau.from_map, dict(items), 2, shape)
                assert got == validation_outcome(reference_validate_filling, shape, items, 2), \
                    (shape, items)
                assert got is not None and got[1] == "coverage"
                checked += 1
        for size in (len(cells) - 1, len(cells) + 1):
            if size >= 0:
                got = validation_outcome(_validate_filling, shape, (2,) * size, 2)
                assert got is not None and got[1] == "coverage", (shape, size)
    assert checked > 10000


def test_render_matches_cell_by_cell():
    """render_text fills the shape's template and to_json cuts its rows
    by the shape's row slices, both from the entries' texts; the
    reference looks every cell up in a cell -> entry map and spells each
    entry.  Each form also reads back to the tableau.  Every member of
    every skew shape of at most 6 cells at n=3, lambda/lambda, and shapes
    with an empty row."""
    shapes = skew_shapes(6, include_straight=True) + [
        ShiftedSkewShape(), ShiftedSkewShape((3,), (3,)), ShiftedSkewShape((3, 1), (3, 1)),
        ShiftedSkewShape((2, 1), (2,)), ShiftedSkewShape((3, 1), (3,)),
        ShiftedSkewShape((4, 2, 1), (4, 1))]
    checked = 0
    for shape in shapes:
        for t in enumerate_tableaux(shape, 3):
            assert render_text(t) == reference_render_text(t), t.entries
            assert to_json(t) == reference_to_json(t), t.entries
            assert parse_tableau(render_text(t), t.n) == t, t.entries
            assert from_json(to_json(t)) == t, t.entries
            checked += 1
    assert checked == 46891


def _parsed(parse, token):
    """parse(token), or the type and message of its error."""
    try:
        return parse(token)
    except TableauError as exc:
        return type(exc), str(exc)


def test_entry_parse_matches_full_parse():
    """Entry.parse looks a token up among the interned entries' texts
    and parses any other token in full; the reference parses every
    token in full.  Every text of the letters 1..12 gives the reference's
    entry, and tokens that are no entry's text, a non-string among them,
    keep the reference's entry or error."""
    texts = [str(Entry(v, p)) for v in range(1, 13) for p in (False, True)]
    assert texts[:4] == ["1", "1'", "2", "2'"]
    for text in texts:
        assert Entry.parse(text) is reference_parse_entry(text)
        assert Entry.parse(text).text == text
    odd = ["01", "1\u2032", " 2' ", "0", "1''", "a", "", "'", "\u00b2", "\u00b23", 1, None,
           ["1"]]
    for token in odd:
        assert _parsed(Entry.parse, token) == _parsed(reference_parse_entry, token), token
    assert [_parsed(Entry.parse, t) for t in ("01", "1\u2032", " 2' ")] == \
        [Entry(1), Entry(1, True), Entry(2, True)]
    assert _parsed(Entry.parse, "1''") == (TableauError, "malformed cell token \"1''\"")
