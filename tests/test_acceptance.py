"""Acceptance gate: exact-example reproduction plus exhaustive property
suites at desk scale.  Each criterion prints one pass/fail line."""

import sys
import time

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from helpers import brute_force_members, skew_families, straight_families  # noqa: E402

from shifted_tableaux.core import (Entry, ShiftedSkewShape, ShiftedTableau,
                                   parse_tableau, reading_cells, render_text,
                                   weight)
from shifted_tableaux.enumeration import (enumerate_tableaux, skew_shapes,
                                          straight_shapes)
from shifted_tableaux import jdt, switching
from shifted_tableaux.bender_knuth import bk, promotion, q, q_interval
from shifted_tableaux.engine import (RelationSchema, eval_word, parse_word,
                                     search_counterexample, sbk_core_schemas,
                                     components_by_dual_equivalence, verify_cactus_action,
                                     verify_relation_over)


def rt(t):
    return render_text(t).replace("\n", " / ")


def report(capsys, num, label, ok, note=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{note}]" if note else ""
    with capsys.disabled():
        print(f"criterion {num} ({label}): {status}{suffix}", flush=True)
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_1_golden_examples(capsys):
    start = time.time()
    ok = True

    # reading word and weight of the six-cell skew example; its second row
    # is not valid under the strict order convention, so the word is read
    # from the raw filling
    shape = ShiftedSkewShape((6, 3, 1), (3, 1))
    raw = {(1, 4): Entry(1, False), (1, 5): Entry(1, False),
           (1, 6): Entry(2, True), (2, 3): Entry(2, False),
           (2, 4): Entry(2, True), (3, 3): Entry(3, False)}
    word = [str(raw[c]) for c in reading_cells(shape)]
    wt = [0, 0, 0]
    for e in raw.values():
        wt[e.value - 1] += 1
    ok &= "".join(word) == "322'112'" and tuple(wt) == (2, 3, 1)

    # switching trace golden: rules, all four intermediate pairs, final pair
    s = parse_tableau("1 1 1\n2", 2)
    t = ShiftedTableau.from_map({(1, 4): Entry(1, False),
                                 (2, 3): Entry(1, False)}, 1)
    res_t, res_s, trace = full = switching.full_switch(s, t)
    ok &= [st.rule for st in trace] == ["S1", "S1", "S7", "S1"]
    e1, e1p, e2 = Entry(1, False), Entry(1, True), Entry(2, False)
    expected = [
        ({(1, 1): e1, (1, 2): e1, (1, 3): e1, (2, 3): e2},
         {(1, 4): e1, (2, 2): e1}),
        ({(1, 1): e1, (1, 2): e1, (1, 4): e1, (2, 3): e2},
         {(1, 3): e1, (2, 2): e1}),
        ({(1, 2): e1p, (1, 4): e1, (2, 2): e1, (2, 3): e2},
         {(1, 1): e1, (1, 3): e1}),
        ({(1, 3): e1p, (1, 4): e1, (2, 2): e1, (2, 3): e2},
         {(1, 1): e1, (1, 2): e1}),
    ]
    for step, (mov, fix) in zip(trace, expected):
        ok &= dict(step.moving) == mov and dict(step.fixed) == fix
    ok &= rt(res_t) == "1 1" and rt(res_s) == ". . 1' 1 / 1 2"

    # Bender-Knuth goldens with intermediate chains
    ex = parse_tableau("1 1 2' 2\n2 3'\n3", 3)
    from shifted_tableaux.bender_knuth import bk_trace
    r1, st1 = bk_trace(ex, 1)
    r2, st2 = bk_trace(ex, 2)
    ok &= [x.rule for x in st1] == ["S5", "S1", "S3"]
    ok &= rt(r1) == "1 1 1 2 / 2 3' / 3"
    ok &= [x.rule for x in st2] == ["S3", "S2"]
    ok &= rt(r2) == "1 1 2 3 / 2 3' / 3"

    # the nine-cell witness where the braid-like relation fails
    w = parse_tableau("1 1 2' 2 3\n2 3' 3\n3", 3)
    cur = w
    for _ in range(6):
        cur = bk(bk(cur, 2), 1)
    ok &= rt(cur) == "1 1 2' 3' 3 / 2 2 3 / 3" and cur != w

    elapsed = time.time() - start
    report(capsys, 1, "golden examples", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_criterion_2_sbk_relations(capsys):
    start = time.time()
    straight = straight_families(4)
    mixed = straight + skew_families(4)
    ok = True
    notes = []
    for schema in sbk_core_schemas():
        fams = straight if schema.straight_only else mixed
        v = verify_relation_over(schema, fams)
        ok &= v.holds
        if not v.holds:
            notes.append(schema.name)
    elapsed = time.time() - start
    note = (f"{elapsed:.0f}s; (t_i q_jk)^2 on straight only -- provably "
            "fails on skew, see the xfail companion")
    report(capsys, 2, "SBK relation suite", ok and elapsed < 300, note)


@pytest.mark.xfail(strict=True,
                   reason="(t_i q_jk)^2 = 1 fails on skew shapes: t_1 q_{3,4} "
                          "acts as a 5-cycle on the standard fillings of "
                          "(4,2)/(2)")
def test_criterion_2_skew_tq_relation(capsys):
    schema = RelationSchema("(t{i} q:{j},{k})^2", "e", "i+1 < j and j < k")
    v = verify_relation_over(schema, skew_families(4))
    if not v.holds:
        ce = v.counterexample
        with capsys.disabled():
            print("criterion 2 (skew (t_i q_jk)^2 scope): FAIL "
                  f"[counterexample {rt(ce.tableau)} with {dict(ce.substitution)}]",
                  flush=True)
    assert v.holds


def test_criterion_3_evacuation_routes(capsys):
    ok = True
    for fam in straight_families(4):
        for t in fam:
            via_switch = switching.evac_switch(t)
            ok &= via_switch == jdt.evacuation_jdt(t)
            ok &= via_switch == q(t, t.n - 1)
            for k in range(2, t.n + 1):
                ek = switching.evac_k_switch(t, k)
                ok &= ek == jdt.eta(t, 1, k)
                ok &= ek == q(t, k - 1)
    report(capsys, 3, "evacuation three-route agreement", ok)


def test_criterion_4_cactus_suites(capsys):
    ok = True
    eta_fams = []
    for n in (2, 3, 4):
        eta_fams += skew_families(n, 5, include_straight=True)
    v_eta = verify_cactus_action("eta", eta_fams)
    v_q = verify_cactus_action("q", straight_families(4))
    ok &= v_eta.holds and v_q.holds
    report(capsys, 4, "cactus-action suites",
           ok, f"eta {v_eta.instances_checked}, q {v_q.instances_checked}")


def promotion_product(t, i):
    """p_1 p_2 ... p_i, rightmost factor applied first."""
    for k in range(i, 0, -1):
        t = promotion(t, k)
    return t


def test_criterion_5_evac_is_promotion_product(capsys):
    ok = True
    for fam in straight_families(4):
        for t in fam:
            for i in range(1, t.n):
                ok &= switching.evac_k_switch(t, i + 1) == promotion_product(t, i)
    skew_fam = enumerate_tableaux(ShiftedSkewShape((3, 1), (1,)), 4)
    for t in skew_fam:
        for i in range(1, t.n):
            ok &= switching.evac_k_skew(t, i + 1) == promotion_product(t, i)
    report(capsys, 5, "restricted evacuation equals promotion product", ok)


def test_criterion_6_involutions(capsys):
    ok = True
    # switch_pair on letter-band pairs extracted from enumerated tableaux
    from shifted_tableaux.switching import PerforatedFilling, switch_pair
    for fam in skew_families(3, 5):
        for t in fam:
            a = {c: e.primed for c, e in t.entries if e.value == 1}
            b = {c: e.primed for c, e in t.entries if e.value == 2}
            if a and b:
                nb, na, _ = switch_pair(PerforatedFilling.from_map("a", a),
                                        PerforatedFilling.from_map("b", b))
                ba, bb, _ = switch_pair(
                    PerforatedFilling.from_map("a", nb.cell_map),
                    PerforatedFilling.from_map("b", na.cell_map))
                ok &= ba.cell_map == a and bb.cell_map == b
    # full_switch on straight-through-extension pairs
    for shape in skew_shapes(5, 3):
        if not shape.inner:
            continue
        inner = ShiftedSkewShape(shape.inner, ())
        for s in enumerate_tableaux(inner, 2):
            for t in enumerate_tableaux(shape, 2):
                rt_, rs_, _ = switching.full_switch(s, t)
                back_s, back_t, _ = switching.full_switch(rt_, rs_)
                ok &= (back_s, back_t) == (s, t)
    # pointwise involutions over skew families
    for fam in skew_families(3, 5) + [enumerate_tableaux(s, 3)
                                        for s in straight_shapes(6, 3)]:
        for t in fam:
            ok &= jdt.reversal(jdt.reversal(t)) == t
            ok &= switching.evac_skew(switching.evac_skew(t)) == t
            for i in range(1, t.n):
                ok &= bk(bk(t, i), i) == t
                ok &= q(q(t, i), i) == t
                for j in range(i + 1, t.n + 1):
                    ok &= jdt.eta(jdt.eta(t, i, j), i, j) == t
    report(capsys, 6, "involution suites", ok)


def test_criterion_7_non_relation_witnesses(capsys):
    searches = [
        ("(t1 t2)^6", "e", False),
        ("(sigma1 sigma2)^3", "e", True),
        ("evacs:{i},{j}", "q:{i},{j}", True),
    ]
    ok = True
    details = []
    for left, right, skew in searches:
        schema = RelationSchema(left, right, "i < j" if "{" in left else "True")
        v = search_counterexample(schema, 3, 9, skew=skew, max_part=4)
        found = not v.holds and v.counterexample is not None
        ok &= found
        if found:
            ce = v.counterexample
            subs = dict(ce.substitution)
            lw = parse_word(schema.left if not subs else
                            schema.left.format(**subs))
            rw = parse_word(schema.right if not subs else
                            schema.right.format(**subs))
            # deterministic replay
            ok &= eval_word(lw, ce.tableau) == ce.left_result
            ok &= eval_word(rw, ce.tableau) == ce.right_result
            ok &= ce.left_result != ce.right_result
            details.append(f"{left}!={right} on {rt(ce.tableau)}")
    # a skew witness where the switching-based evacuation is not Knuth
    # equivalent to the complement
    wit = None
    for shape in skew_shapes(9, 4):
        for t in enumerate_tableaux(shape, 3):
            if jdt.rectify(switching.evac_skew(t))[0] != \
                    jdt.rectify(jdt.complement(t))[0]:
                wit = t
                break
        if wit:
            break
    ok &= wit is not None
    if wit is not None:
        ok &= jdt.rectify(switching.evac_skew(wit))[0] != \
            jdt.rectify(jdt.complement(wit))[0]
    report(capsys, 7, "non-relation witnesses", ok,
           "; ".join(details)[:120])


def test_criterion_8_structural_checks(capsys):
    ok = True
    fams = skew_families(3, 5) + skew_families(4, 5) + \
        [enumerate_tableaux(s, 3) for s in straight_shapes(6, 3)]
    for fam in fams:
        for t in fam:
            rev = tuple(reversed(weight(t)))
            ok &= weight(jdt.complement(t)) == rev
            ok &= weight(jdt.eta(t)) == rev
            ok &= jdt.rectify(t, "first")[0] == jdt.rectify(t, "last")[0]
    comps = components_by_dual_equivalence(
        enumerate_tableaux(ShiftedSkewShape((3, 1), (1,)), 4))
    ok &= len(comps) == 2
    report(capsys, 8, "structural checks", ok,
           f"dual-equivalence components: {len(comps)}")


def test_criterion_9_oracle_equivalence(capsys):
    start = time.time()
    ok = True
    for shape in skew_shapes(8, 4, include_straight=True):
        for n in (1, 2, 3, 4):
            if set(enumerate_tableaux(shape, n)) != brute_force_members(shape, n):
                ok = False
    report(capsys, 9, "enumeration oracle equivalence", ok,
           f"{time.time() - start:.0f}s")


def test_criterion_10_route_agreement(capsys):
    """The cactus generator s_{i,j} by its three routes: q_{i,j} (a word
    in the t_k), eta_{i,j} (jeu de taquin) and evac_j evac_{j-i+1} evac_j
    (switching) agree on the straight families at n=4 and n=5, on every
    interval i < j.  q = eta fails on skew shapes already at (1, 2), and
    evacs_{i,j}, the evacuation of the band i..j alone, is another
    operator from (2, 3) on, even on straight shapes."""
    def verdict(left, right, families):
        return verify_relation_over(RelationSchema(left, right, "i < j"), families)

    def fails_at(v, i, j):
        return not v.holds and dict(v.counterexample.substitution) == {"i": i, "j": j}

    ok = True
    for n, instances in ((4, 7782), (5, 56120)):
        families = straight_families(n)
        for right in ("eta:{i},{j}", "evac{j} evac{j-i+1} evac{j}"):
            v = verdict("q:{i},{j}", right, families)
            ok &= v.holds and v.instances_checked == instances
        for left in ("q:{i},{j}", "eta:{i},{j}"):
            ok &= fails_at(verdict(left, "evacs:{i},{j}", families), 2, 3)
    v = verdict("q:{i},{j}", "eta:{i},{j}", skew_families(4, 6))
    ok &= fails_at(v, 1, 2) and \
        (v.counterexample.shape.outer, v.counterexample.shape.inner) == ((3, 1), (2,))
    report(capsys, 10, "cactus route agreement", ok,
           "q = eta = evac evac evac on straight shapes at n=4, 5")
