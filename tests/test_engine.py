"""Word parsing, relation schemas, verification, searches, orbits, presets."""

import itertools

import pytest

from shifted_tableaux import bender_knuth, engine, jdt, switching
from shifted_tableaux.core import (CapacityError, Entry, InvalidTableauError, ShiftedSkewShape,
                                   parse_tableau, render_text)
from shifted_tableaux.enumeration import enumerate_tableaux, skew_shapes
from shifted_tableaux.engine import (MAX_ASSIGNMENTS, MAX_WORD_LENGTH,
                                     GeneratorSymbol,
                                     RelationSchema, WordError, apply_symbol,
                                     components_by_dual_equivalence, eval_word,
                                     orbit_graph, parse_symbol, parse_word, run_preset,
                                     search_counterexample, verify_cactus_action,
                                     verify_relation, verify_relation_over,
                                     straight_families, word_permutation)
from shifted_tableaux.bender_knuth import bk, q_interval
from shifted_tableaux.jdt import eta, rectify


def rt(t):
    return render_text(t).replace("\n", " / ")


def error_of(run):
    """The type and message of the error run raises."""
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


class TestWords:
    def test_parse_symbols(self):
        word = parse_word("t1 p2 q3 eta:1,3 sigma2 evac3 evacs2 q:2,4")
        assert [str(s) for s in word] == \
            ["t1", "p2", "q3", "eta:1,3", "sigma2", "evac3", "evacs2", "q:2,4"]

    def test_identity(self):
        assert parse_word("e") == ()

    def test_powers(self):
        assert [str(s) for s in parse_word("(t1 t2)^2")] == \
            ["t1", "t2", "t1", "t2"]
        assert [str(s) for s in parse_word("t1^3")] == ["t1", "t1", "t1"]

    def test_zero_power_removes_its_base(self):
        assert parse_word("t1^0") == parse_word("(t1)^0") == parse_word("e^0") == ()
        assert [str(s) for s in parse_word("t2 t1^0 t3")] == ["t2", "t3"]
        assert [str(s) for s in parse_word("t2 e^2")] == ["t2"]

    def test_powers_multiply(self):
        assert [str(s) for s in parse_word("t1^2^3")] == ["t1"] * 6

    @pytest.mark.parametrize("text", ["t1^", "(t1 t2)^", "t1^^2", "t1^ 2"])
    def test_power_without_exponent(self, text):
        with pytest.raises(WordError, match="power without an exponent"):
            parse_word(text)

    def test_bad_words(self):
        for text in ("t", "frob1", "t1)^2", "(t1", "t1 ^2x"):
            with pytest.raises(WordError):
                parse_word(text)

    def test_length_bound(self):
        assert len(parse_word(f"(t1 t2)^{MAX_WORD_LENGTH // 2}")) \
            == MAX_WORD_LENGTH
        for text in ("t1^99999999", f"(t1 t2)^{MAX_WORD_LENGTH // 2 + 1}",
                     "((t1 t2)^1000)^1000", "t1 " * (MAX_WORD_LENGTH + 1)):
            with pytest.raises(WordError):
                parse_word(text)

    def test_eval_rightmost_first(self):
        t = parse_tableau(". . 1 3\n2 4", 4)
        word = parse_word("t2 t1")
        assert eval_word(word, t) == bk(bk(t, 1), 2)

    def test_eval_named_operators(self):
        t = parse_tableau("1 2\n3", 3)
        assert eval_word(parse_word("eta:1,3"), t) == eta(t, 1, 3)
        assert eval_word(parse_word("q:2,3"), t) == q_interval(t, 2, 3)

    @pytest.mark.parametrize("text, n, word, want, pair", [
        (". . . . / 1 2 / 3", 4, "q2 t1 eta:1,2 p3", ". . . / 2 3 / 4",
         ((3, 2, 1), (3,))),
        (". . . . / 1 2 / 3", 5, "p2 eta:4,5 q:1,3", ". . . . / 1 2 / 3",
         ((4, 2, 1), (4,))),
        (". . 1 2 / 1 3 4 / 4", 4, "evacs:2,4 sigma1 q:2,4 p3", ". . 1' 2 / 1 3 3 / 4",
         ((4, 3, 1), (2,))),
    ])
    def test_eval_mixed_word(self, text, n, word, want, pair):
        """The result and its (outer, inner) pair: from_cells's once a
        band generator has moved a letter, else the input's."""
        got = eval_word(parse_word(word), parse_tableau(text, n))
        assert (rt(got), (got.shape.outer, got.shape.inner)) == (want, pair)

    # the valid range of each kind, written out: (kind, indices, valid_for(n))
    RANGES = [("t", 1, lambda n, i: 1 <= i <= n - 1), ("p", 1, lambda n, i: 1 <= i <= n - 1),
              ("q", 1, lambda n, i: 1 <= i <= n - 1), ("sigma", 1, lambda n, i: 1 <= i <= n - 1),
              ("evac", 1, lambda n, i: 1 <= i <= n), ("evacs", 1, lambda n, i: 1 <= i <= n),
              ("qij", 2, lambda n, i, j: 1 <= i < j <= n),
              ("eta", 2, lambda n, i, j: 1 <= i < j <= n),
              ("evacsij", 2, lambda n, i, j: 1 <= i < j <= n)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generator_table_round_trips(self, n):
        """Every kind parses back from its text, and valid_for is its
        written-out range, on indices 0..n+1; a kind outside the table is
        rejected."""
        assert sorted(kind for kind, _, _ in self.RANGES) == sorted(engine._KINDS)
        with pytest.raises(WordError, match="unknown generator kind 'zz'"):
            GeneratorSymbol("zz", 1)
        for kind, count, valid in self.RANGES:
            for indices in itertools.product(range(n + 2), repeat=count):
                sym = GeneratorSymbol(kind, *indices)
                assert parse_symbol(str(sym)) == sym, sym
                assert sym.valid_for(n) == valid(n, *indices), (sym, n)


class TestSchemas:
    def test_parse_with_constraint(self):
        s = RelationSchema.parse("t{i} t{j} = t{j} t{i} : |i-j| > 1")
        assert sorted(s.variables) == ["i", "j"]
        subs = [dict(x) for x, _, _ in s.instantiations(4)]
        assert {"i": 1, "j": 3} in subs
        assert {"i": 1, "j": 2} not in subs

    def test_verify_holds(self):
        fam = enumerate_tableaux(ShiftedSkewShape((3, 1), ()), 3)
        v = verify_relation(RelationSchema("t{i} t{i}", "e"), fam)
        assert v.holds and v.instances_checked > 0

    def test_verify_finds_counterexample(self):
        fam = enumerate_tableaux(ShiftedSkewShape((5, 3, 1), ()), 3)
        v = verify_relation(RelationSchema("(t1 t2)^6", "e"), fam)
        assert not v.holds
        ce = v.counterexample
        assert eval_word(parse_word("(t1 t2)^6"), ce.tableau) == ce.left_result
        assert ce.left_result != ce.right_result

    def test_verify_over_families(self):
        v = verify_relation_over(RelationSchema("t1 t1", "e"),
                                 straight_families(2))
        assert v.holds

    @pytest.mark.parametrize("text", ["t{i**i**i**i**i} = e",
                                      "t1 = e : i**i**i**i**i > 0",
                                      "t1 = e : i * * i > 0",
                                      "t1 = e : |i**9| > 0"])
    def test_power_rejected_before_eval(self, text):
        with pytest.raises(WordError, match=r"'\*\*' is not allowed"):
            RelationSchema.parse(text).instantiations(9)

    def test_assignments_drawn_lazily_and_bounded(self):
        schema = RelationSchema.parse("t1 = e : i < j and k < l")
        n = int(MAX_ASSIGNMENTS ** 0.25)
        assert n ** 4 <= MAX_ASSIGNMENTS
        first = next(schema.instantiations(n))
        assert first[0] == {"i": 1, "j": 2, "k": 1, "l": 2}
        with pytest.raises(WordError, match="300\\^4 index assignments"):
            schema.instantiations(300)

    def test_instantiations_drawn_once_per_call(self, monkeypatch):
        """All families of one call share the draw for their n."""
        draws = []
        instantiations = RelationSchema.instantiations

        def counted(schema, n):
            draws.append(n)
            return instantiations(schema, n)

        monkeypatch.setattr(RelationSchema, "instantiations", counted)
        families = straight_families(3) + engine.skew_families(3) + straight_families(2)
        for schema in engine.sbk_core_schemas():
            draws.clear()
            assert verify_relation_over(schema, families, exhaustive=True).holds
            assert draws == [3, 2], schema.name

    @pytest.mark.parametrize("exhaustive, outcome", [
        (False, (False, 1)), (True, "modulo by zero")])
    def test_draw_error_comes_after_earlier_checks(self, exhaustive, outcome):
        """t1 = t2 fails at i=1 on the first member of (2) at n=3; the draw
        for i=2 divides by zero, so only an exhaustive run reaches it."""
        schema = RelationSchema.parse("t{i} = t{i % (2 - i) + 2}")
        families = [enumerate_tableaux(ShiftedSkewShape((2,)), 3)] * 2
        if exhaustive:
            with pytest.raises(WordError, match=outcome):
                verify_relation_over(schema, families, exhaustive)
        else:
            v = verify_relation_over(schema, families, exhaustive)
            assert (v.holds, v.instances_checked) == outcome


class TestCactusEvacRoute:
    """The route s_ij = evac_j evac_{j-i+1} evac_j on straight shapes."""

    @pytest.fixture(scope="class")
    def families(self):
        return {n: straight_families(n) for n in (3, 4)}

    @pytest.mark.parametrize("n, instances", [(3, 2596), (4, 37613)])
    def test_route_holds(self, families, n, instances):
        v = verify_cactus_action("evac", families[n])
        assert v.holds and v.instances_checked == instances

    def test_schemas_hold(self, families):
        # the cactus relations as schemas, s_{a,b} = evac_b evac_{b-a+1} evac_b;
        # {j-(i)+1} keeps parentheses inside a brace expression under test
        def s(a, b):
            return f"evac{{{b}}} evac{{{b}-({a})+1}} evac{{{b}}}"
        schemas = [
            RelationSchema(f"{s('i', 'j')} {s('i', 'j')}", "e", "i < j"),
            RelationSchema(f"{s('i', 'j')} {s('k', 'l')}",
                           f"{s('k', 'l')} {s('i', 'j')}",
                           "i < j and k < l and j < k"),
            RelationSchema(f"{s('i', 'j')} {s('k', 'l')}",
                           f"{s('i+j-l', 'i+j-k')} {s('i', 'j')}",
                           "i <= k and k < l and l <= j and i < j"),
        ]
        counts = []
        for schema in schemas:
            v = verify_relation_over(schema, families[4])
            assert v.holds, schema.left
            counts.append(v.instances_checked)
        assert counts == [7782, 1297, 19455]


N = 4
# (4,2,1)/(3,2) has an empty middle row, so rectifying it slides through
# the empty row
FAMILY_SHAPES = [((3, 1), ()), ((3, 2), ()), ((3, 1), (1,)), ((4, 2), (2,)),
                 ((4, 2, 1), (3, 2))]


def all_symbols(n, straight):
    kinds = ["t", "p", "q", "sigma", "evacs"] + (["evac"] if straight else [])
    one = [GeneratorSymbol(k, i) for k in kinds for i in range(1, n + 1)]
    two = [GeneratorSymbol(k, i, j) for k in ("qij", "eta", "evacsij")
           for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [s for s in one + two if s.valid_for(n)]


def cycle_length(perm, start):
    length, x = 1, perm[start]
    while x != start:
        length, x = length + 1, perm[x]
    return length


class TestFamilyTables:
    @pytest.mark.parametrize("outer,inner", FAMILY_SHAPES)
    def test_tables_are_permutations(self, outer, inner):
        fam = enumerate_tableaux(ShiftedSkewShape(outer, inner), N)
        for sym in all_symbols(N, not inner):
            perm = word_permutation(fam, (sym,))
            assert fam.tables[sym] == perm, sym
            for x, t in enumerate(fam):
                assert fam.members[perm[x]] == apply_symbol(t, sym), sym
            assert sorted(perm) == list(range(len(fam))), sym
            if sym.kind != "p":
                assert all(perm[perm[x]] == x for x in range(len(fam))), sym

    @pytest.mark.parametrize("outer, inner, text", [
        ((3, 2), (), "q:2,4 t1"),
        ((4, 2), (2,), "q:2,4 t1 eta:1,3 p2 sigma3 evacs:2,4"),
    ])
    def test_word_is_composition(self, outer, inner, text):
        fam = enumerate_tableaux(ShiftedSkewShape(outer, inner), N)
        word = parse_word(text)
        perm = word_permutation(fam, word)
        composed = list(range(len(fam)))
        for sym in reversed(word):
            composed = [fam.tables[sym][x] for x in composed]
        assert list(perm) == composed
        for x, t in enumerate(fam):
            assert fam.members[perm[x]] == eval_word(word, t)

    def test_tables_are_whole_after_a_check(self):
        """One verify_relation_over call leaves every table it used a
        complete permutation of the member positions."""
        families = engine.skew_families(3, include_straight=True)
        schema = RelationSchema("q:{i},{j} eta:{i},{j} p{i}", "p{i} eta:{i},{j} q:{i},{j}",
                                "i < j")
        verify_relation_over(schema, families, exhaustive=True)
        kinds = {sym.kind for family in families for sym in family.tables}
        assert kinds == {"t", "p", "qij", "eta"}
        for family in families:
            for sym, table in family.tables.items():
                assert sorted(table) == list(range(len(family))), (family.shape, sym)

    def test_skew_five_cycle(self):
        # t1 q_{3,4} permutes the five standard fillings of (4,2)/(2) in
        # one 5-cycle
        fam = enumerate_tableaux(ShiftedSkewShape((4, 2), (2,)), 4)
        perm = word_permutation(fam, parse_word("t1 q:3,4"))
        standard = [x for x, t in enumerate(fam)
                    if sorted(e.value for _, e in t.entries) == [1, 2, 3, 4]]
        assert len(standard) == 5
        assert sorted(perm[x] for x in standard) == standard
        assert cycle_length(perm, standard[0]) == 5

    def test_cactus_counterexample_golden(self):
        # the q-realization is not a cactus action on skew shapes
        fam = enumerate_tableaux(ShiftedSkewShape((4, 2), (2,)), 4)
        v = verify_cactus_action("q", [fam])
        assert (v.holds, v.instances_checked, v.note) == \
            (False, 878, "disjoint commutation fails")
        ce = v.counterexample
        assert ce.substitution == (("i", 1), ("j", 2), ("k", 3), ("l", 4))
        assert [rt(t) for t in (ce.tableau, ce.left_result, ce.right_result)] \
            == [". . 2 4 / 1 3", ". . 1 3 / 2 4", ". . 1 4 / 2 3"]

    def test_output_outside_family_is_integrity_error(self, monkeypatch):
        # same cells, but not a valid filling: its key is no member's
        fam = enumerate_tableaux(ShiftedSkewShape((2,), ()), 2)
        other = {(1, 1): Entry(2), (1, 2): Entry(1)}
        monkeypatch.setattr(bender_knuth, "bk_map", lambda entries, i: other)
        with pytest.raises(RuntimeError, match="out of its family"):
            verify_relation(RelationSchema("t1", "e"), fam)

    @pytest.mark.parametrize("module, name, word", [
        (bender_knuth, "bk_map", "t1"),
        (switching, "evac_map", "evacs:1,2"),
    ])
    @pytest.mark.parametrize("cells", [[(1, 1)], [(1, 1), (1, 2), (1, 3)],
                                       [(1, 1), (2, 2)]])
    def test_output_on_other_cells_is_integrity_error(self, monkeypatch, module,
                                                      name, word, cells):
        # every letter of a one-row member of (2) at n=2 lies in the band,
        # so each core sees the whole member and returns another cell set
        fam = enumerate_tableaux(ShiftedSkewShape((2,), ()), 2)
        monkeypatch.setattr(module, name,
                            lambda entries, k: {c: Entry(1) for c in cells})
        with pytest.raises(RuntimeError, match="out of its family"):
            word_permutation(fam, parse_word(word))

    @pytest.mark.parametrize("fake", [
        *(lambda std, memo, cells=cells: dict(zip(cells, range(1, len(cells) + 1)))
          for cells in ([(1, 1)], [(1, 1), (1, 2), (1, 3)], [(1, 1), (2, 2)])),
        lambda std, memo: {c: 1 for c in std},
        lambda std, memo: dict(zip(std, reversed(list(std.values())))),
    ], ids=["fewer-cells", "more-cells", "other-cells", "not-standard",
            "no-destandardization"])
    def test_bad_standard_reversal_is_member_loop_error(self, monkeypatch, fake):
        """A standard reversal on other cells than the member's, not a
        standard filling, or without a destandardization is an error, the
        one the member loop raises at its first member: 1 1 standardizes
        to 1 2, and 2 1 has no destandardization of weight (0, 2)."""
        fam = enumerate_tableaux(ShiftedSkewShape((2,), ()), 2)
        monkeypatch.setattr(jdt, "_reverse_standard", fake)
        word = parse_word("sigma1")
        want = error_of(lambda: [eval_word(word, t) for t in fam])
        assert want[0] is (InvalidTableauError if "destandardization" in want[1]
                           else RuntimeError)
        assert error_of(lambda: word_permutation(fam, word)) == want

    def test_band_reversal_runs_once_per_standardization(self, monkeypatch):
        """eta shares band reversals across weights: in one cactus check
        at n=3, jdt's standard reversal runs once per distinct
        standardized band, and fewer times than bands are standardized."""
        reverse, standardize = jdt._reverse_standard, jdt.standardize_map
        reversed_bands, standardized = [], []

        def counted_reversal(std, memo):
            assert sorted(std.values()) == list(range(1, len(std) + 1))
            reversed_bands.append(frozenset(std.items()))
            return reverse(std, memo)

        def counted_standardize(items):
            std = standardize(items)
            standardized.append(frozenset(std.items()))
            return std

        monkeypatch.setattr(jdt, "_reverse_standard", counted_reversal)
        monkeypatch.setattr(jdt, "standardize_map", counted_standardize)
        assert verify_cactus_action("eta", engine.skew_families(3, include_straight=True)).holds
        assert len(reversed_bands) == len(set(reversed_bands)) == len(set(standardized))
        assert len(reversed_bands) < len(standardized)

    def test_evac_routes_build_no_tableau(self, monkeypatch):
        """The routes line of evac-agreement fills its evac_3 and eta:1,3
        tables on cell maps, and runs jdt's standard evacuation once per
        standardization: fewer times than there are members."""
        families = straight_families(3)
        built, evacuated = [], []
        evacuate = jdt._evacuate_standard

        def counted(std, memo):
            assert sorted(std.values()) == list(range(1, len(std) + 1))
            evacuated.append(frozenset(std.items()))
            return evacuate(std, memo)

        monkeypatch.setattr(engine.ShiftedTableau, "__post_init__",
                            lambda t: built.append(t))
        monkeypatch.setattr(jdt, "_evacuate_standard", counted)
        memo, routes = {}, engine._evac_route_checks(3)
        v = engine._first_failure(engine._check(family, routes, memo) for family in families)
        assert (v.holds, v.instances_checked, built) == (True, 236, [])
        assert len(evacuated) == len(set(evacuated)) < 236

    @pytest.mark.parametrize("preset", ["sbk-core", "cactus-q", "cactus-eta",
                                        "evac-agreement"])
    def test_preset_builds_no_tableau(self, monkeypatch, preset):
        """A family is its members' keys, and every table is filled on
        keys: a preset whose lines all hold builds no tableau at all, its
        enumeration included."""
        built = []
        monkeypatch.setattr(engine.ShiftedTableau, "__post_init__", lambda t: built.append(t))
        results = run_preset(preset, 4)
        assert all(r.ok for r in results) and built == []

    def test_failing_check_builds_only_its_counterexample(self, monkeypatch):
        """A failing relation builds the member its counterexample prints,
        through family.member, and then its two sides, and no other
        tableau; each is validated."""
        family = enumerate_tableaux(ShiftedSkewShape((3, 1)), 3)
        validate, built = engine.ShiftedTableau.__post_init__, []

        def spy(t):
            validate(t)
            built.append(t)

        monkeypatch.setattr(engine.ShiftedTableau, "__post_init__", spy)
        v = verify_relation(RelationSchema("t1", "t2"), family)
        ce = v.counterexample
        assert (v.holds, v.instances_checked) == (False, 1)
        assert [id(t) for t in built] == [id(ce.tableau), id(ce.left_result),
                                          id(ce.right_result)]
        monkeypatch.undo()
        assert ce.tableau == family.members[0]
        assert (rt(ce.left_result), rt(ce.right_result)) == ("1 2' 2 / 2", "1 1 1 / 3")

    def test_t_band_runs_once_per_band(self, monkeypatch):
        """t_i runs on its band {i, i+1} re-indexed to 1..2: in one
        relation check at n=3, bender_knuth.bk_map sees the letters 1 and
        2 only, runs once per distinct band, and fewer times than t table
        entries are filled."""
        bk_map, bands = bender_knuth.bk_map, []

        def counted_bk_map(entries, i):
            assert i == 1 and {e.value for e in entries.values()} <= {1, 2}
            bands.append(frozenset(entries.items()))
            return bk_map(entries, i)

        monkeypatch.setattr(bender_knuth, "bk_map", counted_bk_map)
        families = engine.skew_families(3, include_straight=True)
        assert verify_relation_over(RelationSchema("t{i} t{i}", "e"), families).holds
        filled = sum(y >= 0 for family in families
                     for sym, table in family.tables.items() if sym.kind == "t"
                     for y in table)
        assert len(bands) == len(set(bands))
        assert len(bands) < filled

    def test_t_and_evacs_bands_are_memoized_apart(self, monkeypatch):
        """t_i and evacs:i,i+1 agree (both switch the i-band through the
        (i+1)-band and swap the letters), but their band results are kept
        under different memo keys: in one check of t{i} = evacs:{i},{i+1},
        bk_map and evac_map each run once on every distinct band."""
        runs = {"bk_map": [], "evac_map": []}

        def counted(module, name):
            original = getattr(module, name)

            def run(entries, k):
                runs[name].append(frozenset(entries.items()))
                return original(entries, k)
            monkeypatch.setattr(module, name, run)

        counted(bender_knuth, "bk_map")
        counted(switching, "evac_map")
        schema = RelationSchema("t{i}", "evacs:{i},{i+1}")
        assert verify_relation_over(schema, engine.skew_families(3)).holds
        bk_bands, evac_bands = runs["bk_map"], runs["evac_map"]
        assert bk_bands and set(bk_bands) == set(evac_bands)
        assert len(bk_bands) == len(set(bk_bands)) == len(evac_bands)

    def test_preset_runs_each_t_band_once(self, monkeypatch):
        """The verifications of one run_preset call share one band memo:
        over evac-agreement at n=3, whose lines fill t tables on the same
        bands in straight and skew families, bk_map never sees a band
        twice."""
        bk_map, bands = bender_knuth.bk_map, []

        def counted_bk_map(entries, i):
            bands.append(frozenset(entries.items()))
            return bk_map(entries, i)

        monkeypatch.setattr(bender_knuth, "bk_map", counted_bk_map)
        assert all(r.ok for r in run_preset("evac-agreement", 3))
        assert bands and len(bands) == len(set(bands))

    @pytest.mark.parametrize("preset, module, name, runs", [
        ("cactus-q", bender_knuth, "bk_map", 389),
        ("sbk-core", bender_knuth, "bk_map", 412),
        ("evac-agreement", switching, "evac_map", 6362),
    ])
    def test_band_results_are_shared_across_families(self, monkeypatch, preset, module,
                                                     name, runs):
        """A band is moved once per band memo, whatever family it comes
        from: at n=4 the core runs these many times, where a memo kept per
        family would run bk_map about 8,280 times over cactus-q and
        sbk-core."""
        core, calls = getattr(module, name), []

        def counted(entries, k):
            calls.append(None)
            return core(entries, k)

        monkeypatch.setattr(module, name, counted)
        assert all(r.ok for r in run_preset(preset, 4))
        assert len(calls) == runs

    def test_evac_agreement_evacuates_each_standardization_once(self, monkeypatch):
        """A standard reversal takes its evacuation step from the preset's
        standard memo: over evac-agreement at n=4, jdt's standard
        evacuation runs once for each of the 62 straight standardizations
        that the reversals of eta:1,k evacuate; the routes line reads the
        evac_4 and eta:1,4 tables and evacuates nothing more."""
        evacuate, evacuated = jdt._evacuate_standard, []

        def counted(std, memo):
            evacuated.append(tuple(std.items()))
            return evacuate(std, memo)

        monkeypatch.setattr(jdt, "_evacuate_standard", counted)
        assert all(r.ok for r in run_preset("evac-agreement", 4))
        assert len(evacuated) == len(set(evacuated)) == 62

    @pytest.mark.parametrize("outer, n, size", [((2, 1), 0, 0), ((2,), 1, 1)])
    def test_empty_and_one_member_families(self, outer, n, size):
        """On a family of no member or one member every word is the
        identity tuple, and the verdicts are those of larger families'
        code paths: instances are members times checks, and a symbol out
        of range is a WordError.  The routes line of evac-agreement has no
        check at n=0 and compares evac_1 with the empty word at n=1."""
        fam = enumerate_tableaux(ShiftedSkewShape(outer), n)
        assert len(fam) == size
        identity = tuple(range(size))
        assert word_permutation(fam, ()) == identity
        for text in ("evacs1", "evacs1 evacs1 evac1"):
            if n:
                assert word_permutation(fam, parse_word(text)) == identity
            else:
                with pytest.raises(WordError, match="out of range for n=0"):
                    word_permutation(fam, parse_word(text))
        for text in ("e = e", "evacs1 = e", "evacs{i} evacs{i} = e", "evac1 = evacs1",
                     "t1 = e"):
            v = verify_relation(RelationSchema.parse(text), fam)
            assert (v.holds, v.instances_checked, v.counterexample) == \
                (True, 0 if text == "t1 = e" else size, None), text
        for route in engine.CACTUS_ROUTES:
            assert verify_cactus_action(route, [fam]) == engine.Verdict(True, 0)
        routes = engine._evac_route_checks(n)
        assert len(routes) == n
        assert engine._check(fam, routes, {}) == engine.Verdict(True, size)

    def test_preset_lines_keep_no_switching_or_eta_band_results(self, monkeypatch):
        """Each family keeps its tables, so the switching and eta band
        results of one evac-agreement line never recur in a later one:
        every line starts without them, while t's band results and jdt's
        standard results carry over, and switching evacuation still runs
        once per band."""
        verify, kept = engine.verify_relation_over, []
        evac_map, bands = switching.evac_map, []

        def spy(schema, families, exhaustive=False, memo=None):
            kept.append({key[0] for key in memo})
            return verify(schema, families, exhaustive, memo)

        def counted_evac_map(entries, n):
            bands.append(frozenset(entries.items()))
            return evac_map(entries, n)

        monkeypatch.setattr(engine, "verify_relation_over", spy)
        monkeypatch.setattr(switching, "evac_map", counted_evac_map)
        assert all(r.ok for r in run_preset("evac-agreement", 4))
        assert not any({engine._band_evac, jdt.reversal_map} & cores for cores in kept)
        assert engine._band_bk in kept[-1] and jdt._reverse_standard in kept[-1]
        assert len(bands) == 6362

    def test_whole_member_images_destandardize_nothing(self, monkeypatch):
        """eta:1,n, on its own and in the routes line of evac-agreement,
        finds each whole member's image by its standardization and
        weight: jdt runs its standard cores but never destandardizes, as
        it does for the partial band of eta:1,n-1."""
        destandardize, reverse = jdt.destandardize_map, jdt._reverse_standard
        calls = {"destandardize": 0, "reverse": 0}

        def counted(name, fn):
            def run(*args):
                calls[name] += 1
                return fn(*args)
            return run

        monkeypatch.setattr(jdt, "destandardize_map", counted("destandardize", destandardize))
        monkeypatch.setattr(jdt, "_reverse_standard", counted("reverse", reverse))
        families = engine.skew_families(3, include_straight=True)
        for family in families:
            word_permutation(family, parse_word("eta:1,3"))
        memo, routes = {}, engine._evac_route_checks(3)
        assert all(engine._check(family, routes, memo).holds for family in straight_families(3))
        assert calls["reverse"] > 0 and calls["destandardize"] == 0
        for family in families:
            word_permutation(family, parse_word("eta:1,2"))
        assert calls["destandardize"] > 0


class TestSearch:
    def test_stops_at_the_witness_shape(self, monkeypatch):
        """A search that finds a witness enumerates the shapes in order up
        to the witness's shape and no further."""
        enumerate_real, shapes = engine.enumerate_tableaux, []

        def spy(shape, n):
            shapes.append(shape)
            return enumerate_real(shape, n)

        monkeypatch.setattr(engine, "enumerate_tableaux", spy)
        v = search_counterexample(RelationSchema("(t1 t2)^6", "e"), 3, 9, max_part=4)
        order = engine.straight_shapes(9, 4)
        assert not v.holds and len(shapes) < len(order)
        assert shapes == order[:order.index(v.counterexample.shape) + 1]

    def test_finds_braid_failure(self):
        v = search_counterexample(RelationSchema("(t1 t2)^6", "e"), 3, 9,
                                  max_part=4)
        assert not v.holds
        assert v.counterexample is not None

    def test_exhausts_on_true_relation(self):
        v = search_counterexample(RelationSchema("t1 t1", "e"), 2, 4)
        assert v.holds


class TestOrbits:
    def test_orbit_closure(self):
        t = parse_tableau("1 1 2", 2)
        g = orbit_graph(t, parse_word("t1"))
        assert len(g.nodes) == 2
        assert "digraph" in g.to_dot()

    def test_orbit_bound(self):
        t = parse_tableau("1 1 2", 2)
        with pytest.raises(CapacityError, match="orbit exceeds configured bound"):
            orbit_graph(t, parse_word("t1"), max_nodes=1)

    def test_components_golden(self):
        fam = enumerate_tableaux(ShiftedSkewShape((3, 1), (1,)), 4)
        comps = components_by_dual_equivalence(fam)
        assert len(comps) == 2

    def test_components_beyond_six_cells(self):
        # 7 cells: each class rectifies one to one onto the family of its
        # shape
        fam = enumerate_tableaux(ShiftedSkewShape((5, 3, 1), (2,)), 4)
        comps = components_by_dual_equivalence(fam)
        assert [shape.outer for shape, _ in comps] == \
            [(5, 2), (5, 2), (4, 3), (4, 3), (4, 2, 1), (4, 2, 1)]
        assert sum(len(members) for _, members in comps) == len(fam) == 1384
        for shape, members in comps:
            assert sorted(rectify(t)[0].key for t in members) == \
                sorted(u.key for u in enumerate_tableaux(shape, 4))


PRESET_COUNTS_N3 = {
    "sbk-core": [("t_i^2 = 1", 2904), ("t_i t_j = t_j t_i for |i-j|>1", 0),
                 ("(t_i q_jk)^2 = 1", 0), ("t_1 = q_1", 1452),
                 ("t_2 = q_1 q_2 q_1", 1452),
                 ("t_i = q_{i-1} q_i q_{i-1} q_{i-2} for i>2", 0)],
    "cactus-q": [("cactus relations via q", 2596)],
    "cactus-eta": [("cactus relations via eta", 14553)],
    "evac-agreement": [("evac_2 = eta_12", 236), ("evac_2 = q_1", 236),
                       ("evac_3 = eta_13", 236), ("evac_3 = q_2", 236),
                       ("evac via switching = rectify after complement", 236),
                       ("evac2 = p1", 236), ("evacs2 = p1", 1216),
                       ("evac3 = p1 p2", 236), ("evacs3 = p1 p2", 1216)],
    "non-relations": [("(t1 t2)^6 != e", 80), ("(sigma1 sigma2)^3 != e", 841),
                      ("skew evac_ij != q_ij", 500),
                      ("skew evac not Knuth equivalent to complement", 155)],
}

# the same at n = 0, 1 and 2: at n=0 every family is empty, at n=1 each
# nonempty straight family has one member, and non-relations finds none
# of its witnesses below n=3 but the skew Knuth one at n=2
_SBK_LABELS = [label for label, _ in PRESET_COUNTS_N3["sbk-core"]]
_NON_RELATIONS_LABELS = [label for label, _ in PRESET_COUNTS_N3["non-relations"]]
_ROUTES = "evac via switching = rectify after complement"
PRESET_COUNTS_SMALL = {
    0: {"sbk-core": [(label, 0) for label in _SBK_LABELS],
        "cactus-q": [("cactus relations via q", 0)],
        "cactus-eta": [("cactus relations via eta", 0)],
        "evac-agreement": [(_ROUTES, 0)],
        "non-relations": [(label, 0) for label in _NON_RELATIONS_LABELS]},
    1: {"sbk-core": [(label, 0) for label in _SBK_LABELS],
        "cactus-q": [("cactus relations via q", 0)],
        "cactus-eta": [("cactus relations via eta", 0)],
        "evac-agreement": [(_ROUTES, 4)],
        "non-relations": list(zip(_NON_RELATIONS_LABELS, [0, 0, 0, 56]))},
    2: {"sbk-core": list(zip(_SBK_LABELS, [378, 0, 0, 378, 0, 0])),
        "cactus-q": [("cactus relations via q", 102)],
        "cactus-eta": [("cactus relations via eta", 1116)],
        "evac-agreement": [("evac_2 = eta_12", 34), ("evac_2 = q_1", 34), (_ROUTES, 34),
                           ("evac2 = p1", 34), ("evacs2 = p1", 344)],
        "non-relations": list(zip(_NON_RELATIONS_LABELS, [0, 0, 378, 83]))},
}


class TestPresets:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_presets_at_small_n(self, n):
        """The labels and instance counts of every preset where its
        families are empty or small; every line holds but those of
        non-relations, most of whose witnesses need n=3."""
        for name, counts in PRESET_COUNTS_SMALL[n].items():
            results = run_preset(name, n)
            assert [(r.label, r.verdict.instances_checked) for r in results] == counts, name
            if name != "non-relations":
                assert all(r.ok for r in results), name

    def test_all_presets_pass_small(self):
        for name, counts in PRESET_COUNTS_N3.items():
            results = run_preset(name, 3)
            assert results and all(r.ok for r in results), name
            assert [(r.label, r.verdict.instances_checked)
                    for r in results] == counts, name

    def test_unknown_preset(self):
        with pytest.raises(WordError, match=r"^unknown preset 'nope'; choose from sbk-core, "
                           "cactus-q, cactus-eta, evac-agreement, non-relations$"):
            run_preset("nope", 3)

    def test_knuth_witness_scan_stops_at_its_witness(self, monkeypatch):
        """The witness line of non-relations enumerates the skew shapes in
        order, each family only as the scan reaches it, and none after the
        counterexample's shape (3,1)/(1)."""
        enumerate_real, search_real = engine.enumerate_tableaux, engine.search_counterexample
        shapes, searching = [], []

        def spy_enumerate(shape, n):
            if not searching:
                shapes.append(shape)
            return enumerate_real(shape, n)

        def spy_search(*args, **kwargs):
            searching.append(True)
            try:
                return search_real(*args, **kwargs)
            finally:
                searching.pop()

        monkeypatch.setattr(engine, "enumerate_tableaux", spy_enumerate)
        monkeypatch.setattr(engine, "search_counterexample", spy_search)
        witness = run_preset("non-relations", 3)[-1].verdict.counterexample
        witness_shape = ShiftedSkewShape((3, 1), (1,))
        assert witness.shape == witness_shape
        order = skew_shapes(engine.SEARCH_MAX_CELLS, engine.STRAIGHT_MAX_PART)
        assert shapes == order[:order.index(witness_shape) + 1]
