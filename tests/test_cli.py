"""Command line interface: subcommands, formats, and exit codes."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import shifted_tableaux
from shifted_tableaux import cli, core, engine, enumeration
from shifted_tableaux.cli import main
from shifted_tableaux.core import (MAX_CELLS, MAX_DIGITS, MAX_LETTERS, MAX_MEMBERS,
                                   MAX_SKEW_CELLS, CapacityError)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnum:
    def test_members(self, capsys):
        code, out, _ = run(capsys, "enum", "--outer", "2", "--n", "2")
        assert code == 0
        assert out.split("\n\n")[0].strip() == "1 1"
        assert "2 2" in out

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enum", "--outer", "2", "--n", "2",
                           "--count-only")
        assert code == 0 and out.strip() == "3"

    def test_skew(self, capsys):
        code, out, _ = run(capsys, "enum", "--outer", "3,1", "--inner", "1",
                           "--n", "4", "--count-only")
        assert code == 0 and out.strip().isdigit()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enum", "--outer", "2",
                           "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3

    @pytest.mark.parametrize("fmt, shape, digest", [
        ("text", ("--outer", "4,2", "--inner", "1"),
         "30a8378c8fb78128859532cae36e014dedd074713a98aef71a260171c7f8e43b"),
        ("text", ("--outer", "4,3,1"),
         "6850e7f7edd96c77fd4be9823110f444453aef505d2165c8cd42a5e35d2c5c1c"),
        ("json", ("--outer", "4,2", "--inner", "1"),
         "62d3589ac3b4b78e192017412a54a591d942892d8ab4a06736f4e6447a380e26"),
        ("json", ("--outer", "4,3,1"),
         "1734e54f68a7c6324002a1ff13eec5a6bc0b31ff04053cfd49c66ae42c110f96"),
    ], ids=["text-skew", "text-straight", "json-skew", "json-straight"])
    def test_output_is_pinned(self, capsys, fmt, shape, digest):
        """Every member's text, in order, at n=4, pinned by SHA-256."""
        code, out, err = run(capsys, "--format", fmt, "enum", *shape, "--n", "4")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_members_are_rendered_one_at_a_time(self, capsys, monkeypatch):
        """enum renders member(x) for each x and never builds the
        family's members tuple."""
        families = []
        real = cli.enumerate_tableaux

        def spy(*args):
            families.append(real(*args))
            return families[-1]

        monkeypatch.setattr(cli, "enumerate_tableaux", spy)
        code, out, _ = run(capsys, "enum", "--outer", "3,1", "--n", "3")
        assert code == 0 and out.count("\n\n") + 1 == len(families[0]) > 1
        assert "members" not in vars(families[0])


class TestApply:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "apply", "--op", "t1",
                           "--in", "1 1 2' 2\n2 3'\n3", "--n", "3")
        assert code == 0
        assert out.strip().splitlines() == ["1 1 1 2", "2 3'", "3"]

    @pytest.mark.parametrize("word, n, first_row", [
        ("t1", 4, ". . . ."), ("q1", 4, ". . . ."), ("eta:1,2", 4, ". . ."),
        ("evacs2", 4, ". . ."), ("eta:4,5", 5, ". . . ."), ("t1 eta:1,2", 4, ". . ."),
    ])
    def test_representation_rule(self, capsys, word, n, first_row):
        """t, p, q and q:i,j keep the input's (outer, inner) pair; eta,
        sigma and the evac variants take from_cells's pair, which drops the
        empty first row's extra column, unless no letter lies in their
        band."""
        assert run(capsys, "apply", "--op", word, "--in", ". . . . / 1 2 / 3",
                   "--n", str(n)) == (0, f"{first_row}\n1 2\n3\n", "")

    def test_trace_lists_rules(self, capsys):
        code, out, _ = run(capsys, "apply", "--op", "t1", "--trace",
                           "--in", "1 1 2' 2\n2 3'\n3", "--n", "3")
        assert code == 0
        assert "S5" in out and "S3" in out

    @pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
    def test_out_of_range_t(self, capsys, trace):
        """The range is checked before the switch chain of --trace."""
        assert run(capsys, "apply", "--op", "t3", "--in", "1 2", "--n", "2", *trace) == \
            (2, "", "error: generator t3 out of range for n=2\n")

    def test_trace_golden(self, capsys):
        """A switch chain for t1, then one tableau per other symbol."""
        assert run(capsys, "apply", "--trace", "--op", "q2 eta:1,3 t1",
                   "--in", "1 1 2' 3 / 2 3' / 3", "--n", "3") == (0, """\
t1: rules S5, S3
  after S5:
    1 2' 1 3
    2 3'
    3
  after S3:
    2 2 1 3
    1 3'
    3
eta:1,3:
  1 1 1 2'
  2 3'
  3
q2:
  1 1 2 3
  2 3'
  3
1 1 2 3
2 3'
3
""", "")

    def test_trace_keeps_empty_rows(self, capsys):
        """Each step is drawn on the input's shape: row 2 holds only inner
        cells, and row 3's cell stays in row 3."""
        assert run(capsys, "apply", "--trace", "--op", "t1",
                   "--in", ". . . 1 2 / . . / 1", "--n", "2") == (0, """\
t1: rules S1
  after S1:
    . . . 2 1
    . .
    1
. . . 1 2
. .
2
""", "")

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "apply", "--op", "zap",
                           "--in", "1 2", "--n", "2")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("word", ["t1^0", "(t1)^0", "e^0"])
    def test_zero_power_is_the_identity(self, capsys, word):
        assert run(capsys, "apply", "--op", word, "--in", "1 1 2", "--n", "3") == \
            (0, "1 1 2\n", "")

    @pytest.mark.parametrize("word", ["t1^", "(t1 t2)^", "t1^^2"])
    def test_power_without_exponent_is_one_line(self, capsys, word):
        assert run(capsys, "apply", "--op", word, "--in", "1 1 2", "--n", "3") == \
            (2, "", "error: power without an exponent\n")

    def test_input_file_is_closed(self, capsys, tmp_path):
        """--in FILE reads the tableau and closes the file."""
        path = tmp_path / "t.txt"
        path.write_text("1 2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(capsys, "apply", "--op", "t1", "--in", str(path), "--n", "2")
            gc.collect()
        assert result == (0, "1 2\n", "")
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSwitch:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "switch", "--s", "1 1 1 / 2",
                           "--t", ". . . 1 / . 1", "--n", "2", "--trace")
        assert code == 0
        assert "S1, S1, S7, S1" in out
        assert "1' 1" in out


    def test_t_must_extend_s(self, capsys):
        """T inside S is refused; T outside S switches."""
        assert run(capsys, "switch", "--s", ". 1", "--t", "1", "--n", "2") == \
            (2, "", "error: T does not extend S\n")
        assert run(capsys, "switch", "--s", "1", "--t", ". 1", "--n", "2") == \
            (0, "1\n\n. 1\n", "")


class TestRectify:
    def test_straight_result(self, capsys):
        code, out, _ = run(capsys, "rectify", "--in", ". 1 2 / 2", "--n", "2")
        assert code == 0
        assert out.strip().splitlines()[0].startswith("1")

    def test_strategies_agree(self, capsys):
        res = []
        for strat in ("first", "last"):
            code, out, _ = run(capsys, "rectify", "--in", ". 1 2 / 2",
                               "--n", "2", "--strategy", strat)
            assert code == 0
            res.append(out.strip())
        assert res[0] == res[1]


# SHA-256 of each preset's --format json report without "timing", at --n 3
# and at --n 4
PRESET_REPORTS_N3 = {
    "sbk-core": "f5175000f8ded8e025478eb90726720473b645ff753d2200944f317f1c336d1d",
    "cactus-q": "b2c373b151d16d6e317bd5547a17c83d55b4093d133ccb890a7de367e255a937",
    "cactus-eta": "43f4ee4de46b2a706170481ca0d0b3c9b6982f01944cdf7b3cdb66a513f8de2b",
    "evac-agreement": "9ee2fa7b0452fddb266d563506018509dc2940e2f7973e32aa2bbcc8c128790c",
    "non-relations": "4537cd025ecfecaa7cf29ff638875490139b3c2cffc2e7b13ce195ea9af44a3e",
}
PRESET_REPORTS_N4 = {
    "sbk-core": "febdf79372b00abc97adc43e9e519170d67e596ada80bd209818abafe68dbabc",
    "cactus-q": "000926bf120e93cb7fb0b4e6331a2d3106c7fb9c9fff073b72d4961172e6626b",
    "cactus-eta": "5e5f776bdee0514b68fcba008cd474fe70285ddb4487bb40d790f518daa41bcf",
    "evac-agreement": "8324a222677e85ed4c074242e87ecfb4a95d90e31a2a0ae5007e28623a410234",
    "non-relations": "44e98efdfb0c396c806267e23ac32264a4843185063dd1a0acc68b06ff445f6b",
}

# the exit code and SHA-256 of the same reports at --n 0, 1 and 2, where
# every family is empty or small; non-relations exits 1 there, as most of
# its witnesses need n=3
PRESET_REPORTS_SMALL = {
    0: {
        "sbk-core": (0, "63825dcf730a5303ea596bd257c62fd5548f2f971681521ba176000d70b4db36"),
        "cactus-q": (0, "d856f4eee0b0daad7225a91b3dab965fe8c3aa20da68dc154c0f51088249aed1"),
        "cactus-eta": (0, "c5e25c0d3d818a37d7e9e54771c1a929e512ea5dfcdb7383c377e1d4bf7313d0"),
        "evac-agreement": (0, "a2de2bf3f0953e8bc504c34e15690300b09c964968e2158d8205460c63b7d6cc"),
        "non-relations": (1, "34e7a48c8e1ba74b32b14058c197ead4194dc2e39dc62510105847a06fff8c0d"),
    },
    1: {
        "sbk-core": (0, "2810a9047499c27dfc46b0c94b972e91a00d092c8860e7983d4a626f9c2e86bb"),
        "cactus-q": (0, "00760191be9e86882cfad490227f0b812c6f0de48cc147ff5bd6d6667edb814f"),
        "cactus-eta": (0, "ce6f1e0f1f9adeba4645c5ca31c05d9d53e6cef0d5595f5fb40cd9bfe8995e6e"),
        "evac-agreement": (0, "2acb8e8b5fd1842f5b0ba4b941200f2479f08a7e66f03d8d660f84867df325a5"),
        "non-relations": (1, "a980ff34af4a622de1adecbd7f09c85145b1c725ef38bf699708fc0714940238"),
    },
    2: {
        "sbk-core": (0, "8d3beb45417a29c1639da3c03c1d5cb90917682dc84282c23bb0540294290bc4"),
        "cactus-q": (0, "76f9caa62ee720996a2ef1ce39ce7df5f2c6163d95ce0588bd21262533757606"),
        "cactus-eta": (0, "5455af3f04c3ed6c6227f24b1ca893548fe212fa1712cf7e9784e788916bfa71"),
        "evac-agreement": (0, "522e6ddf810407e304af820186111ed99b98b17bfa260b94b18056dd41b7fe20"),
        "non-relations": (1, "410757a70fdec119d7561b73996a754b2d048cd69e81769609b9f53541b1b020"),
    },
}


def report_digest(capsys, preset, n):
    """The exit code and the SHA-256 of a preset's JSON report without its
    timing."""
    code, out, _ = run(capsys, "--format", "json", "verify", "--preset", preset,
                       "--n", str(n))
    doc = json.loads(out)
    del doc["timing"]
    return code, hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class TestVerify:
    def test_schema_holds(self, capsys):
        code, out, _ = run(capsys, "verify", "--schema", "t{i} t{i} = e",
                           "--n", "2")
        assert code == 0 and "holds" in out

    def test_schema_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--schema", "(t1 t2)^6 = e",
                           "--n", "3")
        assert code == 1

    def test_exhaustive_counts_every_family(self, capsys):
        base = ("--format", "json", "verify", "--schema", "(t1 t2)^6 = e",
                "--n", "3")
        docs = []
        for extra in ((), ("--exhaustive",)):
            code, out, _ = run(capsys, *base, *extra)
            assert code == 1
            docs.append(json.loads(out)["verdict"])
        first, exhaustive = docs
        assert first["instances_checked"] == 80
        assert exhaustive["instances_checked"] == 236
        assert exhaustive["counterexample"] == first["counterexample"]
        code, out, _ = run(capsys, "verify", "--schema", "t1 t1 = e", "--n", "3",
                           "--exhaustive")
        assert (code, out) == (0, "holds (236 instances)\n")

    @pytest.mark.parametrize("schema", ["evac3 = eta:1,3", "eta:1,3 = evac3"])
    def test_two_index_generator_in_schema(self, capsys, schema):
        # the colon of eta:1,3 belongs to the token, not the constraint;
        # the count is that of the preset line evac_3 = eta_13
        assert run(capsys, "verify", "--schema", schema, "--n", "3") == \
            (0, "holds (236 instances)\n", "")

    def test_one_index_colon_token_in_schema(self, capsys):
        # t:{i} is the token t{i}; the constraint starts at the spaced ':'
        for schema in ("t:{i} t:{i} = e : i < 3", "t{i} t{i} = e : i < 3"):
            assert run(capsys, "verify", "--schema", schema, "--n", "3") == \
                (0, "holds (472 instances)\n", "")

    def test_preset(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "evac-agreement",
                           "--n", "3")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("preset, digest", PRESET_REPORTS_N3.items())
    def test_preset_report_is_byte_stable(self, capsys, preset, digest):
        """The JSON report of each preset at n=3 is byte-stable: without
        its timing it hashes to the recorded digest."""
        assert report_digest(capsys, preset, 3) == (0, digest)

    @pytest.mark.parametrize("preset, digest", PRESET_REPORTS_N4.items())
    def test_preset_report_is_byte_stable_at_n4(self, capsys, preset, digest):
        """The same at n=4, where every preset has more families and
        lines."""
        assert report_digest(capsys, preset, 4) == (0, digest)

    @pytest.mark.parametrize("n, preset, pinned", [
        (n, preset, pinned) for n, reports in PRESET_REPORTS_SMALL.items()
        for preset, pinned in reports.items()])
    def test_preset_report_is_byte_stable_at_small_n(self, capsys, n, preset, pinned):
        """The same at n=0, 1 and 2, with the exit code: these reports hold
        the routes line of evac-agreement on the empty word at n=1 and the
        skew Knuth witness of non-relations, none at n=1 and one at n=2."""
        assert report_digest(capsys, preset, n) == pinned

    def test_zero_power_is_the_identity(self, capsys):
        assert run(capsys, "verify", "--schema", "t1^0 = e", "--n", "3") == \
            (0, "holds (236 instances)\n", "")

    def test_order_keys_past_255(self, capsys):
        """A large alphabet takes no other path: on the one-cell shape at
        n=200, whose order keys run up to 400, t_i^2 = e holds on each of
        the 200 members for each of the 199 indices."""
        assert run(capsys, "verify", "--schema", "t{i} t{i} = e", "--outer", "1",
                   "--n", "200") == (0, "holds (39800 instances)\n", "")

    def test_skew_max_cells_zero_checks_nothing(self, capsys):
        assert run(capsys, "verify", "--skew", "--max-cells", "0",
                   "--schema", "t1 t1 = e", "--n", "3") == (0, "holds (0 instances)\n", "")


class TestSearch:
    def test_witness_found(self, capsys):
        code, out, _ = run(capsys, "search", "--schema", "(t1 t2)^6 = e",
                           "--n", "3", "--max-cells", "9")
        assert code == 0

    def test_two_index_generators_with_constraint(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "search", "--schema",
                           "evacs:{i},{j} = q:{i},{j} : i < j", "--n", "3",
                           "--max-cells", "9", "--skew")
        ce = json.loads(out)["verdict"]["counterexample"]
        assert code == 0 and ce["substitution"] == {"i": 2, "j": 3}

    def test_budget_exhausted(self, capsys):
        code, out, _ = run(capsys, "search", "--schema", "t1 t1 = e",
                           "--n", "2", "--max-cells", "4")
        assert code == 1


class TestOrbit:
    def test_dot_output(self, capsys, tmp_path):
        dot = tmp_path / "orbit.dot"
        code, out, _ = run(capsys, "orbit", "--gens", "t1,t2",
                           "--in", "1 2\n3", "--n", "3", "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("digraph")

    @pytest.mark.parametrize("tableau, nodes, edges", [
        ("1 1 2' 3 / 2 3' / 3", [
            "1 1 2' 3 / 2 3' / 3", "1 1 2 3 / 2 3' / 3", "1 1 2 2 / 2 3' / 3",
            "1 1 2' 2 / 2 3' / 3", "1 1 1 2' / 2 3' / 3", "1 1 1 2 / 2 3' / 3",
            "1 1 1 3' / 2 2 / 3", "1 1 1 3 / 2 2 / 3", "1 1 2' 3' / 2 2 / 3",
            "1 1 2' 3 / 2 2 / 3", "1 1 2' 3' / 2 3' / 3", "1 1 2 3' / 2 3' / 3"],
         [(1, 2), (0, 3), (4, 0), (5, 1), (2, 6), (3, 7), (8, 4), (9, 5), (6, 10),
          (7, 11), (11, 8), (10, 9)]),
        (". . 1 2 / 1 3", [
            ". . 1 2 / 1 3", ". . 1 2 / 2 3", ". . 1 3 / 1 2", ". . 1 3 / 2 3",
            ". . 1 3 / 2 2", ". . 2 3 / 1 3", ". . 1 2 / 3 3", ". . 2 2 / 1 3",
            ". . 1 1 / 2 3"],
         [(1, 2), (0, 3), (4, 0), (5, 1), (2, 6), (3, 7), (6, 4), (8, 5), (7, 8)]),
    ], ids=["straight", "skew"])
    def test_dot_golden(self, capsys, tableau, nodes, edges):
        """Nodes in breadth-first order; edges[k] holds the targets of q1
        and t2 from node k."""
        lines = ["digraph orbit {"]
        lines += [f'  n{k} [label="{label}"];' for k, label in enumerate(nodes)]
        for u, targets in enumerate(edges):
            lines += [f'  n{u} -> n{v} [label="{gen}"];'
                      for gen, v in zip(("q1", "t2"), targets)]
        assert run(capsys, "orbit", "--gens", "q1,t2", "--in", tableau, "--n", "3") \
            == (0, "\n".join(lines + ["}", ""]), "")

    @pytest.mark.parametrize("gens", ["", " , "], ids=["empty", "blank"])
    def test_no_generator_is_one_line(self, capsys, gens):
        """An empty generator list is refused, not taken as the one-node
        orbit of the trivial action."""
        assert run(capsys, "orbit", "--gens", gens, "--in", "1 2", "--n", "2") \
            == (2, "", f"error: --gens {gens!r} names no generator\n")


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_negative_alphabet_is_one_line(self, capsys):
        assert run(capsys, "enum", "--outer", "2", "--n", "-1") == \
            (2, "", "error: alphabet bound must be >= 0\n")

    @pytest.mark.parametrize("argv", [
        ("apply", "--op", "e", "--in", "", "--n", "-1"),
        ("rectify", "--in", '{"outer":[],"rows":[],"n":-7}'),
    ], ids=["apply", "json"])
    def test_negative_tableau_alphabet_is_one_line(self, capsys, argv):
        """The tableau constructor refuses a negative n as the enumerator
        does, also on the empty shape, where no entry exceeds it."""
        assert run(capsys, *argv) == (2, "", "error: alphabet bound must be >= 0\n")

    @pytest.mark.parametrize("command", [("search",), ("verify", "--skew")],
                             ids=["search", "verify"])
    def test_negative_max_cells_is_one_line(self, capsys, command):
        assert run(capsys, *command, "--schema", "t1 = t1", "--n", "3", "--max-cells", "-5") \
            == (2, "", "error: --max-cells -5 is negative\n")

    def test_zero_max_cells_is_an_empty_search(self, capsys):
        assert run(capsys, "search", "--schema", "t1 = t1", "--n", "3", "--max-cells", "0") \
            == (1, "exhausted: no counterexample within budget (0 instances)\n", "")

    @pytest.mark.parametrize("argv", [
        ("apply", "--op", "evac2", "--in", ". 1 / 2", "--n", "2"),
        ("verify", "--schema", "evac2 = e", "--n", "2", "--outer", "2,1", "--inner", "1"),
    ], ids=["apply", "verify"])
    def test_straight_evac_on_skew_shape_is_one_line(self, capsys, argv):
        assert run(capsys, *argv) == \
            (2, "", "error: evac2 requires a straight shape; use evacs2\n")

    def test_non_decimal_digit_token_is_one_line(self, capsys):
        """A superscript digit passes str.isdigit but is no decimal digit."""
        assert run(capsys, "apply", "--op", "e", "--in", "\u00b2") == \
            (2, "", "error: malformed cell token '\u00b2'\n")

    @pytest.mark.parametrize("token", ["\u0663", "\u0663'", "\uff13"],
                             ids=["arabic-indic", "primed", "fullwidth"])
    def test_non_ascii_digit_token_is_one_line(self, capsys, token):
        """A decimal digit outside ASCII is no digit of a cell token, so
        the token is not read, and rendered back, as another number."""
        assert run(capsys, "apply", "--op", "e", "--in", f"{token} {token}") == \
            (2, "", f"error: malformed cell token {token!r}\n")

    @pytest.mark.parametrize("token", ["t\u0661", "t:\u0661", "eta:1,\u0663"])
    def test_non_ascii_generator_index_is_one_line(self, capsys, token):
        assert run(capsys, "apply", "--op", token, "--in", "1 2") == \
            (2, "", f"error: cannot parse generator token {token!r}\n")

    @pytest.mark.parametrize("argv, option, value", [
        (("enum", "--outer", "a", "--n", "2"), "--outer", "a"),
        (("enum", "--outer", "3,1", "--inner", "1,x", "--n", "2"), "--inner", "1,x"),
        (("verify", "--schema", "t1 = t1", "--n", "2", "--outer", "2.5"), "--outer", "2.5"),
        (("enum", "--outer", "1_0", "--n", "1"), "--outer", "1_0"),
        (("enum", "--outer", "3,\u0661", "--n", "2"), "--outer", "3,\u0661"),
    ], ids=["outer", "inner", "verify", "underscore", "arabic-indic"])
    def test_shape_that_is_no_integer_list_is_one_line(self, capsys, argv, option, value):
        assert run(capsys, *argv) == \
            (2, "", f"error: {option} {value!r} is not a comma-separated list of integers\n")

    def test_inner_dots_after_an_entry_is_one_line(self, capsys):
        assert run(capsys, "apply", "--op", "e", "--in", "1 . 2") == \
            (2, "", "error: row 1: inner dots must be a prefix: '1 . 2'\n")

    def test_invalid_tableau(self, capsys):
        code, _, err = run(capsys, "apply", "--op", "t1", "--in", "2 1",
                           "--n", "2")
        assert code == 2

    def test_schema_power_is_one_line(self, capsys):
        code, out, err = run(capsys, "verify", "--schema",
                             "t1 = e : i**i**i**i**i > 0", "--n", "9",
                             "--outer", "2")
        assert code == 2 and out == ""
        assert err == "error: '**' is not allowed in schema expressions: " \
            "'i**i**i**i**i > 0'\n"

    @pytest.mark.parametrize("schema, message", [
        ("t1 = e : i % 0 > 0", "modulo by zero in schema expression 'i % 0 > 0'"),
        ("t1 = e : foo > 0", "unsupported 'foo' in schema expression 'foo > 0'"),
        ("t1 = e : i <", "cannot parse schema expression 'i <'"),
        ("t1 = e : i < (1,2)",
         "unsupported '(1, 2)' in schema expression 'i < (1,2)'"),
        ("t{i<<3} = e", "unsupported 'i << 3' in schema expression 'i<<3'"),
        ("t1 = e : 1<<99999999999 > 0",
         "unsupported '1 << 99999999999' in schema expression '1<<99999999999 > 0'"),
        ("t1 = e : abs(x for x in (i, 2)) > 0",
         "unsupported '(x for x in (i, 2))' in schema expression "
         "'abs(x for x in (i, 2)) > 0'"),
        ("t{(x for x in (i,))} = e",
         "unsupported '(x for x in (i,))' in schema expression '(x for x in (i,))'"),
        ("t1 = e : i * * i > 0",
         "'**' is not allowed in schema expressions: 'i * * i > 0'"),
        ("tx1 = e", "cannot parse generator token 'tx1'"),
        ("t1 t1 = (t2", "unbalanced parentheses in word"),
        ("(t1 t2)^100000 = e", "word expands to more than 10000 symbols"),
        ("t{i} = eta{i}", "eta takes two indices, e.g. eta:1,3"),
        # these two fail at some assignments only (i=1 and i=3)
        ("t{i % (i-1)} = e", "modulo by zero in schema expression 'i % (i-1)'"),
        ("(t1)^{i*5000} = e", "word expands to more than 10000 symbols"),
        ("t1^ = e", "power without an exponent"),
        ("(t1 t2)^ = e", "power without an exponent"),
        ("t1^^2 = e", "power without an exponent"),
        ("^2 t1 = e", "power without a base"),
        ("t1,2 = e", "generator 't1,2' does not take two indices"),
        ("t1 t2", "schema 't1 t2' has no '='"),
        ("t1 = e : " + "-" * 60 + "i > 0",
         "nesting too deep in schema expression '" + "-" * 60 + "i > 0'"),
    ])
    def test_malformed_schema_is_one_line(self, capsys, schema, message):
        code, out, err = run(capsys, "verify", "--schema", schema, "--n", "3")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_malformed_search_schema_is_one_line(self, capsys):
        assert run(capsys, "search", "--schema", "tx1 = e", "--n", "3",
                   "--max-cells", "4") == \
            (2, "", "error: cannot parse generator token 'tx1'\n")

    @pytest.mark.parametrize("command", [("verify",), ("search", "--max-cells", "4")],
                             ids=["verify", "search"])
    @pytest.mark.parametrize("schema, symbol", [
        ("t5 = e", "t5"), ("evac0 = e", "evac0"), ("eta:1,1 = e", "eta:1,1"),
        ("t{i} t5 = t5 t{i}", "t5"), ("(t1 t4)^{i} = e", "t4"),
    ])
    def test_literal_out_of_range_is_one_line(self, capsys, command, schema, symbol):
        """A symbol written without braces that is out of range for --n is
        the error apply gives, not a relation over no instance."""
        assert run(capsys, command[0], "--schema", schema, "--n", "3", *command[1:]) == \
            (2, "", f"error: generator {symbol} out of range for n=3\n")
        assert run(capsys, "apply", "--op", symbol, "--in", "1", "--n", "3") == \
            (2, "", f"error: generator {symbol} out of range for n=3\n")

    def test_braced_symbols_are_still_skipped_per_assignment(self, capsys):
        # t{i} is out of range at i=3 only; the preset keeps its empty line
        assert run(capsys, "verify", "--schema", "t{i} t{i} = e", "--n", "3") == \
            (0, "holds (472 instances)\n", "")
        code, out, _ = run(capsys, "verify", "--preset", "sbk-core", "--n", "2")
        assert code == 0 and "PASS  t_2 = q_1 q_2 q_1 (0 instances)\n" in out

    def test_verify_needs_schema_or_preset(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "3")
        assert (code, out, err) == \
            (2, "", "error: verify requires --schema or --preset\n")

    @pytest.mark.parametrize("argv, message", [
        (("--preset", "non-relations", "--schema", "t1 = e"),
         "--schema cannot be used with --preset"),
        (("--preset", "sbk-core", "--exhaustive"), "--exhaustive cannot be used with --preset"),
        (("--preset", "sbk-core", "--outer", "2"), "--outer cannot be used with --preset"),
        (("--preset", "sbk-core", "--inner", "1"), "--inner cannot be used with --preset"),
        (("--preset", "sbk-core", "--skew"), "--skew cannot be used with --preset"),
        (("--preset", "sbk-core", "--max-cells", "3"),
         "--max-cells cannot be used with --preset"),
        (("--schema", "t1 = e", "--inner", "1"), "--inner needs --outer"),
        (("--schema", "t1 = e", "--inner", "1", "--skew"), "--inner needs --outer"),
        (("--schema", "t1 = e", "--outer", "3", "--skew"), "--skew cannot be used with --outer"),
        (("--schema", "t1 = e", "--outer", "3", "--max-cells", "3"),
         "--max-cells cannot be used with --outer"),
        (("--schema", "t1 = e", "--max-cells", "3"), "--max-cells needs --skew"),
    ])
    def test_ignored_verify_option_is_one_line(self, capsys, monkeypatch, argv, message):
        """verify refuses an option it would drop, naming it, before any
        family is enumerated."""
        enumerated = []
        monkeypatch.setattr(engine, "enumerate_tableaux", lambda *a: enumerated.append(a))
        monkeypatch.setattr(cli, "enumerate_tableaux", lambda *a: enumerated.append(a))
        assert run(capsys, "verify", "--n", "2", *argv) == (2, "", f"error: {message}\n")
        assert enumerated == []

    def test_too_many_schema_assignments_is_one_line(self, capsys):
        code, out, err = run(capsys, "verify", "--schema",
                             "t1 = e : i < j and k < l", "--n", "300",
                             "--outer", "2")
        assert (code, out) == (2, "")
        assert err == "error: schema has 300^4 index assignments, " \
            f"more than {engine.MAX_ASSIGNMENTS}\n"

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "rectify", "--in", "/nonexistent/t.txt",
                         "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("apply", "--op", "t1", "--in", "{dir}"),
        ("orbit", "--gens", "t1", "--in", "1 2", "--n", "2", "--dot", "{dir}"),
    ], ids=["apply-in", "orbit-dot"])
    def test_directory_as_file_is_one_line(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err and str(tmp_path) in err

    @pytest.mark.parametrize("doc, message", [
        ('{"outer": [2], "n": 2}', "JSON tableau lacks rows"),
        ('{"rows": [["1", "2"]], "n": 2}', "JSON tableau lacks outer"),
        ('{"outer": [2], "rows": [[1, 2]], "n": 2}', "malformed cell token 1"),
        ('{"outer": [2], "rows": [["1", "2"]], "n": null}',
         "JSON tableau n is not an integer: None"),
        ('{"outer": "2", "rows": [["1", "2"]], "n": 2}',
         "JSON tableau outer is not a list of integers: '2'"),
        ('{"outer": [2], "rows": ["1 2"], "n": 2}',
         "JSON tableau rows are not lists of cell tokens: ['1 2']"),
        ('{"outer": [2], "rows": [["1", "1"]], "n": 1e400}',
         "JSON tableau n is not an integer: inf"),
        ('{"outer": [2], "rows": [["1", "1"]], "n": Infinity}',
         "JSON tableau n is not an integer: inf"),
        ('{"outer": [2], "rows": [["1", "1"]], "n": true}',
         "JSON tableau n is not an integer: True"),
        ('{"outer": [2], "rows": [["1", "1"]], "n": 2.5}',
         "JSON tableau n is not an integer: 2.5"),
        ('{"outer": [2], "rows": [["1", "1"]], "n": "3"}',
         "JSON tableau n is not an integer: '3'"),
        ('{"outer": [2], "rows": [["1", "1", "2"]], "n": 2}',
         "JSON tableau row 1 has 3 tokens for 2 cells"),
        ('{"outer": [3, 1], "rows": [["1", "1", "2"], []], "n": 2}',
         "JSON tableau row 2 has 0 tokens for 1 cells"),
        ('{"outer": [2], "rows": [["1", "1"], ["2"]], "n": 2}',
         "JSON tableau row 2 is past its shape's last row"),
        ('{"outer": [], "rows": [[]], "n": 2}',
         "JSON tableau row 1 is past its shape's last row"),
        ('{"outer": [2, 1], "rows": [["1", "1"]], "n": 2}',
         "filling does not cover shape exactly (extra=[], missing=[(2, 2)])"),
    ])
    def test_malformed_json_tableau_is_one_line(self, capsys, doc, message):
        assert run(capsys, "apply", "--op", "t1", "--in", doc) == \
            (2, "", f"error: {message}\n")

    JSON_N2 = '{"outer": [2], "rows": [["1", "1"]], "n": 2}'

    @pytest.mark.parametrize("argv, equal_err", [
        (("apply", "--op", "t4", "--in", JSON_N2), "error: generator t4 out of range for n=2\n"),
        (("--format", "json", "apply", "--op", "e", "--in", JSON_N2), ""),
        (("rectify", "--in", JSON_N2), ""),
        (("orbit", "--gens", "t1", "--in", JSON_N2), ""),
        (("switch", "--s", JSON_N2, "--t", ". . 1"), ""),
        (("switch", "--s", "1 1", "--t",
          '{"outer": [3], "inner": [2], "rows": [["1"]], "n": 2}'), ""),
    ], ids=["apply", "apply-json", "rectify", "orbit", "switch-s", "switch-t"])
    def test_n_differing_from_a_json_tableau_is_one_line(self, capsys, argv, equal_err):
        """A JSON tableau carries its n, so a --n other than it is refused,
        not silently overridden; an equal --n is accepted."""
        assert run(capsys, *argv, "--n", "5") == \
            (2, "", "error: --n 5 differs from the JSON tableau's n=2\n")
        code, _, err = run(capsys, *argv, "--n", "2")
        assert (code, err) == (2 if equal_err else 0, equal_err)

    @pytest.mark.parametrize("argv", [
        ("enum", "--outer", "3,2", "--inner", "0,1", "--n", "2", "--count-only"),
        ("verify", "--schema", "t1 = t1", "--n", "2", "--outer", "3,2", "--inner", "0,1"),
        ("rectify", "--in",
         '{"outer": [3, 2], "inner": [0, 1], "rows": [["1", "1"], ["2", "2"]], "n": 2}'),
        ("rectify", "--in", "1 1 2 / . 3"),
    ], ids=["enum", "verify", "json", "text"])
    def test_interior_zero_inner_part_is_one_line(self, capsys, argv):
        """An inner shape with an empty row above a nonempty one is not a
        strict partition: it is refused, not read as another shape."""
        assert run(capsys, *argv) == \
            (2, "", "error: inner shape not strictly decreasing: (0, 1)\n")

    @pytest.mark.parametrize("argv, message", [
        (("enum", "--outer", "9999999", "--n", "2", "--count-only"),
         "shape has 9999999 cells, more than {max}"),
        (("verify", "--schema", "t1 = e", "--n", "2", "--outer", "70,60", "--inner", "5"),
         "shape has 125 cells, more than {max}"),
        (("apply", "--op", "t1", "--in", '{"outer":[99999999],"rows":[[]],"n":2}'),
         "shape has 99999999 cells, more than {max}"),
        (("search", "--schema", "t1 = e", "--n", "3", "--max-cells", "100000"),
         "--max-cells 100000 is more than {max}"),
        (("verify", "--schema", "t1 = e", "--n", "3", "--skew", "--max-cells", "100000"),
         "--max-cells 100000 is more than {max}"),
    ], ids=["enum", "verify-outer", "json", "search", "verify-skew"])
    def test_oversized_shape_is_one_line(self, capsys, argv, message):
        """Shapes and cell budgets over MAX_CELLS stop before any cell is
        built; the bound is far above the shapes the suite and the
        presets use."""
        assert MAX_CELLS >= 4 * 15
        assert run(capsys, *argv) == (2, "", f"error: {message.format(max=MAX_CELLS)}\n")

    def test_skew_search_budget_is_bounded_before_listing(self, capsys, monkeypatch):
        """A skew search lists every skew shape within its budget before
        its first family, so the budget stops at MAX_SKEW_CELLS, before
        any shape is listed; the bound itself is accepted."""
        listed = []
        monkeypatch.setattr(engine, "skew_shapes", lambda *args: listed.append(args) or [])
        argv = ("search", "--schema", "t1 t1 = e", "--skew", "--n", "2", "--max-cells")
        assert MAX_SKEW_CELLS < MAX_CELLS
        assert run(capsys, *argv, "24") == (2, "", "error: --max-cells 24 is more than "
                                            f"{MAX_SKEW_CELLS} for a skew search\n")
        assert listed == []
        assert run(capsys, *argv, str(MAX_SKEW_CELLS))[0] == 1
        assert listed == [(MAX_SKEW_CELLS, None)]

    def test_oversized_family_is_one_line(self, capsys, monkeypatch):
        """A family stops before it keeps the member past MAX_MEMBERS, so
        the staircase (6,5,4,3,2,1) at n=8, which outgrows a 600 MB
        address space, is one error line.  The bound is lowered here to
        keep the suite fast (at 1,000,000 the command takes about 5 s
        and 255 MB); a family of exactly the bound is accepted."""
        assert enumeration.MAX_MEMBERS == MAX_MEMBERS == 1_000_000
        monkeypatch.setattr(enumeration, "MAX_MEMBERS", 1_000)
        assert run(capsys, "enum", "--outer", "6,5,4,3,2,1", "--n", "8", "--count-only") \
            == (2, "", "error: ShST([6, 5, 4, 3, 2, 1], 8) has more than 1,000 members\n")
        argv = ("enum", "--outer", "4,2", "--n", "3", "--count-only")
        monkeypatch.setattr(enumeration, "MAX_MEMBERS", 38)
        assert run(capsys, *argv) == (0, "38\n", "")
        monkeypatch.setattr(enumeration, "MAX_MEMBERS", 37)
        assert run(capsys, *argv) == (2, "", "error: ShST([4, 2], 3) has more than 37 members\n")

    @pytest.mark.parametrize("skew", [(), ("--skew",)], ids=["straight", "skew"])
    def test_schema_counterexample_comes_before_an_oversized_family(self, capsys, monkeypatch,
                                                                    skew):
        """verify --schema enumerates each family when the walk reaches it,
        so a schema failing on the first family reports its counterexample
        (exit 1) though a later family is past MAX_MEMBERS, as search
        does; a schema that holds reaches that family and fails there with
        the capacity error (exit 2).  The bound is lowered as in
        test_oversized_family_is_one_line."""
        monkeypatch.setattr(enumeration, "MAX_MEMBERS", 10)
        code, out, err = run(capsys, "verify", "--schema", "t1 = t2", "--n", "3", *skew)
        assert (code, out.splitlines()[0], err) == (1, "counterexample found", "")
        code, out, err = run(capsys, "verify", "--schema", "t1 t1 = e", "--n", "3", *skew)
        assert (code, out) == (2, "") and err.endswith("has more than 10 members\n")

    @pytest.mark.parametrize("max_cells, message", [
        ("-5", "--max-cells -5 is negative"),
        (str(MAX_CELLS + 1), f"--max-cells {MAX_CELLS + 1} is more than {MAX_CELLS}")])
    def test_bad_verify_budget_fails_before_any_family(self, capsys, monkeypatch, max_cells,
                                                       message):
        """verify --skew checks --max-cells before it lists a shape or
        enumerates a family."""
        listed, enumerated = [], []
        monkeypatch.setattr(engine, "skew_shapes", lambda *args: listed.append(args) or [])
        monkeypatch.setattr(cli, "enumerate_tableaux",
                            lambda *args: enumerated.append(args))
        assert run(capsys, "verify", "--schema", "t1 = e", "--n", "3", "--skew",
                   "--max-cells", max_cells) == (2, "", f"error: {message}\n")
        assert listed == enumerated == []

    def test_shape_at_the_bound_is_accepted(self, capsys):
        assert run(capsys, "enum", "--outer", str(MAX_CELLS), "--n", "1",
                   "--count-only") == (0, "1\n", "")

    def test_text_tableau_is_bounded_by_max_cells(self, capsys):
        """A text tableau is bounded as a JSON one is: one row of
        MAX_CELLS + 1 cells is one error line, MAX_CELLS cells are
        accepted."""
        row = " ".join(["1"] * MAX_CELLS)
        assert run(capsys, "apply", "--op", "e", "--in", row) == (0, row + "\n", "")
        assert run(capsys, "apply", "--op", "e", "--in", row + " 1") == \
            (2, "", f"error: shape has {MAX_CELLS + 1} cells, more than {MAX_CELLS}\n")

    @pytest.mark.parametrize("argv", [
        ("apply", "--op", "t1", "--in", "1 2", "--n", "{n}"),
        ("rectify", "--in", ". 1 / 2", "--n", "{n}"),
        ("orbit", "--gens", "t1", "--in", "1 2", "--n", "{n}"),
        ("switch", "--s", "1", "--t", ". 2", "--n", "{n}"),
        ("enum", "--outer", "2", "--n", "{n}"),
        ("enum", "--outer", "2", "--n", "{n}", "--count-only"),
        ("verify", "--schema", "t1 = e", "--n", "{n}"),
        ("verify", "--preset", "non-relations", "--n", "{n}"),
        ("search", "--schema", "t1 = e", "--n", "{n}", "--max-cells", "3"),
        ("apply", "--op", "t1", "--in", '{{"outer": [2], "rows": [["1", "2"]], "n": {n}}}'),
        ("apply", "--op", "e", "--in", "1 {n}"),
    ], ids=["apply", "rectify", "orbit", "switch", "enum", "enum-count", "verify",
            "verify-preset", "search", "json", "text-token"])
    def test_huge_alphabet_is_one_line(self, capsys, argv):
        """An alphabet bound over MAX_LETTERS, given by --n, by a JSON
        tableau's n or by the largest text token, is one error line,
        raised before the validator or the enumerator allocates a list
        indexed by letter."""
        n = 10 ** 12
        assert run(capsys, *(a.format(n=n) for a in argv)) == \
            (2, "", f"error: alphabet bound n={n} is more than {MAX_LETTERS}\n")

    def test_refused_tokens_are_not_interned(self, capsys):
        """A text token above MAX_LETTERS is refused before it is
        interned, so refused queries leave the intern table as it was."""
        assert run(capsys, "apply", "--op", "e", "--in", "1") == (0, "1\n", "")
        before = len(core._INTERNED)
        for k in range(50):
            n = 10 ** 12 + k
            assert run(capsys, "apply", "--op", "e", "--in", f"1 {n}") == \
                (2, "", f"error: alphabet bound n={n} is more than {MAX_LETTERS}\n")
        assert run(capsys, "apply", "--op", "e", "--in", "1 2000", "--n", "5") == \
            (2, "", f"error: alphabet bound n=2000 is more than {MAX_LETTERS}\n")
        assert len(core._INTERNED) == before

    @pytest.mark.parametrize("op, text, message", [
        ("t1^{digits}", "1 2", "power has 5000 digits"),
        ("t{digits}", "1 2", "generator index has 5000 digits"),
        ("t1", "{digits}", "cell token has 5000 digits"),
        ("e", '{{"outer": [1], "rows": [["1"]], "n": {digits}}}',
         "JSON integer has 5000 digits"),
    ], ids=["power", "generator-index", "cell-token", "json-integer"])
    def test_long_digit_strings_are_one_line(self, capsys, op, text, message):
        """A power, a generator index, a cell token or an integer of a
        JSON tableau of more digits than int() converts under every digit
        limit is the library's one error line, not the interpreter's;
        MAX_DIGITS digits are read."""
        digits = "9" * 5000
        assert run(capsys, "apply", "--op", op.format(digits=digits),
                   "--in", text.format(digits=digits)) == \
            (2, "", f"error: {message}, more than {MAX_DIGITS}\n")
        assert run(capsys, "apply", "--op", "e^" + "9" * MAX_DIGITS, "--in", "1 2") == \
            (0, "1 2\n", "")

    def test_alphabet_at_the_bound_is_accepted(self, capsys):
        n = str(MAX_LETTERS)
        assert run(capsys, "enum", "--outer", "1", "--n", n, "--count-only") == \
            (0, n + "\n", "")
        assert run(capsys, "apply", "--op", f"t{MAX_LETTERS - 1}", "--in", f"1 {n}") == \
            (0, f"1 {MAX_LETTERS - 1}\n", "")

    @pytest.mark.parametrize("exc", [CapacityError("orbit exceeds configured bound"),
                                     RuntimeError("orbit exceeds configured bound")])
    def test_runtime_failure_is_one_line(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(engine, "orbit_graph", fail)
        code, out, err = run(capsys, "orbit", "--gens", "t1", "--in", "1 2",
                             "--n", "2")
        assert code == 2 and out == ""
        assert err == "error: orbit exceeds configured bound\n"

    def test_orbit_bound_is_one_line(self, capsys, monkeypatch):
        # the real orbit_graph, with a bound the two-node orbit exceeds
        real = engine.orbit_graph
        monkeypatch.setattr(engine, "orbit_graph",
                            lambda t, gens: real(t, gens, max_nodes=1))
        code, out, err = run(capsys, "orbit", "--gens", "t1", "--in", "1 1 2",
                             "--n", "2")
        assert (code, out) == (2, "")
        assert err == "error: orbit exceeds configured bound\n"


class TestSharedParser:
    def test_queries_in_one_process_match_each_alone(self, capsys):
        """main reuses one parser: subcommands run one after another in a
        process print and exit as each does in a fresh interpreter.  The
        JSON reports list every parsed option, so an option left over from
        an earlier query would show."""
        queries = [
            ["--format", "json", "enum", "--outer", "2", "--n", "2"],
            ["--format", "json", "apply", "--op", "t1", "--in", "1 2"],
            ["frobnicate"],
            ["rectify", "--in", ". 1 2\n2", "--strategy", "last", "--trace"],
            ["--format", "json", "orbit", "--gens", "t1", "--in", "1 1 2"],
        ]
        in_process = [run(capsys, *argv)[:2] for argv in queries]
        src = os.path.dirname(os.path.dirname(shifted_tableaux.__file__))
        alone = []
        for argv in queries:
            done = subprocess.run(
                [sys.executable, "-m", "shifted_tableaux.cli", *argv],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src})
            alone.append((done.returncode, done.stdout))
        assert in_process == alone
        assert [code for code, _ in alone] == [0, 0, 2, 0, 0]
