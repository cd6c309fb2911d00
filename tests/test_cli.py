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
from shifted_tableaux import engine
from shifted_tableaux.cli import main
from shifted_tableaux.core import MAX_CELLS, MAX_SKEW_CELLS, CapacityError


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


def report_digest(capsys, preset, n):
    """The SHA-256 of a preset's JSON report without its timing."""
    code, out, _ = run(capsys, "--format", "json", "verify", "--preset", preset,
                       "--n", str(n))
    doc = json.loads(out)
    del doc["timing"]
    assert code == 0
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


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
        assert report_digest(capsys, preset, 3) == digest

    @pytest.mark.parametrize("preset, digest", PRESET_REPORTS_N4.items())
    def test_preset_report_is_byte_stable_at_n4(self, capsys, preset, digest):
        """The same at n=4, where every preset has more families and
        lines."""
        assert report_digest(capsys, preset, 4) == digest

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


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_negative_alphabet_is_one_line(self, capsys):
        assert run(capsys, "enum", "--outer", "2", "--n", "-1") == \
            (2, "", "error: alphabet bound must be >= 0\n")

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
    ])
    def test_malformed_json_tableau_is_one_line(self, capsys, doc, message):
        assert run(capsys, "apply", "--op", "t1", "--in", doc) == \
            (2, "", f"error: {message}\n")

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

    def test_shape_at_the_bound_is_accepted(self, capsys):
        assert run(capsys, "enum", "--outer", str(MAX_CELLS), "--n", "1",
                   "--count-only") == (0, "1\n", "")

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
