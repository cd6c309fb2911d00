"""Command-line interface: enumeration, operator application, switching,
rectification, relation verification, counterexample search, orbit export.

Exit codes: 0 success (or relation holds / witness found for search), 1
relation fails (or search exhausted), 2 usage, input, capacity or
integrity error (one "error: ..." line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Any

from . import engine, jdt, switching
from .core import (MAX_CELLS, MAX_SKEW_CELLS, CapacityError, ShiftedSkewShape,
                   ShiftedTableau, TableauError, check_cells, from_json, parse_tableau,
                   render_text, to_json)
from .enumeration import count_tableaux, enumerate_tableaux

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2

def _read_tableau(path: str, n: int | None) -> ShiftedTableau:
    if path == "-":
        text = sys.stdin.read()
    elif os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
    else:
        text = path  # literal tableau text

    if text.lstrip().startswith("{"):
        t = from_json(text)
        if n is not None and n != t.n:
            raise TableauError(f"--n {n} differs from the JSON tableau's n={t.n}")
        return t
    return parse_tableau(text, n)


def _parse_shape(outer: str, inner: str | None) -> ShiftedSkewShape:
    shape = ShiftedSkewShape(_parts("--outer", outer), _parts("--inner", inner or ""))
    check_cells(shape)
    return shape


def _parts(option: str, value: str) -> tuple[int, ...]:
    """The parts a shape option lists; ValueError, naming the option and
    its value, when one is not an integer in ASCII digits (int() alone
    also reads other decimal digits and '_' separators)."""
    try:
        if not value.isascii() or "_" in value:
            raise ValueError
        return tuple(int(p) for p in value.split(",") if p)
    except ValueError:
        raise ValueError(f"{option} {value!r} is not a comma-separated list of integers") from None


def _max_cells(value: int, skew_search: bool = False) -> int:
    """--max-cells, at least 0, bounded by MAX_CELLS as the shapes are,
    and by MAX_SKEW_CELLS for a skew search, which lists every skew shape
    within the budget before it enumerates a family."""
    if value < 0:
        raise ValueError(f"--max-cells {value} is negative")
    if skew_search and value > MAX_SKEW_CELLS:
        raise CapacityError(f"--max-cells {value} is more than {MAX_SKEW_CELLS} "
                            "for a skew search")
    if value > MAX_CELLS:
        raise CapacityError(f"--max-cells {value} is more than {MAX_CELLS}")
    return value


def _render(t: ShiftedTableau, fmt: str) -> str:
    return to_json(t) if fmt == "json" else render_text(t)


def _report(args: argparse.Namespace, **fields: Any) -> dict[str, Any]:
    params = {k: v for k, v in sorted(vars(args).items())
              if k != "func" and v is not None}
    return {"command": args.command, "parameters": params, **fields}


def _emit(args: argparse.Namespace, report: dict[str, Any], text: str) -> None:
    if args.format == "json":
        print(json.dumps(report))
    elif text:
        print(text)


def _ce_doc(ce: engine.Counterexample | None) -> dict[str, Any] | None:
    if ce is None:
        return None
    return {
        "tableau": render_text(ce.tableau),
        "substitution": dict(ce.substitution),
        "left": render_text(ce.left_result),
        "right": render_text(ce.right_result),
    }


def _ce_text(heading: list[str], ce: engine.Counterexample) -> str:
    return "\n".join([*heading, f"substitution: {dict(ce.substitution)}",
                      "tableau:", render_text(ce.tableau),
                      "left:", render_text(ce.left_result),
                      "right:", render_text(ce.right_result)])


def _verdict_doc(v: engine.Verdict) -> dict[str, Any]:
    return {"holds": v.holds, "instances_checked": v.instances_checked,
            "counterexample": _ce_doc(v.counterexample), "note": v.note}


# ---------------------------------------------------------------------------

def cmd_enum(args: argparse.Namespace) -> int:
    shape = _parse_shape(args.outer, args.inner)
    if args.count_only:
        count = count_tableaux(shape, args.n)
        _emit(args, _report(args, count=count), str(count))
        return EXIT_OK
    family = enumerate_tableaux(shape, args.n)
    # one validated member at a time: only its text is kept
    rendered = list(map(render_text, map(family.member, range(len(family)))))
    _emit(args, _report(args, count=len(family), members=rendered),
          "\n\n".join(rendered))
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    t = _read_tableau(args.infile, args.n)
    word = engine.parse_word(args.op)
    trace_lines: list[str] = []
    cur = t
    for sym in reversed(word):
        # an out-of-range t goes to apply_symbol, which names the range
        if args.trace and sym.kind == "t" and sym.valid_for(cur.n):
            from .bender_knuth import bk_trace
            nxt, steps = bk_trace(cur, sym.i)
            rules = [s.rule for s in steps]
            trace_lines.append(f"{sym}: rules {', '.join(rules) or '(none)'}")
            # a switch trades cells between the two bands, so every
            # snapshot fills cur's cells; it need not be a valid tableau
            for s in steps:
                snapshot = dict(s.moving) | dict(s.fixed)
                text = cur.shape.text_template % tuple(
                    [snapshot[c].text for c in cur.shape.sorted_cells])
                trace_lines.append(f"  after {s.rule}:")
                trace_lines.extend("    " + ln for ln in text.splitlines())
        else:
            nxt = engine.apply_symbol(cur, sym)
            if args.trace:
                trace_lines.append(f"{sym}:")
                trace_lines.extend("  " + ln
                                   for ln in render_text(nxt).splitlines())
        cur = nxt
    report = _report(args, result=render_text(cur), trace=trace_lines)
    text = _render(cur, args.format)
    if args.trace and args.format == "text":
        text = "\n".join(trace_lines + [text])
    _emit(args, report, text)
    return EXIT_OK


def cmd_switch(args: argparse.Namespace) -> int:
    s = _read_tableau(args.s, args.n)
    t = _read_tableau(args.t, args.n)
    res_t, res_s, trace = switching.full_switch(s, t)
    rules = [step.rule for step in trace]
    report = _report(args, inner_result=render_text(res_t),
                     outer_result=render_text(res_s), rules=rules)
    lines = []
    if args.trace:
        lines.append("rules: " + (", ".join(rules) or "(none)"))
    lines.append(_render(res_t, args.format))
    lines.append(_render(res_s, args.format))
    _emit(args, report, "\n\n".join(lines))
    return EXIT_OK


def cmd_rectify(args: argparse.Namespace) -> int:
    t = _read_tableau(args.infile, args.n)
    rect, record = jdt.rectify(t, args.strategy)
    report = _report(args, result=render_text(rect),
                     slides=[list(map(list, s)) for s in record.slides])
    text = _render(rect, args.format)
    if args.trace and args.format == "text":
        slides = "; ".join(f"{c}->{e}" for c, e in record.slides)
        text = f"slides: {slides or '(none)'}\n{text}"
    _emit(args, report, text)
    return EXIT_OK


def _verify_conflict(args: argparse.Namespace) -> str | None:
    """The first option verify would ignore, as an error message: a preset
    takes no schema and no family option, --inner needs --outer, which
    takes neither --skew nor --max-cells, and --max-cells needs --skew."""
    given = {"--schema": args.schema is not None, "--exhaustive": args.exhaustive,
             "--outer": args.outer is not None, "--inner": args.inner is not None,
             "--skew": args.skew, "--max-cells": args.max_cells is not None}
    rules = [(option, "cannot be used with --preset", args.preset)
             for option in given]
    rules += [("--inner", "needs --outer", not given["--outer"]),
              ("--skew", "cannot be used with --outer", given["--outer"]),
              ("--max-cells", "cannot be used with --outer", given["--outer"]),
              ("--max-cells", "needs --skew", not args.skew)]
    return next((f"{option} {what}" for option, what, conflict in rules
                 if given[option] and conflict), None)


def cmd_verify(args: argparse.Namespace) -> int:
    start = time.monotonic()
    conflict = _verify_conflict(args)
    if conflict:
        print(f"error: {conflict}", file=sys.stderr)
        return EXIT_USAGE
    if args.preset:
        results = engine.run_preset(args.preset, args.n)
        ok = all(r.ok for r in results)
        report = _report(args, results=[
            {"label": r.label, "ok": r.ok, "verdict": _verdict_doc(r.verdict)}
            for r in results], holds=ok,
            timing=round(time.monotonic() - start, 3))
        lines = [f"{'PASS' if r.ok else 'FAIL'}  {r.label} "
                 f"({r.verdict.instances_checked} instances)" for r in results]
        lines.append("holds" if ok else "counterexample found")
        _emit(args, report, "\n".join(lines))
        return EXIT_OK if ok else EXIT_COUNTEREXAMPLE
    if not args.schema:
        print("error: verify requires --schema or --preset", file=sys.stderr)
        return EXIT_USAGE
    schema = engine.RelationSchema.parse(args.schema)
    # a malformed or oversized schema, or a literal symbol out of range,
    # fails here, before any family is enumerated; the assignments
    # themselves are drawn later
    schema.instantiations(args.n)
    schema.check_literals(args.n)
    if args.outer:
        shapes = [_parse_shape(args.outer, args.inner)]
    elif args.skew:
        max_cells = engine.SKEW_MAX_CELLS if args.max_cells is None else args.max_cells
        shapes = engine._skew_shapes(_max_cells(max_cells))
    else:
        shapes = engine._straight_shapes()
    # each family is enumerated when the walk reaches it, and dropped after
    verdict = engine.verify_relation_over(
        schema, (enumerate_tableaux(s, args.n) for s in shapes), exhaustive=args.exhaustive)
    report = _report(args, verdict=_verdict_doc(verdict),
                     timing=round(time.monotonic() - start, 3))
    if verdict.holds:
        _emit(args, report, f"holds ({verdict.instances_checked} instances)")
        return EXIT_OK
    _emit(args, report, _ce_text(["counterexample found"], verdict.counterexample))
    return EXIT_COUNTEREXAMPLE


def cmd_search(args: argparse.Namespace) -> int:
    start = time.monotonic()
    schema = engine.RelationSchema.parse(args.schema)
    schema.check_literals(args.n)
    verdict = engine.search_counterexample(schema, args.n,
                                           _max_cells(args.max_cells, args.skew),
                                           skew=args.skew)
    report = _report(args, verdict=_verdict_doc(verdict),
                     timing=round(time.monotonic() - start, 3))
    if verdict.holds:
        _emit(args, report,
              f"exhausted: no counterexample within budget "
              f"({verdict.instances_checked} instances)")
        return EXIT_COUNTEREXAMPLE
    ce = verdict.counterexample
    _emit(args, report, _ce_text(
        ["witness found", f"shape: {ce.shape.outer}/{ce.shape.inner}"], ce))
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    t = _read_tableau(args.infile, args.n)
    gens = tuple(engine.parse_symbol(g.strip())
                 for g in args.gens.split(",") if g.strip())
    if not gens:
        raise engine.WordError(f"--gens {args.gens!r} names no generator")
    graph = engine.orbit_graph(t, gens)
    dot = graph.to_dot()
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot + "\n")
    report = _report(args, nodes=len(graph.nodes), edges=len(graph.edges),
                     dot=dot)
    _emit(args, report, dot if not args.dot
          else f"orbit: {len(graph.nodes)} nodes, {len(graph.edges)} edges "
               f"-> {args.dot}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shifted-tableaux",
        description="Shifted tableau operators, switching, and relation "
                    "verification.  Words act rightmost symbol first.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # kept because every JSON report lists it under "parameters"
    parser.add_argument("--jobs", type=int, default=1, help="has no effect")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="enumerate ShST(shape, n)")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("apply", help="apply a generator word to a tableau")
    p.add_argument("--op", required=True,
                   help="word, e.g. 't1', '(t1 t2)^6', 'eta:1,3'")
    p.add_argument("--in", dest="infile", required=True,
                   help="tableau file, '-' for stdin")
    p.add_argument("--n", type=int)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("switch", help="switch a tableau through one extending it")
    p.add_argument("--s", required=True, help="inner tableau file")
    p.add_argument("--t", required=True, help="extending tableau file")
    p.add_argument("--n", type=int)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("rectify", help="rectify a skew tableau")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--strategy", choices=("first", "last"), default="first")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_rectify)

    p = sub.add_parser("verify", help="verify a relation schema or preset")
    p.add_argument("--schema", help="'lhs = rhs [: constraint]'")
    p.add_argument("--preset", choices=engine.PRESETS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--outer")
    p.add_argument("--inner")
    p.add_argument("--skew", action="store_true")
    p.add_argument("--max-cells", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search shapes for a counterexample")
    p.add_argument("--schema", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-cells", type=int, required=True)
    p.add_argument("--skew", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("orbit", help="orbit graph under a generator set")
    p.add_argument("--gens", required=True, help="comma-separated, e.g. t1,t2")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--dot", help="write DOT output to this file")
    p.set_defaults(func=cmd_orbit)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call and shared by every
    later one; parse_args keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (TableauError, engine.WordError, switching.SwitchingError,
            OSError, ValueError, RuntimeError) as exc:
        # OSError covers a missing file and a directory given as one;
        # RuntimeError covers CapacityError and the integrity checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
