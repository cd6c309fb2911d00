"""The correctness gate: every query's exit code and JSON report are
compared with the reference answers recorded for it, and every result is
also checked on its own, without the library, so that any seed is judged.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import checker
import workloads

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
_NODE = re.compile(r'^  n(\d+) \[label="(.*)"\];$')
_EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="(.*)"\];$')


def key(query: dict) -> str:
    return "\t".join(query["argv"])


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["answers"]


def digest(doc: dict) -> str:
    """SHA-256 of the report without its run-dependent timing field."""
    doc = {k: v for k, v in doc.items() if k != "timing"}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summary(query: dict, doc: dict) -> dict:
    """The readable part of a reference answer: verdicts and instance
    counts, family sizes, orbit sizes or result tableaux."""
    kind = query["kind"]
    if kind == "verify":
        return {"holds": doc["holds"],
                "results": [[r["label"], r["ok"],
                             r["verdict"]["instances_checked"]]
                            for r in doc["results"]]}
    if kind == "enum":
        return {"count": doc["count"]}
    if kind == "orbit":
        return {"nodes": doc["nodes"], "edges": doc["edges"]}
    if kind == "switch":
        return {"inner_result": doc["inner_result"],
                "outer_result": doc["outer_result"]}
    return {"result": doc["result"]}


def answer(query: dict, code: int, doc: dict) -> dict:
    return {"exit": code, "sha256": digest(doc), "summary": summary(query, doc)}


def check(query: dict, code, stdout: str, error: str | None,
          reference: dict) -> str | None:
    """None if the query's outcome is right, else what is wrong."""
    if error is not None:
        return f"raised {error}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"exit {code}, no JSON report"
    expected = reference.get(key(query))
    if expected is not None:
        got = answer(query, code, doc)
        for field in ("exit", "summary", "sha256"):
            if got[field] != expected[field]:
                return f"{field} {got[field]!r} differs from the reference"
    elif query["kind"] in ("verify", "enum"):
        return "no reference answer"
    if code != 0:
        return f"exit {code}"
    try:
        independent(query, doc)
    except (checker.CheckError, KeyError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# checks that need no reference

def independent(query: dict, doc: dict) -> None:
    kind, n = query["kind"], query.get("n")
    if kind == "verify":
        if doc["holds"] is not True or not all(r["ok"] for r in doc["results"]):
            raise checker.CheckError("a preset result is not ok")
        return
    if kind == "enum":
        cells = workloads.cells_of(tuple(query["outer"]), tuple(query["inner"]))
        if len(doc["members"]) != doc["count"] \
                or len(set(doc["members"])) != doc["count"]:
            raise checker.CheckError("members are not count distinct tableaux")
        for text in doc["members"]:
            member = checker.parse(text)
            checker.validate(member, n)
            if set(member) != cells:
                raise checker.CheckError(f"member {text!r} has another shape")
        return
    if kind == "switch":
        _check_switch(query, doc)
        return
    before = checker.parse(query["input"])
    if kind == "apply":
        after = checker.parse(doc["result"])
        _same_cells(before, after)
        checker.validate(after, n)
        word = [tuple(s) for s in query["word"]]
        if checker.weight(after, n) != checker.act_word(word, checker.weight(before, n)):
            raise checker.CheckError("weight does not follow the word")
    elif kind == "rectify":
        after = checker.parse(doc["result"])
        checker.validate(after, n)
        if not checker.is_straight(after) or len(after) != len(before):
            raise checker.CheckError("result is not a straight shape of the same size")
        if checker.weight(after, n) != checker.weight(before, n):
            raise checker.CheckError("rectification changed the weight")
        if len(doc["slides"]) != query["input"].split().count("."):
            raise checker.CheckError("not one slide per inner cell")
    elif kind == "orbit":
        _check_orbit(query, doc, before)
    else:
        raise checker.CheckError(f"unknown query kind {kind!r}")


def _same_cells(a: dict, b: dict) -> None:
    if set(a) != set(b):
        raise checker.CheckError("result has another shape")


def _check_switch(query: dict, doc: dict) -> None:
    n = query["n"]
    s, t = checker.parse(query["s"]), checker.parse(query["t"])
    moved_t = checker.parse(doc["inner_result"])
    moved_s = checker.parse(doc["outer_result"])
    for result in (moved_t, moved_s):
        checker.validate(result, n)
    if set(moved_t) & set(moved_s) or set(moved_t) | set(moved_s) != set(s) | set(t):
        raise checker.CheckError("results do not tile the union of S and T")
    if checker.weight(moved_t, n) != checker.weight(t, n) \
            or checker.weight(moved_s, n) != checker.weight(s, n):
        raise checker.CheckError("switching changed a weight")
    inner = workloads.cells_of(tuple(query["inner"]), ())
    if not checker.is_straight({c: (1, False) for c in inner | set(moved_t)}):
        raise checker.CheckError("T did not move onto the inner shape")


def _check_orbit(query: dict, doc: dict, start: dict) -> None:
    n = query["n"]
    gens = [tuple(g) for g in query["gens"]]
    labels = {checker.symbol_text(g): g for g in gens}
    nodes: dict[int, dict] = {}
    edges = []
    for line in doc["dot"].splitlines()[1:-1]:
        if m := _EDGE.match(line):
            edges.append((int(m[1]), labels[m[3]], int(m[2])))
        elif m := _NODE.match(line):
            nodes[int(m[1])] = checker.parse(m[2])
        else:
            raise checker.CheckError(f"unexpected DOT line {line!r}")
    if len(nodes) != doc["nodes"] or len(edges) != doc["edges"] \
            or len(edges) != len(nodes) * len(gens):
        raise checker.CheckError("node or edge counts disagree")
    if nodes.get(0) != start:
        raise checker.CheckError("orbit does not start at the input")
    if len({tuple(sorted(v.items())) for v in nodes.values()}) != len(nodes):
        raise checker.CheckError("orbit repeats a tableau")
    for node in nodes.values():
        _same_cells(start, node)
        checker.validate(node, n)
    for u, gen, v in edges:
        if checker.weight(nodes[v], n) != checker.act(gen, checker.weight(nodes[u], n)):
            raise checker.CheckError(f"edge n{u} -> n{v} breaks the weight rule")
