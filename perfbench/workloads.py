"""Seeded inputs of the benchmark workloads, as CLI argument lists.

The benchmark owns its inputs: shapes and tableaux are generated here,
without the library, and the library only ever receives argv strings.
The verify and enum-search workloads are exhaustive and ignore the seed.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations

import checker

DEFAULT_SEED = 0
WORKLOADS = ("verify-bk", "verify-jdt", "enum-search", "explore")

JSON = ("--format", "json")
ENUM_N, ENUM_MAX_CELLS, ENUM_MAX_PART = 4, 8, 4
EXPLORE_QUERIES = 1000
EXPLORE_CELLS = (8, 12)
EXPLORE_MAX_PART = 6
TINY_EXPLORE_QUERIES = 20
EXPLORE_MIX = (("apply", 60), ("rectify", 15), ("switch", 12), ("orbit", 13))


def _verify(preset: str, n: int) -> dict:
    return {"kind": "verify",
            "argv": [*JSON, "verify", "--preset", preset, "--n", str(n)]}


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The query stream of one pass.  Each query is a dict with the argv
    and the inputs its independent check needs.  tiny gives a pass of a
    few seconds over the same code paths, for the self-test."""
    n = 3 if tiny else 4
    if workload == "verify-bk":
        return [_verify("cactus-q", n), _verify("sbk-core", n)]
    if workload == "verify-jdt":
        return [_verify("cactus-eta", n), _verify("evac-agreement", n)]
    if workload == "enum-search":
        # every shape in (cells, outer, inner) order, whatever the seed:
        # with the order shuffled by seed, query_p50_ms spread twice as
        # much between seeds
        shapes = enum_shapes(3 if tiny else ENUM_MAX_CELLS, ENUM_MAX_PART)
        return [_enum(outer, inner, ENUM_N) for outer, inner in shapes] \
            + [_verify("non-relations", n)]
    if workload == "explore":
        rng = random.Random(f"explore:{seed}")
        count = TINY_EXPLORE_QUERIES if tiny else EXPLORE_QUERIES
        # a fixed mix of kinds, so that seeds differ only in the inputs
        kinds = [kind for kind, share in EXPLORE_MIX
                 for _ in range(count * share // 100)]
        rng.shuffle(kinds)
        return [_explore_query(rng, kind) for kind in kinds]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# shapes

def strict_partitions(max_part: int) -> list[tuple[int, ...]]:
    """Every strict partition with parts at most max_part, empty included."""
    return [tuple(sorted(parts, reverse=True))
            for size in range(max_part + 1)
            for parts in combinations(range(1, max_part + 1), size)]


def cells_of(outer: tuple[int, ...], inner: tuple[int, ...]) -> frozenset:
    return frozenset((r, c) for r, length in enumerate(outer, start=1)
                     for c in range(r + (inner[r - 1] if r <= len(inner) else 0),
                                    r + length))


def _contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    return len(inner) <= len(outer) and all(i <= o for i, o in zip(inner, outer))


def enum_shapes(max_cells: int, max_part: int) -> list[tuple[tuple, tuple]]:
    """Every skew or straight shifted shape outer/inner with 1..max_cells
    cells and outer_1 <= max_part, one (outer, inner) per cell set, taking
    the first in (cells, outer, inner) order."""
    parts = strict_partitions(max_part)
    pairs = sorted((len(cells_of(o, i)), o, i) for o in parts if o
                   for i in parts if _contains(o, i))
    seen: set[frozenset] = set()
    out = []
    for size, outer, inner in pairs:
        cells = cells_of(outer, inner)
        if 0 < size <= max_cells and cells not in seen:
            seen.add(cells)
            out.append((outer, inner))
    return out


def _enum(outer: tuple, inner: tuple, n: int) -> dict:
    argv = [*JSON, "enum", "--outer", ",".join(map(str, outer))]
    if inner:
        argv += ["--inner", ",".join(map(str, inner))]
    return {"kind": "enum", "argv": argv + ["--n", str(n)],
            "outer": list(outer), "inner": list(inner), "n": n}


@cache
def _explore_shapes() -> tuple[tuple[tuple, tuple], ...]:
    """Shapes of 8-12 cells with outer_1 <= 6 and no empty row."""
    parts = strict_partitions(EXPLORE_MAX_PART)
    lo, hi = EXPLORE_CELLS
    return tuple((o, i) for o in parts if o for i in parts
                 if _contains(o, i) and all(a < b for a, b in zip(i, o))
                 and lo <= len(cells_of(o, i)) <= hi)


def _random_shape(rng: random.Random) -> tuple[tuple, tuple]:
    return rng.choice(_explore_shapes())


# ---------------------------------------------------------------------------
# tableaux

def random_filling(rng: random.Random, cells, n: int) -> dict:
    """A random shifted semistandard filling of the cell set with letters
    1..n, in canonical form.  Each cell takes one of the four smallest
    entries its neighbours allow, so that most fillings use several
    letters; dead ends backtrack."""
    order = sorted(cells)
    alphabet = [(k, p) for k in range(1, n + 1) for p in (True, False)]
    fill: dict = {}

    def place(idx: int) -> bool:
        if idx == len(order):
            return True
        r, c = order[idx]
        floor = max((checker.key(fill[x]) for x in ((r, c - 1), (r - 1, c))
                     if x in fill), default=0)
        options = [e for e in alphabet if checker.key(e) >= floor
                   and not (e[1] and any(rr == r and fill[(rr, cc)] == e
                                         for rr, cc in fill))
                   and not (not e[1] and any(cc == c and fill[(rr, cc)] == e
                                             for rr, cc in fill))]
        options = options[:4]
        rng.shuffle(options)
        for e in options:
            fill[(r, c)] = e
            if place(idx + 1):
                return True
            del fill[(r, c)]
        return False

    if not place(0):
        raise ValueError(f"no filling of {sorted(cells)} with n={n}")
    seen: set[int] = set()
    for cell in checker.reading_order(fill):
        value, primed = fill[cell]
        if value not in seen:
            seen.add(value)
            fill[cell] = (value, False)
    checker.validate(fill, n)
    return fill


def _text(outer: tuple, inner: tuple, fill: dict) -> str:
    pads = {r: inner[r - 1] if r <= len(inner) else 0
            for r in range(1, len(outer) + 1)}
    return checker.render(fill, pads)


def random_tableau(rng: random.Random, n: int) -> str:
    outer, inner = _random_shape(rng)
    return _text(outer, inner, random_filling(rng, cells_of(outer, inner), n))


# ---------------------------------------------------------------------------
# the explore query stream

def _random_symbol(rng: random.Random, n: int) -> tuple[str, int, int]:
    kind = rng.choice(("t", "p", "q", "qij", "eta", "sigma", "evacs", "evacsij"))
    if kind in ("qij", "eta", "evacsij"):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        return (kind, i, j)
    if kind == "evacs":
        return (kind, rng.randint(1, n), 0)
    return (kind, rng.randint(1, n - 1), 0)


def _random_word(rng: random.Random, n: int) -> tuple[str, list]:
    """A word of one to three symbols, sometimes raised to a small power.
    Returns its text and its expansion into symbols."""
    symbols = [_random_symbol(rng, n) for _ in range(rng.randint(1, 3))]
    text = " ".join(checker.symbol_text(s) for s in symbols)
    if rng.random() < 0.25:
        power = rng.randint(2, 3)
        return f"({text})^{power}", symbols * power
    return text, symbols


def _explore_query(rng: random.Random, kind: str) -> dict:
    n = rng.choice((5, 6))
    if kind == "switch":
        return _switch_query(rng, n)
    text = random_tableau(rng, n)
    query = {"kind": kind, "n": n, "input": text}
    if kind == "apply":
        word_text, word = _random_word(rng, n)
        query["word"] = [list(s) for s in word]
        query["argv"] = [*JSON, "apply", "--op", word_text, "--in", text,
                         "--n", str(n)]
    elif kind == "rectify":
        query["argv"] = [*JSON, "rectify", "--in", text, "--n", str(n),
                         "--strategy", rng.choice(("first", "last"))]
    else:
        i = rng.randint(1, n - 2)
        # (sigma_i, t_{i+1}) is left out: its orbits reach hundreds of nodes
        gens = rng.choice(((("t", i, 0), ("t", i + 1, 0)),
                           (("t", i, 0), ("sigma", i, 0)),
                           (("q", i, 0), ("t", i + 1, 0))))
        query["gens"] = [list(g) for g in gens]
        query["argv"] = [*JSON, "orbit", "--gens",
                         ",".join(checker.symbol_text(g) for g in gens),
                         "--in", text, "--n", str(n)]
    return query


def _switch_query(rng: random.Random, n: int) -> dict:
    """S on nu/mu and T on lambda/nu, so that T extends S."""
    while True:
        outer, inner = _random_shape(rng)
        middle = _random_between(rng, outer, inner)
        if middle is not None:
            break
    s_fill = random_filling(rng, cells_of(middle, inner), n)
    t_fill = random_filling(rng, cells_of(outer, middle), n)
    s_text = _text(middle, inner, s_fill)
    t_text = _text(outer, middle, t_fill)
    return {"kind": "switch", "n": n, "s": s_text, "t": t_text,
            "outer": list(outer), "inner": list(inner),
            "argv": [*JSON, "switch", "--s", s_text, "--t", t_text,
                     "--n", str(n)]}


def _random_between(rng: random.Random, outer: tuple, inner: tuple):
    """A strict partition nu with inner < nu < outer on both sides, or
    None after a few failed draws."""
    for _ in range(20):
        parts = []
        for r, o in enumerate(outer):
            lo = inner[r] if r < len(inner) else 0
            hi = min(o, parts[-1] - 1) if parts else o
            if hi < lo:
                break
            part = rng.randint(lo, hi)
            if part == 0:
                break
            parts.append(part)
        middle = tuple(parts)
        if _contains(middle, inner) \
                and 0 < len(cells_of(middle, inner)) < len(cells_of(outer, inner)):
            return middle
    return None
