"""Word evaluation, relation verification and counterexample search for
the operators acting on shifted tableau families.

Words evaluate rightmost symbol first everywhere.  Relation schemata are
data: two word templates with index variables in braces plus a constraint,
instantiated over all index assignments in range.

Verification evaluates words on member positions of a family: every
generator keeps the cell set, so on ShST(shape, n) it is a permutation,
stored as a lazily filled table on the family.
"""

from __future__ import annotations

import itertools
import re
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import bender_knuth, jdt, switching
from .core import ShiftedSkewShape, ShiftedTableau
from .enumeration import TableauFamily, enumerate_tableaux, skew_shapes, straight_shapes


class WordError(ValueError):
    """Malformed generator word or out-of-range index."""


@dataclass(frozen=True)
class GeneratorSymbol:
    kind: str          # t, p, q, qij, evac, evacs, evacsij, eta, sigma
    i: int = 0
    j: int = 0

    def __str__(self) -> str:
        if self.kind in ("qij", "eta", "evacsij"):
            base = {"qij": "q", "eta": "eta", "evacsij": "evacs"}[self.kind]
            return f"{base}:{self.i},{self.j}"
        return f"{self.kind}{self.i}"

    def valid_for(self, n: int) -> bool:
        if self.kind in ("t", "p", "q", "sigma"):
            return 1 <= self.i <= n - 1
        if self.kind in ("evac", "evacs"):
            return 1 <= self.i <= n
        if self.kind in ("qij", "eta", "evacsij"):
            return 1 <= self.i < self.j <= n
        return False


_TOKEN_RE = re.compile(r"^(t|p|q|evacs|evac|eta|sigma)(?::?(\d+)(?:,(\d+))?)?$")


def parse_symbol(token: str) -> GeneratorSymbol:
    m = _TOKEN_RE.match(token)
    if not m:
        raise WordError(f"cannot parse generator token {token!r}")
    kind, i, j = m.group(1), m.group(2), m.group(3)
    if i is None:
        raise WordError(f"generator {token!r} is missing an index")
    if j is not None:
        if kind == "q":
            return GeneratorSymbol("qij", int(i), int(j))
        if kind == "eta":
            return GeneratorSymbol("eta", int(i), int(j))
        if kind == "evacs":
            return GeneratorSymbol("evacsij", int(i), int(j))
        raise WordError(f"generator {token!r} does not take two indices")
    if kind == "eta":
        raise WordError("eta takes two indices, e.g. eta:1,3")
    return GeneratorSymbol(kind, int(i))


Word = tuple[GeneratorSymbol, ...]

MAX_WORD_LENGTH = 10_000


def _check_length(length: int) -> None:
    if length > MAX_WORD_LENGTH:
        raise WordError(f"word expands to more than {MAX_WORD_LENGTH} symbols")


def parse_word(text: str) -> Word:
    """A whitespace-separated word, with (...)^k powers; 'e' is the
    identity.  The rightmost symbol acts first."""
    tokens = _tokenize(text)
    word, rest = _parse_seq(tokens, 0)
    if rest != len(tokens):
        raise WordError(f"trailing tokens in word {text!r}")
    return tuple(word)


def _tokenize(text: str) -> list[str]:
    out = []
    for chunk in re.findall(r"\(|\)|\^\d+|[^()\s^]+", text):
        out.append(chunk)
    return out


def _parse_seq(tokens: list[str], pos: int) -> tuple[list[GeneratorSymbol], int]:
    word: list[GeneratorSymbol] = []
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == ")":
            break
        if tok == "(":
            inner, pos = _parse_seq(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise WordError("unbalanced parentheses in word")
            pos += 1
            power = 1
            if pos < len(tokens) and tokens[pos].startswith("^"):
                power = int(tokens[pos][1:])
                pos += 1
            _check_length(len(word) + len(inner) * power)
            word.extend(inner * power)
            continue
        if tok.startswith("^"):
            if not word:
                raise WordError("power without a base")
            power = int(tok[1:])
            _check_length(len(word) + power - 1)
            word.extend([word[-1]] * (power - 1))
            pos += 1
            continue
        if tok == "e":
            pos += 1
            continue
        _check_length(len(word) + 1)
        word.append(parse_symbol(tok))
        pos += 1
    return word, pos


def apply_symbol(t: ShiftedTableau, sym: GeneratorSymbol) -> ShiftedTableau:
    if not sym.valid_for(t.n):
        raise WordError(f"generator {sym} out of range for n={t.n}")
    if sym.kind == "t":
        return bender_knuth.bk(t, sym.i)
    if sym.kind == "p":
        return bender_knuth.promotion(t, sym.i)
    if sym.kind == "q":
        return bender_knuth.q(t, sym.i)
    if sym.kind == "qij":
        return bender_knuth.q_interval(t, sym.i, sym.j)
    if sym.kind == "evac":
        return switching.evac_k_switch(t, sym.i)
    if sym.kind == "evacs":
        return switching.evac_k_skew(t, sym.i)
    if sym.kind == "evacsij":
        return switching.evac_interval_skew(t, sym.i, sym.j)
    if sym.kind == "eta":
        return jdt.eta(t, sym.i, sym.j)
    if sym.kind == "sigma":
        return jdt.sigma(t, sym.i)
    raise WordError(f"unknown generator kind {sym.kind!r}")


def eval_word(word: Sequence[GeneratorSymbol], t: ShiftedTableau) -> ShiftedTableau:
    """Rightmost-first composition."""
    for sym in reversed(tuple(word)):
        t = apply_symbol(t, sym)
    return t


# ---------------------------------------------------------------------------
# words as permutations of a family

# the composite generators as words in the t_k, in the order they act
_T_FACTORS: dict[str, Callable[[GeneratorSymbol], tuple[int, ...]]] = {
    "p": lambda s: bender_knuth.promotion_word(s.i),
    "q": lambda s: bender_knuth.q_word(s.i),
    "qij": lambda s: bender_knuth.q_interval_word(s.i, s.j),
}

_Steps = list[tuple[GeneratorSymbol, array]]


def _table(family: TableauFamily, sym: GeneratorSymbol) -> array:
    table = family.tables.get(sym)
    if table is None:
        table = family.tables[sym] = array("i", [-1]) * len(family)
    return table


def _steps(family: TableauFamily, word: Sequence[GeneratorSymbol]) -> _Steps:
    """The family tables of a word's symbols, in the order they act."""
    return [(sym, _table(family, sym)) for sym in reversed(tuple(word))]


def _follow(family: TableauFamily, steps: _Steps, x: int) -> int:
    for sym, table in steps:
        y = table[x]
        x = y if y >= 0 else _fill(family, sym, table, x)
    return x


def _fill(family: TableauFamily, sym: GeneratorSymbol, table: array, x: int) -> int:
    """Compute table[x] once: composite symbols fold over the t tables,
    the others apply to the member and look the result up."""
    factors = _T_FACTORS.get(sym.kind)
    if factors is not None:
        if not sym.valid_for(family.n):
            raise WordError(f"generator {sym} out of range for n={family.n}")
        t_syms = (GeneratorSymbol("t", k) for k in factors(sym))
        y = _follow(family, [(t, _table(family, t)) for t in t_syms], x)
    else:
        y = family.index.get(apply_symbol(family.members[x], sym), -1)
        if y < 0:
            raise RuntimeError(f"{sym} took member {x} of ShST({family.shape}, "
                               f"{family.n}) out of its family")
    table[x] = y
    return y


def word_permutation(family: TableauFamily, word: Sequence[GeneratorSymbol]
                     ) -> array:
    """The permutation a word induces on the family: entry x is the
    position of eval_word(word, family.members[x])."""
    steps = _steps(family, word)
    return array("i", (_follow(family, steps, x) for x in range(len(family))))


# ---------------------------------------------------------------------------
# relation schemata

_VAR_RE = re.compile(r"\{([a-z0-9+\-* ()]+)\}")


@dataclass(frozen=True)
class RelationSchema:
    """left = right over all index instantiations satisfying constraint."""

    left: str
    right: str = "e"
    constraint: str = "True"
    name: str = ""
    straight_only: bool = False

    @classmethod
    def parse(cls, text: str, name: str = "", straight_only: bool = False
              ) -> "RelationSchema":
        """Parse 'lhs = rhs [: constraint]'."""
        body, _, constraint = text.partition(":")
        lhs, eq, rhs = body.partition("=")
        if not eq:
            raise WordError(f"schema {text!r} has no '='")
        return cls(lhs.strip(), rhs.strip() or "e", constraint.strip() or "True",
                   name or text.strip(), straight_only)

    @property
    def variables(self) -> tuple[str, ...]:
        seen = []
        text = " ".join(_VAR_RE.findall(self.left + " " + self.right)) \
            + " " + self.constraint
        for v in re.findall(r"\b([a-z])\b", text):
            if v not in seen:
                seen.append(v)
        return tuple(seen)

    def instantiations(self, n: int) -> list[tuple[dict[str, int], Word, Word]]:
        out = []
        names = self.variables
        for values in itertools.product(range(1, n + 1), repeat=len(names)):
            subs = dict(zip(names, values))
            if not _eval_constraint(self.constraint, subs):
                continue
            left, right = _substitute(self.left, subs), _substitute(self.right, subs)
            try:
                lhs, rhs = parse_word(left), parse_word(right)
            except WordError:
                continue
            if all(s.valid_for(n) for s in lhs + rhs):
                out.append((subs, lhs, rhs))
        return out


_EXPR_RE = re.compile(r"^[\sa-z0-9+\-*<>=!&()%,]*$")


def _reject_power(expr: str) -> None:
    # eval of a chain like i**i**i**i runs for as long as it likes
    if "**" in "".join(expr.split()):
        raise WordError(f"'**' is not allowed in schema expressions: {expr!r}")


def _eval_index(expr: str, subs: dict[str, int]) -> int:
    _reject_power(expr)
    if not _EXPR_RE.match(expr):
        raise WordError(f"unsupported index expression {expr!r}")
    return int(eval(expr, {"__builtins__": {}}, dict(subs)))  # noqa: S307


def _substitute(template: str, subs: dict[str, int]) -> str:
    def repl(m: re.Match) -> str:
        return str(_eval_index(m.group(1), subs))
    return _VAR_RE.sub(repl, template)


def _eval_constraint(expr: str, subs: dict[str, int]) -> bool:
    if expr == "True":
        return True
    # |x| is shorthand for abs(x)
    expr = re.sub(r"\|([^|]*)\|", r"abs(\1)", expr)
    _reject_power(expr)
    if not _EXPR_RE.match(expr.replace("abs", "").replace("and", "")
                          .replace("or", "").replace("not", "")):
        raise WordError(f"unsupported constraint {expr!r}")
    env = dict(subs)
    env["abs"] = abs
    return bool(eval(expr, {"__builtins__": {}}, env))  # noqa: S307 - vetted charset


@dataclass(frozen=True)
class Counterexample:
    tableau: ShiftedTableau
    substitution: tuple[tuple[str, int], ...]
    left_result: ShiftedTableau
    right_result: ShiftedTableau
    shape: ShiftedSkewShape | None = None


@dataclass(frozen=True)
class Verdict:
    holds: bool
    instances_checked: int
    counterexample: Counterexample | None = None
    note: str = ""


def verify_relation(schema: RelationSchema, family: TableauFamily,
                    exhaustive: bool = False) -> Verdict:
    """Check every instantiation against every family member.  Short
    circuits at the first counterexample unless exhaustive is requested."""
    checked = 0
    first: Counterexample | None = None
    for subs, lhs, rhs in schema.instantiations(family.n):
        left, right = _steps(family, lhs), _steps(family, rhs)
        for x, t in enumerate(family):
            checked += 1
            if _follow(family, left, x) != _follow(family, right, x):
                if first is None:
                    first = Counterexample(t, tuple(sorted(subs.items())),
                                           eval_word(lhs, t), eval_word(rhs, t),
                                           family.shape)
                if not exhaustive:
                    return Verdict(False, checked, first)
    return Verdict(first is None, checked, first)


def verify_relation_over(schema: RelationSchema, families: Iterable[TableauFamily],
                         exhaustive: bool = False) -> Verdict:
    checked = 0
    for family in families:
        verdict = verify_relation(schema, family, exhaustive)
        checked += verdict.instances_checked
        if not verdict.holds:
            return Verdict(False, checked, verdict.counterexample)
    return Verdict(True, checked)


# ---------------------------------------------------------------------------
# cactus group actions

CACTUS_ROUTES = ("eta", "q", "evac")


def route_word(route: str, a: str, b: str) -> str:
    """The word realizing the interval generator s_{a,b} under the given
    route, with a and b index expressions."""
    if route == "eta":
        return f"eta:{{{a}}},{{{b}}}"
    if route == "q":
        return f"q:{{{a}}},{{{b}}}"
    if route == "evac":
        return f"evac{{{b}}} evac{{{b}-({a})+1}} evac{{{b}}}"
    raise WordError(f"unknown cactus route {route!r}")


def cactus_schemas(route: str) -> list[RelationSchema]:
    """The defining relations of the cactus group for one realization of
    the generators s_{i,j}."""
    s = lambda a, b: route_word(route, a, b)  # noqa: E731
    return [
        RelationSchema(s("i", "j") + " " + s("i", "j"), "e",
                       "i < j", name=f"{route}: s_ij^2 = 1"),
        RelationSchema(s("i", "j") + " " + s("k", "l"),
                       s("k", "l") + " " + s("i", "j"),
                       "i < j and k < l and j < k",
                       name=f"{route}: disjoint intervals commute"),
        RelationSchema(s("i", "j") + " " + s("k", "l"),
                       s("i+j-l", "i+j-k") + " " + s("i", "j"),
                       "i <= k and k < l and l <= j and i < j",
                       name=f"{route}: nested intervals fold"),
    ]


def verify_cactus_action(route: str, families: Iterable[TableauFamily]) -> Verdict:
    """Check the cactus relations and the s_{1,j}-decomposition identity
    for the given realization over the given families."""
    if route not in CACTUS_ROUTES:
        raise WordError(f"unknown cactus route {route!r}")
    checked = 0
    for family in families:
        n = family.n
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        words = {(i, j): parse_word(_substitute(route_word(route, str(i), str(j)), {}))
                 for (i, j) in pairs}
        steps = {p: _steps(family, w) for p, w in words.items()}

        def image(x: int, *ps: tuple[int, int]) -> int:
            for p in reversed(ps):  # rightmost factor first
                x = _follow(family, steps[p], x)
            return x

        def result(t: ShiftedTableau, *ps: tuple[int, int]) -> ShiftedTableau:
            return eval_word(sum((words[p] for p in ps), ()), t)

        # (note, substitution, left factors, right factors) per relation
        checks = [("s_ij^2 = 1 fails", (("i", i), ("j", j)), ((i, j), (i, j)), ())
                  for (i, j) in pairs]
        for (i, j) in pairs:
            for (k, l) in pairs:
                subs = (("i", i), ("j", j), ("k", k), ("l", l))
                if j < k or l < i:
                    checks.append(("disjoint commutation fails", subs,
                                   ((i, j), (k, l)), ((k, l), (i, j))))
                elif i <= k and l <= j:
                    checks.append(("nested folding fails", subs, ((i, j), (k, l)),
                                   ((i + j - l, i + j - k), (i, j))))
        checks += [("s_ij = s_1j s_1,j-i+1 s_1j fails", (("i", i), ("j", j)),
                    ((i, j),), ((1, j), (1, j - i + 1), (1, j))) for (i, j) in pairs]
        for x, t in enumerate(family):
            for note, subs, left, right in checks:
                checked += 1
                if image(x, *left) != image(x, *right):
                    return Verdict(False, checked, Counterexample(
                        t, subs, result(t, *left), result(t, *right),
                        family.shape), note=note)
    return Verdict(True, checked)


# ---------------------------------------------------------------------------
# counterexample search and orbits

def search_counterexample(schema: RelationSchema, n: int, max_cells: int,
                          skew: bool = False, max_part: int | None = None
                          ) -> Verdict:
    """Scan shapes by (cells, shape) order for the first family member
    violating the schema."""
    shapes = (skew_shapes(max_cells, max_part) if skew
              else straight_shapes(max_cells, max_part))
    checked = 0
    for shape in shapes:
        family = enumerate_tableaux(shape, n)
        verdict = verify_relation(schema, family)
        checked += verdict.instances_checked
        if not verdict.holds:
            return Verdict(False, checked, verdict.counterexample,
                           note="counterexample found")
    return Verdict(True, checked, note="exhausted search budget without counterexample")


@dataclass(frozen=True)
class OrbitGraph:
    nodes: tuple[ShiftedTableau, ...]
    edges: tuple[tuple[int, str, int], ...]

    def to_dot(self) -> str:
        lines = ["digraph orbit {"]
        for idx, t in enumerate(self.nodes):
            label = str(t).replace("\n", " / ") or "(empty)"
            lines.append(f'  n{idx} [label="{label}"];')
        for u, gen, v in self.edges:
            lines.append(f'  n{u} -> n{v} [label="{gen}"];')
        lines.append("}")
        return "\n".join(lines)


def orbit_graph(t: ShiftedTableau, generators: Sequence[GeneratorSymbol],
                max_nodes: int = 10000) -> OrbitGraph:
    """Closed orbit of t under the generators, breadth first, with
    deterministic vertex order."""
    nodes: list[ShiftedTableau] = [t]
    index = {t: 0}
    edges: list[tuple[int, str, int]] = []
    frontier = [t]
    while frontier:
        nxt = []
        for cur in frontier:
            for gen in generators:
                out = apply_symbol(cur, gen)
                if out not in index:
                    if len(nodes) >= max_nodes:
                        raise jdt.CapacityError("orbit exceeds configured bound")
                    index[out] = len(nodes)
                    nodes.append(out)
                    nxt.append(out)
                edges.append((index[cur], str(gen), index[out]))
        frontier = nxt
    return OrbitGraph(tuple(nodes), tuple(edges))


def components_by_dual_equivalence(family: TableauFamily
                                   ) -> list[tuple[ShiftedSkewShape, tuple[ShiftedTableau, ...]]]:
    """Partition a family into dual-equivalence classes; each class is
    reported with its common rectification shape."""
    classes: list[list[ShiftedTableau]] = []
    for t in family:
        for cls in classes:
            if jdt.dual_equivalent(cls[0], t):
                cls.append(t)
                break
        else:
            classes.append([t])
    out = []
    for cls in classes:
        rect_shape = jdt.rectify(cls[0])[0].shape
        out.append((rect_shape, tuple(cls)))
    return out

# ---------------------------------------------------------------------------
# bundled verification suites

@dataclass(frozen=True)
class PresetResult:
    label: str
    ok: bool
    verdict: Verdict


PRESETS = ("sbk-core", "cactus-q", "cactus-eta", "evac-agreement", "non-relations")

STRAIGHT_MAX_PART = 4
SKEW_MAX_CELLS = 5
SEARCH_MAX_CELLS = 9


def straight_families(n: int, max_part: int = STRAIGHT_MAX_PART
                      ) -> list[TableauFamily]:
    cells = max_part * (max_part + 1) // 2
    return [enumerate_tableaux(s, n) for s in straight_shapes(cells, max_part)]


def skew_families(n: int, max_cells: int = SKEW_MAX_CELLS,
                  include_straight: bool = False) -> list[TableauFamily]:
    return [enumerate_tableaux(s, n)
            for s in skew_shapes(max_cells, STRAIGHT_MAX_PART, include_straight)]


def _check_pointwise(families: Iterable[TableauFamily],
                     left: Callable[[ShiftedTableau], ShiftedTableau],
                     right: Callable[[ShiftedTableau], ShiftedTableau]) -> Verdict:
    checked = 0
    for family in families:
        for t in family:
            checked += 1
            lres, rres = left(t), right(t)
            if lres != rres:
                return Verdict(False, checked,
                               Counterexample(t, (), lres, rres, family.shape))
    return Verdict(True, checked)


def sbk_core_schemas() -> list[RelationSchema]:
    """The defining relations of the shifted Bender-Knuth generators plus
    the identities expressing each t_i in the q-generators.

    The relation (t_i q_{j,k})^2 = 1 is marked straight_only: it holds on
    straight shapes, where q_m realizes the evacuation restricted to the
    first m+1 letters, but it fails on skew shapes (t_1 q_{3,4} acts as a
    5-cycle on the standard fillings of the 4-cell shape (4,2)/(2)).
    """
    return [
        RelationSchema("t{i} t{i}", "e", name="t_i^2 = 1"),
        RelationSchema("t{i} t{j}", "t{j} t{i}", "|i-j| > 1",
                       name="t_i t_j = t_j t_i for |i-j|>1"),
        RelationSchema("(t{i} q:{j},{k})^2", "e", "i+1 < j and j < k",
                       name="(t_i q_jk)^2 = 1", straight_only=True),
        RelationSchema("t1", "q1", name="t_1 = q_1"),
        RelationSchema("t2", "q1 q2 q1", name="t_2 = q_1 q_2 q_1"),
        RelationSchema("t{i}", "q{i-1} q{i} q{i-1} q{i-2}", "i > 2",
                       name="t_i = q_{i-1} q_i q_{i-1} q_{i-2} for i>2"),
    ]


def _preset_sbk_core(n: int) -> list[PresetResult]:
    straight = straight_families(n)
    mixed = straight + skew_families(n)
    out = []
    for schema in sbk_core_schemas():
        families = straight if schema.straight_only else mixed
        verdict = verify_relation_over(schema, families)
        out.append(PresetResult(schema.name, verdict.holds, verdict))
    return out


def _preset_cactus(route: str, n: int) -> list[PresetResult]:
    families = (straight_families(n) if route in ("q", "evac")
                else skew_families(n, include_straight=True))
    verdict = verify_cactus_action(route, families)
    return [PresetResult(f"cactus relations via {route}", verdict.holds, verdict)]


def _preset_evac_agreement(n: int) -> list[PresetResult]:
    families = straight_families(n)
    out = []
    for k in range(2, n + 1):
        schema = RelationSchema(f"evac{k}", f"eta:1,{k}",
                                name=f"evac_{k} = eta_1{k}")
        v = verify_relation_over(schema, families)
        out.append(PresetResult(schema.name, v.holds, v))
        schema = RelationSchema(f"evac{k}", f"q{k - 1}",
                                name=f"evac_{k} = q_{k - 1}")
        v = verify_relation_over(schema, families)
        out.append(PresetResult(schema.name, v.holds, v))
    v = _check_pointwise(families, switching.evac_switch, jdt.evacuation_jdt)
    out.append(PresetResult("evac via switching = rectify after complement",
                            v.holds, v))
    skew = skew_families(n)
    for i in range(1, n):
        word = " ".join(f"p{k}" for k in range(1, i + 1))
        for template, fams in ((f"evac{i + 1}", families),
                               (f"evacs{i + 1}", skew)):
            schema = RelationSchema(template, word,
                                    name=f"{template} = {word}")
            v = verify_relation_over(schema, fams)
            out.append(PresetResult(schema.name, v.holds, v))
    return out


def _preset_non_relations(n: int) -> list[PresetResult]:
    out = []
    searches = [
        ("(t1 t2)^6 != e", RelationSchema("(t1 t2)^6", "e"), False),
        ("(sigma1 sigma2)^3 != e", RelationSchema("(sigma1 sigma2)^3", "e"), True),
        ("skew evac_ij != q_ij", RelationSchema("evacs:{i},{j}", "q:{i},{j}",
                                                "i < j"), True),
    ]
    if n >= 4:
        searches.append(("skew (t_i q_jk)^2 != e",
                         RelationSchema("(t{i} q:{j},{k})^2", "e",
                                        "i+1 < j and j < k"), True))
    for label, schema, skew in searches:
        v = search_counterexample(schema, n, SEARCH_MAX_CELLS, skew=skew,
                                  max_part=STRAIGHT_MAX_PART)
        out.append(PresetResult(label, not v.holds, v))
    # skew evacuation need not be Knuth equivalent to the complement; the
    # families are enumerated lazily, so the scan stops at the witness
    v = _check_pointwise(
        (enumerate_tableaux(s, n) for s in skew_shapes(SEARCH_MAX_CELLS, STRAIGHT_MAX_PART)),
        lambda t: jdt.rectify(switching.evac_skew(t))[0],
        lambda t: jdt.rectify(jdt.complement(t))[0])
    out.append(PresetResult("skew evac not Knuth equivalent to complement",
                            not v.holds, v))
    return out


def run_preset(name: str, n: int) -> list[PresetResult]:
    """Run one of the bundled suites; every result must be ok for the suite
    to pass."""
    if name == "sbk-core":
        return _preset_sbk_core(n)
    if name == "cactus-q":
        return _preset_cactus("q", n)
    if name == "cactus-eta":
        return _preset_cactus("eta", n)
    if name == "evac-agreement":
        return _preset_evac_agreement(n)
    if name == "non-relations":
        return _preset_non_relations(n)
    raise WordError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
