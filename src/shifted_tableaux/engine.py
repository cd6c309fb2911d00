"""Word evaluation, relation verification and counterexample search for
the operators acting on shifted tableau families.

Words evaluate rightmost symbol first everywhere.  Relation schemata are
data: two word templates with index variables in braces plus a constraint,
instantiated over all index assignments in range.

Each generator kind is declared once, in _KINDS: its token, its indices
and their range, its operator on one tableau, and either its letter band
with the map-level core run on that band or its factors t_k.  A word on
one tableau applies the operators symbol by symbol.  Verification
evaluates words as permutations of a family: every generator keeps the
cell set, so on ShST(shape, n) it permutes the member positions.  Each
generator's table is computed whole the first time it is used and kept
on the family; a word's permutation composes the tables of its symbols,
and a relation compares the permutations of its two sides.  t_i, eta,
sigma and the evac variants run their map-level core on their letter
band alone, and their result is looked up among the family's members,
which the enumerator makes exactly the valid canonical fillings.  On a
band that is not the whole alphabet, the table is filled by string
operations: each member's key, laid out once per family as a string
over one global cell numbering (TableauFamily.layouts), splits into its
band and its rest by two str.translate calls, and the image is the
member with that rest and the moved band.  Each band is moved once per
band memo, under its band string, which names the same cells and
letters in every family; a miss runs the core through core.band_keys,
the band split the operators on one tableau share.  p, q and q_{i,j}
compose the t_i tables.  The verifications of one run_preset call share
one band memo (a search keeps one, and so does any other verification
call); the whole alphabet 1..n is the whole member, whose results are
not kept, and a preset keeps switching and eta band results for one
line only.  The cores of eta and sigma are
jdt.reversal_map itself, given the memo, so that jdt runs one standard
reversal per standardization; switching evacuation is never
standardized: it runs on semistandard bands.

On the whole alphabet, eta:1,n destandardizes nothing: the family keeps
an index of its members by standardization and weight, and a member's
image is the member whose standardization is jdt's standard reversal of
the member's and whose weight is the member's reversed.  The
evacuation-routes line of evac-agreement is one more check of each
straight family, the evac_n table (switching) against the eta:1,n table
(on a straight shape the reversal makes no slide, so it is rectification
after the complement), and reads two tables the preset's evac_n = eta_1n
line has filled.  _check and _check_pointwise (the skew
Knuth-equivalence witness of non-relations, the one check that still
compares tableaux member by member) each give one family's Verdict, its
first failing member found by _first_difference, and _first_failure
alone adds up the verdicts of the families.

A family is its members' keys, and the tables are filled on keys, so a
verification whose checks all hold builds no tableau.  A failing check
builds, through family.member, only the member its counterexample
prints, and then the two sides from it; the skew Knuth-equivalence
witness alone walks the members as tableaux.
"""

from __future__ import annotations

import ast
import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import bender_knuth, jdt, switching
from .core import (CapacityError, Cell, Entry, ShiftedSkewShape, ShiftedTableau, band_keys,
                   entry_of_key)
from .enumeration import (TableauFamily, enumerate_tableaux, layout_cell, skew_shapes,
                          straight_shapes)


class WordError(ValueError):
    """Malformed generator word or out-of-range index."""


# The band memo of a preset, a search or a verification call: (core, band
# alphabet size) -> {band string: band string of the result}, and jdt's
# (standard core, standardized items) -> standard values of the result
_Memo = dict[tuple, dict | tuple[int, ...]]


def _band_bk(local: dict[Cell, Entry], n: int, memo: _Memo) -> Mapping[Cell, Entry]:
    return bender_knuth.bk_map(local, 1)


def _band_evac(local: dict[Cell, Entry], n: int, memo: _Memo) -> Mapping[Cell, Entry]:
    return switching.evac_map(local, n)


@dataclass(frozen=True)
class _Kind:
    """A generator kind: its token, its number of indices and their valid
    range, its operator on one tableau, and either its letter band and
    the map-level core the family tables run on the band re-indexed to
    1..k, or its t_k factors in the order they act.  straight: the kind
    acts on straight shapes only."""

    token: str
    indices: int
    valid: Callable[..., bool]
    act: Callable[..., ShiftedTableau]
    band: Callable[..., tuple[int, int]] | None = None
    core: Callable[[dict, int, _Memo], Mapping] | None = None
    factors: Callable[..., tuple[int, ...]] | None = None
    straight: bool = False


# Each operator on one tableau, and the bk_map and evac_map cores, are
# looked up on their module at call time, so that a patched module
# function is the one that runs.  The core of eta and sigma is
# jdt.reversal_map itself, which band_keys hands the memo; jdt
# looks its standard core up at call time.  Kinds with the same core
# share band results.
_KINDS = {
    "t": _Kind("t", 1, lambda n, i: 1 <= i <= n - 1, lambda t, i: bender_knuth.bk(t, i),
               lambda i: (i, i + 1), _band_bk),
    "p": _Kind("p", 1, lambda n, i: 1 <= i <= n - 1,
               lambda t, i: bender_knuth.promotion(t, i),
               factors=bender_knuth.promotion_word),
    "q": _Kind("q", 1, lambda n, i: 1 <= i <= n - 1, lambda t, i: bender_knuth.q(t, i),
               factors=bender_knuth.q_word),
    "qij": _Kind("q", 2, lambda n, i, j: 1 <= i < j <= n,
                 lambda t, i, j: bender_knuth.q_interval(t, i, j),
                 factors=bender_knuth.q_interval_word),
    "evac": _Kind("evac", 1, lambda n, i: 1 <= i <= n,
                  lambda t, i: switching.evac_k_switch(t, i),
                  lambda i: (1, i), _band_evac, straight=True),
    "evacs": _Kind("evacs", 1, lambda n, i: 1 <= i <= n,
                   lambda t, i: switching.evac_k_skew(t, i), lambda i: (1, i), _band_evac),
    "evacsij": _Kind("evacs", 2, lambda n, i, j: 1 <= i < j <= n,
                     lambda t, i, j: switching.evac_interval_skew(t, i, j),
                     lambda i, j: (i, j), _band_evac),
    "eta": _Kind("eta", 2, lambda n, i, j: 1 <= i < j <= n, lambda t, i, j: jdt.eta(t, i, j),
                 lambda i, j: (i, j), jdt.reversal_map),
    "sigma": _Kind("sigma", 1, lambda n, i: 1 <= i <= n - 1, lambda t, i: jdt.sigma(t, i),
                   lambda i: (i, i + 1), jdt.reversal_map),
}


@dataclass(frozen=True)
class GeneratorSymbol:
    kind: str          # a key of _KINDS
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise WordError(f"unknown generator kind {self.kind!r}")

    @property
    def indices(self) -> tuple[int, ...]:
        return (self.i, self.j)[:_KINDS[self.kind].indices]

    def __str__(self) -> str:
        kind = _KINDS[self.kind]
        if kind.indices == 2:
            return f"{kind.token}:{self.i},{self.j}"
        return f"{kind.token}{self.i}"

    def valid_for(self, n: int) -> bool:
        return _KINDS[self.kind].valid(n, *self.indices)


_GENERATOR_NAMES = tuple(dict.fromkeys(kind.token for kind in _KINDS.values()))
_TOKEN_RE = re.compile(rf"^({'|'.join(_GENERATOR_NAMES)})(?::?(\d+)(?:,(\d+))?)?$")
# (token, number of indices) -> kind
_TOKEN_KINDS = {(kind.token, kind.indices): name for name, kind in _KINDS.items()}


def parse_symbol(token: str) -> GeneratorSymbol:
    m = _TOKEN_RE.match(token)
    if not m:
        raise WordError(f"cannot parse generator token {token!r}")
    name, i, j = m.groups()
    if i is None:
        raise WordError(f"generator {token!r} is missing an index")
    kind = _TOKEN_KINDS.get((name, 1 if j is None else 2))
    if kind is None:
        if j is not None:
            raise WordError(f"generator {token!r} does not take two indices")
        raise WordError(f"{name} takes two indices, e.g. {name}:1,3")
    return GeneratorSymbol(kind, int(i), int(j or 0))


Word = tuple[GeneratorSymbol, ...]

MAX_WORD_LENGTH = 10_000
# bound on the index assignments a schema is instantiated over
MAX_ASSIGNMENTS = 1_000_000


def _check_length(length: int) -> None:
    if length > MAX_WORD_LENGTH:
        raise WordError(f"word expands to more than {MAX_WORD_LENGTH} symbols")


def parse_word(text: str) -> Word:
    """A whitespace-separated word, with ^k powers on symbols and (...)
    groups; 'e' is the identity.  The rightmost symbol acts first."""
    tokens = _tokenize(text)
    word, rest = _parse_seq(tokens, 0)
    if rest != len(tokens):
        raise WordError(f"trailing tokens in word {text!r}")
    return tuple(word)


def _tokenize(text: str) -> list[str]:
    return re.findall(r"\(|\)|\^\d*|[^()\s^]+", text)


def _parse_seq(tokens: list[str], pos: int) -> tuple[list[GeneratorSymbol], int]:
    """Atoms (a symbol, 'e' or a parenthesized word), each followed by
    any number of powers ^k, which multiply; ^0 removes its atom."""
    word: list[GeneratorSymbol] = []
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == ")":
            break
        if tok.startswith("^"):
            raise WordError("power without a base")
        if tok == "(":
            atom, pos = _parse_seq(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise WordError("unbalanced parentheses in word")
        else:
            atom = [] if tok == "e" else [parse_symbol(tok)]
        pos += 1
        power = 1
        while pos < len(tokens) and tokens[pos].startswith("^"):
            if tokens[pos] == "^":
                raise WordError("power without an exponent")
            # capped, so that a chain of powers stays a small integer
            power = min(power * int(tokens[pos][1:]), MAX_WORD_LENGTH + 1)
            pos += 1
        _check_length(len(word) + len(atom) * power)
        word.extend(atom * power)
    return word, pos


def _kind(sym: GeneratorSymbol, n: int) -> _Kind:
    """sym's kind, once sym is checked to be in range for n."""
    if not sym.valid_for(n):
        raise WordError(f"generator {sym} out of range for n={n}")
    return _KINDS[sym.kind]


def apply_symbol(t: ShiftedTableau, sym: GeneratorSymbol) -> ShiftedTableau:
    return _kind(sym, t.n).act(t, *sym.indices)


def eval_word(word: Sequence[GeneratorSymbol], t: ShiftedTableau) -> ShiftedTableau:
    """Rightmost-first composition."""
    for sym in reversed(tuple(word)):
        t = apply_symbol(t, sym)
    return t


# ---------------------------------------------------------------------------
# words as permutations of a family

def _table(family: TableauFamily, sym: GeneratorSymbol, memo: _Memo
           ) -> tuple[int, ...]:
    """The permutation sym induces on the family, as a tuple, computed
    whole the first time it is asked for: composite symbols compose their
    t tables, band generators move every member's letter band (_images)
    and look the result up among the members.  The images are drawn up
    to the first that is not a member, so no core runs past it."""
    table = family.tables.get(sym)
    if table is not None:
        return table
    kind = _kind(sym, family.n)
    if kind.factors:
        table = _compose(family, [GeneratorSymbol("t", k)
                                  for k in kind.factors(*sym.indices)], memo)
    else:
        if kind.straight and family.keys:
            switching.require_straight(family.shape, "evac_k_switch", "evac_k_skew")
        table = tuple(itertools.takewhile(_is_member, _images(
            family, *kind.band(*sym.indices), kind.core, memo)))
        if len(table) < len(family):
            raise RuntimeError(f"{sym} took member {len(table)} of ShST({family.shape}, "
                               f"{family.n}) out of its family")
    family.tables[sym] = table
    return table


# whether an image drawn from _images is a member's position
_is_member = partial(operator.is_not, None)


def _images(family: TableauFamily, lo: int, hi: int, core: Callable, memo: _Memo
            ) -> Iterator[int | None]:
    """The position of each member's image under core(band, size, memo)
    run on its letters lo..hi, re-indexed to start at 1, drawn lazily in
    member order; None where the image is not a member.  A partial band
    is cut out of the family's layouts (_band_images).  The whole
    alphabet 1..n is the whole member, which no other family shares, so
    its results are not kept: the image under jdt.reversal_map is looked
    up by its standard result (_standard_images), any other core runs
    through band_keys."""
    if (lo, hi) != (1, family.n):
        return _band_images(family, lo, hi, core, memo)
    cells, positions = family.shape.sorted_cells, family.positions
    if core is jdt.reversal_map:
        return _standard_images(family, cells, memo)
    return (positions.get(band_keys(cells, key, lo, hi, core, memo)) for key in family.keys)


def _band_images(family: TableauFamily, lo: int, hi: int, core: Callable, memo: _Memo
                 ) -> Iterator[int | None]:
    """_images on the letters lo..hi, not the whole alphabet, by string
    translation: each layout gives its band, shifted to start at letter
    1, with chr(0) on every other position and no trailing chr(0), and
    its rest, with chr(0) on the band.  A member's image is the member
    with its rest and its band moved, found in a (rest, band) -> position
    index.  A band is moved at the first member that has it (_Moves), so
    the first failing member and its error are the ones band_keys gives
    member by member.  The index and the split layouts live as long as
    the iterator."""
    shift, top = 2 * (lo - 1), 2 * hi
    # translation tables, indexed by order key (chr(0) included)
    to_band = [k - shift if shift < k <= top else 0 for k in range(2 * family.n + 1)]
    to_rest = [0 if shift < k <= top else k for k in range(2 * family.n + 1)]
    bands = [s.translate(to_band).rstrip("\0") for s in family.layouts]
    rests = [s.translate(to_rest) for s in family.layouts]
    # the positions' own int objects, which every table of the family shares
    index = dict(zip(zip(rests, bands), family.positions.values()))
    moves = _Moves(hi - lo + 1, core, memo, bands)
    return map(index.get, zip(rests, map(moves.__getitem__, bands)))


class _Moves(dict):
    """Band string -> the band string of core(band, size, memo), or None
    where the result is on other cells, for the bands of one table.  It
    starts with the empty band, its own move, and the moves the band memo
    keeps under (core, size) for the table's bands.  Any other band is
    moved at its first lookup, through band_keys on its cells in sorted
    order, and a move on the same cells joins the memo."""

    def __init__(self, size: int, core: Callable, memo: _Memo, bands: Iterable[str]):
        results = memo.setdefault((core, size), {})
        known = results.keys() & bands
        super().__init__(zip(known, map(results.__getitem__, known)))
        self[""] = ""
        self.size, self.core, self.memo, self.results = size, core, memo, results

    def __missing__(self, band: str) -> str | None:
        slots = sorted((p for p, k in enumerate(band) if k != "\0"), key=layout_cell)
        out = band_keys(list(map(layout_cell, slots)), tuple([ord(band[p]) for p in slots]),
                        1, self.size, self.core, self.memo)
        moved = None
        if out is not None:
            chars = list(band)
            for p, k in zip(slots, out):
                chars[p] = chr(k)
            moved = self.results[band] = "".join(chars)
        self[band] = moved
        return moved


def _standard_images(family: TableauFamily, cells: tuple[Cell, ...], memo: _Memo
                     ) -> Iterator[int | None]:
    """_images of jdt.reversal_map on whole members: the image of a
    member of weight wt is the member whose standardization is jdt's
    standard reversal of the member's, and whose weight is wt reversed,
    found in the family's standard_index; nothing is destandardized.  A
    result that no member has runs band_keys on its member, as the whole
    alphabet does for other cores, so its error or its None is the one
    the member gets there."""
    index, positions = _standard_index(family, cells), family.positions
    ranks = range(1, len(cells) + 1)
    by_value = [None] * len(cells)
    for key, (values, wt) in zip(family.keys, index):
        # the member's standardization, its cells listed by value again
        for c, v in zip(cells, values):
            by_value[v - 1] = c
        std = dict(zip(by_value, ranks))
        image = jdt.standard_result(jdt._reverse_standard, std, memo)
        y = index.get((tuple(map(image.get, cells)), wt[::-1]))
        yield y if y is not None else \
            positions.get(band_keys(cells, key, 1, family.n, jdt.reversal_map, memo))


def _standard_index(family: TableauFamily, cells: tuple[Cell, ...]) -> dict[tuple, int]:
    """family.standard_index, built the first time it is asked for: each
    member's (values of jdt.standardize_map in sorted-cell order, weight)
    -> its position, in member order.  Two members with one key are an
    error: jdt's destandardization would be ambiguous there."""
    index, n = family.standard_index, family.n
    if index:
        return index
    for x, key in enumerate(family.keys):
        std = jdt.standardize_map(zip(cells, map(entry_of_key.__getitem__, key)))
        wt = [0] * n
        for k in key:
            wt[(k - 1) >> 1] += 1
        if index.setdefault((tuple(map(std.get, cells)), tuple(wt)), x) != x:
            raise RuntimeError(f"two members of ShST({family.shape}, {n}) share a "
                               "standardization and a weight")
    return index


def _compose(family: TableauFamily, syms: Iterable[GeneratorSymbol], memo: _Memo
             ) -> tuple[int, ...]:
    """The permutation of the family that applies syms in the given order:
    the first table itself, then each next table gathered through it by
    itemgetter.  On at most one member every table is the identity, and
    itemgetter with one index would return a scalar, so there the tables
    are filled but not gathered."""
    perm = None  # the identity, until the first table
    for sym in syms:
        table = _table(family, sym, memo)
        perm = table if perm is None or len(perm) < 2 else operator.itemgetter(*perm)(table)
    return tuple(range(len(family))) if perm is None else perm


def word_permutation(family: TableauFamily, word: Sequence[GeneratorSymbol]
                     ) -> tuple[int, ...]:
    """The permutation a word induces on the family: entry x is the
    position of eval_word(word, family.members[x])."""
    return _compose(family, reversed(word), {})


# ---------------------------------------------------------------------------
# relation schemata

_VAR_RE = re.compile(r"\{([^{}]*)\}")
# the constraint separator: a ':' that is not the one inside a generator
# token such as t:1, q:1,3 or evacs:{i},{j}, i.e. not a ':' that directly
# follows a generator name and directly precedes an index
_CONSTRAINT_RE = re.compile(
    "".join(rf"(?<!\b{name})" for name in _GENERATOR_NAMES) + r":|:(?![\d{])")


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
        body, constraint = (_CONSTRAINT_RE.split(text, maxsplit=1) + [""])[:2]
        lhs, eq, rhs = body.partition("=")
        if not eq:
            raise WordError(f"schema {text!r} has no '='")
        return cls(lhs.strip(), rhs.strip() or "e", constraint.strip() or "True",
                   name or text.strip(), straight_only)

    @property
    def variables(self) -> tuple[str, ...]:
        text = " ".join(_VAR_RE.findall(self.left + " " + self.right)) \
            + " " + self.constraint
        return tuple(dict.fromkeys(re.findall(r"\b([a-z])\b", text)))

    @cached_property
    def _parsed(self) -> tuple:
        """The variables, the constraint and both word templates, parsed
        once; each side is checked as a word, its brace expressions read
        as 1."""
        names = self.variables
        # |x| is shorthand for abs(x)
        constraint = _compile(re.sub(r"\|([^|]*)\|", r"abs(\1)", self.constraint),
                              names)
        left, right = _template(self.left, names), _template(self.right, names)
        for side in (self.left, self.right):
            parse_word(_VAR_RE.sub("1", side))
        return names, constraint, left, right

    def instantiations(self, n: int) -> Iterator[tuple[dict[str, int], Word, Word]]:
        """The index assignments over 1..n that satisfy the constraint and
        give valid words, with both words.  The schema is parsed and the
        assignment count checked at the call; assignments are drawn
        lazily, and a draw skips an assignment only where a brace
        expression is negative or a symbol is out of range."""
        names, constraint, left, right = self._parsed
        if n ** len(names) > MAX_ASSIGNMENTS:
            raise WordError(f"schema has {n}^{len(names)} index assignments, "
                            f"more than {MAX_ASSIGNMENTS}")

        def draw() -> Iterator[tuple[dict[str, int], Word, Word]]:
            for values in itertools.product(range(1, n + 1), repeat=len(names)):
                subs = dict(zip(names, values))
                if not constraint(subs):
                    continue
                texts = left(subs), right(subs)
                if None in texts:
                    continue
                lhs, rhs = map(parse_word, texts)
                if all(s.valid_for(n) for s in lhs + rhs):
                    yield subs, lhs, rhs
        return draw()

    def check_literals(self, n: int) -> None:
        """Raise the WordError apply gives for a symbol written without a
        brace expression that is out of range for n: no assignment brings
        it into range.  Symbols with braces are left to the draw.  A
        schema that does not parse gives its parse error first."""
        self._parsed
        for side in (self.left, self.right):
            for token in _tokenize(_VAR_RE.sub("{}", side)):
                if token not in ("(", ")", "e") and token[0] != "^" and "{" not in token:
                    _kind(parse_symbol(token), n)


# Schema expressions are integer expressions, parsed once and evaluated by
# walking their syntax tree: integer literals, the schema's variables,
# unary -, + - * %, chained comparisons, and/or/not and abs(x).
_Expr = Callable[[dict[str, int]], int]

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Mod: operator.mod, ast.USub: operator.neg, ast.Not: operator.not_,
              ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
              ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne}


def _compile(text: str, names: Sequence[str]) -> _Expr:
    """Parse a schema expression once into a function of the substitution."""
    # checked on the text, so that i * * i gets this message too
    if "**" in "".join(text.split()):
        raise WordError(f"'**' is not allowed in schema expressions: {text!r}")
    try:
        expr = _build(ast.parse(text.strip(), mode="eval").body, names, 0)
    except WordError as exc:
        raise WordError(f"{exc} in schema expression {text!r}") from None
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        raise WordError(f"cannot parse schema expression {text!r}") from None

    def evaluate(subs: dict[str, int]) -> int:
        try:
            return expr(subs)
        except ZeroDivisionError:
            raise WordError(f"modulo by zero in schema expression {text!r}") from None
    return evaluate


def _build(node: ast.expr, names: Sequence[str], depth: int) -> _Expr:
    """Vet one node of a schema expression and return its evaluator."""
    if depth > 50:
        raise WordError("nesting too deep")
    part = lambda child: _build(child, names, depth + 1)  # noqa: E731
    if isinstance(node, ast.Constant) and type(node.value) in (int, bool):
        return lambda subs: node.value
    if isinstance(node, ast.Name) and node.id in names:
        return lambda subs: subs[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        op, arg = _OPERATORS[type(node.op)], part(node.operand)
        return lambda subs: op(arg(subs))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        op, left, right = _OPERATORS[type(node.op)], part(node.left), part(node.right)
        return lambda subs: op(left(subs), right(subs))
    if isinstance(node, ast.Compare) and all(type(op) in _OPERATORS for op in node.ops):
        ops = [_OPERATORS[type(op)] for op in node.ops]
        terms = [part(term) for term in (node.left, *node.comparators)]
        return lambda subs: all(op(a, b) for op, (a, b) in zip(
            ops, itertools.pairwise(term(subs) for term in terms)))
    if isinstance(node, ast.BoolOp):
        test = any if isinstance(node.op, ast.Or) else all
        terms = [part(term) for term in node.values]
        return lambda subs: test(term(subs) for term in terms)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "abs" and len(node.args) == 1 and not node.keywords:
        arg = part(node.args[0])
        return lambda subs: abs(arg(subs))
    raise WordError(f"unsupported {ast.unparse(node)!r}")


def _template(text: str, names: Sequence[str]
              ) -> Callable[[dict[str, int]], str | None]:
    """A word template with its brace expressions parsed once: the word's
    text under a substitution, or None where a brace expression is
    negative."""
    parts: list = _VAR_RE.split(text)
    parts[1::2] = [_compile(expr, names) for expr in parts[1::2]]

    def fill(subs: dict[str, int]) -> str | None:
        out = parts[:]
        out[1::2] = [int(expr(subs)) for expr in parts[1::2]]
        if any(value < 0 for value in out[1::2]):
            return None
        return "".join(map(str, out))
    return fill


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


# (failure note, substitution, left word, right word)
_Check = tuple[str, tuple[tuple[str, int], ...], Word, Word]


def _check(family: TableauFamily, checks: Sequence[_Check], memo: _Memo,
           exhaustive: bool = False) -> Verdict:
    """Compare both sides of every check as permutations of the family.
    The first failure is the least (member, check) pair on which the
    sides differ, and the count is that of checking member by member
    and, for each member, check by check, stopping at the first failure
    unless exhaustive; its counterexample is rebuilt with eval_word on
    the member."""
    failed = None
    for c, (_, _, lhs, rhs) in enumerate(checks):
        left = _compose(family, reversed(lhs), memo)
        right = _compose(family, reversed(rhs), memo)
        if left != right:
            x = _first_difference(left, right)
            if failed is None or x < failed[0]:
                failed = x, c
    count = len(family) * len(checks)
    if failed is None:
        return Verdict(True, count)
    x, c = failed
    note, subs, lhs, rhs = checks[c]
    t = family.member(x)
    return Verdict(False, count if exhaustive else x * len(checks) + c + 1,
                   Counterexample(t, subs, eval_word(lhs, t), eval_word(rhs, t),
                                  family.shape), note)


def _first_difference(left: Iterable, right: Iterable) -> int | None:
    """The first position at which left and right differ, drawn pair by
    pair, or None where they agree."""
    return next((x for x, (y, z) in enumerate(zip(left, right)) if y != z), None)


def _first_failure(verdicts: Iterable[Verdict], exhaustive: bool = False) -> Verdict:
    """Add up the instances of verdicts drawn one by one and keep the
    counterexample and note of the first failure, which ends the draw
    unless exhaustive."""
    checked, failed = 0, None
    for verdict in verdicts:
        checked += verdict.instances_checked
        if not verdict.holds and failed is None:
            failed = verdict
            if not exhaustive:
                break
    if failed is None:
        return Verdict(True, checked)
    return Verdict(False, checked, failed.counterexample, failed.note)


def verify_relation(schema: RelationSchema, family: TableauFamily,
                    exhaustive: bool = False) -> Verdict:
    """Check every instantiation against every family member, one
    instantiation after another.  Short circuits at the first
    counterexample unless exhaustive is requested."""
    return verify_relation_over(schema, [family], exhaustive)


def verify_relation_over(schema: RelationSchema, families: Iterable[TableauFamily],
                         exhaustive: bool = False, memo: _Memo | None = None
                         ) -> Verdict:
    """verify_relation on each family in turn; exhaustive goes on through
    every family and keeps the first counterexample.  The instantiations
    for each n are drawn once, lazily, by the first family over n; a
    draw runs to its end unless the verification stops there, so the
    later families replay a complete list.  memo is the band memo, a
    fresh one unless a caller shares one across calls."""
    if memo is None:
        memo = {}
    drawn: dict[int, list[tuple[dict[str, int], Word, Word]]] = {}

    def instantiations(n: int) -> Iterator[tuple[dict[str, int], Word, Word]]:
        if n in drawn:
            yield from drawn[n]
            return
        drawn[n] = []
        for item in schema.instantiations(n):
            drawn[n].append(item)
            yield item
    return _first_failure(
        (_check(family, [("", tuple(sorted(subs.items())), lhs, rhs)], memo, exhaustive)
         for family in families for subs, lhs, rhs in instantiations(family.n)),
        exhaustive)


# ---------------------------------------------------------------------------
# cactus group actions

CACTUS_ROUTES = ("eta", "q", "evac")


def route_word(route: str, i: int, j: int) -> Word:
    """The word realizing the interval generator s_{i,j} under the given
    route."""
    if route == "eta":
        return (GeneratorSymbol("eta", i, j),)
    if route == "q":
        return (GeneratorSymbol("qij", i, j),)
    if route == "evac":
        evac_j = GeneratorSymbol("evac", j)
        return (evac_j, GeneratorSymbol("evac", j - i + 1), evac_j)
    raise WordError(f"unknown cactus route {route!r}")


def _cactus_checks(route: str, n: int) -> list[_Check]:
    """The cactus relations and the s_{1,j}-decomposition identity in the
    order they are checked: every s_ij^2 = 1, then the disjoint and nested
    relations by (i, j, k, l), then s_ij = s_1j s_1,j-i+1 s_1j."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    s = {p: route_word(route, *p) for p in pairs}
    checks = [("s_ij^2 = 1 fails", (("i", i), ("j", j)), s[i, j] + s[i, j], ())
              for (i, j) in pairs]
    for (i, j), (k, l) in itertools.product(pairs, repeat=2):
        subs = (("i", i), ("j", j), ("k", k), ("l", l))
        if j < k or l < i:
            checks.append(("disjoint commutation fails", subs,
                           s[i, j] + s[k, l], s[k, l] + s[i, j]))
        elif i <= k and l <= j:
            checks.append(("nested folding fails", subs,
                           s[i, j] + s[k, l], s[i + j - l, i + j - k] + s[i, j]))
    checks += [("s_ij = s_1j s_1,j-i+1 s_1j fails", (("i", i), ("j", j)),
                s[i, j], s[1, j] + s[1, j - i + 1] + s[1, j]) for (i, j) in pairs]
    return checks


def verify_cactus_action(route: str, families: Iterable[TableauFamily]) -> Verdict:
    """Check the cactus relations and the s_{1,j}-decomposition identity
    for the given realization over the given families."""
    if route not in CACTUS_ROUTES:
        raise WordError(f"unknown cactus route {route!r}")
    memo: _Memo = {}
    return _first_failure(_check(family, _cactus_checks(route, family.n), memo)
                          for family in families)


# ---------------------------------------------------------------------------
# counterexample search and orbits

def search_counterexample(schema: RelationSchema, n: int, max_cells: int,
                          skew: bool = False, max_part: int | None = None
                          ) -> Verdict:
    """Scan shapes by (cells, shape) order for the first family member
    violating the schema; families are enumerated only as the scan
    reaches them."""
    shapes = (skew_shapes(max_cells, max_part) if skew
              else straight_shapes(max_cells, max_part))
    v = verify_relation_over(schema, (enumerate_tableaux(s, n) for s in shapes))
    note = ("exhausted search budget without counterexample" if v.holds
            else "counterexample found")
    return Verdict(v.holds, v.instances_checked, v.counterexample, note)


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
                        raise CapacityError("orbit exceeds configured bound")
                    index[out] = len(nodes)
                    nodes.append(out)
                    nxt.append(out)
                edges.append((index[cur], str(gen), index[out]))
        frontier = nxt
    return OrbitGraph(tuple(nodes), tuple(edges))


def components_by_dual_equivalence(family: TableauFamily
                                   ) -> list[tuple[ShiftedSkewShape, tuple[ShiftedTableau, ...]]]:
    """Partition a family into dual-equivalence classes, in order of first
    member; each class is reported with its common rectification shape.
    Members are grouped by the slide record of rectify_map, as in
    jdt.dual_equivalent."""
    classes: dict[tuple, tuple[ShiftedSkewShape, list[ShiftedTableau]]] = {}
    for t in family:
        _, outer, record = jdt.rectify_map(t.entry_map, t.shape.outer, t.shape.inner, t.n)
        classes.setdefault(tuple(record), (ShiftedSkewShape(outer), []))[1].append(t)
    return [(shape, tuple(members)) for shape, members in classes.values()]

# ---------------------------------------------------------------------------
# bundled verification suites

@dataclass(frozen=True)
class PresetResult:
    label: str
    ok: bool
    verdict: Verdict


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


def _check_pointwise(family: TableauFamily,
                     left: Callable[[ShiftedTableau], ShiftedTableau],
                     right: Callable[[ShiftedTableau], ShiftedTableau]) -> Verdict:
    """Compare two tableau functions member by member up to the first
    failure, and recompute both sides for its counterexample.  Only the
    skew Knuth-equivalence witness of non-relations runs here: its sides
    are rectified, so they leave the family and no table holds them."""
    x = _first_difference(map(left, family), map(right, family))
    if x is None:
        return Verdict(True, len(family))
    t = family.member(x)
    return Verdict(False, x + 1, Counterexample(t, (), left(t), right(t), family.shape))


def _evac_route_checks(n: int) -> list[_Check]:
    """The checks of the evacuation-routes line of evac-agreement on a
    straight family over 1..n: switching evacuation evac_n against
    rectification after the complement, which on a straight shape is
    eta:1,n.  At n=1, where eta:1,1 is out of range, ShST(shape, 1) has
    at most one member, and the empty word stands in; at n=0, where every
    family is empty and evac_0 is out of range, there is no check."""
    if n == 0:
        return []
    return [("", (), (GeneratorSymbol("evac", n),),
             (GeneratorSymbol("eta", 1, n),) if n > 1 else ())]


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


def _schema_result(schema: RelationSchema, families: Iterable[TableauFamily],
                   memo: _Memo) -> PresetResult:
    """One line of a preset, verified with the preset's band memo.  Each
    family keeps its tables, so the line's switching and eta band results
    never recur in a later line and are dropped after it; t's band
    results (t_i and t_j share them) and jdt's standard results stay."""
    verdict = verify_relation_over(schema, families, memo=memo)
    for key in [key for key in memo if key[0] in (_band_evac, jdt.reversal_map)]:
        del memo[key]
    return PresetResult(schema.name, verdict.holds, verdict)


def _preset_sbk_core(n: int) -> list[PresetResult]:
    straight = straight_families(n)
    mixed = straight + skew_families(n)
    memo: _Memo = {}
    return [_schema_result(schema, straight if schema.straight_only else mixed, memo)
            for schema in sbk_core_schemas()]


def _preset_cactus(route: str, n: int) -> list[PresetResult]:
    families = (straight_families(n) if route in ("q", "evac")
                else skew_families(n, include_straight=True))
    verdict = verify_cactus_action(route, families)
    return [PresetResult(f"cactus relations via {route}", verdict.holds, verdict)]


def _preset_evac_agreement(n: int) -> list[PresetResult]:
    families = straight_families(n)
    memo: _Memo = {}
    out = []
    for k in range(2, n + 1):
        out.append(_schema_result(RelationSchema(
            f"evac{k}", f"eta:1,{k}", name=f"evac_{k} = eta_1{k}"), families, memo))
        out.append(_schema_result(RelationSchema(
            f"evac{k}", f"q{k - 1}", name=f"evac_{k} = q_{k - 1}"), families, memo))
    routes = _evac_route_checks(n)
    v = _first_failure(_check(family, routes, memo) for family in families)
    out.append(PresetResult("evac via switching = rectify after complement",
                            v.holds, v))
    skew = skew_families(n)
    for i in range(1, n):
        word = " ".join(f"p{k}" for k in range(1, i + 1))
        for template, fams in ((f"evac{i + 1}", families),
                               (f"evacs{i + 1}", skew)):
            out.append(_schema_result(RelationSchema(
                template, word, name=f"{template} = {word}"), fams, memo))
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
    v = _first_failure(_check_pointwise(
        enumerate_tableaux(s, n), lambda t: jdt.rectify(switching.evac_skew(t))[0],
        lambda t: jdt.rectify(jdt.complement(t))[0])
        for s in skew_shapes(SEARCH_MAX_CELLS, STRAIGHT_MAX_PART))
    out.append(PresetResult("skew evac not Knuth equivalent to complement",
                            not v.holds, v))
    return out


_PRESETS = {
    "sbk-core": _preset_sbk_core,
    "cactus-q": lambda n: _preset_cactus("q", n),
    "cactus-eta": lambda n: _preset_cactus("eta", n),
    "evac-agreement": _preset_evac_agreement,
    "non-relations": _preset_non_relations,
}
PRESETS = tuple(_PRESETS)


def run_preset(name: str, n: int) -> list[PresetResult]:
    """Run one of the bundled suites; every result must be ok for the suite
    to pass."""
    if name not in _PRESETS:
        raise WordError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    return _PRESETS[name](n)
