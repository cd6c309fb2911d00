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
letters in every family.  Every core runs on a cell -> order key map:
a band the memo misses is handed over as its cells and keys, a whole
member as its key over the shape's cells (_whole_image), and no fill
builds an Entry.  p, q and q_{i,j} compose the t_i tables.  Every
walk (below) keeps one band memo, which all its lines share, and so
does each word_permutation call; the whole alphabet 1..n is the whole
member, whose results are not kept.  The cores of eta and sigma are
jdt.reversal_map itself, given the memo, so that jdt runs one standard
reversal per standardization; switching evacuation is never
standardized: it runs on semistandard bands.  Its core, _band_evac,
shares suffixes through the same memo: it expels a band's lowest letter
low once (switching.expel), and the rest of the run is the evacuation
of the remaining bands over the letters above low, which are a band
string under (_band_evac, n-low) once shifted down to letter 1.  The
evac_k and evacs_k tables of smaller k keep those strings, so a walk
expels each band's lowest letter and looks the rest up; a rest the memo
lacks is moved, and joins it.  The whole member keeps no entry of its
own, as for the other cores.

On the whole alphabet, eta:1,n destandardizes nothing: its fill indexes
the members by standardization and weight, and a member's image is the
member whose standardization is jdt's standard reversal of the member's
and whose weight is the member's reversed; the index is dropped with the
fill.  The evacuation-routes line of evac-agreement is the schema
evac_n = eta:1,n once more (on a straight shape the reversal is
rectification after the complement), and reads two tables the
evac_n = eta_1n line has filled.
The skew Knuth-equivalence witness of non-relations (_knuth_witness)
compares rectifications computed on keys (_rectifications), whose slide
records components_by_dual_equivalence groups by.  _check and
_knuth_witness each give one family's Verdict, its first failing member
found by _first_difference.

Every verification, search and preset is one _walk: its lines each take
the straight shapes, the skew ones or all, and give their verdicts on
one family; the walk is the one loop over families, and adds up each
line's verdicts apart.  The presets hand it their shape lists
(_straight_shapes, _skew_shapes), and no list of families is built.

A family is its members' keys, and every check reads tables filled on
keys, so a verification whose checks all hold builds no tableau.  A
failing check builds, through family.member, only the member its
counterexample prints, and then the two sides from it.  A family holds
its keys, its tables and the two views every fill reads (positions and
layouts), no more.  A walk enumerates a family only when an open line
takes its shape, and every open line checks it before the next is
drawn, so a family lives for its turn in the walk, and its tables and
views with it; the walk's band memo lives as long as the walk.
"""

from __future__ import annotations

import ast
import itertools
import operator
import re
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import bender_knuth, jdt, switching
from .core import CapacityError, Cell, ShiftedSkewShape, ShiftedTableau, _Value, _weight
from .enumeration import (TableauFamily, enumerate_tableaux, layout_cell, layout_position,
                          skew_shapes, straight_shapes)


class WordError(ValueError):
    """Malformed generator word or out-of-range index."""


# The band memo of a preset, a search or a verification call: (core, band
# alphabet size) -> {band string: band string of the result}, and jdt's
# (standard core, standardized items) -> standard values of the result
_Memo = dict[tuple, dict | tuple[int, ...]]


def _band_bk(local: dict[Cell, int], n: int, memo: _Memo) -> Mapping[Cell, int]:
    return bender_knuth.bk_map(local, (1,))


def _band_evac(local: dict[Cell, int], n: int, memo: _Memo) -> Mapping[Cell, int]:
    """Switching evacuation of a band over the alphabet 1..n by its shared
    suffix: switching.expel moves its lowest letter low out, and the rest
    of the run is the evacuation over n-low letters of the remaining
    bands, shifted down to letter 1 (keys less 2*low).  That rest is
    looked up in the band memo under its band string, as _Moves keys it,
    and a miss moves it (_move), so it joins the memo.  The rest's labels
    n-k+1 are the same before and after the shift, so its moved keys are
    written back as they are.  A rest of one letter is expelled at once.
    Bands over one or two letters, and the empty band, run
    switching.evac_map itself."""
    if n <= 2 or not local:
        return switching.evac_map(local, n)
    bands = dict(sorted(switching._bands(local.items()).items()))
    low = next(iter(bands))
    out: dict[Cell, int] = {}
    switching.expel(bands, n, out)
    if len(bands) == 1:  # one letter left has no band to move through
        switching.expel(bands, n, out)
    if not bands:
        return out
    rest = switching._merge(bands)
    # its band string: each key less 2*low at its cell's layout_position
    positions = list(map(layout_position, rest))
    chars = ["\0"] * (max(positions) + 1)
    for p, key in zip(positions, rest.values()):
        chars[p] = chr(key - 2 * low)
    band = "".join(chars)
    moved = memo.setdefault((_band_evac, n - low), {}).get(band) \
        or _move(band, n - low, _band_evac, memo)
    if moved is not None:
        out.update(zip(rest, map(ord, map(moved.__getitem__, positions))))
    return out


class _Kind(_Value):
    """A generator kind: its token, its number of indices and their valid
    range, its operator on one tableau, and either its letter band and
    the map-level core the family tables run on the band re-indexed to
    1..k, or its t_k factors in the order they act.  skew: for a kind
    that acts on straight shapes only, the kind to use on skew shapes."""

    __slots__ = ("token", "indices", "valid", "act", "band", "core", "factors", "skew")
    token: str
    indices: int
    valid: Callable[..., bool]
    act: Callable[..., ShiftedTableau]
    band: Callable[..., tuple[int, int]] | None
    core: Callable[[dict, int, _Memo], Mapping] | None
    factors: Callable[..., tuple[int, ...]] | None
    skew: str | None

    def __init__(self, token: str, indices: int, valid: Callable[..., bool],
                 act: Callable[..., ShiftedTableau],
                 band: Callable[..., tuple[int, int]] | None = None,
                 core: Callable[[dict, int, _Memo], Mapping] | None = None,
                 factors: Callable[..., tuple[int, ...]] | None = None,
                 skew: str | None = None):
        self._assign(token, indices, valid, act, band, core, factors, skew)


# Each operator on one tableau, and the bk_map, expel and evac_map cores,
# are looked up on their module at call time, so that a patched module
# function is the one that runs.  bk_map is the one t_k kernel: the t
# core runs it on the word (1,), the operators t, p, q and q:i,j run it
# on their words, and the p and q tables compose t tables.  The core of
# eta and sigma is jdt.reversal_map itself, which the fills hand the
# memo; jdt looks its standard core up at call time.  Kinds with the
# same core share band results.
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
                  lambda i: (1, i), _band_evac, skew="evacs"),
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


class GeneratorSymbol(_Value):
    __slots__ = ("kind", "i", "j")
    kind: str          # a key of _KINDS
    i: int
    j: int

    def __init__(self, kind: str, i: int = 0, j: int = 0):
        self._assign(kind, i, j)
        if kind not in _KINDS:
            raise WordError(f"unknown generator kind {kind!r}")

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
_TOKEN_RE = re.compile(rf"^({'|'.join(_GENERATOR_NAMES)})(?::?([0-9]+)(?:,([0-9]+))?)?$")
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
    return re.findall(r"\(|\)|\^[0-9]*|[^()\s^]+", text)


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


def _require_straight(sym: GeneratorSymbol, kind: _Kind, shape: ShiftedSkewShape) -> None:
    """switching.require_straight for a sym that acts on straight shapes
    only, naming sym and the symbol to use instead."""
    if kind.skew:
        switching.require_straight(shape, str(sym), str(GeneratorSymbol(kind.skew, *sym.indices)))


def apply_symbol(t: ShiftedTableau, sym: GeneratorSymbol) -> ShiftedTableau:
    kind = _kind(sym, t.n)
    _require_straight(sym, kind, t.shape)
    return kind.act(t, *sym.indices)


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
    and look the result up among the members (_positions)."""
    table = family.tables.get(sym)
    if table is not None:
        return table
    kind = _kind(sym, family.n)
    if kind.factors:
        table = _compose(family, [GeneratorSymbol("t", k)
                                  for k in kind.factors(*sym.indices)], memo)
    else:
        if family.keys:
            _require_straight(sym, kind, family.shape)
        table = _positions(family, sym, *kind.band(*sym.indices), kind.core, memo)
    family.tables[sym] = table
    return table


def _positions(family: TableauFamily, name: object, lo: int, hi: int, core: Callable,
               memo: _Memo) -> tuple[int, ...]:
    """_images drawn up to the first that is not a member, so no core runs
    past it; a RuntimeError naming the generator there."""
    images = _images(family, lo, hi, core, memo)
    table = tuple(itertools.takewhile(partial(operator.is_not, None), images))
    if len(table) < len(family):
        raise RuntimeError(f"{name} took member {len(table)} of ShST({family.shape}, "
                           f"{family.n}) out of its family")
    return table


def _images(family: TableauFamily, lo: int, hi: int, core: Callable, memo: _Memo
            ) -> Iterator[int | None]:
    """The position of each member's image under core(band, size, memo)
    run on its letters lo..hi, re-indexed to start at 1, drawn lazily in
    member order; None where the image is not a member.  A partial band
    is cut out of the family's layouts (_band_images).  The whole
    alphabet 1..n is the whole member, which no other family shares, so
    its results are not kept: the image under jdt.reversal_map is looked
    up by its standard result (_standard_images), any other core runs on
    the member's cell -> order key map (_whole_image)."""
    if (lo, hi) != (1, family.n):
        return _band_images(family, lo, hi, core, memo)
    cells, positions = family.shape.sorted_cells, family.positions
    if core is jdt.reversal_map:
        return _standard_images(family, cells, memo)
    return (positions.get(_whole_image(cells, key, core, family.n, memo))
            for key in family.keys)


def _whole_image(cells: tuple[Cell, ...], key: tuple[int, ...], core: Callable, n: int,
                 memo: _Memo) -> tuple[int, ...] | None:
    """The key of core(member, n, memo) on the whole member with this key
    over cells, or None where the result is on other cells."""
    local = dict(zip(cells, key))
    out = core(local, n, memo)
    if out.keys() != local.keys():
        return None
    return tuple([out[c] for c in cells])


def _band_images(family: TableauFamily, lo: int, hi: int, core: Callable, memo: _Memo
                 ) -> Iterator[int | None]:
    """_images on the letters lo..hi, not the whole alphabet, by string
    translation: each layout gives its band, shifted to start at letter
    1, with chr(0) on every other position and no trailing chr(0), and
    its rest, with chr(0) on the band.  A member's image is the member
    with its rest and its band moved, found in a (rest, band) -> position
    index.  A band is moved at the first member that has it (_Moves), so
    the first failing member and its error are the ones core.band_keys
    gives member by member.  The index and the split layouts live as
    long as the iterator."""
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
    moved at its first lookup, by the core on its cell -> order key map in
    sorted cell order, and a move on the same cells joins the memo."""

    def __init__(self, size: int, core: Callable, memo: _Memo, bands: Iterable[str]):
        results = memo.setdefault((core, size), {})
        known = results.keys() & bands
        super().__init__(zip(known, map(results.__getitem__, known)))
        self[""] = ""
        self.size, self.core, self.memo = size, core, memo

    def __missing__(self, band: str) -> str | None:
        moved = self[band] = _move(band, self.size, self.core, self.memo)
        return moved


def _move(band: str, size: int, core: Callable, memo: _Memo) -> str | None:
    """The band string of core(band, size, memo), run on the band's cell ->
    order key map in sorted cell order, or None where the result is on
    other cells; a move on the same cells joins the memo under (core,
    size)."""
    # the band's (cell, position) pairs in sorted cell order
    slots = sorted([(layout_cell(p), p) for p, k in enumerate(band) if k != "\0"])
    local = {cell: ord(band[p]) for cell, p in slots}
    out = core(local, size, memo)
    if out.keys() != local.keys():
        return None
    chars = list(band)
    for cell, p in slots:
        chars[p] = chr(out[cell])
    moved = memo[core, size][band] = "".join(chars)
    return moved


def _standard_images(family: TableauFamily, cells: tuple[Cell, ...], memo: _Memo
                     ) -> Iterator[int | None]:
    """_images of jdt.reversal_map on whole members: the image of a
    member of weight wt is the member whose standardization is jdt's
    standard reversal of the member's, and whose weight is wt reversed;
    nothing is destandardized.  The members are first indexed by
    (values of jdt.standardize_map in sorted-cell order, weight), each
    to its position's own int, in member order; two members with one
    index key are an error, as jdt's destandardization would be
    ambiguous there.  The index lives as long as the iterator.  A result
    that no member has runs jdt.reversal_map on its member (_whole_image),
    as the whole alphabet does for other cores, so its error or its None
    is the one the member gets there."""
    n, positions = family.n, family.positions
    index: dict[tuple, int] = {}
    for key, x in positions.items():
        std = jdt.standardize_map(zip(cells, key))
        if index.setdefault((tuple([std[c] for c in cells]), _weight(key, n)), x) != x:
            raise RuntimeError(f"two members of ShST({family.shape}, {n}) share a "
                               "standardization and a weight")
    ranks = range(1, len(cells) + 1)
    by_value = [None] * len(cells)
    for key, (values, wt) in zip(family.keys, index):
        # the member's standardization, its cells listed by value again
        for c, v in zip(cells, values):
            by_value[v - 1] = c
        std = dict(zip(by_value, ranks))
        image = jdt.standard_result(jdt._reverse_standard, std, memo)
        y = index.get((tuple([image[c] for c in cells]), wt[::-1]))
        yield y if y is not None else \
            positions.get(_whole_image(cells, key, jdt.reversal_map, n, memo))


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
    position of eval_word(word, family.member(x))."""
    return _compose(family, reversed(word), {})


# ---------------------------------------------------------------------------
# relation schemata

_VAR_RE = re.compile(r"\{([^{}]*)\}")
# the constraint separator: a ':' that is not the one inside a generator
# token such as t:1, q:1,3 or evacs:{i},{j}, i.e. not a ':' that directly
# follows a generator name and directly precedes an index
_CONSTRAINT_RE = re.compile(
    "".join(rf"(?<!\b{name})" for name in _GENERATOR_NAMES) + r":|:(?![0-9{])")


class RelationSchema(_Value):
    """left = right over all index instantiations satisfying constraint."""

    __slots__ = ("left", "right", "constraint", "name", "straight_only", "__dict__")
    left: str
    right: str
    constraint: str
    name: str
    straight_only: bool

    def __init__(self, left: str, right: str = "e", constraint: str = "True", name: str = "",
                 straight_only: bool = False):
        self._assign(left, right, constraint, name, straight_only)

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


class Counterexample(_Value):
    __slots__ = ("tableau", "substitution", "left_result", "right_result", "shape")
    tableau: ShiftedTableau
    substitution: tuple[tuple[str, int], ...]
    left_result: ShiftedTableau
    right_result: ShiftedTableau
    shape: ShiftedSkewShape | None

    def __init__(self, tableau: ShiftedTableau, substitution: tuple[tuple[str, int], ...],
                 left_result: ShiftedTableau, right_result: ShiftedTableau,
                 shape: ShiftedSkewShape | None = None):
        self._assign(tableau, substitution, left_result, right_result, shape)


class Verdict(_Value):
    __slots__ = ("holds", "instances_checked", "counterexample", "note")
    holds: bool
    instances_checked: int
    counterexample: Counterexample | None
    note: str

    def __init__(self, holds: bool, instances_checked: int,
                 counterexample: Counterexample | None = None, note: str = ""):
        self._assign(holds, instances_checked, counterexample, note)


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


# A line of a walk: the shapes it takes (the straight ones if True, the
# skew ones if False, all if None), and its verdicts on one family under
# the walk's band memo, drawn one by one
_Line = tuple[bool | None, Callable[[TableauFamily, _Memo], Iterable[Verdict]]]


def _walk(lines: Sequence[_Line],
          families: Iterable[tuple[ShiftedSkewShape, Callable[[], TableauFamily]]],
          exhaustive: bool = False) -> list[Verdict]:
    """Each line's verdict over the families, given in order as their
    shapes with the functions that enumerate them: the one loop over
    families.  A family is enumerated only when an open line takes its
    shape, and every open line that takes it checks it, in line order,
    before the next is drawn, so a family lives for its turn.  Each line
    adds up its own instances and keeps its own first failure, which
    closes the line unless exhaustive; the walk ends once every line is
    closed.  All lines share one band memo."""
    memo: _Memo = {}
    counts, failures = [0] * len(lines), [None] * len(lines)
    open_lines = list(range(len(lines)))
    for shape, enumerate_family in families:
        taking = [k for k in open_lines if lines[k][0] in (None, shape.straight)]
        family = enumerate_family() if taking else None
        for k in taking:
            for verdict in lines[k][1](family, memo):
                counts[k] += verdict.instances_checked
                if not verdict.holds and failures[k] is None:
                    failures[k] = verdict
                    if not exhaustive:
                        open_lines.remove(k)
                        break
        if not open_lines:
            break
    return [Verdict(True, count) if failed is None
            else Verdict(False, count, failed.counterexample, failed.note)
            for count, failed in zip(counts, failures)]


def _given(families: Iterable[TableauFamily]
           ) -> Iterator[tuple[ShiftedSkewShape, Callable[[], TableauFamily]]]:
    """Families a caller enumerated, in _walk's form, drawn as it asks."""
    return ((family.shape, lambda family=family: family) for family in families)


def _enumerated(shapes: Iterable[ShiftedSkewShape], n: int
                ) -> list[tuple[ShiftedSkewShape, Callable[[], TableauFamily]]]:
    """The shapes in _walk's form, each family over n enumerated when the
    walk reaches it."""
    return [(shape, partial(enumerate_tableaux, shape, n)) for shape in shapes]


def _schema_line(schema: RelationSchema, exhaustive: bool = False,
                 straight: bool | None = None) -> _Line:
    """The line that checks the schema on every family it takes, one
    instantiation after another.  The instantiations for each n are drawn
    once, lazily, by the first family over n; a draw runs to its end
    unless the line closes there, so the later families replay a
    complete list."""
    drawn: dict[int, list[tuple[dict[str, int], Word, Word]]] = {}

    def instantiations(n: int) -> Iterator[tuple[dict[str, int], Word, Word]]:
        if n in drawn:
            yield from drawn[n]
            return
        drawn[n] = []
        for item in schema.instantiations(n):
            drawn[n].append(item)
            yield item

    def verdicts(family: TableauFamily, memo: _Memo) -> Iterator[Verdict]:
        return (_check(family, [("", tuple(sorted(subs.items())), lhs, rhs)], memo, exhaustive)
                for subs, lhs, rhs in instantiations(family.n))
    return straight, verdicts


def verify_relation(schema: RelationSchema, family: TableauFamily,
                    exhaustive: bool = False) -> Verdict:
    """Check every instantiation against every family member, one
    instantiation after another.  Short circuits at the first
    counterexample unless exhaustive is requested."""
    return verify_relation_over(schema, [family], exhaustive)


def verify_relation_over(schema: RelationSchema, families: Iterable[TableauFamily],
                         exhaustive: bool = False) -> Verdict:
    """verify_relation on each family in turn, each drawn from families
    only when the walk reaches it; exhaustive goes on through every
    family and keeps the first counterexample."""
    return _walk([_schema_line(schema, exhaustive)], _given(families), exhaustive)[0]


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
    line = None, lambda family, memo: [_check(family, _cactus_checks(route, family.n), memo)]
    return _walk([line], _given(families))[0]


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
    return _searched(_walk([_schema_line(schema)], _enumerated(shapes, n))[0])


def _searched(v: Verdict) -> Verdict:
    """A search's verdict, with the note that says how the search ended."""
    note = ("exhausted search budget without counterexample" if v.holds
            else "counterexample found")
    return Verdict(v.holds, v.instances_checked, v.counterexample, note)


class OrbitGraph(_Value):
    __slots__ = ("nodes", "edges")
    nodes: tuple[ShiftedTableau, ...]
    edges: tuple[tuple[int, str, int], ...]

    def __init__(self, nodes: tuple[ShiftedTableau, ...], edges: tuple[tuple[int, str, int], ...]):
        self._assign(nodes, edges)

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
    Positions are grouped by the slide records of _rectifications, as in
    jdt.dual_equivalent, and only then built as members."""
    classes: dict[tuple, tuple[tuple[int, ...], list[int]]] = {}
    for x, (_, outer, record) in enumerate(_rectifications(family)):
        classes.setdefault(tuple(record), (outer, []))[1].append(x)
    return [(ShiftedSkewShape(outer), tuple(map(family.member, xs)))
            for outer, xs in classes.values()]


def _rectifications(family: TableauFamily) -> list[tuple]:
    """jdt.rectify_map of each member's key, in member order: its straight
    map, outer partition and (corner, exit) slides; no tableau is built."""
    shape = family.shape
    return [jdt.rectify_map(dict(zip(shape.sorted_cells, key)), shape.outer, shape.inner,
                            family.n) for key in family.keys]

# ---------------------------------------------------------------------------
# bundled verification suites

class PresetResult(_Value):
    __slots__ = ("label", "ok", "verdict")
    label: str
    ok: bool
    verdict: Verdict

    def __init__(self, label: str, ok: bool, verdict: Verdict):
        self._assign(label, ok, verdict)


STRAIGHT_MAX_PART = 4
SKEW_MAX_CELLS = 5
SEARCH_MAX_CELLS = 9


def _straight_shapes() -> list[ShiftedSkewShape]:
    """The straight preset shapes: parts at most STRAIGHT_MAX_PART."""
    return straight_shapes(STRAIGHT_MAX_PART * (STRAIGHT_MAX_PART + 1) // 2, STRAIGHT_MAX_PART)


def _skew_shapes(max_cells: int = SKEW_MAX_CELLS, include_straight: bool = False
                 ) -> list[ShiftedSkewShape]:
    """The skew preset shapes: outer parts at most STRAIGHT_MAX_PART."""
    return skew_shapes(max_cells, STRAIGHT_MAX_PART, include_straight)


def _knuth_witness(family: TableauFamily, memo: _Memo) -> Verdict:
    """Whether each member's switching evacuation is Knuth equivalent to
    its complement, or to its reversal: the rectifications of the members
    the whole-alphabet evac_map and jdt.reversal_map take it to agree.
    The counterexample rectifies evac_skew and complement of its member."""
    n, rects = family.n, [rect for rect, _, _ in _rectifications(family)]
    evac = _positions(family, f"evacs{n}", 1, n, _band_evac, memo)
    rev = _positions(family, f"eta:1,{n}", 1, n, jdt.reversal_map, memo)
    x = _first_difference(map(rects.__getitem__, evac), map(rects.__getitem__, rev))
    if x is None:
        return Verdict(True, len(family))
    t = family.member(x)
    return Verdict(False, x + 1, Counterexample(t, (), jdt.rectify(switching.evac_skew(t))[0],
                                                jdt.rectify(jdt.complement(t))[0], family.shape))


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


def _schema_preset(lines: Sequence[tuple[RelationSchema, bool | None]],
                   shapes: Iterable[ShiftedSkewShape], n: int) -> list[PresetResult]:
    """One result per schema, each checked on the shapes it takes as
    _walk's lines do, all in one walk over the shapes."""
    verdicts = _walk([_schema_line(schema, straight=straight) for schema, straight in lines],
                     _enumerated(shapes, n))
    return [PresetResult(schema.name, v.holds, v) for (schema, _), v in zip(lines, verdicts)]


def _preset_sbk_core(n: int) -> list[PresetResult]:
    return _schema_preset([(schema, schema.straight_only or None)
                           for schema in sbk_core_schemas()],
                          _straight_shapes() + _skew_shapes(), n)


def _preset_cactus(route: str, n: int) -> list[PresetResult]:
    """The walk draws each family from the generator when it reaches it,
    so a family is enumerated when its turn comes and dropped after it."""
    shapes = (_straight_shapes() if route in ("q", "evac")
              else _skew_shapes(include_straight=True))
    verdict = verify_cactus_action(route, (enumerate_tableaux(s, n) for s in shapes))
    return [PresetResult(f"cactus relations via {route}", verdict.holds, verdict)]


def _preset_evac_agreement(n: int) -> list[PresetResult]:
    """The evac lines take the straight shapes, the evacs lines the skew
    ones."""
    lines = []
    for k in range(2, n + 1):
        lines += [(RelationSchema(f"evac{k}", f"eta:1,{k}", name=f"evac_{k} = eta_1{k}"), True),
                  (RelationSchema(f"evac{k}", f"q{k - 1}", name=f"evac_{k} = q_{k - 1}"), True)]
    # eta:1,n is rectification after the complement on a straight shape;
    # at n=1 a family has one member at most, at n=0 evac0 checks nothing
    lines.append((RelationSchema(f"evac{n}", f"eta:1,{n}" if n > 1 else "e",
                                 name="evac via switching = rectify after complement"),
                  True))
    for i in range(1, n):
        word = " ".join(f"p{k}" for k in range(1, i + 1))
        for template, straight in ((f"evac{i + 1}", True), (f"evacs{i + 1}", False)):
            lines.append((RelationSchema(template, word, name=f"{template} = {word}"), straight))
    return _schema_preset(lines, _straight_shapes() + _skew_shapes(), n)


def _preset_non_relations(n: int) -> list[PresetResult]:
    """Searches and the skew Knuth-equivalence witness in one walk over the
    skew search shapes with the straight ones, which come in
    straight_shapes' order: the straight search takes those, the rest
    take the skew shapes."""
    searches = [
        ("(t1 t2)^6 != e", RelationSchema("(t1 t2)^6", "e"), True),
        ("(sigma1 sigma2)^3 != e", RelationSchema("(sigma1 sigma2)^3", "e"), False),
        ("skew evac_ij != q_ij", RelationSchema("evacs:{i},{j}", "q:{i},{j}", "i < j"), False),
    ]
    if n >= 4:
        searches.append(("skew (t_i q_jk)^2 != e",
                         RelationSchema("(t{i} q:{j},{k})^2", "e", "i+1 < j and j < k"), False))
    # skew evacuation need not be Knuth equivalent to the complement
    knuth = False, lambda family, memo: [_knuth_witness(family, memo)]
    *found, witness = _walk(
        [_schema_line(schema, straight=straight) for _, schema, straight in searches] + [knuth],
        _enumerated(_skew_shapes(SEARCH_MAX_CELLS, include_straight=True), n))
    out = [PresetResult(label, not v.holds, _searched(v))
           for (label, _, _), v in zip(searches, found)]
    return out + [PresetResult("skew evac not Knuth equivalent to complement",
                               not witness.holds, witness)]


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
