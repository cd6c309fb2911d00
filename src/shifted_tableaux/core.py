"""Shifted shapes, primed entries and shifted semistandard tableaux.

Coordinates are 1-based (row, column); row r of a shifted shape occupies
columns r .. r + outer_r - 1, with the first inner_r of them removed for
skew shapes.  All public constructors validate and enforce canonical form
(the first occurrence of each letter in the reading word is unprimed).

A tableau is its shape, its alphabet bound n and its key, the order keys
2*value - primed of its entries over the shape's cells sorted by row,
then column.  _validate_filling checks a key in one pass beside the
neighbour positions each shape computes once: coverage, the alphabet,
the row and column order, both multiplicity rules and canonical form, in
that order of priority.  from_keys builds a tableau from a cell -> order
key map, and from_map from a cell -> entry map through it; both refuse a
map on other cells than the shape's.

A family stores each member as a layout string over one global cell
numbering, layout_position: a shape's slots pair each sorted cell with
its position there, and every reader of a layout decodes it through
them.

Entries are interned: Entry(k, p) returns the one instance of its letter,
which stores its order key and its text, and entry_of_key maps an order
key back to that instance; a tableau's entries and entry_map are views
of its key through it.  Text is a lookup both ways: Entry.parse finds a
token among the interned entries' texts, and refuses a letter above
MAX_LETTERS before interning it; render_text fills a template each shape
builds once (text_template) with the texts of the key's entries; to_json
and from_json cut the rows out of the key's order by the shape's
row_slices.

The map-level operators compute on canonical cell -> order key maps, and
so do standardize_map, destandardize_map and weight_map.  band_keys is
the band split of one filling: it hands a map-level core the letters
i..j of a filling given by order keys, as the map {cell: key - 2*(i-1)}
over the alphabet 1..j-i+1, and puts the keys of the result, shifted
back, beside the other letters.  act_on_band runs the operators on one
tableau through it; the verification engine runs the cores on its bands
directly.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, total_ordering
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Cell = tuple[int, int]


class TableauError(ValueError):
    """Base class for malformed shapes, fillings or tokens."""


class InvalidTableauError(TableauError):
    """A filling violates a semistandard or canonical-form rule."""

    def __init__(self, message: str, cell: Cell | None = None, rule: str = ""):
        super().__init__(message)
        self.cell = cell
        self.rule = rule


class CapacityError(RuntimeError):
    """A search outgrew its configured bound (orbit_graph's node limit), a
    family outgrew MAX_MEMBERS, an input shape or cell budget exceeds
    MAX_CELLS, or an alphabet bound exceeds MAX_LETTERS."""


# the most cells of a shape given as input (the CLI's --outer/--inner and
# --max-cells, and from_json), far above the desk-scale shapes of at most
# 15 cells that verification runs on; the shapes of at most MAX_CELLS
# cells that search scans are still few enough to list (158,745 straight)
MAX_CELLS = 64
# the most members of one family: ShST((4,3,2,1), 12) has 1,770,912 and
# takes about 260 MB, while the largest preset family at n=8 has 50,568
MAX_MEMBERS = 1_000_000
# the most cells of a skew search (search --skew --max-cells), which lists
# every skew shape of at most that many cells, each part at most that
# many, before its first family: 70,941 shapes at 10 cells (about 2 s at
# a 57 MB peak), 767,555 at 12 (about 24 s at 480 MB)
MAX_SKEW_CELLS = 10
# the largest alphabet bound n of a tableau or a family, far above the
# n=200 and n=300 the tests use; the validator and the enumerator keep a
# list indexed by letter, so a larger n is refused before it is allocated
MAX_LETTERS = 1_000
# the most digits of an integer read from text: int() converts that many
# under every setting of the interpreter's limit, which
# sys.set_int_max_str_digits sets to 0 (none) or at least 640
MAX_DIGITS = 640


def check_cells(shape: "ShiftedSkewShape") -> None:
    """Raise CapacityError when the shape has more than MAX_CELLS cells."""
    if shape.size > MAX_CELLS:
        raise CapacityError(f"shape has {shape.size} cells, more than {MAX_CELLS}")


def parse_digits(digits: str, what: str) -> int:
    """int() of a string of ASCII decimal digits; TableauError, naming
    what, when it has more than MAX_DIGITS digits."""
    if len(digits) > MAX_DIGITS:
        raise TableauError(f"{what} has {len(digits)} digits, more than {MAX_DIGITS}")
    return int(digits)


def check_letters(n: int) -> None:
    """Raise TableauError when the alphabet bound n is negative, and
    CapacityError when it exceeds MAX_LETTERS."""
    if n < 0:
        raise TableauError("alphabet bound must be >= 0")
    if n > MAX_LETTERS:
        raise CapacityError(f"alphabet bound n={n} is more than {MAX_LETTERS}")


@total_ordering
class Entry:
    """A letter k or k' of the primed alphabet, ordered 1' < 1 < 2' < 2 < ...

    An immutable value with one interned instance per letter: Entry(k, p)
    returns the instance for (k, bool(p)), made on first use, so two
    entries are equal exactly when they are the same object.  The intern
    table grows by at most two instances per distinct letter value.  The
    hash is hash((value, primed)), order_key is 2*value - primed, and
    text is the token "k" or "k'" that str gives and parse reads back:
    parse looks a token up among the interned entries' texts first."""

    __slots__ = ("value", "primed", "order_key", "text", "_hash")

    def __new__(cls, value: int, primed: bool = False) -> "Entry":
        e = _INTERNED.get((value, primed))
        if e is None:
            if value < 1:
                raise TableauError(f"entry value must be positive, got {value}")
            primed = bool(primed)
            e = _INTERNED.get((value, primed))
            if e is None:
                e = object.__new__(cls)
                text = f"{value}'" if primed else str(value)
                for name, v in (("value", value), ("primed", primed),
                                ("order_key", 2 * value - primed), ("text", text),
                                ("_hash", hash((value, primed)))):
                    object.__setattr__(e, name, v)
                _INTERNED[value, primed] = _BY_TEXT[text] = e
        return e

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return Entry, (self.value, self.primed)

    def __repr__(self) -> str:
        return f"Entry(value={self.value!r}, primed={self.primed!r})"

    def __lt__(self, other: "Entry") -> bool:
        return self.order_key < other.order_key

    def unprime(self) -> "Entry":
        return Entry(self.value)

    def shift(self, offset: int) -> "Entry":
        return Entry(self.value + offset, self.primed)

    def __str__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, token: str) -> "Entry":
        """The entry of a cell token: the interned entry whose text is the
        token, else the token parsed in full (surrounding blanks dropped,
        a trailing ' or ′ primes, the rest the ASCII decimal digits of a
        positive integer)."""
        if not isinstance(token, str):
            raise TableauError(f"malformed cell token {token!r}")
        e = _BY_TEXT.get(token)
        if e is not None:
            return e
        tok = token.strip()
        primed = tok.endswith("'") or tok.endswith("′")
        if primed:
            tok = tok[:-1]
        if not (tok.isascii() and tok.isdecimal()) or parse_digits(tok, "cell token") < 1:
            raise TableauError(f"malformed cell token {token!r}")
        # refused before it is interned, so no refused token stays in the table
        check_letters(int(tok))
        return cls(int(tok), primed)


# the interned entries, by (value, primed) and by text
_INTERNED: dict[tuple[int, bool], Entry] = {}
_BY_TEXT: dict[str, Entry] = {}


class _EntryOfKey(dict):
    def __missing__(self, k: int) -> Entry:
        e = self[k] = Entry((k + 1) >> 1, k & 1 == 1)
        return e


# order key -> its interned entry, filled on first use: the one way from
# order keys back to entries
entry_of_key: dict[int, Entry] = _EntryOfKey()


class _Value:
    """An immutable value over the fields its class names in __slots__, in
    order (a "__dict__" there holds cached_property values and is no
    field).  Assignment and deletion raise AttributeError; two values are
    equal when they are of one class and their fields are equal; the hash
    is hash(tuple of fields) and the repr Name(field=value, ...); copy and
    pickle rebuild a value by calling its class on its fields.  Each class
    writes its own __init__, which sets the fields (with _assign, or one
    by one with object.__setattr__) and runs the class's checks."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...]
    _values: Callable[[_Value], tuple]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        get = attrgetter(*fields)
        # attrgetter gives a bare value for one name, a tuple for more
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def _assign(self, *values: object) -> None:
        """Set the fields, in order, to values."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def _check_strict(parts: tuple[int, ...], what: str,
                  positive: str = "must have positive parts") -> None:
    """Reject parts that are not strictly decreasing and positive; the
    messages start with the label `what`."""
    for a, b in zip(parts, parts[1:]):
        if a <= b:
            raise TableauError(f"{what} not strictly decreasing: {parts}")
    if parts and parts[-1] < 1:
        raise TableauError(f"{what} {positive}: {parts}")


class StrictPartition(_Value):
    """A strictly decreasing sequence of positive integers."""

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        self._assign(tuple(parts))
        _check_strict(self.parts, "parts", "must be positive")

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def complement(self, width: int) -> "StrictPartition":
        """Complement inside the staircase (width, width-1, ..., 1)."""
        if self.parts and self.parts[0] > width:
            raise TableauError(f"{self.parts} does not fit in staircase of width {width}")
        missing = [k for k in range(width, 0, -1) if k not in set(self.parts)]
        return StrictPartition(tuple(missing))


def canonical_pair(outer: Iterable[int], inner: Iterable[int]
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (outer, inner) pair from_cells gives for the cells of
    outer/inner: trailing empty rows are dropped, and each empty row
    between occupied ones gets outer_r == inner_r == outer_{r+1} + 1."""
    out, inn = list(outer), list(inner)
    inn += [0] * (len(out) - len(inn))
    while out and out[-1] == inn[len(out) - 1]:
        out.pop()
    del inn[len(out):]
    for r in range(len(out) - 2, -1, -1):
        if out[r] == inn[r]:
            out[r] = inn[r] = out[r + 1] + 1
    return tuple(out), tuple(p for p in inn if p)


def pair_of_cells(cells: Iterable[Cell]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Read the canonical (outer, inner) pair off a cell set.

    Rows must be contiguous and every cell must satisfy c >= r.  Empty
    rows between occupied ones get outer_r == inner_r, chosen minimal.
    The pair is not checked to describe the cells; from_cells does that.
    """
    rows: dict[int, list[int]] = {}
    for (r, c) in cells:
        if c < r or r < 1:
            raise TableauError(f"cell {(r, c)} outside the shifted staircase")
        rows.setdefault(r, []).append(c)
    last = max(rows, default=0)
    # an empty row reads as outer_r == inner_r == 0 until canonical_pair
    outer = [0] * last
    inner = [0] * last
    for r in range(last, 0, -1):
        if r in rows:
            cols = sorted(rows[r])
            if cols != list(range(cols[0], cols[-1] + 1)):
                raise TableauError(f"row {r} is not contiguous: {cols}")
            outer[r - 1] = cols[-1] - r + 1
            inner[r - 1] = cols[0] - r
    return canonical_pair(outer, inner)


class ShiftedSkewShape(_Value):
    """A skew shifted shape outer/inner (inner possibly empty)."""

    __slots__ = ("outer", "inner", "__dict__")
    outer: tuple[int, ...]
    inner: tuple[int, ...]

    def __init__(self, outer: Iterable[int] = (), inner: Iterable[int] = ()):
        outer, inner = tuple(outer), list(inner)
        while inner and inner[-1] == 0:  # trailing empty inner rows
            inner.pop()
        self._assign(outer, tuple(inner))
        _check_strict(self.outer, "outer shape")
        _check_strict(self.inner, "inner shape")
        if len(self.inner) > len(self.outer):
            raise TableauError(f"inner {self.inner} not contained in outer {self.outer}")
        for r, p in enumerate(self.inner):
            if p > self.outer[r]:
                raise TableauError(f"inner {self.inner} not contained in outer {self.outer}")

    @cached_property
    def cells(self) -> frozenset[Cell]:
        return frozenset(self.sorted_cells)

    @cached_property
    def sorted_cells(self) -> tuple[Cell, ...]:
        """The cells sorted by row, then column."""
        out = []
        for r, length in enumerate(self.outer, start=1):
            start = r + (self.inner[r - 1] if r - 1 < len(self.inner) else 0)
            out.extend((r, c) for c in range(start, r + length))
        return tuple(out)

    @cached_property
    def neighbours(self) -> tuple[tuple[int, int, int], ...]:
        """For each cell in sorted order, the sorted positions of its east,
        south and west neighbours: -2 off the east or south edge, -1 off
        the west edge (the sentinels _validate_filling appends)."""
        inner = self.inner + (0,) * (len(self.outer) - len(self.inner))
        rows, at = [], 0  # per row: first column, end column, first position
        for r, (p, q) in enumerate(zip(self.outer, inner), start=1):
            rows.append((r + q, r + p, at))
            at += p - q
        rows.append((0, 0, at))
        out = []
        for (a, b, o), (below_a, below_b, below_o) in zip(rows, rows[1:]):
            for c in range(a, b):
                i = o + c - a
                out.append((i + 1 if c + 1 < b else -2,
                            below_o + c - below_a if below_a <= c < below_b else -2,
                            i - 1 if c > a else -1))
        return tuple(out)

    @cached_property
    def slots(self) -> tuple[tuple[Cell, int], ...]:
        """For each cell in sorted order, the cell and its layout_position:
        where a family's layout string holds the cell's order key."""
        return tuple([(cell, layout_position(cell)) for cell in self.sorted_cells])

    @cached_property
    def row_slices(self) -> tuple[slice, ...]:
        """For each row, the slice of sorted_cells that holds its cells."""
        inner = self.inner + (0,) * (len(self.outer) - len(self.inner))
        out, at = [], 0
        for p, q in zip(self.outer, inner):
            out.append(slice(at, at + p - q))
            at += p - q
        return tuple(out)

    @cached_property
    def text_template(self) -> str:
        """render_text's layout as a %-template: each row's inner cells as
        dots and one %s per cell, space-separated, rows joined by
        newlines."""
        inner = self.inner + (0,) * (len(self.outer) - len(self.inner))
        return "\n".join(" ".join(["."] * q + ["%s"] * (p - q))
                         for p, q in zip(self.outer, inner))

    def canonical(self) -> "ShiftedSkewShape":
        """The shape of the same cells under canonical_pair's (outer,
        inner) pair, which from_cells gives; self when it has that pair."""
        pair = canonical_pair(self.outer, self.inner)
        return self if pair == (self.outer, self.inner) else ShiftedSkewShape(*pair)

    @property
    def straight(self) -> bool:
        return not self.inner

    @property
    def size(self) -> int:
        """The number of cells, read off the parts, so no cell is built."""
        return sum(self.outer) - sum(self.inner)

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "ShiftedSkewShape":
        """Reconstruct the canonical (outer, inner) pair from a cell set;
        see pair_of_cells."""
        cellset = set(cells)
        shape = cls(*pair_of_cells(cellset))
        if shape.cells != frozenset(cellset):
            raise TableauError(f"cells {sorted(cellset)} do not form a shifted skew shape")
        return shape

    def __str__(self) -> str:
        if not self.outer:
            return "()"
        if self.inner:
            return f"{'/'.join([str(list(self.outer)), str(list(self.inner))])}"
        return str(list(self.outer))


def layout_position(cell: Cell) -> int:
    """The position of cell (r, c) in the global cell numbering of layout
    strings: column by column, each from the top, c(c-1)/2 + r - 1.
    Column c holds c cells, so the numbering needs no bound on the
    shapes."""
    r, c = cell
    return c * (c - 1) // 2 + r - 1


def layout_cell(p: int) -> Cell:
    """The cell at position p of the global cell numbering."""
    c = (1 + math.isqrt(8 * p + 1)) // 2
    return p - c * (c - 1) // 2 + 1, c


def reading_cells(shape: ShiftedSkewShape) -> list[Cell]:
    """Cells in reading order: bottom row to top row, each left to right."""
    return sorted(shape.cells, key=lambda rc: (-rc[0], rc[1]))


def _validate_filling(shape: ShiftedSkewShape, key: tuple[int, ...], n: int) -> None:
    """Check a filling, given by its order keys k = 2*value - primed over
    the shape's sorted cells, against every rule in one pass beside the
    shape's neighbours.

    The order rules compare a cell's key with the keys of its east and
    south neighbours.  Where they hold, a repeat is adjacent: two k' in a
    row make an odd key equal to its east neighbour's, two k in a column
    an even key equal to its south neighbour's.  A letter's first cell in
    the reading word is the leftmost in its lowest row: the last cell in
    sorted order whose west neighbour holds a smaller letter.

    The error raised is the first of: a key whose length is not the
    shape's number of cells (coverage); the first nonpositive key; the
    first cell in sorted order whose entry exceeds n, or whose east or
    south neighbour is smaller, checked in that order; the least repeated
    cell; the primed first occurrence earliest in the reading word."""
    cells = shape.sorted_cells
    if len(key) != len(cells):
        raise InvalidTableauError(
            f"filling of {len(key)} keys does not cover the {len(cells)} cells of {shape}",
            rule="coverage")
    if min(key, default=1) < 1:
        i = next(i for i, k in enumerate(key) if k < 1)
        raise InvalidTableauError(f"order key {key[i]} at {cells[i]} is not positive",
                                  cell=cells[i], rule="alphabet")
    top = 2 * n
    keys = [*key, top + 1, 0]  # keys[-2] off the east or south edge, keys[-1] off the west
    repeat = len(cells)   # the least repeated position seen so far
    first = [-1] * (n + 1)  # each letter's first reading position, -1 if unused
    for i, (east, south, west) in enumerate(shape.neighbours):
        k = keys[i]
        if k > top or keys[east] < k or keys[south] < k:
            _order_fault(cells, keys, i, east, south, n)
        twin = east if k & 1 else south
        if keys[twin] == k and twin < repeat:
            repeat = twin
        v = (k + 1) >> 1
        if keys[west] < 2 * v - 1:
            first[v] = i
    if repeat < len(cells):
        (r, c), e = cells[repeat], entry_of_key[keys[repeat]]
        if e.primed:
            raise InvalidTableauError(
                f"two {e.value}' in row {r}", cell=(r, c), rule="primed-row-multiplicity")
        raise InvalidTableauError(
            f"two {e.value} in column {c}", cell=(r, c), rule="column-multiplicity")
    primed_first = [i for i in first if i >= 0 and keys[i] & 1]
    if primed_first:
        # the earliest in the reading word: bottom row first, then leftmost
        i = min(primed_first, key=lambda i: (-cells[i][0], cells[i][1]))
        raise InvalidTableauError(
            f"first occurrence of letter {(keys[i] + 1) >> 1} in reading word is primed",
            rule="canonical-form")


def _order_fault(cells: tuple[Cell, ...], keys: list[int], i: int, east: int, south: int,
                 n: int) -> None:
    """Raise the first fault of the cell at sorted position i, whose
    neighbours east and south are given by position: its entry exceeds
    n, or its east or south neighbour holds a smaller one."""
    cell, e = cells[i], entry_of_key[keys[i]]
    if e.value > n:
        raise InvalidTableauError(
            f"entry {e} at {cell} exceeds alphabet bound n={n}", cell=cell, rule="alphabet")
    for nbr, what in ((east, "row"), (south, "column")):
        if nbr >= 0 and keys[nbr] < keys[i]:
            raise InvalidTableauError(
                f"{what} not weakly increasing at {cell}: {e} > {entry_of_key[keys[nbr]]}",
                cell=cells[nbr], rule=f"{what}-order")


class ShiftedTableau(_Value):
    """A shifted semistandard tableau in canonical form: its shape, its
    key (the order keys 2*value - primed of its entries over the shape's
    sorted cells) and its alphabet bound n.  entries and entry_map are
    views of the key, built on first use.

    Equality and hashing use the key, n and the cell set; the (outer,
    inner) representation is excluded so that tableaux built from
    equivalent shape descriptions compare equal.
    """

    __slots__ = ("shape", "key", "n", "__dict__")
    shape: ShiftedSkewShape
    key: tuple[int, ...]
    n: int

    def __init__(self, shape: ShiftedSkewShape, key: tuple[int, ...] = (), n: int = 0):
        # set one by one, not by _assign's loop: this runs once per
        # tableau the library builds
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "n", n)
        check_letters(n)
        _validate_filling(shape, key, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShiftedTableau):
            return NotImplemented
        return (self.key, self.n, self.shape.cells) == (other.key, other.n, other.shape.cells)

    def __hash__(self) -> int:
        return hash((self.key, self.n, self.shape.cells))

    @cached_property
    def entries(self) -> tuple[tuple[Cell, Entry], ...]:
        """The (cell, entry) pairs in sorted cell order."""
        return tuple(zip(self.shape.sorted_cells, map(entry_of_key.__getitem__, self.key)))

    @cached_property
    def entry_map(self) -> dict[Cell, Entry]:
        return dict(zip(self.shape.sorted_cells, map(entry_of_key.__getitem__, self.key)))

    @property
    def key_map(self) -> dict[Cell, int]:
        """The cell -> order key map the map-level operators take, built
        at each use."""
        return dict(zip(self.shape.sorted_cells, self.key))

    @property
    def cells(self) -> frozenset[Cell]:
        return self.shape.cells

    @property
    def size(self) -> int:
        return len(self.key)

    def __str__(self) -> str:
        return render_text(self)

    def __repr__(self) -> str:
        body = render_text(self).replace("\n", " / ")
        return f"ShiftedTableau({body!r}, n={self.n})"

    @classmethod
    def from_map(cls, entries: Mapping[Cell, Entry], n: int,
                 shape: ShiftedSkewShape | None = None) -> "ShiftedTableau":
        """The tableau of a cell -> entry map: from_keys on the entries'
        order keys."""
        return cls.from_keys({c: e.order_key for c, e in entries.items()}, n, shape)

    @classmethod
    def from_keys(cls, keys: Mapping[Cell, int], n: int,
                  shape: ShiftedSkewShape | None = None) -> "ShiftedTableau":
        """The tableau of a cell -> order key map, on the shape of its
        cells unless a shape is given; a map on other cells than the
        shape's is a coverage error."""
        if shape is None:
            shape = ShiftedSkewShape.from_cells(keys.keys())
        elif keys.keys() != shape.cells:
            extra = sorted(keys.keys() - shape.cells)
            missing = sorted(shape.cells - keys.keys())
            raise InvalidTableauError(
                f"filling does not cover shape exactly (extra={extra}, missing={missing})",
                cell=(extra or missing)[0], rule="coverage")
        return cls(shape, tuple([keys[c] for c in shape.sorted_cells]), n)


def reading_word(t: ShiftedTableau) -> tuple[Entry, ...]:
    """The reading word: rows left to right, bottom row first."""
    return tuple(t.entry_map[c] for c in reading_cells(t.shape))


def _weight(keys: Iterable[int], n: int) -> tuple[int, ...]:
    counts = [0] * n
    for k in keys:
        counts[(k - 1) >> 1] += 1
    return tuple(counts)


def weight_map(entries: Mapping[Cell, int], n: int) -> tuple[int, ...]:
    """Occurrences of each unprimed value in a cell -> order key map, as a
    vector of length n."""
    return _weight(entries.values(), n)


def weight(t: ShiftedTableau) -> tuple[int, ...]:
    """Occurrences of each unprimed value, as a vector of length n."""
    return _weight(t.key, t.n)


def canonical_map(entries: Mapping[Cell, Entry]) -> dict[Cell, Entry]:
    """Unprime the first reading-word occurrence of each letter; all other
    entries are unchanged."""
    out = dict(entries)
    seen: set[int] = set()
    for cell in sorted(out, key=lambda rc: (-rc[0], rc[1])):
        e = out[cell]
        if e.value not in seen:
            seen.add(e.value)
            if e.primed:
                out[cell] = e.unprime()
    return out


def canonicalize(shape: ShiftedSkewShape, entries: Mapping[Cell, Entry],
                 n: int) -> ShiftedTableau:
    """Return the canonical representative of a semistandard filling."""
    return ShiftedTableau.from_map(canonical_map(entries), n, shape)


# ---------------------------------------------------------------------------
# standardization
#
# The operators slide and evacuate plain cell -> order key maps and build
# one tableau per result; the public functions wrap the map-level ones.

def standardize_map(entries: Iterable[tuple[Cell, int]]) -> dict[Cell, int]:
    """Replace the order keys of (cell, key) pairs by 1..N: for each
    letter, primed cells top to bottom, then unprimed cells left to
    right.  A letter's primed key 2k-1 sorts before its unprimed key 2k."""
    order = sorted(entries, key=lambda ck: (
        (ck[1], ck[0][0], ck[0][1]) if ck[1] & 1 else (ck[1], ck[0][1], ck[0][0])))
    return {cell: i for i, (cell, _) in enumerate(order, start=1)}


def standardize(t: ShiftedTableau) -> ShiftedTableau:
    """Replace entries by 1..N: for each letter, primed cells top to bottom,
    then unprimed cells left to right."""
    std = standardize_map(zip(t.shape.sorted_cells, t.key))
    return ShiftedTableau.from_keys({cell: 2 * i for cell, i in std.items()}, len(std), t.shape)


def _letter_splits(group: list[Cell]) -> list[int]:
    """The lengths s for which group[:s] can be the primed cells of one
    letter and group[s:] its unprimed cells: the primed cells in strictly
    increasing rows, the unprimed ones in strictly increasing columns, no
    primed cell right of an unprimed one in its row or below one in its
    column, and the first reading occurrence (bottom row, then leftmost)
    unprimed.  One pass finds the range of s the first three rules allow;
    the clashes between the two sides are sought only when some split in
    it primes a cell."""
    # s <= most: group[:s] goes strictly down; s >= least: group[s:]
    # goes strictly right; s <= first: the first reading occurrence
    # group[first] is unprimed
    w = len(group)
    most, least, first = w, 0, 0
    r0, c0 = fr, fc = group[0]
    for x in range(1, w):
        r, c = group[x]
        if r <= r0 and most == w:
            most = x
        if c <= c0:
            least = x
        if r > fr or (r == fr and c < fc):
            first, fr, fc = x, r, c
        r0, c0 = r, c
    top = min(most, first)
    if least > top:
        return []
    if top == 0:
        return [0]
    # for s in least..top the primed cells have distinct rows and the
    # unprimed ones distinct columns, so each cell meets at most one
    # cell of the other side in its row or column; a clash of group[a]
    # with group[b], a < b, rules out the splits a < s <= b
    row_of_primed = {group[a][0]: a for a in range(top)}
    col_of_unprimed = {group[b][1]: b for b in range(least, w)}
    clashes = []
    for b in range(least, w):
        a = row_of_primed.get(group[b][0])
        if a is not None and a < b and group[a][1] > group[b][1]:
            clashes.append((a, b))
    for a in range(top):
        b = col_of_unprimed.get(group[a][1])
        if b is not None and a < b and group[a][0] > group[b][0]:
            clashes.append((a, b))
    return [s for s in range(least, top + 1) if not any(a < s <= b for a, b in clashes)]


def destandardize_map(std: Mapping[Cell, int], wt: tuple[int, ...]) -> dict[Cell, int]:
    """Inverse of standardize_map for a given weight vector, as a cell ->
    order key map.

    For each letter, the cells holding its standard values split into a
    primed prefix and unprimed suffix; the split is forced by semistandard
    validity plus canonical form.
    """
    if sum(wt) != len(std):
        raise TableauError(f"weight {wt} does not sum to {len(std)} cells")
    by_value = {v: c for c, v in std.items()}
    entries: dict[Cell, int] = {}
    offset = 0
    for k, w in enumerate(wt, start=1):
        group = [by_value[v] for v in range(offset + 1, offset + w + 1)]
        offset += w
        if not group:
            continue
        splits = _letter_splits(group)
        if len(splits) > 1:
            raise InvalidTableauError(
                f"ambiguous destandardization for letter {k}", rule="destandardize")
        if not splits:
            raise InvalidTableauError(
                f"no valid destandardization for letter {k}", rule="destandardize")
        s, primed, unprimed = splits[0], 2 * k - 1, 2 * k
        for x, c in enumerate(group):
            entries[c] = primed if x < s else unprimed
    return entries


def destandardize(std: ShiftedTableau, wt: tuple[int, ...]) -> ShiftedTableau:
    """Inverse of standardize for a given weight vector."""
    values = {c: (k + 1) >> 1 for c, k in zip(std.shape.sorted_cells, std.key)}
    return ShiftedTableau.from_keys(destandardize_map(values, wt), len(wt), std.shape)


# ---------------------------------------------------------------------------
# letter bands

# A map-level operator takes a canonical cell -> order key map over the
# alphabet 1..n, and n, to a canonical map on the same cells.
MapOperator = Callable[[Mapping[Cell, int], int], Mapping[Cell, int]]


def band_keys(cells: Sequence[Cell], key: tuple[int, ...], i: int, j: int,
              core: Callable[..., Mapping[Cell, int]], *args) -> tuple[int, ...] | None:
    """The band split of one filling: the map-level
    core(band, j-i+1, *args) on the letters i..j of the filling with order
    key key[s] in cells[s], the band re-indexed to the alphabet 1..j-i+1
    (each key less 2*(i-1)), and the keys of its result, shifted back,
    put beside the other letters.  key itself when no letter lies in the
    band, None when the result is on other cells."""
    shift, top = 2 * (i - 1), 2 * j
    slots = [s for s, k in enumerate(key) if shift < k <= top]
    if not slots:
        return key
    local = {cells[s]: key[s] - shift for s in slots}
    result = core(local, j - i + 1, *args)
    if result.keys() != local.keys():
        return None
    out = list(key)
    for s, k in zip(slots, map(result.__getitem__, local)):
        out[s] = k + shift
    return tuple(out)


def act_on_band(t: ShiftedTableau, i: int, j: int, op: MapOperator) -> ShiftedTableau:
    """Apply a map-level operator to the letters i..j of t, re-indexed to
    the alphabet 1..j-i+1, and put the result back beside the other
    letters, through band_keys; t itself when no letter lies in the band."""
    out = band_keys(t.shape.sorted_cells, t.key, i, j, op)
    if out is None:
        raise RuntimeError(f"operator on the letters {i}..{j} changed their cells")
    if out is t.key:
        return t
    # the result keeps t's cells, under their canonical pair
    return ShiftedTableau(t.shape.canonical(), out, t.n)


# ---------------------------------------------------------------------------
# text and JSON formats

def parse_tableau(text: str, n: int | None = None) -> ShiftedTableau:
    """Parse the row-based textual form ('.' marks inner cells; rows separated
    by newlines or '/').  A shape of more than MAX_CELLS cells raises
    CapacityError, as from_json does."""
    text = text.strip()
    if not text:
        return ShiftedTableau(ShiftedSkewShape(), (), n or 0)
    lines = [ln.strip() for ln in text.replace("/", "\n").splitlines() if ln.strip()]
    outer, inner = [], []
    entries: dict[Cell, Entry] = {}
    for r, line in enumerate(lines, start=1):
        tokens = line.split()
        dots = 0
        while dots < len(tokens) and tokens[dots] == ".":
            dots += 1
        if "." in tokens[dots:]:
            raise TableauError(f"row {r}: inner dots must be a prefix: {line!r}")
        outer.append(len(tokens))
        inner.append(dots)
        for idx, tok in enumerate(tokens[dots:]):
            entries[(r, r + dots + idx)] = Entry.parse(tok)
    shape = ShiftedSkewShape(tuple(outer), tuple(inner))
    check_cells(shape)
    if n is None:
        n = max((e.value for e in entries.values()), default=0)
    return ShiftedTableau.from_map(entries, n, shape)


def render_text(t: ShiftedTableau) -> str:
    """The row-based text form: the shape's text_template filled with the
    texts of the key's entries, in sorted-cell order."""
    return t.shape.text_template % tuple([entry_of_key[k].text for k in t.key])


def to_json(t: ShiftedTableau) -> str:
    texts = [entry_of_key[k].text for k in t.key]
    doc = {"outer": list(t.shape.outer), "inner": list(t.shape.inner),
           "rows": [texts[s] for s in t.shape.row_slices], "n": t.n}
    return json.dumps(doc)


def _json_int(literal: str) -> int:
    """A JSON integer literal, its digits read by parse_digits."""
    value = parse_digits(literal.lstrip("-"), "JSON integer")
    return -value if literal.startswith("-") else value


def from_json(text: str) -> ShiftedTableau:
    """The tableau of to_json's form: an object with the integer lists
    outer and inner (optional), rows of cell tokens, and n.  A malformed
    document raises TableauError, a shape of more than MAX_CELLS cells
    CapacityError."""
    doc = json.loads(text, parse_int=_json_int)
    if not isinstance(doc, dict):
        raise TableauError("a JSON tableau must be an object")
    missing = [k for k in ("outer", "rows", "n") if k not in doc]
    if missing:
        raise TableauError(f"JSON tableau lacks {', '.join(missing)}")
    parts = {"outer": doc["outer"], "inner": doc.get("inner", [])}
    for name, value in parts.items():
        if not isinstance(value, list) or not all(type(p) is int for p in value):
            raise TableauError(f"JSON tableau {name} is not a list of integers: {value!r}")
    rows = doc["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TableauError(f"JSON tableau rows are not lists of cell tokens: {rows!r}")
    n = doc["n"]
    if type(n) is not int:
        raise TableauError(f"JSON tableau n is not an integer: {n!r}")
    shape = ShiftedSkewShape(tuple(parts["outer"]), tuple(parts["inner"]))
    check_cells(shape)
    if len(rows) > len(shape.row_slices):
        raise TableauError(f"JSON tableau row {len(shape.row_slices) + 1} is past its "
                           "shape's last row")
    entries: dict[Cell, Entry] = {}
    for r, (row, part) in enumerate(zip(rows, shape.row_slices), start=1):
        cells = shape.sorted_cells[part]
        if len(row) != len(cells):
            raise TableauError(f"JSON tableau row {r} has {len(row)} tokens for "
                               f"{len(cells)} cells")
        for cell, tok in zip(cells, row):
            entries[cell] = Entry.parse(tok)
    return ShiftedTableau.from_map(entries, n, shape)
