"""Exhaustive generation of canonical shifted semistandard tableaux.

Generation backtracks over the cells in reading order (bottom row first,
each row left to right) on the integer order keys 2*value - primed, laid
out as the validator's and read off the shape's neighbour table: a cell's
key is bounded by its west and south neighbours', both already placed.
As a repeat is then adjacent, a k' equal to its west neighbour or a k
equal to its south neighbour breaks a multiplicity rule, and canonical
form is a prefix rule: a primed key is offered only for a letter that
already occurs in the prefix.  Keys are tried in increasing order, so
the family comes out in reading-word lexicographic order, which keeps
golden outputs byte-stable.

A family is its members' order keys: the search builds no tableau, and
membership by key rests on it alone.  Every member that leaves the
library as a tableau is validated: member(x) builds it with the
tableau constructor, on the family's own key tuple, and iteration
builds one member at a time the same way.  count_tableaux runs the same
search and keeps no key.

The shape lists take every strict partition from one generator,
_strict_partitions: straight_shapes its shapes, and skew_shapes its
outers and, under each outer, its inners.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Any, Iterator, Sequence

from .core import (MAX_MEMBERS, CapacityError, Cell, ShiftedSkewShape, ShiftedTableau,
                   _Value, canonical_pair, check_letters)


class TableauFamily(_Value):
    """The complete family ShST(shape, n), deterministically ordered, as
    its members' keys: keys[x] is the tuple of member x's order keys
    2*value - primed over the shape's sorted cells.  member(x) builds and
    validates member x as a tableau, and is how the library builds one;
    iteration builds the members in order by member and keeps none.

    Every generator keeps the cell set, so on a family it is a permutation
    of the member positions; tables maps a generator to that permutation
    as a tuple of positions, computed whole by the engine the first time
    the generator is used, and composed with other tables by itemgetter
    gathers.  positions and layouts are the two views every table fill
    reads: layouts holds each member's key as a string over the global
    cell numbering, encoded the first time a table on a partial letter
    band needs it; the engine cuts each band out of it by str.translate.
    The tables and both views live and die with the family; any other
    index a fill needs is its own, dropped with it."""

    # tables lives in __dict__, beside the two views: no field, so it is
    # neither compared nor shown
    __slots__ = ("shape", "n", "keys", "__dict__")
    shape: ShiftedSkewShape
    n: int
    keys: tuple[tuple[int, ...], ...]
    tables: dict[Any, tuple[int, ...]]

    def __init__(self, shape: ShiftedSkewShape, n: int, keys: tuple[tuple[int, ...], ...]):
        self._assign(shape, n, keys)
        object.__setattr__(self, "tables", {})

    @cached_property
    def positions(self) -> dict[tuple[int, ...], int]:
        """Member key -> position: a map on the family's cells is a member
        exactly when its key is here."""
        return {k: x for x, k in enumerate(self.keys)}

    @cached_property
    def layouts(self) -> tuple[str, ...]:
        """Each member's key as a string over the global cell numbering
        (layout_position): order key k as chr(k) at its cell's position,
        and chr(0) at every other position up to one past the last cell.
        So one band string names the same cells and letters in every
        family."""
        cells = self.shape.sorted_cells
        # the sorted-cell index each position takes its letter from, and
        # len(cells), the 0 appended to each key, where no cell is; the
        # position past the last cell gives itemgetter two indices at least
        source = [len(cells)] * (max(map(layout_position, cells), default=0) + 2)
        for s, cell in enumerate(cells):
            source[layout_position(cell)] = s
        take = operator.itemgetter(*source)
        return tuple(["".join(map(chr, take(key + (0,)))) for key in self.keys])

    def member(self, x: int) -> ShiftedTableau:
        """Member x, built and validated as a tableau on its key."""
        return ShiftedTableau(self.shape, self.keys[x], self.n)

    def __iter__(self) -> Iterator[ShiftedTableau]:
        return map(self.member, range(len(self.keys)))

    def __len__(self) -> int:
        return len(self.keys)


def layout_position(cell: Cell) -> int:
    """The position of cell (r, c) in the global cell numbering of the
    layouts: column by column, each from the top, c(c-1)/2 + r - 1.
    Column c holds c cells, so the numbering needs no bound on the
    shapes."""
    r, c = cell
    return c * (c - 1) // 2 + r - 1


def layout_cell(p: int) -> Cell:
    """The cell at position p of the global cell numbering."""
    c = (1 + math.isqrt(8 * p + 1)) // 2
    return p - c * (c - 1) // 2 + 1, c


def enumerate_tableaux(shape: ShiftedSkewShape, n: int) -> TableauFamily:
    """All members of ShST(shape, n) in reading-word lexicographic order;
    CapacityError, before the member past MAX_MEMBERS is kept."""
    found: list[tuple[int, ...]] = []
    _search(shape, n, found)
    return TableauFamily(shape, n, tuple(found))


def count_tableaux(shape: ShiftedSkewShape, n: int) -> int:
    """The number of members of ShST(shape, n), by enumerate_tableaux's
    search keeping no key.  The search stops past MAX_MEMBERS as there,
    which here bounds its time."""
    return _search(shape, n, None)


def _search(shape: ShiftedSkewShape, n: int, found: list[tuple[int, ...]] | None) -> int:
    """Backtrack over the members of ShST(shape, n) in reading-word
    lexicographic order, append each one's key to found unless found is
    None, and return their number; CapacityError when a member comes
    past MAX_MEMBERS; check_letters' error at once when n is negative or
    exceeds MAX_LETTERS."""
    check_letters(n)
    m = shape.size
    nbrs = shape.neighbours
    # the sorted positions in reading order, each with the positions of
    # its south and west neighbours, both placed before it
    plan = [(i, nbrs[i][1], nbrs[i][2])
            for s in reversed(shape.row_slices) for i in range(s.start, s.stop)]
    top = 2 * n
    keys = [0] * m + [top + 1, 0]  # keys[-2] off the south edge, keys[-1] off the west
    seen = [0] * (n + 1)           # occurrences of each letter so far
    count = 0                      # members found so far

    def place(d: int) -> None:
        nonlocal count
        if d == m:
            if count == MAX_MEMBERS:
                raise CapacityError(f"ShST({shape}, {n}) has more than {MAX_MEMBERS:,} members")
            count += 1
            if found is not None:
                found.append(tuple(keys[:m]))
            return
        i, south, west = plan[d]
        low, high = keys[west], keys[south]
        for k in range(low or 1, min(high, top) + 1):
            v = (k + 1) >> 1
            if k & 1:
                if k == low or not seen[v]:
                    continue
            elif k == high:
                continue
            seen[v] += 1
            keys[i] = k
            place(d + 1)
            seen[v] -= 1

    place(0)
    return count


def straight_shapes(max_cells: int, max_part: int | None = None
                    ) -> list[ShiftedSkewShape]:
    """All straight shifted shapes with at most max_cells cells, parts at
    most max_part, ordered by (cells, parts)."""
    cap = max_part or max_cells
    shapes = _strict_partitions(range(cap, 0, -1), max_cells)
    shapes.sort()
    shapes.sort(key=sum)  # stable, so by (cells, parts)
    return [ShiftedSkewShape(s) for s in shapes if s]


def skew_shapes(max_cells: int, max_part: int | None = None,
                include_straight: bool = False) -> list[ShiftedSkewShape]:
    """Skew shapes outer/inner with 1..max_cells cells, outer_1 <= max_part,
    deduplicated by cell set and ordered by (cells, outer, inner).  The
    outers come in _strict_partitions' order and each one's inners in
    increasing order, and the first pair of each cell set is kept."""
    cap = max_part or max_cells
    # canonical_pair names a cell set
    kept: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for outer in _strict_partitions(range(cap, 0, -1), cap * (cap + 1) // 2):
        for inner in sorted(_strict_partitions(outer, sum(outer))):
            if (inner or include_straight) and 0 < sum(outer) - sum(inner) <= max_cells:
                kept.setdefault(canonical_pair(outer, inner), (outer, inner))
    pairs = sorted(kept.values(), key=lambda p: (sum(p[0]) - sum(p[1]), p))
    return [ShiftedSkewShape(outer, inner) for outer, inner in pairs]


def _strict_partitions(bounds: Sequence[int], budget: int) -> list[tuple[int, ...]]:
    """The strict partitions p with p[r] <= bounds[r] in each row r and
    sum(p) <= budget, in preorder: the empty one first, each partition
    before its extensions, and each next part tried from the largest
    down."""
    bounds = (*bounds, 0)  # no part past the last bound
    found: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], r: int, remaining: int, below: int) -> None:
        found.append(prefix)
        for p in range(min(remaining, below, bounds[r]), 0, -1):
            extend(prefix + (p,), r + 1, remaining - p, p - 1)

    extend((), 0, budget, budget)
    return found
