"""Exhaustive generation of canonical shifted semistandard tableaux.

Generation backtracks over the cells in reading order (bottom row first,
each row left to right) on the integer order keys 2*value - primed, so a
cell's key is bounded below by its west neighbour and above by its south
neighbour, both already placed.  The multiplicity rules are tracked as the
search goes, and canonical form is a prefix rule: a primed key is offered
only for a letter that already occurs in the prefix.  Keys are tried in
increasing order, so the family comes out in reading-word lexicographic
order, which keeps golden outputs byte-stable.

A family is its members' order keys: the search builds no tableau, and
membership by key rests on it alone.  Every member that leaves the
library as a tableau is validated: member(x) builds it with the
tableau constructor, on the family's own key tuple, and members holds
them all once asked for.  count_tableaux runs the same search and
keeps no key.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator

from .core import (MAX_MEMBERS, CapacityError, Cell, ShiftedSkewShape, ShiftedTableau,
                   check_letters, reading_cells)


@dataclass(frozen=True)
class TableauFamily:
    """The complete family ShST(shape, n), deterministically ordered, as
    its members' keys: keys[x] is the tuple of member x's order keys
    2*value - primed over the shape's sorted cells.  member(x) builds and
    validates member x as a tableau, and is how the library builds one;
    members builds them all, the first time it is asked for, and
    iteration walks them, for callers that want every member at once.

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

    shape: ShiftedSkewShape
    n: int
    keys: tuple[tuple[int, ...], ...]
    tables: dict[Any, tuple[int, ...]] = field(default_factory=dict, init=False,
                                               repr=False, compare=False)

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

    @cached_property
    def members(self) -> tuple[ShiftedTableau, ...]:
        """Every member, built by member."""
        return tuple(map(self.member, range(len(self.keys))))

    def __iter__(self) -> Iterator[ShiftedTableau]:
        return iter(self.members)

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
    cells = reading_cells(shape)
    at = {cell: i for i, cell in enumerate(cells)}
    # member keys list the sorted cells, by the reading position of each
    reading = [at[cell] for cell in shape.sorted_cells]
    # per cell: row, column, and the positions of its west and south
    # neighbours in reading order (-1 when outside the shape)
    plan = [(r, c, at.get((r, c - 1), -1), at.get((r + 1, c), -1))
            for r, c in cells]
    keys = [0] * len(cells)
    seen = [0] * (n + 1)                       # occurrences of each letter so far
    primed_rows: set[tuple[int, int]] = set()  # (row, value) with a primed entry
    used_cols: set[tuple[int, int]] = set()    # (col, value) with an unprimed entry
    count = 0                                  # members found so far

    def place(i: int) -> None:
        nonlocal count
        if i == len(cells):
            if count == MAX_MEMBERS:
                raise CapacityError(f"ShST({shape}, {n}) has more than {MAX_MEMBERS:,} members")
            count += 1
            if found is not None:
                found.append(tuple(map(keys.__getitem__, reading)))
            return
        r, c, west, south = plan[i]
        low = keys[west] if west >= 0 else 1
        high = keys[south] if south >= 0 else 2 * n
        for k in range(low, high + 1):
            v = (k + 1) >> 1
            if k & 1:
                if not seen[v] or (r, v) in primed_rows:
                    continue
                primed_rows.add((r, v))
            else:
                if (c, v) in used_cols:
                    continue
                used_cols.add((c, v))
            seen[v] += 1
            keys[i] = k
            place(i + 1)
            seen[v] -= 1
            if k & 1:
                primed_rows.discard((r, v))
            else:
                used_cols.discard((c, v))

    place(0)
    return count


def straight_shapes(max_cells: int, max_part: int | None = None
                    ) -> list[ShiftedSkewShape]:
    """All straight shifted shapes with at most max_cells cells, ordered by
    (cells, parts)."""
    cap = max_part or max_cells
    shapes: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, bound: int) -> None:
        shapes.append(prefix)
        for p in range(min(remaining, bound), 0, -1):
            extend(prefix + (p,), remaining - p, p - 1)

    extend((), max_cells, cap)
    shapes.sort(key=lambda s: (sum(s), s))
    return [ShiftedSkewShape(s) for s in shapes if s]


def skew_shapes(max_cells: int, max_part: int | None = None,
                include_straight: bool = False) -> list[ShiftedSkewShape]:
    """Skew shapes outer/inner with 1..max_cells cells, outer_1 <= max_part,
    deduplicated by cell set and ordered by (cells, outer, inner)."""
    cap = max_part or max_cells
    outers: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], bound: int) -> None:
        if prefix:
            outers.append(prefix)
        for p in range(bound, 0, -1):
            extend(prefix + (p,), p - 1)

    extend((), cap)
    seen: set[frozenset[Cell]] = set()
    out: list[ShiftedSkewShape] = []
    for outer in outers:
        for inner in _subpartitions(outer):
            if not include_straight and not inner:
                continue
            shape = ShiftedSkewShape(outer, inner)
            if not 0 < shape.size <= max_cells:
                continue
            if shape.cells in seen:
                continue
            seen.add(shape.cells)
            out.append(shape)
    out.sort(key=lambda s: (s.size, s.outer, s.inner))
    return out


def _subpartitions(outer: tuple[int, ...]) -> list[tuple[int, ...]]:
    result: list[tuple[int, ...]] = [()]

    def extend(prefix: tuple[int, ...], row: int) -> None:
        if row == len(outer):
            return
        hi = min(outer[row], prefix[-1] - 1 if prefix else outer[0])
        for p in range(hi, 0, -1):
            result.append(prefix + (p,))
            extend(prefix + (p,), row + 1)

    extend((), 0)
    return sorted(set(result))
