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

A family is its members' layout strings, which the search writes as it
places each key: chr(order key) at each cell's position in the global
cell numbering (core.layout_position, read off the shape's slots), and
chr(0) at every other position up to one past the last cell.  The
search builds no tableau, and membership by layout rests on it alone.
Every member that leaves the library as a tableau is validated:
member(x) decodes its layout through the shape's slots and builds it
with the tableau constructor, and iteration builds one member at a time
the same way.  count_tableaux runs the same search and keeps no
layout.

The shape lists take every strict partition from one generator,
_strict_partitions: straight_shapes its shapes, and skew_shapes its
outers and, under each outer, its inners.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterator, Sequence

from .core import (MAX_MEMBERS, CapacityError, ShiftedSkewShape, ShiftedTableau, _Value,
                   canonical_pair, check_letters)


class TableauFamily(_Value):
    """The complete family ShST(shape, n), deterministically ordered, as
    its members' layout strings, one per member: layouts[x] holds member
    x's order keys 2*value - primed as characters, each at its cell's
    position in the global cell numbering (the shape's slots), and
    chr(0) at every other position up to one past the last cell.  So a
    band string cut out of a layout names the same cells and letters in
    every family.  member(x) decodes layout x into its key, and builds
    and validates member x as a tableau on it; it is how the library
    builds one.  Iteration builds the members in order by member and
    keeps none.

    Every generator keeps the cell set, so on a family it is a permutation
    of the member positions; tables maps a generator to that permutation
    as a tuple of positions, computed whole by the engine the first time
    the generator is used, and composed with other tables by itemgetter
    gathers.  positions maps each layout back to its member, on the
    layouts' own strings.  The tables and positions live and die with the
    family; any other index a fill needs is its own, dropped with it."""

    # tables lives in __dict__, beside positions: no field, so it is
    # neither compared nor shown
    __slots__ = ("shape", "n", "layouts", "__dict__")
    shape: ShiftedSkewShape
    n: int
    layouts: tuple[str, ...]
    tables: dict[Any, tuple[int, ...]]

    def __init__(self, shape: ShiftedSkewShape, n: int, layouts: tuple[str, ...]):
        self._assign(shape, n, layouts)
        object.__setattr__(self, "tables", {})

    @cached_property
    def positions(self) -> dict[str, int]:
        """Layout -> position: a filling of the family's cells is a member
        exactly when its layout is here."""
        return {s: x for x, s in enumerate(self.layouts)}

    def member(self, x: int) -> ShiftedTableau:
        """Member x, its layout decoded into its key and validated as a
        tableau."""
        s, slots = self.layouts[x], self.shape.slots
        return ShiftedTableau(self.shape, tuple([ord(s[p]) for _, p in slots]), self.n)

    def __iter__(self) -> Iterator[ShiftedTableau]:
        return map(self.member, range(len(self.layouts)))

    def __len__(self) -> int:
        return len(self.layouts)


def enumerate_tableaux(shape: ShiftedSkewShape, n: int) -> TableauFamily:
    """All members of ShST(shape, n) in reading-word lexicographic order;
    CapacityError, before the member past MAX_MEMBERS is kept."""
    found: list[str] = []
    _search(shape, n, found)
    return TableauFamily(shape, n, tuple(found))


def count_tableaux(shape: ShiftedSkewShape, n: int) -> int:
    """The number of members of ShST(shape, n), by enumerate_tableaux's
    search keeping no layout.  The search stops past MAX_MEMBERS as there,
    which here bounds its time."""
    return _search(shape, n, None)


def _search(shape: ShiftedSkewShape, n: int, found: list[str] | None) -> int:
    """Backtrack over the members of ShST(shape, n) in reading-word
    lexicographic order, append each one's layout to found unless found
    is None, and return their number; CapacityError when a member comes
    past MAX_MEMBERS; check_letters' error at once when n is negative or
    exceeds MAX_LETTERS."""
    check_letters(n)
    m = shape.size
    nbrs, slots = shape.neighbours, shape.slots
    # the sorted positions in reading order, each with the positions of
    # its south and west neighbours, both placed before it, and its
    # layout position
    plan = [(i, nbrs[i][1], nbrs[i][2], slots[i][1])
            for s in reversed(shape.row_slices) for i in range(s.start, s.stop)]
    top = 2 * n
    keys = [0] * m + [top + 1, 0]  # keys[-2] off the south edge, keys[-1] off the west
    layout = ["\0"] * (max([p for _, p in slots], default=-1) + 2)
    seen = [0] * (n + 1)           # occurrences of each letter so far
    count = 0                      # members found so far

    def place(d: int) -> None:
        nonlocal count
        if d == m:
            if count == MAX_MEMBERS:
                raise CapacityError(f"ShST({shape}, {n}) has more than {MAX_MEMBERS:,} members")
            count += 1
            if found is not None:
                found.append("".join(layout))
            return
        i, south, west, p = plan[d]
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
            layout[p] = chr(k)
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
