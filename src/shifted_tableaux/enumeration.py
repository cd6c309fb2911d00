"""Exhaustive generation of canonical shifted semistandard tableaux.

Generation backtracks over cells in row order with per-cell pruning
(row/column order, multiplicity rules); canonical form is applied as a
final filter, and every kept filling is validated as a tableau.  The
family order is fixed as reading-word lexicographic so that golden
outputs stay byte-stable.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator

from .core import Cell, Entry, ShiftedSkewShape, ShiftedTableau, reading_cells


@dataclass(frozen=True)
class TableauFamily:
    """The complete family ShST(shape, n), deterministically ordered.

    Every generator keeps the cell set, so on a family it is a permutation
    of the member positions; tables maps a generator to that permutation
    as an array('i') filled lazily by the engine (-1 marks an entry not
    yet computed).  The tables live and die with the family."""

    shape: ShiftedSkewShape
    n: int
    members: tuple[ShiftedTableau, ...]
    tables: dict[Any, array] = field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    @cached_property
    def positions(self) -> dict[tuple[int, ...], int]:
        """Member key -> position.  A member's key is the tuple of its
        entries' order keys over the shape's sorted cells, so a map on
        the family's cells is a member exactly when its key is here."""
        return {tuple(2 * e.value - e.primed for _, e in t.entries): k
                for k, t in enumerate(self.members)}

    def __iter__(self) -> Iterator[ShiftedTableau]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _fill_order(shape: ShiftedSkewShape) -> list[Cell]:
    return sorted(shape.cells)


def _iter_fillings(shape: ShiftedSkewShape, n: int) -> Iterator[dict[Cell, Entry]]:
    order = _fill_order(shape)
    alphabet = [Entry(k, p) for k in range(1, n + 1) for p in (True, False)]
    entries: dict[Cell, Entry] = {}
    primed_rows: set[tuple[int, int]] = set()  # (row, value) with a primed entry
    used_cols: set[tuple[int, int]] = set()    # (col, value) with an unprimed entry

    def place(idx: int) -> Iterator[dict[Cell, Entry]]:
        if idx == len(order):
            yield dict(entries)
            return
        r, c = order[idx]
        west = entries.get((r, c - 1))
        north = entries.get((r - 1, c))
        floor = max((e for e in (west, north) if e is not None), default=None)
        for e in alphabet:
            if floor is not None and e < floor:
                continue
            if e.primed:
                if (r, e.value) in primed_rows:
                    continue
                primed_rows.add((r, e.value))
            else:
                if (c, e.value) in used_cols:
                    continue
                used_cols.add((c, e.value))
            entries[(r, c)] = e
            yield from place(idx + 1)
            del entries[(r, c)]
            if e.primed:
                primed_rows.discard((r, e.value))
            else:
                used_cols.discard((c, e.value))

    yield from place(0)


def _is_canonical(reading: list[Cell], filling: dict[Cell, Entry]) -> bool:
    """The first occurrence of each letter in reading order is unprimed;
    the backtracking already enforces every other rule."""
    seen: set[int] = set()
    for cell in reading:
        e = filling[cell]
        if e.value not in seen:
            if e.primed:
                return False
            seen.add(e.value)
    return True


def _canonical_fillings(shape: ShiftedSkewShape, n: int
                        ) -> Iterator[tuple[tuple[int, ...], dict[Cell, Entry]]]:
    """Canonical fillings with their reading-word order keys."""
    reading = reading_cells(shape)
    for filling in _iter_fillings(shape, n):
        if _is_canonical(reading, filling):
            yield tuple(filling[c].order_key for c in reading), filling


def enumerate_tableaux(shape: ShiftedSkewShape, n: int) -> TableauFamily:
    """All members of ShST(shape, n) in reading-word lexicographic order."""
    if n < 0:
        raise ValueError("alphabet bound must be >= 0")
    fillings = sorted(_canonical_fillings(shape, n), key=lambda kf: kf[0])
    members = tuple(ShiftedTableau.from_map(f, n, shape) for _, f in fillings)
    return TableauFamily(shape, n, members)


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
            if sum(prefix) + p <= cap * (cap + 1) // 2:
                extend(prefix + (p,), p - 1)

    extend((), cap)
    seen: set[frozenset[Cell]] = set()
    out: list[ShiftedSkewShape] = []
    for outer in outers:
        for inner in _subpartitions(outer):
            if not include_straight and not inner:
                continue
            try:
                shape = ShiftedSkewShape(outer, inner)
            except Exception:
                continue
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
