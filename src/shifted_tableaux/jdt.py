"""Shifted jeu de taquin, rectification, complement, evacuation, reversal
and the restricted Schuetzenberger involutions.

Slides are implemented directly for standard fillings (plain inner/outer
moves of a cell -> value map on the shifted diagram); semistandard slides
go through standardize -> slide -> destandardize, which is the bridge that
makes the primed bookkeeping unambiguous.  Standardization commutes with
shifted jeu de taquin (Worley 1984), so rectify and reversal standardize
once, run all their slides, and destandardize once.

rectify_map, evacuation_map and reversal_map compute on canonical cell ->
entry maps; the public functions build one validated tableau from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (CapacityError, Cell, Entry, ShiftedSkewShape, ShiftedTableau,
                   StrictPartition, TableauError, act_on_band, canonical_map,
                   canonical_pair, destandardize_map, pair_of_cells, standardize_map,
                   weight, weight_map)

DUAL_EQUIV_MAX_CELLS = 6


@dataclass(frozen=True)
class SlideRecord:
    """Inner corners used during a rectification, with the cell vacated at
    the end of each slide; replaying the vacated cells as outer slides in
    reverse restores the original shape."""

    slides: tuple[tuple[Cell, Cell], ...] = ()  # (corner, exit)

    def __len__(self) -> int:
        return len(self.slides)


def _removable(inner: tuple[int, ...]) -> list[Cell]:
    """The cells a strict partition can lose, top row first."""
    return [(r, r + p - 1) for r, p in enumerate(inner, start=1)
            if r == len(inner) or inner[r] < p - 1]


def inner_corners(shape: ShiftedSkewShape) -> list[Cell]:
    """Empty positions into which an inner slide may start: the removable
    cells of the inner partition of the canonical (outer, inner) pair."""
    return _removable(canonical_pair(shape.outer, shape.inner)[1])


def _slide_standard(entries: dict[Cell, int], cell: Cell, outer: bool) -> Cell:
    """Slide a standard cell -> value map in place, into the inner corner
    cell, or outward from the outside position cell; returns the cell the
    slide vacates (inner) or ends in (outer)."""
    r, c = cell
    if outer and (c < r or cell in entries):
        raise TableauError(f"{cell} is not a valid outer slide start")
    # an inner slide pulls the smaller of its east and south neighbours in,
    # an outer slide the larger of its west and north neighbours
    step = -1 if outer else 1
    while True:
        across = entries.get((r, c + step)) if c + step >= r else None
        down = entries.get((r + step, c))
        if across is None and down is None:
            return r, c
        if down is None or (across is not None and (across < down) != outer):
            entries[(r, c)] = entries.pop((r, c + step))
            c += step
        else:
            entries[(r, c)] = entries.pop((r + step, c))
            r += step


def _slide(t: ShiftedTableau, cell: Cell, outer: bool) -> tuple[ShiftedTableau, Cell]:
    if t.size == 0:
        raise TableauError("cannot slide an empty tableau")
    std = standardize_map(t.entries)
    exit_cell = _slide_standard(std, cell, outer)
    return ShiftedTableau.from_map(destandardize_map(std, weight(t)), t.n), exit_cell


def inner_slide(t: ShiftedTableau, corner: Cell) -> ShiftedTableau:
    """One jeu de taquin slide into the given inner corner."""
    if corner not in inner_corners(t.shape):
        raise TableauError(f"{corner} is not an inner corner of {t.shape}")
    return _slide(t, corner, outer=False)[0]


def outer_slide(t: ShiftedTableau, start: Cell) -> ShiftedTableau:
    """One reverse slide starting from the given outside position."""
    return _slide(t, start, outer=True)[0]


def _pick_corner(corners: list[Cell], strategy: str) -> Cell:
    if strategy == "first":
        return min(corners)
    if strategy == "last":
        return max(corners)
    raise ValueError(f"unknown corner strategy {strategy!r}")


def _shrink(parts: tuple[int, ...], row: int) -> tuple[int, ...]:
    return parts[:row - 1] + (parts[row - 1] - 1,) + parts[row:]


def rectify_map(entries: Mapping[Cell, Entry], outer: tuple[int, ...],
                inner: tuple[int, ...], n: int, strategy: str = "first"
                ) -> tuple[Mapping[Cell, Entry], tuple[int, ...], list[tuple[Cell, Cell]]]:
    """rectify on the cell -> entry map of the shape outer/inner: the
    straight map, its outer partition and the (corner, exit) slides.

    The (outer, inner) pair is carried through the slides: each slide
    takes a removable cell from inner and its exit cell from outer.
    entries itself is returned when no slide happens."""
    outer, inner = canonical_pair(outer, inner)
    if not inner:
        return entries, outer, []
    std = standardize_map(entries.items())
    record: list[tuple[Cell, Cell]] = []
    while corners := _removable(inner):
        corner = _pick_corner(corners, strategy)
        exit_cell = _slide_standard(std, corner, outer=False)
        record.append((corner, exit_cell))
        outer, inner = canonical_pair(_shrink(outer, exit_cell[0]),
                                      _shrink(inner, corner[0]))
    return destandardize_map(std, weight_map(entries, n)), outer, record


def rectify(t: ShiftedTableau, strategy: str = "first"
            ) -> tuple[ShiftedTableau, SlideRecord]:
    """Apply inner slides until the shape is straight.

    The result does not depend on the corner choices; the strategy only
    affects the slide record.
    """
    if t.size == 0:
        # covers shapes like lambda/lambda
        return ShiftedTableau(ShiftedSkewShape(), (), t.n), SlideRecord()
    rect, outer, record = rectify_map(t.entry_map, t.shape.outer, t.shape.inner,
                                      t.n, strategy)
    if not record:
        return t, SlideRecord()
    return (ShiftedTableau.from_map(rect, t.n, ShiftedSkewShape(outer)),
            SlideRecord(tuple(record)))


def knuth_equivalent(t1: ShiftedTableau, t2: ShiftedTableau) -> bool:
    """Same rectification."""
    if t1.n != t2.n:
        raise TableauError("tableaux live over different alphabets")
    return rectify(t1)[0] == rectify(t2)[0]


def dual_equivalent(t1: ShiftedTableau, t2: ShiftedTableau) -> bool:
    """Brute-force coplactic equivalence: every common inner-slide sequence
    must keep the shapes equal.  Capped at DUAL_EQUIV_MAX_CELLS cells."""
    if t1.cells != t2.cells:
        raise TableauError("dual equivalence requires equal shapes")
    if t1.size > DUAL_EQUIV_MAX_CELLS:
        raise CapacityError(
            f"dual-equivalence oracle capped at {DUAL_EQUIV_MAX_CELLS} cells")
    seen: set[tuple[ShiftedTableau, ShiftedTableau]] = set()

    def walk(a: ShiftedTableau, b: ShiftedTableau) -> bool:
        if (a, b) in seen:
            return True
        seen.add((a, b))
        for corner in inner_corners(a.shape):
            if a.size == 0:
                return True
            a2, ea = _slide(a, corner, outer=False)
            b2, eb = _slide(b, corner, outer=False)
            if ea != eb:
                return False
            if not walk(a2, b2):
                return False
        return True

    return walk(t1, t2)


def _complement_map(entries: Mapping[Cell, Entry], outer: tuple[int, ...],
                    inner: tuple[int, ...], n: int, width: int
                    ) -> tuple[dict[Cell, Entry], tuple[int, ...], tuple[int, ...]]:
    """complement on the cell -> entry map of the shape outer/inner: the
    canonical map and its (outer, inner) pair."""
    reflected = {(width + 1 - c, width + 1 - r): Entry(n - e.value + 1, not e.primed)
                 for (r, c), e in entries.items()}
    return (canonical_map(reflected), StrictPartition(inner).complement(width).parts,
            StrictPartition(outer).complement(width).parts)


def complement(t: ShiftedTableau, n: int | None = None,
               width: int | None = None) -> ShiftedTableau:
    """Anti-diagonal reflection in the shifted staircase of the given width
    (default: the first outer part) with entries complemented by
    i -> (n-i+1)' and i' -> n-i+1; the result is canonicalized.

    The map is an involution only for a fixed staircase width; the default
    width shrinks when the reflected shape is narrower.
    """
    if n is None:
        n = t.n
    if t.size == 0:
        return ShiftedTableau(ShiftedSkewShape(), (), n)
    if width is None:
        width = t.shape.outer[0]
    elif width < t.shape.outer[0]:
        raise TableauError(f"staircase width {width} is too small for {t.shape}")
    entries, outer, inner = _complement_map(t.entry_map, t.shape.outer,
                                            t.shape.inner, n, width)
    return ShiftedTableau.from_map(entries, n, ShiftedSkewShape(outer, inner))


def evacuation_map(entries: Mapping[Cell, Entry], outer: tuple[int, ...], n: int
                   ) -> tuple[Mapping[Cell, Entry], tuple[int, ...]]:
    """evacuation_jdt on the nonempty cell -> entry map of the straight
    shape outer: the evacuated map and its outer partition."""
    comp, comp_outer, comp_inner = _complement_map(entries, outer, (), n, outer[0])
    rect, rect_outer, _ = rectify_map(comp, comp_outer, comp_inner, n)
    return rect, rect_outer


def evacuation_jdt(t: ShiftedTableau) -> ShiftedTableau:
    """evac(T) = rect(c_n(T)) on straight shapes."""
    if not t.shape.straight:
        raise TableauError("evacuation is defined on straight shapes; use reversal")
    if t.size == 0:
        return ShiftedTableau(ShiftedSkewShape(), (), t.n)
    out, outer = evacuation_map(t.entry_map, t.shape.outer, t.n)
    return ShiftedTableau.from_map(out, t.n, ShiftedSkewShape(outer))


def reversal_map(entries: Mapping[Cell, Entry], n: int) -> Mapping[Cell, Entry]:
    """reversal on a canonical cell -> entry map over the alphabet 1..n:
    rectify, evacuate, then replay the recorded slides outward in
    reverse."""
    if not entries:
        return {}
    rect, outer, record = rectify_map(entries, *pair_of_cells(entries), n)
    out, _ = evacuation_map(rect, outer, n)
    if record:
        std = standardize_map(out.items())
        for _, exit_cell in reversed(record):
            _slide_standard(std, exit_cell, outer=True)
        out = destandardize_map(std, weight_map(out, n))
    if out.keys() != entries.keys():
        raise RuntimeError("reversal did not restore the original shape")
    return out


def reversal(t: ShiftedTableau) -> ShiftedTableau:
    """The unique tableau Knuth equivalent to c_n(T) and dual equivalent to T."""
    return ShiftedTableau.from_map(reversal_map(t.entry_map, t.n), t.n)


def eta(t: ShiftedTableau, i: int | None = None, j: int | None = None) -> ShiftedTableau:
    """Restriction of the Schuetzenberger involution to the letters i..j.

    The band is re-indexed to a fresh alphabet, reversed there, and put
    back; eta() with no interval is the full involution."""
    if i is None and j is None:
        i, j = 1, t.n
    if not (1 <= i <= j <= t.n):
        raise TableauError(f"invalid interval [{i},{j}] for n={t.n}")
    return act_on_band(t, i, j, reversal_map)


def sigma(t: ShiftedTableau, i: int) -> ShiftedTableau:
    """Crystal reflection operator: eta restricted to {i, i+1}."""
    return eta(t, i, i + 1)
