"""Shifted jeu de taquin, rectification, complement, evacuation, reversal
and the restricted Schuetzenberger involutions.

Slides are implemented directly for standard fillings (plain inner/outer
moves of a cell -> value map on the shifted diagram).  Standardization
commutes with shifted jeu de taquin (Worley 1984), and so with
everything built from its slides.  So rectify standardizes once, runs
integer code only (_rectify_standard) and destandardizes once, and the
one-slide functions inner_slide and outer_slide standardize around their
single slide.  dual_equivalent compares the slide records of two
rectifications: by Haiman (1992), two tableaux of one shape are dual
equivalent exactly when one rectifying slide order takes them through
the same shapes.  Reversal and evacuation are standard-map cores
(_reverse_standard, _evacuate_standard).  standard_result runs one on a
standard map and checks its result; given a memo, it runs the core once
per standardization.  reversal_map standardizes, takes standard_result
of _reverse_standard and destandardizes with the reversed weight.  On a
straight shape the reversal makes no rectifying slide, so it is the
evacuation, and evacuation_jdt is the reversal behind its
straight-shape check.  The verification engine shares one memo between
both callers of standard_result: reversal_map on partial bands (of eta
and sigma), and its own whole-member lookups of eta:1,n, which run
_reverse_standard and find each image among the family's members by its
standardization and weight instead of destandardizing.  So all bands and
whole members with the same standardization share one standard result.
A standard reversal takes its evacuation step from standard_result with
the same memo, so each straight standardization is evacuated once.
Switching evacuation does not commute with standardization on skew
bands, so its bands are not shared.

rectify_map and reversal_map compute on canonical cell -> order key
maps, and standardize and destandardize them by the keys; the public
functions build one validated tableau from the keys of their result.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .core import (Cell, Entry, ShiftedSkewShape, ShiftedTableau, StrictPartition,
                   TableauError, _Value, act_on_band, canonical_map, canonical_pair,
                   destandardize_map, pair_of_cells, standardize_map, weight,
                   weight_map)


class SlideRecord(_Value):
    """Inner corners used during a rectification, with the cell vacated at
    the end of each slide; replaying the vacated cells as outer slides in
    reverse restores the original shape."""

    __slots__ = ("slides",)
    slides: tuple[tuple[Cell, Cell], ...]  # (corner, exit)

    def __init__(self, slides: tuple[tuple[Cell, Cell], ...] = ()):
        self._assign(slides)

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
    std = standardize_map(zip(t.shape.sorted_cells, t.key))
    exit_cell = _slide_standard(std, cell, outer)
    return ShiftedTableau.from_keys(destandardize_map(std, weight(t)), t.n), exit_cell


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


def _rectify_standard(std: dict[Cell, int], outer: tuple[int, ...],
                      inner: tuple[int, ...], strategy: str = "first",
                      record: list[tuple[Cell, Cell]] | None = None
                      ) -> tuple[int, ...]:
    """Slide the standard map std of the shape outer/inner to a straight
    shape, in place, and return its outer partition; the (corner, exit)
    slides are appended to record when one is given.

    The (outer, inner) pair is carried through the slides: each slide
    takes a removable cell from inner and its exit cell from outer."""
    outer, inner = canonical_pair(outer, inner)
    while corners := _removable(inner):
        corner = _pick_corner(corners, strategy)
        exit_cell = _slide_standard(std, corner, outer=False)
        if record is not None:
            record.append((corner, exit_cell))
        outer, inner = canonical_pair(_shrink(outer, exit_cell[0]),
                                      _shrink(inner, corner[0]))
    return outer


def _evacuate_standard(std: Mapping[Cell, int], memo: dict | None = None
                       ) -> dict[Cell, int]:
    """Evacuation of the nonempty standard map std of a straight shape:
    the complement in the staircase of width outer[0] (each cell
    reflected in the anti-diagonal, each value v sent to N+1-v),
    rectified.  memo is unused: evacuation runs no other standard core."""
    outer = pair_of_cells(std)[0]
    w, top = outer[0], len(std) + 1
    comp = {(w + 1 - c, w + 1 - r): top - v for (r, c), v in std.items()}
    _rectify_standard(comp, tuple(range(w, 0, -1)),
                      StrictPartition(outer).complement(w).parts)
    return comp


def _reverse_standard(std: dict[Cell, int], memo: dict | None = None
                      ) -> dict[Cell, int]:
    """Reversal of the nonempty standard map std: rectify it in place,
    evacuate, then replay the recorded slides outward in reverse.  The
    evacuation is standard_result's with memo, its cells listed by value,
    so that it is shared with every other evacuation of the same
    rectification."""
    record: list[tuple[Cell, Cell]] = []
    _rectify_standard(std, *pair_of_cells(std), record=record)
    std = standard_result(_evacuate_standard,
                          dict(sorted(std.items(), key=lambda item: item[1])), memo)
    for _, exit_cell in reversed(record):
        _slide_standard(std, exit_cell, outer=True)
    return std


# A standard core takes a standard map and the standard memo, which it
# hands on to the standard cores it runs itself.
StandardCore = Callable[[dict[Cell, int], dict | None], dict[Cell, int]]


def standard_result(core: StandardCore, std: dict[Cell, int], memo: dict | None
                    ) -> dict[Cell, int]:
    """core on the standard map std, checked to be a standard filling of
    std's cells.  With memo, core runs once per standardization: memo
    maps (core, std's items) to the values of the result in std's cell
    order, so std must list its cells by value, as standardize_map
    does.  core is given the memo too."""
    if not std:
        return {}
    memo_key = (core, tuple(std.items()))
    values = None if memo is None else memo.get(memo_key)
    if values is None:
        out = core(dict(std), memo)
        if out.keys() != std.keys() or sorted(out.values()) != list(range(1, len(std) + 1)):
            raise RuntimeError("a standard result is not a standard filling of its cells")
        values = tuple([out[c] for c in std])
        if memo is not None:
            memo[memo_key] = values
    return dict(zip(std, values))


def rectify_map(entries: Mapping[Cell, int], outer: tuple[int, ...],
                inner: tuple[int, ...], n: int, strategy: str = "first"
                ) -> tuple[Mapping[Cell, int], tuple[int, ...], list[tuple[Cell, Cell]]]:
    """rectify on the cell -> order key map of the shape outer/inner: the
    straight map, its outer partition and the (corner, exit) slides.
    entries itself is returned when no slide happens."""
    outer, inner = canonical_pair(outer, inner)
    if not inner:
        return entries, outer, []
    std = standardize_map(entries.items())
    record: list[tuple[Cell, Cell]] = []
    outer = _rectify_standard(std, outer, inner, strategy, record)
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
    rect, outer, record = rectify_map(t.key_map, t.shape.outer, t.shape.inner,
                                      t.n, strategy)
    if not record:
        return t, SlideRecord()
    return (ShiftedTableau.from_keys(rect, t.n, ShiftedSkewShape(outer)),
            SlideRecord(tuple(record)))


def knuth_equivalent(t1: ShiftedTableau, t2: ShiftedTableau) -> bool:
    """Same rectification."""
    if t1.n != t2.n:
        raise TableauError("tableaux live over different alphabets")
    return rectify(t1)[0] == rectify(t2)[0]


def dual_equivalent(t1: ShiftedTableau, t2: ShiftedTableau) -> bool:
    """Coplactic equivalence, by Haiman's characterisation: the two
    rectifications slide through the same shapes.  Under the "first"
    strategy each corner is a function of the shape, so this is one
    rectification per tableau, compared by its slide record (taken from
    rectify_map, which builds no tableau)."""
    if t1.cells != t2.cells:
        raise TableauError("dual equivalence requires equal shapes")
    t1_slides, t2_slides = (rectify_map(t.key_map, t.shape.outer, t.shape.inner, t.n)[2]
                            for t in (t1, t2))
    return t1_slides == t2_slides


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
    top = (max(t.key) + 1) >> 1
    if top > n:
        raise TableauError(f"complement with n={n} needs n >= the largest entry {top}")
    if width is None:
        width = t.shape.outer[0]
    elif width < t.shape.outer[0]:
        raise TableauError(f"staircase width {width} is too small for {t.shape}")
    reflected = {(width + 1 - c, width + 1 - r): Entry(n - e.value + 1, not e.primed)
                 for (r, c), e in t.entries}
    shape = ShiftedSkewShape(StrictPartition(t.shape.inner).complement(width).parts,
                             StrictPartition(t.shape.outer).complement(width).parts)
    return ShiftedTableau.from_map(canonical_map(reflected), n, shape)


def reversal_map(entries: Mapping[Cell, int], n: int, memo: dict | None = None
                 ) -> dict[Cell, int]:
    """reversal on a canonical cell -> order key map over the alphabet 1..n:
    standardize, take standard_result of _reverse_standard (rectify,
    evacuate, replay the recorded slides outward in reverse), and
    destandardize with the reversed weight of entries.  Given a memo
    dict, which a caller keeps across calls, the standard reversal runs
    once per standardization."""
    std = standard_result(_reverse_standard, standardize_map(entries.items()), memo)
    return destandardize_map(std, weight_map(entries, n)[::-1])


def reversal(t: ShiftedTableau) -> ShiftedTableau:
    """The unique tableau Knuth equivalent to c_n(T) and dual equivalent to T,
    on T's cells (reversal_map checks them), under their canonical pair."""
    return ShiftedTableau.from_keys(reversal_map(t.key_map, t.n), t.n, t.shape.canonical())


def evacuation_jdt(t: ShiftedTableau) -> ShiftedTableau:
    """evac(T) = rect(c_n(T)) on straight shapes: the reversal, as a
    straight shape needs no rectifying slide."""
    if not t.shape.straight:
        raise TableauError("evacuation is defined on straight shapes; use reversal")
    return reversal(t)


def eta(t: ShiftedTableau, i: int | None = None, j: int | None = None) -> ShiftedTableau:
    """Restriction of the Schuetzenberger involution to the letters i..j.

    The band is re-indexed to a fresh alphabet, reversed there, and put
    back; eta() with no interval is the full involution."""
    if i is None and j is None:
        i, j = 1, t.n
    elif i is None or j is None:
        raise TableauError("eta takes both ends of the interval or neither")
    if not (1 <= i <= j <= t.n):
        raise TableauError(f"invalid interval [{i},{j}] for n={t.n}")
    return act_on_band(t, i, j, reversal_map)


def sigma(t: ShiftedTableau, i: int) -> ShiftedTableau:
    """Crystal reflection operator: eta restricted to {i, i+1}."""
    return eta(t, i, i + 1)
