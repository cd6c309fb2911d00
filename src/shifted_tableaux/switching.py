"""Shifted tableau switching: perforated pairs, the seven local switch
rules, pair and full tableau switching, and the switching-based
evacuation operators (straight, restricted and skew variants).

The only switching state is a band, a plain cell -> primed dict holding
the cells of one letter.  Every switch in the library, t_i included,
moves one band through another in place with _run(a, b, on_step), which
finds each next box in one pass over the a-band (_select).  Switching a
canonical pair leaves the first reading cell of each band unprimed, so
relabelled bands (evac_map here, t_i in bender_knuth) are written back
as _run leaves them and nothing re-canonicalizes the map; a result that
broke canonical form would be rejected by the ShiftedTableau
constructor, and by a family table fill as out of its family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .core import (Cell, Entry, ShiftedSkewShape, ShiftedTableau, TableauError,
                   act_on_band)


class SwitchingError(TableauError):
    """Invalid perforated pair or an algorithm-integrity failure."""


@dataclass(frozen=True)
class PerforatedFilling:
    """Cells of one letter family inside a perforated pair; each cell
    records whether the letter is primed."""

    letter: int
    cells: tuple[tuple[Cell, bool], ...]  # (cell, primed), sorted

    @classmethod
    def from_map(cls, letter: int, cells: dict[Cell, bool]) -> "PerforatedFilling":
        return cls(letter, tuple(sorted(cells.items())))

    @property
    def cell_map(self) -> dict[Cell, bool]:
        return dict(self.cells)


@dataclass(frozen=True)
class PerforatedPair:
    """A perforated (a, b)-pair tiling a double border strip."""

    a: PerforatedFilling
    b: PerforatedFilling

    @property
    def region(self) -> frozenset[Cell]:
        return frozenset(c for c, _ in self.a.cells) | frozenset(c for c, _ in self.b.cells)

    def validate(self) -> None:
        a_cells = dict(self.a.cells)
        b_cells = dict(self.b.cells)
        if set(a_cells) & set(b_cells):
            raise SwitchingError("a-cells and b-cells overlap")
        region = self.region
        for (r, c) in region:
            if {(r, c), (r + 1, c + 1), (r + 2, c + 2)} <= region:
                raise SwitchingError(
                    f"region is not a double border strip at {(r, c)}")
        for name, cells in (("a", a_cells), ("b", b_cells)):
            for (r, c), primed in cells.items():
                if not primed:
                    for (r2, c2), primed2 in cells.items():
                        if primed2 and (r2, c2) != (r, c) and r2 >= r and c2 >= c:
                            raise SwitchingError(
                                f"{name}'-box {(r2, c2)} south-east of {name}-box {(r, c)}")
            cols = [c for (r, c), p in cells.items() if not p]
            if len(cols) != len(set(cols)):
                raise SwitchingError(f"two unprimed {name}-letters in one column")
            rows = [r for (r, c), p in cells.items() if p]
            if len(rows) != len(set(rows)):
                raise SwitchingError(f"two primed {name}-letters in one row")
            diag = [rc for rc, _ in cells.items() if rc[0] == rc[1]]
            if len(diag) > 1:
                raise SwitchingError(f"two {name}-letters on the main diagonal")


# a band: the cells of one letter family, each mapped to whether it is primed
Band = dict[Cell, bool]


def _select(a: Band, b: Band) -> Cell | None:
    """The rightmost unprimed a-box north or west of a b-box, else the
    bottommost such a'-box, ties going to the first in the a-band's
    order; one pass over the a-band."""
    unprimed = primed = None
    col = row = 0  # the column and row of the best boxes so far
    for x, p in a.items():
        r, c = x
        if (r > row if p else c > col) and ((r, c + 1) in b or (r + 1, c) in b):
            if p:
                primed, row = x, r
            else:
                unprimed, col = x, c
    return unprimed or primed


def _relabel(out: dict[Cell, Entry], band: Band, letter: int) -> None:
    """Write the band's cells into out as the letter."""
    e = (Entry(letter), Entry(letter, True))
    out.update((c, e[p]) for c, p in band.items())


def _swap(a: Band, b: Band, x: Cell, y: Cell) -> None:
    """The a-box x and the b-box y trade places, each keeping its prime."""
    b[x] = b.pop(y)
    a[y] = a.pop(x)


def _step(a: Band, b: Band, x: Cell) -> str:
    """Apply the matching switch rule in place; returns the rule name."""
    r, c = x
    east, south, west, southeast = (r, c + 1), (r + 1, c), (r, c - 1), (r + 1, c + 1)
    b_e, b_s = east in b, south in b
    # The three-box rules S4 and S7 additionally require the cell below the
    # west neighbour to be empty; otherwise the plain vertical swap applies.
    below_west = (r + 1, c - 1)
    a_w = west in a and below_west not in a and below_west not in b

    if b_e and b_s:
        if b[east]:  # b' to the east
            _swap(a, b, x, east)
            return "S5"
        if a_w:
            if a[x]:
                raise SwitchingError(f"no switch rule matches a' at {x} (S7 context)")
            _swap(a, b, west, south)
            a[x] = True
            return "S7"
        _swap(a, b, x, south)
        return "S6"
    if b_e:
        if b[east] and southeast in b:
            _swap(a, b, x, southeast)
            b[east] = False
            return "S3"
        _swap(a, b, x, east)
        return "S1"
    if b_s:
        if a_w:
            if a[x]:
                raise SwitchingError(f"no switch rule matches a' at {x} (S4 context)")
            _swap(a, b, west, south)
            a[x] = True
            return "S4"
        _swap(a, b, x, south)
        return "S2"
    raise SwitchingError(f"selected box {x} is not adjacent to a b-box")


def _run(a: Band, b: Band, on_step: Callable[[str], None] | None) -> None:
    """The switching process: move band a through band b in place, rule by
    rule, until no a-box lies north or west of a b-box.  on_step, if
    given, is called with each rule name right after the rule fires."""
    size = len(a) + len(b)
    for _ in range(max(4 * size * size, 16)):
        x = _select(a, b)
        if x is None:
            return
        rule = _step(a, b, x)
        if on_step is not None:
            on_step(rule)
    raise SwitchingError("switching process did not terminate")


def switch_pair(a: PerforatedFilling, b: PerforatedFilling
                ) -> tuple[PerforatedFilling, PerforatedFilling, list[tuple[str, PerforatedPair]]]:
    """Run the switching process to completion.

    Returns (^A B, A_B, trace): the b-letters after switching, the
    a-letters after switching, and the per-step (rule, state) trace.
    """
    a_band, b_band = a.cell_map, b.cell_map
    if a_band.keys() & b_band.keys():
        raise SwitchingError("a-cells and b-cells overlap")
    trace: list[tuple[str, PerforatedPair]] = []
    _run(a_band, b_band, lambda rule: trace.append((rule, PerforatedPair(
        PerforatedFilling.from_map(a.letter, a_band),
        PerforatedFilling.from_map(b.letter, b_band)))))
    return (PerforatedFilling.from_map(b.letter, b_band),
            PerforatedFilling.from_map(a.letter, a_band), trace)


# ---------------------------------------------------------------------------
# tableau-level switching

def _check_extends(s: ShiftedTableau, t: ShiftedTableau) -> None:
    if s.cells & t.cells:
        raise SwitchingError("tableaux overlap; T must extend S")
    union = ShiftedSkewShape.from_cells(s.cells | t.cells)
    try:
        inner_plus_s = ShiftedSkewShape.from_cells(
            set(ShiftedSkewShape(union.outer).cells - union.cells) | set(s.cells)) \
            if s.cells else None
    except TableauError as exc:
        raise SwitchingError(f"T does not extend S: {exc}") from exc
    if inner_plus_s is not None:
        expected_t = union.cells - inner_plus_s.cells
        if expected_t != t.cells:
            raise SwitchingError("T does not extend S")


@dataclass(frozen=True)
class TraceStep:
    """One switch applied inside a larger computation: the rule name and
    the complete entry layout of both sides afterwards."""

    rule: str
    moving: tuple[tuple[Cell, Entry], ...]  # the band(s) being moved through
    fixed: tuple[tuple[Cell, Entry], ...]   # everything else


def _bands(entries: Iterable[tuple[Cell, Entry]]) -> dict[int, Band]:
    """The band of each letter that occurs."""
    bands: dict[int, Band] = {}
    for cell, e in entries:
        bands.setdefault(e.value, {})[cell] = e.primed
    return bands


def _merge(bands: dict[int, Band]) -> dict[Cell, Entry]:
    """The cell -> entry map of the bands."""
    return {cell: Entry(letter, p) for letter, band in bands.items()
            for cell, p in band.items()}


def full_switch(s: ShiftedTableau, t: ShiftedTableau
                ) -> tuple[ShiftedTableau, ShiftedTableau, list[TraceStep]]:
    """Move S through T: switch the pairs (S^m, T^1), ..., (S^m, T^n), ...,
    (S^1, T^1), ..., (S^1, T^n).  Returns (^S T, S_T, trace)."""
    _check_extends(s, t)
    s_bands, t_bands = _bands(s.entries), _bands(t.entries)
    trace: list[TraceStep] = []

    def on_step(rule: str) -> None:
        trace.append(TraceStep(rule, tuple(sorted(_merge(s_bands).items())),
                               tuple(sorted(_merge(t_bands).items()))))

    for i in sorted(s_bands, reverse=True):
        for j in sorted(t_bands):
            _run(s_bands[i], t_bands[j], on_step)
    return (ShiftedTableau.from_map(_merge(t_bands), t.n),
            ShiftedTableau.from_map(_merge(s_bands), s.n), trace)


# ---------------------------------------------------------------------------
# evacuation via switching

def evac_map(entries: Mapping[Cell, Entry], n: int) -> dict[Cell, Entry]:
    """Switching evacuation of a canonical cell -> entry map over the
    alphabet 1..n: expel bands 1..n-1 outward in turn; the k-th expelled
    band is relabelled to letter n-k+1 (the auxiliary-alphabet
    bookkeeping) as _run leaves it, its first reading cell unprimed."""
    bands = _bands(entries.items())
    out: dict[Cell, Entry] = {}
    for k in sorted(bands):
        band = bands.pop(k)
        for j in sorted(bands):  # the letters above k
            _run(band, bands[j], None)
        _relabel(out, band, n - k + 1)
    return out


def require_straight(shape: ShiftedSkewShape, name: str, skew_name: str) -> None:
    """The straight-shape check of the switching evacuations."""
    if not shape.straight:
        raise TableauError(f"{name} requires a straight shape; use {skew_name}")


def evac_switch(t: ShiftedTableau) -> ShiftedTableau:
    """Shifted evacuation of a straight tableau by sequential switching."""
    require_straight(t.shape, "evac_switch", "evac_skew")
    return evac_skew(t)


def evac_skew(t: ShiftedTableau) -> ShiftedTableau:
    """The skew extension of evacuation (generally not the reversal)."""
    if t.size == 0:
        return t
    return ShiftedTableau.from_map(evac_map(t.entry_map, t.n), t.n, t.shape)


def evac_k_switch(t: ShiftedTableau, k: int) -> ShiftedTableau:
    """Evacuate the letters 1..k of a straight tableau, fixing the rest."""
    require_straight(t.shape, "evac_k_switch", "evac_k_skew")
    return evac_k_skew(t, k)


def evac_k_skew(t: ShiftedTableau, k: int) -> ShiftedTableau:
    """Skew variant of evac_k."""
    if not (1 <= k <= t.n):
        raise TableauError(f"invalid restriction index k={k} for n={t.n}")
    return act_on_band(t, 1, k, evac_map)


def evac_interval_skew(t: ShiftedTableau, i: int, j: int) -> ShiftedTableau:
    """Apply the skew evacuation to the letter band i..j, fixing the rest."""
    if not (1 <= i <= j <= t.n):
        raise TableauError(f"invalid interval [{i},{j}] for n={t.n}")
    return act_on_band(t, i, j, evac_map)
