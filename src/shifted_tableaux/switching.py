"""Shifted tableau switching: perforated pairs, the seven local switch
rules, pair and full tableau switching, and the switching-based
evacuation operators (straight, restricted and skew variants).

The only switching state is a band, a plain cell -> primed dict holding
the cells of one letter.  Every switch in the library, t_i included,
moves one band through another in place with _run(a, b, on_step), which
finds each next box in one pass over the a-band (_select).  The kernels
(evac_map here, bk_map in bender_knuth) take and return cell -> order
key maps: _bands reads each band straight off the keys k, the letter
(k + 1) >> 1 and the prime k & 1, and _relabel and _merge write the
keys 2*letter - primed back.  Entries are built only for the TraceStep
snapshots (_snapshot), and only when steps are asked for.  Switching a
canonical pair leaves the first reading cell of each band unprimed, so
relabelled bands are written back as _run leaves them and nothing
re-canonicalizes the map; a result that broke canonical form would be
rejected by the ShiftedTableau constructor, and by a family table fill
as out of its family.

Switching evacuation is one step repeated: expel moves the lowest band
out through every higher band and relabels it, and evac_map expels
until no band is left.  Once the lowest band k is out, the rest of the
run is the evacuation of the remaining bands over the letters above k;
the verification engine takes that rest from its band memo instead of
expelling it again (engine._band_evac).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .core import (Cell, Entry, ShiftedSkewShape, ShiftedTableau, TableauError, _Value,
                   act_on_band)


class SwitchingError(TableauError):
    """Invalid perforated pair or an algorithm-integrity failure."""


class PerforatedFilling(_Value):
    """Cells of one letter family inside a perforated pair; each cell
    records whether the letter is primed."""

    __slots__ = ("letter", "cells")
    letter: int
    cells: tuple[tuple[Cell, bool], ...]  # (cell, primed), sorted

    def __init__(self, letter: int, cells: tuple[tuple[Cell, bool], ...]):
        self._assign(letter, cells)

    @classmethod
    def from_map(cls, letter: int, cells: dict[Cell, bool]) -> "PerforatedFilling":
        return cls(letter, tuple(sorted(cells.items())))

    @property
    def cell_map(self) -> dict[Cell, bool]:
        return dict(self.cells)


class PerforatedPair(_Value):
    """A perforated (a, b)-pair tiling a double border strip."""

    __slots__ = ("a", "b")
    a: PerforatedFilling
    b: PerforatedFilling

    def __init__(self, a: PerforatedFilling, b: PerforatedFilling):
        self._assign(a, b)

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


# a band: the cells of one letter family, each mapped to whether it is
# primed (k & 1 of its order key k, or a bool)
Band = dict[Cell, int]


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


def _relabel(out: dict[Cell, int], band: Band, letter: int) -> None:
    """Write the band's cells into out as the letter's order keys."""
    out.update(zip(band, map((2 * letter).__sub__, band.values())))


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
    """T extends S: the two are disjoint, and the inner shape mu of
    their union together with S is a straight shape."""
    if s.cells & t.cells:
        raise SwitchingError("tableaux overlap; T must extend S")
    union = ShiftedSkewShape.from_cells(s.cells | t.cells)
    try:
        straight = ShiftedSkewShape.from_cells(
            (ShiftedSkewShape(union.outer).cells - union.cells) | s.cells).straight
    except TableauError as exc:
        raise SwitchingError(f"T does not extend S: {exc}") from exc
    if not straight:
        raise SwitchingError("T does not extend S")


class TraceStep(_Value):
    """One switch applied inside a larger computation: the rule name and
    the complete entry layout of both sides afterwards."""

    __slots__ = ("rule", "moving", "fixed")
    rule: str
    moving: tuple[tuple[Cell, Entry], ...]  # the band(s) being moved through
    fixed: tuple[tuple[Cell, Entry], ...]   # everything else

    def __init__(self, rule: str, moving: tuple[tuple[Cell, Entry], ...],
                 fixed: tuple[tuple[Cell, Entry], ...]):
        self._assign(rule, moving, fixed)


def _bands(keys: Iterable[tuple[Cell, int]]) -> dict[int, Band]:
    """The band of each letter that occurs among (cell, order key) pairs."""
    bands: dict[int, Band] = {}
    for cell, k in keys:
        bands.setdefault((k + 1) >> 1, {})[cell] = k & 1
    return bands


def _merge(bands: dict[int, Band]) -> dict[Cell, int]:
    """The cell -> order key map of the bands."""
    return {cell: 2 * letter - p for letter, band in bands.items()
            for cell, p in band.items()}


def _snapshot(bands: dict[int, Band]) -> tuple[tuple[Cell, Entry], ...]:
    """The (cell, entry) pairs of the bands in sorted cell order, as a
    TraceStep holds them."""
    return tuple(sorted((cell, Entry(letter, p)) for letter, band in bands.items()
                        for cell, p in band.items()))


def full_switch(s: ShiftedTableau, t: ShiftedTableau
                ) -> tuple[ShiftedTableau, ShiftedTableau, list[TraceStep]]:
    """Move S through T: switch the pairs (S^m, T^1), ..., (S^m, T^n), ...,
    (S^1, T^1), ..., (S^1, T^n).  Returns (^S T, S_T, trace)."""
    _check_extends(s, t)
    s_bands, t_bands = (_bands(zip(u.shape.sorted_cells, u.key)) for u in (s, t))
    trace: list[TraceStep] = []

    def on_step(rule: str) -> None:
        trace.append(TraceStep(rule, _snapshot(s_bands), _snapshot(t_bands)))

    for i in sorted(s_bands, reverse=True):
        for j in sorted(t_bands):
            _run(s_bands[i], t_bands[j], on_step)
    return (ShiftedTableau.from_keys(_merge(t_bands), t.n),
            ShiftedTableau.from_keys(_merge(s_bands), s.n), trace)


# ---------------------------------------------------------------------------
# evacuation via switching

def expel(bands: dict[int, Band], n: int, out: dict[Cell, int]) -> None:
    """One expulsion step of switching evacuation over the alphabet 1..n,
    on bands listed by increasing letter: the lowest band k leaves bands,
    moves outward through every higher band in turn, and is written into
    out as the letter n-k+1, as _run leaves it, its first reading cell
    unprimed.  The higher bands are left switched in place."""
    k = next(iter(bands))
    band = bands.pop(k)
    for higher in bands.values():
        _run(band, higher, None)
    _relabel(out, band, n - k + 1)


def evac_map(entries: Mapping[Cell, int], n: int) -> dict[Cell, int]:
    """Switching evacuation of a canonical cell -> order key map over the
    alphabet 1..n: expel the bands outward one after another, lowest
    first, each relabelled by expel (the auxiliary-alphabet
    bookkeeping)."""
    bands = dict(sorted(_bands(entries.items()).items()))
    out: dict[Cell, int] = {}
    while bands:
        expel(bands, n, out)
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
    return ShiftedTableau.from_keys(evac_map(t.key_map, t.n), t.n, t.shape)


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
