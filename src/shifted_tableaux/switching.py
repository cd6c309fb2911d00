"""Shifted tableau switching: perforated pairs, the seven local switch
rules, pair and full tableau switching, and the switching-based
evacuation operators (straight, restricted and skew variants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .core import (Cell, Entry, ShiftedSkewShape, ShiftedTableau, TableauError,
                   act_on_band, canonical_map)


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

    def entries(self) -> dict[Cell, Entry]:
        return {c: Entry(self.letter, p) for c, p in self.cells}


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


# internal mutable state: cell -> (side, primed), side in {"a", "b"}
_State = dict[Cell, tuple[str, bool]]


def _state(pair: PerforatedPair) -> _State:
    st: _State = {c: ("a", p) for c, p in pair.a.cells}
    st.update({c: ("b", p) for c, p in pair.b.cells})
    return st


def _pair(pair: PerforatedPair, st: _State) -> PerforatedPair:
    a = {c: p for c, (side, p) in st.items() if side == "a"}
    b = {c: p for c, (side, p) in st.items() if side == "b"}
    return PerforatedPair(PerforatedFilling.from_map(pair.a.letter, a),
                          PerforatedFilling.from_map(pair.b.letter, b))


def _is_b(st: _State, cell: Cell) -> bool:
    return cell in st and st[cell][0] == "b"


def _select(st: _State) -> Cell | None:
    def adjacent_to_b(cell: Cell) -> bool:
        r, c = cell
        return _is_b(st, (r, c + 1)) or _is_b(st, (r + 1, c))

    unprimed = [c for c, (side, p) in st.items() if side == "a" and not p and adjacent_to_b(c)]
    if unprimed:
        return max(unprimed, key=lambda rc: rc[1])  # rightmost
    primed = [c for c, (side, p) in st.items() if side == "a" and p and adjacent_to_b(c)]
    if primed:
        return max(primed, key=lambda rc: rc[0])  # bottommost
    return None


def _step(st: _State, x: Cell) -> str:
    """Apply the matching switch rule in place; returns the rule name."""
    r, c = x
    east, south, west, southeast = (r, c + 1), (r + 1, c), (r, c - 1), (r + 1, c + 1)
    b_e, b_s = _is_b(st, east), _is_b(st, south)
    # The three-box rules S4 and S7 additionally require the cell below the
    # west neighbour to be empty; otherwise the plain vertical swap applies.
    a_w = west in st and st[west][0] == "a" and (r + 1, c - 1) not in st
    x_entry = st[x]

    if b_e and b_s:
        if st[east][1]:  # b' to the east
            st[x], st[east] = st[east], x_entry
            return "S5"
        if a_w:
            if x_entry[1]:
                raise SwitchingError(f"no switch rule matches a' at {x} (S7 context)")
            st[west], st[x], st[south] = st[south], ("a", True), st[west]
            return "S7"
        st[x], st[south] = st[south], x_entry
        return "S6"
    if b_e:
        if st[east][1] and _is_b(st, southeast):
            st[x], st[east], st[southeast] = st[southeast], ("b", False), x_entry
            return "S3"
        st[x], st[east] = st[east], x_entry
        return "S1"
    if b_s:
        if a_w:
            if x_entry[1]:
                raise SwitchingError(f"no switch rule matches a' at {x} (S4 context)")
            st[west], st[x], st[south] = st[south], ("a", True), st[west]
            return "S4"
        st[x], st[south] = st[south], x_entry
        return "S2"
    raise SwitchingError(f"selected box {x} is not adjacent to a b-box")


def _run(st: _State, on_step: Callable[[str], None] | None) -> None:
    """The switching process: apply switch rules to st in place until no
    a-box lies north or west of a b-box.  on_step, if given, is called
    with each rule name right after the rule fires."""
    for _ in range(max(4 * len(st) * len(st), 16)):
        x = _select(st)
        if x is None:
            return
        rule = _step(st, x)
        if on_step is not None:
            on_step(rule)
    raise SwitchingError("switching process did not terminate")


def switch_pair(a: PerforatedFilling, b: PerforatedFilling
                ) -> tuple[PerforatedFilling, PerforatedFilling, list[tuple[str, PerforatedPair]]]:
    """Run the switching process to completion.

    Returns (^A B, A_B, trace): the b-letters after switching, the
    a-letters after switching, and the per-step (rule, state) trace.
    """
    pair = PerforatedPair(a, b)
    st = _state(pair)
    trace: list[tuple[str, PerforatedPair]] = []
    _run(st, lambda rule: trace.append((rule, _pair(pair, st))))
    result = _pair(pair, st)
    return result.b, result.a, trace


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


def _switch_bands(state: dict[Cell, tuple[int, int, bool]],
                  side_a: int, letter_a: int, side_b: int, letter_b: int,
                  trace: list[TraceStep] | None) -> None:
    """Switch the (side_a, letter_a) band through the (side_b, letter_b)
    band inside a combined cell -> (side, letter, primed) state."""
    st: _State = {}
    for cell, (sd, lt, p) in state.items():
        if sd == side_a and lt == letter_a:
            st[cell] = ("a", p)
        elif sd == side_b and lt == letter_b:
            st[cell] = ("b", p)
    for cell in st:
        del state[cell]
    on_step = None
    if trace is not None:
        def on_step(rule: str) -> None:
            moving, fixed = {}, {}
            for cell, (side, lt, p) in state.items():
                (moving if side == side_a else fixed)[cell] = Entry(lt, p)
            for cell, (side, p) in st.items():
                letter = letter_a if side == "a" else letter_b
                (moving if side == "a" else fixed)[cell] = Entry(letter, p)
            trace.append(TraceStep(rule, tuple(sorted(moving.items())),
                                   tuple(sorted(fixed.items()))))

    _run(st, on_step)
    for cell, (side, p) in st.items():
        state[cell] = (side_a, letter_a, p) if side == "a" else (side_b, letter_b, p)


def full_switch(s: ShiftedTableau, t: ShiftedTableau
                ) -> tuple[ShiftedTableau, ShiftedTableau, list[TraceStep]]:
    """Move S through T: switch the pairs (S^m, T^1), ..., (S^m, T^n), ...,
    (S^1, T^1), ..., (S^1, T^n).  Returns (^S T, S_T, trace)."""
    _check_extends(s, t)
    state: dict[Cell, tuple[int, int, bool]] = {}
    for cell, e in s.entries:
        state[cell] = (0, e.value, e.primed)
    for cell, e in t.entries:
        state[cell] = (1, e.value, e.primed)
    trace: list[TraceStep] = []
    s_letters = sorted({e.value for _, e in s.entries}, reverse=True)
    t_letters = sorted({e.value for _, e in t.entries})
    for i in s_letters:
        for j in t_letters:
            _switch_bands(state, 0, i, 1, j, trace)
    t_out = {c: Entry(lt, p) for c, (sd, lt, p) in state.items() if sd == 1}
    s_out = {c: Entry(lt, p) for c, (sd, lt, p) in state.items() if sd == 0}
    st_top = (ShiftedTableau.from_map(t_out, t.n) if t_out
              else ShiftedTableau(ShiftedSkewShape(), (), t.n))
    st_bottom = (ShiftedTableau.from_map(s_out, s.n) if s_out
                 else ShiftedTableau(ShiftedSkewShape(), (), s.n))
    return st_top, st_bottom, trace


# ---------------------------------------------------------------------------
# evacuation via switching

def evac_map(entries: Mapping[Cell, Entry], n: int) -> dict[Cell, Entry]:
    """Switching evacuation of a canonical cell -> entry map over the
    alphabet 1..n: expel bands 1..n-1 outward in turn; the k-th expelled
    band is relabelled to letter n-k+1 (the auxiliary-alphabet
    bookkeeping)."""
    # one side throughout: the letters alone tell the bands apart
    state = {cell: (0, e.value, e.primed) for cell, e in entries.items()}
    out: dict[Cell, Entry] = {}
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            _switch_bands(state, 0, k, 0, j, None)
        for cell in [c for c, (_, lt, _) in state.items() if lt == k]:
            out[cell] = Entry(n - k + 1, state.pop(cell)[2])
    return canonical_map(out)


def _evac_core(t: ShiftedTableau) -> ShiftedTableau:
    if t.size == 0:
        return t
    return ShiftedTableau.from_map(evac_map(t.entry_map, t.n), t.n, t.shape)


def require_straight(shape: ShiftedSkewShape, name: str, skew_name: str) -> None:
    """The straight-shape check of the switching evacuations."""
    if not shape.straight:
        raise TableauError(f"{name} requires a straight shape; use {skew_name}")


def evac_switch(t: ShiftedTableau) -> ShiftedTableau:
    """Shifted evacuation of a straight tableau by sequential switching."""
    require_straight(t.shape, "evac_switch", "evac_skew")
    return _evac_core(t)


def evac_skew(t: ShiftedTableau) -> ShiftedTableau:
    """The skew extension of evacuation (generally not the reversal)."""
    return _evac_core(t)


def _evac_k(t: ShiftedTableau, k: int) -> ShiftedTableau:
    if not (1 <= k <= t.n):
        raise TableauError(f"invalid restriction index k={k} for n={t.n}")
    return act_on_band(t, 1, k, evac_map)


def evac_k_switch(t: ShiftedTableau, k: int) -> ShiftedTableau:
    """Evacuate the letters 1..k of a straight tableau, fixing the rest."""
    require_straight(t.shape, "evac_k_switch", "evac_k_skew")
    return _evac_k(t, k)


def evac_k_skew(t: ShiftedTableau, k: int) -> ShiftedTableau:
    """Skew variant of evac_k."""
    return _evac_k(t, k)


def evac_interval_skew(t: ShiftedTableau, i: int, j: int) -> ShiftedTableau:
    """Apply the skew evacuation to the letter band i..j, fixing the rest."""
    if not (1 <= i <= j <= t.n):
        raise TableauError(f"invalid interval [{i},{j}] for n={t.n}")
    return act_on_band(t, i, j, evac_map)
