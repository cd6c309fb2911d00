"""Shifted Bender-Knuth involutions t_i, promotion p_i and the derived
generators q_i and q_{i,j}.

t_i switches the letter bands (T^i, T^{i+1}) and then relabels by the
simple transposition of i and i+1 extended to primes.  Everything runs
on switching bands (cell -> primed dicts): t_i moves the two bands
through each other with switching._run, swaps their letters and unprimes
the first reading cell of each, which is all canonical form asks of a
canonical input; the composites apply their t_k to one set of bands.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .core import Cell, Entry, ShiftedTableau, TableauError
from .switching import Band, TraceStep, _bands, _merge, _relabel, _run, _unprime_first


def _switch(a: Band, b: Band, on_step: Callable[[str], None] | None = None
            ) -> tuple[Band, Band]:
    """t on the bands a and b of two adjacent letters, in place: move a
    through b, then unprime the first reading cell of each.  Returns the
    lower letter's band and the upper's: after the switch the a-cells
    hold the lower letter and the b-cells the upper, and the
    transposition of the two letters swaps them."""
    _run(a, b, on_step)
    _unprime_first(a)
    _unprime_first(b)
    return b, a


def bk_map(entries: Mapping[Cell, Entry], i: int,
           steps: list[TraceStep] | None = None) -> dict[Cell, Entry]:
    """t_i on a canonical cell -> entry map; each switch appends a
    TraceStep to steps unless it is None.

    Only the i- and (i+1)-bands are split off and switched; every other
    entry is copied as it is.  Canonical form can change only in the two
    switched letters, since the input is canonical, so each gets its
    first reading cell unprimed and no other cell is looked at."""
    a: Band = {}  # the i-band
    b: Band = {}  # the (i+1)-band
    for c, e in entries.items():
        if e.value == i:
            a[c] = e.primed
        elif e.value == i + 1:
            b[c] = e.primed
    on_step = None
    if steps is not None:
        fixed = tuple(sorted((c, e) for c, e in entries.items()
                             if e.value not in (i, i + 1)))

        def on_step(rule: str) -> None:
            moving = {c: Entry(i, p) for c, p in a.items()}
            moving.update((c, Entry(i + 1, p)) for c, p in b.items())
            steps.append(TraceStep(rule, tuple(sorted(moving.items())), fixed))

    lower, upper = _switch(a, b, on_step)
    out = dict(entries)
    _relabel(out, lower, i)
    _relabel(out, upper, i + 1)
    return out


def _bk(t: ShiftedTableau, i: int, steps: list[TraceStep] | None
        ) -> ShiftedTableau:
    if not (1 <= i <= t.n - 1):
        raise TableauError(f"invalid Bender-Knuth index i={i} for n={t.n}")
    return ShiftedTableau.from_map(bk_map(t.entry_map, i, steps), t.n, t.shape)


def bk_trace(t: ShiftedTableau, i: int
             ) -> tuple[ShiftedTableau, list[TraceStep]]:
    """t_i(T) together with the intermediate switch chain."""
    steps: list[TraceStep] = []
    return _bk(t, i, steps), steps


def bk(t: ShiftedTableau, i: int) -> ShiftedTableau:
    """The shifted Bender-Knuth involution t_i."""
    return _bk(t, i, None)


# The composite generators as words in the t_k, listed in the order the
# factors act (rightmost factor of the written product first).  Both the
# operators below and the engine's generator table fold over these
# sequences.

def promotion_word(i: int) -> tuple[int, ...]:
    """p_i = t_i t_{i-1} ... t_1."""
    return tuple(range(1, i + 1))


def q_word(i: int) -> tuple[int, ...]:
    """q_i = t_1 (t_2 t_1) ... (t_i ... t_1)."""
    return tuple(k for block in range(i, 0, -1) for k in range(1, block + 1))


def q_interval_word(i: int, j: int) -> tuple[int, ...]:
    """q_{i,j} = q_{j-1} q_{j-i} q_{j-1} for i < j (so q_{1,j} = q_{j-1})."""
    if i == 1:
        return q_word(j - 1)
    return q_word(j - 1) + q_word(j - i) + q_word(j - 1)


def _fold(t: ShiftedTableau, word: tuple[int, ...]) -> ShiftedTableau:
    """The t_k of word in turn on t's letter bands: t is split into bands
    once, each t_k switches the bands k and k+1 in place and swaps their
    letters, and one tableau is built from the bands at the end."""
    bands = _bands(t.entries)
    for k in word:
        bands[k], bands[k + 1] = _switch(bands.get(k, {}), bands.get(k + 1, {}))
    return ShiftedTableau.from_map(_merge(bands), t.n, t.shape)


def promotion(t: ShiftedTableau, i: int) -> ShiftedTableau:
    """p_i = t_i t_{i-1} ... t_1, rightmost factor applied first."""
    if not (1 <= i <= t.n - 1):
        raise TableauError(f"invalid promotion index i={i} for n={t.n}")
    return _fold(t, promotion_word(i))


def q(t: ShiftedTableau, i: int) -> ShiftedTableau:
    """q_i = t_1 (t_2 t_1) ... (t_i ... t_1), rightmost factor first."""
    if not (1 <= i <= t.n - 1):
        raise TableauError(f"invalid index i={i} for n={t.n}")
    return _fold(t, q_word(i))


def q_interval(t: ShiftedTableau, i: int, j: int) -> ShiftedTableau:
    """q_{i,j} = q_{j-1} q_{j-i} q_{j-1} for i < j (so q_{1,j} = q_{j-1})."""
    if not (1 <= i < j <= t.n):
        raise TableauError(f"invalid interval [{i},{j}] for n={t.n}")
    return _fold(t, q_interval_word(i, j))
