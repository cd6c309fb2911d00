"""Shifted Bender-Knuth involutions t_i, promotion p_i and the derived
generators q_i and q_{i,j}.

t_i switches the letter bands (T^i, T^{i+1}) and then relabels by the
simple transposition of i and i+1 extended to primes.  p_i, q_i and
q_{i,j} are words in the t_k, and bk_map is the one kernel of them all:
it splits a cell -> order key map into switching bands (cell -> primed
dicts) once, and for each t_k of a word moves the k-band through the
(k+1)-band with switching._run and swaps their letters.  A canonical
input stays canonical, as switching leaves each band's first reading
cell unprimed.  Each operator on one tableau is a range check and one
tableau built from bk_map's keys; bk_trace's steps are the only entries
it builds.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .core import Cell, ShiftedTableau, TableauError
from .switching import TraceStep, _bands, _merge, _run, _snapshot


def bk_map(entries: Mapping[Cell, int], word: Iterable[int],
           steps: list[TraceStep] | None = None) -> dict[Cell, int]:
    """The t_k of word in turn, in the order they act, on a canonical
    cell -> order key map; each switch appends a TraceStep to steps
    unless it is None.

    The map is split into letter bands once.  Each t_k runs the k-band
    through the (k+1)-band in place; after the switch the k-band's cells
    hold the lower letter and the (k+1)-band's the upper, and the
    transposition of the two letters swaps the bands, primes as _run
    leaves them.  One map is built from the bands at the end."""
    bands = _bands(entries.items())
    for k in word:
        a, b = bands.get(k, {}), bands.get(k + 1, {})
        on_step = None
        if steps is not None:
            fixed = _snapshot({v: band for v, band in bands.items() if v not in (k, k + 1)})

            def on_step(rule: str) -> None:
                steps.append(TraceStep(rule, _snapshot({k: a, k + 1: b}), fixed))

        _run(a, b, on_step)
        bands[k], bands[k + 1] = b, a
    return _merge(bands)


def bk_trace(t: ShiftedTableau, i: int
             ) -> tuple[ShiftedTableau, list[TraceStep]]:
    """t_i(T) together with the intermediate switch chain."""
    if not (1 <= i <= t.n - 1):
        raise TableauError(f"invalid Bender-Knuth index i={i} for n={t.n}")
    steps: list[TraceStep] = []
    return ShiftedTableau.from_keys(bk_map(t.key_map, (i,), steps), t.n, t.shape), steps


def bk(t: ShiftedTableau, i: int) -> ShiftedTableau:
    """The shifted Bender-Knuth involution t_i."""
    if not (1 <= i <= t.n - 1):
        raise TableauError(f"invalid Bender-Knuth index i={i} for n={t.n}")
    return ShiftedTableau.from_keys(bk_map(t.key_map, (i,)), t.n, t.shape)


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


def promotion(t: ShiftedTableau, i: int) -> ShiftedTableau:
    """p_i = t_i t_{i-1} ... t_1, rightmost factor applied first."""
    if not (1 <= i <= t.n - 1):
        raise TableauError(f"invalid promotion index i={i} for n={t.n}")
    return ShiftedTableau.from_keys(bk_map(t.key_map, promotion_word(i)), t.n, t.shape)


def q(t: ShiftedTableau, i: int) -> ShiftedTableau:
    """q_i = t_1 (t_2 t_1) ... (t_i ... t_1), rightmost factor first."""
    if not (1 <= i <= t.n - 1):
        raise TableauError(f"invalid index i={i} for n={t.n}")
    return ShiftedTableau.from_keys(bk_map(t.key_map, q_word(i)), t.n, t.shape)


def q_interval(t: ShiftedTableau, i: int, j: int) -> ShiftedTableau:
    """q_{i,j} = q_{j-1} q_{j-i} q_{j-1} for i < j (so q_{1,j} = q_{j-1})."""
    if not (1 <= i < j <= t.n):
        raise TableauError(f"invalid interval [{i},{j}] for n={t.n}")
    return ShiftedTableau.from_keys(bk_map(t.key_map, q_interval_word(i, j)), t.n, t.shape)
