"""Shifted Bender-Knuth involutions t_i, promotion p_i and the derived
generators q_i and q_{i,j}.

t_i switches the letter bands (T^i, T^{i+1}) and then relabels by the
simple transposition of i and i+1 extended to primes; the result is
re-canonicalized if the prime toggle rule demands it.
"""

from __future__ import annotations

from typing import Mapping

from .core import Cell, Entry, ShiftedTableau, TableauError, canonical_map
from .switching import Band, TraceStep, _run


def bk_map(entries: Mapping[Cell, Entry], i: int,
           steps: list[TraceStep] | None = None) -> dict[Cell, Entry]:
    """t_i on a canonical cell -> entry map; each switch appends a
    TraceStep to steps unless it is None."""
    rest: dict[Cell, Entry] = {}
    a: Band = {}  # the i-band
    b: Band = {}  # the (i+1)-band
    for c, e in entries.items():
        if e.value == i:
            a[c] = e.primed
        elif e.value == i + 1:
            b[c] = e.primed
        else:
            rest[c] = e
    on_step = None
    if steps is not None:
        fixed = tuple(sorted(rest.items()))

        def on_step(rule: str) -> None:
            moving = {c: Entry(i, p) for c, p in a.items()}
            moving.update((c, Entry(i + 1, p)) for c, p in b.items())
            steps.append(TraceStep(rule, tuple(sorted(moving.items())), fixed))

    _run(a, b, on_step)
    # after the switch the a-cells hold i and the b-cells i+1; the
    # transposition of i and i+1 swaps them
    rest.update((c, Entry(i + 1, p)) for c, p in a.items())
    rest.update((c, Entry(i, p)) for c, p in b.items())
    return canonical_map(rest)


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
    """The t_k of word in turn on t's cell map; one tableau for the result."""
    entries = t.entry_map
    for k in word:
        entries = bk_map(entries, k)
    return ShiftedTableau.from_map(entries, t.n, t.shape)


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
