"""Shared test helpers: an enumeration oracle independent of the library's
backtracking enumerator."""

import itertools

from shifted_tableaux.core import Entry, InvalidTableauError, ShiftedTableau


def brute_force_members(shape, n):
    """Raw per-row assignments filtered only by the row rules, combined across
    rows, then validated by the tableau constructor.  A row is joined to the
    rows above it only where each entry is at least the one above it: the
    column order is necessary for validity, so this drops no member."""
    alphabet = [Entry(v, p) for v in range(1, n + 1) for p in (True, False)]
    rows = sorted({r for r, _ in shape.cells})
    row_choices = []
    for r in rows:
        cells = sorted(shape.row_cells(r))
        good = []
        for combo in itertools.product(alphabet, repeat=len(cells)):
            if any(b < a for a, b in zip(combo, combo[1:])):
                continue
            primed = [e.value for e in combo if e.primed]
            if len(primed) != len(set(primed)):
                continue
            good.append(dict(zip(cells, combo)))
        row_choices.append(good)
    fillings = [{}]
    for good in row_choices:
        fillings = [above | row for above in fillings for row in good
                    if all(above.get((r - 1, c), e) <= e for (r, c), e in row.items())]
    members = set()
    for entries in fillings:
        try:
            members.add(ShiftedTableau.from_map(entries, n, shape))
        except InvalidTableauError:
            continue
    return members
