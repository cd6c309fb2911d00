"""Independent checks of tableau text, written without the library.

A tableau is written one row per line (or rows separated by ' / '), top
row first; row r of a shifted shape starts at column r, and leading '.'
tokens mark cells of the inner shape.  A letter k' is primed.  The rules
below are the library's own definition of a valid tableau in canonical
form, restated so that the benchmark can judge outputs on any seed.
"""

from __future__ import annotations

Cell = tuple[int, int]
# an entry is (value, primed); its order key puts 1' < 1 < 2' < 2 < ...
Entry = tuple[int, bool]


class CheckError(ValueError):
    """An output is not what the query must produce."""


def key(e: Entry) -> int:
    return 2 * e[0] - (1 if e[1] else 0)


def parse(text: str) -> dict[Cell, Entry]:
    """Cells of a tableau written as text; inner cells are left out."""
    cells: dict[Cell, Entry] = {}
    rows = [ln.split() for ln in text.replace(" / ", "\n").splitlines()]
    for r, tokens in enumerate(rows, start=1):
        for offset, tok in enumerate(tokens):
            if tok == ".":
                continue
            primed = tok.endswith("'")
            digits = tok[:-1] if primed else tok
            if not digits.isdigit() or int(digits) < 1:
                raise CheckError(f"bad token {tok!r}")
            cells[(r, r + offset)] = (int(digits), primed)
    return cells


def token(e: Entry) -> str:
    return f"{e[0]}'" if e[1] else str(e[0])


def render(cells: dict[Cell, Entry], pads: dict[int, int]) -> str:
    """Text of a filling, rows joined by ' / '; pads[r] dots start row r."""
    rows = sorted({r for r, _ in cells} | set(pads))
    out = []
    for r in range(1, max(rows) + 1):
        cols = sorted(c for rr, c in cells if rr == r)
        tokens = ["."] * pads.get(r, 0) + [token(cells[(r, c)]) for c in cols]
        out.append(" ".join(tokens))
    return " / ".join(out)


def reading_order(cells) -> list[Cell]:
    """Bottom row first, each row left to right."""
    return sorted(cells, key=lambda rc: (-rc[0], rc[1]))


def validate(cells: dict[Cell, Entry], n: int) -> None:
    """Raise CheckError unless the filling is a shifted semistandard
    tableau over letters 1..n in canonical form."""
    for (r, c) in cells:
        if c < r:
            raise CheckError(f"cell {(r, c)} left of the diagonal")
    for r in {r for r, _ in cells}:
        cols = sorted(c for rr, c in cells if rr == r)
        if cols != list(range(cols[0], cols[-1] + 1)):
            raise CheckError(f"row {r} is not contiguous")
    seen_row: set[tuple[int, int]] = set()
    seen_col: set[tuple[int, int]] = set()
    for (r, c), e in cells.items():
        if not 1 <= e[0] <= n:
            raise CheckError(f"entry {e} at {(r, c)} outside 1..{n}")
        for nbr in ((r, c + 1), (r + 1, c)):
            if nbr in cells and key(cells[nbr]) < key(e):
                raise CheckError(f"order broken between {(r, c)} and {nbr}")
        if e[1]:
            if (r, e[0]) in seen_row:
                raise CheckError(f"two {e[0]}' in row {r}")
            seen_row.add((r, e[0]))
        else:
            if (c, e[0]) in seen_col:
                raise CheckError(f"two {e[0]} in column {c}")
            seen_col.add((c, e[0]))
    first: set[int] = set()
    for cell in reading_order(cells):
        value, primed = cells[cell]
        if value not in first:
            first.add(value)
            if primed:
                raise CheckError(f"first {value} in the reading word is primed")


def weight(cells: dict[Cell, Entry], n: int) -> list[int]:
    counts = [0] * n
    for value, _ in cells.values():
        counts[value - 1] += 1
    return counts


def is_straight(cells: dict[Cell, Entry]) -> bool:
    """Every row r starts on the diagonal and the rows strictly shorten."""
    rows = sorted({r for r, _ in cells})
    if rows != list(range(1, len(rows) + 1)):
        return False
    lengths = []
    for r in rows:
        cols = sorted(c for rr, c in cells if rr == r)
        if cols[0] != r:
            return False
        lengths.append(len(cols))
    return all(a > b for a, b in zip(lengths, lengths[1:]))


# ---------------------------------------------------------------------------
# how each generator acts on the weight vector

def _reverse(w: list[int], i: int, j: int) -> list[int]:
    return w[:i - 1] + w[i - 1:j][::-1] + w[j:]


def act(symbol: tuple[str, int, int], w: list[int]) -> list[int]:
    """Weight of g(T) from the weight of T, for one generator g.

    t_i and sigma_i swap letters i and i+1; p_i = t_i ... t_1; q_i
    reverses 1..i+1; q:i,j, eta:i,j and evacs:i,j reverse i..j; evacs_k
    reverses 1..k.
    """
    kind, i, j = symbol
    if kind in ("t", "sigma"):
        return _reverse(w, i, i + 1)
    if kind == "p":
        for k in range(1, i + 1):
            w = _reverse(w, k, k + 1)
        return w
    if kind == "q":
        return _reverse(w, 1, i + 1)
    if kind in ("qij", "eta", "evacsij"):
        return _reverse(w, i, j)
    if kind == "evacs":
        return _reverse(w, 1, i)
    raise CheckError(f"no weight rule for generator {kind}")


def act_word(word: list[tuple[str, int, int]], w: list[int]) -> list[int]:
    """The rightmost symbol acts first."""
    for symbol in reversed(word):
        w = act(symbol, w)
    return w


def symbol_text(symbol: tuple[str, int, int]) -> str:
    kind, i, j = symbol
    if kind in ("qij", "eta", "evacsij"):
        base = {"qij": "q", "eta": "eta", "evacsij": "evacs"}[kind]
        return f"{base}:{i},{j}"
    return f"{kind}{i}"
