"""Shared test helpers: an enumeration oracle independent of the library's
backtracking enumerator, a reference t_i on the public switch_pair,
reference forms of the tableau validator, the text and JSON renderers,
the cell-token parser and a family's layout strings, the member loop the engine's verification
lines are checked against, the preset families enumerated all at once,
and the step-by-step jeu de taquin (one validated tableau per slide) that
rectification and reversal are checked against."""

import itertools
import json

from shifted_tableaux.core import (Entry, InvalidTableauError, ShiftedSkewShape, ShiftedTableau,
                                   TableauError, destandardize, render_text, standardize,
                                   weight)
from shifted_tableaux.engine import (SKEW_MAX_CELLS, Counterexample, RelationSchema, Verdict,
                                     _skew_shapes, _straight_shapes)
from shifted_tableaux.enumeration import enumerate_tableaux
from shifted_tableaux.jdt import (SlideRecord, complement, inner_slide, outer_slide,
                                  rectify)
from shifted_tableaux.switching import PerforatedFilling, evac_skew, switch_pair


def layout_of(t):
    """The layout string a family stores for its member t: chr of each
    cell's order key at the cell's place in the global numbering, column
    by column, each from the top ((r, c) at c(c-1)/2 + r - 1), and chr(0)
    at every other place up to one past the last cell."""
    places = {(r, c): c * (c - 1) // 2 + r - 1 for r, c in t.shape.cells}
    chars = ["\0"] * (max(places.values(), default=-1) + 2)
    for cell, k in t.key_map.items():
        chars[places[cell]] = chr(k)
    return "".join(chars)


def key_positions(family):
    """Member key -> position, read off the members family.member builds."""
    return {t.key: x for x, t in enumerate(family)}


def row_cells(shape, r):
    """The cells of row r, sorted by column, picked out of the cell set."""
    return sorted(c for c in shape.cells if c[0] == r)


def brute_force_members(shape, n):
    """Raw per-row assignments filtered only by the row rules, combined across
    rows, then validated by the tableau constructor.  A row is joined to the
    rows above it only where each entry is at least the one above it: the
    column order is necessary for validity, so this drops no member."""
    alphabet = [Entry(v, p) for v in range(1, n + 1) for p in (True, False)]
    rows = sorted({r for r, _ in shape.cells})
    row_choices = []
    for r in rows:
        cells = row_cells(shape, r)
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


def reference_bk_map(entries, i):
    """t_i on a cell -> entry map through the public switch_pair: the i-
    and (i+1)-bands split off as perforated fillings and switched, the
    two letters swapped (the switched b-letters become i, the switched
    a-letters i+1, primes kept), and every other entry copied."""
    a = {c: e.primed for c, e in entries.items() if e.value == i}
    b = {c: e.primed for c, e in entries.items() if e.value == i + 1}
    new_b, new_a, _ = switch_pair(PerforatedFilling.from_map(i, a),
                                  PerforatedFilling.from_map(i + 1, b))
    out = {c: e for c, e in entries.items() if e.value not in (i, i + 1)}
    out.update((c, Entry(i, p)) for c, p in new_b.cells)
    out.update((c, Entry(i + 1, p)) for c, p in new_a.cells)
    return out


def reference_validate_filling(shape, items, n):
    """The tableau validator rule by rule: coverage through a cell -> key
    map, then the alphabet and the row and column order cell by cell,
    then both multiplicity rules and canonical form from seen sets over
    all the cells."""
    key = {cell: 2 * e.value - e.primed for cell, e in items}
    cells = shape.cells
    if key.keys() != cells:
        extra = set(key) - cells
        missing = cells - set(key)
        bad = (sorted(extra) or sorted(missing))[0]
        raise InvalidTableauError(
            f"filling does not cover shape exactly (extra={sorted(extra)}, missing={sorted(missing)})",
            cell=bad, rule="coverage")
    for cell, e in items:
        if e.value > n:
            raise InvalidTableauError(
                f"entry {e} at {cell} exceeds alphabet bound n={n}", cell=cell, rule="alphabet")
        r, c = cell
        k = key[cell]
        for nbr, what in (((r, c + 1), "row"), ((r + 1, c), "column")):
            if key.get(nbr, k) < k:
                raise InvalidTableauError(
                    f"{what} not weakly increasing at {cell}: {e} > {dict(items)[nbr]}",
                    cell=nbr, rule=f"{what}-order")
    seen_col = set()
    seen_row = set()
    # first[v]: the first cell holding v in the reading word (bottom row
    # first, each row left to right) and whether it is primed
    first = {}
    for (r, c), e in items:
        if e.primed:
            if (r, e.value) in seen_row:
                raise InvalidTableauError(
                    f"two {e.value}' in row {r}", cell=(r, c), rule="primed-row-multiplicity")
            seen_row.add((r, e.value))
        else:
            if (c, e.value) in seen_col:
                raise InvalidTableauError(
                    f"two {e.value} in column {c}", cell=(r, c), rule="column-multiplicity")
            seen_col.add((c, e.value))
        if e.value not in first or first[e.value][0][0] < r:
            first[e.value] = ((r, c), e.primed)
    primed_first = [(-r, c, v) for v, ((r, c), primed) in first.items() if primed]
    if primed_first:
        raise InvalidTableauError(
            f"first occurrence of letter {min(primed_first)[2]} in reading word is primed",
            rule="canonical-form")


def reference_token(e):
    """An entry's text, spelled from its value and prime."""
    return f"{e.value}'" if e.primed else str(e.value)


def reference_parse_entry(token):
    """A cell token's entry, parsed character by character with no
    lookup: surrounding blanks are dropped, one trailing ' or ′ primes,
    and the rest must be the decimal digits of a positive integer."""
    if not isinstance(token, str):
        raise TableauError(f"malformed cell token {token!r}")
    tok = token.strip()
    primed = tok.endswith("'") or tok.endswith("′")
    if primed:
        tok = tok[:-1]
    if not tok.isdecimal() or int(tok) < 1:
        raise TableauError(f"malformed cell token {token!r}")
    return Entry(int(tok), primed)


def reference_render_text(t):
    """The text form, cell by cell through a cell -> entry map."""
    entry_map = dict(t.entries)
    lines = []
    for r in range(1, len(t.shape.outer) + 1):
        length = t.shape.outer[r - 1]
        pad = t.shape.inner[r - 1] if r - 1 < len(t.shape.inner) else 0
        tokens = ["."] * pad
        tokens += [reference_token(entry_map[(r, c)]) for c in range(r + pad, r + length)]
        lines.append(" ".join(tokens))
    return "\n".join(lines)


def reference_to_json(t):
    """The JSON form, row by row through a cell -> entry map."""
    entry_map = dict(t.entries)
    rows = []
    for r in range(1, len(t.shape.outer) + 1):
        rows.append([reference_token(entry_map[c]) for c in row_cells(t.shape, r)])
    doc = {"outer": list(t.shape.outer), "inner": list(t.shape.inner),
           "rows": rows, "n": t.n}
    return json.dumps(doc)


def reference_member_loop(family, left, right):
    """Two tableau functions compared member by member, both sides of one
    member before the next, up to the first member where they differ,
    whose counterexample recomputes both sides: the verdict the engine's
    tables must give."""
    sides = ((left(t), right(t)) for t in family)
    x = next((x for x, (a, b) in enumerate(sides) if a != b), None)
    if x is None:
        return Verdict(True, len(family))
    t = family.member(x)
    return Verdict(False, x + 1, Counterexample(t, (), left(t), right(t), family.shape))


def reference_knuth_witness(family):
    """The skew Knuth-equivalence witness of non-relations on one family
    as a member loop: the rectifications of each member's switching
    evacuation and of its complement."""
    return reference_member_loop(family, lambda t: rectify(evac_skew(t))[0],
                                 lambda t: rectify(complement(t))[0])


def evac_routes_schema(n):
    """The evacuation-routes line of evac-agreement over 1..n as a schema:
    switching evacuation evac_n against eta:1,n, which on a straight
    shape is rectification after the complement; the empty word stands
    in for eta:1,1, and evac_0 is out of range."""
    return RelationSchema(f"evac{n}", f"eta:1,{n}" if n > 1 else "e",
                          name="evac via switching = rectify after complement")


def straight_families(n):
    """ShST(shape, n) for each straight preset shape, in the presets'
    order, as one list."""
    return [enumerate_tableaux(s, n) for s in _straight_shapes()]


def skew_families(n, max_cells=SKEW_MAX_CELLS, include_straight=False):
    """ShST(shape, n) for each skew preset shape of at most max_cells
    cells, the straight ones too if include_straight, in the presets'
    order, as one list."""
    return [enumerate_tableaux(s, n) for s in _skew_shapes(max_cells, include_straight)]


# -- the step-by-step jeu de taquin ---------------------------------------

def same(a, b):
    """Equal as tableaux and in their (outer, inner) representation."""
    return (a == b and render_text(a) == render_text(b)
            and (a.shape.outer, a.shape.inner) == (b.shape.outer, b.shape.inner))


def probing_inner_corners(shape):
    """Every empty position next to the region, with no region cell west
    or north of it, that extends the region to a valid shifted skew
    shape, found by trying to build that shape."""
    cells = shape.cells
    if not cells:
        return []
    out = []
    for r in range(1, max(r for r, _ in cells) + 1):
        for c in range(r, max(c for _, c in cells) + 1):
            p = (r, c)
            if p in cells:
                continue
            if ((r, c + 1) in cells or (r + 1, c) in cells) \
                    and (r, c - 1) not in cells and (r - 1, c) not in cells:
                try:
                    ShiftedSkewShape.from_cells(cells | {p})
                except TableauError:
                    continue
                out.append(p)
    return out


def standard_slide(std, cell, outer):
    """One slide of a standard tableau, rebuilt as a validated tableau."""
    entries = dict(std.entry_map)
    r, c = cell
    while True:
        if outer:
            west = entries.get((r, c - 1)) if c - 1 >= r else None
            north = entries.get((r - 1, c))
            if west is None and north is None:
                break
            if north is None or (west is not None and west > north):
                entries[(r, c)] = entries.pop((r, c - 1))
                c -= 1
            else:
                entries[(r, c)] = entries.pop((r - 1, c))
                r -= 1
        else:
            east = entries.get((r, c + 1))
            south = entries.get((r + 1, c))
            if east is None and south is None:
                break
            if south is None or (east is not None and east < south):
                entries[(r, c)] = entries.pop((r, c + 1))
                c += 1
            else:
                entries[(r, c)] = entries.pop((r + 1, c))
                r += 1
    return ShiftedTableau.from_map(entries, std.n), (r, c)


def reference_slide(t, cell, outer):
    """standardize -> slide -> destandardize, a tableau at every stage."""
    slid, end = standard_slide(standardize(t), cell, outer)
    return destandardize(slid, weight(t)), end


def reference_rectify(t, strategy):
    """Slide by slide; the first slide is also checked against inner_slide."""
    cur, record = t, []
    while corners := probing_inner_corners(cur.shape):
        corner = min(corners) if strategy == "first" else max(corners)
        nxt, exit_cell = reference_slide(cur, corner, outer=False)
        if not record:
            assert same(inner_slide(cur, corner), nxt)
        record.append((corner, exit_cell))
        cur = nxt
    return cur, SlideRecord(tuple(record))


def reference_reversal(t, strategy="first"):
    """Slide by slide, rectification and evacuation included, each
    rectification picking its corners by strategy; the first outer slide
    is also checked against outer_slide."""
    rect, record = reference_rectify(t, strategy)
    cur = reference_rectify(complement(rect), strategy)[0]
    for k, (_, exit_cell) in enumerate(reversed(record.slides)):
        nxt = reference_slide(cur, exit_cell, outer=True)[0]
        if k == 0:
            assert same(outer_slide(cur, exit_cell), nxt)
        cur = nxt
    return cur
