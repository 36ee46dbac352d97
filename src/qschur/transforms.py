"""Bijections and moves connecting composition and partition fillings.

``pack_columns`` / ``unpack_columns`` exchange composition fillings of
gamma//beta with partition fillings of lam/mu, the underlying partitions
of gamma and beta, by sorting columns; a straight shape is the case of an
empty beta.
Insertion, rectification, and the (dual) Knuth moves live here too.
"""

from __future__ import annotations

from .compositions import Composition, require_composition, underlying_partition
from .tableaux import (
    COMPOSITION,
    PARTITION,
    Tableau,
    _columns,
    column_word,
    enumerate_standard,
    make_tableau,
    skew_shape,
    straight,
)

Word = tuple[int, ...]


def _require_straight(t: Tableau, kind: str) -> None:
    if t.shape.kind != kind or t.shape.inner != ():
        raise ValueError(f"expected a straight {kind}-shape tableau")


def _straight_tableau(kind: str, rows: list[list[int]]) -> Tableau:
    shape = straight(kind, tuple(len(row) for row in rows))
    return Tableau(shape, tuple(tuple(row) for row in rows))


def pack_columns(t: Tableau) -> Tableau:
    """Sort each column's skew entries into decreasing order, below the
    inner cells of the underlying partition of the inner shape.

    Sends a composition filling of outer//inner to a partition filling of
    the underlying partitions of outer and inner; inverse of
    :func:`unpack_columns` over ``inner``.
    """
    if t.shape.kind != COMPOSITION:
        raise ValueError("expected a composition-shape tableau")
    lam = underlying_partition(t.shape.outer)
    mu = underlying_partition(t.shape.inner)
    cols = [iter(sorted(col, reverse=True)) for col in _columns(t)]
    rows = tuple(
        tuple(None if c < skip else next(cols[c]) for c in range(length))
        for length, skip in zip(lam, mu + (0,) * (len(lam) - len(mu)))
    )
    return Tableau(skew_shape(PARTITION, lam, mu), rows)


def unpack_columns(t: Tableau, beta: Composition = ()) -> Tableau:
    """Rebuild the composition filling over ``beta`` whose sorted columns
    give ``t``, a partition filling over the underlying partition of ``beta``.

    The first column, sorted increasingly, seeds new rows above the rows of
    ``beta``; later columns are placed in decreasing order, each entry going
    to the highest row of the right current length whose last cell can sit
    to its left: an inner cell, or an entry at least as large.
    """
    if t.shape.kind != PARTITION:
        raise ValueError("expected a partition-shape tableau")
    require_composition(beta)
    if underlying_partition(beta) != t.shape.inner:
        raise ValueError(
            f"base {beta} does not have underlying partition {t.shape.inner}"
        )
    cols = _columns(t) or [[]]
    rows = [[e] for e in sorted(cols[0])] + [[None] * part for part in beta]
    for c, col in enumerate(cols[1:], start=2):
        for e in sorted(col, reverse=True):
            for row in rows:
                if len(row) == c - 1 and (row[-1] is None or row[-1] >= e):
                    row.append(e)
                    break
            else:
                raise ValueError(f"entry {e} in column {c} has no valid row")
    outer = tuple(map(len, rows))
    return Tableau(skew_shape(COMPOSITION, outer, beta), tuple(map(tuple, rows)))


def _row_insert(rows: list[list[int]], k: int) -> tuple[int, int]:
    """Row-insert ``k`` into reverse rows in place: in each row it bumps the
    first strictly smaller entry, or lands at the end.  Returns the new cell."""
    for r, row in enumerate(rows, start=1):
        for i, x in enumerate(row):
            if x < k:
                row[i], k = k, x
                break
        else:
            row.append(k)
            return r, len(row)
    rows.append([k])
    return len(rows), 1


def insert_ssrt(t: Tableau, k: int) -> tuple[Tableau, tuple[int, int]]:
    """Row-insert ``k`` (see :func:`_row_insert`) into a straight partition
    filling; return the new tableau and the cell that was created."""
    _require_straight(t, PARTITION)
    rows = [list(row) for row in t.rows]
    cell = _row_insert(rows, k)
    return _straight_tableau(PARTITION, rows), cell


def rsk(word: Word) -> tuple[Tableau, Tableau]:
    """Insert a word letter by letter into plain rows.

    Returns (P, Q), each built once at the end: P is the insertion tableau
    (a straight partition filling) and Q records, in the cell created at
    step t, the label t.
    """
    rows: list[list[int]] = []
    q_entries: dict[tuple[int, int], int] = {}
    for step, letter in enumerate(word, start=1):
        q_entries[_row_insert(rows, letter)] = step
    p = _straight_tableau(PARTITION, rows)
    return p, make_tableau(p.shape, q_entries)


def insertion_tableau(word: Word) -> Tableau:
    """The P tableau of :func:`rsk`, without a recording tableau."""
    rows: list[list[int]] = []
    for letter in word:
        _row_insert(rows, letter)
    return _straight_tableau(PARTITION, rows)


def insert_ssct(t: Tableau, k: int) -> Tableau:
    """Insert ``k`` into a straight composition filling.

    Cells of the enclosing rectangle (one column wider than the longest
    row) are scanned down successive columns from the right.  The carried
    value settles into the first empty end-of-row cell that keeps its row
    weakly decreasing, bumping smaller entries along the way; a carry that
    survives to column 1 starts a new row placed to keep the first column
    increasing.
    """
    _require_straight(t, COMPOSITION)
    rows = [list(row) for row in t.rows]
    m = max((len(row) for row in rows), default=0)
    z = k
    for j in range(m + 1, 1, -1):
        for row in rows:
            if len(row) == j - 1 and z <= row[j - 2]:
                row.append(z)
                return _straight_tableau(COMPOSITION, rows)
            if len(row) >= j and row[j - 1] < z <= row[j - 2]:
                row[j - 1], z = z, row[j - 1]
    p = 0
    while p < len(rows) and rows[p][0] < z:
        p += 1
    if p < len(rows) and rows[p][0] == z:
        raise ValueError(f"cannot start a new row: {z} repeats in the first column")
    rows.insert(p, [z])
    return _straight_tableau(COMPOSITION, rows)


def rect(t: Tableau) -> Tableau:
    """Rectify a composition filling to a straight one.

    Computed by inserting the column word into an empty partition filling
    and unpacking its columns.
    """
    if t.shape.kind != COMPOSITION:
        raise ValueError("rectification applies to composition-shape tableaux")
    return unpack_columns(insertion_tableau(column_word(t)))


def p_move(word: Word, k: int) -> Word:
    """Elementary Knuth move on positions k, k+1, k+2 (1-based).

    Raises ValueError when no move applies at that window, or when ``k`` is
    not an int (a bool is not one) in 1..len(word) - 2.
    """
    if not (type(k) is int and 1 <= k <= len(word) - 2):
        raise ValueError(f"window {k!r} out of range for word of length {len(word)}")
    x, y, z = word[k - 1], word[k], word[k + 1]
    out = list(word)
    if x < z < y or y < z < x:
        out[k - 1], out[k] = y, x
    elif y < x < z or z < x < y:
        out[k], out[k + 1] = z, y
    else:
        raise ValueError(f"no Knuth move applies at window {k} of {word}")
    return tuple(out)


def q_move(word: Word, k: int) -> Word:
    """Elementary dual Knuth move on the values k, k+1, k+2.

    Writing the positions of these three values left to right, the move
    exchanges the letters at the two outer positions; it applies only when
    the middle position does not hold k+1.  Raises ValueError when it does,
    or when ``k`` is not an int (a bool is not one).
    """
    if type(k) is not int:
        raise ValueError(f"value k must be an int, got {k!r}")
    pos: dict[int, int] = {}
    for i, x in enumerate(word):
        if x in (k, k + 1, k + 2):
            if x in pos:
                raise ValueError(f"value {x} repeats; dual move undefined")
            pos[x] = i
    if len(pos) != 3:
        raise ValueError(f"values {k}..{k + 2} must all occur in {word}")
    left, mid, right = sorted(pos.values())
    if word[mid] == k + 1:
        raise ValueError(f"dual move q_{k} does not apply to {word}")
    out = list(word)
    out[left], out[right] = out[right], out[left]
    return tuple(out)


def standard_words_of_shape(alpha: Composition) -> frozenset[Word]:
    """Column words of all standard composition fillings of ``alpha``."""
    return frozenset(
        column_word(t) for t in enumerate_standard(straight(COMPOSITION, alpha))
    )


def _move_component(start: Word, move, within=None) -> set[Word]:
    """The words reachable from ``start`` by ``move(word, k)`` at every
    window k (a move that does not apply raises ``ValueError``), staying
    inside the set ``within`` when it is given."""
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for k in range(1, len(w) - 1):
            try:
                nxt = move(w, k)
            except ValueError:
                continue
            if nxt not in seen and (within is None or nxt in within):
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def restricted_move_components(alpha: Composition) -> tuple[bool, int]:
    """Connectivity of the dual-move graph on the words of shape ``alpha``.

    Vertices are the column words of standard fillings of ``alpha``; edges
    are dual Knuth moves whose result stays in the vertex set.  Returns
    (connected, number of components).
    """
    unseen = set(standard_words_of_shape(alpha))
    components = 0
    while unseen:
        components += 1
        unseen -= _move_component(next(iter(unseen)), q_move, unseen)
    return components <= 1, components


def is_rigid_row_pair(t: Tableau, r: int) -> bool:
    """Whether rows r, r+1 form a rigid pair.

    The rows must have different lengths and every triple
    ((r, j), (r, j+1), (r+1, j)) for j up to the length of row r+1 must be
    rigid: the first triple's entries are three consecutive values, and
    later triples satisfy T(r+1, j) < T(r, j+1).  Raises ValueError unless
    ``r`` is an int (a bool is not one) naming a row above the last.
    """
    sh = t.shape
    if not (type(r) is int and 1 <= r < len(sh.outer)):
        raise ValueError(f"rows {r!r} and the next are not both present")
    if sh.outer[r - 1] == sh.outer[r]:
        return False
    for j in range(1, sh.outer[r] + 1):
        if j == 1:
            cells = [(r, 1), (r, 2), (r + 1, 1)]
            if not all(sh.in_skew(*cell) for cell in cells):
                return False
            vals = sorted(t.entry(*cell) for cell in cells)
            if not (len(set(vals)) == 3 and vals[2] - vals[0] == 2):
                return False
        else:
            if not (sh.in_skew(r + 1, j) and sh.in_skew(r, j + 1)):
                return False
            if not t.entry(r + 1, j) < t.entry(r, j + 1):
                return False
    return True
