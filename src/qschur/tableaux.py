"""Skew diagrams and reverse tableau fillings on them.

Two diagram kinds share one interface:

* ``"partition"``: outer/inner are partitions, the inner diagram sits in
  the top-left corner (rows aligned at the top).
* ``"composition"``: outer/inner are compositions, the inner diagram sits
  in the bottom-left corner — inner row ``i`` occupies outer row
  ``len(outer) - len(inner) + i``.

Cells are (row, column), 1-based, English orientation (row 1 on top).
Fillings are *reverse*: rows weakly decrease left to right.  On partition
shapes columns strictly decrease top to bottom; on composition shapes the
first column strictly increases and a triple rule governs the rest.

A :class:`Tableau` keeps its filling as rows padded with ``None`` on the
inner cells, and the operations here read fillings from those rows and
build new ones as rows.  Standard fillings of both kinds come from one
chain walk (:mod:`qschur.compositions`: the composition poset for
composition shapes, Young's lattice for partition shapes) and one row
builder, ``_grow_rows``; semistandard fillings of either kind are standard
fillings relabelled at every content refining their descent composition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator

from .compositions import (
    PREPEND,
    ChainStep,
    Composition,
    _chains,
    _young_covers,
    apply_step,
    comp_of_set,
    down_covers,
    interval_chains,
    is_composition,
    is_contained,
    is_partition,
    is_rev_contained,
    is_weak_composition,
    refines,
    require_composition,
)

Cell = tuple[int, int]

PARTITION = "partition"
COMPOSITION = "composition"


@dataclass(frozen=True)
class SkewShape:
    """A skew diagram ``outer/inner`` of one kind.

    ``outer`` and ``inner`` must be tuples of positive ints (a list is
    rejected with ``ValueError``): shapes are hashable, and
    :func:`enumerate_standard` below is memoized on them.
    """

    kind: str
    outer: Composition
    inner: Composition = ()

    def __post_init__(self) -> None:
        if self.kind not in (PARTITION, COMPOSITION):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        for name, comp in (("outer", self.outer), ("inner", self.inner)):
            if not (isinstance(comp, tuple) and is_composition(comp)):
                raise ValueError(f"{name} shape {comp} is not a composition")
        if self.kind == PARTITION:
            if not (is_partition(self.outer) and is_partition(self.inner)):
                raise ValueError("partition-kind shapes need partition rows")
            if not is_contained(self.inner, self.outer):
                raise ValueError(f"{self.inner} does not fit inside {self.outer}")
        else:
            if not is_rev_contained(self.inner, self.outer):
                raise ValueError(
                    f"{self.inner} does not fit bottom-aligned inside {self.outer}"
                )

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def inner_in_row(self, r: int) -> int:
        """Number of inner cells in outer row ``r``."""
        if self.kind == PARTITION:
            return self.inner[r - 1] if r <= len(self.inner) else 0
        offset = len(self.outer) - len(self.inner)
        return self.inner[r - 1 - offset] if r > offset else 0

    def in_outer(self, r: int, c: int) -> bool:
        return 1 <= r <= len(self.outer) and 1 <= c <= self.outer[r - 1]

    def in_inner(self, r: int, c: int) -> bool:
        return self.in_outer(r, c) and c <= self.inner_in_row(r)

    def in_skew(self, r: int, c: int) -> bool:
        return self.in_outer(r, c) and c > self.inner_in_row(r)

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """Skew cells in row-major order."""
        return tuple(
            (r, c)
            for r in range(1, len(self.outer) + 1)
            for c in range(self.inner_in_row(r) + 1, self.outer[r - 1] + 1)
        )

    def is_uniform(self) -> bool:
        """True if every row whose first-column cell is a skew cell has equal length.

        Only composition-kind shapes carry this notion; the rows in question
        are the top ``len(outer) - len(inner)`` rows.
        """
        if self.kind != COMPOSITION:
            raise ValueError("uniformity is defined for composition-kind shapes")
        offset = len(self.outer) - len(self.inner)
        return len({self.outer[i] for i in range(offset)}) <= 1


def skew_shape(kind: str, outer: Composition, inner: Composition = ()) -> SkewShape:
    """The shape ``SkewShape(kind, outer, inner)``, built and validated once
    per triple: equal triples return the identical object.

    Anything but a ``str`` kind and tuples of plain ints goes straight to
    ``SkewShape``, uncached, so that it raises the same ``ValueError`` (a
    list is unhashable, and ``(1.0,)`` or ``(True,)`` would find the entry
    cached for ``(1,)``).
    """
    if type(kind) is str and _plain_ints(outer) and _plain_ints(inner):
        return _skew_shape(kind, outer, inner)
    return SkewShape(kind, outer, inner)


def _plain_ints(comp) -> bool:
    return type(comp) is tuple and {int}.issuperset(map(type, comp))


@cache
def _skew_shape(kind: str, outer: Composition, inner: Composition) -> SkewShape:
    """:func:`skew_shape` on a checked triple, memoized."""
    return SkewShape(kind, outer, inner)


def straight(kind: str, outer: Composition) -> SkewShape:
    return skew_shape(kind, outer)


def strip_kind(shape: SkewShape) -> tuple[bool, bool]:
    """(horizontal, vertical): at most one skew cell per column / per row."""
    cols = Counter(c for _, c in shape.cells)
    rows = Counter(r for r, _ in shape.cells)
    horizontal = all(v <= 1 for v in cols.values())
    vertical = all(v <= 1 for v in rows.values())
    return horizontal, vertical


@dataclass(frozen=True)
class Tableau:
    """A filling of a skew shape; ``rows`` cover the full outer diagram.

    Inner cells hold ``None``, skew cells hold positive integers.  Rows are
    padded to the outer row lengths so two tableaux are equal exactly when
    their shapes and fillings agree, and a skew cell is an in-range position
    of ``rows`` that does not hold ``None``: :meth:`entry` reads one,
    :meth:`entries` reads them all from the rows.
    """

    shape: SkewShape
    rows: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        outer = self.shape.outer
        if len(self.rows) != len(outer):
            raise ValueError("row count does not match outer shape")
        for r, row in enumerate(self.rows, start=1):
            if len(row) != outer[r - 1]:
                raise ValueError(f"row {r} has length {len(row)}, expected {outer[r - 1]}")
            boundary = self.shape.inner_in_row(r)
            for c, x in enumerate(row, start=1):
                if c <= boundary:
                    if x is not None:
                        raise ValueError(f"inner cell ({r}, {c}) must be empty")
                elif not (isinstance(x, int) and x >= 1):
                    raise ValueError(f"cell ({r}, {c}) needs a positive integer, got {x!r}")

    @property
    def n(self) -> int:
        return self.shape.size

    def entry(self, r: int, c: int) -> int:
        row = self.rows[r - 1] if 1 <= r <= len(self.rows) else ()
        x = row[c - 1] if 1 <= c <= len(row) else None
        if x is None:
            raise KeyError(f"({r}, {c}) is not a skew cell")
        return x

    def entries(self) -> dict[Cell, int]:
        """Every skew cell with its entry, in row-major order (the order of
        ``shape.cells``), read off the padded rows."""
        return {
            (r, c): x
            for r, row in enumerate(self.rows, start=1)
            for c, x in enumerate(row, start=1)
            if x is not None
        }

    def is_standard(self) -> bool:
        return sorted(self.entries().values()) == list(range(1, self.n + 1))

    def sort_key(self):
        rows = tuple(tuple(0 if x is None else x for x in row) for row in self.rows)
        return (self.shape.kind, self.shape.outer, self.shape.inner, rows)


def make_tableau(shape: SkewShape, entries: dict[Cell, int]) -> Tableau:
    """Fill ``shape`` row by row: ``None`` on the inner cells of each row,
    then ``entries``, which must cover the skew cells exactly."""
    if set(entries) != set(shape.cells):
        raise ValueError("entries must cover the skew cells exactly")
    rows = []
    for r, length in enumerate(shape.outer, start=1):
        skip = shape.inner_in_row(r)
        rows.append((None,) * skip + tuple(entries[(r, c)] for c in range(skip + 1, length + 1)))
    return Tableau(shape, tuple(rows))


def from_rows(kind: str, rows) -> Tableau:
    """Build a tableau from row lists, inferring the shape.

    ``None`` marks inner cells; they must form a prefix of each row, a
    bottom-aligned block of rows for composition kind and a top-aligned
    block for partition kind.
    """
    rows = tuple(tuple(row) for row in rows)
    outer = tuple(len(row) for row in rows)
    counts = []
    for row in rows:
        c = 0
        while c < len(row) and row[c] is None:
            c += 1
        if any(x is None for x in row[c:]):
            raise ValueError("inner cells must form a prefix of each row")
        counts.append(c)
    marked = [i for i, c in enumerate(counts) if c]
    if kind == COMPOSITION:
        first = marked[0] if marked else len(counts)
        if any(c == 0 for c in counts[first:]):
            raise ValueError("inner rows must be the bottom rows")
        inner = tuple(counts[first:])
    else:
        last = marked[-1] if marked else -1
        if any(c == 0 for c in counts[: last + 1]):
            raise ValueError("inner rows must be the top rows")
        inner = tuple(counts[: last + 1])
    return Tableau(skew_shape(kind, outer, inner), rows)


def _row_runs_ok(t: Tableau) -> bool:
    """Every row weakly decreases along its skew cells (the ``None`` of the
    inner cells form a prefix, which ``Tableau`` checks)."""
    for row in t.rows:
        if any(a is not None and a < b for a, b in zip(row, row[1:])):
            return False
    return True


def _triple_rule_ok(t: Tableau) -> bool:
    """The composition-shape column rule.

    A cell (i, k) of the outer diagram attacks a skew cell (j, k+1) below
    it (i < j) provided (i, k+1) is not an inner cell.  The attack fires
    when (i, k) is inner or when T(j, k+1) <= T(i, k); a firing attack
    demands that (i, k+1) is a skew cell with a strictly larger entry than
    T(j, k+1).
    """
    sh = t.shape
    for (j, c) in sh.cells:
        if c < 2:
            continue
        k = c - 1
        for i in range(1, j):
            if not sh.in_outer(i, k) or sh.in_inner(i, k + 1):
                continue
            fires = sh.in_inner(i, k) or t.entry(j, c) <= t.entry(i, k)
            if fires:
                if not sh.in_skew(i, k + 1) or not t.entry(j, c) < t.entry(i, k + 1):
                    return False
    return True


def validate(t: Tableau) -> str:
    """Classify a filling: SSRT/SRT on partition shapes, SSCT/SCT on
    composition shapes, else ``"invalid"``."""
    sh = t.shape
    if not _row_runs_ok(t):
        return "invalid"
    if sh.kind == PARTITION:
        for (r, c) in sh.cells:
            if sh.in_skew(r + 1, c) and not t.entry(r, c) > t.entry(r + 1, c):
                return "invalid"
        return "SRT" if t.is_standard() else "SSRT"
    first_col = [t.entry(r, 1) for r in range(1, len(sh.outer) + 1) if sh.in_skew(r, 1)]
    if any(a >= b for a, b in zip(first_col, first_col[1:])):
        return "invalid"
    if not _triple_rule_ok(t):
        return "invalid"
    return "SCT" if t.is_standard() else "SSCT"


def content(t: Tableau, max_entry: int | None = None) -> tuple[int, ...]:
    """Multiplicity of each value 1..max as a weak composition.

    ``max_entry``, when given, must be an int (a bool is not one) at least
    the largest entry, else ``ValueError``.
    """
    counts = Counter(t.entries().values())
    top = max(counts, default=0)
    if max_entry is not None:
        if type(max_entry) is not int:
            raise ValueError(f"max_entry must be an int, got {max_entry!r}")
        if top > max_entry:
            raise ValueError(f"entry {top} exceeds max_entry={max_entry}")
        top = max_entry
    return tuple(counts.get(v, 0) for v in range(1, top + 1))


def _columns(t: Tableau) -> list[list[int]]:
    """The entries of each column top to bottom, column 1 first; a column
    without skew cells is an empty list."""
    cols: list[list[int]] = [[] for _ in range(max(t.shape.outer, default=0))]
    for row in t.rows:
        for c, x in enumerate(row):
            if x is not None:
                cols[c].append(x)
    return cols


def column_word(t: Tableau) -> tuple[int, ...]:
    """Entries of each column in increasing order, columns left to right."""
    return tuple(x for col in _columns(t) for x in sorted(col))


def _positions(t: Tableau) -> dict[int, Cell]:
    pos = {}
    for cell, v in t.entries().items():
        if v in pos:
            raise ValueError("tableau is not standard (repeated entry)")
        pos[v] = cell
    return pos


def descents(t: Tableau) -> frozenset[int]:
    """{i : i+1 sits in a column weakly right of i} for a standard filling."""
    pos = _positions(t)
    if sorted(pos) != list(range(1, t.n + 1)):
        raise ValueError("descents need a standard tableau")
    return frozenset(
        i for i in range(1, t.n) if pos[i + 1][1] >= pos[i][1]
    )


def descent_composition(t: Tableau) -> Composition:
    return comp_of_set(descents(t), t.n)


def colseq(t: Tableau) -> tuple[int, ...]:
    """Columns of the entries n, n-1, ..., 1 of a standard filling."""
    pos = _positions(t)
    if sorted(pos) != list(range(1, t.n + 1)):
        raise ValueError("colseq needs a standard tableau")
    return tuple(pos[k][1] for k in range(t.n, 0, -1))


def standardize(t: Tableau) -> tuple[Tableau, tuple[int, ...]]:
    """Relabel entries 1..n by value, ties broken right-to-left.

    Returns the standard tableau and the original content; among equal
    entries the one in the larger column receives the smaller label, which
    is the unique choice keeping composition fillings valid.
    """
    order = sorted(t.entries().items(), key=lambda item: (item[1], -item[0][1]))
    labels = {cell: i for i, (cell, _) in enumerate(order, start=1)}
    return make_tableau(t.shape, labels), content(t)


def destandardize(that: Tableau, tau: tuple[int, ...]) -> Tableau:
    """Inverse of :func:`standardize` at a coarser content ``tau``.

    ``tau`` must be a weak composition of n refining the descent
    composition of ``that``; standard label p becomes the value v with
    tau_1 + ... + tau_{v-1} < p <= tau_1 + ... + tau_v.  Anything else,
    including a tuple with a negative or non-int part, raises ``ValueError``.
    """
    if not (isinstance(tau, tuple) and is_weak_composition(tau)):
        raise ValueError(f"content {tau!r} is not a tuple of non-negative ints")
    if sum(tau) != that.n:
        raise ValueError(f"content {tau} has weight {sum(tau)}, need {that.n}")
    if not refines(tau, descent_composition(that)):
        raise ValueError(f"{tau} does not refine the descent composition")
    return _relabel(that, tau)


def _relabel(that: Tableau, tau: tuple[int, ...]) -> Tableau:
    """Replace each standard label of ``that`` by its value under content
    ``tau``, through a label-to-value table; ``tau`` is not checked."""
    table = [0]
    for v, part in enumerate(tau, start=1):
        table += [v] * part
    rows = tuple(tuple(x if x is None else table[x] for x in row) for row in that.rows)
    return Tableau(that.shape, rows)


def canonical_sct(alpha: Composition) -> Tableau:
    """The standard composition filling of ``alpha`` with descent
    composition ``alpha``: cells numbered n..1 bottom row first, each row
    left to right."""
    rows: list[tuple[int, ...]] = []
    v = sum(alpha)
    for part in reversed(alpha):
        rows.append(tuple(range(v, v - part, -1)))
        v -= part
    rows.reverse()
    return Tableau(straight(COMPOSITION, alpha), tuple(rows))


def canonical_srt(lam: Composition) -> Tableau:
    """The standard reverse filling of partition ``lam`` numbered n..1 along
    rows, top row first."""
    rows: list[tuple[int, ...]] = []
    v = sum(lam)
    for part in lam:
        rows.append(tuple(range(v, v - part, -1)))
        v -= part
    return Tableau(straight(PARTITION, lam), tuple(rows))


def chain_to_tableau(beta: Composition, chain: tuple[ChainStep, ...]) -> Tableau:
    """The standard composition tableau encoding a saturated chain.

    The chain grows ``beta`` one cell at a time; the cell added at step t
    (1-based) receives entry n - t + 1.  Raises if any step is illegal.
    """
    require_composition(beta)
    current = beta
    for step in chain:
        current = apply_step(current, step)
    return _grow_rows(COMPOSITION, beta, chain)


def _grow_rows(kind: str, inner: Composition, chain: tuple[ChainStep, ...]) -> Tableau:
    """The standard filling grown from ``inner`` along a legal chain: the cell
    added at step t gets n - t + 1.  ``PREPEND`` opens a top row, and a step
    past the last row opens a bottom row."""
    n = len(chain)
    rows: list[list[int | None]] = [[None] * part for part in inner]
    for t, step in enumerate(chain, start=1):
        if step == PREPEND:
            rows.insert(0, [])
        elif step.row > len(rows):
            rows.append([])
        rows[step.row - 1].append(n - t + 1)
    outer = tuple(map(len, rows))
    return Tableau(skew_shape(kind, outer, inner), tuple(map(tuple, rows)))


def tableau_to_chain(t: Tableau) -> tuple[ChainStep, ...]:
    """Inverse of :func:`chain_to_tableau` for a standard composition filling."""
    if validate(t) != "SCT":
        raise ValueError("chain extraction needs an SCT")
    pos = _positions(t)
    outer = t.shape.outer
    current = outer
    steps_removal: list[ChainStep] = []
    for k in range(1, t.n + 1):
        r, c = pos[k]
        row = r - (len(outer) - len(current))
        wanted = PREPEND if c == 1 else ChainStep("extend-row", row, c)
        legal = dict((step, smaller) for smaller, step in down_covers(current))
        if wanted not in legal or (c == 1 and row != 1):
            raise ValueError(f"entry {k} at cell ({r}, {c}) cannot be removed")
        steps_removal.append(wanted)
        current = legal[wanted]
    if current != t.shape.inner:
        raise ValueError("removal did not land on the inner shape")
    return tuple(reversed(steps_removal))


@cache
def enumerate_standard(shape: SkewShape) -> tuple[Tableau, ...]:
    """All standard reverse fillings of ``shape``, sorted canonically: one
    per chain of the interval, in Young's lattice for partition shapes.

    Memoized per shape: every call on an equal shape returns the same
    tuple of frozen tableaux.
    """
    inner, outer = shape.inner, shape.outer
    if shape.kind == COMPOSITION:
        chains = interval_chains(inner, outer)
    else:
        widths = outer + (0,)  # no cell fits in a row below the outer shape

        def up(lam: Composition):
            return [(b, s) for b, s in _young_covers(lam) if s.column <= widths[s.row - 1]]

        chains = _chains(inner, outer, up)
    fillings = (_grow_rows(shape.kind, inner, chain) for chain in chains)
    return tuple(sorted(fillings, key=Tableau.sort_key))


def _contents(cuts: tuple[int, ...], n: int, length: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``n`` with ``length`` parts whose partial sums
    pass through every point of the increasing tuple ``cuts`` (a subset of
    [n-1]), in the order of :func:`~qschur.compositions.weak_compositions`.

    These are exactly the contents refining the composition that ``cuts``
    cuts ``n`` into.
    """

    def grow(total: int, parts: int, i: int) -> Iterator[tuple[int, ...]]:
        # ``total`` is the sum so far, ``parts`` the parts still to place
        # and ``cuts[i]`` the next point the partial sums must hit.
        if parts == 1:
            if i == len(cuts):
                yield (n - total,)
            return
        target = cuts[i] if i < len(cuts) else n
        for first in range(target - total + 1):
            j = i + 1 if total + first == target and i < len(cuts) else i
            if len(cuts) - j <= parts - 2:
                for rest in grow(total + first, parts - 1, j):
                    yield (first,) + rest

    if length == 0:
        if n == 0:
            yield ()
        return
    yield from grow(0, length, 0)


def enumerate_semistandard(shape: SkewShape, max_entry: int) -> tuple[Tableau, ...]:
    """All semistandard reverse fillings with entries at most ``max_entry``.

    Both shape kinds go through standardization: each standard filling is
    relabelled at every weak content of length ``max_entry`` whose partial
    sums pass through its descent set, which hits every semistandard
    filling exactly once.

    ``max_entry`` must be a non-negative ``int`` (else ``ValueError``).
    """
    if isinstance(max_entry, bool) or not isinstance(max_entry, int) or max_entry < 0:
        raise ValueError(f"max_entry must be a non-negative int, got {max_entry!r}")
    out = []
    for that in enumerate_standard(shape):
        cuts = tuple(sorted(descents(that)))
        out.extend(_relabel(that, tau) for tau in _contents(cuts, that.n, max_entry))
    return tuple(sorted(out, key=Tableau.sort_key))


def split_tableau(t: Tableau, k: int) -> tuple[Tableau, Tableau]:
    """Split a standard composition filling at value ``k``.

    Returns ``(upper, lower)``: ``upper`` keeps entries 1..k on the outer
    shape over the enlarged base occupied by the inner shape together with
    entries above k; ``lower`` keeps entries k+1..n, shifted down by k, on
    that enlarged base over the original inner shape.  The two reassemble
    to ``t``.  Both halves are sliced from the rows of ``t``: row r of the
    base holds the cells of row r that are inner or hold an entry above k.
    Raises ``ValueError`` unless ``t`` is an SCT and ``k`` an int in
    0..n (a bool or a float is not one).
    """
    if validate(t) != "SCT":
        raise ValueError("split needs an SCT")
    if not (type(k) is int and 0 <= k <= t.n):
        raise ValueError(f"split point k must be an int in 0..{t.n}, got {k!r}")
    base_len = []
    for row in t.rows:
        m = sum(1 for x in row if x is None or x > k)
        if not all(x is None or x > k for x in row[:m]):
            raise ValueError("entries above the split are not left-justified")
        base_len.append(m)
    first = next((i for i, b in enumerate(base_len) if b), len(base_len))
    if any(b == 0 for b in base_len[first:]):
        raise ValueError("rows above the split are not bottom-aligned")
    mid = tuple(base_len[first:])
    upper_rows = tuple((None,) * m + row[m:] for row, m in zip(t.rows, base_len))
    lower_rows = tuple(
        tuple(x if x is None else x - k for x in row[:m])
        for row, m in zip(t.rows[first:], mid)
    )
    return (
        Tableau(skew_shape(COMPOSITION, t.shape.outer, mid), upper_rows),
        Tableau(skew_shape(COMPOSITION, mid, t.shape.inner), lower_rows),
    )


def join_split(upper: Tableau, lower: Tableau) -> Tableau:
    """Reassemble the two halves produced by :func:`split_tableau`: the
    bottom rows of ``upper`` take the rows of ``lower``, shifted up by
    ``upper.n``, in place of their inner cells."""
    if upper.shape.inner != lower.shape.outer:
        raise ValueError("halves do not share the middle shape")
    k = upper.n
    drop = len(upper.shape.outer) - len(lower.shape.outer)
    rows = upper.rows[:drop] + tuple(
        tuple(x if x is None else x + k for x in low) + up[len(low) :]
        for up, low in zip(upper.rows[drop:], lower.rows)
    )
    return Tableau(skew_shape(COMPOSITION, upper.shape.outer, lower.shape.inner), rows)


def to_json_dict(t: Tableau) -> dict:
    return {
        "kind": t.shape.kind,
        "outer": list(t.shape.outer),
        "inner": list(t.shape.inner) or None,
        "rows": [list(row) for row in t.rows],
    }


def tableau_from_json(d: dict) -> Tableau:
    shape = skew_shape(d["kind"], tuple(d["outer"]), tuple(d.get("inner") or ()))
    rows = tuple(tuple(row) for row in d["rows"])
    return Tableau(shape, rows)
