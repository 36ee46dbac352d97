"""Brute-force reference implementations used to pin down expected values.

Everything before the per-target filter routes is written directly from
the defining conditions and knows nothing about the package internals:
tableaux are dicts mapping (row, column) cells to entries, polynomials are
dicts mapping exponent vectors (or words) to coefficients.  The sections
from there on are built from the package's own tableaux: its former routes,
kept as the oracles of the faster routes that replaced them, and small
helpers that only the tests use.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from qschur.compositions import (
    _chain_tables,
    _covers,
    _tally,
    _young_covers,
    compositions_of,
    is_contained,
    is_partition,
    partitions_of,
    refines,
    underlying_partition,
    weak_compositions,
)
from qschur.qsym import (
    GradedElement,
    TruncatedPolynomial,
    _peel,
    convert,
    from_polynomial,
    qs_schur,
    sym_to_qsym,
    to_polynomial,
)
from qschur.tableaux import (
    COMPOSITION,
    PARTITION,
    SkewShape,
    Tableau,
    _grow_rows,
    canonical_srt,
    colseq,
    column_word,
    descent_composition,
    destandardize,
    enumerate_semistandard,
    enumerate_standard,
    make_tableau,
    standardize,
    straight,
    validate,
)
from qschur.transforms import insert_ssct, insertion_tableau, q_move, unpack_columns


def composition_cells(gamma, beta):
    """Skew cells of a composition diagram, inner rows aligned at the bottom."""
    offset = len(gamma) - len(beta)
    inner = {}
    for r, part in enumerate(beta, start=1):
        for c in range(1, part + 1):
            inner[(offset + r, c)] = True
    cells = []
    for r, part in enumerate(gamma, start=1):
        for c in range(1, part + 1):
            if (r, c) not in inner:
                cells.append((r, c))
    return cells, inner


def partition_cells(nu, mu):
    """Skew cells of a partition diagram, inner rows aligned at the top."""
    inner = {}
    for r, part in enumerate(mu, start=1):
        for c in range(1, part + 1):
            inner[(r, c)] = True
    cells = []
    for r, part in enumerate(nu, start=1):
        for c in range(1, part + 1):
            if (r, c) not in inner:
                cells.append((r, c))
    return cells, inner


def ssct_conditions(gamma, beta):
    """The three semistandard conditions, straight from the definition, as a
    predicate on fillings of ``gamma`` over ``beta``."""
    cells, inner = composition_cells(gamma, beta)
    outer = {(r, c) for r, part in enumerate(gamma, start=1) for c in range(1, part + 1)}

    def holds(filling):
        # rows weakly decreasing
        for r, c in cells:
            if (r, c + 1) in filling and filling[(r, c + 1)] > filling[(r, c)]:
                return False
        # first column strictly increasing downward
        first = [filling[(r, 1)] for r in range(1, len(gamma) + 1) if (r, 1) in filling]
        if any(a >= b for a, b in zip(first, first[1:])):
            return False
        # attacking triples
        for i, k in outer:
            for j in range(i + 1, len(gamma) + 1):
                target = (j, k + 1)
                if target not in filling or (i, k + 1) in inner:
                    continue  # (i, k) does not attack (j, k + 1)
                if (i, k) in inner or filling[target] <= filling.get((i, k)):
                    right = (i, k + 1)
                    if right not in filling or not filling[target] < filling[right]:
                        return False
        return True

    return holds


def is_ssrt_filling(nu, mu, filling):
    for r, c in filling:
        if (r, c + 1) in filling and filling[(r, c + 1)] > filling[(r, c)]:
            return False
        if (r + 1, c) in filling and filling[(r + 1, c)] >= filling[(r, c)]:
            return False
    return True


def _fillings(cells, max_entry):
    for values in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        yield dict(zip(cells, values))


def brute_ssct(gamma, beta, max_entry):
    cells, _ = composition_cells(gamma, beta)
    holds = ssct_conditions(gamma, beta)
    return [f for f in _fillings(cells, max_entry) if holds(f)]


def brute_sct(gamma, beta):
    cells, _ = composition_cells(gamma, beta)
    holds = ssct_conditions(gamma, beta)
    out = []
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        f = dict(zip(cells, perm))
        if holds(f):
            out.append(f)
    return out


def composition_covers(alpha):
    """Each composition covering ``alpha`` with the (row, column) cell it
    adds: a new top row of one cell, or one more cell at the end of a row
    that no row above it matches in length."""
    out = [((1,) + alpha, (1, 1))]
    for r, part in enumerate(alpha):
        if part not in alpha[:r]:
            out.append((alpha[:r] + (part + 1,) + alpha[r + 1 :], (r + 1, part + 1)))
    return out


@functools.cache
def leq_by_covers(beta, gamma):
    """Whether some chain of covers leads up from ``beta`` to ``gamma``: a
    search up :func:`composition_covers`, cut off once ``beta`` is as heavy
    as ``gamma`` or does not fit inside it bottom-aligned."""
    if beta == gamma:
        return True
    fits = len(beta) <= len(gamma) and all(
        b <= g for b, g in zip(reversed(beta), reversed(gamma))
    )
    if sum(beta) >= sum(gamma) or not fits:
        return False
    return any(leq_by_covers(bigger, gamma) for bigger, _ in composition_covers(beta))


def chains_above(beta, levels):
    """Every saturated chain ``levels`` covers up from ``beta``, as its list
    of added cells, grouped by upper end: ``{gamma: [chain, ...]}``."""
    out = {}

    def walk(alpha, cells):
        if len(cells) == levels:
            out.setdefault(alpha, []).append(tuple(cells))
            return
        for bigger, cell in composition_covers(alpha):
            walk(bigger, cells + [cell])

    walk(beta, [])
    return out


def monotone_chain_counts(beta, n, kind):
    """The chains ``n`` covers up from ``beta`` whose added cells sit in
    strictly increasing columns (``kind="row"``) or weakly decreasing
    columns (``"column"``), counted by upper end: ``{gamma: chains}``."""
    out = {}
    for gamma, chains in chains_above(beta, n).items():
        for chain in chains:
            columns = [column for _, column in chain]
            pairs = list(zip(columns, columns[1:]))
            if all(a < b for a, b in pairs) if kind == "row" else all(a >= b for a, b in pairs):
                out[gamma] = out.get(gamma, 0) + 1
    return out


def brute_ssrt(nu, mu, max_entry):
    cells, _ = partition_cells(nu, mu)
    return [f for f in _fillings(cells, max_entry) if is_ssrt_filling(nu, mu, f)]


def brute_srt(nu, mu):
    cells, _ = partition_cells(nu, mu)
    out = []
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        f = dict(zip(cells, perm))
        if is_ssrt_filling(nu, mu, f):
            out.append(f)
    return out


def filling_content(filling, m):
    exp = [0] * m
    for v in filling.values():
        exp[v - 1] += 1
    return tuple(exp)


# --- exact polynomial dictionaries ---------------------------------------


def poly_add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


def poly_mul(p, q, commutative=True):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b)) if commutative else a + b
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def monomial_quasi_poly(alpha, m):
    """Placements of the parts of alpha on strictly increasing variables."""
    out = {}
    for positions in itertools.combinations(range(m), len(alpha)):
        exp = [0] * m
        for pos, part in zip(positions, alpha):
            exp[pos] = part
        out[tuple(exp)] = out.get(tuple(exp), 0) + 1
    return out


def fundamental_poly(alpha, m):
    """Words weakly increasing, strictly at the partial sums of alpha."""
    n = sum(alpha)
    strict = set(itertools.accumulate(alpha[:-1]))
    out = {}
    for word in itertools.combinations_with_replacement(range(1, m + 1), n):
        if any(word[j - 1] >= word[j] for j in strict):
            continue
        exp = [0] * m
        for v in word:
            exp[v - 1] += 1
        out[tuple(exp)] = out.get(tuple(exp), 0) + 1
    return out


def schur_poly(lam, m):
    out = {}
    for f in brute_ssrt(lam, (), m):
        exp = filling_content(f, m)
        out[exp] = out.get(exp, 0) + 1
    return out


def qschur_poly(alpha, m):
    out = {}
    for f in brute_ssct(alpha, (), m):
        exp = filling_content(f, m)
        out[exp] = out.get(exp, 0) + 1
    return out


def schur_expand(poly, m):
    """Schur coefficients of a symmetric polynomial, by peeling leading terms.

    Only faithful when the polynomial is symmetric in at least as many
    variables as its degree.
    """
    rest = dict(poly)
    out = {}
    while rest:
        lead = max(rest)
        lam = tuple(sorted((e for e in lead if e), reverse=True))
        coeff = rest[lead]
        out[lam] = coeff
        rest = poly_add(rest, {k: -coeff * v for k, v in schur_poly(lam, m).items()})
    return out


@functools.cache
def _schur_product_expansion(lam, mu):
    """Schur coefficients of s_lam * s_mu in |lam| + |mu| variables, computed
    once per (lam, mu) pair; callers must not modify the returned dict."""
    m = sum(lam) + sum(mu)
    return schur_expand(poly_mul(schur_poly(lam, m), schur_poly(mu, m)), m)


def classical_lr_oracle(lam, mu, nu):
    if sum(lam) + sum(mu) == 0:
        return 1 if nu == () else 0
    return _schur_product_expansion(tuple(lam), tuple(mu)).get(tuple(nu), 0)


# --- exact linear algebra --------------------------------------------------


def solve_exact(matrix, rhs):
    """Solve ``matrix @ x = rhs`` by Gaussian elimination over Fraction.

    ``matrix`` must be square and invertible; neither argument is modified.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


# --- reverse row insertion -------------------------------------------------


def insert_word(word):
    """Row insertion for reverse tableaux: bump the first strictly smaller
    entry, append when none exists.  Returns the rows as a tuple of tuples."""
    rows: list[list[int]] = []
    for letter in word:
        k = letter
        for row in rows:
            spot = next((i for i, v in enumerate(row) if v < k), None)
            if spot is None:
                row.append(k)
                k = None
                break
            row[spot], k = k, row[spot]
        if k is not None:
            rows.append([k])
    return tuple(tuple(r) for r in rows)


def canonical_composition_filling(alpha):
    """Cells of composition ``alpha`` numbered n..1, bottom row first, each
    row left to right."""
    filling = {}
    v = sum(alpha)
    for r in range(len(alpha), 0, -1):
        for c in range(1, alpha[r - 1] + 1):
            filling[(r, c)] = v
            v -= 1
    return filling


def column_reading_word(filling):
    """Entries of each column in increasing order, columns left to right."""
    return tuple(v for _, v in sorted((c, v) for (_, c), v in filling.items()))


def classical_lr_semistandard(lam, mu, nu):
    """Semistandard reverse fillings of nu/mu with entries at most len(lam)
    whose column word inserts to the row-constant filling of ``lam`` (row
    i constant len(lam) - i + 1)."""
    ell = len(lam)
    target = tuple(tuple([ell - i] * part) for i, part in enumerate(lam))
    return sum(
        1
        for f in brute_ssrt(nu, mu, max(ell, 1))
        if insert_word(column_reading_word(f)) == target
    )


def lr_by_rectification(alpha, beta, gamma):
    """Standard composition fillings of gamma over beta whose column word
    inserts to the same tableau as that of the canonical filling of alpha."""
    target = insert_word(column_reading_word(canonical_composition_filling(alpha)))
    return sum(
        1
        for f in brute_sct(gamma, beta)
        if insert_word(column_reading_word(f)) == target
    )


def shuffles(u, v):
    if not u or not v:
        yield u + v
        return
    for tail in shuffles(u[1:], v):
        yield (u[0],) + tail
    for tail in shuffles(u, v[1:]):
        yield (v[0],) + tail


# --- per-target filter routes ----------------------------------------------
# classical_lr, pr_product and knuth_class as they were before the
# censuses: enumerate every filling (or permutation) and keep those that
# insert to the one target asked about.  The permutation census that
# knuth_class read before it walked Knuth moves follows them.


def classical_lr_by_filter(lam, mu, nu):
    if sum(lam) + sum(mu) != sum(nu) or not is_contained(mu, nu):
        return 0
    target = canonical_srt(lam)
    return sum(
        1
        for t in enumerate_standard(SkewShape(PARTITION, nu, mu))
        if insertion_tableau(column_word(t)) == target
    )


def pr_product_by_filter(t1, t2):
    n = t2.shape.size
    mu = t1.shape.outer
    shifted = {cell: t1.entry(*cell) + n for cell in t1.shape.cells}
    out = []
    for nu in partitions_of(t1.shape.size + n):
        if not is_contained(mu, nu):
            continue
        for s in enumerate_standard(SkewShape(PARTITION, nu, mu)):
            if insertion_tableau(column_word(s)) != t2:
                continue
            filling = dict(shifted)
            filling.update(s.entries())
            out.append(make_tableau(straight(PARTITION, nu), filling))
    out.sort(key=Tableau.sort_key)
    return tuple(out)


def knuth_class_by_filter(t):
    return tuple(
        w
        for w in itertools.permutations(range(1, t.shape.size + 1))
        if insertion_tableau(w) == t
    )


def knuth_classes_by_census(n):
    """The permutations of 1..n grouped by insertion tableau, each group in
    lexicographic order: the census that ``knuth_class`` once read."""
    classes = {}
    for w in itertools.permutations(range(1, n + 1)):
        classes.setdefault(insertion_tableau(w), []).append(w)
    return {t: tuple(words) for t, words in classes.items()}


# --- semistandard composition fillings by refinement -------------------------
# enumerate_semistandard on a composition shape as it was before contents
# were generated from descent sets: every weak content filtered by refines,
# then the public, checking destandardize.


def ssct_by_refinement(shape, max_entry):
    out = []
    for that in enumerate_standard(shape):
        des = descent_composition(that)
        for tau in weak_compositions(that.n, max_entry):
            if refines(tau, des):
                out.append(destandardize(that, tau))
    out.sort(key=Tableau.sort_key)
    return tuple(out)


# --- semistandard reverse fillings by backtracking ---------------------------
# enumerate_semistandard on a partition shape as it was before both kinds
# were relabelled from standard fillings: the skew cells filled one at a
# time in row-major order, each value bounded by its left and upper
# neighbours.  Values are tried in increasing order, so the fillings come
# out in Tableau.sort_key order without sorting.


def ssrt_by_backtracking(shape, max_entry):
    cells = shape.cells
    entries = {}

    def fill(i):
        if i == len(cells):
            yield make_tableau(shape, dict(entries))
            return
        r, c = cells[i]
        hi = max_entry
        if shape.in_skew(r, c - 1):
            hi = min(hi, entries[(r, c - 1)])
        if shape.in_skew(r - 1, c):
            hi = min(hi, entries[(r - 1, c)] - 1)
        for v in range(1, hi + 1):
            entries[(r, c)] = v
            yield from fill(i + 1)
        entries.pop((r, c), None)

    return tuple(fill(0))


# --- splitting by cells --------------------------------------------------------
# split_tableau as it was before it sliced rows: every cell read one at a
# time, both halves gathered as cell dicts and filled in by make_tableau.


def split_by_cells(t, k):
    if validate(t) != "SCT":
        raise ValueError("split needs an SCT")
    if not 0 <= k <= t.n:
        raise ValueError(f"split point {k} outside 0..{t.n}")
    sh = t.shape
    ell = len(sh.outer)
    base_len = [
        sh.inner_in_row(r)
        + sum(1 for c in range(1, sh.outer[r - 1] + 1) if sh.in_skew(r, c) and t.entry(r, c) > k)
        for r in range(1, ell + 1)
    ]
    for r in range(1, ell + 1):
        for c in range(sh.inner_in_row(r) + 1, sh.outer[r - 1] + 1):
            big = t.entry(r, c) > k
            if big != (c <= base_len[r - 1]):
                raise ValueError("entries above the split are not left-justified")
    first = next((i for i, b in enumerate(base_len) if b), ell)
    if any(b == 0 for b in base_len[first:]):
        raise ValueError("rows above the split are not bottom-aligned")
    mid = tuple(base_len[first:])
    upper_entries = {(r, c): t.entry(r, c) for (r, c) in sh.cells if t.entry(r, c) <= k}
    upper = make_tableau(SkewShape(COMPOSITION, sh.outer, mid), upper_entries)
    drop = ell - len(mid)
    lower_entries = {
        (r - drop, c): t.entry(r, c) - k for (r, c) in sh.cells if t.entry(r, c) > k
    }
    lower = make_tableau(SkewShape(COMPOSITION, mid, sh.inner), lower_entries)
    return upper, lower


# --- products through the polynomial model -------------------------------------
# multiply as it was before products were quasi-shuffles in the M basis:
# both factors evaluated in |f| + |g| variables, the polynomials multiplied,
# and the product read back in M.


def multiply_by_polynomials(f, g):
    if f.ring != g.ring:
        raise ValueError("cannot multiply across rings")
    if f.ring == "Sym":
        product = multiply_by_polynomials(sym_to_qsym(f), sym_to_qsym(g))
        return GradedElement(
            "Sym", "m", {a: c for a, c in product.terms.items() if is_partition(a)}
        )
    m = max(f.degree() + g.degree(), 1)
    return from_polynomial(to_polynomial(f, m) * to_polynomial(g, m), m)


# --- products by peeling every tally ------------------------------------------
# product_nc_schur as it was before it read one column of the L-to-S change:
# each skew function S_{gamma//beta}, as the chain walk tallies it in L,
# converted to S in full, and its S_alpha coefficient kept.


def product_by_peel(alpha, beta):
    terms = {}
    for gamma, table in _chain_tables(beta, sum(alpha)).items():
        c = convert(GradedElement("QSym", "L", _tally(table)), "S").coefficient(alpha)
        if c:
            terms[gamma] = c
    return GradedElement("NSym", "S_star", terms)


# --- Sym's changes of basis by their own routes --------------------------------
# The changes of basis as they were before Sym changed basis in QSym and the
# refinements moved onto descent masks: the refinements of alpha as the
# blockwise concatenations of compositions of its parts; s_lam in m as the
# quasi-Schur rows of lam's rearrangements summed in L, moved to M over those
# refinements and kept at partitions; and m to s as a peel that takes off
# the largest partition in lexicographic order with that expansion.


def refinements_by_blocks(alpha):
    for blocks in itertools.product(*(tuple(compositions_of(a)) for a in alpha)):
        yield sum(blocks, ())


@functools.cache
def schur_in_monomial_by_rows(lam):
    rows = Counter()
    for alpha in set(itertools.permutations(lam)):
        rows.update(qs_schur(alpha).terms)
    total = Counter()
    for tau, c in rows.items():
        for beta in refinements_by_blocks(tau):
            total[beta] += c
    return {beta: c for beta, c in total.items() if c and is_partition(beta)}


def monomial_to_schur_by_peel(terms):
    return _peel(terms, lambda lam: (sum(lam), lam), schur_in_monomial_by_rows)


# --- the noncommuting analogue by fillings ------------------------------------
# qs_rs as the paper defines it, and as it was before it read the fillings
# of each content off the M-expansion of S_alpha: every semistandard filling
# of alpha with entries at most m contributes each distinct rearrangement of
# its entries, weighted by the product of its content factorials.


def qs_rs_by_fillings(alpha, m):
    terms = []
    for t in enumerate_semistandard(straight(COMPOSITION, alpha), m):
        values = sorted(t.entries().values())
        repeats = math.prod(math.factorial(k) for k in Counter(values).values())
        terms.extend((word, repeats) for word in set(itertools.permutations(values)))
    return TruncatedPolynomial(m, False, terms)


# --- the column sort by replaying column sequences ----------------------------
# pack_columns and unpack_columns on skew shapes as they were before one
# column sort served every inner shape: the column sequence of the
# standardization replayed up Young's lattice from the underlying partition
# of the inner shape, or up the composition order from beta, grown into
# rows and destandardized.  In either lattice at most one cover adds a cell
# to a given column, so each step of the replay is determined.


def _replay(t, kind, base, up):
    that, tau = standardize(t)
    current = base
    steps = []
    for j in colseq(that):
        current, step = next((bigger, s) for bigger, s in up(current) if s.column == j)
        steps.append(step)
    return destandardize(_grow_rows(kind, base, tuple(steps)), tau)


def pack_by_replay(t):
    return _replay(t, PARTITION, underlying_partition(t.shape.inner), _young_covers)


def unpack_by_replay(t, beta):
    if underlying_partition(beta) != t.shape.inner:
        raise ValueError(f"base {beta} does not have underlying partition {t.shape.inner}")
    return _replay(t, COMPOSITION, beta, _covers)


# --- rectification by composition insertion and test-only helpers ------------


def rect_by_ssct_insertion(t):
    """Rectification's second route: the column word of ``t`` folded
    through ``insert_ssct``, starting from the empty filling."""
    out = Tableau(straight(COMPOSITION, ()), ())
    for letter in column_word(t):
        out = insert_ssct(out, letter)
    return out


def word_c_shape(word):
    """The composition shape that ``word`` rectifies to: its insertion
    tableau with the columns unpacked."""
    return unpack_columns(insertion_tableau(word)).shape.outer


def c_class(word):
    """The words C-equivalent to ``word`` (same recording tableau, same
    rectified shape), explored by dual Knuth moves restricted to words of
    the same rectified shape; dual moves preserve the recording tableau."""
    target = word_c_shape(word)
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for k in range(1, len(w) - 1):
            try:
                nxt = q_move(w, k)
            except ValueError:
                continue
            if nxt not in seen and word_c_shape(nxt) == target:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def row_constant_srt(lam):
    """The reverse filling of partition ``lam`` whose row ``i`` is constant
    ``len(lam) - i + 1``; its content is ``reverse(lam)``."""
    ell = len(lam)
    rows = tuple(tuple([ell - i] * lam[i]) for i in range(ell))
    return Tableau(straight(PARTITION, lam), rows)
