"""Consequences of the skew theory: a tableau algebra product, refinements
in noncommuting variables, and descent generating series over intervals.

The product's word route reads each Knuth class as a component of the
Knuth-move graph (:func:`knuth_class`), with no census of n! permutations.

Set compositions are tuples of disjoint increasing tuples of integers
whose union is an initial segment 1..n; dropping the block order (for set
partitions) we sort blocks by their minima.  They are generated one shape
at a time and never stored.  Kostka numbers and :func:`qs_rs` count the
fillings of each content by an M coefficient of S_alpha, enumerating none.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

from .compositions import (
    ChainStep,
    Composition,
    apply_step,
    comp_of_set,
    compositions_of,
    interval_chains,
    is_contained,
    is_partition,
    is_weak_composition,
    partitions_of,
    require_composition,
    strong,
)
from .qsym import (
    GradedElement,
    TruncatedPolynomial,
    _placements,
    _rearrangements,
    _require_basis_indices,
    basis_element,
    convert,
    let_variables_commute,
    linear,
    qs_schur,
)
from .tableaux import (
    PARTITION,
    Tableau,
    column_word,
    enumerate_standard,
    skew_shape,
    straight,
    validate,
)
from .transforms import _move_component, insertion_tableau, p_move, unpack_columns

SetComposition = tuple[tuple[int, ...], ...]


def _set_compositions_of_shape(alpha: Composition) -> Iterable[SetComposition]:
    """The set compositions of 1..|alpha| whose block sizes read ``alpha``,
    in lexicographic order: each block takes a choice of the entries the
    blocks before it left."""

    def grow(rest: tuple[int, ...], sizes: Composition) -> Iterable[SetComposition]:
        if not sizes:
            yield ()
            return
        for block in itertools.combinations(rest, sizes[0]):
            left = tuple(x for x in rest if x not in block)
            for tail in grow(left, sizes[1:]):
                yield (block,) + tail

    return grow(tuple(range(1, sum(alpha) + 1)), alpha)


def set_compositions(n: int) -> tuple[SetComposition, ...]:
    """All set compositions of 1..n, sorted by block count then lex; raises
    ``ValueError`` when ``n`` is not a non-negative int (as
    :func:`~qschur.compositions.compositions_of` does)."""
    shapes = map(_set_compositions_of_shape, compositions_of(n))
    every = itertools.chain.from_iterable(shapes)
    return tuple(sorted(every, key=lambda pi: (len(pi), pi)))


def _is_set_composition(pi: SetComposition) -> bool:
    """Whether ``pi`` is a tuple of nonempty increasing tuples of ints whose
    entries are exactly 1..n."""
    if type(pi) is not tuple or not all(
        type(b) is tuple and b and {int}.issuperset(map(type, b)) for b in pi
    ):
        return False
    entries = sorted(x for block in pi for x in block)
    return entries == list(range(1, len(entries) + 1)) and all(
        list(block) == sorted(block) for block in pi
    )


def shape_of_blocks(pi: SetComposition) -> Composition:
    """The block sizes of a set composition; raises ``ValueError`` when
    ``pi`` is not a set composition of 1..n."""
    if not _is_set_composition(pi):
        raise ValueError(f"{pi!r} is not a set composition of 1..n")
    return tuple(len(block) for block in pi)


# ---------------------------------------------------------------------------
# product of standard reverse fillings


def _require_straight_srt(t: Tableau) -> None:
    if t.shape.kind != PARTITION or t.shape.inner or validate(t) != "SRT":
        raise ValueError("expected a standard reverse filling of straight shape")


@cache
def _rect_census(
    nu: Composition, mu: Composition
) -> dict[Tableau, tuple[Tableau, ...]]:
    """The standard reverse fillings of nu/mu grouped by the insertion
    tableau of their column word, each group in :func:`enumerate_standard`
    order, so each filling is inserted once however many products read
    its shape.  Callers must not modify the returned dict."""
    census: dict[Tableau, list[Tableau]] = {}
    for t in enumerate_standard(skew_shape(PARTITION, nu, mu)):
        census.setdefault(insertion_tableau(column_word(t)), []).append(t)
    return {p: tuple(group) for p, group in census.items()}


def pr_product(t1: Tableau, t2: Tableau) -> tuple[Tableau, ...]:
    """Product of two standard reverse fillings.

    Terms are the standard fillings ``t`` of partition shape that restrict
    to ``t1`` (shifted up by the size of ``t2``) on the inner shape and
    whose remaining skew part has column word inserting to ``t2``.  Those
    skew parts are the class of ``t2`` in the rectification census of each
    outer shape (:func:`_rect_census`).  Row r of a term is
    row r of ``t1``, shifted, followed by the skew part of row r of its
    census filling.
    """
    _require_straight_srt(t1)
    _require_straight_srt(t2)
    n = t2.shape.size
    mu = t1.shape.outer
    shifted = [tuple(x + n for x in row) for row in t1.rows]
    out = []
    for nu in partitions_of(t1.shape.size + n):
        if not is_contained(mu, nu):
            continue
        shape = straight(PARTITION, nu)
        for s in _rect_census(nu, mu).get(t2, ()):
            rows = tuple(
                top + row[len(top) :]
                for top, row in itertools.zip_longest(shifted, s.rows, fillvalue=())
            )
            out.append(Tableau(shape, rows))
    out.sort(key=Tableau.sort_key)
    return tuple(out)


def _shuffles(u: tuple[int, ...], v: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    if not u or not v:
        yield u + v
        return
    for tail in _shuffles(u[1:], v):
        yield (u[0],) + tail
    for tail in _shuffles(u, v[1:]):
        yield (v[0],) + tail


def knuth_class(t: Tableau) -> tuple[tuple[int, ...], ...]:
    """All permutation words whose insertion tableau is ``t``, in
    lexicographic order: the component of ``column_word(t)``, which inserts
    to ``t``, under the Knuth moves of :func:`~qschur.transforms.p_move`
    (Knuth, 1970: a Knuth class is connected by these moves)."""
    _require_straight_srt(t)
    return tuple(sorted(_move_component(column_word(t), p_move)))


def pr_product_words(t1: Tableau, t2: Tableau) -> tuple[Counter, int]:
    """Word route to the same product.

    Shuffles every word inserting to ``t1`` (shifted up by the size of
    ``t2``) with every word inserting to ``t2`` and tallies the insertion
    tableaux of the results.  Returns the tally and the number of words;
    the tally's support should match :func:`pr_product`, with each term
    counted once per standard filling of its shape.
    """
    _require_straight_srt(t1)
    _require_straight_srt(t2)
    n = t2.shape.size
    words2 = knuth_class(t2)
    counts: Counter = Counter()
    total = 0
    for u in knuth_class(t1):
        shifted = tuple(x + n for x in u)
        for v in words2:
            for w in _shuffles(shifted, v):
                total += 1
                counts[insertion_tableau(w)] += 1
    return counts, total


def nsym_image(t: Tableau) -> GradedElement:
    """Send a standard reverse filling to the dual quasi-Schur element
    indexed by the shape of its unpacked form."""
    _require_straight_srt(t)
    return basis_element("NSym", "S_star", unpack_columns(t).shape.outer)


def nsym_image_sum(terms: Iterable[Tableau]) -> GradedElement:
    return GradedElement(
        "NSym", "S_star", linear(Counter(terms), lambda t: nsym_image(t).terms)
    )


# ---------------------------------------------------------------------------
# noncommuting variables


def _m_pi(pi: SetComposition, m: int, choices) -> TruncatedPolynomial:
    """One word per choice ``choices(range(1, m + 1), len(pi))`` of a
    variable per block; raises ``ValueError`` when ``pi`` is not a set
    composition of 1..n."""
    if not _is_set_composition(pi):
        raise ValueError(f"{pi} does not index a basis element")
    block_of = {j: b for b, block in enumerate(pi) for j in block}
    word = [block_of[j] for j in range(1, len(block_of) + 1)]
    words = (tuple(c[b] for b in word) for c in choices(range(1, m + 1), len(pi)))
    return TruncatedPolynomial(m, False, dict.fromkeys(words, 1))


def m_pi_nc(pi: SetComposition, m: int) -> TruncatedPolynomial:
    """Monomial in noncommuting x_1..x_m attached to a set composition:
    one word per strictly increasing choice of a variable per block.
    Raises ``ValueError`` when ``pi`` is not a set composition of 1..n."""
    return _m_pi(pi, m, itertools.combinations)


def m_pi_sym(pi: SetComposition, m: int) -> TruncatedPolynomial:
    """Set-partition analogue: any injective choice of variables, so the
    block order of ``pi`` is immaterial; raises as :func:`m_pi_nc` does."""
    return _m_pi(pi, m, itertools.permutations)


def kostka(alpha: Composition, beta: tuple[int, ...]) -> int:
    """Number of semistandard composition fillings of ``alpha`` with
    content ``beta``: S_alpha is the sum of x^T over the fillings T, and
    quasisymmetric, so this is its M_{strong(beta)} coefficient (the verify
    check schur-content-polynomial compares the two).

    Raises ``ValueError`` unless ``alpha`` is a composition and ``beta`` a
    weak composition (a sequence of non-negative ints).
    """
    require_composition(alpha)
    beta = tuple(beta)
    if not is_weak_composition(beta):
        raise ValueError(f"{beta} is not a weak composition")
    return convert(qs_schur(alpha), "M").coefficient(strong(beta))


def qs_rs(alpha: Composition, m: int) -> TruncatedPolynomial:
    """Quasi-Schur analogue in noncommuting variables.

    Sums, over semistandard fillings of ``alpha`` with entries at most
    ``m``, every distinct rearrangement of the entry multiset, weighted by
    the product of the content factorials.  The fillings of each content
    beta number c, the M_strong(beta) coefficient of S_alpha (:func:`kostka`),
    so each word of content beta gets c * beta!.  The verify check
    analogue-dual-route compares it with the set-composition expansion.
    Raises ``ValueError`` when ``alpha`` is not a composition or ``m`` not
    a non-negative int.
    """
    require_composition(alpha)
    if type(m) is not int or m < 0:
        raise ValueError(f"m must be a non-negative int, got {m!r}")
    terms: dict = {}
    for sigma, c in convert(qs_schur(alpha), "M").terms.items():
        weight = c * math.prod(math.factorial(p) for p in sigma)
        for beta in _placements(sigma, m):
            letters = [i for i, k in enumerate(beta, 1) for _ in range(k)]
            terms.update(dict.fromkeys(set(itertools.permutations(letters)), weight))
    return TruncatedPolynomial(m, False, terms)


def s_rs(lam: Composition, m: int) -> TruncatedPolynomial:
    """Schur analogue in noncommuting variables: sum of :func:`qs_rs` over
    all rearrangements of ``lam``; raises ``ValueError`` when ``lam`` is
    not a partition, or as :func:`qs_rs` does."""
    if not (isinstance(lam, tuple) and is_partition(lam)):
        raise ValueError(f"{lam} is not a partition")
    return TruncatedPolynomial(
        m, False, linear(_rearrangements(lam), lambda a: qs_rs(a, m).terms)
    )


def chi_nc(p: TruncatedPolynomial) -> TruncatedPolynomial:
    """Let the variables commute."""
    return let_variables_commute(p)


def lift(f: GradedElement) -> GradedElement:
    """Lift a quasisymmetric element into noncommuting variables.

    Spreads each monomial term M_alpha over the set compositions of shape
    ``alpha``, scaled so that projecting back is the identity.
    """
    if f.ring != "QSym":
        raise ValueError("lift applies to QSym elements")
    f = convert(f, "M")

    def spread(alpha) -> dict:
        factor = Fraction(
            math.prod(math.factorial(p) for p in alpha), math.factorial(sum(alpha))
        )
        return dict.fromkeys(_set_compositions_of_shape(alpha), factor)

    return GradedElement("NCQSym", "M_Pi", linear(f.terms, spread))


def project(f: GradedElement) -> GradedElement:
    """Forget the set structure: each set composition maps to its block
    sizes.  Raises ``ValueError`` on an index that is not a set composition
    of 1..n."""
    if (f.ring, f.basis) != ("NCQSym", "M_Pi"):
        raise ValueError("project applies to NCQSym elements")
    _require_basis_indices(_is_set_composition, f)
    return GradedElement(
        "QSym", "M", linear(f.terms, lambda pi: {shape_of_blocks(pi): 1})
    )


def ncqsym_to_polynomial(f: GradedElement, m: int) -> TruncatedPolynomial:
    """Evaluate at noncommuting x_1..x_m; raises as :func:`m_pi_nc` does."""
    if (f.ring, f.basis) != ("NCQSym", "M_Pi"):
        raise ValueError("expected an NCQSym element")
    return TruncatedPolynomial(
        m, False, linear(f.terms, lambda pi: m_pi_nc(pi, m).terms)
    )


# ---------------------------------------------------------------------------
# descent series over intervals


@dataclass(frozen=True)
class LabeledCover:
    """One cover in a descending chain, labeled by the removed cell."""

    lower: Composition
    upper: Composition
    label: tuple[int, int]


def _cover_label(upper: Composition, step: ChainStep) -> tuple[int, int]:
    return (-step.column, -(len(upper) - step.row + 1))


def labeled_chains(
    gamma: Composition, beta: Composition
) -> tuple[tuple[LabeledCover, ...], ...]:
    """Descending saturated chains from ``gamma`` to ``beta``, with the
    label of each cover (negated column, negated row from the bottom)."""
    require_composition(gamma, beta)
    out = []
    for steps in interval_chains(beta, gamma):
        current = beta
        ascending = []
        for step in steps:
            bigger = apply_step(current, step)
            ascending.append(LabeledCover(current, bigger, _cover_label(bigger, step)))
            current = bigger
        out.append(tuple(reversed(ascending)))
    return tuple(out)


def _label_precedes(a: tuple[int, int], b: tuple[int, int]) -> bool:
    if a[0] != b[0]:
        return a[0] < b[0]
    if a[0] == -1:
        return a[1] > b[1]
    return a[1] < b[1]


def descent_pieri_K(gamma: Composition, beta: Composition) -> GradedElement:
    """Sum, over labeled descending chains of the interval, of the
    fundamental element of each chain's descent composition.

    It equals the skew quasi-Schur function of gamma over beta; the verify
    check chain-descents-match-skew compares the two.
    """
    require_composition(gamma, beta)
    n = sum(gamma) - sum(beta)
    terms: Counter = Counter()
    for chain in labeled_chains(gamma, beta):
        labels = [cover.label for cover in chain]
        des = {
            i + 1
            for i in range(len(labels) - 1)
            if not _label_precedes(labels[i], labels[i + 1])
        }
        terms[comp_of_set(des, n)] += 1
    return GradedElement("QSym", "L", terms)
