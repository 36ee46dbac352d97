"""Dual quasi-Schur functions and their structure constants.

The paper's central duality computes the products: the coefficient of
S*_gamma in S*_alpha S*_beta equals the coefficient of the quasi-Schur
function S_alpha in the skew quasi-Schur function S_{gamma//beta}.  One
walk up from beta (``compositions._chain_tables``) pushes the chain tables
of each level to the next and tallies every S_{gamma//beta} in the
fundamental basis, tally_gamma[tau] chains at L_tau.  With
v_alpha[tau] the coefficient of S_alpha in L_tau, one column of the
inverse of the unitriangular S-to-L change, the product coefficient is the
sum of tally_gamma[tau] * v_alpha[tau].  The column comes from one
forward substitution over the quasi-Schur rows at or above S_alpha
(``qsym._s_column``), keyed on the descent masks the tables carry, so a
product peels nothing and decodes no tau.  The column is solved before the
walk, and the walk carries only the chains whose masks begin a mask of its
support (no other chain reaches a tau the sum reads) and the compositions
that still hold one.  Terms come in canonical order, as serializers write
them.  A single coefficient (:func:`lr_coeff`) peels its one skew function
into S instead.  The forgetful map onto symmetric functions and the
classical Littlewood-Richardson coefficients, which the products refine,
live here too.  A classical coefficient is a quasi-Schur one on shapes
padded by one column (:func:`classical_lr`), so it comes from the same
chain-table fill and peel as :func:`lr_coeff`, and no tableau is inserted.
The strip report lists the shapes n levels above beta without counting
their chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import (
    Composition,
    _chain_tables,
    _levels,
    _mask_of_comp,
    _up_cells,
    canonical_key,
    is_composition,
    is_contained,
    is_partition,
    require_composition,
    underlying_partition,
)
from .qsym import (
    GradedElement,
    _l_to_s,
    _require_basis_indices,
    _s_column,
    linear,
    skew_qs_schur,
)
from .tableaux import COMPOSITION, skew_shape, strip_kind


def lr_coeff(alpha: Composition, beta: Composition, gamma: Composition) -> int:
    """Coefficient of the dual quasi-Schur of ``gamma`` in the product of
    those of ``alpha`` and ``beta``.

    By the duality this is the coefficient of S_alpha in the skew
    quasi-Schur function S_{gamma//beta}, which also counts the standard
    fillings of gamma over beta that rectify to the canonical filling of
    ``alpha`` (the verify check skew-coefficients-are-lr compares the two).
    The skew function is peeled into S whole (``qsym._l_to_s``, on descent
    masks): for one gamma that costs one peel, where the column of
    :func:`product_nc_schur` would solve for every tau at or above alpha,
    and it keeps this an independent route to the product coefficients.
    Raises ``ValueError`` when an argument is not a composition.
    """
    require_composition(alpha, beta, gamma)
    if sum(alpha) + sum(beta) != sum(gamma):
        return 0
    return _l_to_s(skew_qs_schur(gamma, beta).terms).get(alpha, 0)


def product_nc_schur(alpha: Composition, beta: Composition) -> GradedElement:
    """Product of the dual quasi-Schur elements of ``alpha`` and ``beta``.

    One chain walk up from ``beta`` gives every S_{gamma//beta} in the
    fundamental basis at once; the coefficient of S*_gamma is the S_alpha
    coefficient of that skew function (see :func:`lr_coeff`).  It is read
    as the dot product of gamma's table with the column of S_alpha
    coefficients of the L_tau, both keyed on descent masks: the column comes
    from one forward substitution (``qsym._s_column``), which reads at most
    2^(|alpha| - 1) quasi-Schur rows and decodes no mask.  The walk is given
    the column's masks and drops, level by level, every chain whose mask is
    no prefix of one of them, so it carries only the chains the dot product
    reads and lists no gamma they miss.  The terms come in canonical order
    (``canonical_key``, which is ``qsym.index_key`` on compositions), not in
    the walk's.  Raises ``ValueError`` when an argument is not a composition.
    """
    require_composition(alpha, beta)
    return _product_by_column(_s_column(alpha), sum(alpha), beta)


def _product_by_column(column: dict[int, int], n: int, beta: Composition) -> GradedElement:
    """The walk and dot product of :func:`product_nc_schur`, given the
    column of its factor of degree ``n``; ``beta`` is not checked."""
    tables = _chain_tables(beta, n, column)
    terms = (
        (gamma, sum(k * column[mask] for (_, mask), k in tables[gamma].items()))
        for gamma in sorted(tables, key=canonical_key)
    )
    return GradedElement("NSym", "S_star", terms)


def multiply_nc(f: GradedElement, g: GradedElement) -> GradedElement:
    """Bilinear extension of :func:`product_nc_schur`, one column solved per
    term of ``f``; raises ``ValueError`` on an index that is no composition."""
    for h in (f, g):
        if (h.ring, h.basis) != ("NSym", "S_star"):
            raise ValueError("expected NSym elements in the dual quasi-Schur basis")
    require_composition(*f.terms, *g.terms)

    def times_g(alpha: Composition) -> dict:
        column = _s_column(alpha)
        return linear(g.terms, lambda beta: _product_by_column(column, sum(alpha), beta).terms)

    return GradedElement("NSym", "S_star", linear(f.terms, times_g))


def pieri(kind: str, n: int, beta: Composition) -> GradedElement:
    """Multiply by a single row (``kind="row"``) or column (``"column"``)
    of ``n`` cells: S*_(n) S*_beta or S*_(1^n) S*_beta.

    The coefficient of S*_gamma counts the saturated chains from ``beta``
    to gamma whose added cells sit in strictly increasing columns (row) or
    weakly decreasing columns (column).  Row case: each S_sigma holds L_tau
    only where tau's mask is at or above sigma's, and L_sigma once
    (``qsym._peel``), and (n) has the smallest mask of its degree.  So
    L_(n) occurs only in S_(n), the S_(n) coefficient of any element is its
    L_(n) coefficient, and the column, ``_s_column((n,))``, is the mask of
    (n) alone.  A chain has descent composition (n) when no entry is a
    descent, that is (``_extend_chains``) when each cell added lies
    strictly right of the one before; the mask of (n) is its sentinel, one
    set bit and n - 1 zeros, so the walk cut to its prefixes carries only
    these monotone chains.  Column case: a chain up from () whose cells
    never move right starts in column 1 and stays there, so L_(1^n) occurs
    only in S_(1^n) and the column is again one mask, that of (1^n); its
    chains are those in which every entry is a descent.  The walk is handed
    that one mask, with no column solved (that reads 2^(n - 1) rows).

    Raises ``ValueError`` when ``kind`` is neither, when ``n`` is not a
    nonnegative int (a bool or a float is not one) or when ``beta`` is not
    a composition."""
    if kind not in ("row", "column"):
        raise ValueError(f"kind must be 'row' or 'column', not {kind!r}")
    if not (type(n) is int and n >= 0):
        raise ValueError(f"strip size must be a nonnegative int, not {n!r}")
    require_composition(beta)
    alpha: Composition = (n,) if kind == "row" and n else (1,) * n
    return _product_by_column({_mask_of_comp(alpha): 1}, n, beta)


@dataclass(frozen=True)
class StripReport:
    """Strip-shaped candidates versus the actual product support.

    ``predicted`` lists the shapes gamma over ``beta`` of weight n that
    form a horizontal (row) or vertical (column) strip; ``support`` lists
    the shapes with nonzero coefficient.  ``missing`` are predicted shapes
    whose coefficient vanishes, ``extra`` are support shapes that are not
    strips, and ``nonunit`` are support terms with coefficient != 1.
    """

    kind: str
    n: int
    beta: Composition
    predicted: tuple[Composition, ...]
    support: tuple[Composition, ...]
    missing: tuple[Composition, ...]
    extra: tuple[Composition, ...]
    nonunit: tuple[tuple[Composition, int], ...]

    @property
    def consistent(self) -> bool:
        return not (self.missing or self.extra or self.nonunit)


def strip_report(kind: str, n: int, beta: Composition) -> StripReport:
    """Compare the strip heuristic against the true product expansion;
    raises ``ValueError`` on the arguments :func:`pieri` rejects.

    The exact rule is :func:`pieri`'s: gamma is in the row product's
    support when some chain from ``beta`` adds its cells in strictly
    increasing columns, in the column product's when some chain adds them
    in weakly decreasing columns, and the coefficient counts those chains.
    A strip need not have one: (1, 2) over (1) is a horizontal strip, but
    its one chain adds column 2 and then column 1, so it is ``missing``.
    """
    product = pieri(kind, n, beta)
    which = 0 if kind == "row" else 1
    predicted = []
    for gamma in _levels(beta, n, _up_cells)[-1]:
        if strip_kind(skew_shape(COMPOSITION, gamma, beta))[which]:
            predicted.append(gamma)
    predicted.sort(key=canonical_key)
    support = tuple(product.terms)  # already in canonical order
    missing = tuple(g for g in predicted if g not in product.terms)
    extra = tuple(g for g in support if g not in predicted)
    nonunit = tuple((g, c) for g, c in product.terms.items() if c != 1)
    return StripReport(kind, n, beta, tuple(predicted), support, missing, extra, nonunit)


def forget(f: GradedElement) -> GradedElement:
    """Map a noncommutative element onto symmetric functions by sorting
    each index into a partition (dual quasi-Schur -> Schur, complete ->
    complete).  Raises ``ValueError`` on an index that is not a
    composition."""
    if f.ring != "NSym":
        raise ValueError("the forgetful map applies to NSym elements")
    _require_basis_indices(is_composition, f)
    basis = "s" if f.basis == "S_star" else "h"
    return GradedElement(
        "Sym", basis, linear(f.terms, lambda alpha: {underlying_partition(alpha): 1})
    )


def classical_lr(lam: Composition, mu: Composition, nu: Composition) -> int:
    """Classical Littlewood-Richardson coefficient c^nu_{lam mu}, computed
    as the quasi-Schur coefficient ``lr_coeff(lam, mu+, nu+)``.

    nu+ adds one cell to every row of nu, and mu+ does the same to mu
    padded with zeros to len(nu) rows.  Between mu+ and nu+ the cover
    order L_C is Young's lattice from mu to nu shifted one column right:
    no prepend fits, since nu+ already has len(nu) rows, and a cover grows
    only the first row of each length, which keeps the rows weakly
    decreasing and is exactly when a row of a partition may grow.  So the
    chains and their descents match the standard fillings of nu/mu and
    theirs, and S_{nu+//mu+} is the skew Schur function s_{nu/mu}
    (Gessel's fundamental expansion; the verify check
    padded-skew-is-skew-schur compares the two).  As s_lam is the sum of
    S_alpha over the rearrangements alpha of lam (Haglund, Luoto, Mason
    and van Willigenburg), the coefficient of S_lam in it is c^nu_{lam mu}.
    Padding by one column is enough; a wider pad only lengthens the walk.

    Raises ``ValueError`` when an argument is not a partition (a weakly
    decreasing tuple of positive ints).
    """
    for part in (lam, mu, nu):
        if not (isinstance(part, tuple) and is_partition(part)):
            raise ValueError(f"{part} is not a partition")
    if sum(lam) + sum(mu) != sum(nu) or not is_contained(mu, nu):
        return 0
    padded = mu + (0,) * (len(nu) - len(mu))
    return lr_coeff(lam, tuple(p + 1 for p in padded), tuple(p + 1 for p in nu))
