"""Graded ring elements, truncated polynomial models, and basis changes.

Elements are sparse integer (or Fraction) combinations over a tagged
basis.  One core holds their arithmetic: ``_Combination``, the base of
:class:`GradedElement` and :class:`TruncatedPolynomial`, adds, negates and
scales terms within one space and drops zero coefficients, and every
linear map given on a basis is extended through :func:`linear`.
Ring/basis tags:

* ``QSym``: ``M`` (monomial), ``L`` (fundamental), ``S`` (quasi-Schur) —
  indexed by compositions;
* ``Sym``: ``m``, ``s``, ``h`` — indexed by partitions;
* ``NSym``: ``S_star``, ``h_nc`` — indexed by compositions;
* ``NCQSym``: ``M_Pi`` — indexed by set compositions (tuples of disjoint
  increasing tuples).

Polynomial truncations use ``m`` variables; commutative monomials are
exponent vectors of length ``m``, noncommutative ones are words over
``1..m``.  Products are computed in the M basis, where the product of two
basis elements is the quasi-shuffle of their indices; the polynomial model
evaluates elements and recovers them (:func:`to_polynomial`,
:func:`from_polynomial`), and no product goes through it.

QSym changes basis on descent masks, L to S by the one peel.  Sym is the
symmetric part of QSym: its basis changes, products and Schur expansions
include their input in QSym, work there and keep the partition terms.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache

from .compositions import (
    Composition,
    _comp_of_mask,
    _down_cells,
    _extend_chains,
    _levels,
    _mask_of_comp,
    _mask_sums,
    _tally,
    canonical_key,
    is_composition,
    is_partition,
    is_weak_composition,
    require_composition,
    strong,
    weak_compositions,
)

RING_BASES = {
    "QSym": ("M", "L", "S"),
    "Sym": ("m", "s", "h"),
    "NSym": ("S_star", "h_nc"),
    "NCQSym": ("M_Pi",),
}
# What names a basis element in the rings that change basis.
_INDEX_CHECKS = {"QSym": is_composition, "Sym": is_partition}


def index_degree(index) -> int:
    if index and isinstance(index[0], tuple):
        return sum(len(block) for block in index)
    return sum(index)


def index_key(index):
    """Canonical sort key: weight, then length, then lexicographic."""
    return (index_degree(index), len(index), index)


def _accumulate(pairs) -> dict:
    """Sum the coefficients of repeated indices and drop the zeros."""
    acc: dict = {}
    for index, coeff in pairs:
        if coeff:
            acc[index] = acc.get(index, 0) + coeff
    return {i: c for i, c in acc.items() if c}


def linear(terms: dict, image) -> dict:
    """The linear extension of ``image``: the sum of c * image(i) over the
    terms (i, c), where ``image(i)`` is a dict index -> coefficient.

    The result is a dict with zeros dropped, never raw pairs: ``_peel``
    copies its input with ``dict(...)``, which keeps only the last of
    repeated indices.
    """
    return _accumulate(
        (j, c * k) for i, c in terms.items() for j, k in image(i).items()
    )


class _Combination:
    """A finitely supported combination index -> nonzero coefficient in one
    space; :class:`GradedElement` and :class:`TruncatedPolynomial` name the
    space through ``_space``, the arguments that rebuild one of their kind.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = _accumulate(terms.items() if isinstance(terms, dict) else terms)

    def _space(self) -> tuple:
        raise NotImplementedError

    def _like(self, terms):
        return type(self)(*self._space(), terms)

    def _check(self, other) -> None:
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError(f"mixing {self._space()} with {other._space()}")

    def __add__(self, other):
        if not isinstance(other, _Combination):
            return NotImplemented
        self._check(other)
        return self._like(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, _Combination):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        return self._like({i: scalar * c for i, c in self.terms.items()})

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other._space() == self._space()
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)


class GradedElement(_Combination):
    """A finitely supported combination of basis elements of one ring."""

    __slots__ = ("ring", "basis")

    def __init__(self, ring: str, basis: str, terms=()):
        if basis not in RING_BASES.get(ring, ()):
            raise ValueError(f"basis {basis!r} does not belong to ring {ring!r}")
        self.ring = ring
        self.basis = basis
        super().__init__(terms)

    def _space(self) -> tuple:
        return self.ring, self.basis

    def __hash__(self):
        return hash((self.ring, self.basis, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"<{self.ring} 0>"
        bits = " + ".join(
            f"{c}*{self.basis}_{i}" for i, c in self.sorted_terms()
        )
        return f"<{self.ring} {bits}>"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: index_key(t[0]))

    def degrees(self) -> set[int]:
        return {index_degree(i) for i in self.terms}

    def degree(self) -> int:
        return max(self.degrees(), default=0)

    def coefficient(self, index):
        return self.terms.get(index, 0)


def basis_element(ring: str, basis: str, index, coeff=1) -> GradedElement:
    return GradedElement(ring, basis, {index: coeff})


def zero(ring: str, basis: str) -> GradedElement:
    return GradedElement(ring, basis)


class TruncatedPolynomial(_Combination):
    """A polynomial in x_1..x_m, commutative or word-valued.  Raises
    ``ValueError`` unless ``m`` is a non-negative int (a bool is not one)
    and every monomial fits m variables: an exponent vector of m
    non-negative ints, or a word of ints in 1..m."""

    __slots__ = ("m", "commutative")

    def __init__(self, m: int, commutative: bool, terms=()):
        if type(m) is not int or m < 0:
            raise ValueError(f"m must be a non-negative int, got {m!r}")
        self.m = m
        self.commutative = commutative
        super().__init__(terms)
        for mono in self.terms:
            if not (
                isinstance(mono, tuple)
                and (
                    len(mono) == m and is_weak_composition(mono)
                    if commutative
                    else all(type(x) is int and 0 < x <= m for x in mono)
                )
            ):
                raise ValueError(f"{mono!r} is not a monomial in {m} variables")

    def _space(self) -> tuple:
        return self.m, self.commutative

    def __mul__(self, other):
        if not isinstance(other, _Combination):
            return NotImplemented
        self._check(other)
        pairs = itertools.product(self.terms.items(), other.terms.items())
        if self.commutative:
            return self._like(
                (tuple(map(operator.add, a, b)), ca * cb)
                for (a, ca), (b, cb) in pairs
            )
        return self._like((a + b, ca * cb) for (a, ca), (b, cb) in pairs)

    def __repr__(self):
        kind = "comm" if self.commutative else "words"
        return f"<poly m={self.m} {kind} {len(self.terms)} terms>"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))


def commutative_monomial(m: int, exponents, coeff=1) -> TruncatedPolynomial:
    return TruncatedPolynomial(m, True, {tuple(exponents): coeff})


def let_variables_commute(p: TruncatedPolynomial) -> TruncatedPolynomial:
    """Abelianization: each word becomes its exponent vector."""
    if p.commutative:
        return p

    def exponents(word):
        exps = [0] * p.m
        for x in word:
            exps[x - 1] += 1
        return {tuple(exps): 1}

    return TruncatedPolynomial(p.m, True, linear(p.terms, exponents))


# ---------------------------------------------------------------------------
# the quasi-Schur basis


def qs_schur(alpha: Composition) -> GradedElement:
    """The quasi-Schur function of ``alpha`` in the fundamental basis: the
    skew function over ``()``.  Its chains end at ``()``, so every
    quasi-Schur function reads the one store of ``_chain_store(())``: the
    leads of one peel tally each composition below them once.  Raises
    ``ValueError`` when ``alpha`` is not a composition."""
    require_composition(alpha)
    return _skew_qs_schur(alpha, ())


def skew_qs_schur(gamma: Composition, beta: Composition) -> GradedElement:
    """Fundamental-basis expansion over standard fillings of gamma over beta:
    one L term per saturated chain from beta up to gamma, at the chain's
    descent composition.  The chains are tallied from ``gamma``'s table in
    the store of ``beta`` (``_down_table``), filled bottom-up, so no
    down-set and no order check is built, and every skew function with
    inner shape ``beta`` reuses the tables of the compositions below its
    outer shape.

    Zero when ``beta`` is not below ``gamma`` in the cover order; raises
    ``ValueError`` when either is not a composition, checked before the
    store, which would take ``(True, 2)`` for ``(1, 2)`` and cannot hash a
    list.
    """
    require_composition(gamma, beta)
    return _skew_qs_schur(gamma, beta)


def _skew_qs_schur(gamma: Composition, beta: Composition) -> GradedElement:
    """:func:`skew_qs_schur` on checked compositions."""
    return GradedElement("QSym", "L", _tally(_down_table(gamma, beta)))


@cache
def _chain_store(beta: Composition) -> dict:
    """The chain tables down to ``beta`` filled so far, composition ->
    ``{(column of the first cell removed, descent mask): chains}``
    (``_extend_chains``), starting from ``beta``'s own table.  One store per
    inner shape serves every outer shape above it."""
    return {beta: {(math.inf, 1): 1}}  # no cell follows: any cell before opens a run


def _down_table(gamma: Composition, beta: Composition) -> dict:
    """The chain table of ``gamma`` down to ``beta``, empty when ``beta`` is
    not below ``gamma``.

    The levels below ``gamma`` are listed down to weight ``|beta| + 1``,
    stopping at the compositions the store already holds, with each
    composition's ``_down_cells``; then the tables are filled bottom-up,
    each one the sum of its down covers' tables lengthened by the cell
    removed.  A cover of weight ``|beta|`` other than ``beta`` has no
    chains down to it and adds nothing.
    """
    store = _chain_store(beta)
    if gamma in store:
        return store[gamma]
    cells: dict = {}  # composition not yet stored -> its down cells, top level first
    level = [gamma]
    for depth in range(sum(gamma) - sum(beta), 0, -1):
        below: dict = {}
        for comp in level:
            if comp not in store:
                cells[comp] = down = _down_cells(comp)
                if depth > 1:  # the bottom level's children are beta or chainless
                    for child, _, _ in down:
                        below[child] = None
        level = below
    for comp, down in reversed(cells.items()):
        table: dict = {}
        for child, _, column in down:
            if child in store:
                _extend_chains(store[child], column, table)
        store[comp] = table
    return store.get(gamma, {})


# ---------------------------------------------------------------------------
# basis conversion


def _strong_refinements(alpha: Composition):
    """The compositions refining ``alpha``, on descent masks: their partial
    sums hold alpha's, so their masks (``_mask_of_comp``) are alpha's joined
    with any submask of its clear bits below bit |alpha| - 1, which every
    composition of |alpha| sets."""
    mask = _mask_of_comp(alpha)
    free = ~mask & ((1 << sum(alpha)) - 1)
    sub = free
    while True:
        yield _comp_of_mask(mask | sub)
        if not sub:
            return
        sub = (sub - 1) & free


def _l_to_m(terms: dict) -> dict:
    return linear(terms, lambda alpha: dict.fromkeys(_strong_refinements(alpha), 1))


def _m_to_l(terms: dict) -> dict:
    def signed_refinements(alpha):
        return {
            beta: -1 if (len(beta) - len(alpha)) % 2 else 1
            for beta in _strong_refinements(alpha)
        }

    return linear(terms, signed_refinements)


def _s_to_l(terms: dict) -> dict:
    return linear(terms, lambda alpha: qs_schur(alpha).terms)


def _peel(terms: dict, key, expansion, name=str) -> dict:
    """Invert a unitriangular basis change by peeling off leading terms.

    ``expansion(i)`` must hold ``i`` with coefficient 1 and otherwise only
    indices smaller under ``key``; an index that survives its own
    subtraction names no basis element and raises ``ValueError``.  So the
    leads strictly descend, and a lead that does not, which only an
    expansion holding an index above its own could bring back, raises
    ``ValueError`` too: such a peel need never end.  The errors show a
    lead as ``name(lead)``, so a peel on encoded indices names what they
    encode.
    Quasi-Schur functions are unitriangular in the fundamental basis
    (Haglund, Luoto, Mason and van Willigenburg, *Quasisymmetric Schur
    functions*, JCTA 2011); the verify check peel-orders-are-unitriangular
    covers the order below (through degree 10 when it was added).  The
    library peels once, from L to S on descent masks (``_l_to_s``), where
    ``-mask`` is the key: within a degree, descending mask order is
    ascending ``_l_to_s_key``, and each row stays in its degree.
    """
    remaining = dict(terms)
    out: dict = {}
    last = None  # the key of the previous lead
    while remaining:
        lead = max(remaining, key=key)
        rank = key(lead)
        if last is not None and not rank < last:
            raise ValueError(f"{name(lead)} is not below the previous lead of the peel")
        last = rank
        c = remaining[lead]
        out[lead] = c
        for index, k in expansion(lead).items():
            val = remaining.get(index, 0) - c * k
            if val:
                remaining[index] = val
            else:
                remaining.pop(index, None)
        if lead in remaining:
            raise ValueError(f"{name(lead)} does not index a basis element")
    return out


def _l_to_s_key(alpha: Composition):
    return sum(alpha), alpha[::-1]  # degree, then reverse-lexicographic


def _l_to_s(terms: dict) -> dict:
    """L -> S on descent masks (``compositions._mask_of_comp``): the terms
    are encoded, peeled with the smallest mask leading, the rows read off
    the chain tables by ``_l_row``, and only the S terms returned are
    decoded."""
    masks = {_mask_of_comp(tau): c for tau, c in terms.items()}
    peeled = _peel(masks, operator.neg, _l_row, _comp_of_mask)
    return {_comp_of_mask(mask): c for mask, c in peeled.items()}


def _l_row(mask: int) -> dict[int, int]:
    """The quasi-Schur function of the composition of ``mask`` in the
    fundamental basis, on masks: its chain table down to ``()`` summed by
    descent mask, with no element built and no mask decoded."""
    return _mask_sums(_down_table(_comp_of_mask(mask), ()))


def _s_column(alpha: Composition) -> dict[int, int]:
    """Column ``alpha`` of the inverse of the S-to-L change on masks:
    mask of tau -> the coefficient of S_alpha in L_tau, zeros dropped.

    With K[sigma, tau] the coefficient of L_tau in S_sigma, unitriangular
    with the smallest mask of each row on its diagonal (``_peel``), the
    column x solves K x = e_alpha by one forward substitution,
    x[sigma] = [sigma = alpha] - sum over tau != sigma of K[sigma, tau] x[tau],
    for sigma from alpha's mask down through the masks of degree |alpha|.
    x is 0 above alpha's mask, where each row holds only masks at or above
    its own, so those rows need no solving.  x starts as e_alpha and each
    row overwrites its own entry, so the sum skips it.
    """
    top = _mask_of_comp(alpha)
    bottom = 3 << sum(alpha) >> 1  # the smallest mask of the degree, (|alpha|,)'s
    x = {top: 1}
    for sigma in range(top, bottom - 1, -1):
        dot = sum(k * x[tau] for tau, k in _l_row(sigma).items() if tau != sigma and tau in x)
        v = x.pop(sigma, 0) - dot
        if v:
            x[sigma] = v
    return x


def _rearrangements(lam: Composition) -> dict:
    """Each composition whose parts sort to ``lam``, with coefficient 1, in
    lexicographic order: each distinct part leads, smallest first, the
    rearrangements of the other parts."""
    if not lam:
        return {(): 1}
    out = {}
    for part in sorted(set(lam)):
        rest = list(lam)
        rest.remove(part)
        out.update(((part,) + a, 1) for a in _rearrangements(tuple(rest)))
    return out


def _include(f: GradedElement) -> GradedElement:
    """The inclusion of Sym in QSym on ``m`` and ``s``: m_lam and s_lam go to
    the sums of M_alpha and S_alpha over the rearrangements alpha of lam."""
    if f.basis == "h":
        raise ValueError("expand h through to_polynomial; inclusion needs m or s")
    return GradedElement("QSym", f.basis.upper(), linear(f.terms, _rearrangements))


def _symmetric_part(f: GradedElement) -> GradedElement:
    """A symmetric QSym element in ``M`` or ``S`` as a Sym element in ``m``
    or ``s``: its terms at partitions, since the inclusion of c * s_lam
    holds c at every rearrangement of lam, lam among them."""
    terms = {lam: c for lam, c in f.terms.items() if is_partition(lam)}
    return GradedElement("Sym", f.basis.lower(), terms)


def convert(f: GradedElement, basis: str) -> GradedElement:
    """Rewrite ``f`` in another basis of the same ring (exactly).

    ``L``/``M`` -> ``S`` go through ``L`` and the one peel, on descent
    masks (``_l_to_s``); Sym changes basis in QSym (``_include``, then
    ``_symmetric_part``).
    In QSym and Sym an index that names no basis element raises
    ``ValueError`` before any route runs, even when ``basis`` is ``f``'s own.
    """
    is_index = _INDEX_CHECKS.get(f.ring)
    if is_index is not None:
        _require_basis_indices(is_index, f)
    if basis == f.basis:
        return GradedElement(f.ring, basis, dict(f.terms))
    if f.ring == "QSym":
        routes = {
            ("L", "M"): _l_to_m,
            ("M", "L"): _m_to_l,
            ("S", "L"): _s_to_l,
            ("L", "S"): _l_to_s,
            ("S", "M"): lambda t: _l_to_m(_s_to_l(t)),
            ("M", "S"): lambda t: _l_to_s(_m_to_l(t)),
        }
        if (f.basis, basis) not in routes:
            raise ValueError(f"no conversion {f.basis} -> {basis} in QSym")
        return GradedElement("QSym", basis, routes[(f.basis, basis)](f.terms))
    if f.ring == "Sym":
        if {f.basis, basis} != {"m", "s"}:
            raise ValueError(f"no conversion {f.basis} -> {basis} in Sym")
        return _symmetric_part(convert(_include(f), basis.upper()))
    raise ValueError(f"no conversions within ring {f.ring}")


def sym_to_qsym(f: GradedElement) -> GradedElement:
    """The inclusion of symmetric functions (``_include``), landing in the
    M basis.  Raises ``ValueError`` on an index that is not a partition."""
    if f.ring != "Sym":
        raise ValueError("expected a Sym element")
    _require_basis_indices(is_partition, f)
    return convert(_include(f), "M")


# ---------------------------------------------------------------------------
# polynomial realization


def to_polynomial(f: GradedElement, m: int) -> TruncatedPolynomial:
    """Evaluate ``f`` at (x_1, ..., x_m, 0, 0, ...).  Raises ``ValueError``
    when ``m`` is not a non-negative int (a bool is not one)."""
    if type(m) is not int or m < 0:
        raise ValueError(f"m must be a non-negative int, got {m!r}")
    if f.ring == "Sym":
        _require_basis_indices(is_partition, f)
        if f.basis == "h":

            def h_product(lam):
                prod = TruncatedPolynomial(m, True, {(0,) * m: 1})
                for part in lam:
                    prod = prod * TruncatedPolynomial(
                        m, True, dict.fromkeys(weak_compositions(part, m), 1)
                    )
                return prod.terms

            return TruncatedPolynomial(m, True, linear(f.terms, h_product))
        f = _include(f)
    if f.ring != "QSym":
        raise ValueError(f"no polynomial model for ring {f.ring}")
    f = convert(f, "M")
    return TruncatedPolynomial(
        m, True, linear(f.terms, lambda alpha: dict.fromkeys(_placements(alpha, m), 1))
    )


def _placements(alpha: Composition, m: int):
    """The exponent vectors in m variables whose nonzero entries read ``alpha``."""
    for positions in itertools.combinations(range(m), len(alpha)):
        exps = [0] * m
        for p, part in zip(positions, alpha):
            exps[p] = part
        yield tuple(exps)


def from_polynomial(p: TruncatedPolynomial, n: int) -> GradedElement:
    """Recover the M-basis element whose evaluation is ``p``.

    ``p`` must be quasisymmetric in its ``m`` variables with m at least the
    degree and at least ``n``; otherwise a ValueError names an offending
    pair of monomials or the missing variables.  Raises ``ValueError`` too
    when ``n`` is not a non-negative int (a bool is not one).
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a non-negative int, got {n!r}")
    if not p.commutative:
        raise ValueError("expected a commutative polynomial")
    top = max((sum(k) for k in p.terms), default=0)
    if p.m < max(top, n):
        raise ValueError(f"need at least {max(top, n)} variables, have {p.m}")

    def monomial_str(exps) -> str:
        return "".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e) or "1"

    seen: dict[Composition, tuple] = {}  # alpha -> its first exponent vector
    for exps in p.terms:
        seen.setdefault(strong(exps), exps)
    terms: dict = {}
    for alpha, good in seen.items():
        coeffs = {key: p.terms.get(key, 0) for key in _placements(alpha, p.m)}
        values = set(coeffs.values())
        if len(values) > 1:
            bad = next(k for k, v in coeffs.items() if v != p.terms.get(good, 0))
            raise ValueError(
                "not quasisymmetric: "
                f"{monomial_str(good)} has coefficient {p.terms.get(good, 0)} "
                f"but {monomial_str(bad)} has {coeffs[bad]}"
            )
        coeff = values.pop()
        if coeff:
            terms[alpha] = coeff
    return GradedElement("QSym", "M", terms)


# ---------------------------------------------------------------------------
# products and coproducts


def multiply(f: GradedElement, g: GradedElement) -> GradedElement:
    """Product in QSym or Sym.

    QSym inputs are converted to M, where M_a M_b is the sum of M_w over
    the quasi-shuffles w of a and b (:func:`_quasi_shuffles`), and give an
    M-basis result.  Sym inputs are multiplied in QSym (``_include``) and
    come back in m (``_symmetric_part``).  An index that names no basis
    element raises ``ValueError``.
    """
    if f.ring != g.ring:
        raise ValueError("cannot multiply across rings")
    if f.ring == "Sym":
        _require_basis_indices(is_partition, f, g)
        return _symmetric_part(multiply(_include(f), _include(g)))
    if f.ring != "QSym":
        raise ValueError(f"no product for ring {f.ring}")
    _require_basis_indices(is_composition, f, g)
    g_terms = convert(g, "M").terms
    return GradedElement(
        "QSym",
        "M",
        linear(
            convert(f, "M").terms,
            lambda a: linear(g_terms, lambda b: _quasi_shuffles(a, b)),
        ),
    )


def _require_basis_indices(is_index, *elements: GradedElement) -> None:
    for index in itertools.chain.from_iterable(e.terms for e in elements):
        if not (isinstance(index, tuple) and is_index(index)):
            raise ValueError(f"{index} does not index a basis element")


def _quasi_shuffles(a: Composition, b: Composition) -> dict:
    """The quasi-shuffles of ``a`` and ``b`` with their multiplicities: the
    M-expansion of M_a M_b (Hoffman, *Quasi-shuffle products*, J. Algebraic
    Combin. 11, 2000).

    A quasi-shuffle of a_i.a' and b_j.b' starts with a_i, with b_j or with
    a_i + b_j, followed by a quasi-shuffle of what is left; ``row[j]``
    holds those of the suffixes ``a[i:]`` and ``b[j:]``, built from the
    ends of both.
    """
    row = [{b[j:]: 1} for j in range(len(b) + 1)]
    for i in reversed(range(len(a))):
        new = [None] * len(b) + [{a[i:]: 1}]
        for j in reversed(range(len(b))):
            new[j] = _accumulate(
                ((head,) + w, c)
                for head, tails in (
                    (a[i], row[j]),
                    (b[j], new[j + 1]),
                    (a[i] + b[j], row[j + 1]),
                )
                for w, c in tails.items()
            )
        row = new
    return row[0]


def _deconcatenations(alpha: Composition):
    for i in range(len(alpha) + 1):
        yield alpha[:i], alpha[i:]


def _near_deconcatenations(alpha: Composition):
    for i, part in enumerate(alpha):
        for a in range(1, part):
            yield alpha[: i] + (a,), (part - a,) + alpha[i + 1 :]


def coproduct(f: GradedElement) -> dict:
    """Coproduct as a dict (left index, right index) -> coefficient.

    Supports the QSym bases: deconcatenations for M, deconcatenations plus
    near-deconcatenations for L, and for S the skew expansions over every
    composition beta below each index alpha, beta in canonical order.  The
    beta are the levels of one down walk from alpha, so no order test runs,
    and each S_{alpha//beta} is read from :func:`skew_qs_schur`, whose
    tables for one beta serve every alpha above it, and peeled into S once.
    Raises ``ValueError`` on an index that is not a composition.
    """
    if f.ring != "QSym":
        raise ValueError("coproduct implemented on QSym")
    _require_basis_indices(is_composition, f)

    def split(alpha) -> dict:
        if f.basis == "S":
            out = {}
            for level in reversed(_levels(alpha, sum(alpha), _down_cells)):
                for beta in sorted(level, key=canonical_key):
                    for idx, c in _l_to_s(_skew_qs_schur(alpha, beta).terms).items():
                        out[idx, beta] = c
            return out
        cuts = _deconcatenations(alpha)
        if f.basis == "L":
            cuts = itertools.chain(cuts, _near_deconcatenations(alpha))
        return dict.fromkeys(cuts, 1)

    return linear(f.terms, split)


# ---------------------------------------------------------------------------
# symmetry tests


def is_symmetric(f: GradedElement) -> bool:
    """Whether a QSym element is invariant under rearranging its indices,
    that is, the inclusion of its terms at partitions; a Sym element is,
    once its indices check out as partitions."""
    if f.ring == "Sym":
        _require_basis_indices(is_partition, f)
        return True
    g = convert(f, "M")
    return _include(_symmetric_part(g)) == g


def schur_expansion(f: GradedElement) -> GradedElement:
    """Expand a symmetric element in the Schur basis (exactly).  A QSym
    element that passes :func:`is_symmetric` is the inclusion of its Schur
    expansion, so that expansion is its S-basis terms at partitions
    (``_symmetric_part``); one that fails raises ``ValueError``."""
    if f.ring == "Sym":
        return convert(f, "s")
    if not is_symmetric(f):
        raise ValueError("element is not symmetric")
    return _symmetric_part(convert(f, "S"))


# ---------------------------------------------------------------------------
# JSON forms


def _index_to_json(index):
    if index and isinstance(index[0], tuple):
        return [list(block) for block in index]
    return list(index)


def _index_from_json(raw):
    if raw and isinstance(raw[0], list):
        return tuple(tuple(block) for block in raw)
    return tuple(raw)


def _coeff_to_json(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return {"numerator": c.numerator, "denominator": c.denominator}
    return c


def element_to_json(f: GradedElement) -> dict:
    return {
        "ring": f.ring,
        "basis": f.basis,
        "terms": [
            {"index": _index_to_json(i), "coeff": _coeff_to_json(c)}
            for i, c in f.sorted_terms()
        ],
    }


def element_from_json(d: dict) -> GradedElement:
    def coeff(raw):
        if isinstance(raw, dict):
            return Fraction(raw["numerator"], raw["denominator"])
        return raw

    return GradedElement(
        d["ring"],
        d["basis"],
        [(_index_from_json(t["index"]), coeff(t["coeff"])) for t in d["terms"]],
    )
