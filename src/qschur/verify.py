"""Exhaustive identity checks at bounded degree, grouped into named suites.

Every check is a generator over a finite family of cases: it yields once
per case it sweeps and returns a counterexample string at the first
failure, while falling off the end passes.  A check that returns a
:class:`Note` passes and reports that finding.  :func:`run_check` alone
counts the yields; a check that raises, or sweeps no case, fails.

Each check is registered with its suite and, where a full sweep would
grow too costly, a degree cap: :func:`run_check` hands it
``min(max_degree, cap)`` and reports that number as ``effective_degree``
next to ``cases``.  Uncapped checks sweep the requested maximum degree,
which must be nonnegative; fixed-size witnesses declare cap 0 and yield
once, since they do not scale at all.  Where a check compares a library
function with a second route (rectification against a fold of
:func:`insert_ssct`, skew coefficients against the rectification census,
products against whole skew functions converted to S, the columns products
read against one peel per fundamental function), the second route lives
here, not in the library.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Generator

from .applications import (
    _set_compositions_of_shape,
    chi_nc,
    descent_pieri_K,
    kostka,
    lift,
    m_pi_nc,
    m_pi_sym,
    ncqsym_to_polynomial,
    nsym_image,
    nsym_image_sum,
    pr_product,
    pr_product_words,
    project,
    qs_rs,
    s_rs,
    set_compositions,
)
from .compositions import (
    Composition,
    _comp_of_mask,
    comp_of_set,
    compositions_of,
    covers,
    down_covers,
    interval_chains,
    is_contained,
    is_rev_contained,
    leq,
    partitions_of,
    refines,
    set_of,
    underlying_partition,
)
from .nsym import (
    classical_lr,
    forget,
    multiply_nc,
    product_nc_schur,
    strip_report,
)
from .qsym import (
    GradedElement,
    TruncatedPolynomial,
    _accumulate,
    _l_to_s_key,
    _peel,
    _s_column,
    basis_element,
    commutative_monomial,
    convert,
    coproduct,
    element_from_json,
    element_to_json,
    from_polynomial,
    is_symmetric,
    multiply,
    qs_schur,
    schur_expansion,
    skew_qs_schur,
    sym_to_qsym,
    to_polynomial,
)
from .tableaux import (
    COMPOSITION,
    PARTITION,
    SkewShape,
    Tableau,
    canonical_sct,
    chain_to_tableau,
    colseq,
    column_word,
    content,
    descent_composition,
    descents,
    destandardize,
    enumerate_semistandard,
    enumerate_standard,
    join_split,
    make_tableau,
    skew_shape,
    split_tableau,
    standardize,
    straight,
    tableau_from_json,
    tableau_to_chain,
    to_json_dict,
    validate,
)
from .transforms import (
    insert_ssct,
    insert_ssrt,
    insertion_tableau,
    is_rigid_row_pair,
    p_move,
    pack_columns,
    q_move,
    rect,
    restricted_move_components,
    rsk,
    unpack_columns,
)

DEFAULT_SEED = 17


@dataclass
class CheckResult:
    name: str
    ok: bool
    cases: int
    effective_degree: int
    seconds: float
    counterexample: str | None = None
    note: str | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "cases": self.cases,
            "effective_degree": self.effective_degree,
            "seconds": round(self.seconds, 3),
            "counterexample": self.counterexample,
            "note": self.note,
        }


class Note(str):
    """What a check returns to report a finding without failing."""


Sweep = Generator[None, None, str | None]
CheckFn = Callable[[int, random.Random], Sweep]
_CHECKS: dict[str, CheckFn] = {}
CAPS: dict[str, int] = {}
SUITES: dict[str, tuple[str, ...]] = {}


def _register(
    name: str, suite: str, cap: int | None = None
) -> Callable[[CheckFn], CheckFn]:
    """Record a check under ``name``, append it to ``SUITES[suite]`` and
    declare the highest degree it sweeps (``None``: the requested one)."""

    def wrap(fn: CheckFn) -> CheckFn:
        _CHECKS[name] = fn
        if cap is not None:
            CAPS[name] = cap
        SUITES[suite] = SUITES.get(suite, ()) + (name,)
        return fn

    return wrap


def _comps_upto(d: int) -> list[Composition]:
    return [a for n in range(d + 1) for a in compositions_of(n)]


def _parts_upto(d: int) -> list[Composition]:
    return [p for n in range(d + 1) for p in partitions_of(n)]


def _interval_pairs(d: int) -> list[tuple[Composition, Composition]]:
    """(beta, gamma) with beta below gamma in the cover order, |gamma| <= d."""
    out = []
    for gamma in _comps_upto(d):
        for beta in _comps_upto(sum(gamma)):
            if leq(beta, gamma):
                out.append((beta, gamma))
    return out


def _m_element(alpha: Composition) -> GradedElement:
    return basis_element("QSym", "M", alpha)


def _poly_sum(m: int, commutative: bool, polys) -> TruncatedPolynomial:
    """The sum of ``polys``, accumulated in one pass over their terms."""
    terms = itertools.chain.from_iterable(p.terms.items() for p in polys)
    return TruncatedPolynomial(m, commutative, terms)


def _brute_standard_count(shape: SkewShape) -> int:
    """The standard fillings of ``shape``, counted by judging with
    ``validate`` every filling whose rows decrease: each row takes a set of
    the entries, largest first.  ``validate`` rejects any other filling on
    its rows alone, so this is the count over all n! fillings."""
    cells = shape.cells
    want = "SCT" if shape.kind == COMPOSITION else "SRT"
    lengths = [len(list(row)) for _, row in itertools.groupby(cells, key=lambda c: c[0])]

    def fillings(entries: list[int], k: int):  # rows k onward, in cell order
        if k == len(lengths):
            yield ()
            return
        for chosen in itertools.combinations(entries, lengths[k]):
            rest = [x for x in entries if x not in chosen]
            for tail in fillings(rest, k + 1):
                yield chosen[::-1] + tail

    return sum(
        validate(make_tableau(shape, dict(zip(cells, entries)))) == want
        for entries in fillings(list(range(1, len(cells) + 1)), 0)
    )


def _exact_rank(rows: list[dict]) -> int:
    keys = sorted({k for row in rows for k in row})
    mat = [[Fraction(row.get(k, 0)) for k in keys] for row in rows]
    rank = 0
    for col in range(len(keys)):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / lead[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], lead)]
        rank += 1
        if rank == len(mat):
            break
    return rank


# ---------------------------------------------------------------------------
# poset


@_register("partial-sums-roundtrip", "poset", cap=10)
def _check_partial_sums(d: int, rng: random.Random) -> Sweep:
    for n in range(d + 1):
        for alpha in compositions_of(n):
            yield
            if comp_of_set(set_of(alpha), n) != alpha:
                return f"composition {alpha} does not survive the roundtrip"
        for r in range(n):
            for cuts in itertools.combinations(range(1, n), r):
                yield
                s = frozenset(cuts)
                if set_of(comp_of_set(s, n)) != s:
                    return f"subset {sorted(s)} of [{n - 1}] does not survive"


@_register("covers-shape", "poset")
def _check_covers_shape(d: int, rng: random.Random) -> Sweep:
    for beta in _comps_upto(d):
        ups = covers(beta)
        seen = {g for g, _ in ups}
        if len(seen) != len(ups):
            return f"duplicate covers above {beta}"
        for gamma, step in ups:
            yield
            if sum(gamma) != sum(beta) + 1 or not is_rev_contained(beta, gamma):
                return f"bad cover {beta} -> {gamma}"
            if (beta, step) not in down_covers(gamma):
                return f"{gamma} does not list {beta} as a lower cover"
        for delta, step in down_covers(beta):
            yield
            if (beta, step) not in covers(delta):
                return f"{delta} does not list {beta} as an upper cover"


@_register("non-lattice-witness", "poset", cap=0)
def _check_non_lattice(d: int, rng: random.Random) -> Sweep:
    yield
    pair = ((2, 2, 2), (2, 3, 2))
    lower = [
        delta
        for delta in _comps_upto(min(sum(p) for p in pair))
        if all(leq(delta, p) for p in pair)
    ]
    maximal = [
        delta
        for delta in lower
        if not any(delta != other and leq(delta, other) for other in lower)
    ]
    if len(maximal) < 2:
        return f"expected >= 2 maximal common lower bounds, found {maximal}"


@_register("chain-count-matches-brute-force", "poset", cap=7)
def _check_chain_counts(d: int, rng: random.Random) -> Sweep:
    for gamma in _comps_upto(d):
        for beta in _comps_upto(sum(gamma)):
            if not is_rev_contained(beta, gamma):
                continue
            yield
            expected = _brute_standard_count(skew_shape(COMPOSITION, gamma, beta))
            got = len(interval_chains(beta, gamma))
            if got != expected:
                return (
                    f"interval {beta} .. {gamma}: {got} chains but "
                    f"{expected} standard fillings"
                )


@_register("order-implies-reverse-containment", "poset")
def _check_leq_revcon(d: int, rng: random.Random) -> Sweep:
    for gamma in _comps_upto(d):
        for beta in _comps_upto(sum(gamma)):
            yield
            if leq(beta, gamma) and not is_rev_contained(beta, gamma):
                return f"{beta} <= {gamma} but not rev-contained"


# ---------------------------------------------------------------------------
# bases


@_register("fundamental-is-refinement-sum", "bases")
def _check_fundamental_refinements(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        yield
        expanded = convert(basis_element("QSym", "L", alpha), "M")
        expected = {
            beta: 1 for beta in compositions_of(sum(alpha)) if refines(beta, alpha)
        }
        if expanded.terms != expected:
            return f"L_{alpha} expands to {expanded.terms}"


@_register("basis-conversion-roundtrips", "bases")
def _check_conversion_roundtrips(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        for basis in ("M", "L", "S"):
            f = basis_element("QSym", basis, alpha)
            for path in (("L", "M"), ("M", "L"), ("S", "L"), ("L", "S")):
                yield
                g = f
                for b in path:
                    g = convert(g, b)
                if convert(g, basis) != f:
                    return f"{basis}_{alpha} broken via {'->'.join(path)}"


@_register("schur-content-polynomial", "bases")
def _check_schur_content(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        yield
        m = max(sum(alpha), 1)
        fillings = enumerate_semistandard(straight(COMPOSITION, alpha), m)
        direct = TruncatedPolynomial(m, True, Counter(content(t, m) for t in fillings))
        if to_polynomial(qs_schur(alpha), m) != direct:
            return f"content sum mismatch for {alpha}"


@_register("schur-inverts-to-single-term", "bases")
def _check_schur_inversion(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        yield
        back = convert(qs_schur(alpha), "S")
        if back.terms != {alpha: 1}:
            return f"S_{alpha} reads back as {back.terms}"


def _rearranged(lam: Composition) -> list[Composition]:
    """The compositions of |lam| whose parts sort to ``lam``, by a scan."""
    return [a for a in compositions_of(sum(lam)) if underlying_partition(a) == lam]


@_register("schur-sum-over-rearrangements", "bases")
def _check_schur_sum(d: int, rng: random.Random) -> Sweep:
    for lam in _parts_upto(d):
        yield
        m = max(sum(lam), 1)
        total = _poly_sum(m, True, (to_polynomial(qs_schur(a), m) for a in _rearranged(lam)))
        if to_polynomial(basis_element("Sym", "s", lam), m) != total:
            return f"Schur sum fails for {lam}"


@_register("monomial-symmetric-sum", "bases")
def _check_monomial_symmetric(d: int, rng: random.Random) -> Sweep:
    for lam in _parts_upto(d):
        yield
        m = max(sum(lam), 1)
        total = _poly_sum(m, True, (to_polynomial(_m_element(a), m) for a in _rearranged(lam)))
        if to_polynomial(basis_element("Sym", "m", lam), m) != total:
            return f"monomial sum fails for {lam}"


@_register("complete-homogeneous-positivity", "bases", cap=7)
def _check_h_positive(d: int, rng: random.Random) -> Sweep:
    for lam in _parts_upto(d):
        yield
        n = sum(lam)
        p = to_polynomial(basis_element("Sym", "h", lam), max(n, 1))
        expansion = schur_expansion(from_polynomial(p, n))
        if any(c < 0 for c in expansion.terms.values()):
            return f"negative Schur coefficient in h_{lam}"
        if n and expansion.terms.get(lam) != 1:
            return f"h_{lam} lacks unit coefficient at {lam}"


@_register("random-polynomial-roundtrip", "bases", cap=7)
def _check_from_polynomial(d: int, rng: random.Random) -> Sweep:
    comps = _comps_upto(d)[1:] or [()]
    for _ in range(20):
        yield
        chosen = rng.sample(comps, k=min(4, len(comps)))
        f = GradedElement(
            "QSym", "M", {alpha: rng.randint(-3, 3) for alpha in chosen}
        )
        n = max((sum(a) for a in f.terms), default=0)
        if from_polynomial(to_polynomial(f, max(n, 1)), n) != f:
            return f"roundtrip failed for {sorted(f.terms)}"


@_register("rejects-non-quasisymmetric", "bases", cap=0)
def _check_rejection(d: int, rng: random.Random) -> Sweep:
    yield
    try:
        from_polynomial(commutative_monomial(2, (1, 0)), 1)
    except ValueError:
        return None
    return "x1 alone in two variables was accepted as quasisymmetric"


@_register("coproduct-counit", "bases")
def _check_counit(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        for basis in ("M", "L", "S"):
            yield
            f = basis_element("QSym", basis, alpha)
            delta = coproduct(f)
            left = {r: c for (l, r), c in delta.items() if l == ()}
            right = {l: c for (l, r), c in delta.items() if r == ()}
            if left != {alpha: 1} or right != {alpha: 1}:
                return f"counit fails for {basis}_{alpha}"


def _coassociative(basis: str, alpha: Composition) -> bool:
    delta = coproduct(basis_element("QSym", basis, alpha))
    lhs = []
    rhs = []
    for (a, b), c in delta.items():
        for (x, y), c2 in coproduct(basis_element("QSym", basis, a)).items():
            lhs.append(((x, y, b), c * c2))
        for (x, y), c2 in coproduct(basis_element("QSym", basis, b)).items():
            rhs.append(((a, x, y), c * c2))
    return _accumulate(lhs) == _accumulate(rhs)


@_register("coproduct-coassociative", "bases", cap=7)
def _check_coassociativity(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        for basis in ("M", "L"):
            yield
            if not _coassociative(basis, alpha):
                return f"coassociativity fails for {basis}_{alpha}"


@_register("schur-coproduct-coassociative", "bases")
def _check_schur_coassociativity(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        yield
        if not _coassociative("S", alpha):
            return f"coassociativity fails for S_{alpha}"


@_register("coproduct-multiplicative", "bases", cap=3)
def _check_bialgebra(d: int, rng: random.Random) -> Sweep:
    small = _comps_upto(d)
    for alpha in small:
        for beta in small:
            yield
            f, g = _m_element(alpha), _m_element(beta)
            lhs = coproduct(multiply(f, g))
            rhs = []
            for (l1, r1), c1 in coproduct(f).items():
                for (l2, r2), c2 in coproduct(g).items():
                    left = multiply(_m_element(l1), _m_element(l2))
                    right = multiply(_m_element(r1), _m_element(r2))
                    for li, cl in left.terms.items():
                        for ri, cr in right.terms.items():
                            rhs.append(((li, ri), c1 * c2 * cl * cr))
            if lhs != _accumulate(rhs):
                return f"coproduct not multiplicative at {alpha}, {beta}"


@_register("skew-coproduct-nonnegative", "bases")
def _check_skew_coproduct(d: int, rng: random.Random) -> Sweep:
    for gamma in _comps_upto(d):
        yield
        delta = coproduct(basis_element("QSym", "S", gamma))
        bad = [(k, c) for k, c in delta.items() if not isinstance(c, int) or c < 0]
        if bad:
            return f"coproduct of S_{gamma} has terms {bad[:3]}"


@_register("symmetry-detection", "bases")
def _check_symmetry(d: int, rng: random.Random) -> Sweep:
    for lam in _parts_upto(d):
        yield
        f = sym_to_qsym(basis_element("Sym", "s", lam))
        if not is_symmetric(f):
            return f"s_{lam} flagged as not symmetric"
        if schur_expansion(f).terms != ({lam: 1} if lam else {(): 1}):
            return f"s_{lam} does not peel back to itself"


@_register("peel-orders-are-unitriangular", "bases")
def _check_peel_orders(d: int, rng: random.Random) -> Sweep:
    """Quasi-Schur functions in L under the peel's ``_l_to_s_key``, and
    Schur functions in m in lexicographic order: each other term indexes
    the basis and comes below the function's own."""

    def schur_in_m(lam):
        return convert(basis_element("Sym", "s", lam), "m").terms

    for basis, indices, key, expansion in (
        ("S", _comps_upto(d), _l_to_s_key, lambda alpha: qs_schur(alpha).terms),
        ("s", _parts_upto(d), lambda lam: (sum(lam), lam), schur_in_m),
    ):
        known = set(indices)  # every index of each degree the terms reach
        for index in indices:
            yield
            terms = expansion(index)
            lower = all(i in known and key(i) < key(index) for i in terms if i != index)
            if terms.get(index) != 1 or not lower:
                return f"{basis}_{index} is not unitriangular: {terms}"


@_register("column-matches-peels", "bases", cap=7)
def _check_column_by_peels(d: int, rng: random.Random) -> Sweep:
    """Each column of the inverse L-to-S change, as products read it (one
    forward substitution on descent masks, ``qsym._s_column``), against
    the route it replaced: every L_tau of the degree peeled into S on its
    own, in the ``_l_to_s_key`` order over the rows of :func:`qs_schur`."""
    for n in range(d + 1):
        taus = list(compositions_of(n))
        peels = [(tau, _peel({tau: 1}, _l_to_s_key, lambda a: qs_schur(a).terms)) for tau in taus]
        for alpha in taus:
            yield
            got = {_comp_of_mask(mask): c for mask, c in _s_column(alpha).items()}
            want = {tau: peel[alpha] for tau, peel in peels if alpha in peel}
            if got != want:
                return f"column of S_{alpha}: {got} vs {want}"


# ---------------------------------------------------------------------------
# duality


@_register("skew-vanishing-matches-order", "duality")
def _check_skew_vanishing(d: int, rng: random.Random) -> Sweep:
    """S_{gamma//beta} is nonzero exactly when beta <= gamma: the skew walks
    down from gamma and ``leq`` decides the order by its closed form, two
    independent routes."""
    for gamma in _comps_upto(d):
        for beta in _comps_upto(sum(gamma)):
            yield
            if bool(skew_qs_schur(gamma, beta)) != leq(beta, gamma):
                return f"vanishing mismatch at {gamma} over {beta}"


def _rect_census(beta: Composition, gamma: Composition) -> Counter:
    """How often each rectification arises over standard fillings of
    gamma over beta (keys are the rectified tableaux themselves)."""
    shape = skew_shape(COMPOSITION, gamma, beta)
    return Counter(rect(t) for t in enumerate_standard(shape))


@_register("skew-coefficients-are-lr", "duality")
def _check_duality(d: int, rng: random.Random) -> Sweep:
    """The S-expansion of each skew quasi-Schur function against the LR
    rule: fillings of gamma over beta rectifying to the canonical filling
    of alpha.  ``lr_coeff`` reads its coefficients off the former, so this
    keeps the rectification route as its oracle."""
    for beta, gamma in _interval_pairs(d):
        yield
        in_schur = convert(skew_qs_schur(gamma, beta), "S")
        census = _rect_census(beta, gamma)
        expected = {}
        for alpha in compositions_of(sum(gamma) - sum(beta)):
            c = census.get(canonical_sct(alpha), 0)
            if c:
                expected[alpha] = c
        if in_schur.terms != expected:
            return (
                f"duality fails at {gamma} over {beta}: "
                f"{in_schur.terms} vs {expected}"
            )


@_register("product-matches-skew-peel", "duality")
def _check_product_by_peel(d: int, rng: random.Random) -> Sweep:
    """Products, read off one column of the L-to-S change, against the
    duality applied term by term: the coefficient of S*_gamma in
    S*_alpha S*_beta is the S_alpha coefficient of the whole S_{gamma//beta}
    converted to S."""
    for beta in _comps_upto(d):
        for n in range(d - sum(beta) + 1):
            expected: dict = {}  # alpha -> {gamma: coefficient}
            for gamma in compositions_of(sum(beta) + n):
                skew = convert(skew_qs_schur(gamma, beta), "S")
                for alpha, c in skew.terms.items():
                    expected.setdefault(alpha, {})[gamma] = c
            for alpha in compositions_of(n):
                yield
                got = product_nc_schur(alpha, beta).terms
                want = expected.get(alpha, {})
                if got != want:
                    return f"product {alpha} * {beta}: {got} vs {want}"


# ---------------------------------------------------------------------------
# products


@_register("forgetful-algebra-map", "products", cap=7)
def _check_forgetful(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        for beta in _comps_upto(d - sum(alpha)):
            yield
            lhs = convert(forget(product_nc_schur(alpha, beta)), "m")
            rhs = multiply(
                basis_element("Sym", "s", underlying_partition(alpha)),
                basis_element("Sym", "s", underlying_partition(beta)),
            )
            if lhs != rhs:
                return f"forgetful map breaks at {alpha} * {beta}"


@_register("product-unit", "products")
def _check_product_unit(d: int, rng: random.Random) -> Sweep:
    for beta in _comps_upto(d):
        yield
        unit_left = product_nc_schur((), beta)
        unit_right = product_nc_schur(beta, ())
        if unit_left.terms != {beta: 1} or unit_right.terms != {beta: 1}:
            return f"unit fails at {beta}"


@_register("product-associative", "products", cap=7)
def _check_product_associative(d: int, rng: random.Random) -> Sweep:
    triples = [
        (a, b, c)
        for a in _comps_upto(d)
        for b in _comps_upto(d - sum(a))
        for c in _comps_upto(d - sum(a) - sum(b))
    ]
    for a, b, c in triples:
        yield
        left = multiply_nc(product_nc_schur(a, b), basis_element("NSym", "S_star", c))
        right = multiply_nc(basis_element("NSym", "S_star", a), product_nc_schur(b, c))
        if left != right:
            return f"associativity fails at {a}, {b}, {c}"


@_register("pieri-support-within-strips", "products")
def _check_pieri_support(d: int, rng: random.Random) -> Sweep:
    for kind in ("row", "column"):
        for beta in _comps_upto(d):
            for n in range(d - sum(beta) + 1):
                yield
                report = strip_report(kind, n, beta)
                if report.extra or report.nonunit:
                    return (
                        f"{kind} strip {n} on {beta}: extra={report.extra} "
                        f"nonunit={report.nonunit}"
                    )


# ---------------------------------------------------------------------------
# classical


@_register("padded-skew-is-skew-schur", "classical")
def _check_padded_skew(d: int, rng: random.Random) -> Sweep:
    """The paper's skew quasi-Schur functions include the classical skew
    Schur functions: with one cell added to every row of nu and of mu
    (padded with zeros to len(nu) rows), S_{nu+//mu+} is s_{nu/mu}, read
    here from Gessel's expansion over the standard reverse fillings of
    nu/mu.  ``classical_lr`` peels the former, so this keeps the fillings
    as its oracle."""
    for nu in _parts_upto(d):
        for mu in _parts_upto(sum(nu)):
            if not is_contained(mu, nu):
                continue
            yield
            padded = mu + (0,) * (len(nu) - len(mu))
            got = skew_qs_schur(
                tuple(p + 1 for p in nu), tuple(p + 1 for p in padded)
            )
            fillings = enumerate_standard(skew_shape(PARTITION, nu, mu))
            expected = GradedElement(
                "QSym", "L", [(descent_composition(t), 1) for t in fillings]
            )
            if got != expected:
                return f"padded skew differs from s_{nu}/{mu}"


@_register("factorization-over-rearrangements", "classical", cap=7)
def _check_factorization(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        for beta in _comps_upto(d - sum(alpha)):
            product = product_nc_schur(alpha, beta)
            grouped = _accumulate(
                (underlying_partition(gamma), c) for gamma, c in product.terms.items()
            )
            lam = underlying_partition(alpha)
            mu = underlying_partition(beta)
            for nu in partitions_of(sum(alpha) + sum(beta)):
                yield
                if grouped.get(nu, 0) != classical_lr(lam, mu, nu):
                    return f"factorization fails: alpha={alpha} beta={beta} nu={nu}"


@_register("schur-product-matches-classical", "classical", cap=7)
def _check_schur_product(d: int, rng: random.Random) -> Sweep:
    for lam in _parts_upto(d):
        for mu in _parts_upto(d - sum(lam)):
            yield
            product = multiply(
                basis_element("Sym", "s", lam), basis_element("Sym", "s", mu)
            )
            expected = GradedElement(
                "Sym",
                "s",
                {
                    nu: classical_lr(lam, mu, nu)
                    for nu in partitions_of(sum(lam) + sum(mu))
                },
            )
            if convert(expected, "m") != product:
                return f"Schur product mismatch at {lam}, {mu}"


@_register("classical-commutativity", "classical", cap=7)
def _check_classical_symmetry(d: int, rng: random.Random) -> Sweep:
    for lam in _parts_upto(d):
        for mu in _parts_upto(d - sum(lam)):
            for nu in partitions_of(sum(lam) + sum(mu)):
                yield
                if classical_lr(lam, mu, nu) != classical_lr(mu, lam, nu):
                    return f"c^{nu} differs between {lam},{mu} and {mu},{lam}"


# ---------------------------------------------------------------------------
# g-alpha


@_register("restricted-graph-connected", "g-alpha")
def _check_connectivity(d: int, rng: random.Random) -> Sweep:
    for alpha in _comps_upto(d):
        yield
        connected, components = restricted_move_components(alpha)
        if not connected:
            return f"graph for {alpha} has {components} components"


@_register("knuth-moves-preserve-insertion", "g-alpha", cap=7)
def _check_knuth_moves(d: int, rng: random.Random) -> Sweep:
    for n in range(d + 1):
        for word in itertools.permutations(range(1, n + 1)):
            p_tab, q_tab = rsk(word)
            word_descents = {i for i in range(1, n) if word[i - 1] > word[i]}
            for k in range(1, n - 1):
                try:
                    moved = p_move(word, k)
                except ValueError:
                    moved = None
                if moved is not None:
                    yield
                    if insertion_tableau(moved) != p_tab:
                        return f"p-move {k} changes P of {word}"
                try:
                    moved = q_move(word, k)
                except ValueError:
                    moved = None
                if moved is not None:
                    yield
                    if rsk(moved)[1] != q_tab:
                        return f"q-move {k} changes Q of {word}"
                    moved_descents = {
                        i for i in range(1, n) if moved[i - 1] > moved[i]
                    }
                    if moved_descents != word_descents:
                        return f"q-move {k} changes descents of {word}"


@_register("pq-moves-commute", "g-alpha", cap=7)
def _check_move_commutation(d: int, rng: random.Random) -> Sweep:
    for n in range(d + 1):
        for word in itertools.permutations(range(1, n + 1)):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    try:
                        one = p_move(q_move(word, j), i)
                        two = q_move(p_move(word, i), j)
                    except ValueError:
                        continue
                    yield
                    if one != two:
                        return f"p_{i} and q_{j} disagree on {word}"


# ---------------------------------------------------------------------------
# rigidity


def _uniform_pairs(d: int) -> list[tuple[Composition, Composition]]:
    return [
        (beta, gamma)
        for beta, gamma in _interval_pairs(d)
        if skew_shape(COMPOSITION, gamma, beta).is_uniform()
    ]


@_register("uniform-shapes-lack-rigid-pairs", "rigidity")
def _check_uniform_rigidity(d: int, rng: random.Random) -> Sweep:
    for beta, gamma in _uniform_pairs(d):
        shape = skew_shape(COMPOSITION, gamma, beta)
        for t in enumerate_standard(shape):
            for r in range(1, len(gamma)):
                yield
                if is_rigid_row_pair(t, r):
                    return f"rigid rows {r},{r + 1} in uniform {gamma}/{beta}"


@_register("uniform-q-moves-stay-in-shape", "rigidity", cap=7)
def _check_uniform_closure(d: int, rng: random.Random) -> Sweep:
    for beta, gamma in _uniform_pairs(d):
        shape = skew_shape(COMPOSITION, gamma, beta)
        words = {column_word(t) for t in enumerate_standard(shape)}
        n = sum(gamma) - sum(beta)
        for word in words:
            for k in range(1, n - 1):
                try:
                    moved = q_move(word, k)
                except ValueError:
                    continue
                yield
                if moved not in words:
                    return f"q-move {k} leaves the shape {gamma}/{beta} from {word}"


# ---------------------------------------------------------------------------
# uniform-symmetry


@_register("uniform-implies-symmetric", "uniform-symmetry")
def _check_uniform_symmetric(d: int, rng: random.Random) -> Sweep:
    for beta, gamma in _uniform_pairs(d):
        yield
        f = skew_qs_schur(gamma, beta)
        if not is_symmetric(f):
            return f"uniform {gamma} over {beta} is not symmetric"
        expansion = schur_expansion(f)
        if any(not isinstance(c, int) or c < 0 for c in expansion.terms.values()):
            return f"uniform {gamma} over {beta} is not Schur-positive"


@_register("symmetric-non-uniform-scan", "uniform-symmetry")
def _check_symmetric_scan(d: int, rng: random.Random) -> Sweep:
    witnesses = []
    for beta, gamma in _interval_pairs(d):
        if skew_shape(COMPOSITION, gamma, beta).is_uniform():
            continue
        yield
        if is_symmetric(skew_qs_schur(gamma, beta)):
            witnesses.append(f"{gamma} over {beta}")
    if witnesses:
        return Note("symmetric non-uniform shapes: " + "; ".join(witnesses))
    return Note("no symmetric non-uniform shapes found")


# ---------------------------------------------------------------------------
# pr


def _srt_pairs(total: int) -> list[tuple[Tableau, Tableau]]:
    out = []
    for a in range(total + 1):
        for lam in partitions_of(a):
            for t1 in enumerate_standard(straight(PARTITION, lam)):
                for b in range(total - a + 1):
                    for mu in partitions_of(b):
                        for t2 in enumerate_standard(straight(PARTITION, mu)):
                            out.append((t1, t2))
    return out


@_register("pr-matches-word-shuffles", "pr", cap=7)
def _check_pr_shuffles(d: int, rng: random.Random) -> Sweep:
    standard_counts: dict[Composition, int] = {}  # brute force once per shape

    def standard_count(lam: Composition) -> int:
        if lam not in standard_counts:
            standard_counts[lam] = _brute_standard_count(straight(PARTITION, lam))
        return standard_counts[lam]

    for t1, t2 in _srt_pairs(d):
        yield
        terms = pr_product(t1, t2)
        if len(set(terms)) != len(terms):
            return f"duplicate product terms for {t1.rows} * {t2.rows}"
        counts, total = pr_product_words(t1, t2)
        m, n = t1.shape.size, t2.shape.size
        # a Knuth class has one word per standard filling of its shape
        expected_total = (
            standard_count(t1.shape.outer)
            * standard_count(t2.shape.outer)
            * math.comb(m + n, n)
        )
        if total != expected_total:
            return f"shuffle count off for {t1.rows} * {t2.rows}"
        if frozenset(terms) != set(counts):
            return f"terms differ from shuffle route at {t1.rows} * {t2.rows}"
        for t, mult in counts.items():
            if mult != standard_count(t.shape.outer):
                return (
                    f"term {t.rows} of {t1.rows} * {t2.rows} appears {mult} times, "
                    "not once per standard filling of its shape"
                )


@_register("pr-empty-unit", "pr", cap=7)
def _check_pr_unit(d: int, rng: random.Random) -> Sweep:
    empty = make_tableau(straight(PARTITION, ()), {})
    for lam in _parts_upto(d):
        for t in enumerate_standard(straight(PARTITION, lam)):
            yield
            if pr_product(t, empty) != (t,) or pr_product(empty, t) != (t,):
                return f"empty factor breaks product for {t.rows}"


@_register("image-anti-morphism", "pr", cap=7)
def _check_anti_morphism(d: int, rng: random.Random) -> Sweep:
    for t1, t2 in _srt_pairs(d):
        yield
        lhs = nsym_image_sum(pr_product(t1, t2))
        rhs = multiply_nc(nsym_image(t2), nsym_image(t1))
        if lhs != rhs:
            return f"anti-morphism fails at {t1.rows} * {t2.rows}"


# ---------------------------------------------------------------------------
# ncqsym


def _qs_rs_by_set_compositions(alpha: Composition, m: int) -> TruncatedPolynomial:
    """The analogue expanded over set compositions: each content beta
    contributes its Kostka number times the factorials of its parts, once
    per set composition of shape beta."""
    summands = []
    for beta in compositions_of(sum(alpha)):
        k = kostka(alpha, beta)
        if not k:
            continue
        weight = k * math.prod(math.factorial(p) for p in beta)
        pis = _set_compositions_of_shape(beta)
        summands.extend(weight * m_pi_nc(pi, m) for pi in pis)
    return _poly_sum(m, False, summands)


@_register("analogue-dual-route", "ncqsym", cap=4)
def _check_qs_rs_routes(d: int, rng: random.Random) -> Sweep:
    for n in range(d + 1):
        for alpha in compositions_of(n):
            for m in (max(n - 1, 1), n or 1):
                yield
                if qs_rs(alpha, m) != _qs_rs_by_set_compositions(alpha, m):
                    return f"evaluation routes disagree for {alpha}, m={m}"


@_register("commuting-projection", "ncqsym", cap=4)
def _check_chi_projection(d: int, rng: random.Random) -> Sweep:
    for n in range(d + 1):
        for alpha in compositions_of(n):
            yield
            m = max(n, 1)
            lhs = chi_nc(qs_rs(alpha, m))
            rhs = math.factorial(n) * to_polynomial(qs_schur(alpha), m)
            if lhs != rhs:
                return f"projection of the analogue fails for {alpha}"


@_register("schur-analogue-sum", "ncqsym", cap=4)
def _check_s_rs(d: int, rng: random.Random) -> Sweep:
    for lam in _parts_upto(d):
        yield
        n = sum(lam)
        m = max(n, 1)
        lhs = chi_nc(s_rs(lam, m))
        rhs = math.factorial(n) * to_polynomial(basis_element("Sym", "s", lam), m)
        if lhs != rhs:
            return f"Schur analogue fails for {lam}"


@_register("block-order-sum", "ncqsym", cap=4)
def _check_block_orderings(d: int, rng: random.Random) -> Sweep:
    for n in range(d + 1):
        by_partition: dict = {}
        for pi in set_compositions(n):
            key = frozenset(pi)
            by_partition.setdefault(key, []).append(pi)
        for key, group in by_partition.items():
            rep = tuple(sorted(key, key=min))
            for m in range(1, 4):
                yield
                total = _poly_sum(m, False, (m_pi_nc(pi, m) for pi in group))
                if total != m_pi_sym(rep, m):
                    return f"orderings of {rep} do not sum to m_pi at m={m}"


@_register("lift-projects-back", "ncqsym", cap=4)
def _check_lift(d: int, rng: random.Random) -> Sweep:
    for n in range(d + 1):
        for alpha in compositions_of(n):
            yield
            f = _m_element(alpha)
            lifted = lift(f)
            if project(lifted) != f:
                return f"projection of the lift differs at {alpha}"
            m = max(n, 1)
            if chi_nc(ncqsym_to_polynomial(lifted, m)) != to_polynomial(f, m):
                return f"lift of {alpha} commutes wrongly with evaluation"


@_register("analogues-linearly-independent", "ncqsym", cap=4)
def _check_independence(d: int, rng: random.Random) -> Sweep:
    for n in range(1, d + 1):
        yield
        rows = [qs_rs(alpha, n).terms for alpha in compositions_of(n)]
        if _exact_rank(rows) != len(rows):
            return f"analogues of degree {n} are linearly dependent"


# ---------------------------------------------------------------------------
# pieri-operator


@_register("chain-descents-match-skew", "pieri-operator")
def _check_pieri_operator(d: int, rng: random.Random) -> Sweep:
    for beta, gamma in _interval_pairs(d):
        yield
        if descent_pieri_K(gamma, beta) != skew_qs_schur(gamma, beta):
            return f"descent series differs at {gamma} over {beta}"


# ---------------------------------------------------------------------------
# roundtrips


def _straight_sscts(size_bound: int, entry_bound: int):
    for alpha in _comps_upto(size_bound):
        yield from enumerate_semistandard(straight(COMPOSITION, alpha), entry_bound)


def _straight_ssrts(size_bound: int, entry_bound: int):
    for lam in _parts_upto(size_bound):
        yield from enumerate_semistandard(straight(PARTITION, lam), entry_bound)


@_register("column-sort-roundtrip", "roundtrips", cap=7)
def _check_pack_unpack(d: int, rng: random.Random) -> Sweep:
    for t in _straight_sscts(d, 4):
        yield
        packed = pack_columns(t)
        if validate(packed) not in ("SSRT", "SRT"):
            return f"packing {t.rows} gives an invalid filling"
        if packed.shape.outer != underlying_partition(t.shape.outer):
            return f"packing {t.rows} lands on {packed.shape.outer}"
        if unpack_columns(packed) != t:
            return f"unpack(pack) moves {t.rows}"
    for s in _straight_ssrts(d, 4):
        yield
        if pack_columns(unpack_columns(s)) != s:
            return f"pack(unpack) moves {s.rows}"


@_register("standardization-roundtrip", "roundtrips", cap=7)
def _check_standardization(d: int, rng: random.Random) -> Sweep:
    for t in itertools.chain(_straight_sscts(d, 4), _straight_ssrts(d, 4)):
        yield
        std, tau = standardize(t)
        if not std.is_standard():
            return f"standardization of {t.rows} is not standard"
        if destandardize(std, tau) != t:
            return f"destandardize(std) moves {t.rows}"


@_register("chain-tableau-roundtrip", "roundtrips", cap=7)
def _check_chain_roundtrip(d: int, rng: random.Random) -> Sweep:
    for beta, gamma in _interval_pairs(d):
        for chain in interval_chains(beta, gamma):
            yield
            t = chain_to_tableau(beta, chain)
            if validate(t) != "SCT":
                return f"chain {chain} builds an invalid filling"
            if tableau_to_chain(t) != chain:
                return f"chain {chain} does not survive the roundtrip"
        shape = skew_shape(COMPOSITION, gamma, beta)
        for t in enumerate_standard(shape):
            yield
            if chain_to_tableau(beta, tableau_to_chain(t)) != t:
                return f"tableau {t.rows} does not survive the roundtrip"


@_register("split-rejoin", "roundtrips", cap=7)
def _check_split(d: int, rng: random.Random) -> Sweep:
    for gamma in _comps_upto(d):
        for t in enumerate_standard(straight(COMPOSITION, gamma)):
            for k in range(t.n + 1):
                yield
                upper, lower = split_tableau(t, k)
                if join_split(upper, lower) != t:
                    return f"split at {k} loses {t.rows}"


@_register("insertion-via-column-sort", "roundtrips", cap=7)
def _check_insert_compat(d: int, rng: random.Random) -> Sweep:
    for t in _straight_sscts(d, 4):
        for k in range(1, 6):
            yield
            direct = insert_ssct(t, k)
            packed, _ = insert_ssrt(pack_columns(t), k)
            if direct != unpack_columns(packed):
                return f"insertions disagree on {t.rows} with {k}"


def _rect_mismatch(t: Tableau, rectified: Tableau) -> str | None:
    """Rectification's second route, the column word of ``t`` folded through
    :func:`insert_ssct` from the empty filling, against ``rectified``."""
    alt = Tableau(straight(COMPOSITION, ()), ())
    for letter in column_word(t):
        alt = insert_ssct(alt, letter)
    if alt != rectified:
        return f"rect of {t.rows} is {rectified.rows}, insert_ssct gives {alt.rows}"
    return None


@_register("insertion-reconstructs-tableau", "roundtrips", cap=7)
def _check_insertion_identity(d: int, rng: random.Random) -> Sweep:
    for s in _straight_ssrts(d, 4):
        yield
        if insertion_tableau(column_word(s)) != s:
            return f"column word of {s.rows} inserts elsewhere"
    for gamma in _comps_upto(d):
        for t in enumerate_standard(straight(COMPOSITION, gamma)):
            yield
            rectified = rect(t)
            if mismatch := _rect_mismatch(t, rectified):
                return mismatch
            if rectified != t:
                return f"straight {t.rows} does not rectify to itself"


@_register("rectification-preserves-descents", "roundtrips", cap=7)
def _check_rect_descents(d: int, rng: random.Random) -> Sweep:
    for beta, gamma in _interval_pairs(d):
        shape = skew_shape(COMPOSITION, gamma, beta)
        for t in enumerate_standard(shape):
            yield
            rectified = rect(t)
            if mismatch := _rect_mismatch(t, rectified):
                return mismatch
            if descents(t) != descents(rectified):
                return f"descents change under rectification: {t.rows}"


@_register("skew-column-sort-pairing", "roundtrips", cap=7)
def _check_skew_pairing(d: int, rng: random.Random) -> Sweep:
    """The column sort pairs the fillings of gamma//beta with those of
    lam(gamma)/lam(beta): each image is a valid filling of that shape that
    unpacks over beta to its preimage, and the counts agree.  The colseq
    test checks the replay property, that the column sequence of a standard
    filling survives, against the column sort, which never reads it."""
    sct_counts: Counter = Counter()  # (partition of gamma, beta) -> SSCT count
    for beta, gamma in _interval_pairs(d):
        shape = skew_shape(COMPOSITION, gamma, beta)
        mu = underlying_partition(beta)
        fillings = enumerate_semistandard(shape, 3)
        sct_counts[underlying_partition(gamma), beta] += len(fillings)
        for t in fillings:
            yield
            image = pack_columns(t)
            if image.shape.outer != underlying_partition(gamma):
                return f"skew packing of {t.rows} lands on a wrong shape"
            if image.shape.inner != mu:
                return f"skew packing of {t.rows} moves the base"
            if validate(image) not in ("SSRT", "SRT"):
                return f"skew packing of {t.rows} is invalid"
            if unpack_columns(image, beta) != t:
                return f"skew unpack(pack) moves {t.rows}"
        for t in enumerate_standard(shape):
            yield
            if colseq(t) != colseq(pack_columns(t)):
                return f"skew packing changes colseq of {t.rows}"
    # counting form: SSCT over beta with fixed partition closure vs SSRT
    for nu in _parts_upto(d):
        for beta in _comps_upto(sum(nu)):
            mu = underlying_partition(beta)
            if not is_contained(mu, nu):
                continue
            srt_count = len(enumerate_semistandard(skew_shape(PARTITION, nu, mu), 3))
            yield
            if sct_counts[nu, beta] != srt_count:
                return f"pairing counts differ for nu={nu}, beta={beta}"


@_register("serialization-roundtrip", "roundtrips", cap=7)
def _check_serialization(d: int, rng: random.Random) -> Sweep:
    for beta, gamma in _interval_pairs(d):
        shape = skew_shape(COMPOSITION, gamma, beta)
        for t in enumerate_standard(shape):
            yield
            if tableau_from_json(json.loads(json.dumps(to_json_dict(t)))) != t:
                return f"tableau JSON roundtrip fails for {t.rows}"
    for alpha in _comps_upto(d):
        for f in (qs_schur(alpha), lift(_m_element(alpha))):
            yield
            if element_from_json(json.loads(json.dumps(element_to_json(f)))) != f:
                return f"element JSON roundtrip fails at {alpha}"


# ---------------------------------------------------------------------------
# runner


SUITES["all"] = tuple(_CHECKS)


def _require_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError(f"max degree must be nonnegative, not {max_degree}")


def run_check(name: str, max_degree: int, seed: int) -> CheckResult:
    """Run one check at its effective degree, ``max_degree`` clamped to the
    check's declared cap.  ``cases`` counts the check's yields; a returned
    string is its counterexample and a returned :class:`Note` its note.  An
    exception it raises (reported with 0 cases, whatever it yielded first)
    or a sweep of zero cases makes it fail.  Raises ``ValueError`` on a
    negative ``max_degree``."""
    _require_degree(max_degree)
    fn = _CHECKS[name]
    degree = min(max_degree, CAPS.get(name, max_degree))
    rng = random.Random(f"{seed}/{name}")
    started = time.perf_counter()
    cases = 0
    try:
        sweep = fn(degree, rng)
        while True:
            next(sweep)
            cases += 1
    except StopIteration as stop:
        outcome = stop.value
    except Exception as exc:
        elapsed = time.perf_counter() - started
        return CheckResult(
            name, False, 0, degree, elapsed, f"{type(exc).__name__}: {exc}"
        )
    elapsed = time.perf_counter() - started
    note = str(outcome) if isinstance(outcome, Note) else None
    counterexample = None if isinstance(outcome, Note) else outcome
    if cases == 0:
        empty = f"ran 0 cases at max degree {max_degree}"
        note = empty if note is None else f"{note}; {empty}"
    ok = counterexample is None and cases > 0
    return CheckResult(name, ok, cases, degree, elapsed, counterexample, note)


def run_suite(
    suite: str, max_degree: int, seed: int = DEFAULT_SEED, jobs: int = 1
) -> dict:
    if suite not in SUITES:
        raise KeyError(suite)
    _require_degree(max_degree)
    names = SUITES[suite]
    jobs = max(1, jobs)
    started = time.perf_counter()
    if jobs == 1:
        results = [run_check(name, max_degree, seed) for name in names]
    else:
        from concurrent import futures

        with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            handles = [pool.submit(run_check, name, max_degree, seed) for name in names]
            results = [h.result() for h in handles]
    return {
        "suite": suite,
        "max_degree": max_degree,
        "seed": seed,
        "ok": all(r.ok for r in results),
        "seconds": round(time.perf_counter() - started, 3),
        "checks": [r.to_json() for r in results],
    }
