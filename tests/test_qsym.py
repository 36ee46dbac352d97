import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschur import qsym
from qschur.compositions import (
    _mask_of_comp,
    compositions_of,
    leq,
    partitions_of,
    refines,
    underlying_partition,
)
from qschur.qsym import (
    GradedElement,
    TruncatedPolynomial,
    basis_element,
    commutative_monomial,
    convert,
    coproduct,
    element_from_json,
    element_to_json,
    from_polynomial,
    is_symmetric,
    linear,
    multiply,
    qs_schur,
    schur_expansion,
    skew_qs_schur,
    sym_to_qsym,
    to_polynomial,
    zero,
)
from qschur.tableaux import (
    COMPOSITION,
    SkewShape,
    descent_composition,
    enumerate_standard,
)

from oracles import (
    brute_ssct,
    filling_content,
    fundamental_poly,
    leq_by_covers,
    monomial_quasi_poly,
    monomial_to_schur_by_peel,
    multiply_by_polynomials,
    qschur_poly,
    refinements_by_blocks,
    schur_in_monomial_by_rows,
    schur_poly,
    solve_exact,
)


def M(alpha, coeff=1):
    return basis_element("QSym", "M", tuple(alpha), coeff)


def L(alpha, coeff=1):
    return basis_element("QSym", "L", tuple(alpha), coeff)


def comps_upto(d):
    return [a for n in range(d + 1) for a in compositions_of(n)]


def test_monomial_product_golden():
    assert multiply(M((1,)), M((1,))) == M((2,)) + 2 * M((1, 1))
    assert multiply(M((1, 2)), M((3,))) == (
        M((1, 2, 3)) + M((1, 3, 2)) + M((3, 1, 2)) + M((4, 2)) + M((1, 5))
    )


def test_quasi_shuffles_are_counted_by_delannoy_numbers():
    # counted with multiplicity, a and b of lengths k and l have D(k, l)
    # quasi-shuffles, the sum over i of C(k, i) C(l, i) 2^i
    for a in comps_upto(5):
        for b in comps_upto(5):
            k, l = len(a), len(b)
            delannoy = sum(
                math.comb(k, i) * math.comb(l, i) * 2**i for i in range(k + 1)
            )
            assert sum(multiply(M(a), M(b)).terms.values()) == delannoy


def basis_pairs(d):
    return [
        (a, b)
        for n in range(d + 1)
        for k in range(n + 1)
        for a in compositions_of(k)
        for b in compositions_of(n - k)
    ]


def test_multiply_matches_polynomial_route():
    for basis in ("M", "L", "S"):
        for a, b in basis_pairs(6):
            f = basis_element("QSym", basis, a)
            g = basis_element("QSym", basis, b)
            assert multiply(f, g) == multiply_by_polynomials(f, g), (basis, a, b)
    degree_seven = [("S", (2, 1), (1, 3)), ("L", (1, 3, 1), (2,)), ("M", (3,), (1, 2, 1))]
    for basis, a, b in degree_seven:
        f = basis_element("QSym", basis, a)
        g = basis_element("QSym", basis, b)
        assert multiply(f, g) == multiply_by_polynomials(f, g), (basis, a, b)

    # zero, the unit, and mixed-degree elements with negative and Fraction
    # coefficients
    f = GradedElement("QSym", "L", {(2, 1): 3, (1,): -2, (): Fraction(1, 2)})
    for other in (zero("QSym", "S"), M(()), basis_element("QSym", "S", ())):
        assert multiply(f, other) == multiply_by_polynomials(f, other)
        assert multiply(other, f) == multiply_by_polynomials(other, f)
    assert multiply(f, zero("QSym", "M")) == zero("QSym", "M")
    assert multiply(M(()), f) == convert(f, "M")
    rng = random.Random(13)
    small = comps_upto(3)
    coeffs = [-3, -1, 2, Fraction(1, 2), Fraction(-5, 3)]

    def mixed():
        terms = {rng.choice(small): rng.choice(coeffs) for _ in range(3)}
        return GradedElement("QSym", rng.choice("MLS"), terms)

    for _ in range(30):
        f, g = mixed(), mixed()
        assert multiply(f, g) == multiply_by_polynomials(f, g), (f, g)

    for sym_basis in ("s", "m"):
        for lam in (p for n in range(6) for p in partitions_of(n)):
            for mu in (p for n in range(6 - sum(lam)) for p in partitions_of(n)):
                f = basis_element("Sym", sym_basis, lam)
                g = basis_element("Sym", sym_basis, mu)
                assert multiply(f, g) == multiply_by_polynomials(f, g), (lam, mu)


@pytest.mark.parametrize("basis", ["M", "L", "S"])
def test_multiply_rejects_non_compositions(basis):
    good = basis_element("QSym", basis, (1,))
    for bad in [(0, 1), (1, -2), (1.0,), ("1",), 3]:
        f = GradedElement("QSym", basis, {(2,): 1, bad: 1})
        for args in ((f, good), (good, f)):
            with pytest.raises(ValueError, match="does not index a basis element"):
                multiply(*args)


@pytest.mark.parametrize("basis", ["s", "m"])
def test_sym_multiply_rejects_non_partitions(basis):
    good = basis_element("Sym", basis, (1,))
    for bad in [(1, 2), (0,), (2, -1)]:
        f = GradedElement("Sym", basis, {bad: 1})
        for args in ((f, good), (good, f)):
            with pytest.raises(ValueError, match="does not index a basis element"):
                multiply(*args)


@pytest.mark.parametrize("basis", ["s", "m", "h"])
def test_sym_inclusion_and_evaluation_reject_non_partitions(basis):
    for bad in [(1, 2), (2, 0), (True,), (-1,), (1.0,)]:
        f = GradedElement("Sym", basis, {bad: 1})
        calls = [lambda: to_polynomial(f, 2), lambda: is_symmetric(f)]
        if basis != "h":
            calls.append(lambda: sym_to_qsym(f))
        for call in calls:
            with pytest.raises(ValueError, match="does not index a basis element"):
                call()


def test_rearrangements_match_the_composition_scan():
    # The scan over all compositions of |lam| is the second route; the
    # recursion must give the same keys in the same order.
    for n in range(10):
        for lam in partitions_of(n):
            scan = [a for a in compositions_of(n) if underlying_partition(a) == lam]
            assert list(qsym._rearrangements(lam).items()) == [(a, 1) for a in scan]


def test_schur_to_monomial_matches_the_rows_route():
    # Sym's s -> m and the inclusion of s_lam, through QSym, against the sum
    # of the rearrangements' quasi-Schur rows moved to M by blockwise
    # refinements.
    for n in range(9):
        for lam in partitions_of(n):
            s_lam = basis_element("Sym", "s", lam)
            in_m = schur_in_monomial_by_rows(lam)
            assert convert(s_lam, "m").terms == in_m
            assert sym_to_qsym(s_lam).terms == {
                alpha: c for mu, c in in_m.items() for alpha in qsym._rearrangements(mu)
            }


def test_monomial_to_schur_matches_the_lexicographic_peel():
    for n in range(9):
        for lam in partitions_of(n):
            m_lam = basis_element("Sym", "m", lam)
            in_s = monomial_to_schur_by_peel({lam: 1})
            assert convert(m_lam, "s").terms == in_s
            assert schur_expansion(sym_to_qsym(m_lam)).terms == in_s


def test_refinements_on_masks_match_blockwise_concatenation():
    for alpha in comps_upto(9):
        got = list(qsym._strong_refinements(alpha))
        assert len(got) == len(set(got))
        assert set(got) == set(refinements_by_blocks(alpha))


def test_multiply_never_uses_the_polynomial_model(monkeypatch):
    def refuse(*args):
        raise AssertionError("multiply went through the polynomial model")

    monkeypatch.setattr(qsym, "to_polynomial", refuse)
    monkeypatch.setattr(qsym, "from_polynomial", refuse)
    for basis in ("M", "L", "S"):
        f = basis_element("QSym", basis, (2, 1))
        g = basis_element("QSym", basis, (1, 2))
        assert multiply(f, g).terms
    for basis in ("s", "m"):
        assert multiply(
            basis_element("Sym", basis, (2, 1)), basis_element("Sym", basis, (1,))
        ).terms


def test_monomial_coproduct_golden():
    assert coproduct(M((2, 1))) == {
        ((), (2, 1)): 1,
        ((2,), (1,)): 1,
        ((2, 1), ()): 1,
    }


def test_fundamental_coproduct_golden():
    assert coproduct(L((2, 1))) == {
        ((), (2, 1)): 1,
        ((2,), (1,)): 1,
        ((1,), (1, 1)): 1,
        ((2, 1), ()): 1,
    }


def test_schur_coproduct_runs_over_the_down_set_in_canonical_order():
    # A second route, one skew function per beta: test every composition of
    # weight at most |alpha| against the order and convert each S_{alpha//beta}.
    for alpha in comps_upto(8):
        delta = coproduct(basis_element("QSym", "S", alpha))
        expected = [
            ((idx, beta), k)
            for beta in comps_upto(sum(alpha))
            if leq(beta, alpha)
            for idx, k in convert(skew_qs_schur(alpha, beta), "S").terms.items()
        ]
        assert list(delta.items()) == expected
        if sum(alpha) <= 5:
            inner = list(dict.fromkeys(beta for _, beta in delta))
            assert inner == [
                beta for beta in comps_upto(5) if leq_by_covers(beta, alpha)
            ]


@pytest.mark.parametrize("basis", "MLS")
@pytest.mark.parametrize("index", [(0, 1), (-1,), (2, 0)])
def test_coproduct_rejects_non_compositions(basis, index):
    with pytest.raises(ValueError, match="does not index a basis element"):
        coproduct(GradedElement("QSym", basis, {index: 1}))


def test_fundamental_expands_over_refinements():
    for alpha in comps_upto(5):
        assert convert(L(alpha), "M").terms == {
            beta: 1 for beta in compositions_of(sum(alpha)) if refines(beta, alpha)
        }


def test_monomial_realization_matches_reference():
    for alpha in comps_upto(4):
        for m in (len(alpha), sum(alpha) + 1):
            if m == 0:
                continue
            assert to_polynomial(M(alpha), m).terms == monomial_quasi_poly(alpha, m)


def test_fundamental_realization_matches_reference():
    for alpha in comps_upto(4):
        assert to_polynomial(L(alpha), 4).terms == fundamental_poly(alpha, 4)


def test_quasi_schur_realization_matches_reference():
    for alpha in comps_upto(4):
        assert to_polynomial(qs_schur(alpha), 4).terms == qschur_poly(alpha, 4)


def test_schur_realization_matches_reference():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
        f = basis_element("Sym", "s", lam)
        assert to_polynomial(f, 4).terms == schur_poly(lam, 4)


def test_skew_quasi_schur_goldens():
    assert skew_qs_schur((1, 2), (1,)) == L((1, 1))
    assert skew_qs_schur((1, 2), (2,)) == L((1,))
    assert skew_qs_schur((1, 2), (1, 1)) == zero("QSym", "L")
    assert skew_qs_schur((2, 1), ()) == L((2, 1))
    assert qs_schur((1, 2)) == L((1, 2))
    assert qs_schur((2, 2)) == L((2, 2)) + L((1, 2, 1))


def test_skew_quasi_schur_matches_tableau_descents():
    for gamma in comps_upto(7):
        for beta in comps_upto(sum(gamma)):
            if leq(beta, gamma):
                shape = SkewShape(COMPOSITION, gamma, beta)
                terms = [(descent_composition(t), 1) for t in enumerate_standard(shape)]
                assert skew_qs_schur(gamma, beta) == GradedElement("QSym", "L", terms)


def test_skew_quasi_schur_vanishes_off_the_order():
    comps = comps_upto(7)
    for gamma in comps:
        for beta in comps:
            assert bool(skew_qs_schur(gamma, beta)) == leq_by_covers(beta, gamma)


def test_skew_quasi_schur_walks_down_without_a_down_set(monkeypatch):
    """A skew walks down from its outer shape: it builds no down-set and
    asks for the down cover cells of a fixed number of compositions, one
    per composition on the levels above the inner shape."""
    calls = []
    real_down_cells = qsym._down_cells

    def counting_down_cells(gamma):
        calls.append(gamma)
        return real_down_cells(gamma)

    qsym._chain_store.cache_clear()
    monkeypatch.setattr(qsym, "_down_cells", counting_down_cells)
    assert skew_qs_schur((2, 3, 1, 2), (1,)).terms == {(1, 2, 2, 1, 1): 1, (2, 3, 1, 1): 1}
    assert len(calls) == 8
    # One cell apart: a single level, so the outer shape alone is asked,
    # both for a cover and for a pair the order does not relate (the cell
    # of row 5 cannot be removed while row 2 has length 2).
    outer = (3, 2, 4, 1, 3, 2, 1)
    for inner, terms in [((3, 1, 4, 1, 3, 2, 1), {(1,): 1}), ((3, 2, 4, 1, 2, 2, 1), {})]:
        calls.clear()
        assert skew_qs_schur(outer, inner).terms == terms
        assert calls == [outer]


def test_deep_skews_walk_level_by_level():
    """The tables fill bottom-up with no recursion, so thin shapes whose
    chains are far longer than Python's stack is deep still finish, and so
    does a coproduct that reads many deep skews."""
    assert qs_schur((2000,)).terms == {(2000,): 1}
    assert qs_schur((1,) * 800).terms == {(1,) * 800: 1}
    assert skew_qs_schur((400,), (50,)).terms == {(350,): 1}
    # the sum of S_(250-k) (x) S_(k), one skew per inner shape (k)
    expected = {((250 - k,) if k < 250 else (), (k,) if k else ()): 1 for k in range(251)}
    assert coproduct(basis_element("QSym", "S", (250,))) == expected


def test_cold_store_fills_what_a_warm_store_reads():
    """A skew filled into an empty store equals the same skew read from a
    store that smaller outer shapes warmed, where each call fills only its
    outer shape's own table: the fill order shows only in a cold store."""
    pairs = [(gamma, beta) for gamma in comps_upto(6) for beta in comps_upto(sum(gamma) - 1)]
    qsym._chain_store.cache_clear()
    warm = [skew_qs_schur(gamma, beta) for gamma, beta in pairs]
    cold = []
    for gamma, beta in pairs:
        qsym._chain_store.cache_clear()
        cold.append(skew_qs_schur(gamma, beta))
    assert cold == warm
    assert sum(bool(f) for f in cold) > len(pairs) // 4


@pytest.mark.parametrize(
    "call",
    [
        lambda: skew_qs_schur((2, 1), (0, 1)),
        lambda: skew_qs_schur((0, 1), ()),
        lambda: qs_schur((-1, 2)),
        # (1, 2) in the memo first: a bool part must not read its entry
        lambda: (qs_schur((1, 2)), qs_schur((True, 2))),
        lambda: qs_schur([1, 2]),
        lambda: (qs_schur((1, 2)), skew_qs_schur((True, 2), ())),
        lambda: skew_qs_schur([1, 2], ()),
    ],
    ids=[
        "zero-inner",
        "zero-outer",
        "negative",
        "bool-part",
        "list",
        "skew-bool-part",
        "skew-list",
    ],
)
def test_skew_quasi_schur_rejects_non_compositions(call):
    with pytest.raises(ValueError, match="is not a composition"):
        call()


def test_skew_realization_counts_semistandard_fillings():
    cases = [((4, 4, 2), (3, 2, 1)), ((1, 4, 3), (1, 2)), ((2, 3), (1,))]
    for gamma, beta in cases:
        f = convert(skew_qs_schur(gamma, beta), "M")
        expected: dict = {}
        for filling in brute_ssct(gamma, beta, 4):
            key = filling_content(filling, 4)
            expected[key] = expected.get(key, 0) + 1
        assert to_polynomial(f, 4).terms == expected


def test_uniform_skew_shape_is_schur_positive():
    f = skew_qs_schur((4, 4, 2), (3, 2, 1))
    assert is_symmetric(f)
    expansion = schur_expansion(f)
    assert expansion.terms
    assert all(c > 0 for c in expansion.terms.values())


def test_conversion_round_trips():
    # the last input has Fraction coefficients and mixed degree
    mixed = {(2, 1): Fraction(1, 2), (1,): Fraction(-3, 4), (1, 2, 1): 2}
    for src in ("M", "L", "S"):
        inputs = [basis_element("QSym", src, alpha) for alpha in comps_upto(4)]
        for f in inputs + [GradedElement("QSym", src, mixed)]:
            for dst in ("M", "L", "S"):
                assert convert(convert(f, dst), src) == f


def dense_s_coefficients(f):
    """S coefficients of a QSym element by solving the S-to-L matrix densely."""
    g = convert(f, "L")
    out = {}
    for n in g.degrees():
        comps = list(compositions_of(n))
        pos = {c: i for i, c in enumerate(comps)}
        matrix = [[0] * len(comps) for _ in comps]
        for j, alpha in enumerate(comps):
            for delta, k in qs_schur(alpha).terms.items():
                matrix[pos[delta]][j] = k
        solution = solve_exact(matrix, [g.coefficient(c) for c in comps])
        out.update({alpha: x for alpha, x in zip(comps, solution) if x})
    return out


def test_s_conversion_matches_dense_solve():
    pool = comps_upto(6)
    cases = [basis_element("QSym", b, alpha) for b in ("L", "M") for alpha in pool]
    rng = random.Random(2011)
    for _ in range(200):
        terms = [(rng.choice(pool), rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        cases.append(GradedElement("QSym", rng.choice("LM"), terms))
    for f in cases:
        assert convert(f, "S").terms == dense_s_coefficients(f)


@pytest.mark.parametrize(
    "convert_bad",
    [
        lambda: convert(GradedElement("QSym", "L", {(0, 1): 1, (1,): 2}), "S"),
        lambda: convert(basis_element("QSym", "M", (0, 1)), "S"),
        lambda: convert(basis_element("QSym", "L", (2, 0)), "M"),
        lambda: convert(GradedElement("Sym", "m", {(1, 2): 1}), "s"),
        lambda: schur_expansion(GradedElement("Sym", "m", {(0, 1): 1})),
        lambda: convert(GradedElement("QSym", "M", {3: 1}), "L"),
        lambda: convert(basis_element("Sym", "s", (1, 2)), "m"),
        lambda: convert(GradedElement("Sym", "m", {3: 1}), "s"),
        lambda: convert(basis_element("QSym", "M", (0, 1)), "M"),
        lambda: convert(basis_element("Sym", "s", (1, 2)), "s"),
    ],
    ids=[
        "L-to-S",
        "M-to-S",
        "L-to-M",
        "m-to-s",
        "schur-expansion",
        "QSym-non-tuple",
        "s-to-m",
        "Sym-non-tuple",
        "QSym-same-basis",
        "Sym-same-basis",
    ],
)
def test_peel_rejects_malformed_indices(convert_bad):
    with pytest.raises(ValueError, match="does not index a basis element"):
        convert_bad()


def test_peel_stops_at_a_lead_that_does_not_descend():
    """An expansion holding an index above its own lead hands the peel a
    larger lead; here each one would bring the next, without end.  The peel
    raises at the first lead not below the one before it."""

    def expansion(alpha):
        return {alpha: 1, (sum(alpha) + 1,): 1}

    with pytest.raises(ValueError, match="not below the previous lead"):
        qsym._peel({(2,): 1}, qsym._l_to_s_key, expansion)


def test_descending_masks_are_ascending_l_to_s_keys():
    """The change from L to S peels on masks with the smallest leading; that
    is the tuple route's order, largest ``_l_to_s_key`` leading, within
    every degree."""
    for n in range(11):
        comps = list(compositions_of(n))
        by_key = sorted(comps, key=qsym._l_to_s_key)
        assert by_key == sorted(comps, key=_mask_of_comp, reverse=True)


@pytest.mark.parametrize(
    "row, message",
    [
        (lambda mask: {}, r"^\(2, 1\) does not index a basis element$"),
        (
            lambda mask: {mask: 1, mask - 1: 1},
            r"^\(1, 2\) is not below the previous lead of the peel$",
        ),
    ],
    ids=["lead-survives", "lead-rises"],
)
def test_l_to_s_errors_name_the_composition(monkeypatch, row, message):
    # Rows that break the peel's guard: the error names the composition of
    # the offending lead, not its mask.
    monkeypatch.setattr(qsym, "_l_row", row)
    with pytest.raises(ValueError, match=message):
        qsym._l_to_s({(2, 1): 1})


def test_schur_basis_inverts_quasi_schur():
    for alpha in comps_upto(5):
        f = convert(basis_element("QSym", "S", alpha), "L")
        assert f == qs_schur(alpha)


def test_from_polynomial_rejects_unbalanced_coefficients():
    p = commutative_monomial(2, (1, 0))
    with pytest.raises(ValueError, match="not quasisymmetric"):
        from_polynomial(p, 1)


def test_from_polynomial_requires_enough_variables():
    p = commutative_monomial(1, (2,))
    with pytest.raises(ValueError, match="variables"):
        from_polynomial(p, 2)


@pytest.mark.parametrize("count", [-1, True, False, 2.0, 2.5, "2"], ids=repr)
def test_polynomial_variable_counts_must_be_non_negative_ints(count):
    """Both directions refuse a count that is not a non-negative int: the
    sign used to give an empty polynomial, a bool to be read as 0 or 1."""
    with pytest.raises(ValueError, match="non-negative int"):
        to_polynomial(qs_schur((2, 1)), count)
    with pytest.raises(ValueError, match="non-negative int"):
        from_polynomial(commutative_monomial(3, (2, 1, 0)), count)


composition_lists = st.lists(
    st.tuples(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
        st.integers(-3, 3),
    ),
    max_size=4,
)


@given(composition_lists)
@settings(deadline=None, max_examples=40)
def test_polynomial_round_trip(raw):
    f = GradedElement("QSym", "M", raw)
    m = max(f.degree(), 1)
    assert from_polynomial(to_polynomial(f, m), m) == f


def test_rearrangement_sums_are_schur():
    for lam in [(2, 1), (3, 1), (2, 2)]:
        f = zero("QSym", "L")
        for alpha in compositions_of(sum(lam)):
            if tuple(sorted(alpha, reverse=True)) == lam:
                f = f + qs_schur(alpha)
        assert is_symmetric(f)
        assert schur_expansion(f) == basis_element("Sym", "s", lam)


def test_single_quasi_schur_is_rarely_symmetric():
    assert not is_symmetric(qs_schur((2, 1)))
    assert is_symmetric(qs_schur((1, 1, 1)))
    with pytest.raises(ValueError, match="not symmetric"):
        schur_expansion(qs_schur((2, 1)))


def test_sym_inclusion_sums_rearrangements():
    f = sym_to_qsym(basis_element("Sym", "m", (2, 1)))
    assert f == M((2, 1)) + M((1, 2))


def test_element_json_round_trip():
    f = M((2, 1), Fraction(1, 2)) + M((3,), -4)
    d = element_to_json(f)
    assert d["terms"] == [
        {"index": [3], "coeff": -4},
        {"index": [2, 1], "coeff": {"numerator": 1, "denominator": 2}},
    ]
    assert element_from_json(json.loads(json.dumps(d))) == f


# ---------------------------------------------------------------------------
# element arithmetic: one space per sum, zeros dropped


def test_element_arithmetic_rejects_mixed_spaces():
    m, l = M((1, 2)), basis_element("QSym", "L", (1, 2))
    sym = basis_element("Sym", "m", (2, 1))
    for a, b in [(m, l), (l, m), (m, sym), (sym, m)]:
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a - b


def test_polynomial_arithmetic_rejects_mixed_models():
    p = TruncatedPolynomial(2, True, {(1, 0): 1})
    others = [
        TruncatedPolynomial(3, True, {(1, 0, 0): 1}),
        TruncatedPolynomial(2, False, {(1,): 1}),
    ]
    for q in others:
        for a, b in [(p, q), (q, p)]:
            with pytest.raises(ValueError):
                a + b
            with pytest.raises(ValueError):
                a * b


def test_arithmetic_with_a_non_element_raises_type_error():
    f = M((1, 2))
    p = TruncatedPolynomial(2, True, {(1, 0): 1})
    for operation in (
        lambda: f + 0,
        lambda: f - 0,
        lambda: p + 0,
        lambda: p - 0,
        lambda: p * 2,
        lambda: sum([f, f]),
    ):
        with pytest.raises(TypeError):
            operation()
    assert 2 * p == p + p


def test_element_never_equals_polynomial_with_same_terms():
    f = GradedElement("QSym", "M", {(1, 1): 1})
    p = TruncatedPolynomial(2, True, {(1, 1): 1})
    assert f.terms == p.terms
    assert f != p and p != f
    assert GradedElement("QSym", "M") != TruncatedPolynomial(0, True)


def test_cancellation_drops_zeros():
    half, third = Fraction(1, 2), Fraction(1, 3)
    f = M((1,)) + M((2,), half)
    g = M((1,)) + M((2,), third)
    assert (f - g).terms == {(2,): Fraction(1, 6)}
    assert not (f - f) and (f - f).terms == {}
    pairs = [((1,), 1), ((2,), half), ((1,), -1), ((2,), half), ((3,), 0)]
    assert GradedElement("QSym", "M", pairs).terms == {(2,): 1}
    p = TruncatedPolynomial(1, True, {(1,): third, (2,): 1})
    q = TruncatedPolynomial(1, True, {(1,): third})
    assert (p - q).terms == {(2,): 1}
    assert (p - p).terms == {} and not (p - p)
    assert (0 * p).terms == {}


def test_equal_elements_hash_equal():
    a = GradedElement("QSym", "M", [((2, 1), 1), ((3,), Fraction(1, 2))])
    b = M((3,), Fraction(1, 2)) + M((2, 1)) + M((1, 2)) - M((1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(zero("QSym", "M")) == hash(M((1,)) - M((1,)))


def test_polynomial_negation():
    p = TruncatedPolynomial(2, False, {(1, 2): 3, (2,): Fraction(-1, 2)})
    assert (-p).terms == {(1, 2): -3, (2,): Fraction(1, 2)}
    assert -p == (-1) * p
    assert not (p + (-p))


def test_linear_extension_sums_images_and_drops_zeros():
    def image(i):
        return {(9,): 1, i: Fraction(1, 2)}

    assert linear({(1,): 2, (2,): -2}, image) == {(1,): 1, (2,): -1}
    assert linear({(1,): 2, (2,): 1}, image) == {(9,): 3, (1,): 1, (2,): Fraction(1, 2)}
    assert linear({}, image) == {}
