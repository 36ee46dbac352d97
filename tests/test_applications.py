import itertools
import math
from fractions import Fraction

import pytest

from qschur import applications, transforms
from qschur.applications import (
    chi_nc,
    descent_pieri_K,
    knuth_class,
    kostka,
    labeled_chains,
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
    shape_of_blocks,
)
from qschur.compositions import compositions_of, partitions_of
from qschur.nsym import product_nc_schur
from qschur.qsym import (
    GradedElement,
    TruncatedPolynomial,
    basis_element,
    commutative_monomial,
    let_variables_commute,
    qs_schur,
    skew_qs_schur,
    to_polynomial,
)
from qschur.tableaux import (
    PARTITION,
    canonical_srt,
    enumerate_standard,
    from_rows,
    straight,
)
from qschur.transforms import insertion_tableau

from oracles import (
    brute_ssct,
    filling_content,
    insert_word,
    knuth_class_by_filter,
    knuth_classes_by_census,
    pr_product_by_filter,
    qs_rs_by_fillings,
    shuffles,
)


def test_pr_product_golden():
    t1 = from_rows(PARTITION, [[3, 2], [1]])
    t2 = from_rows(PARTITION, [[3, 2, 1]])
    terms = pr_product(t1, t2)
    assert len(terms) == 4
    assert {t.rows for t in terms} == {
        ((6, 5, 3, 2, 1), (4,)),
        ((6, 5, 2, 1), (4, 3)),
        ((6, 5, 2, 1), (4,), (3,)),
        ((6, 5, 1), (4, 2), (3,)),
    }


def test_pr_image_is_anti_morphism_golden():
    t1 = from_rows(PARTITION, [[3, 2], [1]])
    t2 = from_rows(PARTITION, [[3, 2, 1]])
    image = nsym_image_sum(pr_product(t1, t2))
    assert nsym_image(t2) == basis_element("NSym", "S_star", (3,))
    assert nsym_image(t1) == basis_element("NSym", "S_star", (1, 2))
    assert image == product_nc_schur((3,), (1, 2))
    assert image.terms == {(1, 5): 1, (4, 2): 1, (1, 1, 4): 1, (3, 1, 2): 1}


def oracle_classes(n):
    classes: dict = {}
    for w in itertools.permutations(range(1, n + 1)):
        classes.setdefault(insert_word(w), []).append(w)
    return classes


def test_pr_product_matches_word_shuffles():
    t1 = from_rows(PARTITION, [[1]])
    t2 = from_rows(PARTITION, [[3, 1], [2]])
    n = 3
    census: dict = {}
    total = 0
    for u in oracle_classes(1)[insert_word((1,))]:
        shifted = tuple(x + n for x in u)
        for v in oracle_classes(3)[tuple(t2.rows)]:
            for w in shuffles(shifted, v):
                census[insert_word(w)] = census.get(insert_word(w), 0) + 1
                total += 1
    terms = pr_product(t1, t2)
    assert set(census) == {tuple(t.rows) for t in terms}
    big = oracle_classes(4)
    for t in terms:
        assert census[tuple(t.rows)] == len(big[tuple(t.rows)])
    assert total == 1 * 2 * math.comb(4, 1)

    counts, package_total = pr_product_words(t1, t2)
    assert package_total == total
    assert {tuple(t.rows): c for t, c in counts.items()} == census


def test_knuth_class_golden():
    t = from_rows(PARTITION, [[3, 1], [2]])
    assert set(knuth_class(t)) == {(2, 3, 1), (2, 1, 3)}
    row = from_rows(PARTITION, [[2, 1]])
    assert knuth_class(row) == ((2, 1),)


def test_knuth_classes_partition_permutations():
    n = 4
    seen = [w for w in itertools.permutations(range(1, n + 1))]
    grouped: dict = {}
    for w in seen:
        grouped.setdefault(insert_word(w), []).append(w)
    covered = set()
    for rows in grouped:
        t = from_rows(PARTITION, [list(r) for r in rows])
        covered.update(knuth_class(t))
    assert covered == set(seen)


def test_pr_product_census_matches_filter_route():
    srts = [
        [
            t
            for lam in partitions_of(n)
            for t in enumerate_standard(straight(PARTITION, lam))
        ]
        for n in range(7)
    ]
    for a in range(7):
        for b in range(7 - a):
            for t1 in srts[a]:
                for t2 in srts[b]:
                    assert pr_product(t1, t2) == pr_product_by_filter(t1, t2)


def test_knuth_class_lookup_matches_filter_route():
    for n in range(7):
        covered = []
        for lam in partitions_of(n):
            fillings = enumerate_standard(straight(PARTITION, lam))
            for t in fillings:
                words = knuth_class(t)
                assert words == knuth_class_by_filter(t)
                assert len(words) == len(fillings)
                covered.extend(words)
        assert sorted(covered) == list(itertools.permutations(range(1, n + 1)))


def test_knuth_class_matches_census_through_8():
    for n in range(9):
        census = knuth_classes_by_census(n)
        fillings = [
            t
            for lam in partitions_of(n)
            for t in enumerate_standard(straight(PARTITION, lam))
        ]
        assert set(census) == set(fillings)
        for t in fillings:
            assert knuth_class(t) == census[t]


def test_knuth_class_inserts_no_permutation(monkeypatch):
    """The largest class at n = 9 comes from Knuth moves alone: no word is
    inserted, so no census of the 9! permutations is built."""

    def refuse(word):
        raise AssertionError("knuth_class inserted a word")

    t = canonical_srt((4, 2, 2, 1))
    monkeypatch.setattr(applications, "insertion_tableau", refuse)
    monkeypatch.setattr(transforms, "insertion_tableau", refuse)
    words = knuth_class(t)
    monkeypatch.undo()
    assert len(words) == 216
    assert list(words) == sorted(set(words))
    assert all(insertion_tableau(w) == t for w in words)


def test_pr_product_rejects_skew_input():
    skew = from_rows(PARTITION, [[None, 2], [1]])
    straight_row = from_rows(PARTITION, [[1]])
    with pytest.raises(ValueError):
        pr_product(skew, straight_row)


def test_set_composition_counts_are_ordered_bell():
    assert [len(set_compositions(n)) for n in range(5)] == [1, 1, 3, 13, 75]
    assert set(set_compositions(2)) == {((1,), (2,)), ((2,), (1,)), ((1, 2),)}


def test_set_compositions_are_the_surjective_words_in_order():
    for n in range(6):
        expected = set()
        for k in range(n + 1):
            for word in itertools.product(range(k), repeat=n):
                if set(word) == set(range(k)):
                    blocks = (tuple(j + 1 for j in range(n) if word[j] == b) for b in range(k))
                    expected.add(tuple(blocks))
        assert set_compositions(n) == tuple(sorted(expected, key=lambda pi: (len(pi), pi)))


def test_set_compositions_reject_negative_sizes():
    for n in (-1, -3, 1.5, True):
        with pytest.raises(ValueError, match="is not a non-negative int"):
            set_compositions(n)


def test_shape_of_blocks():
    assert shape_of_blocks(((2,), (1, 3))) == (1, 2)
    assert shape_of_blocks(()) == ()
    # a string, a repeated entry, a missing 1, a block out of order, a list
    for pi in ["ab", ((1,), (1,)), ((2,),), ((2, 1),), [(1,)]]:
        with pytest.raises(ValueError, match="is not a set composition"):
            shape_of_blocks(pi)


def test_nc_monomial_golden():
    p = m_pi_nc(((2,), (1, 3)), 3)
    assert p.terms == {(2, 1, 2): 1, (3, 1, 3): 1, (3, 2, 3): 1}
    assert not p.commutative


def test_symmetric_nc_monomial_ignores_block_order():
    pi = ((2,), (1, 3))
    swapped = ((1, 3), (2,))
    assert m_pi_sym(pi, 3) != m_pi_nc(pi, 3)
    for word in m_pi_nc(pi, 3).terms:
        assert word in m_pi_sym(pi, 3).terms
    assert m_pi_sym(pi, 3).terms.keys() == {
        (b, a, b) for a, b in itertools.permutations((1, 2, 3), 2)
    }
    assert m_pi_sym(swapped, 3) == m_pi_sym(pi, 3)


def test_kostka_counts_fillings_with_content():
    assert kostka((2, 1), (1, 1, 1)) == 1
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((1, 2), (1, 1, 1)) == 1
    assert kostka((2,), (1, 1)) == 1
    assert kostka((2, 1), (3,)) == 0
    assert kostka((2, 1), (1, 1)) == 0


@pytest.mark.parametrize(
    "alpha, beta",
    [((1,), (2, -1)), ((2, 1), (1, 1.0, 1)), ((2, 1), (3, "0")), ((2, -1), (2,)), ([1], (1,))],
)
def test_kostka_rejects_bad_input(alpha, beta):
    with pytest.raises(ValueError):
        kostka(alpha, beta)


def test_kostka_matches_brute_enumeration():
    for alpha in [(2, 1), (1, 2), (3,), (1, 1, 1), (2, 2)]:
        n = sum(alpha)
        for beta_weak in itertools.product(range(n + 1), repeat=3):
            if sum(beta_weak) != n:
                continue
            expected = sum(
                1
                for f in brute_ssct(alpha, (), 3)
                if filling_content(f, 3) == beta_weak
            )
            assert kostka(alpha, beta_weak) == expected


def test_qs_rs_golden():
    p = qs_rs((1, 2), 2)
    assert p.terms == {(1, 2, 2): 2, (2, 1, 2): 2, (2, 2, 1): 2}


def test_qs_rs_matches_the_fillings_scan():
    for n in range(6):
        for alpha in compositions_of(n):
            for m in {max(n - 1, 0), n, n + 1}:
                assert qs_rs(alpha, m) == qs_rs_by_fillings(alpha, m), (alpha, m)


def test_qs_rs_is_the_scaled_lift_of_the_quasi_schur_function():
    for n in range(5):
        for alpha in compositions_of(n):
            lifted = lift(qs_schur(alpha))
            for m in (n, n + 1):
                ours = qs_rs(alpha, m).terms
                scaled = ncqsym_to_polynomial(lifted, m).terms
                assert all(type(c) is int for c in ours.values())
                assert all((math.factorial(n) * c).denominator == 1 for c in scaled.values())
                assert ours == {w: int(math.factorial(n) * c) for w, c in scaled.items()}


@pytest.mark.parametrize("alpha, m", [((2, 0), 2), ([1, 2], 2), ((1, 2), -1), ((1, 2), True)])
def test_qs_rs_rejects_bad_input(alpha, m):
    with pytest.raises(ValueError):
        qs_rs(alpha, m)


@pytest.mark.parametrize("lam", [(1, 2), (2, 0), [2, 1], (2.0, 1)])
def test_s_rs_rejects_non_partitions(lam):
    with pytest.raises(ValueError, match="is not a partition"):
        s_rs(lam, 2)


def test_schur_analogue_sums_rearrangements():
    lam = (2, 1)
    total = qs_rs((2, 1), 3) + qs_rs((1, 2), 3)
    assert s_rs(lam, 3) == total


def test_projection_recovers_quasi_schur():
    for alpha in [(1,), (2,), (1, 1), (2, 1), (1, 2), (1, 1, 1)]:
        n = sum(alpha)
        for m in (n, n + 1):
            scaled = chi_nc(qs_rs(alpha, m))
            expected = math.factorial(n) * to_polynomial(qs_schur(alpha), m)
            assert scaled == expected


def test_lift_golden():
    f = basis_element("QSym", "M", (1, 1))
    lifted = lift(f)
    assert lifted.terms == {
        ((1,), (2,)): Fraction(1, 2),
        ((2,), (1,)): Fraction(1, 2),
    }


def test_lift_then_project_is_identity():
    f = GradedElement(
        "QSym", "M", {(2, 1): 3, (1, 1, 1): -2, (4,): Fraction(1, 3)}
    )
    assert project(lift(f)) == f


def test_lift_spreads_m_alpha_over_the_set_compositions_of_shape_alpha():
    for n in range(6):
        for alpha in compositions_of(n):
            support = set(lift(basis_element("QSym", "M", alpha)).terms)
            shaped = {pi for pi in set_compositions(n) if shape_of_blocks(pi) == alpha}
            assert support == shaped


@pytest.mark.parametrize("pi", [((1,), (1,)), ((2,),), ((2, 1),), ((1,), ()), (1,), [(1,)]])
def test_nc_monomials_reject_non_set_compositions(pi):
    for monomial in (m_pi_nc, m_pi_sym):
        with pytest.raises(ValueError, match="does not index a basis element"):
            monomial(pi, 2)
    if type(pi) is tuple:
        with pytest.raises(ValueError, match="does not index a basis element"):
            ncqsym_to_polynomial(GradedElement("NCQSym", "M_Pi", {pi: 1}), 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: commutative_monomial(-1, (2,)),
        lambda: commutative_monomial(2, (2,)),
        lambda: commutative_monomial(1, (-1,)),
        lambda: TruncatedPolynomial(True, True, {(1,): 1}),
        lambda: TruncatedPolynomial(2.0, False),
        lambda: m_pi_nc(((1,),), -1),
        lambda: m_pi_nc(((1,),), True),
        lambda: ncqsym_to_polynomial(GradedElement("NCQSym", "M_Pi", {((1,),): 1}), -2),
        lambda: ncqsym_to_polynomial(GradedElement("NCQSym", "M_Pi"), -2),
        lambda: let_variables_commute(TruncatedPolynomial(1, False, {(3,): 1})),
        lambda: TruncatedPolynomial(2, False, {(0, 1): 1}),
    ],
)
def test_polynomials_check_their_variable_count_and_monomials(build):
    """A variable count is a non-negative int and every monomial fits it:
    a negative count used to give a silent zero, a bool to be kept as the
    count, and a letter past m an ``IndexError`` once the letters commuted."""
    with pytest.raises(ValueError, match="non-negative int|variables"):
        build()


def test_project_rejects_non_set_compositions():
    bad = [
        ((1,), (1,)),  # 1 twice
        ((2,),),  # misses 1
        ((2, 1),),  # a block out of order
        ((1,), ()),  # an empty block
        ((1, "2"),),
        ((1.0,),),
        (1,),  # not a tuple of blocks
    ]
    for index in bad:
        with pytest.raises(ValueError, match="does not index a basis element"):
            project(GradedElement("NCQSym", "M_Pi", {index: 1}))
    good = GradedElement("NCQSym", "M_Pi", {(): 1, ((2,), (1, 3)): 2})
    assert project(good) == GradedElement("QSym", "M", {(): 1, (1, 2): 2})


def test_lift_lands_in_polynomial_model():
    f = basis_element("QSym", "M", (2,)) + 2 * basis_element("QSym", "M", (1, 1))
    m = 3
    commuted = chi_nc(ncqsym_to_polynomial(lift(f), m))
    assert commuted == to_polynomial(f, m)


def test_labeled_chains_structure():
    chains = labeled_chains((1, 2), (1,))
    assert len(chains) == 1
    (chain,) = chains
    assert [c.upper for c in chain] == [(1, 2), (2,)]
    assert [c.lower for c in chain] == [(2,), (1,)]


def test_descent_series_golden():
    assert descent_pieri_K((1, 2), (1,)).terms == {(1, 1): 1}
    assert descent_pieri_K((2, 1), ()).terms == {(2, 1): 1}


def test_descent_series_matches_skew_expansion():
    for n in range(6):
        for gamma in compositions_of(n):
            for k in range(n):
                for beta in compositions_of(k):
                    expected = skew_qs_schur(gamma, beta)
                    if not expected.terms:
                        continue
                    assert descent_pieri_K(gamma, beta) == expected
