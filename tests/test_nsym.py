import random

import pytest

from qschur import nsym, qsym
from qschur.compositions import (
    _chain_tables,
    _comp_of_mask,
    _mask_of_comp,
    compositions_of,
    leq,
    partitions_of,
    underlying_partition,
)
from qschur.nsym import (
    classical_lr,
    forget,
    lr_coeff,
    multiply_nc,
    pieri,
    product_nc_schur,
    strip_report,
)
from qschur.qsym import (
    GradedElement,
    basis_element,
    convert,
    index_key,
    multiply,
    qs_schur,
    skew_qs_schur,
)
from qschur.tableaux import canonical_sct
from qschur.verify import _rect_census

from oracles import (
    classical_lr_by_filter,
    classical_lr_oracle,
    classical_lr_semistandard,
    lr_by_rectification,
    monotone_chain_counts,
    product_by_peel,
)

WEIGHT_FOURTEEN = ((1, 3, 2, 1), (2, 1, 3, 1))
WEIGHT_SIXTEEN = ((1, 3, 2, 2), (2, 1, 3, 2))


def S(alpha, coeff=1):
    return basis_element("NSym", "S_star", tuple(alpha), coeff)


def test_product_golden_nine_terms():
    got = product_nc_schur((1, 2), (3, 2))
    assert got.terms == {
        (5, 3): 1,
        (4, 4): 1,
        (2, 4, 2): 1,
        (2, 3, 3): 1,
        (1, 5, 2): 1,
        (1, 4, 3): 2,
        (1, 2, 3, 2): 1,
        (1, 1, 3, 3): 1,
        (1, 1, 4, 2): 1,
    }


def test_product_with_single_row():
    assert product_nc_schur((2,), (1,)) == S((3,)) + S((2, 1))


def test_lr_coeff_goldens():
    assert lr_coeff((2,), (1,), (1, 2)) == 0
    assert lr_coeff((1, 1), (1,), (1, 2)) == 1
    assert lr_coeff((1, 2), (3, 2), (1, 4, 3)) == 2
    assert lr_coeff((2,), (1,), (2, 2)) == 0


def test_lr_coeff_degree_mismatch_is_zero():
    assert lr_coeff((2,), (1,), (2, 2, 1)) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: product_nc_schur((1,), (0, 1)),
        lambda: lr_coeff((1, 0), (1,), (1, 1)),
        lambda: lr_coeff((2,), (1,), (2, 0, 1)),
        lambda: lr_coeff((1,), (-1, 2), (1, 1)),
        lambda: product_nc_schur((True,), (1,)),
        lambda: lr_coeff((1,), (1,), (True, 1)),
    ],
    ids=[
        "product-zero-part",
        "lr-zero-part",
        "lr-zero-part-outer",
        "lr-negative",
        "product-bool-part",
        "lr-bool-part",
    ],
)
def test_rejects_non_compositions(call):
    with pytest.raises(ValueError, match="is not a composition"):
        call()


def test_coefficients_match_skew_expansion():
    # the LR rule by brute force: fillings of gamma over beta rectifying
    # to the canonical filling of alpha
    for n in range(5):
        for gamma in compositions_of(n):
            for k in range(n + 1):
                for beta in compositions_of(k):
                    skew = convert(skew_qs_schur(gamma, beta), "S")
                    for alpha in compositions_of(n - k):
                        assert skew.coefficient(alpha) == lr_by_rectification(
                            alpha, beta, gamma
                        )


def test_product_matches_rectification_census():
    for n in range(8):
        for k in range(n + 1):
            for beta in compositions_of(n - k):
                census = {
                    gamma: _rect_census(beta, gamma)
                    for gamma in compositions_of(n)
                    if leq(beta, gamma)
                }
                for alpha in compositions_of(k):
                    target = canonical_sct(alpha)
                    expected = {
                        gamma: counts[target]
                        for gamma, counts in census.items()
                        if counts[target]
                    }
                    assert product_nc_schur(alpha, beta).terms == expected


def test_weight_fourteen_product_golden():
    got = product_nc_schur((1, 3, 2, 1), (2, 1, 3, 1))
    assert len(got.terms) == 109
    assert sum(got.terms.values()) == 112


def test_product_matches_peel_of_every_tally():
    # Every pair with |alpha| + |beta| <= 8: the oracle's terms, in the
    # index_key order the serializers write, whatever order the walk met
    # the gamma in.
    pairs = [
        (alpha, beta)
        for n in range(9)
        for k in range(n + 1)
        for alpha in compositions_of(k)
        for beta in compositions_of(n - k)
    ]
    for alpha, beta in pairs + [WEIGHT_FOURTEEN, WEIGHT_SIXTEEN]:
        got = product_nc_schur(alpha, beta).terms
        assert list(got) == sorted(got, key=index_key)
        assert list(got.items()) == product_by_peel(alpha, beta).sorted_terms()


def test_product_matches_peel_above_the_exhaustive_horizon():
    # Twelve seeded pairs of weight 12 to 16, |alpha| from 6 to 8, where the
    # pruned walk cuts most chains: the same terms as the full walk's
    # per-tally peel, in index_key order.
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(12, 16)
        k = rng.randint(6, 8)
        alpha = rng.choice(list(compositions_of(k)))
        beta = rng.choice(list(compositions_of(n - k)))
        got = product_nc_schur(alpha, beta).terms
        assert list(got.items()) == product_by_peel(alpha, beta).sorted_terms()


def test_lr_coeff_reads_the_product_coefficients():
    for n in range(8):
        for k in range(n + 1):
            for alpha in compositions_of(k):
                for beta in compositions_of(n - k):
                    terms = product_nc_schur(alpha, beta).terms
                    for gamma in compositions_of(n):
                        assert lr_coeff(alpha, beta, gamma) == terms.get(gamma, 0)


def test_product_column_is_one_forward_substitution(monkeypatch):
    # The weight-14 product reads each quasi-Schur row at or above S_alpha
    # once, at most 2^(|alpha| - 1) of them, however many gamma the walk
    # reaches; its column equals the per-tau peels of the tuple route.
    alpha, beta = WEIGHT_FOURTEEN
    l_row = qsym._l_row
    rows = []

    def counting_l_row(mask):
        rows.append(mask)
        return l_row(mask)

    monkeypatch.setattr(qsym, "_l_row", counting_l_row)
    got = product_nc_schur(alpha, beta)
    assert len(got.terms) == 109
    assert len(rows) == len(set(rows)) <= 2 ** (sum(alpha) - 1)
    assert len(rows) < len(_chain_tables(beta, sum(alpha)))
    column = {_comp_of_mask(mask): c for mask, c in qsym._s_column(alpha).items()}
    peeled = {}
    for tau in compositions_of(sum(alpha)):
        c = qsym._peel({tau: 1}, qsym._l_to_s_key, lambda a: qs_schur(a).terms).get(alpha, 0)
        if c:
            peeled[tau] = c
    assert column == peeled


def test_pieri_row_equals_strip_product():
    assert pieri("row", 2, (1,)) == product_nc_schur((2,), (1,))
    assert pieri("column", 2, (1,)) == product_nc_schur((1, 1), (1,))
    assert pieri("row", 0, (2, 1)) == S((2, 1))


def test_row_and_column_products_read_one_mask():
    # L_(n) occurs only in S_(n), and L_(1^n) only in S_(1^n) (see pieri),
    # so the column of each strip product is the strip's own mask.
    for n in range(1, 11):
        assert qsym._s_column((n,)) == {_mask_of_comp((n,)): 1}
    for n in range(1, 8):
        assert qsym._s_column((1,) * n) == {_mask_of_comp((1,) * n): 1}


def test_pieri_matches_the_solved_column():
    # pieri hands the walk the strip's one mask; product_nc_schur solves
    # the column by forward substitution and reads the same mask.
    assert qsym._s_column(()) == {_mask_of_comp(()): 1}
    for beta in [b for w in range(6) for b in compositions_of(w)] + [(2, 3, 1, 2, 2)]:
        for n in range(7):
            assert pieri("row", n, beta) == product_nc_schur((n,) if n else (), beta)
            assert pieri("column", n, beta) == product_nc_schur((1,) * n, beta)
    assert pieri("column", 10, (2, 3, 1, 2, 2)) == product_nc_schur((1,) * 10, (2, 3, 1, 2, 2))


def test_pieri_counts_monotone_chains():
    # A row adds its cells in strictly increasing columns, a column in
    # weakly decreasing ones, counted on the oracle's own covers.
    for beta in (b for w in range(7) for b in compositions_of(w)):
        for n in range(5):
            for kind in ("row", "column"):
                assert pieri(kind, n, beta).terms == monotone_chain_counts(beta, n, kind)


def test_pieri_rejects_bad_arguments():
    with pytest.raises(ValueError, match="kind"):
        pieri("diagonal", 1, (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        pieri("row", -1, (1,))


@pytest.mark.parametrize(
    "kind, n",
    [("column", True), ("column", 2.5), ("row", 2.0), ("row", -1)],
    ids=["bool", "float", "integral-float", "negative"],
)
def test_strip_size_must_be_a_nonnegative_int(kind, n):
    # True would pass for 1 and 2.0 for 2; 2.5 used to raise TypeError.
    for call in (pieri, strip_report):
        with pytest.raises(ValueError, match=r"^strip size must be a nonnegative int"):
            call(kind, n, (1,))


def test_strip_report_records_known_gap():
    report = strip_report("row", 2, (1,))
    assert report.predicted == ((3,), (1, 2), (2, 1))
    assert report.support == ((3,), (2, 1))
    assert report.missing == ((1, 2),)
    assert report.extra == ()
    assert report.nonunit == ()
    assert not report.consistent


def test_column_strip_report_is_clean():
    report = strip_report("column", 2, (1,))
    assert report.missing == ()
    assert report.extra == ()
    assert report.consistent


def test_multiply_nc_is_bilinear():
    f = S((2,)) + 2 * S((1, 1))
    g = S((1,))
    expected = product_nc_schur((2,), (1,)) + 2 * product_nc_schur((1, 1), (1,))
    assert multiply_nc(f, g) == expected


def test_multiply_nc_solves_one_column_per_term(monkeypatch):
    f = S((2, 1)) + 3 * S((1, 2)) - S((1, 1, 1))
    g = S((1,)) + 2 * S((2, 1)) + S(())
    expected = GradedElement("NSym", "S_star")
    for a, c in f.terms.items():
        for b, k in g.terms.items():
            expected = expected + (c * k) * product_nc_schur(a, b)
    solved = []
    real = qsym._s_column
    monkeypatch.setattr(nsym, "_s_column", lambda alpha: solved.append(alpha) or real(alpha))
    assert multiply_nc(f, g) == expected
    assert sorted(solved) == sorted(f.terms)


def test_multiply_nc_rejects_non_compositions():
    for bad in [(0, 1), (2, -1), (1.0,)]:
        for f, g in [(S(bad), S((1,))), (S((1,)), S(bad))]:
            with pytest.raises(ValueError, match="is not a composition"):
                multiply_nc(f, g)


def test_multiply_nc_rejects_other_bases():
    with pytest.raises(ValueError, match="dual quasi-Schur"):
        multiply_nc(S((1,)), basis_element("QSym", "L", (1,)))


def test_forgetful_map_sends_basis_to_schur():
    assert forget(S((1, 3, 2))) == basis_element("Sym", "s", (3, 2, 1))
    assert forget(S((2, 1), 3) + S((1, 2), -1)) == basis_element(
        "Sym", "s", (2, 1), 2
    )


def test_forgetful_map_rejects_non_compositions():
    for basis in ("S_star", "h_nc"):
        for index in [(0, 1), (1, -1), (2, 0), (1.0, 2)]:
            with pytest.raises(ValueError, match="does not index a basis element"):
                forget(GradedElement("NSym", basis, {index: 1}))


def test_forgetful_map_is_multiplicative():
    pairs = [((2,), (1, 1)), ((1, 2), (2,)), ((1, 1), (1, 1))]
    for alpha, beta in pairs:
        lam = underlying_partition(alpha)
        mu = underlying_partition(beta)
        classical = multiply(
            basis_element("Sym", "s", lam), basis_element("Sym", "s", mu)
        )
        assert forget(product_nc_schur(alpha, beta)) == convert(classical, "s")


def test_classical_lr_goldens():
    assert classical_lr((2,), (1, 1), (3, 1)) == 1
    assert classical_lr((2,), (1, 1), (2, 2)) == 0
    assert classical_lr((2, 1), (2, 1), (3, 2, 1)) == 2
    assert classical_lr((2,), (1,), (4,)) == 0


def test_classical_lr_rejects_non_partitions():
    calls = [
        ((2,), (1, 1), (3, 0, 1)),
        ((2,), (1, 1), (1, 3)),
        ((1, 2), (1,), (2, 2)),
        ([2], (1, 1), (3, 1)),
        ((2,), [1, 1], (3, 1)),
        ((2,), (1, 1), [3, 1]),
    ]
    for args in calls:
        with pytest.raises(ValueError, match="is not a partition"):
            classical_lr(*args)


def test_classical_lr_census_matches_filter_route():
    parts = [lam for n in range(9) for lam in partitions_of(n)]
    for nu in parts:
        for lam in parts:
            for mu in parts:
                if sum(lam) + sum(mu) == sum(nu):
                    assert classical_lr(lam, mu, nu) == classical_lr_by_filter(
                        lam, mu, nu
                    )


def test_classical_lr_matches_polynomial_reference():
    parts = [(), (1,), (2,), (1, 1), (2, 1), (3,)]
    for lam in parts:
        for mu in parts:
            n = sum(lam) + sum(mu)
            for nu in compositions_of(n):
                if list(nu) != sorted(nu, reverse=True):
                    continue
                c = classical_lr(lam, mu, nu)
                assert c == classical_lr_oracle(lam, mu, nu)
                assert c == classical_lr_semistandard(lam, mu, nu)


def test_classical_coefficients_refine_noncommutative_ones():
    cases = [((2,), (1, 1)), ((1, 2), (1,)), ((2, 1), (2,))]
    for alpha, beta in cases:
        lam = underlying_partition(alpha)
        mu = underlying_partition(beta)
        product = product_nc_schur(alpha, beta)
        n = sum(lam) + sum(mu)
        for nu in compositions_of(n):
            if list(nu) != sorted(nu, reverse=True):
                continue
            total = sum(
                c
                for gamma, c in product.terms.items()
                if underlying_partition(gamma) == nu
            )
            assert total == classical_lr(lam, mu, nu)
