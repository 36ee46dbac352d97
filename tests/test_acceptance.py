"""Acceptance gate: twelve end-to-end criteria.

Each test prints one ``criterion NN <slug>: PASS/FAIL (X.XXs)`` line (shown
with ``pytest -rA`` or ``-s``).  Every comparison is exact; the criteria
with stated time budgets assert them.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

from qschur.applications import (
    ncqsym_to_polynomial,
    nsym_image,
    nsym_image_sum,
    pr_product,
    project,
    qs_rs,
)
from qschur.cli import main
from qschur.compositions import compositions_of, partitions_of, underlying_partition
from qschur.nsym import lr_coeff, multiply_nc, pieri, product_nc_schur, strip_report
from qschur.qsym import basis_element, element_to_json, qs_schur, to_polynomial
from qschur.tableaux import (
    COMPOSITION,
    PARTITION,
    descent_composition,
    enumerate_standard,
    from_rows,
    straight,
)
from qschur.verify import DEFAULT_SEED, run_check

from oracles import (
    fundamental_poly,
    monomial_quasi_poly,
    poly_add,
    qschur_poly,
    schur_poly,
)


@contextmanager
def criterion(number, slug, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {number:02d} {slug}: {verdict} ({elapsed:.2f}s)")


def checked(name, bound, seed=DEFAULT_SEED):
    result = run_check(name, bound, seed)
    assert result.ok, f"{name}: {result.counterexample}"
    return result


GOLDEN_PRODUCT = {
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


def test_criterion_01_golden_product(capsys):
    with criterion(1, "golden-product", budget=1.0):
        code = main(["product", "--alpha", "1,2", "--beta", "3,2"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        got = {tuple(t["index"]): t["coeff"] for t in data["terms"]}
        assert got == GOLDEN_PRODUCT
        assert product_nc_schur((1, 2), (3, 2)).terms == GOLDEN_PRODUCT


def test_criterion_02_duality_sweep():
    with criterion(2, "lr-skew-duality", budget=300.0):
        result = checked("skew-coefficients-are-lr", 7)
        assert result.cases > 0


def test_criterion_03_classical_factorization():
    with criterion(3, "classical-factorization", budget=120.0):
        result = checked("factorization-over-rearrangements", 6)
        assert result.cases > 0


def _sum_polys(dicts):
    total: dict = {}
    for d in dicts:
        total = poly_add(total, d)
    return total


def test_criterion_04_basis_identities():
    with criterion(4, "basis-identities"):
        top = 6
        for n in range(top + 1):
            m = max(n, 1)
            partitions = list(partitions_of(n))
            for alpha in compositions_of(n):
                assert (
                    to_polynomial(basis_element("QSym", "M", alpha), m).terms
                    == monomial_quasi_poly(alpha, m)
                )
                assert (
                    to_polynomial(basis_element("QSym", "L", alpha), m).terms
                    == fundamental_poly(alpha, m)
                )
                reference = qschur_poly(alpha, m)
                assert to_polynomial(qs_schur(alpha), m).terms == reference
                over_standard = _sum_polys(
                    fundamental_poly(descent_composition(t), m)
                    for t in enumerate_standard(straight(COMPOSITION, alpha))
                )
                assert over_standard == reference
            for lam in partitions:
                monomial = {
                    gamma: 1
                    for gamma in itertools.product(range(n + 1), repeat=m)
                    if sum(gamma) == n
                    and tuple(sorted((x for x in gamma if x), reverse=True)) == lam
                }
                f = basis_element("Sym", "m", lam)
                assert to_polynomial(f, m).terms == monomial
                schur_reference = schur_poly(lam, m)
                s = basis_element("Sym", "s", lam)
                assert to_polynomial(s, m).terms == schur_reference
                over_srt = _sum_polys(
                    fundamental_poly(descent_composition(t), m)
                    for t in enumerate_standard(straight(PARTITION, lam))
                )
                assert over_srt == schur_reference
                over_rearrangements = _sum_polys(
                    to_polynomial(qs_schur(alpha), m).terms
                    for alpha in compositions_of(n)
                    if underlying_partition(alpha) == lam
                )
                assert over_rearrangements == schur_reference


def test_criterion_05_bijection_round_trips():
    with criterion(5, "bijection-round-trips"):
        for name in (
            "column-sort-roundtrip",
            "standardization-roundtrip",
            "chain-tableau-roundtrip",
            "skew-column-sort-pairing",
        ):
            checked(name, 7)


def test_criterion_06_rectification_preserves_descents():
    with criterion(6, "rectification-descents"):
        result = checked("rectification-preserves-descents", 6)
        assert result.cases > 0


def test_criterion_07_restricted_graphs_connected():
    with criterion(7, "move-graph-connectivity"):
        result = checked("restricted-graph-connected", 7)
        assert result.cases > 0


ANTI_MORPHISM_BYTES = (
    '{"ring": "NSym", "basis": "S_star", "terms": '
    '[{"index": [1, 5], "coeff": 1}, {"index": [4, 2], "coeff": 1}, '
    '{"index": [1, 1, 4], "coeff": 1}, {"index": [3, 1, 2], "coeff": 1}]}'
)


def test_criterion_08_image_anti_morphism():
    with criterion(8, "pr-image-anti-morphism"):
        checked("image-anti-morphism", 6)
        t1 = from_rows(PARTITION, [[3, 2], [1]])
        t2 = from_rows(PARTITION, [[3, 2, 1]])
        lhs = nsym_image_sum(pr_product(t1, t2))
        rhs = multiply_nc(nsym_image(t2), nsym_image(t1))
        assert json.dumps(element_to_json(lhs)) == ANTI_MORPHISM_BYTES
        assert json.dumps(element_to_json(rhs)) == ANTI_MORPHISM_BYTES


TWO_VARIABLE_DISPLAY = "2x1x2x2+2x2x1x2+2x2x2x1"


def render_words(p):
    return "+".join(
        f"{coeff}" + "".join(f"x{i}" for i in word)
        for word, coeff in p.sorted_terms()
    )


def test_criterion_09_noncommuting_projection():
    with criterion(9, "noncommuting-projection"):
        for n in range(1, 6):
            for alpha in compositions_of(n):
                lhs = to_polynomial(project(qs_rs(alpha)), n)
                rhs = math.factorial(n) * to_polynomial(qs_schur(alpha), n)
                assert lhs == rhs, alpha
        assert render_words(ncqsym_to_polynomial(qs_rs((1, 2)), 2)) == TWO_VARIABLE_DISPLAY


def test_criterion_10_descent_pieri_operator():
    with criterion(10, "descent-pieri-operator"):
        result = checked("chain-descents-match-skew", 6)
        assert result.cases > 0


def test_criterion_11_uniform_symmetry():
    with criterion(11, "uniform-symmetry"):
        checked("uniform-implies-symmetric", 7)
        scan = checked("symmetric-non-uniform-scan", 7)
        assert scan.note == "no symmetric non-uniform shapes found"


def test_criterion_12_strip_diagnostic():
    with criterion(12, "strip-diagnostic"):
        checked("pieri-support-within-strips", 5)
        for kind, n, beta in [("row", 2, (1,)), ("column", 3, (2,))]:
            product = pieri(kind, n, beta)
            alpha = (n,) if kind == "row" else (1,) * n
            for gamma, coeff in product.terms.items():
                assert coeff == lr_coeff(alpha, beta, gamma)
        report = strip_report("row", 2, (1,))
        assert report.predicted == ((3,), (1, 2), (2, 1))
        assert report.support == ((3,), (2, 1))
        assert report.missing == ((1, 2),)
        assert report.extra == ()
        assert report.nonunit == ()
        assert not report.consistent
        assert strip_report("column", 3, (2,)).consistent
