import pytest

from qschur import verify
from qschur.qsym import TruncatedPolynomial
from qschur.verify import _CHECKS, SUITES, run_check

README_SUITES = [
    "poset",
    "bases",
    "duality",
    "products",
    "classical",
    "g-alpha",
    "rigidity",
    "uniform-symmetry",
    "pr",
    "ncqsym",
    "pieri-operator",
    "roundtrips",
]


def test_every_check_sits_in_exactly_one_suite():
    suites = {name: checks for name, checks in SUITES.items() if name != "all"}
    assert list(suites) == README_SUITES
    for name in _CHECKS:
        assert sum(name in checks for checks in suites.values()) == 1, name
    assert SUITES["all"] == tuple(_CHECKS)


def test_analogue_dual_route_reports_disagreement(monkeypatch):
    real = verify.qs_rs

    def perturbed(alpha, m):
        p = real(alpha, m)
        if alpha == (1, 2):
            p = p + TruncatedPolynomial(m, False, {(1, 1, 1): 1})
        return p

    monkeypatch.setattr(verify, "qs_rs", perturbed)
    result = run_check("analogue-dual-route", 3, 17)
    assert not result.ok
    assert result.cases > 0
    assert result.counterexample == "evaluation routes disagree for (1, 2), m=2"


def test_run_check_rejects_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        run_check("covers-shape", -1, 17)
