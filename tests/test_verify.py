import inspect
import sys

import pytest

from qschur import tableaux, verify
from qschur.qsym import GradedElement
from qschur.tableaux import COMPOSITION, SkewShape, from_rows
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


def test_every_check_is_a_generator_function():
    # run_check counts the yields: a check that is not a generator would
    # fail at once with a TypeError, whatever it returns.
    for name, fn in _CHECKS.items():
        assert inspect.isgeneratorfunction(fn), name


def test_a_check_that_raises_reports_zero_cases(monkeypatch):
    real = verify.covers

    def failing(beta):
        if beta == (1, 1):
            raise ValueError("no covers today")
        return real(beta)

    monkeypatch.setattr(verify, "covers", failing)
    result = run_check("covers-shape", 3, 17)
    assert (result.ok, result.cases) == (False, 0)
    assert result.counterexample == "ValueError: no covers today"


def test_a_note_passes_and_is_reported():
    result = run_check("symmetric-non-uniform-scan", 5, 17)
    assert result.ok and result.cases == 34
    assert result.counterexample is None
    assert result.note == "no symmetric non-uniform shapes found"
    assert type(result.to_json()["note"]) is str


def test_analogue_dual_route_reports_disagreement(monkeypatch):
    real = verify.qs_rs

    def perturbed(alpha):
        f = real(alpha)
        if alpha == (1, 2):
            # two blocks, so the first evaluation, at m=2, already sees it
            f = f + GradedElement("NCQSym", "M_Pi", {((1,), (2, 3)): 1})
        return f

    monkeypatch.setattr(verify, "qs_rs", perturbed)
    result = run_check("analogue-dual-route", 3, 17)
    assert not result.ok
    assert result.cases > 0
    assert result.counterexample == "evaluation routes disagree for (1, 2), m=2"


def test_run_check_rejects_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        run_check("covers-shape", -1, 17)


def test_effective_degree_is_the_degree_clamped_to_the_cap():
    assert verify.CAPS["analogues-linearly-independent"] == 4
    at_cap = run_check("analogues-linearly-independent", 4, 17)
    above = run_check("analogues-linearly-independent", 5, 17)
    assert at_cap.ok and above.ok
    assert above.cases == at_cap.cases
    assert at_cap.effective_degree == above.effective_degree == 4
    assert above.to_json()["effective_degree"] == 4

    assert "covers-shape" not in verify.CAPS
    uncapped = run_check("covers-shape", 5, 17)
    assert uncapped.effective_degree == 5
    assert uncapped.cases > run_check("covers-shape", 4, 17).cases

    for name in ("non-lattice-witness", "rejects-non-quasisymmetric"):
        assert verify.CAPS[name] == 0
        assert run_check(name, 5, 17).effective_degree == 0


def test_rectification_routes_report_disagreement(monkeypatch):
    real = verify.rect

    def perturbed(t):
        if t.rows == ((1,), (3, 2)):
            return from_rows(COMPOSITION, [[2, 1], [3]])
        return real(t)

    monkeypatch.setattr(verify, "rect", perturbed)
    for name in ("insertion-reconstructs-tableau", "rectification-preserves-descents"):
        result = run_check(name, 3, 17)
        assert not result.ok
        assert result.cases > 0
        assert result.counterexample == (
            "rect of ((1,), (3, 2)) is ((2, 1), (3,)), "
            "insert_ssct gives ((1,), (3, 2))"
        )


def clear_caches():
    """Empty every ``functools`` cache of the package, as a fresh process
    would have them."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qschur":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_each_skew_shape_is_built_once_per_triple(monkeypatch):
    """The library and the checks alike build their shapes through
    ``tableaux.skew_shape``: one shape per distinct triple."""
    built = []
    real_post_init = SkewShape.__post_init__

    def counting_post_init(self):
        built.append((self.kind, self.outer, self.inner))
        real_post_init(self)

    clear_caches()
    monkeypatch.setattr(SkewShape, "__post_init__", counting_post_init)
    result = run_check("skew-column-sort-pairing", 5, 17)
    assert result.ok and result.cases == 1077
    distinct = tableaux._skew_shape.cache_info().currsize
    assert (len(built), distinct) == (287, 287)
