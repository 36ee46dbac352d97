"""Workload inputs, requests and output checks.

Inputs come only from the seed, through generators that share no code with
``qschur``: compositions, covers and saturated-chain counts are computed
here from their definitions.  The program sees nothing but CLI argv
(``product``, ``skew_s``) or ``run_check`` arguments (``verify_all``).

Every workload is a closed loop with one client: a request starts when the
previous one has returned.  Requests are grouped into *units*; the caches of
every ``qschur`` module are cleared before each unit.  A cold workload has
one request per unit, like a fresh CLI process; ``verify_all`` has one
pass over the checks per unit, sharing caches across checks as a single
``qschur verify all`` process does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter

DEFAULT_SEED = 17
VERIFY_DEGREE = 5


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of ``n``, from the subsets of [n-1] they cut at."""
    if n == 0:
        return [()]
    out = []
    for k in range(n):
        for cuts in itertools.combinations(range(1, n), k):
            points = (0, *cuts, n)
            out.append(tuple(b - a for a, b in zip(points, points[1:])))
    return out


def up_covers(beta: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Covers of ``beta`` in the composition poset of arXiv:1007.0994: put a
    part 1 in front, or add one to the first part of each distinct size."""
    out = [(1,) + beta]
    seen = set()
    for r, part in enumerate(beta):
        if part not in seen:
            seen.add(part)
            out.append(beta[:r] + (part + 1,) + beta[r + 1 :])
    return out


def chain_counts(beta: tuple[int, ...], levels: int) -> Counter:
    """Number of saturated chains from ``beta`` to each composition
    ``levels`` covers above it."""
    counts = Counter({beta: 1})
    for _ in range(levels):
        grown: Counter = Counter()
        for delta, c in counts.items():
            for eps in up_covers(delta):
                grown[eps] += c
        counts = grown
    return counts


def standard_count(lam: tuple[int, ...]) -> int:
    """Standard Young tableaux of partition shape ``lam`` (hook lengths)."""
    n = sum(lam)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(n) // hooks


def arg(comp: tuple[int, ...]) -> str:
    return ",".join(map(str, comp)) if comp else "empty"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _deck(rng: random.Random, items):
    """Endless stream of ``items``, reshuffled each round, so every item
    appears once before any appears twice."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


class Workload:
    """CLI requests, one per unit, so each runs on cleared caches."""

    name = ""
    trace_units = 0  # units in the traced run's fixed list

    def __init__(self, seed: int, expected: dict | None):
        self.seed = seed
        self.expected = (expected or {}).get(self.name, [])

    def units(self):
        for argv in self.requests(random.Random(f"{self.name}/{self.seed}")):
            yield [argv]

    def run(self, argv):
        from qschur import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out.getvalue()

    def check(self, index: int, argv, stdout: str) -> str | None:
        if index < len(self.expected) and digest(stdout) != self.expected[index]:
            return f"{' '.join(argv)}: stdout differs from the recorded digest"
        return self.identity(argv, json.loads(stdout))

    @staticmethod
    def opt(argv, flag: str) -> tuple[int, ...]:
        text = argv[argv.index(flag) + 1]
        return () if text == "empty" else tuple(int(p) for p in text.split(","))


class Product(Workload):
    """``qschur product``: alpha a composition of 5 or 6, beta of 5, 6 or 7.

    The cost is set by beta and |alpha|: the product enumerates every
    saturated chain of length |alpha| up from beta, about three times as
    many for |alpha| = 6 as for 5.  Pairs (|alpha|, beta) with |alpha| = 6
    are listed twice, so the median request falls inside the |alpha| = 6
    cluster instead of in the gap between the two clusters.  The list is
    sorted by chain count into twelve strata, and each round of twelve
    requests draws one pair from every stratum, so every run samples cheap
    and costly requests in the same proportions.  alpha itself is a random
    composition of its size.
    """

    name = "product"
    trace_units = 24
    strata = 12

    def requests(self, rng):
        pairs = sorted(
            (sum(chain_counts(beta, k).values()), k, beta)
            for k in (5, 6)
            for n in (5, 6, 7)
            for beta in compositions(n)
            for _ in range(k - 4)
        )
        size = len(pairs) // self.strata
        strata = [
            _deck(rng, [(k, beta) for _, k, beta in pairs[i : i + size]])
            for i in range(0, len(pairs), size)
        ]
        alphas = {k: _deck(rng, compositions(k)) for k in (5, 6)}
        for stratum in _deck(rng, strata):
            k, beta = next(stratum)
            alpha = next(alphas[k])
            yield ["product", "--alpha", arg(alpha), "--beta", arg(beta)]

    def identity(self, argv, out) -> str | None:
        # Forgetting to Sym and taking the coefficient of x1...xn turns the
        # product into f(alpha) f(beta) C(n, |alpha|), with f the number of
        # standard tableaux of the sorted shape.
        alpha, beta = self.opt(argv, "--alpha"), self.opt(argv, "--beta")
        n = sum(alpha) + sum(beta)
        f = lambda comp: standard_count(tuple(sorted(comp, reverse=True)))
        lhs = 0
        for term in out["terms"]:
            gamma, c = tuple(term["index"]), term["coeff"]
            if sum(gamma) != n or not isinstance(c, int) or c <= 0:
                return f"{' '.join(argv)}: bad term {term}"
            lhs += c * f(gamma)
        rhs = math.comb(n, sum(alpha)) * f(alpha) * f(beta)
        if (out["ring"], out["basis"]) != ("NSym", "S_star") or lhs != rhs:
            return f"{' '.join(argv)}: standard-count identity {lhs} != {rhs}"
        return None


class SkewS(Workload):
    """``qschur skew --basis S``: |beta| in 0..3 (each size in turn, shuffled),
    gamma reached from beta by eight random covers."""

    name = "skew_s"
    trace_units = 12

    def requests(self, rng):
        inners = {k: _deck(rng, compositions(k)) for k in range(4)}
        for k in _deck(rng, range(4)):
            beta = gamma = next(inners[k])
            for _ in range(8):
                gamma = rng.choice(up_covers(gamma))
            yield ["skew", "--outer", arg(gamma), "--inner", arg(beta), "--basis", "S"]

    def identity(self, argv, out) -> str | None:
        # The sum of the L coefficients counts standard fillings, i.e. saturated
        # chains; S_alpha contributes the chains from () to alpha.
        from qschur.qsym import convert, element_from_json, skew_qs_schur

        gamma, beta = self.opt(argv, "--outer"), self.opt(argv, "--inner")
        levels = sum(gamma) - sum(beta)
        from_empty = chain_counts((), levels)
        total = sum(
            t["coeff"] * from_empty[tuple(t["index"])] for t in out["terms"]
        )
        chains = chain_counts(beta, levels)[gamma]
        if total != chains:
            return f"{' '.join(argv)}: S coefficients weigh {total} chains, not {chains}"
        if convert(element_from_json(out), "L") != skew_qs_schur(gamma, beta):
            return f"{' '.join(argv)}: S result does not convert back to the L expansion"
        return None


class VerifyAll(Workload):
    """``verify all`` at max-degree 5 through ``run_check``, one check per
    request, in CLI order; caches are shared across one pass."""

    name = "verify_all"
    trace_units = 1

    def units(self):
        from qschur.verify import SUITES

        while True:
            yield list(SUITES["all"])

    def run(self, name):
        from qschur.verify import run_check

        return run_check(name, VERIFY_DEGREE, self.seed)

    def check(self, index: int, name, result) -> str | None:
        if not result.ok or result.cases <= 0:
            return f"{name}: ok={result.ok} cases={result.cases} {result.counterexample}"
        recorded = self.expected.get(name) if self.expected else None
        if recorded and recorded != [result.cases, verify_digest(result)]:
            return f"{name}: cases or verdict differ from the recorded ones"
        return None


def verify_digest(result) -> str:
    return digest(json.dumps([result.ok, result.cases, result.counterexample, result.note]))


WORKLOADS = {w.name: w for w in (Product, SkewS, VerifyAll)}
