"""Self-tests of the benchmark's tracer (``run.py --self-test``).

1. The traced weight-14 product (1,3,2,1) x (2,1,3,1) reproduces counts
   known from the code: 510 ``lr_coeff`` candidates, 15,520 standard
   fillings, 108,640 ``insert_ssrt`` calls and a coefficient sum of 112;
   109 candidates are nonzero.
2. Two traced runs of one seed, in separate processes, give identical
   counts on every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

from tracer import Tracer, find_caches

WEIGHT_14 = {
    "nsym.lr_coeff.calls": 510,
    "tableaux.enumerate_standard.fillings": 15_520,
    "transforms.insert_ssrt.calls": 108_640,
    "nsym.product_coeff_sum": 112,
    "nsym.lr_coeff.nonzero": 109,
}
COUNT_SUFFIXES = (".calls", ".built", ".fillings", ".hits", ".misses", ".cases", ".size")


def weight_14() -> list[str]:
    from qschur import cli

    for cache in find_caches().values():
        cache.cache_clear()
    tracer = Tracer(span_cap=0)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["product", "--alpha", "1,3,2,1", "--beta", "2,1,3,1"])
    finally:
        tracer.uninstall()
    counts = {f"{n}.calls": c for n, c in tracer.calls.items()}
    counts.update(tracer.extra)
    return [
        f"weight-14 product: {name} = {counts.get(name)}, expected {want}"
        for name, want in WEIGHT_14.items()
        if counts.get(name) != want
    ]


def traced_counts(root, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run failed its output checks")
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(COUNT_SUFFIXES)
    }


def self_test(root, seed: int) -> int:
    problems = weight_14()
    print("weight-14 product counts:", "ok" if not problems else problems)
    for workload in ("product", "skew_s", "verify_all"):
        first = traced_counts(root, workload, seed)
        second = traced_counts(root, workload, seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: {len(first)} counts, repeat exactly: {not differ}")
        problems += [f"{workload}: {k} {first[k]} vs {second.get(k)}" for k in differ]
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0
