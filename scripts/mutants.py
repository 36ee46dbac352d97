#!/usr/bin/env python3
"""Show that each kernel has a check that kills it.

Each mutant below is a one-line change to a kernel of the package: the
descent rule, the mask decoder and encoder, the up and down cover cells,
the peel order of quasi-Schur functions (the tuple key and the direction
of the peel on masks), the column solve of the products, the closed form
of the cover order, the order in which a skew's chain tables are filled,
the subtraction of the peel, the mask prefixes a product's walk keeps, the
quasi-shuffles of the M-basis product, the free bits of the refinements
on masks behind the changes of basis between L and M, the partition
terms through which Sym reads its results back from QSym, the placement
rule and the column order of the column sort, and the bump rule of row
insertion.
For each, the script copies ``src/qschur`` to a temporary directory,
applies the change, and runs ``verify all`` there under a wall-time limit.
An unchanged copy runs first as the control and must pass.  A mutant is
killed when at least one check fails.  One that passes every check
survives, one that runs past the limit hangs, and one whose run ends
without a report crashed; none of these is acceptable, and a surviving
mutant needs a new check, never a weaker mutant.

The script prints one row per mutant and then the kill matrix, the checks
that fail under some mutant against the mutants, and exits 1 unless the
control passes and every mutant is killed in time.

Usage:
    python3 scripts/mutants.py [--max-degree 5] [--limit 60] [--only NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qschur"

# (name, module file, target text, replacement): the target occurs exactly
# once in the file, which tests/test_hygiene.py keeps true.
MUTANTS = [
    (
        "descent-rule-strict",
        "compositions.py",
        "if k >= column else",
        "if k > column else",
    ),
    (
        "mask-decoder-reversed",
        "compositions.py",
        "return tuple(parts)",
        "return tuple(parts[::-1])",
    ),
    (
        "up-cells-column",
        "compositions.py",
        "beta[r + 1 :], r + 1, part + 1))",
        "beta[r + 1 :], r + 1, part))",
    ),
    (
        "up-cells-every-row",
        "compositions.py",
        "if part not in seen:",
        "if True:",
    ),
    (
        "down-cells-any-row",
        "compositions.py",
        "if part >= 2 and part - 1 not in seen:",
        "if part >= 2:",
    ),
    (
        "down-cells-prepend-column",
        "compositions.py",
        "out.append((gamma[1:], 1, 1))",
        "out.append((gamma[1:], 1, 2))",
    ),
    (
        "mask-encoder-low-bit",
        "compositions.py",
        "mask = mask << p | 1 << (p - 1)",
        "mask = mask << p | 1",
    ),
    (
        "l-to-s-key-forward",
        "qsym.py",
        "return sum(alpha), alpha[::-1]",
        "return sum(alpha), alpha",
    ),
    (
        "mask-peel-largest-first",
        "qsym.py",
        "_peel(masks, operator.neg, _l_row, _comp_of_mask)",
        "_peel(masks, operator.pos, _l_row, _comp_of_mask)",
    ),
    (
        "column-keeps-diagonal",
        "qsym.py",
        "if tau != sigma and tau in x)",
        "if tau in x)",
    ),
    (
        "leq-strict",
        "compositions.py",
        "b_j <= b_i and t_j > t_i",
        "b_j < b_i and t_j > t_i",
    ),
    (
        "fill-top-down",
        "qsym.py",
        "for comp, down in reversed(cells.items()):",
        "for comp, down in cells.items():",
    ),
    (
        "peel-adds-row",
        "qsym.py",
        "val = remaining.get(index, 0) - c * k",
        "val = remaining.get(index, 0) + c * k",
    ),
    (
        "prefix-shift-short",
        "compositions.py",
        "keep = {mask >> (levels - j) for mask in ends}",
        "keep = {mask >> (levels - j + 1) for mask in ends}",
    ),
    (
        "quasi-shuffle-no-sum",
        "qsym.py",
        "(a[i] + b[j], row[j + 1]),",
        "",
    ),
    (
        "refinement-no-first-cut",
        "qsym.py",
        "free = ~mask & ((1 << sum(alpha)) - 1)",
        "free = ~mask & ((1 << sum(alpha)) - 1) & -2",
    ),
    (
        "sym-part-keeps-compositions",
        "qsym.py",
        "if is_partition(lam)}",
        "if is_composition(lam)}",
    ),
    (
        "unpack-strict-placement",
        "transforms.py",
        "row[-1] >= e",
        "row[-1] > e",
    ),
    (
        "pack-increasing-columns",
        "transforms.py",
        "cols = [iter(sorted(col, reverse=True)) for col in _columns(t)]",
        "cols = [iter(sorted(col)) for col in _columns(t)]",
    ),
    (
        "row-insert-bumps-equal",
        "transforms.py",
        "if x < k:",
        "if x <= k:",
    ),
]


def mutate(src: Path, module: str, target: str, replacement: str) -> None:
    path = src / "qschur" / module
    text = path.read_text()
    if text.count(target) != 1:
        raise SystemExit(f"{module}: {target!r} occurs {text.count(target)} times, not once")
    path.write_text(text.replace(target, replacement))


def run_verify(src: Path, max_degree: int, limit: float) -> tuple[str, list[str], float]:
    """``verify all`` on the package under ``src``: the outcome ("passed",
    "killed", "hung" or "crashed"), the failing checks and the seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "qschur.cli", "verify", "all", "--max-degree", str(max_degree)]
    started = time.perf_counter()
    # A session of its own, so a hung run is stopped with everything it started.
    proc = subprocess.Popen(
        argv, cwd=src, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "hung", [], time.perf_counter() - started
    seconds = time.perf_counter() - started
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        last = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return "crashed", last, seconds
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    return ("killed" if failed else "passed"), failed, seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-degree", type=int, default=5)
    parser.add_argument("--limit", type=float, default=60, help="seconds per run (default: 60)")
    parser.add_argument("--only", action="append", metavar="NAME", help="run only this mutant")
    args = parser.parse_args()
    names = [m[0] for m in MUTANTS]
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, module, target, replacement) in enumerate([("(control)", None, None, None), *chosen]):
            src = Path(tmp) / str(i)
            shutil.copytree(PACKAGE, src / "qschur", ignore=shutil.ignore_patterns("__pycache__"))
            if module is not None:
                mutate(src, module, target, replacement)
            outcome, failed, seconds = run_verify(src, args.max_degree, args.limit)
            rows.append((name, outcome, failed, seconds))
            print(f"{name:28} {outcome:8} {len(failed):4} checks  {seconds:6.1f} s", flush=True)

    control, mutants = rows[0], rows[1:]
    checks = sorted({check for _, outcome, failed, _ in mutants if outcome == "killed" for check in failed})
    if checks:
        print()
        print("kill matrix (x: the check fails under the mutant)")
        print(" " * 38 + " ".join(f"M{i + 1:<2}" for i in range(len(mutants))))
        for check in checks:
            marks = " ".join(" x " if check in failed else " . " for _, _, failed, _ in mutants)
            print(f"  {check:36}{marks}")
        for i, (name, *_) in enumerate(mutants):
            print(f"  M{i + 1}: {name}")
    good = control[1] == "passed" and all(outcome == "killed" for _, outcome, _, _ in mutants)
    if control[1] != "passed":
        print(f"control {control[1]}: {', '.join(control[2]) or 'no report'}")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
