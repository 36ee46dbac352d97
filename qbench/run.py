"""qschur benchmark: cold ``product``, S-basis ``skew`` and ``verify all``.

Run from the repository root::

    python3 qbench/run.py --workload product --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload for ``--seconds`` with nothing wrapped and
prints the end-to-end metrics named in ``BENCHMARK.json``.  Timings are in
seconds at a reference machine speed (see ``probe``); the report line also
holds them unscaled.

``--trace 1`` runs a fixed list of units from the seed twice, plain and then
with every target function wrapped (see ``tracer.py``), prints the per-layer
metrics and writes the spans to ``qbench/out/``; its counts repeat exactly
for a seed.

The last stdout line is the result object; the line before it is a report
with provenance, sample counts and the error ratio.

``--self-test`` checks the tracer against known counts and checks that two
traced runs of one seed agree; ``--record`` rewrites ``expected.json`` (the
output digests at the default seed) from the code in ``src``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

from tracer import Tracer, find_caches  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, chain_counts  # noqa: E402

# Tail percentile per workload, fixed so that runs compare.  Each keeps at
# least ten samples beyond it in a 40 s run on 2 cores (about 75 products,
# 90 skews, 370 checks) and sits where neighbouring inputs cost about the
# same: above p75 the product costs jump (see Product), and above p90 of
# verify_all lie only the three slowest checks of each pass.
TAIL = {"product": 75, "skew_s": 80, "verify_all": 90}
SETUPS = 9  # fresh interpreters timed for setup_s
PROBE_EVERY = 0.2  # seconds between speed probes
PROBE_REF = 0.005  # seconds the probe takes at the reference speed
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import qschur.cli\n"
    "qschur.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def import_qschur():
    """Import the package from ``src`` of this checkout, never another copy."""
    if not (SRC / "qschur" / "__init__.py").is_file():
        sys.exit(f"no qschur sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qschur
    import qschur.cli  # noqa: F401  (imports every module)

    if Path(qschur.__file__).resolve().parent != SRC / "qschur":
        sys.exit(f"qschur imported from {qschur.__file__}, not from {SRC}")


def provenance(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "qschur").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def probe() -> float:
    """Seconds a fixed piece of the benchmark's own Python work takes now.

    Shared 2-core hosts change speed by up to 1.8x for minutes at a time,
    so raw seconds from runs minutes apart do not compare.  Every timing is
    scaled by ``PROBE_REF / probe()`` around it: seconds at the reference
    speed.  The probe builds tuples and dicts like ``qschur`` does, shares
    no code with it, and runs with the collector off so that the size of
    the program's heap cannot change it.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        chain_counts((), 11)
        return time.perf_counter() - started
    finally:
        gc.enable()


def setup_time() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import ``qschur.cli`` and build
    its parser, which every CLI call pays; raw and at reference speed."""
    before = probe()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    raw = float(done.stdout)
    return raw, raw * 2 * PROBE_REF / (before + probe())


class Runner:
    """Runs units of one workload, clearing every cache before each unit."""

    def __init__(self, workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.caches = find_caches()
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.outputs: list = []  # (request, output or exception)
        self.probes: list[tuple[float, float]] = []  # (when, probe seconds)
        self.cache_stats = {}  # name -> [hits, misses, largest size]

    def clear(self) -> None:
        for name, cache in self.caches.items():
            cache.cache_clear()
            if cache.cache_info().currsize:
                raise RuntimeError(f"cache {name} still holds entries")
        gc.collect()

    def unit(self, requests) -> None:
        self.clear()
        for request in requests:
            if not self.probes or time.perf_counter() - self.probes[-1][0] > PROBE_EVERY:
                self.probe()
            if self.tracer is not None:
                self.tracer.request = len(self.latencies)
            t0 = time.perf_counter()
            self.starts.append(t0)
            try:
                output = self.workload.run(request)
            except Exception as exc:  # a failed request, counted in error_ratio
                output = exc
            self.latencies.append(time.perf_counter() - t0)
            self.outputs.append((request, output))
        for name, cache in self.caches.items():
            info = cache.cache_info()
            stats = self.cache_stats.setdefault(name, [0, 0, 0])
            stats[0] += info.hits
            stats[1] += info.misses
            stats[2] = max(stats[2], info.currsize)

    def probe(self) -> None:
        self.probes.append((time.perf_counter(), probe()))

    def scaled(self) -> list[float]:
        """Latencies at reference speed, each scaled by the mean of the
        probes just before and just after it."""
        self.probe()
        when = [t for t, _ in self.probes]
        out = []
        for start, latency in zip(self.starts, self.latencies):
            i = bisect.bisect_right(when, start) - 1
            j = bisect.bisect_left(when, start + latency)
            around = (self.probes[i][1] + self.probes[j][1]) / 2
            out.append(latency * PROBE_REF / around)
        return out

    def timed(self, seconds: float, between) -> None:
        """Closed loop: whole units until the next would overrun ``seconds``.
        ``between(progress)`` runs before each unit, outside its timing."""
        started = time.perf_counter()
        done = 0
        for requests in self.workload.units():
            elapsed = time.perf_counter() - started
            if done and elapsed + elapsed / done > seconds:
                break
            between(elapsed / seconds)
            self.unit(requests)
            done += 1

    def failures(self) -> list[str]:
        """Check every output; return one message per failed request."""
        errors = []
        for i, (request, output) in enumerate(self.outputs):
            if isinstance(output, Exception):
                errors.append(f"{request}: {type(output).__name__}: {output}")
                continue
            problem = self.workload.check(i, request, output)
            if problem:
                errors.append(problem)
        return errors


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # nearest rank
    return ordered[int(rank) - 1]


def end_to_end(args, workload, report: dict) -> dict:
    # Setup is sampled across the run, so that its median spans the same
    # machine load as the requests; the first interpreter compiles bytecode.
    setup_time()
    setups: list[tuple[float, float]] = []

    def sample_setups(progress: float) -> None:
        while len(setups) < min(SETUPS, 1 + int(SETUPS * progress)):
            setups.append(setup_time())

    runner = Runner(workload)
    runner.timed(args.seconds, sample_setups)
    sample_setups(1.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = runner.failures()
    raw = runner.latencies
    lat = runner.scaled()
    n = len(lat)
    q = TAIL[args.workload]
    report.update(
        attempted=n,
        failed=len(errors),
        error_ratio=len(errors) / n,
        errors=errors[:5],
        tail_percentile=q,
        samples_beyond_tail=sum(1 for x in lat if x > percentile(lat, q)),
        samples={"setup_s": len(setups), "p50_s": n, "tail_s": n,
                 "ops_per_s": n, "peak_rss_mb": 1, "error_ratio": n},
        probes=len(runner.probes),
        probe_median_s=statistics.median(p for _, p in runner.probes),
        raw={"setup_s": statistics.median(r for r, _ in setups),
             "p50_s": statistics.median(raw), "tail_s": percentile(raw, q),
             "ops_per_s": n / sum(raw)},
    )
    return {
        "setup_s": statistics.median(s for _, s in setups),
        "p50_s": statistics.median(lat),
        "tail_s": percentile(lat, q),
        "ops_per_s": n / sum(lat),
        "peak_rss_mb": rss_mb,
    }


def traced(args, workload, report: dict) -> dict:
    units = [u for u, _ in zip(workload.units(), range(workload.trace_units))]
    plain = Runner(workload)
    for requests in units:
        plain.unit(requests)
    tracer = Tracer()
    runner = Runner(workload, tracer)
    tracer.install()
    try:
        for requests in units:
            runner.unit(requests)
    finally:
        tracer.uninstall()
    errors = plain.failures() + runner.failures()
    (HERE / "out").mkdir(exist_ok=True)
    spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv"
    kept = tracer.write_spans(spans_path)
    n = len(runner.latencies)
    report.update(
        attempted=len(plain.latencies) + n,
        failed=len(errors),
        error_ratio=len(errors) / (len(plain.latencies) + n),
        errors=errors[:5],
        spans_file=str(spans_path.relative_to(ROOT)),
        spans_kept=kept,
        spans_total=tracer.spans_total,
        samples={"per_layer": n},
        plain_ops_per_s=len(plain.latencies) / sum(plain.scaled()),
        traced_ops_per_s=n / sum(runner.scaled()),
    )
    return layer_metrics(tracer, runner, report)


def layer_metrics(tracer: Tracer, runner: Runner, report: dict) -> dict:
    m: dict = {}
    for name, calls in tracer.calls.items():
        m[f"{name}.calls"] = m[f"{name}.built"] = calls
    for name, seconds in tracer.self_s.items():
        m[f"{name}.self_s"] = seconds
    m.update(tracer.extra)
    for name, (hits, misses, size) in runner.cache_stats.items():
        m[f"{name}.hits"] = hits
        m[f"{name}.misses"] = misses
        m[f"cache.{name}.size"] = size
    lr_calls = tracer.calls["nsym.lr_coeff"]
    m["nsym.lr_coeff.nonzero_ratio"] = (
        tracer.extra["nsym.lr_coeff.nonzero"] / lr_calls if lr_calls else 0
    )
    coeff_sum = tracer.extra["nsym.product_coeff_sum"]
    m["nsym.fillings_per_coeff"] = (
        tracer.extra["nsym.product_fillings"] / coeff_sum if coeff_sum else 0
    )
    if runner.workload.name == "verify_all":
        from qschur.verify import SUITES

        seconds = dict(zip((r for r, _ in runner.outputs), runner.latencies))
        cases = {r: out.cases for r, out in runner.outputs if hasattr(out, "cases")}
        for suite, names in SUITES.items():
            if suite != "all":
                m[f"verify.{suite}.s"] = sum(seconds.get(c, 0) for c in names)
                m[f"verify.{suite}.cases"] = sum(cases.get(c, 0) for c in names)
        m["verify.slowest_check_share"] = max(runner.latencies) / sum(runner.latencies)
    m["trace.overhead"] = report["plain_ops_per_s"] / report["traced_ops_per_s"]
    return m


def emit(spec_metrics: list, values: dict, report: dict, default=None) -> None:
    metrics = {}
    for spec in spec_metrics:
        value = values.get(spec["name"], default)
        if value is None:
            raise KeyError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:44s} {value:>14.6g} {spec['unit']}")
    print(f"{'error_ratio':44s} {report['error_ratio']:>14.6g} ratio")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


def record() -> None:
    """Write the output digests of the default seed's first requests."""
    from workloads import digest, verify_digest

    expected = {"seed": DEFAULT_SEED}
    for name, count in (("product", 200), ("skew_s", 150), ("verify_all", 1)):
        runner = Runner(WORKLOADS[name](DEFAULT_SEED, None))
        for requests, _ in zip(runner.workload.units(), range(count)):
            runner.unit(requests)
        errors = runner.failures()
        if errors:
            sys.exit(f"{name}: not recording failed outputs: {errors[:3]}")
        if name == "verify_all":
            expected[name] = {
                r: [out.cases, verify_digest(out)] for r, out in runner.outputs
            }
        else:
            expected[name] = [digest(out) for _, out in runner.outputs]
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_qschur()
    if args.record:
        record()
        return 0
    if args.self_test:
        from selftest import self_test

        return self_test(ROOT, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    expected = json.loads(EXPECTED.read_text()) if args.seed == DEFAULT_SEED else None
    workload = WORKLOADS[args.workload](args.seed, expected)
    report = {"workload": args.workload, "trace": args.trace, **provenance(args.seed)}
    if args.trace:
        values = traced(args, workload, report)
        emit(spec["per_layer"], values, report, default=0)
    else:
        values = end_to_end(args, workload, report)
        emit(spec["end_to_end"], values, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
