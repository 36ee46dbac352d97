"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 qbench/collect.py --workloads product skew_s --seeds 1 2 3 4 5 \
        [--out qbench/baseline.json]

Runs one process per (workload, seed), one after another, with the
``run_seconds`` of ``BENCHMARK.json``.  For each metric it prints the median
over seeds and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
for the reported metrics and for the same timings before speed scaling.
``--out`` writes the per-run results and the summary as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    *_, report, result = done.stdout.splitlines()
    return json.loads(report), json.loads(result)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            report, result = run(workload, seed, spec["run_seconds"], 0)
            runs.append({"report": report, "result": result})
            values = {k: round(m["value"], 5) for k, m in result["metrics"].items()}
            print(workload, seed, result["correct"], result["attempted"], values,
                  flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {**spread(values), "bound": metric["bound"],
                             "unit": metric["unit"]}
            line = (f"  {name:12s} median {summary[name]['median']:.5g} "
                    f"spread {summary[name]['spread']:.3f} (bound {metric['bound']})")
            if name in runs[0]["report"]["raw"]:
                raw = spread([r["report"]["raw"][name] for r in runs])
                summary[name]["raw"] = raw
                line += f"; unscaled median {raw['median']:.5g} spread {raw['spread']:.3f}"
            print(line)
        trace_report, trace_result = run(workload, args.seeds[0], spec["run_seconds"], 1)
        out["workloads"][workload] = {
            "summary": summary,
            "runs": runs,
            "traced": {"seed": args.seeds[0], "report": trace_report,
                       "result": trace_result},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
