"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload oracle-check --seeds 1-10 [--trace 1] [--out FILE]

Each seed is one ``run.py`` process, run one after another. For every metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (Q3 - Q1) / median, beside the metric's bound from BENCHMARK.json.
``--out`` also writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["env"] = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
        for line in sorted({line for line in done.stderr.splitlines() if line.startswith("FAILED")}):
            print("  " + line, flush=True)

    summary = {}
    for metric, first in runs[0]["metrics"].items():
        stats = summarize([r["metrics"][metric]["value"] for r in runs])
        stats["unit"] = first["unit"]
        summary[metric] = stats
        bound = bounds.get(metric)
        flag = "" if bound is None else f"bound {bound:.2f}  spread/bound {stats['spread'] / bound:.2f}"
        print(f"{metric:44s} median {stats['median']:12.6g} {stats['unit']:10s} "
              f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} spread {stats['spread']:.4f}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                              "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
