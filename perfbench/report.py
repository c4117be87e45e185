"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/report.py                       # every workload, seed 0
    python3 perfbench/report.py --seeds 0-9 --workloads samplers,learn-sample
    python3 perfbench/report.py --trace 1 --seeds 0

Each (workload, seed) pair runs ``run.py`` in its own process, one after the
other. For every workload and metric (the six of the result line, plus
``fail_frac`` from its ``failed`` and ``attempted`` keys) the summary gives
the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)``, and their distance as a share of the
median next to the metric's bound from BENCHMARK.json. ``--out`` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _bounds() -> dict:
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="0", help="list like 0,3,5 or range like 0-9")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = _bounds()
    results = []
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                print(f"{name} seed {seed}: exit code {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            print(f"{name} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            for line in lines[:-1]:
                if "FAILED" in line or line.lstrip().startswith(("fail_frac", "op_tail_s")):
                    print("   " + line.strip())
            runs.append({"workload": name, "seed": seed, **result})
        results += runs
        print(f"\n{name}: {len(runs)} runs")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        rows = {m: ([r["metrics"][m]["value"] for r in runs], u["unit"])
                for m, u in runs[0]["metrics"].items()}
        if not args.trace:
            rows["fail_frac"] = ([r["failed"] / r["attempted"] for r in runs], "ratio")
        for metric, (values, unit) in rows.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric) if not args.trace else None
            flag = "  WIDE" if bound and spread > bound / 3 else ""
            print(f"  {metric:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{bound if bound else '':>6} {unit}{flag}")
        print()
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
