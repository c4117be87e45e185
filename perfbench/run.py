"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-spectral --seed 0 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else, so a tree without the sources exits with code 2
and prints no result.

``--trace 0`` sets up the workload (import, fixed models, one untimed
warm-up op), then runs ops back to back (a closed loop, one client) for at
least ``--seconds`` seconds and reports the end-to-end metrics. Set-up is
repeated in two fresh child processes and the median of the three is
reported as ``setup_s``.

``--trace 1`` runs a fixed number of ops twice each, untraced and then with
every layer's public functions wrapped (see ``spans.py``), checks that both
passes produced bitwise-identical outputs and that every wrapped binding was
restored, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify-spectral", "learn-sample", "samplers", "potts-refine")

# One BLAS thread (nproc is 2 on the reference machine): a single thread
# repeats far more steadily on a shared machine than two.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # set-up is measured this many times, in fresh processes
MIN_OPS = 5
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops above it
# Nominal op cost on the reference machine; the traced run uses a fixed op
# count of about seconds / 2 / nominal so its exact counts repeat run to run.
NOMINAL_OP_S = {
    "certify-spectral": 0.45,
    "learn-sample": 1.8,
    "samplers": 0.9,
    "potts-refine": 0.9,
}


@dataclass
class Record:
    latency: float
    digest: str | None
    error: float
    problems: list


def _digest(outputs) -> tuple[str, bool]:
    """SHA-256 over dtype, shape and bytes of every output; also whether
    every floating value is finite."""
    import numpy as np

    h = hashlib.sha256()
    finite = True
    for out in outputs:
        a = np.ascontiguousarray(np.asarray(out))
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        if a.dtype.kind in "fc":
            finite &= bool(np.isfinite(a).all())
    return h.hexdigest(), finite


def run_op(op, fixed, seed: int, index: int) -> Record:
    """Run op ``index`` with inputs drawn from ``[seed, index]``. Raising,
    a non-finite output or error, or a broken check each fail the op."""
    import numpy as np

    rng = np.random.default_rng([seed, index])
    start = time.perf_counter()
    try:
        res = op(fixed, rng)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        return Record(time.perf_counter() - start, None, math.nan,
                      [f"raised {type(exc).__name__}: {exc}"])
    latency = time.perf_counter() - start
    digest, finite = _digest(res.outputs)
    error = statistics.fmean(res.errors) if res.errors else math.nan
    problems = list(res.problems)
    if not (finite and math.isfinite(error)):
        problems.append("non-finite output or target error")
    return Record(latency, digest, error, problems)


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "multimix" / "__init__.py").is_file():
        _fail(f"no multimix sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import multimix

    if SRC not in Path(multimix.__file__).resolve().parents:
        _fail(f"multimix imported from {multimix.__file__}, not {SRC}")
    return multimix


def setup(name: str, seed: int):
    """Import, build the fixed models, run the untimed warm-up op (index 0).
    Returns (op, fixed models, seconds, warm-up record)."""
    start = time.perf_counter()
    _import_library()
    import workloads

    build, op = workloads.WORKLOADS[name]
    fixed = build(seed)
    warm = run_op(op, fixed, seed, 0)
    return op, fixed, time.perf_counter() - start, warm


def _child_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def latency_summary(latencies) -> dict:
    """Median, and the highest percentile with at least TAIL_BEYOND ops
    beyond it (the median when there are too few ops for a separate tail)."""
    ordered = sorted(latencies)
    n = len(ordered)
    j = max(n - TAIL_BEYOND - 1, n // 2)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[j],
        "tail_pct": 100.0 * (j + 1) / n,
        "ops": n,
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout: the source digest identifies the code
    src = hashlib.sha256()
    for path in sorted((SRC / "multimix").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _failures(records, first_index):
    return [(first_index + k, r.problems) for k, r in enumerate(records) if r.problems]


def measure(name: str, seed: int, seconds: float):
    op, fixed, first_setup, warm = setup(name, seed)
    records = []
    start = time.perf_counter()
    while True:
        records.append(run_op(op, fixed, seed, len(records) + 1))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= MIN_OPS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [first_setup] + [_child_setup(name, seed) for _ in range(SETUPS - 1)]
    lat = latency_summary([r.latency for r in records])
    failed = _failures(records, 1)
    good = len(records) - len(failed)
    errors = [r.error for r in records if math.isfinite(r.error)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (good / elapsed, "1/s"),
        "op_p50_s": (lat["p50"], "s"),
        "op_tail_s": (lat["tail"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        # with no finite error at all the run is already marked incorrect;
        # 1.0 keeps the result valid JSON
        "target_error": (statistics.fmean(errors) if errors else 1.0, "dist"),
    }
    notes = {
        "fail_frac": f"{len(failed) / len(records)!r} ratio ({len(failed)} of {len(records)} ops)",
        "op_tail_s": f"p{lat['tail_pct']:.0f} of {lat['ops']} ops",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "window_s": f"{elapsed:.3f}",
    }
    problems = _failures([warm], 0) + failed
    return metrics, notes, len(records), len(failed), problems, not problems


def measure_traced(name: str, seed: int, seconds: float):
    op, fixed, _, warm = setup(name, seed)
    from spans import Tracer

    count = max(2, round(seconds / 2.0 / NOMINAL_OP_S[name]))
    indices = range(1, count + 1)
    tracer = Tracer()
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    # interleaved, so both passes see the same cache and machine state
    for i in indices:
        start = time.perf_counter()
        plain.append(run_op(op, fixed, seed, i))
        plain_wall += time.perf_counter() - start
        start = time.perf_counter()
        with tracer.installed():
            traced.append(run_op(op, fixed, seed, i))
        traced_wall += time.perf_counter() - start
    leftovers = tracer.leftover_bindings()
    mismatched = [i for i, a, b in zip(indices, plain, traced) if a.digest != b.digest]
    metrics = tracer.metrics(traced_wall, plain_wall)
    failed = _failures(plain, 1) + _failures(traced, 1)
    notes = {
        "ops_per_pass": str(count),
        "digests": f"{count - len(mismatched)} of {count} traced ops match untraced",
        "restored": "all bindings restored" if not leftovers else f"left wrapped: {leftovers}",
    }
    problems = _failures([warm], 0) + failed
    problems += [(i, ["traced output differs from untraced"]) for i in mismatched]
    correct = not problems and not leftovers
    return metrics, notes, 2 * count, len(failed), problems, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if args.setup_only:
        _, _, seconds, _ = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    measure_run = measure_traced if args.trace else measure
    metrics, notes, attempted, failed, problems, correct = measure_run(
        args.workload, args.seed, args.seconds
    )
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:34s} {value:>16.6g} {unit}{note}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"  {key:34s} {note}")
    for index, what in problems:
        print(f"  FAILED op {index}: {'; '.join(what)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
