"""Self-test of the benchmark itself (about two minutes, one process).

    python3 perfbench/selftest.py

Checks that
  * an op whose library call raises, or returns NaN, is counted as failed;
  * a traced pass gives bitwise the same op outputs as an untraced one,
    restores every wrapped binding, and covers at least 90% of its wall time;
  * the exact counts (ple.fit.iterations, langevin.lmc.chain_steps,
    hs.net.fields, spectral.eigen.pairs) repeat exactly between two runs of
    the same code and seed;
  * the c10 fixture (n=8 rank-1 truth, model seed 4, 20 000 samples, fit
    seed 0) takes 968 PLE iterations, the count the project's roadmap records.

Exits 1 if any check fails.
"""

from __future__ import annotations

import math
import sys

import run

EXACT_COUNTS = {
    "certify-spectral": "spectral.eigen.pairs",
    "learn-sample": "ple.fit.iterations",
    "samplers": "langevin.lmc.chain_steps",
    "potts-refine": "hs.net.fields",
}
C10_ITERATIONS = 968


# Each check yields (passed, description) pairs.


def check_failed_ops_are_counted(mm, stubbed):
    def raising(*args, **kwargs):
        raise RuntimeError("injected failure")

    def nan(*args, **kwargs):
        return math.nan

    for label, stub in (("raising", raising), ("NaN-returning", nan)):
        with stubbed(mm.measures.tv_distance, stub):
            _, notes, attempted, failed, problems, correct = run.measure(
                "certify-spectral", 0, 0.1
            )
        yield (
            failed == attempted and not correct,
            f"{label} tv_distance stub: {failed} of {attempted} ops counted failed",
        )
    _, _, attempted, failed, _, correct = run.measure("certify-spectral", 0, 0.1)
    yield failed == 0 and correct, f"stub removed: {failed} of {attempted} ops failed"


def check_traced_runs():
    for name, counter in EXACT_COUNTS.items():
        first, second = (run.measure_traced(name, 7, 0.1) for _ in range(2))
        for metrics, notes, _, _, problems, correct in (first, second):
            coverage = metrics["trace.coverage"][0]
            yield (correct and coverage >= 0.9,
                   f"{name} traced: {notes['digests']}, {notes['restored']}, "
                   f"coverage {coverage:.3f}, problems {problems}")
        a, b = first[0][counter][0], second[0][counter][0]
        yield a == b and a > 0, f"{name}: {counter} repeats exactly ({a:g}, {b:g})"


def check_c10_iterations(mm, tracer_cls):
    truth = mm.low_rank_ising(8, 1, [1.5], 0.2, seed=4)
    cfg = mm.PleConfig(radius=float(mm.ple.row_norms(truth).max()), seed=0)
    tracer = tracer_cls()
    with tracer.installed():
        mm.learn_and_sample(truth, 20_000, 2000, cfg, 25.0)
    iterations = tracer.metrics(1.0, 1.0)["ple.fit.iterations"][0]
    yield (iterations == C10_ITERATIONS,
           f"c10 fixture: ple.fit.iterations {iterations:g} (roadmap: {C10_ITERATIONS})")


def main() -> int:
    mm = run._import_library()
    from spans import Tracer, stubbed

    failed = 0
    for checks in (check_failed_ops_are_counted(mm, stubbed), check_traced_runs(),
                   check_c10_iterations(mm, Tracer)):
        for ok, what in checks:
            print(("ok      " if ok else "FAILED  ") + what, flush=True)
            failed += not ok
    print(f"{failed} check(s) failed" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
