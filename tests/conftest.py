"""Prints a one-line verdict per acceptance criterion after the run, and
holds helpers the test modules share."""

import re
import tracemalloc


def peak_traced_bytes(fn):
    """Call fn() under tracemalloc; return its result and the peak bytes
    traced during the call (numpy reports its array buffers to tracemalloc).
    """
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


_PATTERN = re.compile(r"test_acceptance\.py::test_c(\d\d)_")

CRITERIA = {
    1: "product-measure spectrum has binomial multiplicities (n <= 8, 1e-8)",
    2: "closed-form chi-square trajectory matches expm within 1e-7; contraction bound holds",
    3: "mixture of k product measures keeps lambda_{k+1} above the component gaps (20/20)",
    4: "median balance statistic concentrates at the root-m rate (slope in [-0.65,-0.35])",
    5: "data-based init splits the bimodal well 45/55; single-mode init stays put (>= 0.95)",
    6: "terminal projection-TV increases strictly with score error (3-seed majority)",
    7: "Curie-Weiss mixture certificate passes and refinement reconstructs pi to 1e-10",
    8: "Curie-Weiss gap ratios decay (<= 0.7) while n^3 lambda_3 stays bounded below",
    9: "symmetric two-point init is balanced (1e-8) and mixes to TV <= 0.05 on schedule",
    10: "learned rank-1 model: eps-hat <= 0.01 and certified TV <= 0.15 (3-seed majority)",
    11: "exact trajectory KL stays under t * eps-hat * 1.2 for 3 steps (20 pairs)",
    12: "score second moment under beta*d (3 sigma) and Hessian sandwich at 100 points",
}

_outcomes = {}


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.failed:
        _outcomes[num] = False
    elif report.when == "call" and report.passed:
        _outcomes.setdefault(num, True)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        verdict = "PASS" if _outcomes[num] else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {num:2d}: {CRITERIA[num]}")
