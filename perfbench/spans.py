"""Layer spans recorded from outside the library.

A Tracer wraps multimix's public functions at every binding the multimix
modules hold, so calls from one layer into another (``learn_and_sample`` ->
``fit``, ``sample_exact`` -> ``exact_distribution``) are timed as nested
spans. ``ScoreField.evaluate``, through which ``lmc_run`` calls the score
function, is wrapped on the class. Nothing in the library changes, and
``installed()`` puts every original binding back when it exits.

Spans nest strictly (one thread), so a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

LAYERS = ("ising", "spectral", "ple", "langevin", "hs", "measures")


def _glauber_counts(args, kwargs, result):
    model, X0, T = args[:3]
    return {"updates": len(X0) * model.n * T}


def _lmc_counts(args, kwargs, result):
    cfg = args[2]
    return {
        "chain_steps": cfg.chains * cfg.steps,
        "chains": cfg.chains,
        "flagged": int(result.flagged.sum()),
    }


def _fit_counts(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


# span name -> (module, attribute names, counter over (args, kwargs, result))
SPANS = {
    "ising.enumerate": ("ising", ("exact_distribution",), None),
    "ising.sample_exact": ("ising", ("sample_exact",), None),
    "ising.glauber": ("ising", ("glauber_ensemble_continuous",), _glauber_counts),
    "spectral.generator": (
        "spectral",
        ("build_glauber_generator",),
        lambda a, k, r: {"bytes": 8 * r.m * r.m},
    ),
    "spectral.eigen": ("spectral", ("eigendecompose",), lambda a, k, r: {"pairs": r.k}),
    "spectral.evolve": ("spectral", ("evolve_distribution",), None),
    "spectral.balance": ("spectral", ("balance_statistic",), None),
    "spectral.chi2": ("spectral", ("chi2_trajectory", "verify_balance_contraction"), None),
    "ple.fit": ("ple", ("fit",), _fit_counts),
    "ple.kl": ("ple", ("conditional_kl_diagnostic", "trajectory_kl"), None),
    "ple.learn": ("ple", ("learn_and_sample",), None),
    "langevin.lmc": ("langevin", ("lmc_run",), _lmc_counts),
    "langevin.perturb": ("langevin", ("perturb_score",), None),
    "langevin.sample": ("langevin", ("sample_mixture",), None),
    "hs.split": ("hs", ("split_spectrum",), None),
    "hs.net": ("hs", ("build_field_net",), lambda a, k, r: {"fields": r.count}),
    "hs.density": ("hs", ("mixture_density",), lambda a, k, r: {"components": len(r[1])}),
    "hs.certify": ("hs", ("certify_sandwich",), None),
    "hs.refine": ("hs", ("exact_mixture_refinement",), None),
    "measures.divergence": (
        "measures",
        ("tv_distance", "chi2_divergence", "kl_divergence", "empirical_tv_continuous"),
        None,
    ),
}
SCORE_SPAN = "langevin.score"


def _multimix_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "multimix" or name.startswith("multimix."))
    ]


def _rebind(original, replacement) -> list:
    """Point every multimix binding of ``original`` at ``replacement``;
    returns the (module, name, original) triples to restore."""
    patches = []
    for mod in _multimix_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, attr, original))
                setattr(mod, attr, replacement)
    return patches


def _restore(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def stubbed(original, replacement):
    """Replace ``original`` wherever multimix binds it, for the duration."""
    patches = _rebind(original, replacement)
    try:
        yield
    finally:
        _restore(patches)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "errors", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.counts: dict[str, float] = {}


class Tracer:
    """Aggregates span statistics while its wrappers are installed."""

    def __init__(self):
        self.stats = {name: _Stat() for name in (*SPANS, SCORE_SPAN)}
        self.covered = 0.0  # wall time inside some top-level span
        self._children: list[float] = []  # child time per open span
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[object] = []

    def _wrap(self, name, fn, counter):
        stat = self.stats[name]
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = time.perf_counter() - start
                child = children.pop()
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - child
                if children:
                    children[-1] += dur
                else:
                    self.covered += dur
                if not ok:
                    stat.errors += 1
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    stat.counts[key] = stat.counts.get(key, 0) + val
            return result

        self._wrappers.append(traced)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span's functions wherever multimix binds them."""
        import multimix.langevin

        try:
            for name, (module, attrs, counter) in SPANS.items():
                owner = sys.modules[f"multimix.{module}"]
                for attr in attrs:
                    original = getattr(owner, attr)
                    self._patches += _rebind(original, self._wrap(name, original, counter))
            cls = multimix.langevin.ScoreField
            evaluate = cls.__dict__["evaluate"]
            points = lambda a, k, r: {"points": len(a[1])}  # noqa: E731
            self._patches.append((cls, "evaluate", evaluate))
            setattr(cls, "evaluate", self._wrap(SCORE_SPAN, evaluate, points))
            yield self
        finally:
            _restore(self._patches)
            self._patches.clear()

    def leftover_bindings(self) -> list[str]:
        """Bindings that still hold one of this tracer's wrappers."""
        import multimix.langevin

        wrappers = {id(w) for w in self._wrappers}
        owners = [*_multimix_modules(), multimix.langevin.ScoreField]
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in owners
            for attr, value in list(vars(owner).items())
            if id(value) in wrappers
        ]

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        st = self.stats

        def s(name):
            return st[name].self_time

        def calls(name):
            return st[name].calls

        def count(name, key):
            return st[name].counts.get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        fit_iters = count("ple.fit", "iterations")
        lmc_steps = count("langevin.lmc", "chain_steps")
        updates = count("ising.glauber", "updates")
        out = {
            "ising.enumerate.calls": (calls("ising.enumerate"), "count"),
            "ising.enumerate.s": (s("ising.enumerate"), "s"),
            "ising.sample_exact.calls": (calls("ising.sample_exact"), "count"),
            "ising.sample_exact.s": (s("ising.sample_exact"), "s"),
            "ising.glauber.s": (s("ising.glauber"), "s"),
            "ising.glauber.updates": (updates, "count"),
            "ising.glauber.updates_per_s": (ratio(updates, s("ising.glauber")), "1/s"),
            "spectral.generator.calls": (calls("spectral.generator"), "count"),
            "spectral.generator.s": (s("spectral.generator"), "s"),
            "spectral.generator.bytes": (count("spectral.generator", "bytes"), "B"),
            "spectral.eigen.calls": (calls("spectral.eigen"), "count"),
            "spectral.eigen.s": (s("spectral.eigen"), "s"),
            "spectral.eigen.pairs": (count("spectral.eigen", "pairs"), "count"),
            "spectral.evolve.calls": (calls("spectral.evolve"), "count"),
            "spectral.evolve.s": (s("spectral.evolve"), "s"),
            "spectral.balance.s": (s("spectral.balance"), "s"),
            "spectral.chi2.s": (s("spectral.chi2"), "s"),
            "ple.fit.calls": (calls("ple.fit"), "count"),
            "ple.fit.s": (s("ple.fit"), "s"),
            "ple.fit.iterations": (fit_iters, "count"),
            "ple.fit.s_per_iter": (ratio(s("ple.fit"), fit_iters), "s"),
            "ple.fit.converged_frac": (
                ratio(count("ple.fit", "converged"), calls("ple.fit")),
                "ratio",
            ),
            "ple.kl.s": (s("ple.kl"), "s"),
            "ple.learn.s": (s("ple.learn"), "s"),
            "langevin.lmc.calls": (calls("langevin.lmc"), "count"),
            "langevin.lmc.s": (s("langevin.lmc"), "s"),
            "langevin.lmc.chain_steps": (lmc_steps, "count"),
            "langevin.lmc.chain_steps_per_s": (ratio(lmc_steps, st["langevin.lmc"].total), "1/s"),
            "langevin.lmc.flagged_frac": (
                ratio(count("langevin.lmc", "flagged"), count("langevin.lmc", "chains")),
                "ratio",
            ),
            "langevin.score.calls": (calls(SCORE_SPAN), "count"),
            "langevin.score.s": (s(SCORE_SPAN), "s"),
            "langevin.score.points": (count(SCORE_SPAN, "points"), "count"),
            "langevin.perturb.s": (s("langevin.perturb"), "s"),
            "langevin.sample.s": (s("langevin.sample"), "s"),
            "hs.split.s": (s("hs.split"), "s"),
            "hs.net.calls": (calls("hs.net"), "count"),
            "hs.net.s": (s("hs.net"), "s"),
            "hs.net.fields": (count("hs.net", "fields"), "count"),
            "hs.density.s": (s("hs.density"), "s"),
            "hs.certify.s": (s("hs.certify"), "s"),
            "hs.refine.s": (s("hs.refine"), "s"),
            "hs.components": (count("hs.density", "components"), "count"),
            "measures.divergence.calls": (calls("measures.divergence"), "count"),
            "measures.divergence.s": (s("measures.divergence"), "s"),
        }
        for layer in LAYERS:
            names = [n for n in st if n.split(".")[0] == layer]
            out[f"{layer}.busy_s"] = (sum(st[n].self_time for n in names), "s")
            out[f"{layer}.errors"] = (sum(st[n].errors for n in names), "count")
        out["trace.coverage"] = (ratio(self.covered, traced_wall), "ratio")
        out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        return {k: (float(v), u) for k, (v, u) in out.items()}
