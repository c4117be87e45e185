"""Config-driven experiment runner with deterministic seeds and CSV output.

Every desk-scale result ships as a named catalog experiment. A JSON config
selects experiments, seeds, and sweep grids; `run` executes them on a worker
pool, writes one CSV (atomically) plus a JSON pass/fail summary, and returns
a process exit code: 0 success, 1 a declared acceptance predicate failed,
2 config parse error, 3 capacity exceeded.

Reruns with the same config and seeds produce byte-identical outputs. Task
runtimes are recorded only when timings are requested, so the default output
is stable across machines.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .errors import CapacityError, ParseError
from .hs import (
    build_field_net,
    certify_sandwich,
    exact_mixture_refinement,
    mixture_density,
    split_spectrum,
)
from .ising import (
    IsingModel,
    curie_weiss,
    exact_distribution,
    load_ising_model,
    low_rank_ising,
    mean_field_potts,
    sample_exact,
)
from .langevin import (
    GaussianComponent,
    LmcConfig,
    MixtureModel,
    exact_score,
    lmc_run,
    perturb_score,
    sample_mixture,
    submixture_score,
    submixture_score_error,
)
from .measures import SampleSet
from .ple import PleConfig, learn_and_sample, row_norms
from .rng import make_rng
from .spectral import balance_statistic, build_glauber_generator, eigendecompose

GAP_TRANSFER = math.exp(-6.0)

CSV_HEADER = ("experiment", "parameters", "metric", "value", "stderr", "runtime_seconds")


@dataclass(frozen=True)
class ResultRow:
    """One metric at one sweep point; the schema is shared by every
    experiment so downstream tooling never branches."""

    experiment: str
    parameters: str
    metric: str
    value: float
    stderr: float = 0.0
    runtime_seconds: float = 0.0

    def __post_init__(self):
        if math.isnan(self.value):
            raise ValueError(f"metric {self.metric} came out NaN")


@dataclass(frozen=True)
class ExperimentConfig:
    """A catalog entry plus its seeds and parameter overrides."""

    name: str
    seeds: tuple[int, ...]
    params: dict
    require: tuple[dict, ...] = ()

    def __post_init__(self):
        if self.name not in CATALOG:
            raise ParseError(f"unknown experiment {self.name!r}")
        if not self.seeds:
            raise ParseError(f"experiment {self.name!r} declares no seeds")
        unknown = sorted(set(self.params) - PARAMETERS[self.name])
        if unknown:
            raise ParseError(
                f"experiment {self.name!r} has unknown parameter(s) "
                f"{', '.join(map(repr, unknown))}; known: {sorted(PARAMETERS[self.name])}"
            )


class _Runner:
    """Submits sweep-point tasks to the shared pool; results come back in
    submission order, so output ordering never depends on scheduling."""

    def __init__(self, pool: ThreadPoolExecutor, timings: bool):
        self._pool = pool
        self._timings = timings

    def map(self, tasks):
        def timed(fn):
            def call():
                start = time.perf_counter()
                rows = fn()
                elapsed = time.perf_counter() - start if self._timings else 0.0
                return [replace(r, runtime_seconds=elapsed) for r in rows]

            return call

        futures = [self._pool.submit(timed(fn)) for fn in tasks]
        out = []
        for fut in futures:
            out.extend(fut.result())
        return out


def _ising_fixture(n: int = 8, seed: int = 606) -> IsingModel:
    """The fixed random Ising model used by the concentration studies."""
    rng = make_rng(seed, "default")
    J = rng.normal(0.0, 0.35 / math.sqrt(n), (n, n))
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    return IsingModel(J, rng.normal(0.0, 0.15, n))


def _bimodal_fixture() -> MixtureModel:
    """Equal-weight unit-variance modes at -5 and +5 on the line."""
    eye = np.eye(1)
    return MixtureModel(
        weights=np.array([0.5, 0.5]),
        components=(
            GaussianComponent(np.array([-5.0]), eye),
            GaussianComponent(np.array([5.0]), eye),
        ),
    )


def _mixture_bin_masses(model: MixtureModel, edges: np.ndarray) -> np.ndarray:
    """Exact mass of each histogram bin (outer bins absorb the tails)."""
    masses = np.zeros(edges.size + 1)
    for w, comp in zip(model.weights, model.components):
        mu = float(comp.mean[0])
        sd = math.sqrt(float(comp.cov[0, 0]))
        cdf = ndtr((edges - mu) / sd)
        masses[0] += w * cdf[0]
        masses[1:-1] += w * np.diff(cdf)
        masses[-1] += w * (1.0 - cdf[-1])
    return masses


def _projection_tv(samples: np.ndarray, model: MixtureModel, bins: int = 60) -> float:
    """TV between the terminal first-coordinate histogram and the exact
    mixture law on the same bins."""
    edges = np.linspace(-9.0, 9.0, bins + 1)
    x = samples[:, 0]
    counts = np.zeros(edges.size + 1)
    inner, _ = np.histogram(x, bins=edges)
    counts[0] = np.sum(x < edges[0])
    counts[1:-1] = inner
    counts[-1] = np.sum(x >= edges[-1])
    emp = counts / x.size
    return 0.5 * float(np.abs(emp - _mixture_bin_masses(model, edges)).sum())


# ---------------------------------------------------------------------------
# catalog


def _exp_balance_concentration(params, seeds, runner):
    n = int(params.get("n", 8))
    k = int(params.get("k", 4))
    sizes = [int(v) for v in params.get("m", (50, 200, 800, 3200))]
    redraws = int(params.get("redraws", 200))
    lo, hi = params.get("slope_window", (-0.65, -0.35))
    if "model" in params:
        model = load_ising_model(Path(params["model"]).read_text())
    else:
        model = _ising_fixture(n)
    spectrum = eigendecompose(build_glauber_generator(exact_distribution(model)), k)
    base_seed = seeds[0]

    def point(m_samples):
        def task():
            vals = np.empty(redraws)
            for r in range(redraws):
                draws = sample_exact(model, m_samples, base_seed + 7919 * r + m_samples)
                vals[r] = balance_statistic(spectrum, SampleSet(draws), k).value
            med = float(np.median(vals))
            label = f"n={model.n} k={k} m={m_samples}"
            return [
                ResultRow("balance-concentration", label, "median_balance", med),
                ResultRow(
                    "balance-concentration",
                    label,
                    "balance_iqr",
                    float(np.subtract(*np.percentile(vals, [75, 25]))),
                ),
            ]

        return task

    rows = runner.map([point(m) for m in sizes])
    medians = [r.value for r in rows if r.metric == "median_balance"]
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    rows.append(
        ResultRow("balance-concentration", f"n={model.n} k={k}", "loglog_slope", slope)
    )
    return rows, bool(lo <= slope <= hi)


def _exp_cw_gap_scaling(params, seeds, runner):
    sweep = [int(v) for v in params.get("n", (5, 7, 9, 11))]
    beta = float(params.get("beta", 1.5))
    ratio_cap = float(params.get("ratio_cap", 0.7))

    def point(n):
        def task():
            spec = eigendecompose(
                build_glauber_generator(exact_distribution(curie_weiss(n, beta))), 3
            )
            # rates per coordinate update: the unit-rate eigenvalues carry a
            # factor n that would mask the 1/n^3 scaling
            lam2 = float(spec.eigenvalues[1]) / n
            lam3 = float(spec.eigenvalues[2]) / n
            label = f"n={n} beta={beta}"
            return [
                ResultRow("cw-gap-scaling", label, "lambda2", lam2),
                ResultRow("cw-gap-scaling", label, "lambda3", lam3),
                ResultRow("cw-gap-scaling", label, "n3_lambda3", n**3 * lam3),
            ]

        return task

    rows = runner.map([point(n) for n in sweep])
    # the runner returns rows in submission order: one lambda2 per sweep point
    lam2 = [r.value for r in rows if r.metric == "lambda2"]
    ok = True
    for b, lo, hi in zip(sweep[1:], lam2, lam2[1:]):
        ratio = hi / lo
        rows.append(
            ResultRow("cw-gap-scaling", f"n={b} beta={beta}", "lambda2_ratio", ratio)
        )
        ok &= ratio <= ratio_cap
    cubes = [r.value for r in rows if r.metric == "n3_lambda3"]
    ok &= all(v >= 0.9 * min(cubes) for v in cubes)
    return rows, ok


def _exp_langevin_metastability(params, seeds, runner):
    step = float(params.get("step", 1e-3))
    horizon = float(params.get("horizon", 10.0))
    chains = int(params.get("chains", 10_000))
    pool_size = int(params.get("stationary_samples", 500))
    model = _bimodal_fixture()
    score = exact_score(model)

    def one(seed, mode):
        def task():
            if mode == "data":
                init = sample_mixture(model, pool_size, seed + 11)
            else:
                init = np.array([[-5.0]])
            cfg = LmcConfig(step=step, horizon=horizon, seed=seed, chains=chains)
            res = lmc_run(init, score, cfg)
            x = res.samples.data[:, 0]
            frac = float(np.mean(x > 0.0)) if mode == "data" else float(np.mean(x < 0.0))
            name = "right_mode_fraction" if mode == "data" else "stay_fraction"
            se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / chains)
            label = f"init={mode} seed={seed}"
            return [ResultRow("langevin-metastability", label, name, frac, stderr=se)]

        return task

    rows = runner.map([one(s, m) for s in seeds for m in ("data", "single")])
    ok = True
    for r in rows:
        if r.metric == "right_mode_fraction":
            ok &= 0.45 <= r.value <= 0.55
        if r.metric == "stay_fraction":
            ok &= r.value >= 0.95
    return rows, ok


def _exp_score_robustness(params, seeds, runner):
    eps_grid = [float(v) for v in params.get("eps_sc", (0.0, 0.2, 0.5, 1.0))]
    step = float(params.get("step", 5e-3))
    horizon = float(params.get("horizon", 5.0))
    chains = int(params.get("chains", 10_000))
    model = _bimodal_fixture()

    def one(seed, eps):
        def task():
            score = perturb_score(model, eps, seed=seed + 101)
            init = sample_mixture(model, 500, seed + 11)
            cfg = LmcConfig(step=step, horizon=horizon, seed=seed, chains=chains)
            res = lmc_run(init, score, cfg)
            tv = _projection_tv(res.samples.data, model)
            label = f"seed={seed} eps_sc={eps}"
            return [ResultRow("score-robustness", label, "terminal_tv", tv)]

        return task

    rows = runner.map([one(s, e) for s in seeds for e in eps_grid])
    votes = 0
    for s in seeds:
        tvs = [
            r.value
            for e in eps_grid
            for r in rows
            if r.parameters == f"seed={s} eps_sc={e}" and r.metric == "terminal_tv"
        ]
        monotone = all(a < b for a, b in zip(tvs, tvs[1:]))
        # record the shape against the sqrt(T)*eps trend: increments per
        # unit of eps^2 should shrink if degradation is concave in eps^2
        sq = np.diff(tvs) / np.diff(np.square(eps_grid))
        concave = bool(np.all(np.diff(sq) <= 0.0))
        rows.append(
            ResultRow("score-robustness", f"seed={s}", "monotone", float(monotone))
        )
        rows.append(
            ResultRow(
                "score-robustness", f"seed={s}", "concave_in_eps_sq", float(concave)
            )
        )
        votes += monotone
    return rows, votes * 2 > len(seeds)


def _exp_hs_sandwich(params, seeds, runner):
    sweep = [int(v) for v in params.get("n", (5, 7, 9))]
    beta = float(params.get("beta", 1.5))
    c = float(params.get("c", 2.0))

    def point(n):
        def task():
            model = curie_weiss(n, beta)
            split = split_spectrum(model, c)
            net = build_field_net(split, 1.0, n)
            pi = exact_distribution(model)
            pi2, components = mixture_density(net, split, model)
            cert = certify_sandwich(pi, pi2)
            dists = [exact_distribution(m) for m in components]
            q, refined = exact_mixture_refinement(pi, net.weights, dists)
            recon = q @ np.stack([d.probs for d in refined])
            err = float(np.abs(recon - pi.probs).max())
            label = f"n={n} beta={beta} c={c}"
            return [
                ResultRow("hs-sandwich", label, "fields", float(net.count)),
                ResultRow("hs-sandwich", label, "min_ratio", cert.min_ratio),
                ResultRow("hs-sandwich", label, "max_ratio", cert.max_ratio),
                ResultRow("hs-sandwich", label, "passed", float(cert.passed)),
                ResultRow("hs-sandwich", label, "refine_error", err),
            ]

        return task

    rows = runner.map([point(n) for n in sweep])
    ok = all(r.value == 1.0 for r in rows if r.metric == "passed")
    ok &= all(r.value <= 1e-10 for r in rows if r.metric == "refine_error")
    return rows, ok


def _exp_learn_ising_e2e(params, seeds, runner):
    n = int(params.get("n", 8))
    top = float(params.get("top_eigenvalue", 1.5))
    m_fit = int(params.get("m_fit", 20_000))
    m_init = int(params.get("m_init", 2000))
    horizon = float(params.get("horizon", 25.0))
    truth = low_rank_ising(n, 1, [top], 0.2, seed=int(params.get("model_seed", 4)))
    radius = float(row_norms(truth).max())

    def one(seed):
        def task():
            report = learn_and_sample(
                truth, m_fit, m_init, PleConfig(radius=radius, seed=seed), horizon
            )
            label = f"n={n} m_fit={m_fit} seed={seed}"
            return [
                ResultRow("learn-ising-e2e", label, "epsilon_hat", report.fit.epsilon_hat),
                ResultRow("learn-ising-e2e", label, "terminal_tv", report.tv),
                ResultRow("learn-ising-e2e", label, "balance", report.balance.value),
                ResultRow(
                    "learn-ising-e2e", label, "converged", float(report.fit.converged)
                ),
            ]

        return task

    rows = runner.map([one(s) for s in seeds])
    votes = 0
    for s in seeds:
        label = f"n={n} m_fit={m_fit} seed={s}"
        eps = next(r.value for r in rows if r.parameters == label and r.metric == "epsilon_hat")
        tv = next(r.value for r in rows if r.parameters == label and r.metric == "terminal_tv")
        votes += eps <= 0.01 and tv <= 0.15
    return rows, votes * 2 > len(seeds)


def _exp_potts_gap(params, seeds, runner):
    n = int(params.get("n", 4))
    q = int(params.get("q", 3))
    beta = float(params.get("beta", 1.2))
    c = float(params.get("c", 2.0))
    gap_sample = int(params.get("component_gap_sample", 64))

    def task():
        model = mean_field_potts(n, q, beta)
        split = split_spectrum(model, c)
        net = build_field_net(split, 1.0, n)
        pi = exact_distribution(model)
        pi2, components = mixture_density(net, split, model)
        cert = certify_sandwich(pi, pi2)
        qw, refined = exact_mixture_refinement(pi, net.weights, components)
        recon = qw @ np.stack([d.probs for d in refined])
        err = float(np.abs(recon - pi.probs).max())
        # eigensolving every component is out of reach; a deterministic
        # stride plus the strongest tilt stands in for the minimum
        stride = max(1, net.count // gap_sample)
        picks = sorted(set(range(0, net.count, stride)) | {int(np.argmax(np.linalg.norm(net.fields, axis=1)))})
        gaps = [
            float(eigendecompose(build_glauber_generator(refined[i], q), 2).eigenvalues[1])
            for i in picks
        ]
        k_eff = min(net.count, pi.m - 1)
        spec = eigendecompose(build_glauber_generator(pi, q), k_eff + 1)
        mixture_gap = float(spec.eigenvalues[k_eff])
        label = f"n={n} q={q} beta={beta}"
        return [
            ResultRow("potts-gap", label, "fields", float(net.count)),
            ResultRow("potts-gap", label, "min_ratio", cert.min_ratio),
            ResultRow("potts-gap", label, "max_ratio", cert.max_ratio),
            ResultRow("potts-gap", label, "passed", float(cert.passed)),
            ResultRow("potts-gap", label, "refine_error", err),
            ResultRow("potts-gap", label, "min_component_gap", min(gaps)),
            ResultRow("potts-gap", label, "mixture_gap", mixture_gap),
        ]

    rows = runner.map([task])
    value = {r.metric: r.value for r in rows}
    ok = value["passed"] == 1.0 and value["refine_error"] <= 1e-10
    ok &= value["mixture_gap"] >= value["min_component_gap"] * GAP_TRANSFER - 1e-8
    return rows, ok


def _exp_min_weight_free(params, seeds, runner):
    tiny = float(params.get("tiny_weight", 1e-4))
    step = float(params.get("step", 5e-3))
    horizon = float(params.get("horizon", 5.0))
    chains = int(params.get("chains", 10_000))
    big = 0.5 * (1.0 - tiny)
    eye = np.eye(1)
    model = MixtureModel(
        weights=np.array([big, big, tiny]),
        components=(
            GaussianComponent(np.array([-5.0]), eye),
            GaussianComponent(np.array([5.0]), eye),
            GaussianComponent(np.array([0.0]), eye),
        ),
    )
    kept = frozenset({0, 1})

    def one(seed, dropped):
        def task():
            score = submixture_score(model, kept) if dropped else exact_score(model)
            init = sample_mixture(model, 500, seed + 11)
            cfg = LmcConfig(step=step, horizon=horizon, seed=seed, chains=chains)
            res = lmc_run(init, score, cfg)
            tv = _projection_tv(res.samples.data, model)
            name = "terminal_tv_dropped" if dropped else "terminal_tv_full"
            return [ResultRow("min-weight-free", f"seed={seed}", name, tv)]

        return task

    rows = runner.map([one(s, d) for s in seeds for d in (False, True)])
    err = submixture_score_error(
        model, kept, sample_mixture(model, 4000, seeds[0] + 23)
    )
    rows.append(
        ResultRow("min-weight-free", f"seed={seeds[0]}", "dropped_score_error", err)
    )
    ok = True
    for s in seeds:
        full = next(
            r.value
            for r in rows
            if r.parameters == f"seed={s}" and r.metric == "terminal_tv_full"
        )
        dropped = next(
            r.value
            for r in rows
            if r.parameters == f"seed={s}" and r.metric == "terminal_tv_dropped"
        )
        rows.append(
            ResultRow("min-weight-free", f"seed={s}", "tv_shift", abs(full - dropped))
        )
        ok &= abs(full - dropped) <= float(params.get("shift_cap", 0.02))
    return rows, ok


CATALOG = {
    "balance-concentration": _exp_balance_concentration,
    "cw-gap-scaling": _exp_cw_gap_scaling,
    "langevin-metastability": _exp_langevin_metastability,
    "score-robustness": _exp_score_robustness,
    "hs-sandwich": _exp_hs_sandwich,
    "learn-ising-e2e": _exp_learn_ising_e2e,
    "potts-gap": _exp_potts_gap,
    "min-weight-free": _exp_min_weight_free,
}

# The parameter keys each experiment reads; any other key is rejected so a
# misspelt override cannot silently fall back to the default.
PARAMETERS = {
    "balance-concentration": frozenset({"n", "k", "m", "redraws", "slope_window", "model"}),
    "cw-gap-scaling": frozenset({"n", "beta", "ratio_cap"}),
    "langevin-metastability": frozenset({"step", "horizon", "chains", "stationary_samples"}),
    "score-robustness": frozenset({"eps_sc", "step", "horizon", "chains"}),
    "hs-sandwich": frozenset({"n", "beta", "c"}),
    "learn-ising-e2e": frozenset(
        {"n", "top_eigenvalue", "m_fit", "m_init", "horizon", "model_seed"}
    ),
    "potts-gap": frozenset({"n", "q", "beta", "c", "component_gap_sample"}),
    "min-weight-free": frozenset({"tiny_weight", "step", "horizon", "chains", "shift_cap"}),
}


# ---------------------------------------------------------------------------
# config handling and the runner


def _parse_config(text: str) -> tuple[list[ExperimentConfig], str]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "experiments" not in raw:
        raise ParseError("config must be an object with an 'experiments' list")
    if not isinstance(raw["experiments"], list):
        raise ParseError("'experiments' must be a list")
    out = raw.get("out", "results.csv")
    if not isinstance(out, str):
        raise ParseError("'out' must be a path string")
    configs = []
    for entry in raw["experiments"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ParseError("each experiment needs at least a 'name'")
        seeds = entry.get("seeds", [])
        if not isinstance(seeds, list) or not all(isinstance(s, int) for s in seeds):
            raise ParseError("experiment seeds must be a list of integers")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("experiment params must be an object")
        require = entry.get("require", [])
        if not isinstance(require, list) or not all(isinstance(r, dict) for r in require):
            raise ParseError("'require' must be a list of objects")
        configs.append(
            ExperimentConfig(
                name=entry["name"],
                seeds=tuple(seeds),
                params=params,
                require=tuple(require),
            )
        )
    return configs, out


def _check_requirements(rows, require) -> bool:
    ok = True
    for rule in require:
        matched = [
            r
            for r in rows
            if r.metric == rule.get("metric")
            and ("parameters" not in rule or r.parameters == rule["parameters"])
        ]
        if not matched:
            ok = False
            continue
        for r in matched:
            if "min" in rule:
                ok &= r.value >= float(rule["min"])
            if "max" in rule:
                ok &= r.value <= float(rule["max"])
    return ok


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [
                r.experiment,
                r.parameters,
                r.metric,
                repr(float(r.value)),
                repr(float(r.stderr)),
                repr(float(r.runtime_seconds)),
            ]
        )
    return buf.getvalue()


def run(
    config_path,
    *,
    threads: int | None = None,
    timings: bool = False,
    out_override: str | None = None,
) -> int:
    """Execute every experiment in the config; write CSV and JSON summary.

    The worker-pool width comes from the `threads` argument, else the
    MULTIMIX_THREADS environment variable, else 4. Results are ordered by
    (experiment position, sweep position) regardless of scheduling.
    """
    path = Path(config_path)
    try:
        configs, out = _parse_config(path.read_text())
    except (FileNotFoundError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out_override is not None:
        out_path = Path(out_override)
    else:
        # paths declared inside the config resolve next to the config
        out_path = Path(out)
        if not out_path.is_absolute():
            out_path = path.parent / out_path
    if threads is None:
        env = os.environ.get("MULTIMIX_THREADS", "")
        threads = int(env) if env.isdigit() and int(env) > 0 else 4

    all_rows: list[ResultRow] = []
    summary = []
    overall = True
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runner = _Runner(pool, timings)
            for cfg in configs:
                rows, passed = CATALOG[cfg.name](cfg.params, list(cfg.seeds), runner)
                passed &= _check_requirements(rows, cfg.require)
                all_rows.extend(rows)
                summary.append({"name": cfg.name, "passed": bool(passed)})
                overall &= passed
    except CapacityError:
        return 3
    except (ParseError, FileNotFoundError):
        return 2

    _atomic_write(out_path, _render_csv(all_rows))
    digest = {"passed": bool(overall), "experiments": summary}
    _atomic_write(
        out_path.with_suffix(".json"), json.dumps(digest, sort_keys=True, indent=2) + "\n"
    )
    return 0 if overall else 1
