"""Config-driven experiment runner with deterministic seeds and CSV output.

Every desk-scale result ships as a named catalog experiment: a function
`(seeds, runner, *, key=default, ...)` whose keyword-only defaults are the one
declaration of its parameters. A JSON config selects experiments, seeds, and
sweep grids; `run` executes them on a worker pool, writes one CSV
(atomically) plus a JSON pass/fail summary, and returns 0 if every declared
acceptance predicate held and 1 if one failed. A bad config, a state space
over a cap or a bad argument raises instead, before any file is written;
only the CLI maps those errors to exit codes.

Reruns with the same config and seeds produce byte-identical outputs at a
fixed BLAS thread count. Task runtimes are recorded only when timings are
requested, so the default output holds no timing.
"""

from __future__ import annotations

import csv
import inspect
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

from .errors import ParseError
from .hs import (
    GAP_TRANSFER,
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
    """A catalog entry plus its seeds and parameter overrides. `params` comes
    out complete: every declared key, each given value checked against the
    type of its default and converted to it."""

    name: str
    seeds: tuple[int, ...]
    params: dict
    require: tuple[dict, ...] = ()

    def __post_init__(self):
        if self.name not in CATALOG:
            raise ParseError(f"unknown experiment {self.name!r}")
        if not self.seeds:
            raise ParseError(f"experiment {self.name!r} declares no seeds")
        unknown = sorted(set(self.params) - set(PARAMETERS[self.name]))
        if unknown:
            raise ParseError(
                f"experiment {self.name!r} has unknown parameter(s) "
                f"{', '.join(map(repr, unknown))}; known: {sorted(PARAMETERS[self.name])}"
            )
        typed = {key: _typed(self.name, key, v) for key, v in self.params.items()}
        object.__setattr__(self, "params", {**PARAMETERS[self.name], **typed})


def _number(kind: type, value):
    """`value` as a finite `kind` (int or float), or None if it is not one.
    A bool is not a number, and an int takes only integral values."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        return None
    if kind is int:
        return int(value) if value == int(value) else None
    return float(value)


_KINDS = {int: "whole number", float: "finite number"}


def _typed(name: str, key: str, value):
    """`value` converted to the type of the parameter's default: an int, a
    finite float, a nonempty list of either for a tuple default, and a path
    string or null for the `model` default None."""
    default = PARAMETERS[name][key]
    if default is None:
        typed, want = value, "a path string or null"
        ok = value is None or isinstance(value, str)
    elif isinstance(default, tuple):
        items = value if isinstance(value, list) else ()
        typed = tuple(_number(type(default[0]), v) for v in items)
        # the slope window is a (lo, hi) pair; every other list is a sweep
        pair = key == "slope_window"
        want = f"a list of {'two' if pair else 'one or more'} {_KINDS[type(default[0])]}s"
        ok = typed and None not in typed and (not pair or len(typed) == 2)
    else:
        typed, want = _number(type(default), value), f"a {_KINDS[type(default)]}"
        ok = typed is not None
    if not ok:
        raise ParseError(f"experiment {name!r} parameter {key!r} must be {want}, got {value!r}")
    return typed


class _Runner:
    """Maps a sweep-point function over the shared pool; `map` returns each
    point's rows as one list, in input order, so output ordering never
    depends on scheduling."""

    def __init__(self, pool: ThreadPoolExecutor, timings: bool):
        self._pool = pool
        self._timings = timings

    def map(self, fn, *iterables) -> list[list[ResultRow]]:
        def timed(*point):
            start = time.perf_counter()
            rows = fn(*point)
            elapsed = time.perf_counter() - start if self._timings else 0.0
            return [replace(r, runtime_seconds=elapsed) for r in rows]

        return list(self._pool.map(timed, *iterables))


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


def _projection_tv(
    samples: np.ndarray, model: MixtureModel, chains: int | None = None, bins: int = 60
) -> float:
    """TV between the terminal first-coordinate histogram and the exact
    mixture law on the same bins. Every bin is closed on the left and open
    on the right, and the two outer bins absorb the tails, so each point
    lands in exactly one bin. Counts are divided by `chains` (by default the
    number of samples), so chains left out of `samples` count as mass
    missing from every bin."""
    edges = np.linspace(-9.0, 9.0, bins + 1)
    x = samples[:, 0]
    counts = np.bincount(np.searchsorted(edges, x, side="right"), minlength=edges.size + 1)
    exact = np.zeros(edges.size + 1)
    for w, comp in zip(model.weights, model.components):
        cdf = ndtr((edges - comp.mean[0]) / math.sqrt(comp.cov[0, 0]))
        exact += w * np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    return 0.5 * float(np.abs(counts / (x.size if chains is None else chains) - exact).sum())


# ---------------------------------------------------------------------------
# catalog


def _flatten(groups) -> list[ResultRow]:
    return [r for rows in groups for r in rows]


def _data_started_tv(model: MixtureModel, score, seed: int, step, horizon, chains) -> float:
    """Projection TV of LMC started from 500 stationary draws of `model`. A
    chain flagged by the divergence guard is left out of the histogram but
    not out of the chain count, so its mass counts as missing."""
    init = sample_mixture(model, 500, seed + 11)
    res = lmc_run(init, score, LmcConfig(step=step, horizon=horizon, seed=seed, chains=chains))
    return _projection_tv(res.samples.data[~res.flagged], model, res.chains)


def _hs_certificate(experiment: str, label: str, model, c: float):
    """Split, field net, mixture density, sandwich and exact refinement of one
    model. Returns the rows fields, min_ratio, max_ratio, passed and
    refine_error, then the net, the law and the refined components."""
    split = split_spectrum(model, c)
    net = build_field_net(split, 1.0, model.n)
    pi = exact_distribution(model)
    pi2, components = mixture_density(net, split, model)
    cert = certify_sandwich(pi, pi2)
    # spin components come back as models, Potts components as laws
    if isinstance(model, IsingModel):
        components = [exact_distribution(m) for m in components]
    q, refined = exact_mixture_refinement(pi, net.weights, components)
    recon = q @ np.stack([d.probs for d in refined])
    values = (
        ("fields", float(net.count)),
        ("min_ratio", cert.min_ratio),
        ("max_ratio", cert.max_ratio),
        ("passed", float(cert.passed)),
        ("refine_error", float(np.abs(recon - pi.probs).max())),
    )
    rows = [ResultRow(experiment, label, name, v) for name, v in values]
    return rows, net, pi, refined


def _certified(rows) -> bool:
    """The verdict on the rows `_hs_certificate` returns."""
    return rows[3].value == 1.0 and rows[4].value <= 1e-10


def _exp_balance_concentration(
    seeds, runner, *, n=8, k=4, m=(50, 200, 800, 3200), redraws=200,
    slope_window=(-0.65, -0.35), model=None,
):
    if redraws < 1:
        raise ValueError("balance-concentration parameter 'redraws' must be >= 1")
    if min(m) < 1 or len(set(m)) < 2:
        raise ValueError("balance-concentration parameter 'm' needs 2 distinct sizes >= 1")
    model = _ising_fixture(n) if model is None else load_ising_model(Path(model).read_text())
    if not 2 <= k <= 2**model.n:
        raise ValueError(f"balance-concentration parameter 'k' must be in 2..2^n = {2**model.n}")
    spectrum = eigendecompose(build_glauber_generator(exact_distribution(model)), k)
    base_seed = seeds[0]

    def point(m_samples):
        vals = np.empty(redraws)
        for r in range(redraws):
            draws = sample_exact(model, m_samples, base_seed + 7919 * r + m_samples)
            vals[r] = balance_statistic(spectrum, SampleSet(draws), k).value
        med = float(np.median(vals))
        iqr = float(np.subtract(*np.percentile(vals, [75, 25])))
        label = f"n={model.n} k={k} m={m_samples}"
        return [
            ResultRow("balance-concentration", label, "median_balance", med),
            ResultRow("balance-concentration", label, "balance_iqr", iqr),
        ]

    groups = runner.map(point, m)
    medians = [rows[0].value for rows in groups]
    slope = float(np.polyfit(np.log(m), np.log(medians), 1)[0])
    rows = _flatten(groups)
    rows.append(
        ResultRow("balance-concentration", f"n={model.n} k={k}", "loglog_slope", slope)
    )
    lo, hi = slope_window
    return rows, bool(lo <= slope <= hi)


def _exp_cw_gap_scaling(seeds, runner, *, n=(5, 7, 9, 11), beta=1.5, ratio_cap=0.7):
    if len(set(n)) < 2 or min(n) < 2:
        raise ValueError("cw-gap-scaling parameter 'n' needs 2 distinct sizes >= 2")

    def point(size):
        spec = eigendecompose(
            build_glauber_generator(exact_distribution(curie_weiss(size, beta))), 3
        )
        # rates per coordinate update (unit-rate eigenvalues over n). The
        # exact lambda3/n falls like 0.5/n (4.556e-2, 4.324e-3, 4.942e-4
        # at n = 11, 101, 1001), so n3_lambda3 grows like n^2, not flat
        lam2 = float(spec.eigenvalues[1]) / size
        lam3 = float(spec.eigenvalues[2]) / size
        label = f"n={size} beta={beta}"
        return [
            ResultRow("cw-gap-scaling", label, "lambda2", lam2),
            ResultRow("cw-gap-scaling", label, "lambda3", lam3),
            ResultRow("cw-gap-scaling", label, "n3_lambda3", size**3 * lam3),
        ]

    groups = runner.map(point, n)
    rows = _flatten(groups)
    ok = True
    for lo, hi in zip(groups, groups[1:]):
        ratio = hi[0].value / lo[0].value
        rows.append(ResultRow("cw-gap-scaling", hi[0].parameters, "lambda2_ratio", ratio))
        ok &= ratio <= ratio_cap
    cubes = [g[2].value for g in groups]
    ok &= all(v >= 0.9 * cubes[0] for v in cubes)
    return rows, ok


def _exp_langevin_metastability(
    seeds, runner, *, step=1e-3, horizon=10.0, chains=10_000, stationary_samples=500
):
    model = _bimodal_fixture()
    score = exact_score(model)

    def one(seed, mode):
        if mode == "data":
            init = sample_mixture(model, stationary_samples, seed + 11)
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

    modes = ("data", "single")
    groups = runner.map(one, [s for s in seeds for _ in modes], modes * len(seeds))
    fracs = [rows[0].value for rows in groups]
    ok = all(0.45 <= v <= 0.55 for v in fracs[::2]) and all(v >= 0.95 for v in fracs[1::2])
    return _flatten(groups), ok


def _exp_score_robustness(
    seeds, runner, *, eps_sc=(0.0, 0.2, 0.5, 1.0), step=5e-3, horizon=5.0, chains=10_000
):
    if len(eps_sc) < 3 or eps_sc[0] < 0.0 or any(a >= b for a, b in zip(eps_sc, eps_sc[1:])):
        raise ValueError("score-robustness parameter 'eps_sc' needs 3+ increasing values >= 0")
    model = _bimodal_fixture()

    def one(seed, eps):
        score = perturb_score(model, eps, seed=seed + 101)
        tv = _data_started_tv(model, score, seed, step, horizon, chains)
        label = f"seed={seed} eps_sc={eps}"
        return [ResultRow("score-robustness", label, "terminal_tv", tv)]

    width = len(eps_sc)
    groups = runner.map(one, [s for s in seeds for _ in eps_sc], eps_sc * len(seeds))
    rows = _flatten(groups)
    votes = 0
    for i, s in enumerate(seeds):
        tvs = [g[0].value for g in groups[i * width : (i + 1) * width]]
        monotone = all(a < b for a, b in zip(tvs, tvs[1:]))
        # record the shape against the sqrt(T)*eps trend: increments per
        # unit of eps^2 should shrink if degradation is concave in eps^2
        sq = np.diff(tvs) / np.diff(np.square(eps_sc))
        concave = bool(np.all(np.diff(sq) <= 0.0))
        label = f"seed={s}"
        rows.append(ResultRow("score-robustness", label, "monotone", float(monotone)))
        rows.append(ResultRow("score-robustness", label, "concave_in_eps_sq", float(concave)))
        votes += monotone
    return rows, votes * 2 > len(seeds)


def _exp_hs_sandwich(seeds, runner, *, n=(5, 7, 9), beta=1.5, c=2.0):
    def point(size):
        label = f"n={size} beta={beta} c={c}"
        return _hs_certificate("hs-sandwich", label, curie_weiss(size, beta), c)[0]

    groups = runner.map(point, n)
    return _flatten(groups), all(_certified(rows) for rows in groups)


def _exp_learn_ising_e2e(
    seeds, runner, *, n=8, top_eigenvalue=1.5, m_fit=20_000, m_init=2000, horizon=25.0,
    model_seed=4,
):
    truth = low_rank_ising(n, 1, [top_eigenvalue], 0.2, seed=model_seed)
    radius = float(row_norms(truth).max())

    def one(seed):
        report = learn_and_sample(truth, m_fit, m_init, PleConfig(radius=radius, seed=seed), horizon)
        values = (
            ("epsilon_hat", report.fit.epsilon_hat),
            ("terminal_tv", report.tv),
            ("balance", report.balance.value),
            ("converged", float(report.fit.converged)),
        )
        label = f"n={n} m_fit={m_fit} seed={seed}"
        return [ResultRow("learn-ising-e2e", label, name, v) for name, v in values]

    groups = runner.map(one, seeds)
    votes = sum(rows[0].value <= 0.01 and rows[1].value <= 0.15 for rows in groups)
    return _flatten(groups), votes * 2 > len(seeds)


def _exp_potts_gap(seeds, runner, *, n=4, q=3, beta=1.2, c=2.0, component_gap_sample=64):
    if component_gap_sample < 1:
        raise ValueError("potts-gap parameter 'component_gap_sample' must be >= 1")

    def task(size):
        label = f"n={size} q={q} beta={beta}"
        model = mean_field_potts(size, q, beta)
        rows, net, pi, refined = _hs_certificate("potts-gap", label, model, c)
        # eigensolving every component is out of reach; a deterministic
        # stride plus the strongest tilt stands in for the minimum
        stride = max(1, net.count // component_gap_sample)
        picks = sorted(set(range(0, net.count, stride)) | {int(np.argmax(np.linalg.norm(net.fields, axis=1)))})
        gaps = [
            float(eigendecompose(build_glauber_generator(refined[i], q), 2).eigenvalues[1])
            for i in picks
        ]
        k_eff = min(net.count, pi.m - 1)
        spec = eigendecompose(build_glauber_generator(pi, q), k_eff + 1)
        return rows + [
            ResultRow("potts-gap", label, "min_component_gap", min(gaps)),
            ResultRow("potts-gap", label, "mixture_gap", float(spec.eigenvalues[k_eff])),
        ]

    [rows] = runner.map(task, [n])
    min_gap, mixture_gap = rows[5].value, rows[6].value
    return rows, _certified(rows) and mixture_gap >= min_gap * GAP_TRANSFER - 1e-8


def _exp_min_weight_free(
    seeds, runner, *, tiny_weight=1e-4, step=5e-3, horizon=5.0, chains=10_000, shift_cap=0.02
):
    big = 0.5 * (1.0 - tiny_weight)
    eye = np.eye(1)
    model = MixtureModel(
        weights=np.array([big, big, tiny_weight]),
        components=(
            GaussianComponent(np.array([-5.0]), eye),
            GaussianComponent(np.array([5.0]), eye),
            GaussianComponent(np.array([0.0]), eye),
        ),
    )
    kept = frozenset({0, 1})

    def one(seed, dropped):
        score = submixture_score(model, kept) if dropped else exact_score(model)
        tv = _data_started_tv(model, score, seed, step, horizon, chains)
        name = "terminal_tv_dropped" if dropped else "terminal_tv_full"
        return [ResultRow("min-weight-free", f"seed={seed}", name, tv)]

    drops = (False, True)
    groups = runner.map(one, [s for s in seeds for _ in drops], drops * len(seeds))
    rows = _flatten(groups)
    err = submixture_score_error(model, kept, sample_mixture(model, 4000, seeds[0] + 23))
    rows.append(ResultRow("min-weight-free", rows[0].parameters, "dropped_score_error", err))
    ok = True
    for [full], [dropped] in zip(groups[::2], groups[1::2]):
        shift = abs(full.value - dropped.value)
        rows.append(ResultRow("min-weight-free", full.parameters, "tv_shift", shift))
        ok &= shift <= shift_cap
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

# Each experiment's parameters are the keyword-only arguments of its function,
# with their defaults; any other key is rejected so a misspelt override cannot
# silently fall back to the default.
PARAMETERS = {
    name: {
        p.name: p.default
        for p in inspect.signature(fn).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    }
    for name, fn in CATALOG.items()
}


# ---------------------------------------------------------------------------
# config handling and the runner


def _check_rule(rule: dict) -> None:
    """A `require` rule names a metric and may add a `parameters` label and
    numeric `min`/`max` bounds; any other key is refused, not ignored."""
    if not isinstance(rule.get("metric"), str):
        raise ParseError(f"require rule {rule!r} names no 'metric'")
    _check_keys(rule, {"metric", "parameters", "min", "max"}, f"require rule {rule!r}")
    for key in ("min", "max"):
        if key in rule and (type(rule[key]) not in (int, float) or math.isnan(rule[key])):
            raise ParseError(f"require rule {rule!r}: {key!r} must be a number")


def _check_keys(obj: dict, known: set, where: str) -> None:
    """Refuse a key outside `known`: a misspelt key would otherwise be
    dropped and the run go on with the defaults."""
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ParseError(
            f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; known: {sorted(known)}"
        )


def _parse_config(text: str) -> tuple[list[ExperimentConfig], str]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "experiments" not in raw:
        raise ParseError("config must be an object with an 'experiments' list")
    _check_keys(raw, {"out", "experiments"}, "config")
    if not isinstance(raw["experiments"], list):
        raise ParseError("'experiments' must be a list")
    out = raw.get("out", "results.csv")
    if not isinstance(out, str):
        raise ParseError("'out' must be a path string")
    configs = []
    for entry in raw["experiments"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ParseError("each experiment needs at least a 'name'")
        _check_keys(entry, {"name", "seeds", "params", "require"}, f"experiment {entry['name']!r}")
        seeds = entry.get("seeds", [])
        if not isinstance(seeds, list) or not all(type(s) is int for s in seeds):
            raise ParseError("experiment seeds must be a list of integers")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("experiment params must be an object")
        require = entry.get("require", [])
        if not isinstance(require, list) or not all(isinstance(r, dict) for r in require):
            raise ParseError("'require' must be a list of objects")
        for rule in require:
            _check_rule(rule)
        configs.append(ExperimentConfig(entry["name"], tuple(seeds), params, tuple(require)))
    return configs, out


def _check_requirements(rows, require) -> bool:
    """Each rule matches at least one row, and every value it matches lies
    within its bounds."""
    ok = True
    for rule in require:
        lo, hi = rule.get("min", -math.inf), rule.get("max", math.inf)
        matched = [
            r.value
            for r in rows
            if r.metric == rule["metric"] and rule.get("parameters", r.parameters) == r.parameters
        ]
        ok &= bool(matched) and all(lo <= v <= hi for v in matched)
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
        numbers = (r.value, r.stderr, r.runtime_seconds)
        writer.writerow([r.experiment, r.parameters, r.metric, *(repr(float(v)) for v in numbers)])
    return buf.getvalue()


def run(
    config_path,
    *,
    threads: int = 4,
    timings: bool = False,
    out_override: str | None = None,
) -> int:
    """Execute every experiment in the config; write CSV and JSON summary.
    Returns 0 if every acceptance predicate held, 1 otherwise.

    `threads` workers share the sweep points. Results are ordered by
    (experiment position, sweep position) regardless of scheduling. A bad
    config or path raises ParseError or OSError, a state space over a cap
    CapacityError, and fewer than one thread ValueError; none of them leaves
    a file behind.
    """
    if threads < 1:
        raise ValueError(f"need at least one worker thread, got {threads}")
    path = Path(config_path)
    configs, out = _parse_config(path.read_text())
    # paths declared inside the config (`out`, a `model` file) resolve next
    # to the config
    out_path = Path(out_override) if out_override is not None else path.parent / out
    summary_path = out_path.with_suffix(".json")
    if path.resolve() in (out_path.resolve(), summary_path.resolve()):
        raise ParseError(f"results would overwrite the config {path}")

    all_rows: list[ResultRow] = []
    summary = []
    overall = True
    with ThreadPoolExecutor(max_workers=threads) as pool:
        runner = _Runner(pool, timings)
        for cfg in configs:
            params = cfg.params
            if isinstance(params.get("model"), str):
                params = {**params, "model": str(path.parent / params["model"])}
            rows, passed = CATALOG[cfg.name](list(cfg.seeds), runner, **params)
            passed &= _check_requirements(rows, cfg.require)
            all_rows.extend(rows)
            summary.append({"name": cfg.name, "passed": bool(passed)})
            overall &= passed

    _atomic_write(out_path, _render_csv(all_rows))
    digest = {"passed": bool(overall), "experiments": summary}
    _atomic_write(summary_path, json.dumps(digest, sort_keys=True, indent=2) + "\n")
    return 0 if overall else 1
