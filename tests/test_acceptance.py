"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins the fixture, the tolerance, and a wall-clock budget. The
conftest hook turns the outcomes into a PASS/FAIL line per criterion at the
end of the run. Heavier Monte Carlo settings live here on purpose: these are
the desk-scale replications, not unit tests.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.special import binom

from multimix.experiments import run as run_experiments
from multimix.ising import (
    IsingModel,
    curie_weiss,
    empirical_distribution,
    exact_distribution,
    low_rank_ising,
    sample_exact,
    states_matrix,
)
from multimix.langevin import (
    GaussianComponent,
    LmcConfig,
    MixtureModel,
    exact_score,
    lmc_run,
    sample_mixture,
)
from multimix.measures import FiniteDistribution, tv_distance
from multimix.ple import (
    PleConfig,
    conditional_kl_diagnostic,
    learn_and_sample,
    row_norms,
    trajectory_kl,
)
from multimix.rng import make_rng
from multimix.spectral import (
    balance_statistic,
    build_glauber_generator,
    chi2_trajectory,
    eigendecompose,
    evolve_distribution,
    verify_balance_contraction,
)


class Budget:
    """Asserts the body finished inside the declared wall-clock budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"ran {elapsed:.1f}s, budget {self.seconds:.0f}s"
            )
        return False


def random_ising(rng, n: int) -> IsingModel:
    J = rng.normal(0.0, 0.4 / math.sqrt(n), (n, n))
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    return IsingModel(J, rng.normal(0.0, 0.25, n))


def bimodal_line() -> MixtureModel:
    eye = np.eye(1)
    return MixtureModel(
        weights=np.array([0.5, 0.5]),
        components=(
            GaussianComponent(np.array([-5.0]), eye),
            GaussianComponent(np.array([5.0]), eye),
        ),
    )


def run_config(tmp_path, experiments):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "rows.csv", "experiments": experiments}))
    code = run_experiments(cfg)
    rows = {}
    for line in (tmp_path / "rows.csv").read_text().splitlines()[1:]:
        exp, params, metric, value, _, _ = line.split(",")
        rows[(params, metric)] = float(value)
    return code, rows


def test_c01_product_measure_spectrum():
    with Budget(5):
        for n in range(1, 9):
            spec = eigendecompose(
                build_glauber_generator(FiniteDistribution.uniform(1 << n))
            )
            expected = np.repeat(
                np.arange(n + 1.0), [int(binom(n, j)) for j in range(n + 1)]
            )
            assert np.abs(spec.eigenvalues - expected).max() <= 1e-8


def test_c02_trajectory_matches_expm_and_bound_holds():
    with Budget(60):
        rng = make_rng(99, "default")
        times = [0.5, 1.0, 2.0, 5.0]
        for trial in range(20):
            model = random_ising(rng, 8)
            pi = exact_distribution(model)
            gen = build_glauber_generator(pi)
            spec = eigendecompose(gen)
            mu0 = empirical_distribution(sample_exact(model, 50, 5000 + trial), 8)
            traj = chi2_trajectory(spec, mu0, times)
            L = gen.rate_matrix()
            for t, val in zip(times, traj):
                mut = scipy.linalg.expm(t * L.T) @ mu0.probs
                ratio = mut / pi.probs - 1.0
                oracle = float(np.sum(ratio * ratio * pi.probs))
                assert val == pytest.approx(oracle, abs=1e-7)
            report = verify_balance_contraction(spec, mu0, 2, times)
            assert report.holds


def test_c03_mixture_gap_dominates_component_gaps():
    def product_measure(p):
        up = (states_matrix(p.size) + 1) / 2
        return FiniteDistribution(np.prod(np.where(up > 0.5, p, 1 - p), axis=1))

    with Budget(120):
        rng = make_rng(314, "default")
        for trial in range(20):
            k = 2 if trial < 10 else 3
            w = rng.dirichlet(np.ones(k))
            comps = [product_measure(rng.uniform(0.15, 0.85, 8)) for _ in range(k)]
            mix = FiniteDistribution(
                sum(wi * c.probs for wi, c in zip(w, comps))
            )
            lam_mix = eigendecompose(build_glauber_generator(mix)).eigenvalues[k]
            lam_comp = min(
                eigendecompose(build_glauber_generator(c)).eigenvalues[1]
                for c in comps
            )
            assert lam_mix >= lam_comp - 1e-8


def test_c04_balance_concentration_slope(tmp_path):
    with Budget(120):
        code, rows = run_config(
            tmp_path, [{"name": "balance-concentration", "seeds": [0], "params": {}}]
        )
        assert code == 0
        slope = rows[("n=8 k=4", "loglog_slope")]
        assert -0.65 <= slope <= -0.35
        for small, large in ((50, 200), (200, 800), (800, 3200)):
            assert (
                rows[(f"n=8 k=4 m={small}", "median_balance")]
                > rows[(f"n=8 k=4 m={large}", "median_balance")]
            )


def test_c05_metastability_contrast():
    with Budget(60):
        model = bimodal_line()
        score = exact_score(model)
        cfg = LmcConfig(step=1e-3, horizon=10.0, seed=0, chains=10_000)
        pool = sample_mixture(model, 500, 11)
        res = lmc_run(pool, score, cfg)
        frac = float(np.mean(res.samples.data[:, 0] > 0.0))
        assert 0.45 <= frac <= 0.55
        res = lmc_run(np.array([[-5.0]]), score, cfg)
        stay = float(np.mean(res.samples.data[:, 0] < 0.0))
        assert stay >= 0.95


def test_c06_score_robustness_monotone(tmp_path):
    with Budget(180):
        code, rows = run_config(
            tmp_path,
            [{"name": "score-robustness", "seeds": [0, 1, 2], "params": {}}],
        )
        assert code == 0
        votes = sum(rows[(f"seed={s}", "monotone")] == 1.0 for s in (0, 1, 2))
        assert votes >= 2
        # the clean-score baseline itself must be accurate
        for s in (0, 1, 2):
            assert rows[(f"seed={s} eps_sc=0.0", "terminal_tv")] < 0.1


def test_c07_sandwich_certificate_and_refinement(tmp_path):
    with Budget(300):
        code, rows = run_config(
            tmp_path, [{"name": "hs-sandwich", "seeds": [0], "params": {"n": [5, 7, 9]}}]
        )
        assert code == 0
        for n in (5, 7, 9):
            label = f"n={n} beta=1.5 c=2.0"
            assert rows[(label, "passed")] == 1.0
            assert rows[(label, "refine_error")] <= 1e-10
            assert math.exp(-3) <= rows[(label, "min_ratio")]
            assert rows[(label, "max_ratio")] <= math.exp(3)


def test_c08_curie_weiss_gap_scaling():
    with Budget(600):
        beta = 1.5
        lam2, lam3 = {}, {}
        for n in (5, 7, 9, 11):
            spec = eigendecompose(
                build_glauber_generator(exact_distribution(curie_weiss(n, beta)))
            )
            # per-update clock: one time unit is one coordinate refresh
            lam2[n] = float(spec.eigenvalues[1]) / n
            lam3[n] = float(spec.eigenvalues[2]) / n
        for a, b in ((5, 7), (7, 9), (9, 11)):
            assert lam2[b] / lam2[a] <= 0.7
        cubes = [n**3 * lam3[n] for n in (5, 7, 9, 11)]
        assert all(v >= 0.9 * cubes[0] for v in cubes)


def test_c09_symmetric_two_point_initialization():
    with Budget(120):
        n = 9
        pi = exact_distribution(curie_weiss(n, 1.5))
        gen = build_glauber_generator(pi)
        spec = eigendecompose(gen)
        probs = np.zeros(1 << n)
        probs[0] = 0.5
        probs[-1] = 0.5
        mu0 = FiniteDistribution(probs)
        assert balance_statistic(spec, mu0, 2).value <= 1e-8
        t_mix = math.log((1 << n) / 0.05) / float(spec.eigenvalues[2])
        assert tv_distance(evolve_distribution(gen, mu0, t_mix), pi) <= 0.05


def test_c10_learning_pipeline_majority():
    with Budget(300):
        truth = low_rank_ising(8, 1, [1.5], 0.2, seed=4)
        radius = float(row_norms(truth).max())
        votes = 0
        for seed in (0, 1, 2):
            report = learn_and_sample(
                truth, 20_000, 2000, PleConfig(radius=radius, seed=seed), 25.0
            )
            assert report.exact
            votes += report.fit.epsilon_hat <= 0.01 and report.tv <= 0.15
        assert votes >= 2


def test_c11_trajectory_kl_transfer():
    def population_eps(truth, fitted):
        # enumeration of the stationary conditional KL, no sampling
        S = states_matrix(truth.n)
        w = exact_distribution(truth).probs
        return float(w @ [conditional_kl_diagnostic(truth, fitted, x[None, :]) for x in S])

    with Budget(60):
        for s in range(20):
            rng = make_rng(4000 + s, "default")
            truth = random_ising(rng, 5)
            dJ = rng.normal(0.0, 0.1 / math.sqrt(5), (5, 5))
            dJ = 0.5 * (dJ + dJ.T)
            np.fill_diagonal(dJ, 0.0)
            fitted = IsingModel(truth.J + dJ, truth.b + rng.normal(0.0, 0.1, 5))
            eps = population_eps(truth, fitted)
            for t in (1, 2, 3):
                assert trajectory_kl(truth, fitted, t) <= t * eps * 1.2 + 1e-12


def test_c12_score_moment_and_hessian_sandwich():
    with Budget(60):
        rng = make_rng(2718, "default")
        for trial in range(10):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            comps = []
            for _ in range(k):
                A = rng.normal(0.0, 1.0, (d, d))
                comps.append(
                    GaussianComponent(rng.normal(0.0, 3.0, d), A @ A.T + 0.5 * np.eye(d))
                )
            model = MixtureModel(
                weights=rng.dirichlet(np.ones(k)), components=tuple(comps)
            )
            beta = max(
                np.linalg.eigvalsh(np.linalg.inv(c.cov)).max() for c in comps
            )

            X = sample_mixture(model, 4000, 1000 + trial).data
            g2 = np.sum(model.score(X) ** 2, axis=1)
            sigma = g2.std(ddof=1) / math.sqrt(g2.size)
            assert g2.mean() <= beta * d + 3 * sigma

            pts = X[:100]
            h = 1e-5
            H = np.zeros((100, d, d))
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                H[:, :, j] = -(
                    model.score(pts + e) - model.score(pts - e)
                ) / (2 * h)
            H = 0.5 * (H + np.transpose(H, (0, 2, 1)))
            grads = np.zeros(100)
            for c in comps:
                grads = np.maximum(
                    grads,
                    np.linalg.norm(np.linalg.solve(c.cov, (pts - c.mean).T).T, axis=1),
                )
            ev = np.linalg.eigvalsh(H)
            assert ev[:, -1].max() <= beta + 1e-3
            assert np.all(ev[:, 0] >= -(beta + grads**2) - 1e-3)
