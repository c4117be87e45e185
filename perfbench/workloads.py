"""The four benchmark workloads.

Each workload builds its fixed models once (``build``) and then runs ops.
An op is one user-level call sequence over the same fixed list of cases, so
every op costs about the same and a run's median and tail are not set by
which case happened to land where. Op ``i`` draws its inputs (data seeds,
inverse temperatures) from ``numpy.random.default_rng([seed, i])``; the
library only ever sees those generated inputs.

An op returns an ``OpResult``: the arrays it produced (hashed to compare a
traced run with an untraced one), its distance from the exact target, and
the correctness checks it broke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

import multimix as mm


@dataclass
class OpResult:
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _seed(rng) -> int:
    return int(rng.integers(2**31))


# Fixed models do not depend on the workload seed: the seed varies the data
# (and, for potts-refine, the inverse temperatures), so run-to-run spread
# comes from inputs, not from which random model a run happened to draw.
MODEL_SEED = 4


# ---------------------------------------------------------------------------
# certify-spectral: exact certificate of a data-started chain


CERT_N = 9
CERT_DATA = 2000
# At horizon 25 only the slowest mode is left, so the TV to pi is one
# half-normal coordinate of the data (CV ~0.7 per target) and a run's mean
# spreads ~14% from seed to seed. At horizon 1 many modes share it (CV
# ~0.2). The contraction envelope is still checked out to 25.
CERT_HORIZON = 1.0
CERT_BOTTOM = 5
CERT_TIMES = (0.0, 1.0, 5.0, 25.0)


def certify_build(seed):
    return {
        "cw": mm.curie_weiss(CERT_N, 1.5),
        "low_rank": mm.low_rank_ising(CERT_N, 2, [1.5, 1.3], 0.2, seed=MODEL_SEED),
    }


def _certify_target(model, rng, res):
    n = model.n
    pi = mm.exact_distribution(model)
    X = mm.sample_exact(model, CERT_DATA, _seed(rng))
    mu0 = mm.empirical_distribution(X, n)
    gen = mm.build_glauber_generator(pi)
    spec = mm.eigendecompose(gen, CERT_BOTTOM)
    bal = mm.balance_statistic(spec, mm.SampleSet(X), 2)
    lam3 = mm.higher_order_gap(spec, 2)
    mu_t = mm.evolve_distribution(gen, mu0, CERT_HORIZON)
    res.errors.append(mm.tv_distance(mu_t, pi))
    chi_t = mm.chi2_divergence(mu_t, pi)
    chi_0 = mm.chi2_divergence(mu0, pi)
    envelope = bal.value**2 + math.exp(-lam3 * CERT_HORIZON) * chi_0 + 1e-9
    res.check(chi_t <= envelope, f"chi2(mu_T) {chi_t!r} above envelope {envelope!r}")
    full = mm.eigendecompose(gen)
    traj = mm.chi2_trajectory(full, mu0, [CERT_HORIZON])
    res.check(
        abs(traj[0] - chi_t) <= 1e-7,
        f"chi2_trajectory {traj[0]!r} differs from chi2_divergence {chi_t!r}",
    )
    report = mm.verify_balance_contraction(full, mu0, 2, CERT_TIMES)
    res.check(report.holds, "verify_balance_contraction does not hold")
    res.outputs += [pi.probs, mu_t.probs, spec.eigenvalues, bal.coefficients,
                    full.eigenvalues, traj, report.bound]


def certify_op(fixed, rng):
    res = OpResult()
    _certify_target(fixed["cw"], rng, res)
    _certify_target(fixed["low_rank"], rng, res)
    return res


# ---------------------------------------------------------------------------
# learn-sample: PLE fit, then certified terminal error


LEARN_N = 8
LEARN_FIT = 1000
LEARN_INIT = 2000
LEARN_HORIZON = 25.0


def learn_build(seed):
    # rank 1 with model seed 4 is the c10 acceptance fixture
    return {
        "truths": [
            mm.low_rank_ising(LEARN_N, rank, top, 0.2, seed=MODEL_SEED)
            for rank, top in ((1, [1.5]), (2, [1.5, 1.3]))
        ]
    }


def learn_op(fixed, rng):
    res = OpResult()
    for truth in fixed["truths"]:
        radius = float(mm.ple.row_norms(truth).max())
        cfg = mm.PleConfig(radius=radius, seed=_seed(rng))
        report = mm.learn_and_sample(truth, LEARN_FIT, LEARN_INIT, cfg, LEARN_HORIZON)
        res.errors.append(report.tv)
        res.check(report.exact, "certificate is not exact")
        bound = LEARN_N * math.log(2.0)
        res.check(report.fit.objective <= bound,
                  f"objective {report.fit.objective!r} above n log 2")
        res.outputs += [report.fit.model.J, report.fit.model.b, report.fit.objective,
                        report.fit.iterations, report.tv, report.balance.coefficients]
    return res


# ---------------------------------------------------------------------------
# samplers: data-started LMC and Glauber ensembles


# The right-mode fraction of the exact bimodal run must land in [0.45, 0.55].
# With 4000 stationary draws and 4000 chains its standard deviation is 0.011,
# so the interval is a 4.5-sigma check; with the 500 draws of the acceptance
# suite it would be a 2-sigma one that fails on a few percent of seeds.
CHECKED_CHAINS = 4000
LMC_CHAINS = 2000
LMC_POOL = 4000
LMC_STEP = 5e-3
LMC_STEPS = 100
LMC_EPSILONS = (0.2, 0.5, 1.0)
GLAUBER_SIZES = (12, 14)
GLAUBER_REPLICAS = 5000
GLAUBER_HORIZON = 10.0
BINS = np.linspace(-9.0, 9.0, 61)


def samplers_build(seed):
    eye = np.eye(1)
    tiny = 1e-4
    big = 0.5 * (1.0 - tiny)
    line = [mm.GaussianComponent([-5.0], eye), mm.GaussianComponent([5.0], eye)]
    corners = [(-4.0, -4.0), (-4.0, 4.0), (4.0, -4.0), (4.0, 4.0)]
    return {
        "bimodal": mm.MixtureModel([0.5, 0.5], line),
        "min_weight": mm.MixtureModel(
            [big, big, tiny], [*line, mm.GaussianComponent([0.0], eye)]
        ),
        "plane": mm.MixtureModel(
            [0.25] * 4, [mm.GaussianComponent(c, np.eye(2)) for c in corners]
        ),
        "glauber": [mm.curie_weiss(n, 1.5) for n in GLAUBER_SIZES],
    }


def projection_tv(samples: np.ndarray, model) -> float:
    """TV between the histogram of the first coordinate and the exact
    first-coordinate marginal of a Gaussian mixture, on fixed bins whose
    outer cells absorb the tails."""
    x = samples[:, 0]
    counts = np.bincount(np.searchsorted(BINS, x, side="right"), minlength=BINS.size + 1)
    exact = np.zeros(BINS.size + 1)
    for w, comp in zip(model.weights, model.components):
        cdf = ndtr((BINS - comp.mean[0]) / math.sqrt(comp.cov[0, 0]))
        exact += w * np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    return 0.5 * float(np.abs(counts / x.size - exact).sum())


def _lmc(res, model, pool, score, seed, chains=LMC_CHAINS):
    cfg = mm.LmcConfig(step=LMC_STEP, horizon=LMC_STEP * LMC_STEPS, seed=seed,
                       chains=chains)
    out = mm.lmc_run(pool, score, cfg)
    x = out.samples.data
    res.check(bool(np.isfinite(x).all()), f"{score.kind} LMC left non-finite states")
    res.check(not out.flagged.any(), f"{score.kind} LMC flagged {int(out.flagged.sum())} chains")
    res.errors.append(projection_tv(x, model))
    res.outputs += [x, out.flagged]
    return x


def samplers_op(fixed, rng):
    res = OpResult()
    bimodal = fixed["bimodal"]
    pool = mm.sample_mixture(bimodal, LMC_POOL, _seed(rng))
    x = _lmc(res, bimodal, pool, mm.exact_score(bimodal), _seed(rng), CHECKED_CHAINS)
    right = float(np.mean(x[:, 0] > 0.0))
    res.check(0.45 <= right <= 0.55, f"right-mode fraction {right!r} outside [0.45, 0.55]")
    for eps in LMC_EPSILONS:
        score = mm.perturb_score(bimodal, eps, seed=_seed(rng))
        _lmc(res, bimodal, pool, score, _seed(rng))
    min_weight = fixed["min_weight"]
    _lmc(res, min_weight, mm.sample_mixture(min_weight, LMC_POOL, _seed(rng)),
         mm.submixture_score(min_weight, {0, 1}), _seed(rng))
    plane = fixed["plane"]
    _lmc(res, plane, mm.sample_mixture(plane, LMC_POOL, _seed(rng)),
         mm.exact_score(plane), _seed(rng))
    for model in fixed["glauber"]:
        X0 = mm.sample_exact(model, GLAUBER_REPLICAS, _seed(rng))
        X = mm.glauber_ensemble_continuous(model, X0, GLAUBER_HORIZON, _seed(rng))
        res.check(bool(np.all(np.abs(X) == 1.0)), "Glauber output is not +-1")
        emp = mm.empirical_distribution(X, model.n)
        res.errors.append(mm.tv_distance(emp, mm.exact_distribution(model)))
        res.outputs.append(X)
    return res


# ---------------------------------------------------------------------------
# potts-refine: Hubbard-Stratonovich mixture, sandwich, exact refinement


POTTS = (4, 3)  # sites, colors
POTTS_MESH = 0.75
HS_C = 2.0
CW_SIZES = (9, 11)
GAP_COMPONENTS = 16


def potts_build(seed):
    return {}


def _hs_pipeline(model, n, mesh, res):
    split = mm.split_spectrum(model, HS_C)
    net = mm.build_field_net(split, 1.0, n, mesh)
    pi = mm.exact_distribution(model)
    pi2, components = mm.mixture_density(net, split, model)
    cert = mm.certify_sandwich(pi, pi2)
    res.check(cert.passed, f"sandwich fails: ratios [{cert.min_ratio!r}, {cert.max_ratio!r}]")
    res.errors.append(max(abs(math.log(cert.min_ratio)), abs(math.log(cert.max_ratio))))
    if not isinstance(model, mm.PottsModel):
        components = [mm.exact_distribution(c) for c in components]
    weights, refined = mm.exact_mixture_refinement(pi, net.weights, components)
    res.outputs += [pi2.probs, weights, np.stack([d.probs for d in refined])]
    return components


def potts_op(fixed, rng):
    res = OpResult()
    sites, colors = POTTS
    potts = mm.mean_field_potts(sites, colors, float(rng.uniform(1.15, 1.25)))
    _hs_pipeline(potts, sites, POTTS_MESH, res)
    for n in CW_SIZES:
        model = mm.curie_weiss(n, float(rng.uniform(1.45, 1.55)))
        components = _hs_pipeline(model, n, None, res)
        if n == CW_SIZES[0]:
            picks = np.linspace(0, len(components) - 1, GAP_COMPONENTS).round().astype(int)
            gaps = [
                mm.higher_order_gap(
                    mm.eigendecompose(mm.build_glauber_generator(components[i]), 3), 2
                )
                for i in picks
            ]
            res.outputs.append(np.array(gaps))
    return res


WORKLOADS = {
    "certify-spectral": (certify_build, certify_op),
    "learn-sample": (learn_build, learn_op),
    "samplers": (samplers_build, samplers_op),
    "potts-refine": (potts_build, potts_op),
}
