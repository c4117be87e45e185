from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp, softmax

from multimix import ParseError, SampleSet, empirical_tv_continuous, langevin
from multimix.langevin import (
    DIVERGENCE_GUARD,
    GaussianComponent,
    LmcConfig,
    MixtureModel,
    ScoreField,
    dump_mixture,
    exact_score,
    lmc_run,
    load_mixture,
    perturb_score,
    sample_mixture,
    submixture,
    submixture_score,
    submixture_score_error,
)
from multimix.rng import make_rng


def three_component_model() -> MixtureModel:
    return MixtureModel(
        [0.5, 0.3, 0.2],
        [
            GaussianComponent([0.0, 0.0], np.eye(2)),
            GaussianComponent([3.0, -1.0], [[1.5, 0.4], [0.4, 0.9]]),
            GaussianComponent([-2.0, 2.5], [[0.8, -0.2], [-0.2, 1.2]]),
        ],
    )


def test_component_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianComponent([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        GaussianComponent([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    for mean in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            GaussianComponent([mean], [[1.0]])


def test_mixture_validation():
    g = GaussianComponent([0.0], [[1.0]])
    with pytest.raises(ValueError, match="sum to one"):
        MixtureModel([0.5, 0.4], [g, g])
    with pytest.raises(ValueError, match="positive"):
        MixtureModel([1.2, -0.2], [g, g])
    with pytest.raises(ValueError, match="positive"):
        MixtureModel([math.nan, math.nan], [g, g])
    # the separation scale is the largest distance between means
    far = GaussianComponent([4.0], [[1.0]])
    assert MixtureModel([0.4, 0.3, 0.3], [g, far, g]).separation == 4.0


def test_gaussian_regularity_numbers():
    c = GaussianComponent([0.0, 0.0], [[2.0, 0.0], [0.0, 0.5]])
    assert c.beta == pytest.approx(2.0, rel=1e-12)
    assert c.alpha == pytest.approx(0.5, rel=1e-12)
    m = MixtureModel([1.0], [c])
    assert (m.beta, m.alpha, m.separation) == (c.beta, c.alpha, 0.0)


@pytest.mark.parametrize(
    "mean, cov",
    [
        ([0.5], [[2.0]]),
        ([1.0, -2.0], [[1.4, 0.3], [0.3, 0.9]]),
        ([0.0, 1.0, -1.0], [[2.0, 0.4, -0.3], [0.4, 1.1, 0.2], [-0.3, 0.2, 0.7]]),
    ],
    ids=["d1", "d2", "d3"],
)
def test_gaussian_sample_bytes_match_the_matmul_form(mean, cov):
    # sample() takes np.dot for speed; seeded draws must stay the bytes the
    # matmul form mean + z @ L' gives
    c = GaussianComponent(mean, cov)
    for seed, count in [(0, 1), (1, 7), (2, 10_000)]:
        z = make_rng(seed).standard_normal((count, c.dim))
        expected = c.mean + z @ np.linalg.cholesky(np.asarray(cov)).T
        assert c.sample(make_rng(seed), count).tobytes() == expected.tobytes()


def test_score_single_gaussian_is_minus_x():
    m = MixtureModel([1.0], [GaussianComponent([0.0, 0.0], np.eye(2))])
    x = np.array([0.7, -1.9])
    assert np.array_equal(m.score(x), -x)


def test_score_vanishes_at_symmetry_point():
    m = MixtureModel(
        [0.5, 0.5],
        [GaussianComponent([-2.0, 1.0], np.eye(2)), GaussianComponent([2.0, -1.0], np.eye(2))],
    )
    assert np.abs(m.score(np.zeros(2))).max() <= 1e-14


def test_score_matches_finite_differences():
    m = three_component_model()
    rng = make_rng(21)
    h = 1e-5
    for _ in range(100):
        x = rng.normal(0.0, 2.0, 2)
        s = m.score(x)
        fd = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[j] = (m.log_density(x + e) - m.log_density(x - e)) / (2.0 * h)
        assert np.abs(fd - s).max() <= 1e-5 * max(1.0, np.abs(s).max())


def test_score_rejects_non_finite_points():
    m = three_component_model()
    with pytest.raises(ValueError, match="finite"):
        m.score(np.array([np.nan, 0.0]))


def test_stationary_gradient_second_moment_bound():
    m = MixtureModel(
        [0.6, 0.4],
        [GaussianComponent([0.0, 0.0], np.eye(2)), GaussianComponent([4.0, 0.0], 0.5 * np.eye(2))],
    )
    X = sample_mixture(m, 100_000, seed=71).data
    sq = np.einsum("nd,nd->n", m.score(X), m.score(X))
    rel_sigma = sq.std() / math.sqrt(sq.size) / (m.beta * m.d)
    assert sq.mean() <= m.beta * m.d * (1.0 + 3.0 * rel_sigma)


def test_componentwise_concentration():
    comps = [
        GaussianComponent([1.0, -2.0], [[1.4, 0.3], [0.3, 0.9]]),
        GaussianComponent([0.0, 0.0], np.eye(2)),
    ]
    rng = make_rng(72)
    for c in comps:
        X = c.sample(rng, 100_000)
        dist = np.linalg.norm(X - c.mean, axis=1)
        for u in (1.0, 2.0, 4.0):
            radius = (math.sqrt(2.0) + u) / math.sqrt(c.alpha)
            frac = (dist >= radius).mean()
            bound = 3.0 * math.exp(-u)
            assert frac <= bound + 3.0 * math.sqrt(frac * (1.0 - frac) / X.shape[0]) + 1e-9


def test_hessian_sandwich():
    m = three_component_model()
    rng = make_rng(73)
    h = 1e-4
    for _ in range(20):
        x = rng.normal(0.0, 2.0, 2)
        jac = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            jac[:, j] = (m.score(x + e) - m.score(x - e)) / (2.0 * h)
        hess = -0.5 * (jac + jac.T)
        w = np.linalg.eigvalsh(hess)
        envelope = m.max_gradient(x)
        assert w[-1] <= m.beta + 1e-3
        assert w[0] >= -(m.beta + envelope**2) - 1e-3


def test_perturb_score_zero_is_exact():
    m = three_component_model()
    field = perturb_score(m, 0.0, seed=2)
    assert field.kind == "exact"
    x = np.array([0.4, -0.2])
    assert np.array_equal(field.evaluate(x), m.score(x))


def test_perturb_score_measured_error():
    m = MixtureModel([1.0], [GaussianComponent([0.0], [[1.0]])])
    X = m.sample(100_000, make_rng(33))

    def held_out_error(eps):
        shift = perturb_score(m, eps, seed=3).evaluate(X) - m.score(X)
        return math.sqrt(np.mean(np.einsum("nd,nd->n", shift, shift)))

    field = perturb_score(m, 0.3, seed=3)
    assert field.kind == "perturbed" and field.epsilon == 0.3
    assert 0.285 <= held_out_error(0.3) <= 0.315
    # same seed, same field: the held-out error is exactly linear in epsilon
    ratios = [held_out_error(e) / e for e in (0.1, 0.2, 0.4)]
    assert max(ratios) - min(ratios) <= 1e-10


def test_perturb_score_rejects_degenerate_noise(monkeypatch):
    m = MixtureModel([1.0], [GaussianComponent([0.0], [[1.0]])])
    monkeypatch.setattr(langevin, "_mean_square", lambda model, omegas, phases, mix: 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        perturb_score(m, 0.2, seed=4)
    for eps in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            perturb_score(m, eps, seed=4)


def test_lmc_config_validation():
    with pytest.raises(ValueError, match="positive"):
        LmcConfig(step=0.0, horizon=1.0, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        LmcConfig(step=0.1, horizon=-1.0, seed=0)
    with pytest.raises(ValueError, match="integer number"):
        LmcConfig(step=0.3, horizon=1.0, seed=0)
    with pytest.raises(ValueError, match="chain"):
        LmcConfig(step=0.1, horizon=1.0, seed=0, chains=0)
    # an infinite step would round to zero steps and run nothing
    # and a subnormal one overflows the step count
    for step, horizon in [(math.inf, 5.0), (0.1, math.inf), (5e-324, 1.0)]:
        with pytest.raises(ValueError, match="finite"):
            LmcConfig(step=step, horizon=horizon, seed=0)
    assert LmcConfig(step=0.25, horizon=1.0, seed=0).steps == 4
    assert LmcConfig(step=0.1, horizon=0.0, seed=0).steps == 0


def test_lmc_zero_horizon_returns_initialization():
    m = MixtureModel([1.0], [GaussianComponent([0.0, 0.0], np.eye(2))])
    point = np.array([1.5, -0.5])
    res = lmc_run(point, exact_score(m), LmcConfig(step=0.1, horizon=0.0, seed=5, chains=7))
    assert np.array_equal(res.samples.data, np.tile(point, (7, 1)))
    assert not res.flagged.any()
    pool = SampleSet(np.arange(10.0)[:, None])
    res = lmc_run(pool, exact_score(m), LmcConfig(step=0.1, horizon=0.0, seed=5, chains=64))
    assert set(res.samples.data[:, 0]) <= set(pool.data[:, 0])


def test_lmc_reads_a_2d_array_as_the_pool():
    # an (N, d) array is N starting points, not one point of dimension N*d
    m = three_component_model()
    rows = sample_mixture(m, 50, seed=8).data
    cfg = LmcConfig(step=0.05, horizon=1.0, seed=6, chains=40)
    from_set = lmc_run(SampleSet(rows), exact_score(m), cfg)
    from_array = lmc_run(np.array(rows), exact_score(m), cfg)
    assert from_array.samples.data.tobytes() == from_set.samples.data.tobytes()
    assert np.array_equal(from_array.flagged, from_set.flagged)
    with pytest.raises(ValueError, match="nonempty"):
        lmc_run(np.empty((0, 2)), exact_score(m), cfg)
    with pytest.raises(ValueError, match="point"):
        lmc_run(np.zeros((2, 3, 2)), exact_score(m), cfg)


def test_lmc_standard_gaussian_moments():
    m = MixtureModel([1.0], [GaussianComponent([0.0, 0.0], np.eye(2))])
    cfg = LmcConfig(step=1e-3, horizon=10.0, seed=17, chains=10_000)
    res = lmc_run(np.zeros(2), exact_score(m), cfg)
    X = res.samples.data
    assert not res.flagged.any()
    assert np.linalg.norm(X.mean(axis=0)) <= 0.05
    assert np.all(X.var(axis=0) >= 0.9) and np.all(X.var(axis=0) <= 1.1)


def test_lmc_bimodal_data_init_vs_single_mode():
    m = MixtureModel(
        [0.5, 0.5],
        [GaussianComponent([-5.0], [[1.0]]), GaussianComponent([5.0], [[1.0]])],
    )
    cfg = LmcConfig(step=5e-3, horizon=5.0, seed=29, chains=2000)
    init = sample_mixture(m, 500, seed=23)
    balanced = lmc_run(init, exact_score(m), cfg)
    frac = (balanced.samples.data[:, 0] > 0).mean()
    assert 0.45 <= frac <= 0.55
    stuck = lmc_run(np.array([5.0]), exact_score(m), cfg)
    assert (stuck.samples.data[:, 0] > 0).mean() >= 0.95


def test_lmc_step_halving_consistency():
    # terminal-law drift shrinks with the step size, monotone over halvings
    m = MixtureModel([1.0], [GaussianComponent([0.0], [[1.0]])])
    runs = {}
    for i, h in enumerate([0.8, 0.4, 0.2, 0.1]):
        cfg = LmcConfig(step=h, horizon=4.0, seed=31 + i, chains=10_000)
        runs[h] = lmc_run(np.zeros(1), exact_score(m), cfg).samples
    tvs = [
        empirical_tv_continuous(runs[h], runs[h / 2], bins=30)
        for h in (0.8, 0.4, 0.2)
    ]
    assert tvs[0] > tvs[1] > tvs[2]


def test_divergence_guard_flags_and_freezes():
    boom = ScoreField(fn=lambda X: 40.0 * X, kind="exact")
    short = lmc_run(np.array([1000.0]), boom, LmcConfig(step=1.0, horizon=5.0, seed=3, chains=8))
    longer = lmc_run(np.array([1000.0]), boom, LmcConfig(step=1.0, horizon=9.0, seed=3, chains=8))
    assert short.flagged.all() and longer.flagged.all()
    # a flagged chain keeps the state it blew up at
    assert np.array_equal(short.samples.data, longer.samples.data)
    assert np.isfinite(short.samples.data).all()


def test_divergence_guard_flags_a_nan_chain():
    calls = []

    def score(X):
        # like scipy's check_finite, refuse non-finite input outright
        if not np.isfinite(X).all():
            raise ValueError("score evaluated at a non-finite state")
        out = -X
        if not calls:
            out[0] = np.nan  # chain 0 breaks on the first step only
        calls.append(len(X))
        return out

    cfg = LmcConfig(step=0.1, horizon=1.0, seed=5, chains=6)
    res = lmc_run(np.zeros(2), ScoreField(fn=score, kind="exact"), cfg)
    assert res.flagged.tolist() == [True] + [False] * 5
    assert np.isnan(res.samples.data[0]).all()
    assert np.isfinite(res.samples.data[1:]).all()
    # the broken chain never reaches the score again
    assert calls == [6] + [5] * (cfg.steps - 1)


def test_submixture_weights_and_errors():
    m = three_component_model()
    sub = submixture(m, [0, 2])
    assert sub.k == 2
    assert sub.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert sub.weights[0] == pytest.approx(0.5 / 0.7, rel=1e-12)
    with pytest.raises(ValueError, match="nonempty"):
        submixture(m, [])
    with pytest.raises(ValueError, match="range"):
        submixture(m, [3])
    field = submixture_score(m, [1, 0])
    assert field.kind == "submixture" and field.subset == (0, 1)


def test_submixture_score_error_rate():
    m = MixtureModel(
        [0.599, 0.4, 1e-3],
        [
            GaussianComponent([0.0], [[1.0]]),
            GaussianComponent([3.0], [[1.0]]),
            GaussianComponent([20.0], [[1.0]]),
        ],
    )
    samples = sample_mixture(m, 100_000, seed=77)
    assert submixture_score_error(m, [0, 1, 2], samples) == 0.0
    dropped = submixture_score_error(m, [0, 1], samples)
    kappa = m.beta / m.alpha
    rate = m.beta * kappa * m.d + m.beta**2 * m.separation**2
    # measured constant is ~0.8, far inside the allowed 20
    assert dropped <= 1e-3 * 20.0 * rate
    nested = submixture_score_error(m, [0], samples)
    assert 0.0 < dropped < nested


def test_data_init_balance_transfer():
    m = MixtureModel(
        [0.5, 0.3, 0.2],
        [
            GaussianComponent([-10.0], [[1.0]]),
            GaussianComponent([0.0], [[1.0]]),
            GaussianComponent([10.0], [[1.0]]),
        ],
    )
    p = np.array([0.5, 0.3, 0.2])
    n = 600
    hits = 0
    for trial in range(100):
        X = sample_mixture(m, n, seed=1000 + trial).data[:, 0]
        frac = np.array([(X < -5).mean(), ((X >= -5) & (X < 5)).mean(), (X >= 5).mean()])
        if np.all(np.abs(frac - p) <= 4.0 * np.sqrt(p / n)):
            hits += 1
    assert hits >= 95


def test_score_field_validation():
    with pytest.raises(ValueError, match="kind"):
        ScoreField(fn=lambda x: x, kind="mystery")
    with pytest.raises(ValueError, match="error"):
        ScoreField(fn=lambda x: x, kind="perturbed")


def test_mixture_file_round_trip():
    m = three_component_model()
    text = dump_mixture(m)
    back = load_mixture(text)
    assert back.k == 3 and back.d == 2
    assert np.abs(back.weights - m.weights).max() <= 1e-15
    X = make_rng(74).normal(0.0, 2.0, (50, 2))
    assert np.abs(back.score(X) - m.score(X)).max() <= 1e-10
    assert np.abs(np.asarray(back.log_density(X)) - m.log_density(X)).max() <= 1e-10


def test_mixture_file_parse_errors():
    with pytest.raises(ParseError):
        load_mixture("")
    with pytest.raises(ParseError):
        load_mixture("mixture v2 1 1\ngaussian 1.0\n0.0\n1.0\n")
    with pytest.raises(ParseError):
        load_mixture("mixture v1 1 1\ngaussian 1.0\n0.0\n")  # missing factor row
    with pytest.raises(ParseError):
        load_mixture("mixture v1 1 1\nlaplace 1.0\n0.0\n1.0\n")
    # gaussian is the only component kind
    with pytest.raises(ParseError, match="bad component line"):
        load_mixture("mixture v1 1 1\nsoftplus 1.0 2.0\n0.0\n1.0\n1.0\n")
    with pytest.raises(ParseError):
        load_mixture("mixture v1 1 1\ngaussian 1.0\n0.0\n1.0\nextra\n")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(1, 3), k=st.integers(1, 3))
def test_mixture_file_round_trip_property(data, d, k):
    entries = st.floats(-4.0, 4.0)
    comps = []
    for _ in range(k):
        M = data.draw(arrays(np.float64, (d, d), elements=entries))
        cov = M @ M.T + np.diag(data.draw(arrays(np.float64, d, elements=st.floats(0.1, 3.0))))
        comps.append(GaussianComponent(data.draw(arrays(np.float64, d, elements=entries)), cov))
    raw = data.draw(arrays(np.float64, len(comps), elements=st.floats(0.05, 1.0)))
    text = dump_mixture(MixtureModel(raw / raw.sum(), comps))
    assert dump_mixture(load_mixture(text)) == text


def test_mixture_file_keeps_the_stored_factor():
    # refactoring the product of this factor reads 0.20000000000000004 below the diagonal
    text = "mixture v1 2 1\ngaussian 1.0\n0.0 0.0\n0.2 0.0\n0.2 0.4\n"
    assert dump_mixture(load_mixture(text)) == text
    with pytest.raises(ParseError, match="lower triangular"):
        load_mixture("mixture v1 2 1\ngaussian 1.0\n0.0 0.0\n1.0 0.5\n0.0 1.0\n")


# ---------------------------------------------------------------------------
# oracles: a triangular solve per potential call, scipy's softmax posterior


def reference_potential(comp, X: np.ndarray) -> np.ndarray:
    y = scipy.linalg.solve_triangular(comp._chol, (X - comp.mean).T, lower=True)
    return 0.5 * np.einsum("dn,dn->n", y, y) + comp._log_norm


def reference_logs(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    return np.stack(
        [math.log(p) - reference_potential(c, X) for p, c in zip(model.weights, model.components)]
    )


def reference_score(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    posterior = softmax(reference_logs(model, X), axis=0)
    grads = np.stack([c.grad(X) for c in model.components])
    return -np.einsum("kn,knd->nd", posterior, grads)


def oracle_mixtures():
    yield "bimodal-1d", MixtureModel(
        [0.5, 0.5], [GaussianComponent([-5.0], [[1.0]]), GaussianComponent([5.0], [[2.5]])]
    )
    yield "unequal-1d", MixtureModel(
        [0.3, 0.7], [GaussianComponent([0.5], [[2.0]]), GaussianComponent([4.0], [[0.6]])]
    )
    yield "three-2d", three_component_model()
    rng = np.random.default_rng(11)
    comps = []
    for _ in range(3):
        A = rng.normal(size=(3, 3))
        cov = A @ A.T + 0.5 * np.eye(3)
        comps.append(GaussianComponent(rng.normal(0.0, 3.0, 3), cov))
    yield "mixed-3d", MixtureModel([0.2, 0.5, 0.3], comps)


@pytest.mark.parametrize("name,model", list(oracle_mixtures()))
def test_mixture_matches_triangular_solve_oracle(name, model):
    d = model.d
    rng = np.random.default_rng(7)
    # stationary draws, then far tails where all but one posterior underflows
    tails = np.array([[1e3] * d, [-1e3] * d, [1e3] + [-1e3] * (d - 1), [-300.0] * d])
    X = np.concatenate([model.sample(200, rng), tails])
    for comp in model.components:
        ref = reference_potential(comp, X)
        assert np.allclose(comp.potential(X), ref, rtol=1e-12, atol=0.0)
    logs = reference_logs(model, X)
    assert (softmax(logs, axis=0)[:, -4:] == 0.0).any(), "no posterior underflows"
    ref = logsumexp(logs, axis=0)
    assert np.allclose(model.log_density(X), ref, rtol=1e-12, atol=0.0)
    assert np.allclose(model.potential(X), -ref, rtol=1e-12, atol=0.0)
    # the score is a posterior average of component gradients, so its
    # rounding scale is the largest component gradient at the point
    err = np.linalg.norm(model.score(X) - reference_score(model, X), axis=1)
    assert np.all(err <= 1e-12 * model.max_gradient(X))
    assert np.allclose(model.score(X[3]), reference_score(model, X[3:4])[0], rtol=1e-12)


def potential_then_grad_score(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    """The score from each component's public potential, then its gradient,
    with the same posterior arithmetic as ``MixtureModel.score``."""
    pairs = zip(model.weights, model.components)
    post = np.stack([math.log(p) - c.potential(X) for p, c in pairs])
    post -= post.max(axis=0)
    np.exp(post, out=post)
    post /= post.sum(axis=0)
    out = -post[0][:, None] * model.components[0].grad(X)
    for p, c in zip(post[1:], model.components[1:]):
        out -= p[:, None] * c.grad(X)
    return out


@pytest.mark.parametrize("name,model", [m for m in oracle_mixtures() if m[1].d <= 2])
def test_score_from_one_offset_is_bit_identical(name, model):
    X = model.sample(500, np.random.default_rng(3))
    assert np.array_equal(model.score(X), potential_then_grad_score(model, X))
    for comp in model.components:
        pot, grad = comp._potential_and_grad(X)
        assert np.array_equal(pot, comp.potential(X))
        assert np.array_equal(grad, comp.grad(X))


def rebuilt_field(model: MixtureModel, seed: int):
    """The perturbation field rebuilt from the draws perturb_score takes."""
    waves = langevin._NOISE_WAVES
    rng = make_rng(seed)
    d = model.d
    footprint = model.separation + math.sqrt(d / model.alpha)

    def unit_rows():
        rows = rng.standard_normal((waves, d))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    values = unit_rows()
    omegas = unit_rows()
    omegas = omegas * (rng.uniform(*langevin._NOISE_FREQ, waves)[:, None] / footprint)
    phases = rng.uniform(0.0, 2.0 * math.pi, waves)
    amps = rng.standard_normal(waves)

    def field(X):
        return (np.sin(X @ omegas.T + phases) * amps) @ values

    return field


def quadrature_mean_square(model: MixtureModel, field) -> float:
    """E_pi |f|^2 component by component: adaptive quad over 40 standard
    deviations in d = 1, else a tensor Gauss-Hermite rule of 48 nodes per
    axis."""
    from scipy.integrate import quad

    z, w = np.polynomial.hermite.hermgauss(48)
    nodes = np.indices((z.size,) * model.d).reshape(model.d, -1).T
    total = 0.0
    for p, comp in zip(model.weights, model.components):
        if model.d == 1:

            def integrand(x):
                f = field(np.array([[x]]))
                return math.exp(-comp.potential(np.array([[x]]))[0]) * float(np.sum(f * f))

            half = 40.0 * math.sqrt(comp.cov[0, 0])
            lo, hi = comp.mean[0] - half, comp.mean[0] + half
            value, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
        else:
            f = field(comp.mean + math.sqrt(2.0) * z[nodes] @ comp._chol.T)
            weights = w[nodes].prod(axis=1) / math.pi ** (model.d / 2.0)
            value = float(weights @ np.einsum("nd,nd->n", f, f))
        total += p * value
    return total


PERTURBATION_CASES = [(0.2, 1), (1.0, 9)]


@pytest.mark.parametrize("name,model", list(oracle_mixtures())[::3])
def test_perturb_score_moment_matches_quadrature(monkeypatch, name, model):
    moments = []
    exact = langevin._mean_square

    def spy(*args):
        moments.append(exact(*args))
        return moments[-1]

    monkeypatch.setattr(langevin, "_mean_square", spy)
    for eps, seed in PERTURBATION_CASES:
        perturb_score(model, eps, seed=seed)
        oracle = quadrature_mean_square(model, rebuilt_field(model, seed))
        assert math.isclose(moments[-1], oracle, rel_tol=1e-12, abs_tol=0.0)


def test_perturb_score_draws_no_samples(monkeypatch):
    def refuse(self, count, rng):
        raise AssertionError("perturb_score drew samples")

    monkeypatch.setattr(MixtureModel, "sample", refuse)
    for name, model in oracle_mixtures():
        assert perturb_score(model, 0.2, seed=1).kind == "perturbed"


@pytest.mark.parametrize("name,model", list(oracle_mixtures())[::3])
def test_perturb_score_is_the_exact_scale_times_the_field(name, model):
    for eps, seed in PERTURBATION_CASES:
        field = rebuilt_field(model, seed)
        scale = eps / math.sqrt(quadrature_mean_square(model, field))
        got = perturb_score(model, eps, seed=seed)
        X = model.sample(300, np.random.default_rng(seed))
        shift = got.evaluate(X) - model.score(X)
        ref = scale * field(X)
        assert np.abs(shift - ref).max() <= 1e-12 * np.abs(ref).max()


def test_divergence_guard_flags_only_the_chain_that_crosses():
    chains, h = 64, 0.01
    near = np.random.default_rng(3).normal(size=(chains, 2))
    pool = SampleSet(np.vstack([near, [[20.0, 0.0]]]))

    def calm(X):
        return -X

    def runaway(X):
        # past x_1 = 10 the drift multiplies the state by 11 per step
        out = -X
        out[X[:, 0] > 10.0] *= -1000.0
        return out

    def run(fn, steps, seed):
        cfg = LmcConfig(step=h, horizon=steps * h, seed=seed, chains=chains)
        return lmc_run(pool, ScoreField(fn=fn, kind="exact"), cfg)

    # a seed whose chains start on the far row exactly once
    seed = next(s for s in range(100) if (run(calm, 0, s).samples.data[:, 0] == 20.0).sum() == 1)
    bad = int(np.flatnonzero(run(calm, 0, seed).samples.data[:, 0] == 20.0)[0])
    first = next(s for s in range(1, 30) if run(runaway, s, seed).flagged.any())
    assert first > 1
    res = run(runaway, 40, seed)
    calm_res = run(calm, 40, seed)
    assert np.flatnonzero(res.flagged).tolist() == [bad]
    assert not calm_res.flagged.any()
    row = res.samples.data[bad]
    assert np.isfinite(row).all() and np.abs(row).max() > DIVERGENCE_GUARD
    # frozen at the state of the step that crossed the guard
    assert np.array_equal(row, run(runaway, first, seed).samples.data[bad])
    others = np.arange(chains) != bad
    assert np.array_equal(res.samples.data[others], calm_res.samples.data[others])
