from __future__ import annotations

import math

import numpy as np
import pytest

from multimix import CapacityError, FiniteDistribution, SampleSet, tv_distance
from multimix.ising import (
    IsingModel,
    exact_distribution,
    low_rank_ising,
    sample_exact,
    states_matrix,
)
from multimix.ple import (
    FitReport,
    LearnReport,
    PleConfig,
    _margins,
    _weighted_gradient,
    _weighted_loss,
    certify_terminal_tv,
    conditional_kl_diagnostic,
    fit,
    learn_and_sample,
    pseudolikelihood_gradient,
    pseudolikelihood_loss,
    row_norms,
    trajectory_kl,
)
from multimix.rng import make_rng
from multimix.spectral import build_glauber_generator, evolve_distribution
from scipy.special import expit, log_expit


def zero_model(n: int) -> IsingModel:
    return IsingModel(np.zeros((n, n)), np.zeros(n))


def random_model(seed: int, n: int, coupling=0.3, field=0.2) -> IsingModel:
    rng = make_rng(seed, "default")
    J = rng.normal(0.0, coupling / math.sqrt(n), (n, n))
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    return IsingModel(J, rng.normal(0.0, field, n))


def perturbed(model: IsingModel, seed: int, scale: float) -> IsingModel:
    rng = make_rng(seed, "default")
    n = model.n
    dJ = rng.normal(0.0, scale / n, (n, n))
    dJ = 0.5 * (dJ + dJ.T)
    np.fill_diagonal(dJ, 0.0)
    return IsingModel(model.J + dJ, model.b + rng.normal(0.0, scale / 2.0, n))


def exact_conditional_kl(truth: IsingModel, fitted: IsingModel) -> float:
    """Population value of the diagnostic by full state enumeration."""
    S = states_matrix(truth.n)
    pi = exact_distribution(truth).probs
    at = 2.0 * (S @ truth.J.T + truth.b)
    af = 2.0 * (S @ fitted.J.T + fitted.b)
    kl = expit(at) * (log_expit(at) - log_expit(af)) + expit(-at) * (
        log_expit(-at) - log_expit(-af)
    )
    return float(pi @ kl.sum(axis=1) / truth.n)


@pytest.fixture(scope="module")
def six_spin():
    truth = random_model(11, 6, coupling=0.35)
    X = sample_exact(truth, 100_000, 3)
    return truth, X


# ---------------------------------------------------------------------------
# loss and gradient


def test_loss_of_the_null_model_is_n_log_two():
    X = np.where(make_rng(1, "default").random((50, 6)) < 0.5, 1.0, -1.0)
    assert abs(pseudolikelihood_loss(zero_model(6), X) - 6.0 * math.log(2.0)) < 1e-12


def test_loss_single_site_strong_field():
    model = IsingModel(np.zeros((1, 1)), np.array([10.0]))
    got = pseudolikelihood_loss(model, np.ones((1, 1)))
    assert got == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)


def test_truth_beats_perturbations_on_large_samples(six_spin):
    truth, X = six_spin
    base = pseudolikelihood_loss(truth, X)
    Jp = truth.J.copy()
    Jp[0, 1] += 0.2
    Jp[1, 0] += 0.2
    bp = truth.b.copy()
    bp[2] -= 0.3
    assert base < pseudolikelihood_loss(IsingModel(Jp, truth.b), X)
    assert base < pseudolikelihood_loss(IsingModel(truth.J, bp), X)


def reference_loss(J, b, X):
    """The objective written row by row over the raw samples."""
    u = 2.0 * (X @ J.T + b) * X
    return np.logaddexp(0.0, -u).sum(axis=1).mean()


def test_gradient_matches_finite_differences():
    model = random_model(42, 5, coupling=0.15 * math.sqrt(5))
    X = np.where(make_rng(43, "default").random((200, 5)) < 0.5, 1.0, -1.0)
    GJ, gb = pseudolikelihood_gradient(model, X)
    h = 1e-6

    def loss_at(J, b):
        return reference_loss(J, b, X)

    worst = 0.0
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            Jp, Jm = model.J.copy(), model.J.copy()
            Jp[i, j] += h
            Jm[i, j] -= h
            fd = (loss_at(Jp, model.b) - loss_at(Jm, model.b)) / (2.0 * h)
            worst = max(worst, abs(fd - GJ[i, j]) / max(abs(fd), 1e-12))
        bp, bm = model.b.copy(), model.b.copy()
        bp[i] += h
        bm[i] -= h
        fd = (loss_at(model.J, bp) - loss_at(model.J, bm)) / (2.0 * h)
        worst = max(worst, abs(fd - gb[i]) / max(abs(fd), 1e-12))
    assert worst < 1e-5


def test_weighted_kernel_on_distinct_rows_matches_raw_rows():
    model = random_model(42, 5, coupling=0.15 * math.sqrt(5))
    X = np.where(make_rng(43, "default").random((200, 5)) < 0.5, 1.0, -1.0)
    rows, counts = np.unique(X, axis=0, return_counts=True)
    assert len(rows) < len(X)
    w = counts / counts.sum()
    u = _margins(model.J, model.b, rows)
    assert abs(_weighted_loss(u, w) - reference_loss(model.J, model.b, X)) <= 1e-13
    # raw-row gradient: rows are independent logistic problems
    u_raw = 2.0 * (X @ model.J.T + model.b) * X
    W = (-2.0 / len(X)) * (expit(-u_raw) * X)
    GJ_ref = W.T @ X
    np.fill_diagonal(GJ_ref, 0.0)
    GJ, gb = _weighted_gradient(u, w, rows)
    assert np.abs(GJ - GJ_ref).max() <= 1e-13
    assert np.abs(gb - W.sum(axis=0)).max() <= 1e-13


def test_loss_input_validation():
    with pytest.raises(ValueError):
        pseudolikelihood_loss(zero_model(4), np.ones((3, 5)))
    with pytest.raises(ValueError):
        pseudolikelihood_loss(zero_model(4), np.full((3, 4), 0.5))
    with pytest.raises(ValueError):
        pseudolikelihood_loss(zero_model(4), np.ones((0, 4)))
    with pytest.raises(ValueError):
        fit(np.ones((0, 4)), PleConfig(radius=1.0))


# ---------------------------------------------------------------------------
# fitting


def test_fit_of_uniform_data_is_near_null():
    X = sample_exact(zero_model(6), 100_000, 7)
    report = fit(SampleSet(X), PleConfig(radius=2.0))
    assert report.converged
    assert np.abs(report.model.J).max() <= 0.05
    assert np.abs(report.model.b).max() <= 0.05


def test_fit_recovers_identifiable_model(six_spin):
    truth, X = six_spin
    radius = 1.5 * float(row_norms(truth).max())
    report = fit(SampleSet(X[:50_000]), PleConfig(radius=radius))
    assert report.converged
    err = max(
        np.abs(report.model.J - truth.J).max(), np.abs(report.model.b - truth.b).max()
    )
    assert err <= 0.1  # observed 0.012 at this sample size


def test_tight_radius_puts_a_row_on_the_boundary(six_spin):
    truth, X = six_spin
    radius = 0.5 * float(row_norms(truth).max())
    report = fit(SampleSet(X[:20_000]), PleConfig(radius=radius))
    norms = row_norms(report.model)
    assert norms.max() <= radius + 1e-8
    assert np.abs(norms - radius).min() < 1e-6


def test_objective_never_increases_with_more_iterations(six_spin):
    truth, X = six_spin
    cfgs = [
        PleConfig(radius=1.2, max_iters=k, tolerance=1e-15) for k in (1, 3, 10, 30)
    ]
    losses = [fit(SampleSet(X[:5000]), cfg).objective for cfg in cfgs]
    # the optimizer path is deterministic, so objective-by-iteration is a
    # prefix property of the same trajectory
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-10


def test_non_convergence_is_flagged(six_spin):
    truth, X = six_spin
    report = fit(SampleSet(X[:5000]), PleConfig(radius=1.2, max_iters=1))
    assert not report.converged
    assert report.iterations == 1


@pytest.fixture(scope="module")
def c10_fixture():
    """The c10 acceptance fixture: n=8 rank-1 truth, model seed 4, 20 000
    samples drawn with the fit seed 0."""
    truth = low_rank_ising(8, 1, [1.5], 0.2, seed=4)
    cfg = PleConfig(radius=float(row_norms(truth).max()), seed=0)
    return sample_exact(truth, 20_000, cfg.seed), cfg


def test_c10_fit_iteration_count(c10_fixture):
    X, cfg = c10_fixture
    report = fit(SampleSet(X), cfg)
    assert report.converged
    assert report.iterations == 968


def test_fit_ignores_row_order_and_repetition(c10_fixture):
    X, cfg = c10_fixture
    base = fit(X, cfg)
    perm = make_rng(12, "default").permutation(len(X))
    for variant in (X[perm], np.vstack([X, X])):
        other = fit(variant, cfg)
        assert np.array_equal(other.model.J, base.model.J)
        assert np.array_equal(other.model.b, base.model.b)
        assert other.objective == base.objective
        assert other.iterations == base.iterations


def test_config_validation():
    for bad in (
        dict(radius=0.0),
        dict(radius=1.0, step=0.0),
        dict(radius=1.0, max_iters=0),
        dict(radius=1.0, tolerance=0.0),
    ):
        with pytest.raises(ValueError):
            PleConfig(**bad)


def test_report_validation():
    strong = IsingModel(np.array([[0.0, 0.8], [0.8, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        FitReport(model=strong, radius=0.5, objective=1.0, iterations=1, converged=True)
    with pytest.raises(ValueError):
        FitReport(
            model=zero_model(2),
            radius=1.0,
            objective=1.0,
            iterations=1,
            converged=True,
            epsilon_hat=-0.1,
        )


# ---------------------------------------------------------------------------
# conditional KL diagnostics


def test_diagnostic_vanishes_at_the_truth(six_spin):
    truth, X = six_spin
    assert conditional_kl_diagnostic(truth, truth, X[:1000]) == 0.0


def test_diagnostic_shrinks_with_more_data(six_spin):
    truth, X = six_spin
    eval_set = SampleSet(sample_exact(truth, 20_000, 99))
    eps = [
        conditional_kl_diagnostic(
            truth, fit(SampleSet(X[:m]), PleConfig(radius=1.2)).model, eval_set
        )
        for m in (1_000, 10_000, 100_000)
    ]
    # observed 1.9e-3 > 3.1e-4 > 3.4e-5
    assert eps[0] > eps[1] > eps[2] > 0.0


def test_diagnostic_dimension_check():
    with pytest.raises(ValueError):
        conditional_kl_diagnostic(zero_model(4), zero_model(5), np.ones((2, 4)))


# ---------------------------------------------------------------------------
# trajectory transfer


def test_trajectory_kl_vanishes_for_equal_models():
    model = random_model(7, 5)
    assert trajectory_kl(model, model, 3) == 0.0


def test_trajectory_kl_is_bounded_by_steps_times_conditional_kl():
    # chain rule plus convexity over the coordinate choice give KL <= t*eps
    # with eps the exact per-coordinate conditional KL; observed worst ratio
    # over these pairs is 0.68
    for s in range(20):
        truth = random_model(100 + s, 5)
        fitted = perturbed(truth, 200 + s, 0.1)
        eps = exact_conditional_kl(truth, fitted)
        prev = 0.0
        for t in (1, 2, 3):
            kl = trajectory_kl(truth, fitted, t)
            assert kl <= t * eps * (1.0 + 1e-9) + 1e-12
            assert kl >= prev - 1e-15
            prev = kl


def test_trajectory_kl_guards():
    with pytest.raises(CapacityError):
        trajectory_kl(zero_model(6), zero_model(6), 3)
    with pytest.raises(ValueError):
        trajectory_kl(zero_model(5), zero_model(5), -1)
    with pytest.raises(ValueError):
        trajectory_kl(zero_model(5), zero_model(4), 2)


def test_sample_initialized_trajectories_concentrate():
    """Fraction of sample redraws whose mixed trajectory TV exceeds
    sqrt(t eps) + 2 ln(1/gamma)/m stays below gamma plus noise."""
    truth = random_model(500, 5)
    rng = make_rng(500, "default")
    # regenerate the same truth draw, then a fixed perturbation on top
    n = 5
    J = rng.normal(0.0, 0.3 / math.sqrt(n), (n, n))
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    b = rng.normal(0.0, 0.2, n)
    dJ = rng.normal(0.0, 0.25 / n, (n, n))
    dJ = 0.5 * (dJ + dJ.T)
    np.fill_diagonal(dJ, 0.0)
    fitted = IsingModel(J + dJ, b + rng.normal(0.0, 0.12, n))
    eps = exact_conditional_kl(truth, fitted)
    steps, gamma, m_init = 3, 0.2, 500
    bound = math.sqrt(steps * eps) + 2.0 * math.log(1.0 / gamma) / m_init

    m = 1 << n
    TP, TQ = np.eye(m), np.eye(m)
    P, Q = (
        np.eye(m) + build_glauber_generator(exact_distribution(model)).rate_matrix() / n
        for model in (truth, fitted)
    )
    for _ in range(steps):
        TP = TP[..., None] * P
        TQ = TQ[..., None] * Q
    per_start = 0.5 * np.abs(TP - TQ).reshape(m, -1).sum(axis=1)

    pi = exact_distribution(truth).probs
    draw = make_rng(777, "experiment")
    exceed = 0
    for _ in range(100):
        counts = np.bincount(draw.choice(m, size=m_init, p=pi), minlength=m)
        exceed += float(counts / m_init @ per_start) > bound
    sigma = math.sqrt(gamma * (1.0 - gamma) / 100.0)
    assert exceed / 100.0 <= gamma + 3.0 * sigma  # observed 0.00


def test_initialization_source_robustness():
    """Swapping the init source for nu with TV(pi, nu) = eps/16 moves the
    certified terminal TV by at most eps/8 plus sampling noise."""
    model = random_model(808, 8, field=0.15)
    pi = exact_distribution(model)
    eps_tv = 0.8
    dst = int(np.argmin(pi.probs))
    lam = (eps_tv / 16.0) / (1.0 - pi.probs[dst])
    nu = (1.0 - lam) * pi.probs
    nu[dst] += lam
    assert abs(tv_distance(pi, FiniteDistribution(nu)) - eps_tv / 16.0) < 1e-12

    gen = build_glauber_generator(pi)
    m_init, horizon = 2000, 1.0
    u = make_rng(909, "init").random(m_init)
    # inverse-CDF coupling: the same uniforms drive both sources
    hist = lambda c: FiniteDistribution(
        np.bincount(np.searchsorted(c, u), minlength=256) / m_init
    )
    tv_pi = tv_distance(evolve_distribution(gen, hist(np.cumsum(pi.probs)), horizon), pi)
    tv_nu = tv_distance(evolve_distribution(gen, hist(np.cumsum(nu)), horizon), pi)
    # observed difference 0.0094
    assert abs(tv_pi - tv_nu) <= eps_tv / 8.0 + 3.0 / math.sqrt(m_init)


# ---------------------------------------------------------------------------
# end-to-end pipeline


def test_certification_at_stationarity_is_zero():
    model = random_model(7, 5)
    assert certify_terminal_tv(model, exact_distribution(model), 2.0) <= 1e-10


def test_certification_capacity():
    with pytest.raises(CapacityError):
        certify_terminal_tv(zero_model(11), None, 1.0)


def test_learn_and_sample_rank_one_fixture():
    truth = low_rank_ising(8, 1, [1.5], 0.2, seed=4)
    radius = float(row_norms(truth).max())
    report = learn_and_sample(
        truth, 20_000, 2000, PleConfig(radius=radius, seed=0), horizon=25.0
    )
    assert report.exact
    assert report.fit.converged
    assert report.fit.epsilon_hat <= 0.01  # observed 1.6e-4
    assert report.tv <= 0.15  # observed 0.014
    assert report.balance is not None and report.balance.value >= 0.0
    # an undertrained fit certifies strictly worse
    starved = learn_and_sample(
        truth, 100, 2000, PleConfig(radius=radius, seed=0), horizon=25.0
    )
    assert starved.tv > report.tv  # observed 0.195 vs 0.014


def test_learn_and_sample_monte_carlo_fallback():
    truth = random_model(21, 12, coupling=0.2, field=0.0)
    report = learn_and_sample(
        truth, 4000, 3000, PleConfig(radius=1.5, seed=5, max_iters=400), horizon=3.0
    )
    assert not report.exact
    assert report.balance is None
    assert 0.0 <= report.tv <= 1.0


def test_learn_and_sample_guards():
    with pytest.raises(CapacityError):
        learn_and_sample(zero_model(22), 10, 10, PleConfig(radius=1.0), horizon=1.0)
    with pytest.raises(ValueError):
        learn_and_sample(zero_model(5), 0, 10, PleConfig(radius=1.0), horizon=1.0)
    with pytest.raises(ValueError):
        learn_and_sample(zero_model(5), 10, 10, PleConfig(radius=1.0), horizon=-1.0)
    with pytest.raises(ValueError):
        LearnReport(
            fit=FitReport(
                model=zero_model(2), radius=1.0, objective=1.0, iterations=1, converged=True
            ),
            horizon=1.0,
            tv=1.5,
            exact=True,
            balance=None,
        )
