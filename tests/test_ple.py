from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multimix import CapacityError, FiniteDistribution, SampleSet, ple, tv_distance
from multimix.ising import (
    IsingModel,
    empirical_distribution,
    exact_distribution,
    low_rank_ising,
    sample_exact,
    states_matrix,
)
from multimix.ple import (
    FitReport,
    LearnReport,
    PleConfig,
    _block_gradient,
    _design,
    _margin_kernel,
    _margins,
    _project_rows,
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
from multimix.spectral import (
    balance_statistic,
    build_glauber_generator,
    eigendecompose,
    evolve_distribution,
)
from scipy.special import expit, log_expit, rel_entr
from test_spectral import evolve_via_expm


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


def enumerated_path_laws(truth: IsingModel, fitted: IsingModel, steps: int, init):
    """Laws of (X_0, ..., X_t) under both discrete heat-bath chains, as
    tensors with one axis per time; init holds the law of X_0 in its last
    axis (np.eye(m) gives one law per starting state)."""
    m = 1 << truth.n
    laws = []
    for model in (truth, fitted):
        L = build_glauber_generator(exact_distribution(model)).rate_matrix()
        K = np.eye(m) + L / model.n
        law = init
        for _ in range(steps):
            law = law[..., None] * K
        laws.append(law)
    return laws


def enumerated_trajectory_kl(truth: IsingModel, fitted: IsingModel, steps: int) -> float:
    """The trajectory KL by enumerating all m^(t+1) paths from pi."""
    tp, tq = enumerated_path_laws(truth, fitted, steps, exact_distribution(truth).probs)
    return float(rel_entr(tp, tq).sum())


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
    loss, s = _margin_kernel(_margins(model.J, model.b, rows), w)
    assert abs(loss - reference_loss(model.J, model.b, X)) <= 1e-13
    # raw-row gradient: rows are independent logistic problems
    u_raw = 2.0 * (X @ model.J.T + model.b) * X
    W = (-2.0 / len(X)) * (expit(-u_raw) * X)
    GJ_ref = W.T @ X
    np.fill_diagonal(GJ_ref, 0.0)
    Xa, C = _design(rows, w)
    G = _block_gradient(s, C, Xa)
    assert np.abs(G[:, :-1] - GJ_ref).max() <= 1e-13
    assert np.abs(G[:, -1] - W.sum(axis=0)).max() <= 1e-13


# margins where the shared-exponential forms switch branch, reach the
# subnormal range or would overflow a naive exp(-u)
KERNEL_MARGINS = [0.0, -0.0, 1e-300, -1e-300, 20.0, -20.0, 40.0, -40.0]
KERNEL_MARGINS += [700.0, -700.0, 800.0, -800.0]


def within_ulps(got, want, ulps=2):
    return np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * np.abs(want))


def test_margin_kernel_matches_logaddexp_and_expit():
    rng = make_rng(5, "default")
    # past u ~ 709 scipy's expit(-u) = 1 / (1 + exp(u)) is 0 because exp(u)
    # overflows, while e / (1 + e) is still subnormal; random margins stay
    # inside +-700
    u = np.concatenate(
        [KERNEL_MARGINS, rng.normal(0.0, 5.0, 500), rng.uniform(-700.0, 700.0, 500)]
    )
    with np.errstate(under="ignore", over="ignore"):
        terms, sig = np.logaddexp(0.0, -u), expit(-u)
    for v, term, want in zip(u, terms, sig):
        # one margin with unit weight: the loss is the term itself
        with np.errstate(all="raise"):
            loss, s = _margin_kernel(np.array([[v]]), np.ones(1))
        assert within_ulps(loss, term), (v, loss, term)
        assert within_ulps(s[0, 0], want), (v, s[0, 0], want)
    # the same values as one block, weighted
    w = rng.random(len(u))
    with np.errstate(all="raise"):
        loss, s = _margin_kernel(u[:, None], w)
    assert within_ulps(s[:, 0], sig)
    assert loss == pytest.approx(float(w @ terms), rel=1e-14)


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
# l1-ball projection


def bisection_projection(M: np.ndarray, radius: float) -> np.ndarray:
    """Reference projection: for each row outside the ball, bisect the
    threshold tau solving sum_j max(|M_ij| - tau, 0) = radius, then shrink
    every magnitude by tau."""
    A = np.abs(M)
    out = M.copy()
    for i in np.flatnonzero(A.sum(axis=1) > radius):
        lo, hi = 0.0, A[i].max()
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if np.maximum(A[i] - mid, 0.0).sum() > radius:
                lo = mid
            else:
                hi = mid
        out[i] = np.sign(M[i]) * np.maximum(A[i] - hi, 0.0)
    return out


# ties and zeros alongside arbitrary magnitudes
projection_entries = st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0])
)


def per_row_projection(J: np.ndarray, b: np.ndarray, radius: float):
    """Oracle: the sorted-threshold projection (Duchi et al. 2008) one
    violating row at a time, signs restored."""
    M = np.concatenate([J, b[:, None]], axis=1)
    A = np.abs(M)
    for i in np.nonzero(A.sum(axis=1) > radius)[0]:
        a = A[i]
        u = np.sort(a)[::-1]
        css = np.cumsum(u)
        rho = np.nonzero(u * np.arange(1, a.size + 1) > css - radius)[0][-1]
        tau = (css[rho] - radius) / (rho + 1.0)
        A[i] = np.maximum(a - tau, 0.0)
    out = np.sign(M) * A
    return out[:, :-1], out[:, -1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6), radius=st.floats(0.01, 20.0))
def test_project_rows_onto_the_l1_ball(data, n, radius):
    M = data.draw(arrays(np.float64, (n, n + 1), elements=projection_entries))
    out = _project_rows(M, radius)
    # one sort over the block gives the per-row oracle's bits on every row
    J, b = per_row_projection(M[:, :-1], M[:, -1], radius)
    assert out.tobytes() == np.column_stack([J, b]).tobytes()
    assert np.all(np.abs(out).sum(axis=1) <= radius + 1e-12)
    # rows inside the ball come back bitwise, up to the sign of a zero
    inside = np.abs(M).sum(axis=1) <= radius
    assert out[inside].tobytes() == (M[inside] + 0.0).tobytes()
    # no sign flips, magnitudes only shrink
    assert np.all(out * M >= 0.0) and np.all(np.abs(out) <= np.abs(M))
    assert np.abs(out - bisection_projection(M, radius)).max(initial=0.0) <= 1e-12


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


# iteration counts at the learn-sample benchmark size (n=8, m_fit=1000, the
# rank-1 and rank-2 truths at model seed 4), fit seeds 0-3
LEARN_SAMPLE_ITERATIONS = {1: [1481, 1216, 1175, 1388], 2: [1729, 1911, 1915, 1713]}


def test_learn_sample_fit_iteration_counts():
    for rank, top in ((1, [1.5]), (2, [1.5, 1.3])):
        truth = low_rank_ising(8, rank, top, 0.2, seed=4)
        radius = float(row_norms(truth).max())
        counts = [
            fit(sample_exact(truth, 1000, seed), PleConfig(radius=radius)).iterations
            for seed in range(4)
        ]
        assert counts == LEARN_SAMPLE_ITERATIONS[rank]


def test_backtracks_count_step_halvings(c10_fixture):
    X, cfg = c10_fixture
    # the default step 1/16 never needs halving here; a step of 4 does
    assert fit(X, replace(cfg, max_iters=50)).backtracks == 0
    assert fit(X, replace(cfg, max_iters=50, step=4.0)).backtracks > 0  # observed 59


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
    inf, nan = float("inf"), float("nan")
    for bad in (
        dict(radius=0.0),
        dict(radius=inf),
        dict(radius=nan),
        dict(radius=1.0, step=0.0),
        dict(radius=1.0, step=inf),
        dict(radius=1.0, step=nan),
        dict(radius=1.0, max_iters=0),
        dict(radius=1.0, tolerance=0.0),
        dict(radius=1.0, tolerance=inf),
        dict(radius=1.0, tolerance=nan),
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
    with pytest.raises(ValueError):
        FitReport(
            model=zero_model(2),
            radius=1.0,
            objective=1.0,
            iterations=1,
            converged=True,
            backtracks=-1,
        )
    assert (
        FitReport(
            model=zero_model(2), radius=1.0, objective=1.0, iterations=1, converged=True
        ).backtracks
        == 0
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
    assert trajectory_kl(model, model, 100) == 0.0


def test_trajectory_kl_matches_enumerated_paths():
    # chain rule against the full path enumeration: 24 pairs, n in {3, 4, 5},
    # small and large perturbations, steps 0-3
    for s in range(24):
        n = 3 + s % 3
        truth = random_model(300 + s, n)
        fitted = perturbed(truth, 400 + s, 0.1 if s < 12 else 1.0)
        for t in range(4):
            got = trajectory_kl(truth, fitted, t)
            want = enumerated_trajectory_kl(truth, fitted, t)
            assert abs(got - want) <= 1e-12 * want


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


def test_trajectory_kl_beyond_the_old_tuple_cap():
    # 64^6 and 4096^51 paths: out of reach for enumeration, linear in t here
    truth = random_model(61, 6)
    fitted = perturbed(truth, 62, 0.3)
    kl = trajectory_kl(truth, fitted, 5)
    assert math.isfinite(kl) and kl > 0.0
    assert kl == 5 * trajectory_kl(truth, fitted, 1)
    assert kl == pytest.approx(5 * enumerated_trajectory_kl(truth, fitted, 1), rel=1e-12)

    truth = random_model(121, 12)
    fitted = perturbed(truth, 122, 0.3)
    start = time.perf_counter()
    kl = trajectory_kl(truth, fitted, 50)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(kl) and kl > 0.0
    assert kl == 50 * trajectory_kl(truth, fitted, 1)


def test_trajectory_kl_guards():
    # the only cap left is state enumeration (n <= 20)
    with pytest.raises(CapacityError):
        trajectory_kl(zero_model(21), zero_model(21), 1)
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
    TP, TQ = enumerated_path_laws(truth, fitted, steps, np.eye(m))
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
    assert certify_terminal_tv(model, model, exact_distribution(model), 2.0) <= 1e-10


def test_certification_capacity():
    # the semigroup action makes no dense copy: at n = 11 it agrees with the
    # dense exponential, and at n = 16 it certifies a chain started at pi
    truth = random_model(11, 11)
    fitted = perturbed(truth, 12, 0.3)
    mu0 = empirical_distribution(sample_exact(truth, 500, seed=13), 11)
    want = evolve_via_expm(build_glauber_generator(exact_distribution(fitted)), mu0, 0.5)
    want = 0.5 * np.abs(want - exact_distribution(truth).probs).sum()
    assert abs(certify_terminal_tv(fitted, truth, mu0, 0.5) - want) <= 1e-12
    model = random_model(16, 16)
    assert certify_terminal_tv(model, model, exact_distribution(model), 2.0) <= 1e-10


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


def test_learn_and_sample_builds_the_fitted_generator_once(monkeypatch):
    truth = low_rank_ising(6, 1, [1.5], 0.2, seed=4)
    cfg = PleConfig(radius=float(row_norms(truth).max()), seed=0)
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return build_glauber_generator(*args, **kwargs)

    monkeypatch.setattr(ple, "build_glauber_generator", counting)
    report = learn_and_sample(truth, 2000, 500, cfg, horizon=5.0)
    assert len(builds) == 1
    monkeypatch.undo()
    # the report is what the public pieces give, each building its own
    # generator
    init = sample_exact(truth, 500, cfg.seed + 1)
    tv = certify_terminal_tv(report.fit.model, truth, empirical_distribution(init, 6), 5.0)
    assert report.tv == tv
    gen = build_glauber_generator(exact_distribution(report.fit.model))
    bal = balance_statistic(eigendecompose(gen, 2), SampleSet(init), k=2)
    assert report.balance.value == bal.value
    assert np.array_equal(report.balance.coefficients, bal.coefficients)


def test_learn_and_sample_guards(monkeypatch):
    # above the certification cap it refuses as certify_terminal_tv does,
    # before any draw or fit
    def untouchable(*args, **kwargs):
        pytest.fail("drew or fitted above the certification cap")

    monkeypatch.setattr(ple, "fit", untouchable)
    monkeypatch.setattr(ple, "sample_exact", untouchable)
    for n in (11, 21, 22):
        with pytest.raises(CapacityError, match=f"up to 10 spins, got {n}"):
            learn_and_sample(zero_model(n), 10, 10, PleConfig(radius=1.0), horizon=1.0)
    with pytest.raises(ValueError):
        learn_and_sample(zero_model(5), 0, 10, PleConfig(radius=1.0), horizon=1.0)
    with pytest.raises(ValueError):
        learn_and_sample(zero_model(5), 10, 10, PleConfig(radius=1.0), horizon=-1.0)
    # a NaN horizon is refused before anything is drawn or fitted
    with pytest.raises(ValueError, match="horizon"):
        learn_and_sample(zero_model(5), 10, 10, PleConfig(radius=1.0), horizon=float("nan"))
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
    with pytest.raises(ValueError, match="horizon"):
        LearnReport(
            fit=FitReport(
                model=zero_model(2), radius=1.0, objective=1.0, iterations=1, converged=True
            ),
            horizon=float("nan"),
            tv=0.5,
            exact=True,
            balance=None,
        )
