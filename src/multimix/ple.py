"""Constrained pseudolikelihood estimation and learn-then-sample certification.

The estimator maximizes the product of per-coordinate conditional likelihoods
over models whose rows satisfy an l1 budget (coupling row plus external
field). Fitting is projected gradient descent: step, re-symmetrize, project
each row onto the l1 ball, with backtracking so the objective never increases.
The objective depends on the data only through each distinct +-1 row and its
frequency, so the fit folds the samples into weighted distinct rows once and
iterates on those. The coupling and field sit in one (n, n+1) block [J | b],
so a gradient is one product against [X | 1]. One margin kernel takes a
single exponential exp(-|u|) per iterate and returns both the weighted loss
and the sigmoid the next gradient reads, and one row-wise sort projects every
row at once (Duchi et al. 2008). The companion diagnostics measure how far
the fitted conditionals are from the truth (per-coordinate KL) and push that
error through trajectory laws and terminal-law certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, log_expit, rel_entr

from .errors import CapacityError
from .ising import (
    IsingModel,
    empirical_distribution,
    exact_distribution,
    sample_exact,
    states_matrix,
)
from .measures import FiniteDistribution, SampleSet, tv_distance
from .spectral import (
    BalanceStatistic,
    GeneratorMatrix,
    balance_statistic,
    build_glauber_generator,
    eigendecompose,
    evolve_distribution,
)

# exact terminal-law certification (semigroup action) is limited to this
MAX_CERTIFY_SPINS = 10


@dataclass(frozen=True)
class PleConfig:
    """Constraint radius and projected-gradient settings."""

    radius: float
    step: float | None = None
    max_iters: int = 5000
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # negated comparisons, so that NaN and infinite values fail too
        if not 0.0 < self.radius < math.inf:
            raise ValueError("constraint radius must be positive and finite")
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ValueError("step must be positive and finite when given")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class FitReport:
    """Fitted model plus the optimizer's exit state.

    epsilon_hat is the per-coordinate conditional KL against a known truth;
    fit alone cannot compute it, so it stays None until a diagnostic fills
    it in.
    """

    model: IsingModel
    radius: float
    objective: float
    iterations: int
    converged: bool
    epsilon_hat: float | None = None
    backtracks: int = 0

    def __post_init__(self):
        if row_norms(self.model).max() > self.radius + 1e-8:
            raise ValueError("fitted model violates the row l1 constraint")
        if not (math.isfinite(self.objective) and self.objective >= 0.0):
            raise ValueError("objective must be finite and nonnegative")
        if self.epsilon_hat is not None and not self.epsilon_hat >= 0.0:
            raise ValueError("epsilon_hat must be nonnegative")
        if self.backtracks < 0:
            raise ValueError("backtracks must be nonnegative")


@dataclass(frozen=True)
class LearnReport:
    """End-to-end pipeline outcome: fit quality and certified terminal error.

    The terminal TV is always exact, so `exact` is always True.
    """

    fit: FitReport
    horizon: float
    tv: float
    exact: bool
    balance: BalanceStatistic

    def __post_init__(self):
        if not 0.0 <= self.tv <= 1.0 + 1e-12:
            raise ValueError("total variation must lie in [0, 1]")
        if not self.horizon >= 0.0:
            raise ValueError("horizon must be nonnegative")


def row_norms(model: IsingModel) -> np.ndarray:
    """Per-row l1 budget usage: sum_j |J_ij| + |b_i|."""
    return np.abs(model.J).sum(axis=1) + np.abs(model.b)


def _spin_matrix(samples: SampleSet | np.ndarray, n: int | None = None) -> np.ndarray:
    X = samples.data if isinstance(samples, SampleSet) else np.asarray(samples, float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("samples must form a nonempty matrix")
    if n is not None and X.shape[1] != n:
        raise ValueError(f"samples have dimension {X.shape[1]}, expected {n}")
    if not np.all(np.abs(X) == 1.0):
        raise ValueError("samples must be +-1 valued")
    return X


def _margins(J: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """u[r, i] = 2 (J_i . x_r + b_i) x_ri; diag(J) = 0 keeps the
    self-interaction out of the dot product."""
    return 2.0 * (X @ J.T + b) * X


def _margin_kernel(u: np.ndarray, w: np.ndarray):
    """Weighted loss sum_r w_r sum_i softplus(-u_ri) and the sigmoid
    expit(-u) that the gradient reads, both from one exponential.

    With e = exp(-|u|): softplus(-u) = log1p(e) + max(-u, 0), and expit(-u)
    is e / (1 + e) where u >= 0 and 1 / (1 + e) elsewhere. e never
    overflows; past |u| ~ 745 it underflows to 0, where both terms have
    already rounded to their limits.
    """
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(u))
    terms = np.log1p(e)
    terms -= np.minimum(u, 0.0)
    # weight the rows first: a BLAS product is cheaper than n-wide row sums
    loss = float(np.dot(w, terms).sum())
    s = np.where(u >= 0.0, e, 1.0)
    e += 1.0
    s /= e
    return loss, s


def _block_gradient(s: np.ndarray, C: np.ndarray, Xa: np.ndarray) -> np.ndarray:
    """Gradient [GJ | gb] of the weighted loss as one (n, n+1) block, from
    the sigmoid s = expit(-u), the weighted design C = -2 w x and
    Xa = [X | 1]; the J block is not yet symmetrized (rows are independent
    logistic problems) and its diagonal is zero."""
    G = (s * C).T @ Xa
    G.reshape(-1)[:: G.shape[1] + 1] = 0.0
    return G


def _design(X: np.ndarray, w: np.ndarray):
    """[X | 1] and the weighted design -2 w x of the distinct rows."""
    return np.hstack([X, np.ones((len(X), 1))]), -2.0 * w[:, None] * X


def pseudolikelihood_loss(model: IsingModel, samples) -> float:
    """Negative average log conditional likelihood, summed over coordinates.

    Each term is softplus(-u) with u = 2 (J_i . x + b_i) x_i.
    """
    X = _spin_matrix(samples, model.n)
    u = _margins(model.J, model.b, X)
    return _margin_kernel(u, np.full(len(X), 1.0 / len(X)))[0]


def pseudolikelihood_gradient(model: IsingModel, samples):
    """Analytic gradient of the loss in (J, b); the J block is not yet
    symmetrized (rows are independent logistic problems)."""
    X = _spin_matrix(samples, model.n)
    w = np.full(len(X), 1.0 / len(X))
    _, s = _margin_kernel(_margins(model.J, model.b, X), w)
    Xa, C = _design(X, w)
    G = _block_gradient(s, C, Xa)
    return G[:, :-1], G[:, -1]


def _symmetrize(P: np.ndarray) -> None:
    """J <- (J + J^T) / 2 in place on the J block of [J | b]."""
    J = P[:, :-1]
    J[...] = 0.5 * (J + J.T)


def _project_rows(M: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of every row of |M| onto the l1 ball, signs
    restored; entries tied at the threshold go to zero.

    One descending sort and one cumulative sum over the whole block give
    each row's threshold tau (Duchi et al. 2008); tau = 0 on rows already
    inside the ball, so they pass through unchanged.
    """
    A = np.abs(M)
    m, d = M.shape
    U = np.sort(A, axis=1)[:, ::-1]
    css = np.add.accumulate(U, axis=1)
    css -= radius
    # k = rho + 1, one past the last index where the sorted magnitude still
    # exceeds its share of the excess
    k = d - (U * np.arange(1.0, d + 1.0) > css)[:, ::-1].argmax(axis=1)
    # css[r, k_r - 1] through the flat index r d + k_r - 1
    tau = css.reshape(-1)[np.arange(-1, m * d - 1, d) + k] / k
    tau[A.sum(axis=1) <= radius] = 0.0
    A -= tau[:, None]
    np.maximum(A, 0.0, out=A)
    A *= np.sign(M)
    return A


def fit(samples, cfg: PleConfig) -> FitReport:
    """Projected-gradient pseudolikelihood fit inside the row-l1 ball.

    Each iteration steps along the analytic gradient, re-symmetrizes the
    coupling, projects every row, and re-symmetrizes once more; backtracking
    halves the step until the objective does not increase, and the report
    counts those halvings. Convergence is declared when the projected
    update, scaled back by the step, drops under the tolerance. The fit is
    deterministic: cfg.seed plays no part in it.

    The samples are validated once and folded into their distinct rows, each
    weighted by its frequency; the weighted objective equals the sample
    average, so the result does not depend on row order or on repeating the
    whole sample. The parameters live in one (n, n+1) block [J | b], so the
    gradient is one product against [X | 1] and the step, the
    symmetrizations and the projection each act on the whole block. One
    exponential per iterate gives both the loss and the sigmoid the next
    gradient reads, and one row-wise sort projects every row at once.
    """
    X, counts = np.unique(_spin_matrix(samples), axis=0, return_counts=True)
    w = counts / counts.sum()
    n = X.shape[1]
    Xa, C = _design(X, w)
    X2 = 2.0 * X

    def margins(P):
        return (Xa @ P.T) * X2

    # smoothness of the per-row logistic loss is bounded by the mean squared
    # sample norm, n for spins (the 2x design factor cancels against
    # sigma' <= 1/4)
    base_step = cfg.step if cfg.step is not None else 0.5 / n
    P = np.zeros((n, n + 1))
    loss, s = _margin_kernel(margins(P), w)
    converged = False
    iterations = backtracks = 0
    for iterations in range(1, cfg.max_iters + 1):
        G = _block_gradient(s, C, Xa)
        step = base_step
        for _ in range(40):
            # diag(G) = 0, so the step, both symmetrizations and the
            # projection keep diag(J) = 0
            Pn = P - step * G
            _symmetrize(Pn)
            Pn = _project_rows(Pn, cfg.radius)
            _symmetrize(Pn)
            new_loss, sn = _margin_kernel(margins(Pn), w)
            if new_loss <= loss + 1e-12:
                break
            step *= 0.5
            backtracks += 1
        D = Pn - P
        moved = math.sqrt(np.vdot(D, D)) / step
        P, s, loss = Pn, sn, new_loss
        if moved <= cfg.tolerance:
            converged = True
            break
    J, b = P[:, :-1], P[:, -1]
    # the final symmetrization can nudge a row past the budget; one global
    # rescale restores feasibility without breaking symmetry
    worst = float((np.abs(J).sum(axis=1) + np.abs(b)).max())
    if worst > cfg.radius:
        P *= cfg.radius / worst
        loss = _margin_kernel(margins(P), w)[0]
    return FitReport(
        model=IsingModel(J, b),
        radius=cfg.radius,
        objective=loss,
        iterations=iterations,
        converged=converged,
        backtracks=backtracks,
    )


def conditional_kl_diagnostic(truth: IsingModel, fitted: IsingModel, eval_samples) -> float:
    """Monte Carlo estimate of the mean per-coordinate conditional KL.

    Averages (1/n) sum_i KL(truth(X_i | X_~i) || fitted(X_i | X_~i)) over the
    evaluation samples. Zero iff the conditionals agree on every sample.
    """
    if truth.n != fitted.n:
        raise ValueError("models disagree on dimension")
    X = _spin_matrix(eval_samples, truth.n)
    at = 2.0 * (X @ truth.J.T + truth.b)
    af = 2.0 * (X @ fitted.J.T + fitted.b)
    # KL(p||q) written with log-sigmoids for stability at extreme conditionals
    kl = expit(at) * (log_expit(at) - log_expit(af)) + expit(-at) * (
        log_expit(-at) - log_expit(-af)
    )
    return float(kl.sum(axis=1).mean() / truth.n)


def trajectory_kl(truth: IsingModel, fitted: IsingModel, steps: int) -> float:
    """Exact KL between t-step discrete Glauber trajectory laws.

    Both chains start from the truth's stationary law pi; the truth chain
    runs its own kernel P, the fitted chain its own kernel Q (one update: a
    uniform coordinate, heat-bath resampled). P keeps pi, so the KL chain
    rule gives the path KL at any horizon t as

        KL(path_P || path_Q) = t * sum_x pi(x) KL(P(x, .) || Q(x, .)).

    From x a step flips spin i with probability expit(-u_i(x)) / n (u the
    pseudolikelihood margins) and stays put otherwise, so each row costs
    O(n) and only the 2^n states are enumerated (n <= 20).
    """
    if truth.n != fitted.n:
        raise ValueError("models disagree on dimension")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    S = states_matrix(truth.n)
    pi = exact_distribution(truth).probs
    u, v = (_margins(model.J, model.b, S) for model in (truth, fitted))
    # stay probability (1/n) sum_i expit(u_i), free of the cancellation in
    # 1 - sum of the flip probabilities
    one = rel_entr(expit(-u), expit(-v)).sum(axis=1) / truth.n + rel_entr(
        expit(u).mean(axis=1), expit(v).mean(axis=1)
    )
    return float(steps * (pi @ one))


def _check_certifiable(n: int) -> None:
    if n > MAX_CERTIFY_SPINS:
        raise CapacityError(
            f"exact certification supports up to {MAX_CERTIFY_SPINS} spins, got {n}"
        )


def certify_terminal_tv(
    fitted: IsingModel, truth: IsingModel, mu0: FiniteDistribution, horizon: float
) -> float:
    """Exact TV between the fitted chain's law at the horizon, started from
    mu0, and the truth's stationary law, via the semigroup action of the
    fitted generator."""
    _check_certifiable(truth.n)
    return _terminal_tv(build_glauber_generator(exact_distribution(fitted)), truth, mu0, horizon)


def _terminal_tv(
    gen: GeneratorMatrix, truth: IsingModel, mu0: FiniteDistribution, horizon: float
) -> float:
    """`certify_terminal_tv` given the fitted chain's generator."""
    terminal = evolve_distribution(gen, mu0, horizon)
    return tv_distance(terminal, exact_distribution(truth))


def learn_and_sample(
    truth: IsingModel, m_fit: int, m_init: int, cfg: PleConfig, horizon: float
) -> LearnReport:
    """Fit from samples, start Glauber from fresh data, certify terminal TV.

    The terminal TV is `certify_terminal_tv` from the empirical law of the
    initialization, and the balance statistic comes from the bottom
    eigenpairs of the same fitted generator, built once for both. Both are
    exact, so a truth above MAX_CERTIFY_SPINS raises CapacityError before
    anything is drawn or fitted.
    """
    if m_fit < 1 or m_init < 1:
        raise ValueError("need at least one fitting and one initialization sample")
    if not horizon >= 0.0:
        raise ValueError("horizon must be nonnegative")
    _check_certifiable(truth.n)
    fit_set = SampleSet(sample_exact(truth, m_fit, cfg.seed))
    report = fit(fit_set, cfg)
    eps = conditional_kl_diagnostic(truth, report.model, fit_set)
    report = replace(report, epsilon_hat=eps)
    init = sample_exact(truth, m_init, cfg.seed + 1)
    gen = build_glauber_generator(exact_distribution(report.model))
    mu0 = empirical_distribution(init, truth.n)
    bal = balance_statistic(eigendecompose(gen, 2), mu0, k=2)
    tv = _terminal_tv(gen, truth, mu0, horizon)
    return LearnReport(fit=report, horizon=horizon, tv=tv, exact=True, balance=bal)
