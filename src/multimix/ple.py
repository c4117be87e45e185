"""Constrained pseudolikelihood estimation and learn-then-sample certification.

The estimator maximizes the product of per-coordinate conditional likelihoods
over models whose rows satisfy an l1 budget (coupling row plus external
field). Fitting is projected gradient descent: step, re-symmetrize, project
each row onto the l1 ball, with backtracking so the objective never increases.
The objective depends on the data only through each distinct +-1 row and its
frequency, so the fit folds the samples into weighted distinct rows once and
iterates on those; one weighted margin kernel serves the loss and the
gradient. The companion diagnostics measure how far the fitted conditionals
are from the truth (per-coordinate KL) and push that error through trajectory
laws and terminal-law certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, log_expit, rel_entr

from .errors import CapacityError
from .ising import (
    IsingModel,
    MAX_EXACT_SPINS,
    empirical_distribution,
    exact_distribution,
    glauber_ensemble_continuous,
    sample_exact,
)
from .measures import FiniteDistribution, SampleSet, tv_distance
from .spectral import (
    BalanceStatistic,
    balance_statistic,
    build_glauber_generator,
    eigendecompose,
    evolve_distribution,
)

# largest trajectory tensor enumerated exactly: m^(t+1) entries
MAX_TRAJECTORY_TUPLES = 1 << 22

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
        if not self.radius > 0.0:
            raise ValueError("constraint radius must be positive")
        if self.step is not None and not self.step > 0.0:
            raise ValueError("step must be positive when given")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


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

    def __post_init__(self):
        if row_norms(self.model).max() > self.radius + 1e-8:
            raise ValueError("fitted model violates the row l1 constraint")
        if not (math.isfinite(self.objective) and self.objective >= 0.0):
            raise ValueError("objective must be finite and nonnegative")
        if self.epsilon_hat is not None and not self.epsilon_hat >= 0.0:
            raise ValueError("epsilon_hat must be nonnegative")


@dataclass(frozen=True)
class LearnReport:
    """End-to-end pipeline outcome: fit quality and certified terminal error."""

    fit: FitReport
    horizon: float
    tv: float
    exact: bool
    balance: BalanceStatistic | None

    def __post_init__(self):
        if not 0.0 <= self.tv <= 1.0 + 1e-12:
            raise ValueError("total variation must lie in [0, 1]")
        if self.horizon < 0.0:
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


def _weighted_loss(u: np.ndarray, w: np.ndarray) -> float:
    return float(w @ np.logaddexp(0.0, -u).sum(axis=1))


def _weighted_gradient(u: np.ndarray, w: np.ndarray, X: np.ndarray):
    W = -2.0 * w[:, None] * expit(-u) * X
    GJ = W.T @ X
    np.fill_diagonal(GJ, 0.0)
    return GJ, W.sum(axis=0)


def pseudolikelihood_loss(model: IsingModel, samples) -> float:
    """Negative average log conditional likelihood, summed over coordinates.

    Each term is softplus(-u) with u = 2 (J_i . x + b_i) x_i.
    """
    X = _spin_matrix(samples, model.n)
    return _weighted_loss(_margins(model.J, model.b, X), np.full(len(X), 1.0 / len(X)))


def pseudolikelihood_gradient(model: IsingModel, samples):
    """Analytic gradient of the loss in (J, b); the J block is not yet
    symmetrized (rows are independent logistic problems)."""
    X = _spin_matrix(samples, model.n)
    u = _margins(model.J, model.b, X)
    return _weighted_gradient(u, np.full(len(X), 1.0 / len(X)), X)


def _project_rows(J: np.ndarray, b: np.ndarray, radius: float):
    """Euclidean projection of each row of (|J_i|, |b_i|) onto the l1 ball,
    signs restored; entries tied at the threshold go to zero."""
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


def fit(samples, cfg: PleConfig) -> FitReport:
    """Projected-gradient pseudolikelihood fit inside the row-l1 ball.

    Each iteration steps along the analytic gradient, re-symmetrizes the
    coupling, projects every row, and re-symmetrizes once more; backtracking
    halves the step until the objective does not increase. Convergence is
    declared when the projected update, scaled back by the step, drops under
    the tolerance.

    The samples are validated once and folded into their distinct rows, each
    weighted by its frequency; the weighted objective equals the sample
    average, so the result does not depend on row order or on repeating the
    whole sample. The margins of each accepted iterate feed the next
    gradient.
    """
    X, counts = np.unique(_spin_matrix(samples), axis=0, return_counts=True)
    w = counts / counts.sum()
    n = X.shape[1]
    # smoothness of the per-row logistic loss is bounded by the mean squared
    # sample norm, n for spins (the 2x design factor cancels against
    # sigma' <= 1/4)
    base_step = cfg.step if cfg.step is not None else 0.5 / n
    J = np.zeros((n, n))
    b = np.zeros(n)
    u = _margins(J, b, X)
    loss = _weighted_loss(u, w)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        GJ, gb = _weighted_gradient(u, w, X)
        step = base_step
        for _ in range(40):
            Jn = J - step * GJ
            Jn = 0.5 * (Jn + Jn.T)
            np.fill_diagonal(Jn, 0.0)
            Jn, bn = _project_rows(Jn, b - step * gb, cfg.radius)
            Jn = 0.5 * (Jn + Jn.T)
            un = _margins(Jn, bn, X)
            new_loss = _weighted_loss(un, w)
            if new_loss <= loss + 1e-12:
                break
            step *= 0.5
        moved = math.sqrt(((Jn - J) ** 2).sum() + ((bn - b) ** 2).sum()) / step
        J, b, u, loss = Jn, bn, un, new_loss
        if moved <= cfg.tolerance:
            converged = True
            break
    # the final symmetrization can nudge a row past the budget; one global
    # rescale restores feasibility without breaking symmetry
    worst = float((np.abs(J).sum(axis=1) + np.abs(b)).max())
    if worst > cfg.radius:
        J *= cfg.radius / worst
        b *= cfg.radius / worst
        loss = _weighted_loss(_margins(J, b, X), w)
    return FitReport(
        model=IsingModel(J, b),
        radius=cfg.radius,
        objective=loss,
        iterations=iterations,
        converged=converged,
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

    Both chains start from the truth's stationary law; the truth chain runs
    its own kernel, the fitted chain its own. The full tuple law is
    enumerated, so only short trajectories on small models fit.
    """
    if truth.n != fitted.n:
        raise ValueError("models disagree on dimension")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    m = 1 << truth.n
    if m ** (steps + 1) > MAX_TRAJECTORY_TUPLES:
        raise CapacityError(
            f"trajectory law over {m}^{steps + 1} tuples exceeds the exact cap"
        )

    def kernel(model):
        # one discrete update (uniform coordinate, heat-bath resample)
        L = build_glauber_generator(exact_distribution(model)).rate_matrix()
        return np.eye(m) + L / model.n

    pi = exact_distribution(truth).probs
    P, Q = kernel(truth), kernel(fitted)
    tp = pi.copy()
    tq = pi.copy()
    for _ in range(steps):
        tp = tp[..., None] * P
        tq = tq[..., None] * Q
    # both kernels share the single-flip support pattern, so rel_entr never
    # sees a (positive, zero) pair
    return float(rel_entr(tp, tq).sum())


def certify_terminal_tv(model: IsingModel, mu0: FiniteDistribution, horizon: float) -> float:
    """Exact TV between the chain law at the horizon and the model's own
    stationary law, via the semigroup action of the generator."""
    if model.n > MAX_CERTIFY_SPINS:
        raise CapacityError(f"exact certification caps at n={MAX_CERTIFY_SPINS}")
    pi = exact_distribution(model)
    gen = build_glauber_generator(pi)
    return tv_distance(evolve_distribution(gen, mu0, horizon), pi)


def learn_and_sample(
    truth: IsingModel, m_fit: int, m_init: int, cfg: PleConfig, horizon: float
) -> LearnReport:
    """Fit from samples, start Glauber from fresh data, certify terminal TV.

    Exact certification (semigroup action of the fitted generator applied
    to the empirical initialization, compared against the true stationary
    law) runs for n <= 10. Larger models fall back to a Monte Carlo TV
    estimate over the initialization replicas and come back flagged
    exact=False with no balance data.
    """
    if m_fit < 1 or m_init < 1:
        raise ValueError("need at least one fitting and one initialization sample")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    fit_set = SampleSet(sample_exact(truth, m_fit, cfg.seed))
    report = fit(fit_set, cfg)
    eps = conditional_kl_diagnostic(truth, report.model, fit_set)
    report = replace(report, epsilon_hat=eps)
    init = sample_exact(truth, m_init, cfg.seed + 1)
    pi_truth = exact_distribution(truth)
    if truth.n <= MAX_CERTIFY_SPINS:
        mu0 = empirical_distribution(init, truth.n)
        gen = build_glauber_generator(exact_distribution(report.model))
        bal = balance_statistic(eigendecompose(gen, 2), SampleSet(init), k=2)
        terminal = evolve_distribution(gen, mu0, horizon)
        return LearnReport(
            fit=report,
            horizon=horizon,
            tv=tv_distance(terminal, pi_truth),
            exact=True,
            balance=bal,
        )
    if truth.n > MAX_EXACT_SPINS:
        raise CapacityError(f"cannot enumerate the true law beyond n={MAX_EXACT_SPINS}")
    finals = glauber_ensemble_continuous(report.model, init, horizon, cfg.seed + 2)
    tv = tv_distance(empirical_distribution(finals, truth.n), pi_truth)
    return LearnReport(fit=report, horizon=horizon, tv=tv, exact=False, balance=None)
