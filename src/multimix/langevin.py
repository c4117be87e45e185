"""Continuous-space mixture targets with exact scores and discretized Langevin.

The targets are finite mixtures of Gaussian components. All regularity
numbers attached to a mixture are exact rather than estimated: smoothness is
read off precision spectra, the strong-convexity floor likewise, and the
separation scale is the largest distance between component means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import ParseError
from .measures import SampleSet, _header, _logsumexp, _numbers, _readonly, _Record, _row
from .rng import make_rng

# Any coordinate beyond this aborts its chain; the threshold sits far above
# every concentration radius a supported mixture can produce.
DIVERGENCE_GUARD = 1e8

# perturb_score's field: this many sinusoidal waves, with frequencies drawn
# uniformly from this range in units of one over the mixture's footprint
_NOISE_WAVES = 8
_NOISE_FREQ = (0.2, 1.0)


def _as_batch(x, d: int):
    """Promote a single point to a one-row batch; report which it was."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != d:
            raise ValueError(f"point has dimension {arr.shape[0]}, expected {d}")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == d:
        return arr, False
    raise ValueError(f"expected shape (n, {d}) or ({d},), got {arr.shape}")


class GaussianComponent:
    """Normalized Gaussian density with exact potential, gradient and sampler."""

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError("covariance shape does not match the mean")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        self._build(mean, cov, chol)

    @classmethod
    def _from_factor(cls, mean, chol: np.ndarray) -> "GaussianComponent":
        """Rebuild around a stored lower Cholesky factor, kept verbatim:
        refactoring its product can move the factor by an ulp."""
        comp = cls(mean, chol @ chol.T)
        if not (np.array_equal(chol, np.tril(chol)) and np.diag(chol).min() > 0.0):
            raise ValueError("covariance factor must be lower triangular, positive diagonal")
        comp._build(comp.mean, comp.cov, chol)
        return comp

    def _build(self, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray) -> None:
        d = mean.size
        self.mean = mean
        self.cov = cov
        self._chol = chol
        # transposed inverse Cholesky factor: (x - mean) @ _whiten is white
        self._whiten = np.ascontiguousarray(
            scipy.linalg.solve_triangular(chol, np.eye(d), lower=True).T
        )
        self.precision = np.ascontiguousarray(
            scipy.linalg.cho_solve((chol, True), np.eye(d))
        )
        spread = scipy.linalg.eigvalsh(cov)
        self.alpha = 1.0 / spread[-1]
        self.beta = 1.0 / spread[0]
        self._log_norm = 0.5 * d * math.log(2.0 * math.pi) + float(
            np.log(np.diag(chol)).sum()
        )
        for a in (self.mean, self.cov, self.precision, self._whiten):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mean.size

    def potential(self, X: np.ndarray) -> np.ndarray:
        return self._potential_at(X - self.mean)

    def grad(self, X: np.ndarray) -> np.ndarray:
        return np.dot(X - self.mean, self.precision)

    def _potential_at(self, z: np.ndarray) -> np.ndarray:
        y = np.dot(z, self._whiten)
        return 0.5 * np.einsum("nd,nd->n", y, y) + self._log_norm

    def _potential_and_grad(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Potential and gradient at X from one offset X - mean."""
        z = X - self.mean
        return self._potential_at(z), np.dot(z, self.precision)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # np.dot, not @: matmul takes a non-BLAS loop for (N, 1) x (1, 1)
        return self.mean + np.dot(rng.standard_normal((count, self.dim)), self._chol.T)


class MixtureModel:
    """Weighted mixture of Gaussian components with exact score and regularity.

    Weights must be positive and sum to one. The smoothness bound is the
    largest component smoothness, the convexity floor the smallest component
    floor, and the separation scale the largest distance between component
    means.
    """

    def __init__(self, weights, components: Sequence):
        weights = np.asarray(weights, dtype=float).reshape(-1)
        components = tuple(components)
        if weights.size == 0 or weights.size != len(components):
            raise ValueError("need one positive weight per component")
        # negated comparisons, so that NaN weights fail too
        if not weights.min() > 0.0:
            raise ValueError("weights must be positive")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must sum to one")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise ValueError("components must share one dimension")
        means = np.stack([c.mean for c in components])
        separation = 0.0
        for i in range(len(components)):
            for j in range(i):
                separation = max(separation, float(np.linalg.norm(means[i] - means[j])))
        weights.setflags(write=False)
        self.weights = weights
        self._log_weights = tuple(math.log(p) for p in weights)
        self.components = components
        self.separation = separation
        self.beta = max(c.beta for c in components)
        self.alpha = min(c.alpha for c in components)

    @property
    def d(self) -> int:
        return self.components[0].dim

    @property
    def k(self) -> int:
        return len(self.components)

    def _component_logs(self, potentials) -> np.ndarray:
        """log(weight_j) - potential_j, one row per component."""
        out = np.empty((self.k, potentials[0].size))
        for row, log_w, pot in zip(out, self._log_weights, potentials):
            np.subtract(log_w, pot, out=row)
        return out

    def log_density(self, x) -> np.ndarray | float:
        X, single = _as_batch(x, self.d)
        logs = self._component_logs([c.potential(X) for c in self.components])
        out = _logsumexp(logs, axis=0, overwrite=True)
        return float(out[0]) if single else out

    def potential(self, x) -> np.ndarray | float:
        return -self.log_density(x)

    def score(self, x) -> np.ndarray:
        X, single = _as_batch(x, self.d)
        if not np.isfinite(X).all():
            raise ValueError("score requested at a non-finite point")
        potentials, grads = zip(*(c._potential_and_grad(X) for c in self.components))
        # posterior weights by an in-place softmax over the component axis;
        # with one component they are exactly 1.0, so the score is exactly -grad
        post = self._component_logs(potentials)
        post -= post.max(axis=0)
        np.exp(post, out=post)
        post /= post.sum(axis=0)
        out = -post[0][:, None] * grads[0]
        for p, g in zip(post[1:], grads[1:]):
            out -= p[:, None] * g
        return out[0] if single else out

    def max_gradient(self, x) -> np.ndarray | float:
        """Largest component gradient norm at x, the local score envelope."""
        X, single = _as_batch(x, self.d)
        norms = np.stack(
            [np.linalg.norm(c.grad(X), axis=1) for c in self.components]
        ).max(axis=0)
        return float(norms[0]) if single else norms

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        labels = rng.choice(self.k, size=count, p=self.weights)
        out = np.empty((count, self.d))
        for c, comp in enumerate(self.components):
            mask = labels == c
            hits = int(mask.sum())
            if hits:
                out[mask] = comp.sample(rng, hits)
        return out


def sample_mixture(model: MixtureModel, count: int, seed: int) -> SampleSet:
    """Draw stationary samples, the raw material for data-based starts."""
    return SampleSet(model.sample(count, make_rng(seed, "init")))


_FIELD_KINDS = ("exact", "perturbed", "submixture")


@dataclass(frozen=True)
class ScoreField:
    """A score evaluator together with where it came from.

    Perturbed fields carry the stationary L2 error level they were scaled to.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    kind: str
    epsilon: float | None = None
    subset: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _FIELD_KINDS:
            raise ValueError(f"unknown score field kind {self.kind!r}")
        if self.kind == "perturbed" and self.epsilon is None:
            raise ValueError("perturbed fields must report their error level")

    def evaluate(self, x) -> np.ndarray:
        return self.fn(x)


def exact_score(model: MixtureModel) -> ScoreField:
    return ScoreField(fn=model.score, kind="exact")


def _unit_rows(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    rows = rng.standard_normal((count, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def perturb_score(
    model: MixtureModel,
    epsilon: float,
    seed: int = 0,
) -> ScoreField:
    """Exact score plus a random smooth field rescaled to stationary L2 size
    epsilon: a fixed random combination of a few low-frequency sinusoidal
    vector fields, reproducible from the seed. Frequencies live below one over
    the mixture's footprint, the separation scale plus one component
    standard-deviation radius, so the field varies slowly where the mass
    sits. The scale takes E_pi |f|^2 of f(x) = sum_w m_w sin(omega_w . x +
    phi_w) in closed form, drawing no samples: sin A sin B = (cos(A - B) -
    cos(A + B)) / 2, and E cos(nu . x + c) = cos(nu . mu + c) exp(-nu' Sigma
    nu / 2) under N(mu, Sigma), for nu = omega_v -+ omega_w."""
    # negated comparison, so that NaN fails too
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("perturbation size must be nonnegative and finite")
    if epsilon == 0.0:
        return exact_score(model)
    rng = make_rng(seed)
    d = model.d
    footprint = model.separation + math.sqrt(d / model.alpha)
    values = _unit_rows(rng, _NOISE_WAVES, d)
    omegas = _unit_rows(rng, _NOISE_WAVES, d)
    omegas = omegas * (rng.uniform(*_NOISE_FREQ, _NOISE_WAVES)[:, None] / footprint)
    phases = rng.uniform(0.0, 2.0 * math.pi, _NOISE_WAVES)
    amps = rng.standard_normal(_NOISE_WAVES)

    freqs = np.ascontiguousarray(omegas.T)
    mix = amps[:, None] * values

    def field(X: np.ndarray) -> np.ndarray:
        return np.dot(np.sin(np.dot(X, freqs) + phases), mix)

    raw = _mean_square(model, omegas, phases, mix)
    if raw < 1e-16:
        raise ValueError("perturbation field is degenerate on this target")
    scale = epsilon / math.sqrt(raw)

    def fn(x):
        X, single = _as_batch(x, d)
        out = model.score(X) + scale * field(X)
        return out[0] if single else out

    return ScoreField(fn=fn, kind="perturbed", epsilon=float(epsilon))


def _mean_square(model: MixtureModel, omegas, phases, mix) -> float:
    """Exact E_pi |f|^2 of `perturb_score`'s field (see its docstring)."""
    gram = mix @ mix.T
    total = 0.0
    for sign in (-1.0, 1.0):
        nu = omegas[:, None, :] + sign * omegas[None, :, :]
        shift = phases[:, None] + sign * phases[None, :]
        for p, comp in zip(model.weights, model.components):
            spread = np.dot(nu, comp._chol)
            decay = np.exp(-0.5 * np.einsum("vwd,vwd->vw", spread, spread))
            terms = gram * np.cos(np.dot(nu, comp.mean) + shift) * decay
            total -= 0.5 * sign * p * float(terms.sum())
    return total


def submixture(model: MixtureModel, subset) -> MixtureModel:
    """Renormalized mixture over a component subset."""
    idx = sorted({int(i) for i in subset})
    if not idx:
        raise ValueError("component subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= model.k:
        raise ValueError("component subset out of range")
    w = model.weights[idx]
    return MixtureModel(w / w.sum(), [model.components[i] for i in idx])


def submixture_score_error(model: MixtureModel, subset, samples: SampleSet) -> float:
    """Monte Carlo estimate of the stationary mean squared score change from
    dropping the complement of the subset."""
    sub = submixture(model, subset)
    X = samples.data
    diff = model.score(X) - sub.score(X)
    return float(np.mean(np.einsum("nd,nd->n", diff, diff)))


def submixture_score(model: MixtureModel, subset) -> ScoreField:
    sub = submixture(model, subset)
    return ScoreField(
        fn=sub.score, kind="submixture", subset=tuple(sorted({int(i) for i in subset}))
    )


@dataclass(frozen=True)
class LmcConfig:
    """Step size and horizon in the same time units; the horizon must be an
    integer number of steps."""

    step: float
    horizon: float
    seed: int
    chains: int = 1

    def __post_init__(self):
        # negated comparisons, so that NaN and infinite values fail too
        if not 0.0 < self.step < math.inf:
            raise ValueError("step size must be positive and finite")
        if not 0.0 <= self.horizon < math.inf:
            raise ValueError("horizon must be nonnegative and finite")
        if self.chains < 1:
            raise ValueError("need at least one chain")
        # a subnormal step can overflow the step count to infinity
        if not self.horizon / self.step < math.inf:
            raise ValueError("the step count must be finite")
        n = round(self.horizon / self.step)
        if abs(n * self.step - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon must be an integer number of steps")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.step)


@dataclass(frozen=True, eq=False)
class LmcResult(_Record):
    """Terminal points, one per chain, plus which chains tripped the guard.

    A chain is flagged when a coordinate leaves [-DIVERGENCE_GUARD,
    DIVERGENCE_GUARD] or turns non-finite. A flagged chain froze at its first
    offending state and took no further steps, so its row records where the
    blow-up happened.
    """

    samples: SampleSet
    flagged: np.ndarray

    def __post_init__(self):
        flagged = _readonly(self.flagged, dtype=bool)
        if flagged.shape != (self.samples.n,):
            raise ValueError("need one flag per chain")
        object.__setattr__(self, "flagged", flagged)

    @property
    def chains(self) -> int:
        return self.samples.n


def lmc_run(init, score: ScoreField, cfg: LmcConfig) -> LmcResult:
    """Euler discretization of the overdamped Langevin diffusion.

    Every chain starts at a uniformly chosen row of the initialization (a
    SampleSet or an (n, d) array of rows; a 1-D array is a single point),
    then takes cfg.steps moves of x + step*s(x) + sqrt(2*step)*noise in
    lockstep. Noise is drawn for the full ensemble each step, so a chain's
    path depends only on the seed and the chain count, never on when other
    chains trip the guard.
    """
    pool = init.data if isinstance(init, SampleSet) else np.atleast_2d(np.asarray(init, float))
    if pool.ndim != 2 or pool.shape[0] == 0:
        raise ValueError(f"expected a point or a nonempty (n, d) array, got shape {pool.shape}")
    rng = make_rng(cfg.seed, "lmc")
    x = pool[rng.integers(0, pool.shape[0], cfg.chains)]
    flagged = np.zeros(cfg.chains, dtype=bool)
    # every chain until one is flagged; a basic slice updates x in place
    live = slice(None)
    spread = math.sqrt(2.0 * cfg.step)
    for _ in range(cfg.steps):
        noise = rng.standard_normal(x.shape)
        x[live] += cfg.step * np.asarray(score.evaluate(x[live]))
        x[live] += spread * noise[live]
        # written as a negated <= so that a non-finite row is flagged too;
        # the per-row flags are taken only when the global check fires
        if not np.abs(x).max() <= DIVERGENCE_GUARD:
            flagged |= ~(np.abs(x).max(axis=1) <= DIVERGENCE_GUARD)
            live = ~flagged
            if not live.any():
                break
    return LmcResult(SampleSet(x), flagged)


def dump_mixture(model: MixtureModel) -> str:
    """Render a mixture as versioned text: per component a weight line, the
    mean and the rows of the lower Cholesky factor of the covariance."""
    lines = [f"mixture v1 {model.d} {model.k}"]
    for p, comp in zip(model.weights, model.components):
        lines.append(f"gaussian {_row([p])}")
        lines.extend(map(_row, [comp.mean, *comp._chol]))
    return "\n".join(lines) + "\n"


def load_mixture(text: str) -> MixtureModel:
    (d, k), body = _header(text, "mixture", 2, "mixture")
    lines = iter(body)

    def take() -> str:
        line = next(lines, None)
        if line is None:
            raise ParseError("mixture file ended early")
        return line

    weights, factors = [], []
    for _ in range(k):
        line = take()
        if line.split()[0] != "gaussian":
            raise ParseError(f"bad component line {line!r}")
        (weight,) = _numbers(line[len("gaussian") :], 1)
        weights.append(weight)
        mean = _numbers(take(), d)
        factors.append((mean, np.array([_numbers(take(), d) for _ in range(d)])))
    if next(lines, None) is not None:
        raise ParseError("trailing data after the last component")
    try:
        return MixtureModel(weights, [GaussianComponent._from_factor(*f) for f in factors])
    except ValueError as exc:
        raise ParseError(f"invalid mixture: {exc}") from None
