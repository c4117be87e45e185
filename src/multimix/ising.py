"""Ising and Potts models with heat-bath Glauber dynamics.

Spin configurations live in {-1,+1}^n. State indices follow the package
convention: bit i of the index carries spin i, a set bit meaning +1. Potts
configurations on q colors use base-q indices, digit i giving the color of
site i.

Couplings use the convention pi(x) proportional to exp((1/2) x'Jx + b'x)
with J symmetric. The diagonal of J is zeroed at construction: on {-1,+1}^n
it only shifts the normalizer, and dropping it makes J identifiable.

The samplers here run the dynamics; its rate matrix and spectrum come from
``spectral.build_glauber_generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, softmax

from .errors import CapacityError, ParseError
from .measures import MAX_STATES, FiniteDistribution, _readonly
from .rng import make_rng

MAX_EXACT_SPINS = 20


@dataclass(frozen=True)
class IsingModel:
    """Pairwise spin model: pi(x) ~ exp((1/2) x'Jx + b'x), J symmetric, diag 0."""

    J: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        J = np.array(self.J, dtype=float)
        b = np.array(self.b, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {J.shape}")
        n = J.shape[0]
        if n < 1:
            raise ValueError("need at least one spin")
        if b.shape != (n,):
            raise ValueError(f"field vector has shape {b.shape}, expected ({n},)")
        if not (np.all(np.isfinite(J)) and np.all(np.isfinite(b))):
            raise ValueError("couplings and fields must be finite")
        asym = np.abs(J - J.T).max() if n > 1 else 0.0
        if asym > 1e-12:
            raise ValueError(f"coupling matrix asymmetry {asym!r} exceeds 1e-12")
        J = 0.5 * (J + J.T)
        np.fill_diagonal(J, 0.0)
        J.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.J.shape[0]


@dataclass(frozen=True)
class PottsModel:
    """Mean-field Potts: pi(x) ~ exp((beta/n) * #{i<j : x_i = x_j}) on q colors."""

    n: int
    q: int
    beta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one site")
        if self.q < 2:
            raise ValueError(f"need at least 2 colors, got {self.q}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"inverse temperature must be finite and >= 0, got {self.beta!r}")


@dataclass(frozen=True)
class GlauberTrajectory:
    """One continuous-time heat-bath run: states[j] holds from times[j] on.

    Each resampling event touches one coordinate, so consecutive states
    differ in at most one spin (a resample may keep the old value). The clock
    starts at 0 and is strictly increasing; the seed reproduces the run
    bit for bit.
    """

    times: np.ndarray
    states: np.ndarray
    seed: int

    def __post_init__(self):
        t = _readonly(self.times)
        s = _readonly(self.states)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.size:
            raise ValueError("need one state row per event time")
        if t.size < 1 or t[0] != 0.0:
            raise ValueError("trajectory must start at time 0")
        if t.size > 1 and np.diff(t).min() <= 0.0:
            raise ValueError("event times must be strictly increasing")
        if not np.all(np.abs(s) == 1.0):
            raise ValueError("states must be +-1 valued")
        if s.shape[0] > 1:
            flips = (np.abs(np.diff(s, axis=0)) > 0).sum(axis=1)
            if flips.max() > 1:
                raise ValueError("consecutive states differ in more than one spin")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# ---------------------------------------------------------------------------
# state indexing


def states_matrix(n: int) -> np.ndarray:
    """All 2^n spin configurations as a (2^n, n) +-1 matrix, row x = state x."""
    if n < 1 or n > MAX_EXACT_SPINS:
        raise CapacityError(f"state enumeration supports 1..{MAX_EXACT_SPINS} spins, got {n}")
    return index_to_spins(np.arange(1 << n), n)


def spins_to_index(x):
    """Index of each spin row (last axis); inverse of index_to_spins."""
    x = np.asarray(x)
    return (x > 0).astype(np.int64) @ (1 << np.arange(x.shape[-1], dtype=np.int64))


def index_to_spins(index, n: int) -> np.ndarray:
    """Spin rows of one index or an array of them: shape index.shape + (n,)."""
    idx = np.asarray(index, dtype=np.int64)
    return (((idx[..., None] >> np.arange(n)) & 1) * 2 - 1).astype(float)


def index_to_digits(index, n: int, q: int) -> np.ndarray:
    """Base-q color rows of one index or an array of them, digit i = site i."""
    idx = np.asarray(index, dtype=np.int64)
    return (idx[..., None] // (q ** np.arange(n, dtype=np.int64))) % q


def potts_digits(n: int, q: int) -> np.ndarray:
    """All q^n color configurations as a (q^n, n) integer matrix."""
    if q**n > MAX_STATES:
        raise CapacityError(f"q^n = {q}**{n} exceeds the {MAX_STATES} state cap")
    return index_to_digits(np.arange(q**n), n, q)


# ---------------------------------------------------------------------------
# exact quantities


def ising_energy_vector(model: IsingModel) -> np.ndarray:
    """log pi(x) + log Z for every state, i.e. (1/2) x'Jx + b'x."""
    S = states_matrix(model.n)
    return 0.5 * np.einsum("xi,xi->x", S @ model.J, S) + S @ model.b


def potts_energy_vector(model: PottsModel) -> np.ndarray:
    D = potts_digits(model.n, model.q)
    counts = (D[:, :, None] == np.arange(model.q)).sum(axis=1)
    pairs = 0.5 * (counts * (counts - 1)).sum(axis=1)
    return (model.beta / model.n) * pairs


def _energy_vector(model) -> np.ndarray:
    if isinstance(model, IsingModel):
        return ising_energy_vector(model)
    if isinstance(model, PottsModel):
        return potts_energy_vector(model)
    raise TypeError(f"expected IsingModel or PottsModel, got {type(model).__name__}")


def exact_distribution(model) -> FiniteDistribution:
    """Full stationary law by state enumeration.

    Supports up to 20 spins (Ising) or q^n <= 2^20 states (Potts); beyond
    that a CapacityError is raised. Probabilities are normalized through
    log-sum-exp, so strong couplings do not overflow.
    """
    return FiniteDistribution(softmax(_energy_vector(model)))


# ---------------------------------------------------------------------------
# model constructors


def curie_weiss(n: int, beta: float) -> IsingModel:
    """Uniform ferromagnet J = (beta/n)(11' - I), zero field."""
    if n < 1:
        raise ValueError("need at least one spin")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"inverse temperature must be finite and >= 0, got {beta!r}")
    J = (beta / n) * (np.ones((n, n)) - np.eye(n))
    return IsingModel(J, np.zeros(n))


def mean_field_potts(n: int, q: int, beta: float) -> PottsModel:
    return PottsModel(n=n, q=q, beta=beta)


def low_rank_ising(
    n: int, r: int, top_eigs, bulk_spread: float, seed: int
) -> IsingModel:
    """Random zero-field model whose coupling matrix has r prescribed top
    eigenvalues.

    The remaining n-r eigenvalues are drawn uniformly with half-width
    ``bulk_spread`` and then shifted in lockstep so the full spectrum sums
    to zero; a zero trace is forced by the zero diagonal, so the bulk
    location is not a free parameter, only its dispersion. The requested top
    eigenvalues are reproduced exactly (to rotation round-off, ~1e-14): the
    matrix is built by conjugating diag(spectrum) with Givens rotations that
    zero the diagonal one entry at a time, which leaves eigenvalues intact.
    """
    if n < 1:
        raise ValueError("need at least one spin")
    top = np.sort(np.asarray(top_eigs, dtype=float))[::-1]
    if top.size != r:
        raise ValueError(f"expected {r} top eigenvalues, got {top.size}")
    if r < 0 or r > n:
        raise ValueError(f"rank {r} out of range for {n} spins")
    if r == n:
        raise ValueError("rank must leave room for bulk eigenvalues (r < n)")
    if bulk_spread < 0.0:
        raise ValueError("bulk_spread must be nonnegative")
    rng = make_rng(seed, "init")
    bulk = rng.uniform(-bulk_spread, bulk_spread, n - r)
    bulk -= (top.sum() + bulk.sum()) / (n - r)
    if r > 0 and bulk.max() >= top.min():
        raise ValueError(
            f"shifted bulk reaches {bulk.max():.4g}, touching the smallest "
            f"requested top eigenvalue {top.min():.4g}; reduce bulk_spread"
        )
    lam = np.concatenate([top, bulk])
    M = np.diag(lam).copy()
    # Givens sweep: zero diagonal entries one by one; each rotation is an
    # orthogonal similarity, so the spectrum never moves.
    for i in range(n - 1):
        a = M[i, i]
        if abs(a) < 1e-15:
            continue
        rest = np.arange(i + 1, n)
        j = rest[np.argmin(np.sign(a) * M[rest, rest])]
        bjj = M[j, j]
        d = M[i, j]
        # choose t = tan(theta) with a + t^2 bjj - 2 t d = 0, smaller |t| root
        disc = math.sqrt(d * d - a * bjj)
        t = (d - disc) / bjj if abs(d - disc) < abs(d + disc) else (d + disc) / bjj
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        G = np.eye(n)
        G[i, i] = G[j, j] = c
        G[i, j] = s
        G[j, i] = -s
        M = G.T @ M @ G
    M = 0.5 * (M + M.T)
    np.fill_diagonal(M, 0.0)
    # randomize the realization: signed-permutation conjugation keeps both
    # the spectrum and the zero diagonal
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], n)
    M = (signs[:, None] * signs[None, :]) * M[np.ix_(perm, perm)]
    return IsingModel(M, np.zeros(n))


# ---------------------------------------------------------------------------
# dynamics


def _validate_config(model: IsingModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"configuration has shape {x.shape}, expected ({model.n},)")
    if not np.all(np.abs(x) == 1.0):
        raise ValueError("configuration entries must be +-1")
    return x


def conditional_prob(model: IsingModel, x, i: int) -> float:
    """P(x_i = +1 | the other spins) for the heat-bath update."""
    x = _validate_config(model, x)
    if not 0 <= i < model.n:
        raise ValueError(f"coordinate {i} out of range for n={model.n}")
    # diag(J) = 0, so the dot product never sees x_i itself
    return float(expit(2.0 * (model.J[i] @ x + model.b[i])))


def glauber_step_discrete(
    model: IsingModel, x, rng: np.random.Generator
) -> np.ndarray:
    """One discrete update: uniform coordinate, heat-bath resample.

    Consumes exactly one integer and one uniform from the generator, so
    trajectories are reproducible bit for bit from the seed.
    """
    x = _validate_config(model, x).copy()
    i = int(rng.integers(model.n))
    p = expit(2.0 * (model.J[i] @ x + model.b[i]))
    x[i] = 1.0 if rng.random() < p else -1.0
    return x


def glauber_run_continuous(model: IsingModel, x0, T: float, seed: int) -> GlauberTrajectory:
    """Continuous-time run to horizon T with unit-rate coordinate clocks.

    The total number of resampling events is Poisson(nT); event times are
    sorted uniforms on [0, T] and each event picks its coordinate uniformly,
    which realizes n independent unit-rate clocks.
    """
    x = _validate_config(model, x0)
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"horizon must be finite and >= 0, got {T!r}")
    rng = make_rng(seed, "glauber")
    count = int(rng.poisson(model.n * T)) if T > 0.0 else 0
    times = np.sort(rng.uniform(0.0, T, count))
    coords = rng.integers(0, model.n, count)
    unifs = rng.random(count)
    states = np.empty((count + 1, model.n))
    states[0] = x
    cur = x.copy()
    for j in range(count):
        i = coords[j]
        p = expit(2.0 * (model.J[i] @ cur + model.b[i]))
        cur[i] = 1.0 if unifs[j] < p else -1.0
        states[j + 1] = cur
    return GlauberTrajectory(
        times=np.concatenate([[0.0], times]), states=states, seed=seed
    )


def _ensemble_rounds(model: IsingModel, X: np.ndarray, counts, rng) -> np.ndarray:
    """Advance each row of X by its own number of heat-bath updates."""
    rows = np.arange(X.shape[0])
    rounds = int(counts.max()) if len(counts) else 0
    for step in range(rounds):
        coords = rng.integers(0, model.n, X.shape[0])
        unifs = rng.random(X.shape[0])
        active = counts > step
        if not active.any():
            break
        z = np.einsum("rj,rj->r", model.J[coords[active]], X[active]) + model.b[coords[active]]
        flips = np.where(unifs[active] < expit(2.0 * z), 1.0, -1.0)
        X[rows[active], coords[active]] = flips
    return X


def glauber_ensemble_continuous(
    model: IsingModel, X0, T: float, seed: int
) -> np.ndarray:
    """Terminal states of many independent continuous-time runs.

    Only the final configuration of each replica is kept; update counts are
    Poisson(nT) per replica as in glauber_run_continuous.
    """
    X = np.array(X0, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n:
        raise ValueError(f"replica matrix has shape {X.shape}, expected (R, {model.n})")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"horizon must be finite and >= 0, got {T!r}")
    rng = make_rng(seed, "glauber")
    counts = rng.poisson(model.n * T, X.shape[0]) if T > 0.0 else np.zeros(X.shape[0], int)
    return _ensemble_rounds(model, X, counts, rng)


def glauber_ensemble_discrete(model: IsingModel, X0, steps: int, seed: int) -> np.ndarray:
    """Terminal states after a fixed number of discrete updates per replica."""
    X = np.array(X0, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n:
        raise ValueError(f"replica matrix has shape {X.shape}, expected (R, {model.n})")
    if steps < 0:
        raise ValueError("step count must be >= 0")
    rng = make_rng(seed, "glauber")
    counts = np.full(X.shape[0], steps)
    return _ensemble_rounds(model, X, counts, rng)


# ---------------------------------------------------------------------------
# sampling and files


def sample_exact(model, count: int, seed: int) -> np.ndarray:
    """Independent exact samples by full enumeration of the stationary law.

    Returns spin rows for Ising models and color rows for Potts models.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    dist = exact_distribution(model)
    rng = make_rng(seed, "init")
    idx = rng.choice(dist.m, size=count, p=dist.probs)
    if isinstance(model, IsingModel):
        return index_to_spins(idx, model.n)
    return index_to_digits(idx, model.n, model.q)


def empirical_distribution(X, n: int) -> FiniteDistribution:
    """Empirical law of spin configurations as a distribution over indices."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"sample matrix has shape {X.shape}, expected (count, {n})")
    if not np.all(np.abs(X) == 1.0):
        raise ValueError("samples must be +-1 valued")
    counts = np.bincount(spins_to_index(X), minlength=1 << n)
    return FiniteDistribution(counts / X.shape[0])


def dump_ising_model(model: IsingModel) -> str:
    """Serialize to ``ising v1 <n>``: n coupling rows, then the field row."""
    lines = [f"ising v1 {model.n}"]
    for row in model.J:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(" ".join(repr(float(v)) for v in model.b))
    return "\n".join(lines) + "\n"


def load_ising_model(text: str) -> IsingModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty model file")
    head = lines[0].split()
    if len(head) != 3 or head[:2] != ["ising", "v1"]:
        raise ParseError(f"bad header: {lines[0]!r}")
    try:
        n = int(head[2])
    except ValueError:
        raise ParseError(f"bad spin count: {head[2]!r}") from None
    if n < 1:
        raise ParseError(f"spin count must be positive, got {n}")
    if len(lines) != n + 2:
        raise ParseError(f"expected {n + 1} matrix rows, found {len(lines) - 1}")
    try:
        rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
    except ValueError:
        raise ParseError("non-numeric entry in model file") from None
    if any(len(r) != n for r in rows):
        raise ParseError("ragged row in model file")
    try:
        return IsingModel(np.array(rows[:n]), np.array(rows[n]))
    except ValueError as exc:
        raise ParseError(f"invalid model: {exc}") from None


def dump_samples(X) -> str:
    """One configuration per line, spins written as bare integers."""
    X = np.asarray(X)
    return "\n".join(" ".join(str(int(v)) for v in row) for row in X) + "\n"


def load_samples(text: str) -> np.ndarray:
    rows = []
    width = None
    for ln in text.splitlines():
        if not ln.strip():
            continue
        try:
            row = [float(int(v)) for v in ln.split()]
        except ValueError:
            raise ParseError(f"bad sample line: {ln!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("ragged sample file")
        rows.append(row)
    if not rows:
        raise ParseError("empty sample file")
    X = np.array(rows)
    if not np.all(np.abs(X) == 1.0):
        raise ParseError("samples must be +-1 valued")
    return X
