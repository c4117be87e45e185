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
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import CapacityError, ParseError
from .measures import (
    MAX_EXACT_STATES,
    MAX_STATES,
    FiniteDistribution,
    _check_state_count,
    _header,
    _numbers,
    _Record,
    _row,
    _softmax,
)
from .rng import make_rng


@dataclass(frozen=True, eq=False)
class IsingModel(_Record):
    """Pairwise spin model: pi(x) ~ exp((1/2) x'Jx + b'x), J symmetric, diag 0.

    Two models are equal when their couplings and fields agree entrywise.
    """

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

    @property
    def q(self) -> int:
        return 2

    def _tilts(self, fields) -> tuple["IsingModel", ...]:
        """One model per row h of `fields`: this coupling, shared without a
        second check, with the field b + h. The tilts also share the pair
        energies (1/2) x'Jx of their laws, computed by the first one that
        needs them."""
        b = self.b + np.asarray(fields, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.n:
            raise ValueError(f"field rows have shape {b.shape}, expected (k, {self.n})")
        if not np.all(np.isfinite(b)):
            raise ValueError("couplings and fields must be finite")
        b.setflags(write=False)
        pairs: dict = {}
        out = []
        for row in b:
            model = object.__new__(IsingModel)
            object.__setattr__(model, "J", self.J)
            object.__setattr__(model, "b", row)
            object.__setattr__(model, "_pairs", pairs)
            out.append(model)
        return tuple(out)


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


# ---------------------------------------------------------------------------
# state indexing


_cache_lock = threading.RLock()
_states_cache: dict[int, np.ndarray] = {}
_onehot_cache: dict[tuple[int, int], np.ndarray] = {}


def _shared(cache: dict, key, states: int, build):
    """``build()`` once per key, kept in `cache` and shared between callers
    and threads, when the structure spans at most 2^14 states; a larger one
    is built afresh on every call. `build` returns read-only arrays.

    Builds run under one reentrant lock, so each key is built once and a
    build may itself look up another shared structure.
    """
    if states > MAX_EXACT_STATES:
        return build()
    with _cache_lock:
        value = cache.get(key)
        if value is None:
            value = cache[key] = build()
    return value


def states_matrix(n: int) -> np.ndarray:
    """All 2^n spin configurations as a read-only (2^n, n) +-1 matrix, row
    x = state x.

    Up to 2^14 states (1.8 MB at n = 14) the matrix is built once per n and
    shared between callers and threads.
    """
    if n < 1 or 1 << n > MAX_STATES:
        raise CapacityError(f"cannot enumerate {n} spins: need n >= 1 and 2^n <= {MAX_STATES}")

    def build():
        S = index_to_spins(np.arange(1 << n), n)
        S.setflags(write=False)
        return S

    return _shared(_states_cache, n, 1 << n, build)


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


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First index, inverse and count of each group of equal rows, as
    `np.unique(rows, axis=0, ...)` returns them, from one stable lexsort
    (first column primary) and a scan for the boundaries between runs."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    counts = np.diff(np.append(np.flatnonzero(starts), order.size))
    return order[starts], group, counts


def _orbit_values(values: np.ndarray, first: np.ndarray, orbit: np.ndarray) -> np.ndarray | None:
    """The one test of site-permutation symmetry: the representative rows
    `values[first]` when every row i lies within tol = 1e-12 max|values| of
    its orbit's, `values[first][orbit[i]]`, else None. Enumeration sums
    energies in a state-dependent order, so an exchangeable law's values
    spread by ~1e-14 relative and never agree bitwise. Representatives are a
    backward error of tol per entry: a summed exponent moves by at most tol,
    and a symmetric B with s stored entries per row and column has
    ||A - B||_2 <= s tol, which bounds its eigenvalues' distance from A's
    (Weyl) and its eigenvectors' residuals on A.
    """
    rep = values[first]
    if not np.abs(values - rep[orbit]).max() <= 1e-12 * np.abs(values).max():
        return None
    return rep


# ---------------------------------------------------------------------------
# exact quantities


def _features(model) -> np.ndarray:
    """Read-only feature rows of every state: an Ising state's spins, or a
    Potts state's site-major one-hot coloring, column i*q + c set where site
    i has color c (matching the kron(block, I_q) coupling), shared per
    (n, q) up to 2^14 states like `states_matrix`."""
    if isinstance(model, PottsModel):
        n, q = model.n, model.q

        def build():
            onehot = potts_digits(n, q)[:, :, None] == np.arange(q)
            onehot = onehot.reshape(q**n, n * q).astype(float)
            onehot.setflags(write=False)
            return onehot

        return _shared(_onehot_cache, (n, q), q**n, build)
    if isinstance(model, IsingModel):
        return states_matrix(model.n)
    raise TypeError(f"expected IsingModel or PottsModel, got {type(model).__name__}")


def _feature_coupling(model) -> tuple[np.ndarray, np.ndarray]:
    """Coupling J and field b of the energy (1/2) f'Jf + b'f on features f.

    For a Potts model agreement counts become the quadratic form
    (beta/n) (11' - I) (x) I_q, diagonal already zero, with no field.
    """
    if isinstance(model, PottsModel):
        block = (model.beta / model.n) * (np.ones((model.n, model.n)) - np.eye(model.n))
        return np.kron(block, np.eye(model.q)), np.zeros(model.n * model.q)
    if isinstance(model, IsingModel):
        return model.J, model.b
    raise TypeError(f"expected IsingModel or PottsModel, got {type(model).__name__}")


def _energies(model) -> np.ndarray:
    """log pi(x) + log Z for every state, the one energy of both model kinds:
    (1/2) f'Jf + b'f over `_features` f and `_feature_coupling` (J, b). The
    tilts of one `IsingModel._tilts` family share their pairs (1/2) f'Jf."""
    F = _features(model)
    J, b = _feature_coupling(model)

    def pairs():
        out = 0.5 * np.einsum("xi,xi->x", F @ J, F)
        out.setflags(write=False)
        return out

    shared = getattr(model, "_pairs", None)
    return (pairs() if shared is None else _shared(shared, "pairs", F.shape[0], pairs)) + F @ b


def exact_distribution(model) -> FiniteDistribution:
    """Full stationary law by state enumeration.

    Supports up to 20 spins (Ising) or q^n <= 2^20 states (Potts); beyond
    that a CapacityError is raised. Probabilities are normalized through
    log-sum-exp, so strong couplings do not overflow.
    """
    return FiniteDistribution(_softmax(_energies(model)))


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
    if not 0.0 <= bulk_spread < math.inf:
        raise ValueError(f"bulk_spread must be finite and nonnegative, got {bulk_spread}")
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


def _ensemble_rounds(model: IsingModel, X: np.ndarray, counts, rng) -> np.ndarray:
    """Advance each row of X by its own number of heat-bath updates.

    Rows are visited in descending order of their update counts, so the rows
    still updating in a round are a prefix of that order. Every round draws
    one coordinate and one uniform for all rows in row order, whether or not
    the row still updates, so each row's stream does not depend on the other
    rows' counts.
    """
    R = X.shape[0]
    order = np.argsort(-counts, kind="stable")
    live = np.searchsorted(-counts[order], -np.arange(counts.max() if R else 0))
    Xs = X[order]
    for size in live:
        pick = order[:size]
        coords = rng.integers(0, model.n, R)[pick]
        unifs = rng.random(R)[pick]
        rows = np.take(model.J, coords, axis=0)
        z = np.einsum("rj,rj->r", rows, Xs[:size]) + model.b[coords]
        Xs[np.arange(size), coords] = np.where(unifs < expit(2.0 * z), 1.0, -1.0)
    X[order] = Xs
    return X


def glauber_ensemble_continuous(
    model: IsingModel, X0, T: float, seed: int
) -> np.ndarray:
    """Terminal states of independent continuous-time heat-bath runs to T.

    Row r of X0 starts replica r. Each site carries a unit-rate clock, so a
    replica makes Poisson(nT) updates, each at a uniform coordinate; only
    the final configuration is kept. The seed reproduces every replica bit
    for bit.
    """
    X = np.array(X0, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n:
        raise ValueError(f"replica matrix has shape {X.shape}, expected (R, {model.n})")
    if not np.all(np.abs(X) == 1.0):
        raise ValueError("replica starts must be +-1 valued")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"horizon must be finite and >= 0, got {T!r}")
    rng = make_rng(seed, "glauber")
    counts = rng.poisson(model.n * T, X.shape[0]) if T > 0.0 else np.zeros(X.shape[0], int)
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
    _check_state_count(1 << n)
    if not np.all(np.abs(X) == 1.0):
        raise ValueError("samples must be +-1 valued")
    counts = np.bincount(spins_to_index(X), minlength=1 << n)
    return FiniteDistribution(counts / X.shape[0])


def dump_ising_model(model: IsingModel) -> str:
    """Serialize to ``ising v1 <n>``: n coupling rows, then the field row."""
    lines = [f"ising v1 {model.n}", *map(_row, model.J), _row(model.b)]
    return "\n".join(lines) + "\n"


def load_ising_model(text: str) -> IsingModel:
    (n,), body = _header(text, "ising", 1, "model")
    if len(body) != n + 1:
        raise ParseError(f"expected {n + 1} rows, found {len(body)}")
    rows = np.array([_numbers(ln, n) for ln in body])
    try:
        return IsingModel(rows[:n], rows[n])
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
