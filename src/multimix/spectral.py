"""Spectral analysis of heat-bath Glauber dynamics on spin and q-colour spaces.

The continuous-time generator L acts on functions, with unit-rate coordinate
clocks and heat-bath rates pi(y) / pi(G) for a single-site move x -> y inside
the group G of states that agree with x off that site (for spins, the flip
rate pi(x^i) / (pi(x) + pi(x^i))). This module is the one place that builds
it. Everything here works with its symmetrization A = D^{1/2} (-L) D^{-1/2},
D = diag(pi): A is symmetric positive semidefinite, its eigenvalues are the
relaxation rates, and D^{-1/2} maps its eigenvectors to eigenfunctions of -L
that are orthonormal in L^2(pi). The bottom eigenfunction is the constant 1.

State indexing matches the package convention: bit i of the index is spin i,
and with q colours digit i (base q) is the colour of site i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import CapacityError
from .ising import _orbit_values, _shared, empirical_distribution, index_to_digits, states_matrix
from .measures import MAX_EXACT_STATES, FiniteDistribution, SampleSet, _readonly, _Record

# law-independent structure, built once per (n, q) or n by ``ising._shared``
_patterns: dict = {}
_cubes: dict = {}
_harmonics: dict = {}

# eigenvectors are checked, scaled and sign-fixed this many columns at a time
_COLUMN_BLOCK = 64


@dataclass(frozen=True, eq=False)
class GeneratorMatrix(_Record):
    """Symmetrized negative generator together with its stationary law.

    A is stored as a read-only ``scipy.sparse.csr_array`` in canonical form
    (sorted indices, no duplicates, no stored zeros); a dense or sparse
    square matrix is accepted and converted. Validated at construction in
    O(nnz): finite entries, symmetry to 1e-10, nonpositive off-diagonal
    entries, nonnegative diagonal, and A sqrt(pi) = 0 within 1e-8 (the
    constant function is harmonic). The last two conditions pin the row
    structure of the underlying rate matrix: row sums vanish and jump rates
    are nonnegative. Two generators are equal when their laws and stored
    entries agree exactly.
    """

    A: scipy.sparse.csr_array
    pi: FiniteDistribution

    def __post_init__(self):
        A = scipy.sparse.csr_array(self.A, dtype=float, copy=True)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"generator must be square, got shape {A.shape}")
        m = A.shape[0]
        if m != self.pi.m:
            raise ValueError(f"generator size {m} does not match state count {self.pi.m}")
        A.sum_duplicates()
        A.eliminate_zeros()
        if not np.all(np.isfinite(A.data)):
            raise ValueError("generator entries must be finite")
        T = A.T.tocsr()
        if np.array_equal(T.indptr, A.indptr) and np.array_equal(T.indices, A.indices):
            # a symmetric pattern: the difference lives on the stored entries
            asym = np.abs(A.data - T.data).max(initial=0.0)
        else:
            asym = abs(A - T).max()
        if not asym <= 1e-10:
            raise ValueError(f"asymmetry {asym!r} exceeds 1e-10")
        rows = np.repeat(np.arange(m), np.diff(A.indptr))
        if not A.data[A.indices != rows].max(initial=0.0) <= 1e-12:
            raise ValueError("off-diagonal entries must be nonpositive")
        if not A.diagonal().min() >= -1e-12:
            raise ValueError("diagonal entries must be nonnegative")
        drift = np.abs(A @ np.sqrt(self.pi.probs)).max()
        if not drift <= 1e-8:
            raise ValueError(f"A sqrt(pi) = 0 violated by {drift!r}")
        for arr in (A.data, A.indices, A.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def rate_matrix(self) -> np.ndarray:
        """The generator L itself as a dense array (acting on functions; row
        sums vanish)."""
        sq = np.sqrt(self.pi.probs)
        return -(self.A.toarray() * (sq[None, :] / sq[:, None]))


@dataclass(frozen=True, eq=False)
class Spectrum(_Record):
    """Bottom eigenvalues and pi-orthonormal eigenfunctions of -L.

    Eigenvalues ascend, the first is zero (to 1e-8) with eigenfunction
    identically one, and the eigenfunction matrix F (one column per
    eigenfunction) satisfies F' diag(pi) F = I within 1e-8; a NaN anywhere
    fails these checks. Columns are sign-fixed: the entry of largest magnitude,
    read before ``eigendecompose`` centres the column, is positive. Two spectra
    are equal when their laws, eigenvalues and eigenfunctions agree exactly.

    The constructor stores read-only copies of the arrays it is given.
    ``eigendecompose`` instead hands over the buffers it built and no one
    else holds (``_adopt``), which skips that m x k copy; both run the same
    checks. The checks hold F, the pi-scaled copy of F and the k x k Gram
    at once: three m x k buffers for a full spectrum.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    pi: FiniteDistribution

    def __post_init__(self):
        self._check(_readonly(self.eigenvalues), _readonly(self.eigenfunctions))

    @classmethod
    def _adopt(cls, w: np.ndarray, F: np.ndarray, pi: FiniteDistribution) -> "Spectrum":
        """A spectrum over float arrays that the caller built and hands
        over: they are made read-only, not copied, and checked as the
        constructor checks them."""
        w.setflags(write=False)
        F.setflags(write=False)
        spec = object.__new__(cls)
        object.__setattr__(spec, "pi", pi)
        spec._check(w, F)
        return spec

    def _check(self, w: np.ndarray, F: np.ndarray) -> None:
        if w.ndim != 1 or w.size < 1:
            raise ValueError("need at least one eigenvalue")
        if F.shape != (self.pi.m, w.size):
            raise ValueError(
                f"eigenfunction matrix has shape {F.shape}, expected ({self.pi.m}, {w.size})"
            )
        if w.size > 1 and not np.diff(w).min() >= -1e-12:
            raise ValueError("eigenvalues must ascend")
        if not abs(w[0]) <= 1e-8:
            raise ValueError(f"bottom eigenvalue {w[0]!r} is not 0 within 1e-8")
        if not w.min() >= -1e-8:
            raise ValueError("negative relaxation rate")
        # a Gram of one operand with itself, which numpy hands to BLAS syrk;
        # the deviation from I is formed in place
        G = F * np.sqrt(self.pi.probs)[:, None]
        G = G.T @ G
        G.flat[:: w.size + 1] -= 1.0
        err = np.abs(G, out=G).max()
        if not err <= 1e-8:
            raise ValueError(f"eigenfunctions not pi-orthonormal: deviation {err!r}")
        if not np.abs(F[:, 0] - 1.0).max() <= 1e-6:
            raise ValueError("bottom eigenfunction must be the constant 1")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenfunctions", F)

    @property
    def m(self) -> int:
        return self.pi.m

    @property
    def k(self) -> int:
        return self.eigenvalues.size

    @property
    def is_full(self) -> bool:
        return self.k == self.m


@dataclass(frozen=True, eq=False)
class BalanceStatistic(_Record):
    """The initialization's overlap with eigenfunctions 2..k: coefficient i
    is the mean of eigenfunction i under the initialization, a finite 1-D
    array of k - 1 entries. `k` and the Euclidean size `value` follow from it."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = _readonly(self.coefficients)
        if not (c.ndim == 1 and np.isfinite(c).all()):
            raise ValueError(f"coefficients must be a finite 1-D array, got {c!r}")
        object.__setattr__(self, "coefficients", c)

    @property
    def k(self) -> int:
        return self.coefficients.size + 1

    @property
    def value(self) -> float:
        return float(np.linalg.norm(self.coefficients))


@dataclass(frozen=True, eq=False)
class ContractionReport(_Record):
    """The exact chi-square decay `lhs` at `times` and the inputs of its
    envelope: the balance `epsilon` over eigenfunctions 2..k, the rate
    `alpha` = lambda_{k+1} and `chi0` = chi2(mu0 || pi). The envelope
    `bound` = epsilon^2 + exp(-2 alpha t) chi0 and the verdict `holds`
    (lhs <= bound + 1e-9 at every time) follow from them."""

    times: np.ndarray
    lhs: np.ndarray
    epsilon: float
    alpha: float
    chi0: float

    def __post_init__(self):
        times, lhs = _readonly(self.times), _readonly(self.lhs)
        if not (times.ndim == 1 and lhs.shape == times.shape):
            raise ValueError("times and lhs must be 1-D arrays of one length")
        if not (np.isfinite(times).all() and np.isfinite(lhs).all()):
            raise ValueError("times and lhs must be finite")
        for name in ("epsilon", "chi0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        # a relaxation rate, which a Spectrum admits down to -1e-8
        if not (math.isfinite(self.alpha) and self.alpha >= -1e-8):
            raise ValueError(f"alpha must be finite and >= -1e-8, got {self.alpha!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "lhs", lhs)

    @property
    def bound(self) -> np.ndarray:
        return self.epsilon**2 + np.exp(-2.0 * self.alpha * self.times) * self.chi0

    @property
    def holds(self) -> bool:
        return bool(np.all(self.lhs <= self.bound + 1e-9))


def build_glauber_generator(pi: FiniteDistribution, q: int = 2) -> GeneratorMatrix:
    """Symmetrized heat-bath generator for a stationary law on q values per site.

    Each site carries a unit-rate clock and, when it rings, resamples its
    value from pi conditioned on the other sites: the move x -> y within the
    group G of states agreeing with x off that site has rate pi(y) / pi(G).
    States are indexed in base q, digit i giving the value of site i; for
    q = 2 that is the package spin convention (bit i is spin i). The CSR
    matrix is filled row by row from the per-site neighbour maps, each row
    holding its diagonal and its n (q - 1) neighbours; that sparsity
    structure depends on (n, q) only and is built once per pair. There is no
    state cap here beyond FiniteDistribution's enumeration cap.

    Parameters
    ----------
    pi : FiniteDistribution
        Target law over all q^n configurations, n derived from the state
        count. Must be strictly positive: the heat-bath rates divide by
        pi(G), and a chain restricted to a sub-support is a different object.
    q : int
        Values per site: 2 for spins, the colour count for Potts chains.

    Raises
    ------
    ValueError
        If q < 2, the state count is not a power of q, or pi has zero entries.
    """
    if q < 2:
        raise ValueError(f"need at least 2 values per site, got q={q}")
    m = pi.m
    n, size = 0, 1
    while size < m:
        n, size = n + 1, size * q
    if size != m:
        raise ValueError(f"state count {m} is not a power of {'two' if q == 2 else q}")
    if n < 1:
        raise ValueError("need at least one site")
    if pi.probs.min() <= 0.0:
        raise ValueError("stationary law must have full support (zero entries found)")
    nbs, gather, indices, indptr = _heat_bath_pattern(n, q)
    p = pi.probs
    sq = np.sqrt(p)
    # row 0 of the fill is the diagonal, rows 1 + i (q - 1) onwards hold the
    # q - 1 neighbours across site i; each state is one column
    vals = np.empty((1 + n * (q - 1), m))
    diag = np.zeros(m)
    for i, nb in enumerate(nbs):
        total = p + p[nb].sum(axis=0)
        vals[1 + i * (q - 1) : 1 + (i + 1) * (q - 1)] = -sq * sq[nb] / total
        diag += (p[nb] / total).sum(axis=0)
    vals[0] = diag
    A = scipy.sparse.csr_array((vals.ravel()[gather], indices, indptr), shape=(m, m))
    return GeneratorMatrix(A=A, pi=pi)


def _heat_bath_pattern(n: int, q: int):
    """Sparsity structure of the heat-bath generator on q^n states, which
    depends on (n, q) only, built once per pair: per site i the (q - 1, m)
    map from each state to its neighbours with site i moved on by 1..q-1,
    the gather that takes the fill (diagonal row, then the neighbour rows
    site by site, one column per state) to row-major CSR data with sorted
    columns, and the CSR indices and indptr."""

    def build():
        m = q**n
        idx = np.arange(m)
        # block i, row s - 1: each state with the digit of site i moved on by s
        digits = index_to_digits(idx, n, q).T[:, None, :]
        moved = ((digits + np.arange(1, q)[:, None]) % q - digits) * q ** np.arange(n)[:, None, None]
        cols = np.vstack([idx, (idx + moved).reshape(-1, m)])
        gather = (np.argsort(cols, axis=0) * m + idx).T.ravel()
        indices = cols.ravel()[gather]
        indptr = np.arange(0, cols.size + 1, cols.shape[0])
        for arr in (cols, gather, indices, indptr):
            arr.setflags(write=False)
        nbs = tuple(cols[1 + i * (q - 1) : 1 + (i + 1) * (q - 1)] for i in range(n))
        return nbs, gather, indices, indptr

    return _shared(_patterns, (n, q), q**n, build)


def _reversal_symmetric(A: scipy.sparse.csr_array) -> bool:
    """Whether A commutes bitwise with the state reversal x -> m - 1 - x.

    On a canonical CSR array, reading the stored entries backwards walks the
    reversed matrix in row-major order, so the test is O(nnz)."""
    counts = np.diff(A.indptr)
    return (
        np.array_equal(counts, counts[::-1])
        and np.array_equal(A.indices, A.shape[0] - 1 - A.indices[::-1])
        and np.array_equal(A.data, A.data[::-1])
    )


def _cube(n: int):
    """Structure of the n-cube that the sector route needs, built once per n.

    Returns the level (up-spin count) of each state; the raising operator U
    as CSR, (U f)(x) = sum of f(x - i) over i in x; and, for each entry of
    the generator pattern (x and its n neighbours, sorted), its slot in the
    vector [a_0 .. a_{n-1}, d_0 .. d_n] of level entries (see
    ``_exchangeable_levels``): a row at level p holds p lower neighbours
    (slot p - 1), then x (slot n + p), then n - p upper ones (slot p).
    """

    def build():
        m = 1 << n
        ups = states_matrix(n) > 0
        level = ups.sum(axis=1)
        rows, bit = np.nonzero(ups)
        up = scipy.sparse.csr_array(
            (np.ones(rows.size), rows ^ (1 << bit), np.append(0, np.cumsum(level))), shape=(m, m)
        )
        place = np.arange(n + 1)
        slot = level[:, None] - (place < level[:, None])
        slot[place == level[:, None]] = n + level
        for arr in (level, up.data, up.indices, up.indptr, slot):
            arr.setflags(write=False)
        return level, up, slot

    return _shared(_cubes, n, 1 << n, build)


def _harmonic_basis(n: int, j: int, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The states of level j and an orthonormal basis of the weight-j
    harmonics on them, built once per (n, j) from the cube's state levels.

    The basis is the kernel of D'D for the map D from j-sets to the
    (j-1)-sets inside them: D'D is j on the diagonal and 1 where two j-sets
    share j - 1 elements, and its other eigenvalues are at least n - 2j + 2.
    The bottom eigenvectors of that Gram matrix span the kernel, so no dense
    solve of order m is needed.
    """

    def build():
        base = np.flatnonzero(level == j)
        share = level[base[:, None] & base[None, :]] == j - 1
        mult = math.comb(n, j) - (math.comb(n, j - 1) if j else 0)
        phi = scipy.linalg.eigh(share + j * np.eye(base.size), subset_by_index=(0, mult - 1))[1]
        base.setflags(write=False)
        phi.setflags(write=False)
        return base, phi

    return _shared(_harmonics, (n, j), 1 << n, build)


def _exchangeable_levels(A: scipy.sparse.csr_array):
    """Level entries (d_p, a_p) of an exchangeable nearest-neighbour A and
    the `_cube` they were read with, for ``_sector_eigh``; or None.

    A qualifies when m = 2^n, row x stores exactly x and its n neighbours
    x ^ 2^i, every diagonal entry equals d_p = A[r_p, r_p] and every stored
    off-diagonal entry between levels p and p + 1 equals a_p = A[r_p, r_{p+1}],
    where p counts up spins and r_p = 2^p - 1 is the level representative.
    Equal is `ising._orbit_values`' test over the n + 1 stored entries of
    each row; O(nnz) on the canonical CSR form every GeneratorMatrix holds.
    """
    m = A.shape[0]
    n = m.bit_length() - 1
    if n < 1 or m != 1 << n or not np.array_equal(
        A.indptr, np.arange(0, m * (n + 1) + 1, n + 1)
    ):
        return None
    # canonical rows hold n + 1 distinct sorted columns, so they are exactly
    # x and its n neighbours when they match the heat-bath pattern
    if not np.array_equal(A.indices, _heat_bath_pattern(n, 2)[2]):
        return None
    # row r_p holds its p lower neighbours, itself, then r_{p+1} = r_p + 2^p:
    # d_p sits at flat position r_p (n + 1) + p of A.data, and a_p after it
    p = np.arange(n + 1)
    row = ((1 << p) - 1) * (n + 1) + p
    cube = _cube(n)
    levels = _orbit_values(A.data, np.append(row[:-1] + 1, row), cube[2].ravel())
    return None if levels is None else (levels[n:], levels[:n], cube)


def _sector_eigh(d: np.ndarray, a: np.ndarray, cube, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom k eigenpairs of an exchangeable nearest-neighbour A on the
    n-cube from its total-spin sectors (Dicke basis; the magnetisation-chain
    structure of Levin, Luczak and Peres, PTRF 2010).

    Index states by the set x of up spins and let U add one spin:
    (U f)(x) = sum of f(x - i) over i in x; `cube` is ``_cube(n)``, which
    holds the levels |x| and U. For a harmonic phi of weight j
    (a function on j-sets that sums to zero over the j-sets containing any
    (j-1)-set) the vectors U^t phi, t = 0..n-2j, span an A-invariant space
    on levels j..n-j where A acts as the tridiagonal block with diagonal d_p
    and off-diagonal a_p sqrt((p-j+1)(n-j-p)), p = j+t. The harmonics of
    weight j have dimension C(n,j) - C(n,j-1), which is the multiplicity of
    each block eigenvalue. A stable sort merges all of them, ties broken by
    (j, block eigenvector, harmonic index). Only the selected sectors are
    lifted: v(x) = y_{|x|-j} U^t phi(x) / ||U^t phi||, with an orthonormal
    harmonic basis phi (see ``_harmonic_basis``) and
    ||U^t phi||^2 = prod_{s<t} (s+1)(n-2j-s).
    """
    n = a.size
    sectors, w_all, key = [], [], []
    for j in range(n // 2 + 1):
        p = np.arange(j, n - j)
        off = a[p] * np.sqrt((p - j + 1.0) * (n - j - p))
        # LAPACK stevd, which eigh_tridiagonal calls after checks that cost
        # more than these tiny solves; its wrapper wants a nonempty off-diagonal
        w, y, info = scipy.linalg.lapack.dstevd(d[j : n - j + 1], off if off.size else [0.0])
        if info:
            raise np.linalg.LinAlgError(f"stevd failed on total-spin sector {j} (info {info})")
        mult = math.comb(n, j) - (math.comb(n, j - 1) if j else 0)
        b, h = np.divmod(np.arange(w.size * mult), mult)
        sectors.append(y)
        w_all.append(w[b])
        key.append(np.column_stack([np.full(b.size, j), b, h]))
    w_all, key = np.concatenate(w_all), np.concatenate(key)
    order = np.argsort(w_all, kind="stable")[:k]
    m = 1 << n
    level, up, _ = cube
    # built transposed, one row per eigenvector, so each sector's rows are a
    # contiguous gather; the transpose hands back column-major vectors
    vt = np.empty((order.size, m))
    for j in np.unique(key[order, 0]):
        picked = np.flatnonzero(key[order, 0] == j)
        b, h = key[order[picked], 1], key[order[picked], 2]
        y = sectors[j]
        base, phi = _harmonic_basis(n, int(j), level)
        harmonics, which = np.unique(h, return_inverse=True)
        lift = np.zeros((m, harmonics.size))
        lift[base] = phi[:, harmonics]
        step = lift
        for t in range(n - 2 * j):
            step = (up @ step) / math.sqrt((t + 1) * (n - 2 * j - t))
            lift += step
        # each block eigenvector as a function of the level, zero off j..n-j
        profile = np.zeros((y.shape[1], n + 1))
        profile[:, j : n - j + 1] = y.T
        vt[picked] = profile[b][:, level] * lift.T[which]
    return w_all[order], vt.T


def _eigh(M: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom k eigenpairs of a dense symmetric temporary, overwritten in
    place when it is Fortran-ordered: divide and conquer (LAPACK syevd) for
    all of them, the subset driver (syevr) otherwise, which syevd lacks."""
    if k == M.shape[0]:
        return scipy.linalg.eigh(M, driver="evd", overwrite_a=True)
    return scipy.linalg.eigh(M, subset_by_index=(0, k - 1), overwrite_a=True)


def _split_eigh(A: scipy.sparse.csr_array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom k eigenpairs of a centrosymmetric A of even order m from two
    half-size problems (Cantoni and Butler, Linear Algebra Appl. 13, 1976).

    With R the reversal of order h = m / 2 and A = [[B, C], [R C R, R B R]],
    the even eigenvectors are [u; R u] / sqrt 2 for the eigenvectors u of
    B + C R, the odd ones [u; -R u] / sqrt 2 for those of B - C R. Each half
    gives its bottom min(k, h) pairs and a stable sort merges them, even
    before odd on ties, so each half contributes a leading block of its
    ascending columns. Those are scaled in place and written straight into
    the column-major m x k result.
    """
    h = A.shape[0] // 2
    top = A[:h].toarray(order="F")
    mirror = top[:, h:][:, ::-1]  # C R
    (w_even, u_even), (w_odd, u_odd) = (
        _eigh(top[:, :h] + mirror, min(k, h)),
        _eigh(top[:, :h] - mirror, min(k, h)),
    )
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")[:k]
    even = order < w_even.size
    v = np.empty((2 * h, k), order="F")
    for u, sign, cols in (
        (u_even, 1.0, np.flatnonzero(even)),
        (u_odd, -1.0, np.flatnonzero(~even)),
    ):
        u = u[:, : cols.size]
        u *= math.sqrt(0.5)
        v[:h, cols] = u
        u *= sign
        v[h:, cols] = u[::-1]
    return w[order], v


def eigendecompose(gen: GeneratorMatrix, k_max: int | None = None) -> Spectrum:
    """Bottom-k eigenpairs of the symmetrized generator.

    Eigenvectors v of A are mapped to eigenfunctions f = D^{-1/2} v of -L,
    which makes them pi-orthonormal. The first route that applies is taken:

    1. Sectors. When A is an exchangeable nearest-neighbour generator on the
       n-cube (pi depends only on the number of up spins, as for Curie-Weiss,
       its Hubbard-Stratonovich components and the uniform law), A splits by
       total spin into tridiagonal blocks of order at most n + 1, solved by
       LAPACK stevd; no dense copy of A is made. Entries may differ from
       their level's value by the backward error of ``ising._orbit_values``.
    2. Even and odd halves. When A commutes bitwise with the state reversal
       x -> m - 1 - x and m is even, as for every spin law without a field,
       A is centrosymmetric and splits exactly into an even and an odd
       problem of order m / 2, which LAPACK solves densely for about a
       quarter of the unsplit cost.
    3. Otherwise (a per-site field, an odd state count such as a q = 3 Potts
       chain, or a symmetry that holds only up to rounding) LAPACK solves a
       dense copy of A whole.

    The largest array a route makes (the m x k eigenvectors on route 1, the
    m x m copy of A on routes 2 and 3) may hold at most MAX_EXACT_STATES^2
    entries; beyond that CapacityError is raised before any copy or solve.

    The routes agree on eigenvalues and on every eigenspace; inside a
    degenerate eigenspace each returns its own orthonormal basis (on the
    sector route each basis vector carries one harmonic). Either way the residuals
    ||A v - lambda v|| (equal to the pi-norm of the eigenfunction residual)
    are checked against 1e-7 with the sparse A, and Spectrum checks
    pi-orthonormality. A zero bottom eigenvalue gets the exact kernel
    sqrt(pi): the constant eigenfunction, and the other eigenvectors projected
    off sqrt(pi), which the solver's kernel vector misses by ~eps ||A||/lambda_2.

    Working memory: each route returns a column-major m x k eigenvector
    array of its own, which is checked, scaled, sign-fixed and centred in place,
    column block by column block, and handed to the Spectrum without a copy.
    The peak is about three m x k buffers, held while Spectrum checks
    orthonormality; the dense route's LAPACK call holds as much.
    """
    m = gen.m
    k = m if k_max is None else int(k_max)
    if not 1 <= k <= m:
        raise ValueError(f"k_max must lie in 1..{m}, got {k_max}")
    levels = _exchangeable_levels(gen.A)
    cols = m if levels is None else k
    if m * cols > MAX_EXACT_STATES**2:
        raise CapacityError(f"{m} x {cols} entries exceed the dense cap of {MAX_EXACT_STATES}^2")
    if levels is not None:
        w, F = _sector_eigh(*levels, k)
    elif m % 2 == 0 and _reversal_symmetric(gen.A):
        w, F = _split_eigh(gen.A, k)
    else:
        w, F = _eigh(gen.A.toarray(order="F"), k)
    kernel = abs(w[0]) <= 1e-8
    sq = np.sqrt(gen.pi.probs)[:, None]
    for start in range(0, k, _COLUMN_BLOCK):
        cols = slice(start, start + _COLUMN_BLOCK)
        v = F[:, cols]
        resid = gen.A @ v - v * w[None, cols]
        worst = float(np.sqrt((resid**2).sum(axis=0)).max())
        if not worst <= 1e-7:
            raise ValueError(f"eigenpair residual {worst!r} exceeds 1e-7")
        v /= sq  # the eigenfunctions D^{-1/2} v
        # deterministic signs, fixed before the centring so exact ties keep the lower index
        lead = np.abs(v).argmax(axis=0)
        v *= np.where(v[lead, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)[None, :]
        if kernel:
            # project off sqrt(pi): remove the pi-means c, leaving pi-norms sqrt(1 - c^2)
            u = F[:, max(start, 1) : start + _COLUMN_BLOCK]
            c = np.array([gen.pi.probs @ f for f in u.T])
            u -= c
            u /= np.sqrt(1.0 - c * c)
    if kernel:
        # writing the constant down beats dividing noise by tiny sqrt(pi)
        w[0] = 0.0
        F[:, 0] = 1.0
    return Spectrum._adopt(w, F, gen.pi)


def higher_order_gap(spectrum: Spectrum, k: int) -> float:
    """The (k+1)-st smallest relaxation rate, the decay rate left after the
    k slowest directions are discounted."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if spectrum.k < k + 1:
        raise ValueError(f"spectrum holds {spectrum.k} eigenvalues, need {k + 1}")
    return float(spectrum.eigenvalues[k])


def _coefficients(spectrum: Spectrum, mu0, *orders: int) -> list[np.ndarray]:
    """c_i = E_{mu0}[f_i] over eigenfunctions 2..k, one array per order k.
    The initialization may be a FiniteDistribution or a SampleSet of spin
    configurations, read once as its empirical law on the 2^n states."""
    m = spectrum.m
    if isinstance(mu0, SampleSet):
        if m & (m - 1):
            raise ValueError(
                f"a SampleSet is read as +-1 spins on 2^n states, but this spectrum "
                f"has {m} states; pass a FiniteDistribution instead"
            )
        mu0 = empirical_distribution(mu0.data, m.bit_length() - 1)
    elif not isinstance(mu0, FiniteDistribution):
        raise TypeError(f"expected FiniteDistribution or SampleSet, got {type(mu0).__name__}")
    if mu0.m != m:
        raise ValueError(f"state-space mismatch: {mu0.m} vs {m}")
    return [spectrum.eigenfunctions[:, 1:k].T @ mu0.probs for k in orders]


def balance_statistic(spectrum: Spectrum, mu0, k: int) -> BalanceStatistic:
    """Overlap of an initialization with eigenfunctions 2..k.

    The initialization may be a FiniteDistribution or a SampleSet of spin
    configurations (its empirical law is used). Coefficient i is
    E_{mu0}[f_i]. Under mu0 = pi every coefficient vanishes (orthogonality
    to the constant); a large value flags mass concentrated on few of the
    slow directions.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if spectrum.k < k:
        raise ValueError(f"spectrum holds {spectrum.k} eigenfunctions, need {k}")
    return BalanceStatistic(_coefficients(spectrum, mu0, k)[0])


def _require_full(spectrum: Spectrum, what: str) -> None:
    if not spectrum.is_full:
        raise ValueError(
            f"{what} needs the full spectrum ({spectrum.m} eigenpairs), got {spectrum.k}"
        )


def _check_times(times) -> np.ndarray:
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1 or t.size == 0:
        raise ValueError("need a nonempty 1-D array of times")
    if not np.all(np.isfinite(t)) or t.min() < 0.0:
        raise ValueError("times must be finite and >= 0")
    return t


def _chi2_at(spectrum: Spectrum, coeff: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.exp(-2.0 * np.outer(t, spectrum.eigenvalues[1:])) @ (coeff**2)


def chi2_trajectory(spectrum: Spectrum, mu0, times) -> np.ndarray:
    """Exact chi-square divergence of the evolved law against pi.

    chi2(mu_t || pi) = sum_{i >= 2} exp(-2 lambda_i t) c_i^2 with
    c_i = E_{mu0}[f_i]. The identity needs every eigenpair, so a partial
    spectrum is refused rather than silently truncated.
    """
    _require_full(spectrum, "chi2_trajectory")
    coeff = _coefficients(spectrum, mu0, spectrum.k)[0]
    return _chi2_at(spectrum, coeff, _check_times(times))


def evolve_distribution(gen: GeneratorMatrix, mu0: FiniteDistribution, t: float) -> FiniteDistribution:
    """Push an initial law through the semigroup: mu_t = mu0 e^{tL}.

    Computed as D^{1/2} exp(-tA) D^{-1/2} mu0 by the truncated Taylor action
    of Al-Mohy and Higham (``expm_multiply``) on the CSR generator at every
    horizon, with no eigendecomposition and no dense copy of A; the cost grows
    linearly in t ||A||_1. Long horizons draw from and advance numpy's global
    random state (scipy's ``onenormest``); the output was observed to be the
    same under different seeds, which nothing guarantees. Round-off can leave
    entries a hair below zero; anything past -1e-10 is treated as an error,
    the rest is clipped and renormalized.
    """
    if mu0.m != gen.m:
        raise ValueError(f"state-space mismatch: {mu0.m} vs {gen.m}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    sq = np.sqrt(gen.pi.probs)
    out = sq * scipy.sparse.linalg.expm_multiply(-t * gen.A, mu0.probs / sq)
    if out.min() < -1e-10:
        raise ValueError(f"evolution produced probability {out.min()!r}")
    out = np.clip(out, 0.0, None)
    return FiniteDistribution(out / out.sum())


def verify_balance_contraction(spectrum: Spectrum, mu0, k: int, times) -> ContractionReport:
    """Check the exact chi-square curve against its balance envelope.

    With c_i = E_{mu0}[f_i], every mode decays as exp(-2 lambda_i t), so
    chi2(mu_t || pi) <= epsilon^2 + exp(-2 lambda_{k+1} t) chi2(mu0 || pi),
    epsilon^2 being the sum of c_i^2 over eigenfunctions 2..k. With k = 1
    the balance term is empty and the envelope is the spectral-gap decay.
    """
    _require_full(spectrum, "verify_balance_contraction")
    t = _check_times(times)
    alpha = higher_order_gap(spectrum, k)
    # epsilon projects onto 2..k on its own and chi0 is the curve at t = 0,
    # so both equal balance_statistic and chi2_trajectory bit for bit; a
    # slice of the full product, or a row of a longer curve, rounds differently
    head, coeff = _coefficients(spectrum, mu0, k, spectrum.k)
    eps, chi0 = float(np.linalg.norm(head)), float(_chi2_at(spectrum, coeff, np.zeros(1))[0])
    return ContractionReport(t, _chi2_at(spectrum, coeff, t), eps, alpha, chi0)
