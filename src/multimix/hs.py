"""Mixture decomposition of low-rank spin models through auxiliary fields.

A spin Hamiltonian whose coupling matrix has only a few large eigenvalues
factors over those directions: integrating a Gaussian auxiliary field against
the remaining small-coupling model writes the Gibbs law, up to a bounded
multiplicative error, as a finite mixture of external-field tilts. This
module performs the split, builds the discrete field net with its weights,
certifies the multiplicative sandwich by full enumeration, and reweights the
net into an exact mixture once the certificate holds.

The pipeline is written once, over the feature map and energy that `ising`
owns (`ising._features`, `ising._energies`): an Ising state is its own
feature vector, a Potts state is its site-major one-hot coloring. Each split
enumerates its states once, and a field h tilts every state by <h, features>.
When the split's remainder energies and kept projections are invariant under
site permutations, the field-net quadrature sums over the orbits of that
group (up-spin counts, or colour counts) instead of over states; the mixture
law and its components stay per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.special import erfcx

from .errors import CapacityError, ParseError
from .ising import (
    IsingModel, PottsModel, _energies, _feature_coupling, _features, _group_rows, _orbit_values
)
from .measures import (
    MAX_EXACT_STATES,
    FiniteDistribution,
    _header,
    _logsumexp,
    _numbers,
    _readonly,
    _Record,
    _row,
    _softmax,
)

MAX_FIELDS = 1_000_000
MAX_NET_RANK = 3
# entries of one block of per-state work: states x quadrature nodes
_BLOCK_ENTRIES = 1 << 17

# Multiplicative sandwich accepted for the gap transfer: dpi2/dpi within
# [e^-3, e^3] on every state moves each Dirichlet form and each variance by
# at most e^3, so a spectral gap by at most e^6.
SANDWICH_LIMIT = math.exp(3.0)
GAP_TRANSFER = SANDWICH_LIMIT**-2


@dataclass(frozen=True, eq=False)
class SpectralSplit(_Record):
    """Coupling split J = J_plus + J_tilde at the threshold 1 - 1/c.

    The split's fields are its inputs, the model and c >= 1; everything else
    follows from one `eigh` of the model's feature coupling at construction
    and is read-only. J_plus collects the eigendirections with eigenvalue
    above `threshold` (its rank factorization is kept as `eigenvalues` and
    `basis`), J_tilde is the remainder, and `negative_trace` records the
    total magnitude of the negative part of the spectrum. The field-net
    weights enumerate the model's states once (`enumeration`) and group
    them into site-permutation orbits (`orbit_rows`, derived from that one
    enumeration). Two splits are equal when their models and c agree exactly.
    """

    model: object
    c: float

    def __post_init__(self):
        if not self.c >= 1.0:
            raise ValueError("threshold parameter c must be at least 1")
        object.__setattr__(self, "c", float(self.c))
        J, _ = _feature_coupling(self.model)
        vals, vecs = scipy.linalg.eigh(J)
        keep = vals > self.threshold
        eigenvalues = vals[keep]
        basis = vecs[:, keep]
        j_plus = (basis * eigenvalues) @ basis.T
        parts = dict(eigenvalues=eigenvalues, basis=basis, j_plus=j_plus, j_tilde=J - j_plus)
        for name, arr in parts.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "negative_trace", float(-vals[vals < 0.0].sum()) + 0.0)

    @property
    def threshold(self) -> float:
        return 1.0 - 1.0 / self.c

    @cached_property
    def enumeration(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feature rows of every state, base energies E0 under J_tilde (the
        model's energy less the kept quadratic form) and per-state
        projections onto the kept eigenbasis, computed once."""
        q, n = self.model.q, self.model.n
        if q**n > MAX_EXACT_STATES:
            raise CapacityError(f"{q}**{n} states exceed the exact cap")
        features = _features(self.model)
        proj = features @ self.basis
        base = _energies(self.model) - 0.5 * (proj * proj) @ self.eigenvalues
        for arr in (base, proj):
            arr.setflags(write=False)
        return features, base, proj

    @cached_property
    def orbit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Log weights and projections the field-net quadrature sums over:
        one row per site-permutation orbit when E0 and the projections are
        constant on every orbit, else the state rows of `enumeration`.

        An orbit holds the states of one per-site feature sum: the up-spin
        count of a spin state, the colour counts of a Potts state. Its row
        holds E0 + log|orbit| and the projection of its first state, so a
        log-sum-exp over orbit rows is one over states. Constant means within
        the tolerance of `ising._orbit_values`. A symmetry-breaking field or
        coupling, a low-rank kept space and an antiferromagnet's kept space
        orthogonal to 1 are not orbit-invariant and keep the state rows.
        """
        features, base, proj = self.enumeration
        sums = features.reshape(base.size, self.model.n, -1).sum(axis=1)
        first, orbit, counts = _group_rows(sums)
        e0, rep = (_orbit_values(arr, first, orbit) for arr in (base, proj))
        if e0 is None or rep is None:
            return base, proj
        rows = e0 + np.log(counts), rep
        for arr in rows:
            arr.setflags(write=False)
        return rows

    @property
    def r(self) -> int:
        return self.eigenvalues.size

    @property
    def dim(self) -> int:
        return self.j_plus.shape[0]


def split_spectrum(model, c: float) -> SpectralSplit:
    """Split the coupling spectrum at 1 - 1/c: `SpectralSplit(model, c)`.

    Directions with eigenvalue strictly above the threshold form the PSD
    low-rank part; everything else stays in the remainder. A PottsModel is
    first lifted to its one-hot feature coupling.
    """
    return SpectralSplit(model, c)


@dataclass(frozen=True, eq=False)
class FieldNet(_Record):
    """Discrete net of auxiliary fields with their mixture weights.

    Fields are full-dimension vectors living in the image of J_plus, on a
    uniform grid of the given mesh inside the radius. Weights are normalized.
    Two nets are equal when their fields, weights, radius and mesh agree
    exactly.
    """

    fields: np.ndarray
    weights: np.ndarray
    radius: float
    mesh: float

    def __post_init__(self):
        fields = _readonly(self.fields)
        weights = _readonly(self.weights)
        if fields.ndim != 2 or weights.shape != (fields.shape[0],):
            raise ValueError("need one weight per field vector")
        if weights.size == 0:
            raise ValueError("a field net needs at least one field")
        if fields.shape[0] > MAX_FIELDS:
            raise CapacityError(f"{fields.shape[0]} fields exceed the {MAX_FIELDS} cap")
        if not (weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be nonnegative and sum to one")
        if not self.mesh >= 0.0:
            raise ValueError("mesh must be nonnegative")
        norms = np.linalg.norm(fields, axis=1)
        if not norms.max() <= self.radius + 1e-9:
            raise ValueError("every field must lie within the net radius")
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "weights", weights)

    @property
    def count(self) -> int:
        return self.fields.shape[0]


def _net_radius(split: SpectralSplit, scale: float) -> float:
    lam1 = float(split.eigenvalues.max())
    lam_r = float(split.eigenvalues.min())
    r = split.r
    return (
        lam1 * scale
        + r * math.sqrt(lam1)
        + math.sqrt(lam1 * r * math.log(lam_r**-0.5 + scale))
    )


def _cell_log_masses(split: SpectralSplit, coords: np.ndarray, mesh: float) -> np.ndarray:
    """Log mass of each grid cell: the enumerated partition function of the
    remainder model against the Gaussian factor, integrated by the midpoint
    rule with three sub-nodes per direction. Each node's log-sum-exp runs
    over `split.orbit_rows`: the n + 1 up-spin counts of an exchangeable
    spin model or the C(n+q-1, q-1) colour counts of a Potts model rather
    than their 2^n or q^n states, and over the states otherwise."""
    r = split.r
    base, proj = split.orbit_rows
    offsets = np.meshgrid(*([np.array([-mesh / 3.0, 0.0, mesh / 3.0])] * r), indexing="ij")
    offsets = np.stack([o.ravel() for o in offsets], axis=1)
    nodes = (coords[:, None, :] + offsets[None, :, :]).reshape(-1, r)
    log_gauss = -0.5 * (nodes * nodes) @ (1.0 / split.eigenvalues)
    # Blocks of a multiple of 8 nodes within the entry budget, the last one
    # padded with zero nodes: OpenBLAS rounds a tail of 4 to 7 product
    # columns differently, and numpy sums a one-column block pairwise, so
    # whole blocks keep each node's value independent of the block size.
    width = max(8, _BLOCK_ENTRIES // base.size // 8 * 8)
    padded = np.zeros((-(-nodes.shape[0] // 8) * 8, r))
    padded[: nodes.shape[0]] = nodes
    log_z = np.empty(padded.shape[0])
    for lo in range(0, padded.shape[0], width):
        z = proj @ padded[lo : lo + width].T
        z += base[:, None]
        log_z[lo : lo + width] = _logsumexp(z, axis=0, overwrite=True)
    per_node = (log_z[: nodes.shape[0]] + log_gauss).reshape(coords.shape[0], -1)
    return _logsumexp(per_node, axis=1, overwrite=True) + r * math.log(mesh / 3.0)


def _grid_weights(split: SpectralSplit, radius: float, mesh: float):
    """Grid coordinates, normalized weights and the log of the raw net mass
    of the mesh grid cells within the radius."""
    r = split.r
    steps = math.floor(radius / mesh)
    if (2 * steps + 1) ** r > 8 * MAX_FIELDS:
        raise CapacityError("field grid exceeds the net capacity")
    grids = np.meshgrid(*([np.arange(-steps, steps + 1)] * r), indexing="ij")
    coords = mesh * np.stack([g.ravel() for g in grids], axis=1)
    coords = coords[np.linalg.norm(coords, axis=1) <= radius]
    if coords.shape[0] > MAX_FIELDS:
        raise CapacityError(f"{coords.shape[0]} fields exceed the {MAX_FIELDS} cap")
    log_cells = _cell_log_masses(split, coords, mesh)
    return coords, _softmax(log_cells), float(_logsumexp(log_cells))


def _tail_to_bulk(split: SpectralSplit, radius: float, scale: float, log_bulk: float) -> float:
    """Upper bound on the truncated net mass relative to the kept mass.

    Z_H grows at most like exp(|H| * scale) while the Gaussian factor decays
    like exp(-|H|^2 / (2 lam1)), so the tail is bounded by the radial
    integral of s^(r-1) e^h(s) over s > R, h(s) = log_w - log_bulk +
    s * scale - s^2 / (2 lam1), times the area of the unit (r-1)-sphere.

    The integral is a truncated Gaussian moment in closed form. With
    mu = lam1 * scale and sigma^2 = lam1 it is e^h(R) M_(r-1), where
    M_k = integral over s > R of s^k e^(-((s-mu)^2 - (R-mu)^2) / (2 sigma^2)):
    M_0 = sigma sqrt(pi/2) erfcx((R - mu) / (sigma sqrt 2)), M_1 = sigma^2 +
    mu M_0 and M_k = mu M_(k-1) + sigma^2 (R^(k-1) + (k-1) M_(k-2)), by
    parts. The radius always exceeds mu (see `_net_radius`), so erfcx has a
    positive argument and no term cancels.
    """
    lam1 = float(split.eigenvalues.max())
    r = split.r
    _, base, _ = split.enumeration
    log_w = float(_logsumexp(base))
    area = 2.0 * math.pi ** (r / 2.0) / math.gamma(r / 2.0)
    mu = lam1 * scale
    m0 = math.sqrt(0.5 * math.pi * lam1) * float(erfcx((radius - mu) / math.sqrt(2.0 * lam1)))
    moments = [m0, lam1 + mu * m0]
    for k in range(2, r):
        moments.append(mu * moments[k - 1] + lam1 * (radius ** (k - 1) + (k - 1) * moments[k - 2]))
    h = log_w - log_bulk + radius * scale - 0.5 * radius * radius / lam1
    return area * math.exp(h) * moments[r - 1]


def build_field_net(
    split: SpectralSplit, support_radius: float, n: int, mesh: float | None = None
) -> FieldNet:
    """Uniform field net over the kept eigendirections with quadrature weights.

    `n` is the split model's site count, and the mesh defaults to
    1/(2 D sqrt(n)) for states in the D-cube on n sites.
    The radius starts at the analytic scale of the auxiliary Gaussian and
    doubles (at most six times) until the truncated mass is provably below a
    quarter of the kept mass. That bound is a radial Gaussian tail, the
    truncated moment of order r - 1 of N(lam1 * scale, lam1) beyond the
    radius, written in closed form by erfcx and a two-term recurrence (see
    `_tail_to_bulk`). Cell weights integrate the enumerated partition
    function of the remainder model against the Gaussian factor by midpoint
    quadrature with three sub-nodes per grid direction.
    """
    if not 0.0 < support_radius < math.inf:
        raise ValueError("need a finite positive support radius")
    if n != split.model.n:
        raise ValueError(f"n={n} is not the split model's site count {split.model.n}")
    if split.r > MAX_NET_RANK:
        raise CapacityError(f"rank {split.r} net would need (R/mesh)^{split.r} cells")
    scale = support_radius * math.sqrt(n)
    if mesh is None:
        mesh = 1.0 / (2.0 * scale)
    if not 0.0 < mesh < math.inf:
        raise ValueError("mesh must be finite and positive")
    if split.r == 0:
        return FieldNet(
            fields=np.zeros((1, split.dim)), weights=np.ones(1), radius=0.0, mesh=mesh
        )
    radius = _net_radius(split, scale)
    for _ in range(7):
        coords, weights, log_bulk = _grid_weights(split, radius, mesh)
        if _tail_to_bulk(split, radius, scale, log_bulk) < 0.25:
            return FieldNet(
                fields=coords @ split.basis.T, weights=weights, radius=radius, mesh=mesh
            )
        radius *= 2.0
    raise ValueError("net radius search did not confine the auxiliary field mass")


def mixture_density(net: FieldNet, split: SpectralSplit, model):
    """Exact mixture law pi2 = sum_h p_h pi_h and its tilted components.

    For a spin model the components come back as IsingModels with coupling
    J_tilde and field b + h, ready for Glauber dynamics; for a Potts model
    they come back as exact tilted distributions, the columns of the block
    softmax that also sums to pi2.
    """
    if model != split.model:
        raise ValueError("model does not match the one the split was taken from")
    if net.fields.shape[1] != split.dim:
        raise ValueError(
            f"net fields have width {net.fields.shape[1]}, not the split's dimension {split.dim}"
        )
    features, base, _ = split.enumeration
    potts = isinstance(model, PottsModel)
    pi2 = np.zeros(base.size)
    columns = []
    for lo in range(0, net.count, 256):
        block = _softmax(base[:, None] + features @ net.fields[lo : lo + 256].T, axis=0)
        pi2 += block @ net.weights[lo : lo + 256]
        if potts:
            columns.append(block.T)
    if potts:
        components = FiniteDistribution._rows(np.concatenate(columns))
    else:
        components = IsingModel(split.j_tilde, model.b)._tilts(net.fields)
    return FiniteDistribution(pi2 / pi2.sum()), components


@dataclass(frozen=True)
class SandwichCertificate:
    """Extreme values of dpi2/dpi over all states. The verdict `passed` is
    whether both lie within [1/SANDWICH_LIMIT, SANDWICH_LIMIT]; a NaN ratio
    fails it."""

    min_ratio: float
    max_ratio: float

    @property
    def passed(self) -> bool:
        return bool(self.min_ratio >= 1.0 / SANDWICH_LIMIT and self.max_ratio <= SANDWICH_LIMIT)


def certify_sandwich(
    pi: FiniteDistribution, pi2: FiniteDistribution
) -> SandwichCertificate:
    """Exact multiplicative comparison of two enumerated laws."""
    if pi.m != pi2.m:
        raise ValueError("laws live on different state spaces")
    if pi.probs.min() <= 0.0:
        raise ValueError("reference law must be strictly positive")
    ratio = pi2.probs / pi.probs
    lo, hi = float(ratio.min()), float(ratio.max())
    return SandwichCertificate(min_ratio=lo, max_ratio=hi)


def exact_mixture_refinement(pi: FiniteDistribution, weights, components):
    """Reweight a certified approximate mixture into an exact one.

    Each component is multiplied by the bounded ratio pi/pi2 and renormalized;
    the weights pick up the corresponding mass. The weights must be finite
    and nonnegative. The reconstruction sum_h q_h pibar_h = pi is verified
    entrywise before returning. The refined stack is handed to
    `FiniteDistribution._rows`, which adopts it read-only.
    """
    weights = np.asarray(weights, dtype=float)
    dists = [c.probs if isinstance(c, FiniteDistribution) else np.asarray(c, float) for c in components]
    if weights.ndim != 1 or weights.size != len(dists):
        raise ValueError("need one weight per component")
    if not dists:
        raise ValueError("need at least one mixture component")
    if not (weights.min() >= 0.0 and weights.max() < math.inf):
        raise ValueError("mixture weights must be finite and nonnegative")
    stack = np.stack(dists)
    pi2 = weights @ stack
    cert = certify_sandwich(pi, FiniteDistribution(pi2 / pi2.sum()))
    if not cert.passed:
        raise ValueError(
            "sandwich certificate fails: the density ratio is too wide for the gap transfer"
        )
    # the stack is not read again untilted, so it is tilted in place
    tilted = stack
    tilted *= pi.probs / pi2
    masses = tilted.sum(axis=1)
    q = weights * masses
    q /= q.sum()
    tilted /= masses[:, None]
    refined = FiniteDistribution._rows(tilted)
    recon = q @ tilted
    if np.abs(recon - pi.probs).max() > 1e-10:
        raise RuntimeError("refined mixture failed to reconstruct the target law")
    return q, refined


def dump_field_net(net: FieldNet) -> str:
    """Versioned text export: header, then one line per field with its weight.

    The header records the net's grid rank, recomputed as the dimension of
    the span of the stored fields.
    """
    rank = int(np.linalg.matrix_rank(net.fields, tol=1e-10))
    lines = [f"fieldnet v1 {rank} {net.count}"]
    lines.extend(_row([*h, w]) for h, w in zip(net.fields, net.weights))
    return "\n".join(lines) + "\n"


def load_field_net(text: str) -> FieldNet:
    """Rebuild a net from its export. The radius is recovered from the
    fields themselves; the mesh is not recorded and loads as zero."""
    (rank, count), body = _header(text, "fieldnet", 2, "field net")
    if count != len(body) or count < 1:
        raise ParseError(f"expected {count} field lines, found {len(body)}")
    width = len(body[0].split())
    if width < 2:
        raise ParseError(f"bad field line {body[0]!r}")
    data = np.array([_numbers(ln, width) for ln in body])
    fields = data[:, :-1]
    try:
        net = FieldNet(
            fields=fields,
            weights=data[:, -1],
            radius=float(np.linalg.norm(fields, axis=1).max()),
            mesh=0.0,
        )
    except ValueError as exc:
        raise ParseError(f"invalid field net: {exc}") from None
    if rank != int(np.linalg.matrix_rank(fields, tol=1e-10)):
        raise ParseError("header rank disagrees with the stored fields")
    return net
