"""Finite distributions, sample batches, and divergence computations.

States of an n-spin system are addressed by integers: bit i of the index
carries spin i, a set bit meaning +1. Everything in this module is immutable
after construction and safe to share across threads; the divergence functions
are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse
from scipy.special import rel_entr

from .errors import CapacityError, ParseError

MAX_STATES = 1 << 20
# the largest state space that is solved densely, decomposed exactly, or has
# its law-independent structure kept and shared between callers
MAX_EXACT_STATES = 1 << 14
_SUM_TOL = 1e-12


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _same(a, b) -> bool:
    """Exact agreement of two record fields: arrays entrywise, a canonical
    CSR array by shape and stored structure, anything else by ``==``."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, scipy.sparse.csr_array):
        return (
            isinstance(b, scipy.sparse.csr_array)
            and a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )
    return bool(a == b)


class _Record:
    """Base of the frozen dataclasses that hold arrays, declared with
    ``eq=False``. Two records of one type are equal when every field agrees
    exactly (see `_same`); against any other type ``__eq__`` returns
    NotImplemented. Records are unhashable, since their arrays are."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    __hash__ = None


def _logsumexp(a, axis=None, overwrite: bool = False):
    """log(sum(exp(a))) over `axis`, bit for bit what scipy.special.logsumexp
    returns for real input without weights.

    The maxima are split off and counted, the rest is shifted by the maximum
    and summed, and the result is log1p(s) + log(ties) + max (Blanchard,
    Higham & Higham, IMA J. Numer. Anal. 41(4), 2021). An all -inf slice
    gives -inf, a slice holding +inf gives inf and one holding NaN gives NaN,
    as in scipy. With `overwrite` a float64 `a` is used as scratch space.
    """
    a = np.asarray(a, dtype=float)
    axis = tuple(range(a.ndim)) if axis is None else axis
    top = np.max(a, axis=axis, keepdims=True)
    tied = a == top
    ties = np.sum(tied, axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.subtract(a, top, out=a if overwrite else None)
        np.exp(z, out=z)
        np.copyto(z, 0.0, where=tied)
        s = np.sum(z, axis=axis, keepdims=True)
        np.divide(s, ties, out=s, where=s != 0.0)
        out = np.log1p(s) + np.log(ties) + top
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _softmax(x, axis=None) -> np.ndarray:
    """exp(x) / sum(exp(x)) over `axis`, bit for bit what
    scipy.special.softmax returns: shift by the maximum, exponentiate and
    divide by the sum, in place on one temporary."""
    x = np.asarray(x, dtype=float)
    z = x - np.max(x, axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= np.sum(z, axis=axis, keepdims=True)
    return z


def _laws(p: np.ndarray) -> bool:
    """Whether every row along the last axis of `p` is a probability vector:
    one min and one row sum. A NaN or an infinity fails one of the two."""
    return bool(
        0 < p.shape[-1] <= MAX_STATES
        and p.min() >= 0.0
        and np.abs(p.sum(axis=-1) - 1.0).max() <= _SUM_TOL
    )


def _check_state_count(m: int) -> None:
    """Refuse a state count below one or above the cap before anything of
    that size is allocated."""
    if m < 1:
        raise ValueError(f"need at least one state, got {m!r}")
    if m > MAX_STATES:
        raise CapacityError(f"{m} states exceed the cap of {MAX_STATES}")


def _check_law(p: np.ndarray) -> None:
    """Raise for the first check one probability vector fails, in order."""
    if p.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {p.shape}")
    if p.size == 0:
        raise ValueError("empty distribution")
    if p.size > MAX_STATES:
        raise CapacityError(f"{p.size} states exceed the cap of {MAX_STATES}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if p.min() < 0.0:
        raise ValueError(f"negative probability {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")


@dataclass(frozen=True, eq=False)
class FiniteDistribution(_Record):
    """Probability vector over states ``{0, ..., m-1}``.

    Entries must be nonnegative and sum to one within 1e-12; at most 2**20
    states. The stored vector is read-only. Two distributions are equal when
    their vectors agree entrywise.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = _readonly(self.probs)
        if p.ndim != 1 or not _laws(p):
            _check_law(p)
        object.__setattr__(self, "probs", p)

    @classmethod
    def _rows(cls, stack) -> tuple["FiniteDistribution", ...]:
        """One distribution per row of a 2-D float stack that the caller
        built and hands over, checked once as a whole.

        Raises what ``FiniteDistribution(row)`` raises for the first bad
        row. The stack is made read-only, not copied, and the rows are views
        of it.
        """
        rows = np.asarray(stack, dtype=float)
        rows.setflags(write=False)
        if rows.ndim != 2:
            raise ValueError(f"need a 2-D stack of probability rows, got shape {rows.shape}")
        if rows.shape[0] and not _laws(rows):
            for row in rows:
                _check_law(row)
        out = []
        for row in rows:
            dist = object.__new__(cls)
            object.__setattr__(dist, "probs", row)
            out.append(dist)
        return tuple(out)

    @property
    def m(self) -> int:
        return self.probs.size

    @classmethod
    def delta(cls, index: int, m: int) -> "FiniteDistribution":
        """Point mass on state `index`, one of ``0, ..., m-1``."""
        _check_state_count(m)
        if not 0 <= index < m:
            raise ValueError(f"state index {index!r} outside 0..{m - 1}")
        p = np.zeros(m)
        p[index] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, m: int) -> "FiniteDistribution":
        _check_state_count(m)
        return cls(np.full(m, 1.0 / m))


@dataclass(frozen=True, eq=False)
class SampleSet(_Record):
    """A batch of points in R^d, one row per sample.

    One-dimensional input is promoted to a single-column matrix. Ragged input
    fails at construction, so every sample shares the same dimensionality.
    """

    data: np.ndarray

    def __post_init__(self):
        x = np.array(self.data, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ValueError(f"samples must form a 2-D array, got shape {x.shape}")
        if x.shape[0] < 1:
            raise ValueError("a sample set needs at least one sample")
        x.setflags(write=False)
        object.__setattr__(self, "data", x)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def _check_pair(p: FiniteDistribution, q: FiniteDistribution) -> None:
    if p.m != q.m:
        raise ValueError(f"state-space mismatch: {p.m} vs {q.m}")


def tv_distance(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Total variation distance ``(1/2) sum_x |p(x) - q(x)|``."""
    _check_pair(p, q)
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def kl_divergence(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """KL(p || q) in nats; ``math.inf`` when p puts mass outside supp(q)."""
    _check_pair(p, q)
    return float(rel_entr(p.probs, q.probs).sum())


def chi2_divergence(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Chi-square divergence ``sum_{q(x)>0} (p(x)/q(x) - 1)^2 q(x)``.

    Returns ``math.inf`` when p puts mass outside the support of q.
    """
    _check_pair(p, q)
    pp, qq = p.probs, q.probs
    if np.any((qq == 0.0) & (pp > 0.0)):
        return math.inf
    on = qq > 0.0
    diff = pp[on] - qq[on]
    return float(np.sum(diff * diff / qq[on]))


def empirical_tv_continuous(
    a, b, *, bins: int = 50, direction=None
) -> float:
    """Histogram estimate of total variation between two sample clouds.

    Parameters
    ----------
    a, b : SampleSet or array_like
        Sample batches of equal dimensionality.
    bins : int
        Number of equal-width bins (at least 2), shared by both batches and
        spanning the pooled sample range.
    direction : array_like, optional
        Projection direction; required when the ambient dimension exceeds
        one. Samples are projected onto it before binning.

    Returns
    -------
    float
        Half the l1 distance between the two bin-frequency vectors. Binning
        is a coarsening and finite samples only blur further, so this is an
        estimated lower bound on the true total variation, not an unbiased
        estimate of it.
    """
    if not isinstance(a, SampleSet):
        a = SampleSet(a)
    if not isinstance(b, SampleSet):
        b = SampleSet(b)
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if direction is None:
        if a.dim != 1:
            raise ValueError("direction is required for multivariate samples")
        xa, xb = a.data[:, 0], b.data[:, 0]
    else:
        u = np.asarray(direction, dtype=float).reshape(-1)
        if u.size != a.dim:
            raise ValueError(f"direction has size {u.size}, samples have dim {a.dim}")
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        u = u / norm
        xa, xb = a.data @ u, b.data @ u
    lo = min(xa.min(), xb.min())
    hi = max(xa.max(), xb.max())
    if lo == hi:
        hi = lo + 1.0  # all samples coincide; one occupied bin either way
    edges = np.linspace(lo, hi, bins + 1)
    ha, _ = np.histogram(xa, edges)
    hb, _ = np.histogram(xb, edges)
    return float(0.5 * np.abs(ha / xa.size - hb / xb.size).sum())


def _header(text: str, tag: str, fields: int, what: str) -> tuple[list[int], list[str]]:
    """Read the ``<tag> v1`` header and its `fields` nonnegative integers;
    return them with the nonblank, stripped body lines."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError(f"empty {what} file")
    head = lines[0].split()
    if (
        head[:2] != [tag, "v1"]
        or len(head) != fields + 2
        or not all(v.isdecimal() for v in head[2:])
    ):
        raise ParseError(f"bad {what} header {lines[0]!r}")
    return [int(v) for v in head[2:]], lines[1:]


def _numbers(line: str, count: int | None = None) -> np.ndarray:
    """The finite floats on one whitespace-separated line, `count` of them
    when given."""
    parts = line.split()
    if count is not None and len(parts) != count:
        raise ParseError(f"expected {count} numbers, got {len(parts)} in {line!r}")
    try:
        values = np.array([float(v) for v in parts])
    except ValueError:
        raise ParseError(f"bad number in {line!r}") from None
    if not np.all(np.isfinite(values)):
        raise ParseError(f"non-finite number in {line!r}")
    return values


def _row(values) -> str:
    """One line of numbers at shortest round-trip precision."""
    return " ".join(repr(float(v)) for v in values)
