from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import peak_traced_bytes

from multimix import (
    CapacityError,
    FiniteDistribution,
    SampleSet,
    chi2_divergence,
    tv_distance,
)
from multimix.ising import (
    IsingModel,
    curie_weiss,
    exact_distribution,
    empirical_distribution,
    index_to_digits,
    low_rank_ising,
    mean_field_potts,
    sample_exact,
)
from multimix import ising, spectral
from multimix.hs import split_spectrum
from multimix.rng import make_rng
from multimix.spectral import (
    BalanceStatistic,
    ContractionReport,
    GeneratorMatrix,
    Spectrum,
    balance_statistic,
    build_glauber_generator,
    chi2_trajectory,
    eigendecompose,
    evolve_distribution,
    higher_order_gap,
    verify_balance_contraction,
)

# Frozen reference gaps for the Curie-Weiss n=9, beta=1.5 chain under
# unit-rate coordinate clocks, from the dense symmetric eigensolve.
CW9_LAMBDA2 = 0.06762588987676961
CW9_LAMBDA3 = 0.5606731390405276


def random_ising(rng, n: int, scale: float = 0.35) -> IsingModel:
    J = rng.normal(0.0, scale / np.sqrt(n), (n, n))
    J = 0.5 * (J + J.T)
    return IsingModel(J, rng.normal(0.0, 0.3, n))


def product_distribution(rng, n: int) -> FiniteDistribution:
    return exact_distribution(IsingModel(np.zeros((n, n)), rng.uniform(-1.5, 1.5, n)))


def brute_force_symmetrized(pi: FiniteDistribution, q: int = 2) -> np.ndarray:
    # independent entrywise construction from the heat-bath rates: site i of
    # state x resamples within the q states that differ from x only there
    m = pi.m
    n = round(math.log(m, q))
    p = pi.probs
    A = np.zeros((m, m))
    for x in range(m):
        for i in range(n):
            digit = (x // q**i) % q
            group = [x + (c - digit) * q**i for c in range(q)]
            z = sum(p[y] for y in group)
            for y in group:
                if y != x:
                    A[x, y] = -np.sqrt(p[x] * p[y]) / z
                    A[x, x] += p[y] / z
    return A


def dense_heat_bath_fill(pi: FiniteDistribution, q: int = 2) -> np.ndarray:
    # the dense m x m fill the CSR builder replaced, kept as its bitwise
    # oracle: same neighbour maps, same evaluation order
    m = pi.m
    n = round(math.log(m, q))
    p = pi.probs
    sq = np.sqrt(p)
    idx = np.arange(m)
    shifts = np.arange(1, q)[:, None]
    A = np.zeros((m, m))
    diag = np.zeros(m)
    for i in range(n):
        stride = q**i
        digit = (idx // stride) % q
        nb = idx + ((digit + shifts) % q - digit) * stride
        total = p + p[nb].sum(axis=0)
        A[idx, nb] = -sq * sq[nb] / total
        diag += (p[nb] / total).sum(axis=0)
    A[idx, idx] = diag
    return A


def dense_calls(gen: GeneratorMatrix, k=None) -> tuple[Spectrum, list[int]]:
    # the spectrum, and the order of every dense problem eigendecompose hands
    # to its LAPACK helper
    with mock.patch.object(spectral, "_eigh", wraps=spectral._eigh) as eigh:
        spec = eigendecompose(gen, k)
    return spec, [call.args[0].shape[0] for call in eigh.call_args_list]


def evolve_via_expm(gen: GeneratorMatrix, mu0: FiniteDistribution, t: float) -> np.ndarray:
    # evolve the measure with the rate matrix directly: d mu/dt = L' mu
    return scipy.linalg.expm(t * gen.rate_matrix().T) @ mu0.probs


def chi2_via_expm(gen: GeneratorMatrix, mu0: FiniteDistribution, t: float) -> float:
    mut = evolve_via_expm(gen, mu0, t)
    ratio = mut / gen.pi.probs - 1.0
    return float(np.sum(ratio * ratio * gen.pi.probs))


def test_generator_validation():
    pi = FiniteDistribution.uniform(4)
    good = build_glauber_generator(pi)
    bad = good.A.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ValueError, match="asymmetry"):
        GeneratorMatrix(A=bad, pi=pi)
    bad = good.A.copy()
    bad[0, 1] = abs(bad[0, 1])
    bad[1, 0] = abs(bad[1, 0])
    with pytest.raises(ValueError, match="nonpositive"):
        GeneratorMatrix(A=bad, pi=pi)
    bad = good.A + np.eye(4) * 1e-4
    with pytest.raises(ValueError, match="sqrt"):
        GeneratorMatrix(A=bad, pi=pi)


def test_build_rejects_bad_supports():
    with pytest.raises(ValueError, match="power of two"):
        build_glauber_generator(FiniteDistribution.uniform(6))
    probs = np.zeros(8)
    probs[:4] = 0.25
    with pytest.raises(ValueError, match="support"):
        build_glauber_generator(FiniteDistribution(probs))
    # no cap of its own: 2^15 states build in CSR and pass validation
    big = build_glauber_generator(exact_distribution(curie_weiss(15, 1.5)))
    assert big.m == 1 << 15 and GeneratorMatrix(A=big.A, pi=big.pi) == big
    with pytest.raises(ValueError, match="power of 3"):
        build_glauber_generator(FiniteDistribution.uniform(16), 3)
    for q in (1, 0):
        with pytest.raises(ValueError, match="at least 2 values"):
            build_glauber_generator(FiniteDistribution.uniform(4), q)


def test_uniform_three_spin_spectrum():
    spec = eigendecompose(build_glauber_generator(FiniteDistribution.uniform(8)))
    expected = np.array([0, 1, 1, 1, 2, 2, 2, 3], dtype=float)
    assert np.abs(spec.eigenvalues - expected).max() <= 1e-8


def test_single_spin_gap_is_one():
    # one biased spin renews in a single resample: the nonzero rate is
    # pi(+) + pi(-) = 1 regardless of the field
    pi = exact_distribution(IsingModel(np.zeros((1, 1)), np.array([0.7])))
    spec = eigendecompose(build_glauber_generator(pi))
    assert spec.eigenvalues[1] == pytest.approx(1.0, abs=1e-12)


def test_generator_validation_rejects_nan_and_converts_dense_input():
    pi = FiniteDistribution.uniform(4)
    good = build_glauber_generator(pi)
    assert isinstance(good.A, scipy.sparse.csr_array)
    assert not good.A.data.flags.writeable
    assert GeneratorMatrix(A=good.A.toarray(), pi=pi) == good
    for entry in [(0, 1), (1, 1)]:
        bad = good.A.toarray()
        bad[entry] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GeneratorMatrix(A=bad, pi=pi)
    with pytest.raises(ValueError, match="square"):
        GeneratorMatrix(A=np.zeros((4, 3)), pi=pi)
    with pytest.raises(ValueError, match="diagonal"):
        GeneratorMatrix(A=-np.eye(4) * 1e-6, pi=pi)


@pytest.mark.parametrize(
    "law, q",
    [
        (lambda: exact_distribution(random_ising(make_rng(31), 7)), 2),
        (lambda: exact_distribution(mean_field_potts(4, 3, 1.3)), 3),
        (lambda: FiniteDistribution.uniform(3**3), 3),
    ],
)
def test_csr_build_equals_dense_fill_bitwise(law, q):
    pi = law()
    gen = build_glauber_generator(pi, q)
    n = round(math.log(pi.m, q))
    assert gen.A.has_canonical_format and gen.A.nnz == pi.m * (1 + n * (q - 1))
    assert np.array_equal(gen.A.toarray(), dense_heat_bath_fill(pi, q))


def test_generator_build_memory_is_linear_in_nnz():
    # a dense 2^14-state build allocates 2 GB; the CSR build holds 15
    # entries per row
    pi = exact_distribution(curie_weiss(14, 1.5))
    gen, peak = peak_traced_bytes(lambda: build_glauber_generator(pi))
    assert gen.A.nnz == 15 << 14
    assert peak < 64 << 20


def test_generator_equality_compares_stored_entries():
    pi = exact_distribution(curie_weiss(4, 1.0))
    gen = build_glauber_generator(pi)
    assert gen == build_glauber_generator(pi)
    assert gen != build_glauber_generator(FiniteDistribution.uniform(16))
    nudged = gen.A.copy()
    nudged[0, 0] += 1e-12
    assert gen != GeneratorMatrix(A=nudged, pi=pi)
    assert gen != pi
    with pytest.raises(TypeError):
        hash(gen)


def test_generator_matches_brute_force():
    rng = make_rng(11)
    pi = exact_distribution(random_ising(rng, 6))
    gen = build_glauber_generator(pi)
    assert np.abs(gen.A - brute_force_symmetrized(pi)).max() <= 1e-12


def test_spin_generator_keeps_the_flip_arithmetic():
    # the byte-stable spin CSVs rest on this exact evaluation order
    pi = exact_distribution(low_rank_ising(9, 2, [1.5, 1.3], 0.2, seed=4))
    p, sq, idx = pi.probs, np.sqrt(pi.probs), np.arange(pi.m)
    A = np.zeros((pi.m, pi.m))
    diag = np.zeros(pi.m)
    for i in range(9):
        nb = idx ^ (1 << i)
        total = p + p[nb]
        A[idx, nb] = -sq * sq[nb] / total
        diag += p[nb] / total
    A[idx, idx] = diag
    assert np.array_equal(build_glauber_generator(pi).A.toarray(), A)


@pytest.mark.parametrize("n, q", [(3, 3), (2, 4)])
def test_potts_generator_matches_brute_force(n, q):
    pi = exact_distribution(mean_field_potts(n, q, 1.3))
    gen = build_glauber_generator(pi, q)
    assert np.abs(gen.A - brute_force_symmetrized(pi, q)).max() <= 1e-14
    # a law without the colour symmetry exercises every group separately
    weights = make_rng(13).uniform(0.5, 1.5, q**n)
    rough = FiniteDistribution(weights / weights.sum())
    gen = build_glauber_generator(rough, q)
    assert np.abs(gen.A - brute_force_symmetrized(rough, q)).max() <= 1e-14


def test_detailed_balance():
    rng = make_rng(12)
    pi = exact_distribution(random_ising(rng, 5))
    L = build_glauber_generator(pi).rate_matrix()
    flow = pi.probs[:, None] * L
    assert np.abs(flow - flow.T).max() <= 1e-10
    assert np.abs(L.sum(axis=1)).max() <= 1e-12


# every (q, n) with q^n <= 243
SMALL_LATTICES = [(q, n) for q in (2, 3) for n in range(1, 8) if q**n <= 243]


@st.composite
def full_support_laws(draw):
    q, n = draw(st.sampled_from(SMALL_LATTICES))
    logits = draw(arrays(np.float64, q**n, elements=st.floats(-8.0, 8.0)))
    w = np.exp(logits)
    return FiniteDistribution(w / w.sum()), q, n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(law=full_support_laws())
def test_glauber_generator_detailed_balance_property(law):
    pi, q, n = law
    L = build_glauber_generator(pi, q).rate_matrix()
    flow = pi.probs[:, None] * L
    scale = np.maximum(np.abs(flow), np.abs(flow.T))
    assert np.all(np.abs(flow - flow.T) <= 1e-12 * scale)
    assert np.all(np.abs(L.sum(axis=1)) <= 1e-12 * np.abs(L).sum(axis=1))
    assert np.all(np.abs(pi.probs @ L) <= 1e-12 * np.abs(flow).sum(axis=0))
    digits = index_to_digits(np.arange(pi.m), n, q)
    sites_apart = (digits[:, None, :] != digits[None, :, :]).sum(axis=2)
    assert np.all(L[sites_apart > 1] == 0.0)
    assert np.all(L[sites_apart == 1] > 0.0)


@st.composite
def reversal_invariant_laws(draw):
    n = draw(st.integers(1, 7))
    logits = draw(arrays(np.float64, 1 << n, elements=st.floats(-8.0, 8.0)))
    w = np.exp(logits)
    w = w + w[::-1]
    return FiniteDistribution(w / w.sum())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pi=reversal_invariant_laws())
def test_split_eigensolve_matches_dense_oracle(pi):
    # n <= 2 and level-constant draws are exchangeable too; the sector route
    # is switched off so that the halves are what gets checked
    gen = build_glauber_generator(pi)
    oracle = scipy.linalg.eigh(gen.A.toarray())
    with mock.patch.object(spectral, "_exchangeable_levels", return_value=None):
        for k in range(1, pi.m + 1):
            spec, orders = dense_calls(gen, k)
            assert orders == [pi.m // 2] * 2
            assert_matches_dense(oracle, spec, 1e-12)


def assert_matches_dense(oracle, spec: Spectrum, tol: float) -> None:
    # oracle: the full dense eigh of the generator's matrix
    w, v = oracle
    k = spec.k
    assert np.abs(spec.eigenvalues - w[:k]).max() <= tol
    gap = w[k] - w[k - 1] if k < w.size else 0.0
    if gap > 1e-9:
        # the projector distance of the two bottom-k eigenspaces is at most
        # the Frobenius norm of the cross block; both solves are backward
        # stable, so by Davis-Kahan it may reach a few ulps of ||A|| over the
        # gap (2.6e-9 at a gap of 2.4e-6, n = 7)
        sq = np.sqrt(spec.pi.probs)[:, None]
        cross = np.linalg.norm(v[:, k:].T @ (spec.eigenfunctions * sq))
        assert cross <= 1e-9 + 64 * np.finfo(float).eps * w[-1] / gap


@st.composite
def exchangeable_laws(draw):
    # pi(x) depends on the number of up spins only
    n = draw(st.integers(1, 8))
    logits = draw(arrays(np.float64, n + 1, elements=st.floats(-8.0, 8.0)))
    w = np.exp(logits)[popcounts(n)]
    return FiniteDistribution(w / w.sum())


def popcounts(n: int) -> np.ndarray:
    return np.array([bin(x).count("1") for x in range(1 << n)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pi=exchangeable_laws())
def test_sector_eigensolve_matches_dense_oracle(pi):
    gen = build_glauber_generator(pi)
    oracle = scipy.linalg.eigh(gen.A.toarray())
    scale = np.abs(gen.A.data).max()
    for k in range(1, pi.m + 1):
        spec, orders = dense_calls(gen, k)
        assert orders == []
        assert_matches_dense(oracle, spec, 1e-12 * scale)


def perturbed(pi: FiniteDistribution, rel: float) -> FiniteDistribution:
    probs = pi.probs.copy()
    probs[5] *= 1.0 + rel
    return FiniteDistribution(probs / probs.sum())


CW9 = curie_weiss(9, 1.5)


def hs_component(model: IsingModel) -> IsingModel:
    # a tilted component of the split: remainder coupling, field along the
    # top eigendirection (uniform for Curie-Weiss up to rounding)
    split = split_spectrum(model, 2.0)
    return IsingModel(split.j_tilde, model.b + 0.8 * split.basis[:, 0])


@pytest.mark.parametrize(
    "law, q, route",
    [
        (lambda: exact_distribution(CW9), 2, "sector"),
        (lambda: exact_distribution(hs_component(CW9)), 2, "sector"),
        (lambda: FiniteDistribution.uniform(512), 2, "sector"),
        (lambda: exact_distribution(low_rank_ising(9, 2, [1.5, 1.3], 0.2, seed=4)), 2, "split"),
        (lambda: exact_distribution(IsingModel(CW9.J, np.linspace(0.05, 0.15, 9))), 2, "whole"),
        (lambda: exact_distribution(mean_field_potts(4, 3, 1.2)), 3, "whole"),
        (lambda: FiniteDistribution(np.array([0.1, 0.2, 0.3, 0.4])), 4, "whole"),
        (lambda: perturbed(exact_distribution(CW9), 1e-9), 2, "whole"),
    ],
    ids=[
        "curie-weiss",
        "hs-component",
        "uniform",
        "low-rank",
        "field",
        "potts-q3",
        "q4-n1",
        "perturbed-exchangeable",
    ],
)
def test_eigendecompose_route_pin(law, q, route):
    # exchangeable spin laws take the total-spin sectors and no dense solve;
    # other reversal-symmetric laws on an even state count solve two halves;
    # anything else (a per-site field, q > 2, symmetry only up to 1e-9) is
    # solved whole
    gen = build_glauber_generator(law(), q)
    oracle = scipy.linalg.eigh(gen.A.toarray())
    orders = {"sector": [], "split": [gen.m // 2] * 2, "whole": [gen.m]}[route]
    for k in (3, 5, None):
        k = None if k is None or k >= gen.m else k
        spec, seen = dense_calls(gen, k)
        assert seen == orders
        assert_matches_dense(oracle, spec, 1e-12)


def route_law(route: str, n: int) -> FiniteDistribution:
    # one spin law on n sites per route of eigendecompose
    if route == "sector":
        return exact_distribution(curie_weiss(n, 1.5))
    if route == "split":
        return exact_distribution(low_rank_ising(n, 2, [1.5, 1.3], 0.2, seed=4))
    return exact_distribution(IsingModel(curie_weiss(n, 1.5).J, np.linspace(0.05, 0.15, n)))


def reference_eigendecompose(gen: GeneratorMatrix, route: str, k: int):
    # the split assembly and the post-processing eigendecompose ran before
    # it worked in one buffer, kept as its bitwise oracle: the halves are
    # stacked by hstack/vstack, the eigenfunctions are a scaled copy of the
    # eigenvectors, the sign rule takes |F| whole
    if route == "sector":
        w, v = spectral._sector_eigh(*spectral._exchangeable_levels(gen.A), k)
    elif route == "split":
        h = gen.m // 2
        top = gen.A[:h].toarray(order="F")
        mirror = top[:, h:][:, ::-1]
        (w_even, u_even), (w_odd, u_odd) = (
            spectral._eigh(top[:, :h] + mirror, min(k, h)),
            spectral._eigh(top[:, :h] - mirror, min(k, h)),
        )
        w = np.concatenate([w_even, w_odd])
        order = np.argsort(w, kind="stable")[:k]
        u = np.hstack([u_even, u_odd])[:, order] * math.sqrt(0.5)
        w = w[order]
        v = np.vstack([u, u[::-1] * np.where(order < w_even.size, 1.0, -1.0)])
    else:
        w, v = spectral._eigh(gen.A.toarray(order="F"), k)
    F = v / np.sqrt(gen.pi.probs)[:, None]
    lead = np.abs(F).argmax(axis=0)
    F *= np.where(F[lead, np.arange(k)] < 0.0, -1.0, 1.0)[None, :]
    if abs(w[0]) <= 1e-8:
        # the eigenfunctions after the constant, centred and renormalised
        c = np.array([gen.pi.probs @ f for f in F[:, 1:].T])
        F[:, 1:] = (F[:, 1:] - c) / np.sqrt(1.0 - c * c)
    w = w.copy()
    if abs(w[0]) <= 1e-8:
        w[0] = 0.0
        F[:, 0] = 1.0
    return w, F


@pytest.mark.parametrize("route", ["sector", "split", "whole"])
def test_eigendecompose_matches_the_copying_reference_bitwise(route):
    # m = 256: the full spectrum spans several column blocks
    gen = build_glauber_generator(route_law(route, 8))
    for k in (3, gen.m):
        spec, seen = dense_calls(gen, k)
        assert seen == {"sector": [], "split": [128, 128], "whole": [256]}[route]
        w, F = reference_eigendecompose(gen, route, k)
        assert np.array_equal(spec.eigenvalues, w)
        assert np.array_equal(spec.eigenfunctions, F)
        assert spec.eigenfunctions.flags.f_contiguous


@pytest.mark.parametrize("route", ["sector", "split", "whole"])
def test_full_eigendecompose_peaks_at_three_eigenvector_buffers(route):
    # the eigenvectors, their pi-scaled copy and the k x k Gram of the
    # orthonormality check; LAPACK's divide and conquer holds as much
    gen = build_glauber_generator(route_law(route, 10))
    eigendecompose(gen, 2)  # builds the shared sector structure
    spec, peak = peak_traced_bytes(lambda: eigendecompose(gen))
    assert spec.is_full
    assert peak <= 3.5 * 8 * gen.m**2


def test_eigenpair_residual_check_covers_every_column_block():
    gen = build_glauber_generator(exact_distribution(CW9))

    def broken(*args):
        w, v = sector_eigh(*args)
        v[5, 70] = np.nan  # in the second block of columns
        return w, v

    sector_eigh = spectral._sector_eigh
    with mock.patch.object(spectral, "_sector_eigh", broken):
        with pytest.raises(ValueError, match="residual"):
            eigendecompose(gen)


@pytest.mark.parametrize("h", [0.05, 0.025, 0.0125])
def test_metastable_generator_decomposes(h):
    # the square-root approximation of Langevin on the +-5 bimodal density,
    # cell centres on [-12, 12]: constant off-diagonal -1/h^2 and
    # lambda_2 ~ 9e-6 against ||A||_1 up to 2.6e4, so the solver's kernel
    # vector is off sqrt(pi) by far more than the 1e-8 Gram tolerance
    x = np.arange(-12.0 + h / 2, 12.0, h)
    w = np.exp(np.logaddexp(-0.5 * (x - 5.0) ** 2, -0.5 * (x + 5.0) ** 2))
    pi = FiniteDistribution(w / w.sum())
    sq = np.sqrt(pi.probs)
    diag = np.zeros(x.size)
    diag[:-1] += sq[1:] / sq[:-1]
    diag[1:] += sq[:-1] / sq[1:]
    off = np.full(x.size - 1, -1.0)
    A = scipy.sparse.diags_array([off, diag, off], offsets=[-1, 0, 1], format="csr") / h**2
    gen = GeneratorMatrix(A=A, pi=pi)
    for k in (2, 3, 6):
        spec = eigendecompose(gen, k)
        F = spec.eigenfunctions
        gram = F.T @ (pi.probs[:, None] * F)
        assert np.abs(gram - np.eye(k)).max() <= 1e-12
        assert 8e-6 <= spec.eigenvalues[1] <= 1e-5


@pytest.mark.parametrize("scale, exchangeable", [(0.1, True), (10.0, False)])
def test_exchangeable_levels_reads_every_diagonal_entry(scale, exchangeable):
    # one diagonal entry off its level's representative (state 5 has level 2,
    # represented by state 3) by a multiple of the 1e-12 max|A| tolerance
    gen = build_glauber_generator(exact_distribution(curie_weiss(7, 1.5)))
    A = gen.A.copy()
    A.data[A.indptr[5] + 2] += scale * 1e-12 * np.abs(A.data).max()
    assert A.indices[A.indptr[5] + 2] == 5
    levels = spectral._exchangeable_levels(A)
    if exchangeable:
        want = spectral._exchangeable_levels(gen.A)
        for got, expected in zip(levels[:2], want[:2]):
            assert np.array_equal(got, expected)
        assert levels[2] is want[2] is spectral._cube(7)
    else:
        assert levels is None


def test_dense_routes_refuse_beyond_the_dense_cap(monkeypatch):
    # 128-state generators built under the real cap, which is then lowered
    # to 64: no route may make an array of more than 64^2 entries, so the
    # routes that copy A densely and a full sector spectrum (128 x 128)
    # raise before copying or solving, while the sector route up to
    # k = 32 and the semigroup action still run
    fielded, low_rank, cw = (
        build_glauber_generator(exact_distribution(model))
        for model in (
            IsingModel(curie_weiss(7, 1.5).J, np.linspace(0.05, 0.15, 7)),
            low_rank_ising(7, 2, [1.5, 1.3], 0.2, seed=4),
            curie_weiss(7, 1.5),
        )
    )
    assert spectral._reversal_symmetric(low_rank.A)
    mu0 = empirical_distribution(sample_exact(curie_weiss(7, 1.5), 50, seed=3), 7)
    want_spec = {k: eigendecompose(cw, k) for k in (1, 3, 32)}
    want_mu = evolve_distribution(cw, mu0, 100.0)
    monkeypatch.setattr(spectral, "MAX_EXACT_STATES", 64)
    with (
        mock.patch.object(scipy.sparse.csr_array, "toarray") as toarray,
        mock.patch.object(spectral, "_sector_eigh", wraps=spectral._sector_eigh) as sector,
    ):
        with pytest.raises(CapacityError, match=r"128 x 128 entries exceed the dense cap of 64\^2"):
            eigendecompose(fielded)
        with mock.patch.object(spectral, "_exchangeable_levels", return_value=None):
            with pytest.raises(CapacityError, match=r"128 x 128 entries exceed"):
                eigendecompose(low_rank)
        for k in (None, 33):
            with pytest.raises(CapacityError, match=rf"128 x {k or 128} entries exceed"):
                eigendecompose(cw, k)
        assert not sector.called
        for k, want in want_spec.items():
            assert eigendecompose(cw, k) == want
        got = evolve_distribution(cw, mu0, 100.0)
    assert not toarray.called
    assert sector.call_count == len(want_spec)
    assert tv_distance(got, want_mu) <= 1e-10


@pytest.fixture
def cold_caches(monkeypatch):
    # every shared structure is rebuilt on first use in the test
    for name in ("_patterns", "_cubes", "_harmonics"):
        monkeypatch.setattr(spectral, name, {})


@pytest.mark.parametrize("n, q", [(9, 2), (4, 3)])
def test_generator_pattern_reuse_is_bitwise(cold_caches, n, q):
    # the first law builds the (n, q) structure, the second reuses it
    weights = make_rng(5).uniform(0.5, 1.5, (2, q**n))
    for w in weights:
        pi = FiniteDistribution(w / w.sum())
        gen = build_glauber_generator(pi, q)
        assert (n, q) in spectral._patterns
        assert np.array_equal(gen.A.toarray(), dense_heat_bath_fill(pi, q))
        assert np.abs(gen.A - brute_force_symmetrized(pi, q)).max() <= 1e-14


@pytest.mark.parametrize("k", [3, 512])
def test_sector_structure_reuse_is_bitwise(cold_caches, k):
    levels = spectral._exchangeable_levels(
        build_glauber_generator(exact_distribution(hs_component(CW9))).A
    )
    assert 9 in spectral._cubes and not spectral._harmonics
    w_cold, v_cold = spectral._sector_eigh(*levels, k)
    assert spectral._harmonics
    w_warm, v_warm = spectral._sector_eigh(*levels, k)
    assert np.array_equal(w_cold, w_warm)
    assert np.array_equal(v_cold, v_warm)


def test_sector_route_builds_one_cube_and_one_pattern_per_call(monkeypatch):
    # with nothing kept past 64 states, every lookup of an n=7 structure is
    # a build; one spectrum builds the cube and the generator pattern once
    # each and equals the spectrum from the kept structures bitwise
    gen = build_glauber_generator(exact_distribution(curie_weiss(7, 1.5)))
    cached = [eigendecompose(gen, k) for k in (3, gen.m)]
    monkeypatch.setattr(ising, "MAX_EXACT_STATES", 64)
    for k, want in zip((3, gen.m), cached):
        with (
            mock.patch.object(spectral, "_cube", wraps=spectral._cube) as cube,
            mock.patch.object(
                spectral, "_heat_bath_pattern", wraps=spectral._heat_bath_pattern
            ) as pattern,
        ):
            got = eigendecompose(gen, k)
        assert cube.call_count == 1 and pattern.call_count == 1
        assert got == want
    # each of those lookups built its structure afresh
    assert spectral._cube(7) is not spectral._cube(7)


@pytest.mark.parametrize("n", range(1, 9))
def test_cube_slots_match_the_generator_pattern(n):
    # the closed-form slots against the pattern's sorted columns: an edge
    # between levels p and p + 1 reads a_p, the diagonal d_p
    level, _, slot = spectral._cube(n)
    m = 1 << n
    cols = spectral._heat_bath_pattern(n, 2)[2].reshape(m, n + 1)
    want = np.minimum(level[:, None], level[cols])
    want[cols == np.arange(m)[:, None]] = n + level
    assert slot.dtype == want.dtype and np.array_equal(slot, want)


def test_shared_structure_is_read_only_and_capped(cold_caches):
    eigendecompose(build_glauber_generator(exact_distribution(CW9)), 9)
    nbs, *pattern = spectral._patterns[(9, 2)]
    level, up, slot = spectral._cubes[9]
    arrays = [*nbs, *pattern, level, up.data, up.indices, up.indptr, slot]
    arrays += [a for pair in spectral._harmonics.values() for a in pair]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0
    # above 2^14 states nothing is kept
    assert spectral._cube(15) is not spectral._cube(15)
    assert 15 not in spectral._cubes and (15, 2) not in spectral._patterns


def test_uniform_spectrum_repeats_each_sector_exactly():
    # eigenvalue e of the uniform n-cube chain has multiplicity C(n, e), the
    # sum of the sector multiplicities C(n, j) - C(n, j - 1) over
    # j <= min(e, n - e); each sector hands back its copies bitwise equal
    for n in range(1, 9):
        w = eigendecompose(build_glauber_generator(FiniteDistribution.uniform(1 << n))).eigenvalues
        for e in range(n + 1):
            near = w[np.abs(w - e) <= 1e-12]
            assert near.size == math.comb(n, e)
            assert np.unique(near).size <= min(e, n - e) + 1


def test_uniform_four_spin_degenerate_gap():
    spec = eigendecompose(build_glauber_generator(FiniteDistribution.uniform(16)), k_max=6)
    assert np.abs(spec.eigenvalues[1:5] - 1.0).max() <= 1e-10
    assert spec.eigenvalues[5] == pytest.approx(2.0, abs=1e-10)


def test_curie_weiss_fixture_gaps():
    spec = eigendecompose(build_glauber_generator(exact_distribution(curie_weiss(9, 1.5))))
    assert spec.eigenvalues[1] == pytest.approx(CW9_LAMBDA2, rel=1e-9)
    assert spec.eigenvalues[2] == pytest.approx(CW9_LAMBDA3, rel=1e-9)
    # per-update rates (divide by the n unit-rate clocks): the slow rate is
    # below 1e-2 while the next one stays above 1e-3
    assert spec.eigenvalues[1] / 9 < 1e-2
    assert spec.eigenvalues[2] / 9 > 1e-3


def test_trace_identity():
    rng = make_rng(13)
    gen = build_glauber_generator(exact_distribution(random_ising(rng, 6)))
    spec = eigendecompose(gen)
    assert spec.eigenvalues.sum() == pytest.approx(np.trace(gen.A.toarray()), abs=1e-6)


def test_sign_convention_and_partial_consistency():
    rng = make_rng(14)
    gen = build_glauber_generator(exact_distribution(random_ising(rng, 5)))
    full = eigendecompose(gen)
    part = eigendecompose(gen, k_max=4)
    for i in range(part.k):
        lead = np.abs(part.eigenfunctions[:, i]).argmax()
        assert part.eigenfunctions[lead, i] > 0.0
    assert np.abs(part.eigenvalues - full.eigenvalues[:4]).max() <= 1e-10
    assert np.abs(part.eigenfunctions - full.eigenfunctions[:, :4]).max() <= 1e-7
    with pytest.raises(ValueError):
        eigendecompose(gen, k_max=0)
    with pytest.raises(ValueError):
        eigendecompose(gen, k_max=33)


def test_spectrum_validation():
    gen = build_glauber_generator(FiniteDistribution.uniform(8))
    spec = eigendecompose(gen)
    with pytest.raises(ValueError, match="orthonormal"):
        Spectrum(spec.eigenvalues, spec.eigenfunctions * 1.01, spec.pi)
    with pytest.raises(ValueError, match="ascend"):
        Spectrum(spec.eigenvalues[::-1], spec.eigenfunctions[:, ::-1], spec.pi)


def test_spectrum_rejects_a_nan_eigenfunction_entry():
    spec = eigendecompose(build_glauber_generator(FiniteDistribution.uniform(4)))
    F = spec.eigenfunctions.copy()
    F[3, 2] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        Spectrum(spec.eigenvalues, F, spec.pi)
    # an adopted buffer goes through the same checks
    with pytest.raises(ValueError, match="orthonormal"):
        Spectrum._adopt(spec.eigenvalues.copy(), F, spec.pi)
    w = spec.eigenvalues.copy()
    w[0] = np.nan
    with pytest.raises(ValueError, match="ascend"):
        Spectrum._adopt(w, spec.eigenfunctions.copy(), spec.pi)


def test_spectrum_constructor_copies_and_adopted_arrays_are_read_only():
    spec = eigendecompose(build_glauber_generator(exact_distribution(curie_weiss(5, 1.0))))
    for arr in (spec.eigenvalues, spec.eigenfunctions):
        assert not arr.flags.writeable
    w, F = spec.eigenvalues.copy(), spec.eigenfunctions.copy()
    built = Spectrum(w, F, spec.pi)
    assert built == spec
    w[1] += 1.0
    F[:, 1] *= -1.0
    assert built == spec
    with pytest.raises(ValueError):
        spec.eigenfunctions[0, 0] = 2.0


def test_spectrum_equality_compares_entries():
    gen = build_glauber_generator(exact_distribution(curie_weiss(5, 1.0)))
    spec = eigendecompose(gen, 4)
    assert spec == eigendecompose(gen, 4)
    assert spec != eigendecompose(gen, 3)
    flipped = spec.eigenfunctions.copy()
    flipped[:, 1] *= -1.0
    assert spec != Spectrum(spec.eigenvalues, flipped, spec.pi)
    assert spec != gen
    with pytest.raises(TypeError):
        hash(spec)


def test_higher_order_gap():
    spec = eigendecompose(build_glauber_generator(FiniteDistribution.uniform(16)))
    assert higher_order_gap(spec, 1) == pytest.approx(1.0, abs=1e-10)
    assert higher_order_gap(spec, 15) == pytest.approx(4.0, abs=1e-10)
    with pytest.raises(ValueError):
        higher_order_gap(spec, 16)
    with pytest.raises(ValueError):
        higher_order_gap(spec, 0)


def test_mixture_higher_order_gap_dominates_component_gaps():
    # a k-component mixture of product measures keeps every rate from the
    # (k+1)-st up at least as large as the worst component gap
    rng = make_rng(15)
    n = 6
    for k in (2, 3):
        for _ in range(4):
            comps = [product_distribution(rng, n) for _ in range(k)]
            weights = rng.dirichlet(np.ones(k))
            mix = FiniteDistribution(sum(w * c.probs for w, c in zip(weights, comps)))
            spec = eigendecompose(build_glauber_generator(mix), k_max=k + 1)
            gaps = [
                eigendecompose(build_glauber_generator(c), k_max=2).eigenvalues[1]
                for c in comps
            ]
            assert higher_order_gap(spec, k) >= min(gaps) - 1e-8


def test_balance_statistic_basics():
    gen = build_glauber_generator(exact_distribution(curie_weiss(9, 1.5)))
    spec = eigendecompose(gen)
    assert balance_statistic(spec, spec.pi, 4).value <= 1e-10
    m = spec.m
    sym = np.zeros(m)
    sym[0] = sym[m - 1] = 0.5
    assert balance_statistic(spec, FiniteDistribution(sym), 2).value <= 1e-8
    assert balance_statistic(spec, FiniteDistribution.delta(m - 1, m), 2).value > 0.5
    stat = balance_statistic(spec, FiniteDistribution.delta(m - 1, m), 4)
    assert stat.value == pytest.approx(np.linalg.norm(stat.coefficients), abs=1e-12)


def test_balance_statistic_accepts_samples():
    model = curie_weiss(7, 1.2)
    spec = eigendecompose(build_glauber_generator(exact_distribution(model)))
    X = sample_exact(model, 40, seed=77)
    from_samples = balance_statistic(spec, SampleSet(X), 3)
    from_dist = balance_statistic(spec, empirical_distribution(X, 7), 3)
    assert from_samples.value == pytest.approx(from_dist.value, abs=1e-14)


def test_balance_statistic_refuses_samples_off_a_spin_state_space():
    # Potts n=4, q=3 has 81 states, which no spin count n gives
    model = mean_field_potts(4, 3, 1.2)
    spec = eigendecompose(build_glauber_generator(exact_distribution(model), 3), k_max=3)
    X = sample_exact(model, 40, seed=78)
    with pytest.raises(ValueError, match=r"SampleSet is read as \+-1 spins on 2\^n states.* 81"):
        balance_statistic(spec, SampleSet(X), 2)


def test_balance_concentration_slope():
    # median balance of an empirical initialization decays like
    # (sample count)^{-1/2}
    model = low_rank_ising(8, 2, [1.3, 1.1], 0.2, seed=99)
    pi = exact_distribution(model)
    spec = eigendecompose(build_glauber_generator(pi))
    rng = make_rng(1234, "experiment")
    sizes = [50, 200, 800, 3200]
    medians = []
    for size in sizes:
        vals = []
        for _ in range(200):
            idx = rng.choice(pi.m, size=size, p=pi.probs)
            mu = FiniteDistribution(np.bincount(idx, minlength=pi.m) / size)
            vals.append(balance_statistic(spec, mu, 4).value)
        medians.append(np.median(vals))
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_chi2_trajectory_against_divergence_and_expm():
    rng = make_rng(16)
    pi = exact_distribution(random_ising(rng, 6))
    gen = build_glauber_generator(pi)
    spec = eigendecompose(gen)
    mu0 = FiniteDistribution.delta(17, 64)
    times = np.array([0.0, 0.3, 1.0, 2.5])
    traj = chi2_trajectory(spec, mu0, times)
    # t = 0 reproduces the static chi-square divergence
    assert traj[0] == pytest.approx(chi2_divergence(mu0, pi), rel=1e-10)
    for t, val in zip(times, traj):
        assert val == pytest.approx(chi2_via_expm(gen, mu0, float(t)), abs=1e-7)
    assert np.all(np.diff(traj) < 0.0)
    assert chi2_trajectory(spec, mu0, [60.0])[0] <= 1e-10


def test_chi2_trajectory_uniform_delta():
    for n in (3, 5):
        m = 1 << n
        spec = eigendecompose(build_glauber_generator(FiniteDistribution.uniform(m)))
        val = chi2_trajectory(spec, FiniteDistribution.delta(0, m), [0.0])[0]
        assert val == pytest.approx(m - 1, rel=1e-10)


def test_chi2_trajectory_refuses_partial_spectrum():
    gen = build_glauber_generator(FiniteDistribution.uniform(16))
    partial = eigendecompose(gen, k_max=5)
    with pytest.raises(ValueError, match="full spectrum"):
        chi2_trajectory(partial, FiniteDistribution.uniform(16), [1.0])


def test_evolve_distribution_limits():
    rng = make_rng(17)
    pi = exact_distribution(random_ising(rng, 5))
    gen = build_glauber_generator(pi)
    mu0 = FiniteDistribution.delta(3, 32)
    assert tv_distance(evolve_distribution(gen, mu0, 0.0), mu0) <= 1e-12
    assert tv_distance(evolve_distribution(gen, mu0, 80.0), pi) <= 1e-10


@pytest.fixture
def solver_calls(monkeypatch):
    # counts the calls evolve_distribution makes into the semigroup action,
    # and into the dense exponential and eigensolvers it must avoid
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scipy.sparse.linalg, "expm_multiply")
    count(scipy.linalg, "expm")
    count(scipy.linalg, "eigh")
    count(scipy.sparse.linalg, "eigsh")
    return calls


def _evolve_cases():
    # label -> (generator, mu0): a delta start on the spin chain and a
    # random full-support law on the Potts chain
    rng = make_rng(23)
    spin = build_glauber_generator(exact_distribution(curie_weiss(9, 1.5)))
    potts = build_glauber_generator(exact_distribution(mean_field_potts(5, 3, 1.2)), 3)
    weights = rng.exponential(size=potts.m)
    return {
        "spin": (spin, FiniteDistribution.delta(5, spin.m)),
        "potts": (potts, FiniteDistribution(weights / weights.sum())),
    }


@pytest.mark.parametrize(
    "case, t",
    [
        ("spin", 0.5),
        ("spin", 1.0),
        ("spin", 25.0),
        ("spin", 1000.0),
        ("potts", 1.0),
        ("potts", 25.0),
    ],
)
def test_evolve_distribution_matches_dense_oracle(solver_calls, case, t):
    gen, mu0 = _evolve_cases()[case]
    expected = evolve_via_expm(gen, mu0, t)
    for name in solver_calls:
        solver_calls[name] = 0
    got = evolve_distribution(gen, mu0, t).probs
    assert np.abs(got - expected).max() <= 1e-12
    assert solver_calls["expm_multiply"] == 1 and solver_calls["expm"] == 0
    assert solver_calls["eigh"] == solver_calls["eigsh"] == 0


def test_evolve_distribution_route_pin(solver_calls):
    # a long horizon on a large chain, Curie-Weiss n = 12 at t = 100
    # (t ||A||_1 ~ 1270): the semigroup action on the CSR generator, with no
    # dense exponential and no dense copy of A
    gen = build_glauber_generator(exact_distribution(curie_weiss(12, 1.5)))
    mu0 = empirical_distribution(sample_exact(curie_weiss(12, 1.5), 200, seed=3), 12)
    with mock.patch.object(scipy.sparse.csr_array, "toarray") as toarray:
        evolve_distribution(gen, mu0, 100.0)
    assert not toarray.called
    assert solver_calls["expm"] == 0 and solver_calls["expm_multiply"] == 1


def test_evolution_ignores_the_global_random_state():
    # scipy's norm estimates on long horizons draw from numpy's global
    # state; the c10 truth's chain at T = 25 (t ||A||_1 ~ 220) reaches them
    truth = low_rank_ising(8, 1, [1.5], 0.2, seed=4)
    gen = build_glauber_generator(exact_distribution(truth))
    mu0 = empirical_distribution(sample_exact(truth, 2000, seed=1), 8)
    state = np.random.get_state()
    try:
        runs = []
        for seed in (0, 1):
            np.random.seed(seed)
            position = np.random.get_state()[2]
            runs.append(evolve_distribution(gen, mu0, 25.0).probs)
            # the evolution did draw from the global state
            assert np.random.get_state()[2] != position
    finally:
        np.random.set_state(state)
    assert np.array_equal(*runs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    lattice=st.sampled_from([(q, n) for q in (2, 3) for n in range(1, 7)]),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 50.0),
)
@example(lattice=(2, 6), seed=0, t=0.5)
@example(lattice=(3, 5), seed=1, t=50.0)
def test_chi2_identity_between_spectrum_and_semigroup(lattice, seed, t):
    q, n = lattice
    rng = np.random.default_rng(seed)
    pi, mu0 = (FiniteDistribution(w / w.sum()) for w in np.exp(rng.normal(size=(2, q**n))))
    gen = build_glauber_generator(pi, q)
    traj = chi2_trajectory(eigendecompose(gen), mu0, [t])[0]
    assert traj == pytest.approx(chi2_divergence(evolve_distribution(gen, mu0, t), pi), abs=1e-9)


def test_verify_balance_contraction_holds():
    rng = make_rng(18)
    for _ in range(3):
        model = random_ising(rng, 6)
        pi = exact_distribution(model)
        spec = eigendecompose(build_glauber_generator(pi))
        X = sample_exact(model, 50, seed=int(rng.integers(1 << 31)))
        report = verify_balance_contraction(spec, SampleSet(X), 3, [0.5, 1.0, 2.0, 5.0])
        assert report.holds
        assert np.all(report.lhs <= report.bound + 1e-9)


def test_verify_balance_contraction_stationary_and_degenerate():
    rng = make_rng(19)
    pi = exact_distribution(random_ising(rng, 5))
    spec = eigendecompose(build_glauber_generator(pi))
    rep = verify_balance_contraction(spec, pi, 3, [0.5, 2.0])
    assert rep.holds and np.abs(rep.lhs).max() <= 1e-12
    # k = 1: no balance term, pure spectral-gap envelope
    mu0 = FiniteDistribution.delta(7, 32)
    rep = verify_balance_contraction(spec, mu0, 1, [0.0, 1.0, 3.0])
    chi0 = chi2_trajectory(spec, mu0, [0.0])[0]
    lam2 = spec.eigenvalues[1]
    assert rep.epsilon == 0.0
    expected = chi0 * np.exp(-lam2 * np.array([0.0, 1.0, 3.0]))
    assert np.abs(rep.bound - expected).max() <= 1e-10
    assert rep.holds
    with pytest.raises(ValueError, match=">= t0"):
        verify_balance_contraction(spec, mu0, 2, [0.5], t0=1.0)


def test_balance_statistic_derives_k_and_value():
    stat = BalanceStatistic([3.0, -4.0])
    assert [f.name for f in dataclasses.fields(stat)] == ["coefficients"]
    assert (stat.k, stat.value) == (3, 5.0)
    assert (BalanceStatistic([]).k, BalanceStatistic([]).value) == (1, 0.0)
    for bad in ([[0.1]], 0.1, [0.1, float("nan")], [float("inf")]):
        with pytest.raises(ValueError, match="finite 1-D array"):
            BalanceStatistic(bad)


def test_contraction_report_refuses_incoherent_input_by_name():
    good = dict(times=[0.0, 1.0], lhs=[1.0, 0.5], bound=[1.0, 0.6], epsilon=0.1, alpha=0.5)
    assert [f.name for f in dataclasses.fields(ContractionReport)] == list(good)
    assert ContractionReport(**good).holds is True
    assert ContractionReport(**{**good, "lhs": [1.0, 0.7]}).holds is False
    bad = [
        ({"lhs": [1.0], "bound": [1.0, 2.0, 3.0]}, "1-D arrays of one length"),
        ({"times": [[0.0, 1.0]]}, "1-D arrays of one length"),
        ({"epsilon": -1.0}, "epsilon must be finite"),
        ({"epsilon": float("inf")}, "epsilon must be finite"),
        ({"alpha": float("nan")}, "alpha must be finite"),
        ({"alpha": -1e-6}, "alpha must be finite"),
        ({"lhs": [1.0, float("nan")]}, "must be finite"),
        ({"bound": [1.0, float("inf")]}, "must be finite"),
    ]
    for change, message in bad:
        with pytest.raises(ValueError, match=message):
            ContractionReport(**{**good, **change})
    # the builder still reports a rate a Spectrum admits just below zero
    F = np.array([[1.0, 1.0], [1.0, -1.0]])
    spec = Spectrum(np.array([-1e-9, -1e-9]), F, FiniteDistribution.uniform(2))
    rep = verify_balance_contraction(spec, FiniteDistribution.delta(0, 2), 1, [0.0, 1.0])
    assert rep.alpha == -1e-9 and rep.holds


def test_degenerate_block_rotation_invariance():
    # quantities built from projections onto eigenfunctions 2..k must not
    # depend on the basis chosen inside a degenerate block
    m = 16
    gen = build_glauber_generator(FiniteDistribution.uniform(m))
    spec = eigendecompose(gen)
    rng = make_rng(20)
    Q = scipy.linalg.qr(rng.normal(size=(4, 4)))[0]
    F = spec.eigenfunctions.copy()
    F[:, 1:5] = F[:, 1:5] @ Q  # rotate the lambda = 1 block
    rotated = Spectrum(spec.eigenvalues, F, spec.pi)
    mu0 = FiniteDistribution.delta(11, m)
    a = balance_statistic(spec, mu0, 5).value
    b = balance_statistic(rotated, mu0, 5).value
    assert a == pytest.approx(b, abs=1e-10)
    ta = chi2_trajectory(spec, mu0, [0.4, 1.7])
    tb = chi2_trajectory(rotated, mu0, [0.4, 1.7])
    assert np.abs(ta - tb).max() <= 1e-10
