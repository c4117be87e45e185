from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from multimix import CapacityError, FiniteDistribution, ParseError, ising, spectral, tv_distance
from multimix.ising import (
    IsingModel,
    PottsModel,
    curie_weiss,
    dump_ising_model,
    dump_samples,
    empirical_distribution,
    exact_distribution,
    glauber_ensemble_continuous,
    index_to_digits,
    index_to_spins,
    load_ising_model,
    load_samples,
    low_rank_ising,
    mean_field_potts,
    potts_digits,
    sample_exact,
    spins_to_index,
    states_matrix,
)
from multimix.rng import make_rng
from multimix.spectral import build_glauber_generator, eigendecompose


def random_ising(rng, n: int, scale: float = 0.4) -> IsingModel:
    J = rng.normal(0.0, scale / np.sqrt(n), (n, n))
    return IsingModel(0.5 * (J + J.T), rng.normal(0.0, 0.3, n))


def rate_matrix(model: IsingModel) -> np.ndarray:
    return build_glauber_generator(exact_distribution(model)).rate_matrix()


def discrete_kernel(model: IsingModel) -> np.ndarray:
    # one uniform-coordinate heat-bath update
    return np.eye(1 << model.n) + rate_matrix(model) / model.n


def test_model_validation():
    with pytest.raises(ValueError, match="asymmetry"):
        IsingModel(np.array([[0.0, 0.5], [0.2, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        IsingModel(np.zeros((2, 2)), np.zeros(3))
    # self-couplings are dropped: they only shift the normalizer
    m = IsingModel(np.array([[3.0, 0.5], [0.5, -2.0]]), np.zeros(2))
    assert np.all(np.diag(m.J) == 0.0)
    assert m.J[0, 1] == 0.5
    with pytest.raises(ValueError):
        PottsModel(n=3, q=1, beta=1.0)
    with pytest.raises(ValueError):
        PottsModel(n=3, q=3, beta=-0.5)


def test_state_indexing_round_trip():
    S = states_matrix(4)
    for idx in range(16):
        x = index_to_spins(idx, 4)
        assert np.array_equal(S[idx], x)
        assert spins_to_index(x) == idx


def test_state_codec_takes_arrays():
    idx = np.array([[0, 5], [9, 15]])
    X = index_to_spins(idx, 4)
    assert X.shape == (2, 2, 4)
    assert np.array_equal(X, states_matrix(4)[idx])
    assert np.array_equal(spins_to_index(X), idx)
    D = index_to_digits(np.arange(81), 4, 3)
    assert np.array_equal(D, potts_digits(4, 3))
    assert np.array_equal(D @ 3 ** np.arange(4), np.arange(81))
    assert np.array_equal(index_to_digits(40, 4, 3), [1, 1, 1, 1])


def test_small_enumerations_are_cached_read_only():
    S = states_matrix(9)
    assert states_matrix(9) is S
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0] = 1.0
    assert np.array_equal(S, index_to_spins(np.arange(512), 9))
    # above 2^14 states every call enumerates afresh
    big = states_matrix(15)
    assert states_matrix(15) is not big
    assert np.array_equal(states_matrix(15), big)
    # the Potts one-hot features are shared the same way, per (n, q)
    onehot = ising._features(mean_field_potts(4, 3, 1.2))
    assert ising._features(mean_field_potts(4, 3, 0.5)) is onehot
    assert not onehot.flags.writeable
    assert onehot.shape == (81, 12)
    assert np.array_equal(onehot.reshape(81, 4, 3).argmax(axis=2), potts_digits(4, 3))
    assert np.array_equal(onehot.sum(axis=1), np.full(81, 4.0))
    big = ising._features(mean_field_potts(9, 3, 1.2))
    assert ising._features(mean_field_potts(9, 3, 1.2)) is not big


@pytest.mark.parametrize(
    "rows",
    [
        lambda dev: np.array([8.0, 0.0, dev]),
        lambda dev: np.array([[8.0, -8.0], [1.0, 0.0], [1.0, dev]]),
    ],
    ids=["1d", "2d"],
)
def test_orbit_values_accepts_up_to_the_tolerance(rows):
    # orbits {0} and {1, 2}; |values| peaks at 8, so tol = 8e-12 exactly and
    # row 2 leaves its representative, row 1, by exactly |dev|
    tol = 1e-12 * 8.0
    first, orbit = np.array([0, 1]), np.array([0, 1, 1])
    for dev in (0.1 * tol, tol, -tol):
        values = rows(dev)
        got = ising._orbit_values(values, first, orbit)
        assert np.array_equal(got, values[first])
    for dev in (np.nextafter(tol, 1.0), -np.nextafter(tol, 1.0), 10.0 * tol):
        assert ising._orbit_values(rows(dev), first, orbit) is None


def test_enumeration_cache_is_thread_safe(monkeypatch):
    # eight threads race to fill empty caches; each n must end up with one
    # enumeration, and one generator pattern and cube structure, that every
    # thread received
    monkeypatch.setattr(ising, "_states_cache", {})
    for name in ("_patterns", "_cubes"):
        monkeypatch.setattr(spectral, name, {})
    got = [[] for _ in range(8)]
    shared = [[] for _ in range(8)]

    def work(i):
        for n in range(1, 15):
            got[i].append(states_matrix(n))
        for n in range(1, 11):
            shared[i].append((spectral._heat_bath_pattern(n, 2), spectral._cube(n)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n in range(1, 15):
        assert all(out[n - 1] is ising._states_cache[n] for out in got)
    for n in range(1, 11):
        pattern, cube = spectral._patterns[(n, 2)], spectral._cubes[n]
        assert all(out[n - 1][0] is pattern and out[n - 1][1] is cube for out in shared)


def test_potts_digits_capacity(monkeypatch):
    with pytest.raises(CapacityError):
        potts_digits(13, 3)  # 3**13 > 2**20
    with pytest.raises(CapacityError):
        potts_digits(21, 2)
    # the cap is an exact integer bound on q**n
    monkeypatch.setattr(ising, "MAX_STATES", 81)
    assert potts_digits(4, 3).shape == (81, 4)
    with pytest.raises(CapacityError):
        potts_digits(7, 2)  # 128 > 81
    # spin enumeration checks the same bound
    assert states_matrix(6).shape == (64, 6)
    with pytest.raises(CapacityError):
        states_matrix(7)


def test_exact_distribution_small_cases():
    n = 3
    uniform = exact_distribution(IsingModel(np.zeros((n, n)), np.zeros(n)))
    assert np.abs(uniform.probs - 1 / 8).max() <= 1e-15
    one = exact_distribution(IsingModel(np.zeros((1, 1)), np.array([0.5])))
    z = 2.0 * math.cosh(0.5)
    assert one.probs[1] == pytest.approx(math.exp(0.5) / z, rel=1e-14)  # spin +1
    assert one.probs[0] == pytest.approx(math.exp(-0.5) / z, rel=1e-14)


def test_exact_distribution_capacity():
    n = 21
    with pytest.raises(CapacityError):
        exact_distribution(IsingModel(np.zeros((n, n)), np.zeros(n)))
    with pytest.raises(CapacityError):
        exact_distribution(PottsModel(n=13, q=3, beta=1.0))  # 3^13 > 2^20


def test_curie_weiss_bimodal():
    pi = exact_distribution(curie_weiss(9, 1.5))
    mag = states_matrix(9).sum(axis=1)
    assert pi.probs[mag >= 3].sum() >= 0.3
    assert pi.probs[mag <= -3].sum() >= 0.3
    # spin-flip symmetry is exact, state x maps to its bit complement
    comp = np.arange(512) ^ 511
    assert np.array_equal(pi.probs, pi.probs[comp])


def test_curie_weiss_coupling():
    assert np.all(curie_weiss(3, 0.0).J == 0.0)
    model = curie_weiss(8, 1.3)
    w = scipy.linalg.eigvalsh(model.J)
    assert w[-1] == pytest.approx(1.3 * 7 / 8, rel=1e-12)


def test_low_rank_ising_spectrum():
    model = low_rank_ising(8, 1, [1.5], 0.2, seed=7)
    w = np.sort(scipy.linalg.eigvalsh(model.J))
    assert w[-1] == pytest.approx(1.5, abs=1e-10)
    assert np.all(np.diag(model.J) == 0.0)
    assert abs(w.sum()) <= 1e-9
    model2 = low_rank_ising(8, 2, [1.4, 1.2], 0.2, seed=8)
    w2 = np.sort(scipy.linalg.eigvalsh(model2.J))
    assert np.abs(w2[-2:] - [1.2, 1.4]).max() <= 1e-10
    assert w2[-3] < 1.2
    with pytest.raises(ValueError):
        low_rank_ising(4, 5, [1.0] * 5, 0.1, seed=1)
    for spread in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="bulk_spread"):
            low_rank_ising(6, 1, [1.5], spread, seed=4)
    # same seed, same model
    again = low_rank_ising(8, 2, [1.4, 1.2], 0.2, seed=8)
    assert np.array_equal(again.J, model2.J)


def potts_count_energies(model: PottsModel) -> np.ndarray:
    """The Potts energy by agreement counts, (beta/n) sum_c C(count_c, 2),
    kept as the oracle of the feature form (1/2) f'Jf that `_energies`
    computes over one-hot colorings."""
    D = potts_digits(model.n, model.q)
    counts = (D[:, :, None] == np.arange(model.q)).sum(axis=1)
    pairs = 0.5 * (counts * (counts - 1)).sum(axis=1)
    return (model.beta / model.n) * pairs


@pytest.mark.parametrize("beta", [0.0, 1 / 3, 0.7, 1.2, 2.3, 5.1])
def test_potts_energies_match_the_count_form(beta):
    # bit for bit up to 4 sites at every q within the exact cap, and within
    # 1e-15 max|E| on larger sites up to 3^8 states
    for q in range(2, 12):
        for n in range(1, 13):
            if q**n > (ising.MAX_EXACT_STATES if n <= 4 else 3**8):
                break
            model = mean_field_potts(n, q, beta)
            got, want = ising._energies(model), potts_count_energies(model)
            if n <= 4:
                assert np.array_equal(got, want), (n, q)
            else:
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (n, q)


def test_ising_q_is_two():
    model = curie_weiss(3, 1.0)
    assert model.q == 2 and model.q**model.n == exact_distribution(model).m
    with pytest.raises(AttributeError):
        model.q = 3
    with pytest.raises(TypeError, match="expected IsingModel or PottsModel"):
        exact_distribution(object())


def test_mean_field_potts_distribution():
    model = mean_field_potts(4, 3, 1.2)
    pi = exact_distribution(model)
    assert pi.m == 81
    # color permutation invariance
    digits = potts_digits(4, 3)
    powers = 3 ** np.arange(4, dtype=np.int64)
    for perm in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
        mapped = np.asarray(perm)[digits] @ powers
        assert np.abs(pi.probs[mapped] - pi.probs).max() <= 1e-12
    # monochromatic states are the heaviest
    mono = np.array([0, 40, 80])  # 0000, 1111, 2222 base 3
    assert pi.probs[mono].min() >= pi.probs.max() - 1e-15


def test_uniform_model_reaches_uniform():
    n = 6
    model = IsingModel(np.zeros((n, n)), np.zeros(n))
    X0 = np.tile(np.ones(n), (100_000, 1))
    X = glauber_ensemble_continuous(model, X0, 10.0, seed=41)
    emp = empirical_distribution(X, n)
    assert tv_distance(emp, FiniteDistribution.uniform(1 << n)) <= 0.02


def test_stationarity_of_discrete_kernel():
    rng = make_rng(36)
    for n in (4, 8):
        model = random_ising(rng, n)
        pi = exact_distribution(model)
        P = discrete_kernel(model)
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(pi.probs @ P - pi.probs).max() <= 1e-10


def test_continuous_law_matches_matrix_exponential():
    rng = make_rng(37)
    model = random_ising(rng, 6)
    T = 2.0
    x0_idx = 11
    mu_T = scipy.linalg.expm(T * rate_matrix(model).T)[:, x0_idx]
    X0 = np.tile(index_to_spins(x0_idx, 6), (100_000, 1))
    X = glauber_ensemble_continuous(model, X0, T, seed=43)
    emp = empirical_distribution(X, 6)
    assert tv_distance(emp, FiniteDistribution(mu_T / mu_T.sum())) <= 0.01


def test_rate_matrix_consistency():
    # the generator is built from pi; its jump rates must match the heat-bath
    # flip probabilities computed from the model's local fields
    rng = make_rng(38)
    model = random_ising(rng, 5)
    L = rate_matrix(model)
    S = states_matrix(5)
    p_plus = expit(2.0 * (S @ model.J + model.b))  # P(new spin = +1)
    flips = np.where(S > 0, 1.0 - p_plus, p_plus)
    idx = np.arange(32)
    off = L - np.diag(np.diag(L))
    for i in range(5):
        assert np.abs(L[idx, idx ^ (1 << i)] - flips[:, i]).max() <= 1e-12
        off[idx, idx ^ (1 << i)] = 0.0
    assert np.all(off == 0.0)  # single-flip moves only
    assert np.abs(L.sum(axis=1)).max() <= 1e-12


def test_curie_weiss_f2_odd_and_magnetization_measurable():
    # checked for odd n in {5, 7, 9, 11} at beta = 1.5; no exceptions found
    # at any of these sizes, so all four are asserted
    for n in (5, 7, 9, 11):
        pi = exact_distribution(curie_weiss(n, 1.5))
        spec = eigendecompose(build_glauber_generator(pi), k_max=2)
        f2 = spec.eigenfunctions[:, 1]
        m = 1 << n
        assert np.abs(f2 + f2[np.arange(m) ^ (m - 1)]).max() <= 1e-8
        mag = states_matrix(n).sum(axis=1)
        for val in np.unique(mag):
            block = f2[mag == val]
            assert block.max() - block.min() <= 1e-8


def test_sample_exact_and_empirical_distribution():
    rng = make_rng(45)
    model = random_ising(rng, 5)
    pi = exact_distribution(model)
    X = sample_exact(model, 50_000, seed=46)
    assert X.shape == (50_000, 5)
    assert tv_distance(empirical_distribution(X, 5), pi) <= 0.03
    potts = mean_field_potts(3, 3, 0.8)
    C = sample_exact(potts, 100, seed=47)
    assert C.shape == (100, 3)
    assert set(np.unique(C)) <= {0, 1, 2}


def test_empirical_distribution_capacity():
    # refused before any 2^n-long count vector is allocated
    with pytest.raises(CapacityError):
        empirical_distribution(np.ones((1, 40)), 40)


def test_ising_model_equality_compares_entries():
    model = curie_weiss(3, 1.0)
    assert model == curie_weiss(3, 1.0)
    J = model.J.copy()
    J[0, 1] = J[1, 0] = 0.5
    assert model != IsingModel(J, model.b)
    b = model.b.copy()
    b[2] = 0.25
    assert model != IsingModel(model.J, b)
    assert model != PottsModel(3, 2, 1.0)
    with pytest.raises(TypeError):
        hash(model)


def test_model_file_round_trip():
    rng = make_rng(48)
    model = random_ising(rng, 4)
    text = dump_ising_model(model)
    assert text.splitlines()[0] == "ising v1 4"
    back = load_ising_model(text)
    assert np.array_equal(back.J, model.J)
    assert np.array_equal(back.b, model.b)
    with pytest.raises(ParseError):
        load_ising_model("ising v1 2\n0.0 0.1\n0.1 0.0\n")  # missing field row
    with pytest.raises(ParseError):
        load_ising_model("ising v2 1\n0.0\n0.0\n")
    with pytest.raises(ParseError):
        load_ising_model("ising v1 2\n0.0 x\n0.1 0.0\n0.0 0.0\n")
    with pytest.raises(ParseError, match="expected 2 numbers"):
        load_ising_model("ising v1 2\n0.0 0.1 0.2\n0.1 0.0\n0.0 0.0\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_ising_model("ising v1 2\n0.0 nan\nnan 0.0\n0.0 0.0\n")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6))
def test_model_file_round_trip_property(data, n):
    entries = st.floats(-1e6, 1e6)
    upper = np.triu(data.draw(arrays(np.float64, (n, n), elements=entries)), 1)
    model = IsingModel(upper + upper.T, data.draw(arrays(np.float64, n, elements=entries)))
    back = load_ising_model(dump_ising_model(model))
    assert back.J.tobytes() == model.J.tobytes()
    assert back.b.tobytes() == model.b.tobytes()


def test_sample_file_round_trip():
    rng = make_rng(49)
    X = np.where(rng.random((20, 6)) < 0.5, -1.0, 1.0)
    text = dump_samples(X)
    assert np.array_equal(load_samples(text), X)
    with pytest.raises(ParseError):
        load_samples("1 -1\n1\n")
    with pytest.raises(ParseError):
        load_samples("1 2\n")
    with pytest.raises(ParseError):
        load_samples("")


def masked_rounds(model: IsingModel, X: np.ndarray, counts, rng) -> np.ndarray:
    # reference: every round gathers the still-updating rows through a mask
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


def masked_continuous(model: IsingModel, X0, T: float, seed: int) -> np.ndarray:
    X = np.array(X0, dtype=float)
    rng = make_rng(seed, "glauber")
    counts = rng.poisson(model.n * T, X.shape[0]) if T > 0.0 else np.zeros(X.shape[0], int)
    return masked_rounds(model, X, counts, rng)


ENSEMBLE_MODELS = {
    "cw8": curie_weiss(8, 1.5),
    "cw12": curie_weiss(12, 1.5),
    "low_rank9": low_rank_ising(9, 2, [1.5, 1.3], 0.2, seed=3),
    "random7": random_ising(np.random.default_rng(5), 7),
}


@pytest.mark.parametrize("name", sorted(ENSEMBLE_MODELS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ensemble_rounds_match_masked_reference(name, seed):
    model = ENSEMBLE_MODELS[name]
    X0 = sample_exact(model, 300, seed=seed + 10)
    # T = 0.05 leaves most replicas with zero updates; T = 0 leaves all
    for T in (0.0, 0.05, 1.0, 4.0):
        got = glauber_ensemble_continuous(model, X0, T, seed)
        assert np.array_equal(got, masked_continuous(model, X0, T, seed))
    empty = np.empty((0, model.n))
    assert glauber_ensemble_continuous(model, empty, 2.0, seed).shape == (0, model.n)


def test_ensemble_refuses_starts_that_are_not_spins():
    # as empirical_distribution does, and at T = 0 too, where no site is updated
    model = curie_weiss(4, 1.5)
    for bad in (0.5, 0.0, math.nan):
        X0 = np.ones((3, 4))
        X0[1, 2] = bad
        for T in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"\+-1 valued"):
                glauber_ensemble_continuous(model, X0, T, seed=0)
