from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import expit

from multimix import CapacityError, FiniteDistribution, ParseError, ising, tv_distance
from multimix.ising import (
    GlauberTrajectory,
    IsingModel,
    PottsModel,
    conditional_prob,
    curie_weiss,
    dump_ising_model,
    dump_samples,
    empirical_distribution,
    exact_distribution,
    glauber_ensemble_continuous,
    glauber_ensemble_discrete,
    glauber_run_continuous,
    glauber_step_discrete,
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


def test_conditional_prob_values():
    n = 3
    zero = IsingModel(np.zeros((n, n)), np.zeros(n))
    assert conditional_prob(zero, np.ones(n), 1) == 0.5
    J = np.zeros((2, 2))
    J[0, 1] = J[1, 0] = 0.75
    pair = IsingModel(J, np.zeros(2))
    p = conditional_prob(pair, np.array([-1.0, 1.0]), 0)
    assert p == pytest.approx(1.0 / (1.0 + math.exp(-1.5)), rel=1e-12)


def test_conditional_prob_matches_enumeration():
    # oracle: P(x_i = +1 | rest) from the brute-force joint law
    rng = make_rng(31)
    model = random_ising(rng, 2)
    pi = exact_distribution(model)
    for rest in (-1.0, 1.0):
        x_plus = spins_to_index(np.array([1.0, rest]))
        x_minus = spins_to_index(np.array([-1.0, rest]))
        oracle = pi.probs[x_plus] / (pi.probs[x_plus] + pi.probs[x_minus])
        got = conditional_prob(model, np.array([1.0, rest]), 0)
        assert got == pytest.approx(oracle, rel=1e-12)


def test_conditional_prob_monotone_in_field():
    x = np.array([1.0, -1.0, 1.0])
    vals = []
    for b0 in np.linspace(-4.0, 4.0, 9):
        model = IsingModel(np.zeros((3, 3)), np.array([b0, 0.0, 0.0]))
        vals.append(conditional_prob(model, x, 0))
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.999


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
    # same seed, same model
    again = low_rank_ising(8, 2, [1.4, 1.2], 0.2, seed=8)
    assert np.array_equal(again.J, model2.J)


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


def test_trajectory_type_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        GlauberTrajectory(np.array([0.0, 1.0, 1.0]), np.ones((3, 2)), seed=0)
    with pytest.raises(ValueError, match="one spin"):
        GlauberTrajectory(
            np.array([0.0, 1.0]), np.array([[1.0, 1.0], [-1.0, -1.0]]), seed=0
        )
    with pytest.raises(ValueError, match="start at time 0"):
        GlauberTrajectory(np.array([0.5]), np.ones((1, 2)), seed=0)


def test_run_continuous_structure():
    rng = make_rng(32)
    model = random_ising(rng, 5)
    x0 = np.ones(5)
    traj = glauber_run_continuous(model, x0, 0.0, seed=9)
    assert traj.states.shape == (1, 5)
    assert np.array_equal(traj.final_state, x0)
    traj = glauber_run_continuous(model, x0, 3.0, seed=9)
    again = glauber_run_continuous(model, x0, 3.0, seed=9)
    assert np.array_equal(traj.states, again.states)
    assert np.array_equal(traj.times, again.times)
    other = glauber_run_continuous(model, x0, 3.0, seed=10)
    assert traj.states.shape != other.states.shape or not np.array_equal(
        traj.states, other.states
    )
    assert traj.times[-1] <= 3.0


def test_step_discrete_changes_one_coordinate():
    rng_model = make_rng(33)
    model = random_ising(rng_model, 6)
    rng = make_rng(34, "glauber")
    x = np.ones(6)
    for _ in range(50):
        nxt = glauber_step_discrete(model, x, rng)
        assert (nxt != x).sum() <= 1
        x = nxt


def test_uniform_model_reaches_uniform():
    n = 6
    model = IsingModel(np.zeros((n, n)), np.zeros(n))
    X0 = np.tile(np.ones(n), (100_000, 1))
    X = glauber_ensemble_continuous(model, X0, 10.0, seed=41)
    emp = empirical_distribution(X, n)
    assert tv_distance(emp, FiniteDistribution.uniform(1 << n)) <= 0.02


def test_one_step_law_matches_kernel_row():
    rng = make_rng(35)
    model = random_ising(rng, 4)
    x0 = index_to_spins(9, 4)
    trials = 100_000
    X = glauber_ensemble_discrete(model, np.tile(x0, (trials, 1)), 1, seed=42)
    counts = np.bincount(
        ((X > 0) @ (1 << np.arange(4, dtype=np.int64))).astype(int), minlength=16
    )
    row = discrete_kernel(model)[9]
    for state in range(16):
        expected = trials * row[state]
        if row[state] == 0.0:
            assert counts[state] == 0
        else:
            sigma = math.sqrt(trials * row[state] * (1.0 - row[state]))
            assert abs(counts[state] - expected) <= 3.0 * sigma + 1.0


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
