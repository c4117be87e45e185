from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
import typing
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp, softmax

import multimix
from multimix import (
    CapacityError,
    FiniteDistribution,
    ParseError,
    SampleSet,
    chi2_divergence,
    empirical_tv_continuous,
    kl_divergence,
    tv_distance,
)
from multimix.hs import (
    FieldNet,
    build_field_net,
    dump_field_net,
    load_field_net,
    split_spectrum,
)
from multimix.ising import curie_weiss, dump_ising_model, load_ising_model
from multimix.langevin import (
    GaussianComponent,
    LmcResult,
    MixtureModel,
    dump_mixture,
    load_mixture,
)
from multimix.measures import (
    MAX_STATES,
    _header,
    _logsumexp,
    _numbers,
    _Record,
    _row,
    _softmax,
)
from multimix.rng import make_rng
from multimix.spectral import BalanceStatistic, ContractionReport


def random_distribution(rng, m: int) -> FiniteDistribution:
    p = rng.random(m) + 1e-3
    return FiniteDistribution(p / p.sum())


def tv_subset_oracle(p: FiniteDistribution, q: FiniteDistribution) -> float:
    # max_S |P(S) - Q(S)| over every subset of an 8-state space; independent
    # of the l1 formula used by the implementation.
    best = 0.0
    states = range(p.m)
    for size in range(p.m + 1):
        for subset in combinations(states, size):
            idx = list(subset)
            best = max(best, abs(p.probs[idx].sum() - q.probs[idx].sum()))
    return best


def test_distribution_validation():
    with pytest.raises(ValueError):
        FiniteDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        FiniteDistribution(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        FiniteDistribution(np.array([]))
    assert np.array_equal(FiniteDistribution.delta(3, 4).probs, [0.0, 0.0, 0.0, 1.0])
    for index in (-1, 4):
        with pytest.raises(ValueError, match="outside"):
            FiniteDistribution.delta(index, 4)
    d = FiniteDistribution(np.array([0.25, 0.75]))
    assert d.m == 2
    assert not d.probs.flags.writeable


def _kernel_inputs():
    rng = np.random.default_rng(7)
    for shape in [(1,), (9,), (6, 11), (81, 300), (2, 3, 4)]:
        for scale in (1.0, 40.0):
            a = rng.normal(0.0, scale, shape)
            yield a
            yield np.round(a)  # ties at the maximum
            holes = a.copy()
            holes[rng.random(shape) < 0.3] = -np.inf
            yield holes
            if holes.ndim == 2:
                holes[:, 0] = -np.inf  # one all -inf column
                holes[1, :] = -np.inf  # and one all -inf row
                yield holes


def test_kernels_equal_scipy_bit_for_bit():
    for a in _kernel_inputs():
        for axis in [None, *range(a.ndim)]:
            ref = logsumexp(a, axis=axis)
            for got in (_logsumexp(a, axis=axis), _logsumexp(a.copy(), axis, overwrite=True)):
                assert np.array_equal(got, ref, equal_nan=True)
                assert np.shape(got) == np.shape(ref) and type(got) is type(ref)
            with np.errstate(invalid="ignore"):
                ref, got = softmax(a, axis=axis), _softmax(a, axis=axis)
            assert np.array_equal(got, ref, equal_nan=True)


def test_stack_validation_raises_what_a_single_vector_raises():
    good = np.full(4, 0.25)
    nan = np.array([0.5, np.nan, 0.25, 0.25])
    negative = np.array([0.75, -0.25, 0.25, 0.25])
    off = np.array([0.25, 0.25, 0.25, 0.25 + 1e-9])
    for bad in (nan, negative, off):
        with pytest.raises(ValueError) as single:
            FiniteDistribution(bad)
        with pytest.raises(ValueError) as stacked:
            FiniteDistribution._rows(np.stack([good, bad, negative]))
        assert type(stacked.value) is type(single.value)
        assert str(stacked.value) == str(single.value)
    big = np.full((1, MAX_STATES + 1), 1.0 / (MAX_STATES + 1))
    with pytest.raises(CapacityError) as single:
        FiniteDistribution(big[0])
    with pytest.raises(CapacityError) as stacked:
        FiniteDistribution._rows(big)
    assert str(stacked.value) == str(single.value)


def test_stack_rows_are_read_only_distributions():
    stack = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
    rows = FiniteDistribution._rows(stack)
    assert rows == tuple(FiniteDistribution(row) for row in stack)
    # the stack is handed over: adopted read-only, not copied
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0] = 0.0
    assert all(np.shares_memory(d.probs, stack) for d in rows)
    for d in rows:
        assert not d.probs.flags.writeable
        with pytest.raises(ValueError):
            d.probs[0] = 0.5
    assert FiniteDistribution._rows(np.empty((0, 3))) == ()


def test_distribution_equality_compares_entries():
    d = FiniteDistribution.uniform(4)
    assert d == FiniteDistribution.uniform(4)
    assert d != FiniteDistribution.uniform(8)
    assert d != FiniteDistribution(np.array([0.25, 0.25, 0.5, 0.0]))
    assert d != d.probs.tolist()
    with pytest.raises(TypeError):
        hash(d)


# each case: a constructor of the array argument, that argument, and the same
# argument with one entry changed
_RECORD_CASES = {
    "SampleSet": (SampleSet, [[0.5, 1.0], [2.0, -1.0]], [[0.5, 1.0], [2.0, -1.5]]),
    "BalanceStatistic": (BalanceStatistic, [0.3, -0.4], [0.3, 0.4]),
    "ContractionReport": (
        lambda lhs: ContractionReport(
            times=np.array([0.0, 1.0]),
            lhs=lhs,
            epsilon=0.1,
            alpha=0.5,
            chi0=1.0,
        ),
        [0.9, 0.4],
        [0.9, 0.45],
    ),
    "LmcResult": (
        lambda flagged: LmcResult(SampleSet(np.zeros((2, 1))), flagged),
        [False, False],
        [False, True],
    ),
    "FieldNet": (
        lambda fields: FieldNet(fields=fields, weights=np.array([0.5, 0.5]), radius=1.0, mesh=0.5),
        [[0.0], [0.5]],
        [[0.0], [-0.5]],
    ),
}


@pytest.mark.parametrize("name", list(_RECORD_CASES))
def test_array_records_compare_exactly_and_copy_their_input(name):
    make, given, changed = _RECORD_CASES[name]
    x = np.array(given)
    record = make(x)
    assert (record == make(x.copy())) is True
    assert (record == make(np.array(changed))) is False
    assert (record == FiniteDistribution.uniform(2)) is False
    with pytest.raises(TypeError):
        hash(record)
    # the record holds a read-only copy; the caller's array stays theirs
    assert x.flags.writeable


def test_every_array_dataclass_is_a_record():
    arrays_held, missing = set(), []
    for info in pkgutil.iter_modules(multimix.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"multimix.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                continue
            if cls.__module__ != module.__name__:
                continue
            hints = typing.get_type_hints(cls).values()
            if any(
                isinstance(h, type)
                and (issubclass(h, np.ndarray) or h.__module__.startswith("scipy.sparse"))
                for h in hints
            ):
                arrays_held.add(cls.__name__)
                if not issubclass(cls, _Record):
                    missing.append(cls.__name__)
    assert missing == []
    assert arrays_held >= {
        "FiniteDistribution",
        "SampleSet",
        "IsingModel",
        "GeneratorMatrix",
        "Spectrum",
        "BalanceStatistic",
        "ContractionReport",
        "FieldNet",
        "LmcResult",
    }


def test_distribution_capacity_cap():
    m = (1 << 20) + 1
    with pytest.raises(CapacityError):
        FiniteDistribution(np.full(m, 1.0 / m))
    # the cap itself is fine
    FiniteDistribution(np.full(1 << 20, 1.0 / (1 << 20)))


def test_uniform_and_delta_refuse_bad_sizes_before_allocating():
    for m in (0, -1):
        with pytest.raises(ValueError, match="at least one state"):
            FiniteDistribution.uniform(m)
        with pytest.raises(ValueError, match="at least one state"):
            FiniteDistribution.delta(0, m)
    # 2^60 floats cannot be allocated, so only a check made first passes
    with pytest.raises(CapacityError):
        FiniteDistribution.uniform(1 << 60)
    with pytest.raises(CapacityError):
        FiniteDistribution.delta(0, 1 << 60)
    assert FiniteDistribution.uniform(1).probs.tolist() == [1.0]


def test_sample_set_shapes():
    s = SampleSet(np.zeros(5))
    assert (s.n, s.dim) == (5, 1)
    s2 = SampleSet(np.zeros((3, 4)))
    assert (s2.n, s2.dim) == (3, 4)
    with pytest.raises(ValueError):
        SampleSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        SampleSet([[1.0, 2.0], [3.0]])


def test_tv_identity_is_zero():
    rng = make_rng(101)
    p = random_distribution(rng, 16)
    assert tv_distance(p, p) == 0.0


def test_tv_delta_vs_uniform_three_spins():
    # point mass against uniform on {-1,+1}^3: mass 1 vs 1/8 at one state,
    # 0 vs 1/8 at the other seven, so TV = (1/2)(7/8 + 7/8) = 7/8.
    m = 8
    tv = tv_distance(FiniteDistribution.delta(5, m), FiniteDistribution.uniform(m))
    assert tv == pytest.approx(7.0 / 8.0, abs=1e-15)


def test_tv_matches_subset_oracle():
    rng = make_rng(202)
    for _ in range(10):
        p = random_distribution(rng, 8)
        q = random_distribution(rng, 8)
        assert tv_distance(p, q) == pytest.approx(tv_subset_oracle(p, q), abs=1e-12)


def test_tv_dimension_mismatch():
    with pytest.raises(ValueError):
        tv_distance(FiniteDistribution.uniform(4), FiniteDistribution.uniform(8))


def test_tv_symmetry_and_triangle():
    rng = make_rng(303)
    for _ in range(25):
        p = random_distribution(rng, 12)
        q = random_distribution(rng, 12)
        r = random_distribution(rng, 12)
        assert abs(tv_distance(p, q) - tv_distance(q, p)) <= 1e-12
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


def test_chi2_delta_vs_uniform():
    for n in (2, 3, 5):
        m = 1 << n
        val = chi2_divergence(FiniteDistribution.delta(0, m), FiniteDistribution.uniform(m))
        assert val == pytest.approx(m - 1, rel=1e-12)


def test_chi2_off_support_is_inf():
    p = FiniteDistribution(np.array([0.5, 0.5, 0.0]))
    q = FiniteDistribution(np.array([1.0, 0.0, 0.0]))
    assert chi2_divergence(p, q) == math.inf
    assert kl_divergence(p, q) == math.inf
    # reverse direction is finite: q inside supp(p)
    assert math.isfinite(chi2_divergence(q, p))


def test_kl_chi2_domination():
    rng = make_rng(404)
    for _ in range(50):
        p = random_distribution(rng, 10)
        q = random_distribution(rng, 10)
        assert kl_divergence(p, q) <= math.log1p(chi2_divergence(p, q)) + 1e-9


def test_renyi_order_two_matches_chi2():
    rng = make_rng(505)
    for _ in range(20):
        p = random_distribution(rng, 9)
        q = random_distribution(rng, 9)
        # log sum_x p(x)^2 / q(x) = log(1 + chi2), summed in log space
        log_terms = 2.0 * np.log(p.probs) - np.log(q.probs)
        assert logsumexp(log_terms) == pytest.approx(
            math.log1p(chi2_divergence(p, q)), abs=1e-10
        )


def test_data_processing_inequality():
    # pushing both distributions through one stochastic kernel cannot grow TV
    rng = make_rng(707)
    for cols in (8, 5):
        for _ in range(20):
            p = random_distribution(rng, 8)
            q = random_distribution(rng, 8)
            K = rng.random((cols, 8)) + 0.05
            K /= K.sum(axis=0, keepdims=True)
            pk = FiniteDistribution(K @ p.probs / (K @ p.probs).sum())
            qk = FiniteDistribution(K @ q.probs / (K @ q.probs).sum())
            assert tv_distance(pk, qk) <= tv_distance(p, q) + 1e-12


def test_empirical_tv_separated_gaussians():
    rng = make_rng(909)
    a = rng.normal(0.0, 1.0, 10_000)
    b = rng.normal(10.0, 1.0, 10_000)
    assert empirical_tv_continuous(a, b, bins=50) >= 0.95


def test_empirical_tv_null_is_small():
    rng = make_rng(910)
    a = rng.normal(0.0, 1.0, 10_000)
    b = rng.normal(0.0, 1.0, 10_000)
    assert empirical_tv_continuous(a, b, bins=50) <= 0.1


def test_empirical_tv_projection_and_errors():
    rng = make_rng(911)
    a = rng.normal(0.0, 1.0, (2000, 3))
    b = a + np.array([6.0, 0.0, 0.0])
    # separation lives along the first axis; the estimate is direction dependent
    assert empirical_tv_continuous(a, b, direction=[1, 0, 0]) >= 0.9
    assert empirical_tv_continuous(a, b, direction=[0, 1, 0]) <= 0.15
    with pytest.raises(ValueError):
        empirical_tv_continuous(a, b)  # multivariate needs a direction
    with pytest.raises(ValueError):
        empirical_tv_continuous(a, b, bins=1, direction=[1, 0, 0])
    with pytest.raises(ValueError):
        empirical_tv_continuous(a, b, direction=[0, 0, 0])


# ---------------------------------------------------------------------------
# the shared header reader and row writer/reader behind every versioned format


def test_serialization_round_trip():
    rng = make_rng(912)
    probs = random_distribution(rng, 17).probs
    assert np.array_equal(_numbers(_row(probs), 17), probs)
    # exact and signed zeros, subnormals and extreme magnitudes survive the text
    edge = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, -1.7976931348623157e308, 0.1])
    assert _numbers(_row(edge), edge.size).tobytes() == edge.tobytes()
    text = f"demo v1 32 7\n\n  {_row(probs[:2])}  \n{_row(edge)}\n"
    fields, body = _header(text, "demo", 2, "demo")
    assert fields == [32, 7]
    assert body == [_row(probs[:2]), _row(edge)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    values=arrays(
        np.float64,
        st.integers(1, 64),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_serialization_round_trip_property(values):
    assert _numbers(_row(values), values.size).tobytes() == values.tobytes()


def test_serialization_parse_errors():
    for text, match in [
        ("", "empty demo file"),
        (" \n\n", "empty demo file"),
        ("demo v2 4\n", "bad demo header"),
        ("other v1 4\n", "bad demo header"),
        ("demo v1\n", "bad demo header"),
        ("demo v1 4 5\n", "bad demo header"),
        ("demo v1 -4\n", "bad demo header"),
        ("demo v1 4.0\n", "bad demo header"),
    ]:
        with pytest.raises(ParseError, match=match):
            _header(text, "demo", 1, "demo")
    for line, count, match in [
        ("1.0 2.0 3.0", 2, "expected 2 numbers, got 3"),
        ("", 2, "expected 2 numbers, got 0"),
        ("1.0 x", None, "bad number"),
        ("1.0 nan", None, "non-finite"),
        ("-inf", 1, "non-finite"),
        ("1e400", None, "non-finite"),
    ]:
        with pytest.raises(ParseError, match=match):
            _numbers(line, count)


# ---------------------------------------------------------------------------
# every versioned format: a mutated dump loads or fails as a ParseError


@cache
def versioned_dumps() -> dict:
    """One valid dump per versioned text format, with the loader that reads it."""
    model = curie_weiss(3, 1.5)
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    mixture = MixtureModel(
        [0.4, 0.6],
        [
            GaussianComponent([-1.0, 0.5], cov),
            GaussianComponent([1.0, 0.0], 0.5 * cov),
        ],
    )
    net = build_field_net(split_spectrum(model, 2.0), 1.0, 3, mesh=1.0)
    return {
        "ising": (dump_ising_model(model), load_ising_model),
        "fieldnet": (dump_field_net(net), load_field_net),
        "mixture": (dump_mixture(mixture), load_mixture),
    }


FUZZ_TOKENS = ["nan", "inf", "-inf", "1e400", "-1", "0", "x", "", "gaussian", "softplus"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    fmt=st.sampled_from(["ising", "fieldnet", "mixture"]),
    data=st.data(),
)
def test_loaders_fail_only_with_parse_errors(fmt, data):
    text, load = versioned_dumps()[fmt]
    lines = text.splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    mutation = data.draw(st.sampled_from(["drop", "duplicate", "replace"]), label="mutation")
    if mutation == "drop":
        del lines[at]
    elif mutation == "duplicate":
        lines.insert(at, lines[at])
    else:
        tokens = lines[at].split()
        tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")] = data.draw(
            st.sampled_from(FUZZ_TOKENS), label="replacement"
        )
        lines[at] = " ".join(tokens)
    try:
        load("\n".join(lines) + "\n")
    except (ParseError, CapacityError):
        pass
