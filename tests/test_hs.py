from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multimix import CapacityError, FiniteDistribution, ParseError, hs, ising
from multimix.hs import (
    GAP_TRANSFER,
    MAX_FIELDS,
    SANDWICH_LIMIT,
    FieldNet,
    SandwichCertificate,
    SpectralSplit,
    build_field_net,
    certify_sandwich,
    dump_field_net,
    exact_mixture_refinement,
    load_field_net,
    mixture_density,
    split_spectrum,
)
from multimix.ising import (
    IsingModel,
    curie_weiss,
    exact_distribution,
    low_rank_ising,
    mean_field_potts,
)
from multimix.measures import _logsumexp, _softmax
from multimix.spectral import build_glauber_generator, eigendecompose


def zero_model(n: int) -> IsingModel:
    return IsingModel(np.zeros((n, n)), np.zeros(n))


def cw_pipeline(n: int, beta: float = 1.5, c: float = 2.0, mesh=None):
    model = curie_weiss(n, beta)
    split = split_spectrum(model, c)
    net = build_field_net(split, 1.0, n, mesh=mesh)
    pi = exact_distribution(model)
    pi2, components = mixture_density(net, split, model)
    return model, split, net, pi, pi2, components


# ---------------------------------------------------------------------------
# spectral split


def test_split_zero_coupling_is_rank_zero():
    split = split_spectrum(zero_model(6), 2.0)
    assert split.r == 0
    assert split.threshold == 0.5
    assert split.negative_trace == 0.0
    assert np.array_equal(split.j_tilde, np.zeros((6, 6)))


def test_split_curie_weiss_keeps_the_uniform_direction():
    model = curie_weiss(9, 1.5)
    split = split_spectrum(model, 2.0)
    assert split.r == 1
    # top eigenvalue of the mean-field coupling is beta (n-1) / n
    assert abs(split.eigenvalues[-1] - 4.0 / 3.0) < 1e-10
    # the n-1 dropped directions each carry -beta/n
    assert abs(split.negative_trace - 4.0 / 3.0) < 1e-10
    v = split.basis[:, -1]
    assert np.allclose(np.abs(v), 1.0 / 3.0, atol=1e-12)
    assert np.allclose(split.j_plus + split.j_tilde, model.J, atol=1e-12)


def test_split_against_dense_eigensolve():
    model = low_rank_ising(8, 2, [1.4, 1.2], 0.2, seed=8)
    split = split_spectrum(model, 2.0)
    assert split.r == 2
    assert np.allclose(split.eigenvalues, [1.2, 1.4], atol=1e-8)
    w = np.linalg.eigvalsh(model.J)
    assert abs(split.negative_trace + w[w < 0.0].sum()) < 1e-10
    assert abs(split.negative_trace - 2.6) < 1e-6
    recon = (split.basis * split.eigenvalues) @ split.basis.T
    assert np.allclose(split.j_plus, recon, atol=1e-12)


def test_split_below_threshold_keeps_nothing():
    # top eigenvalue 0.8 < threshold 0.9, so nothing survives the cut
    split = split_spectrum(curie_weiss(5, 1.0), 10.0)
    assert split.r == 0
    assert np.allclose(split.j_tilde, curie_weiss(5, 1.0).J)


def test_split_rejects_small_c():
    with pytest.raises(ValueError):
        split_spectrum(curie_weiss(5, 1.5), 0.5)
    # a NaN c would keep no direction, and a rank-0 net passes vacuously
    with pytest.raises(ValueError, match="at least 1"):
        split_spectrum(curie_weiss(5, 1.5), float("nan"))


# ---------------------------------------------------------------------------
# field nets


def test_rank_zero_net_is_the_model_itself():
    model = zero_model(6)
    split = split_spectrum(model, 2.0)
    net = build_field_net(split, 1.0, 6)
    assert net.count == 1
    assert net.radius == 0.0
    assert not net.fields.any()
    pi = exact_distribution(model)
    pi2, components = mixture_density(net, split, model)
    assert np.abs(pi2.probs - pi.probs).max() == 0.0
    assert len(components) == 1


def test_spin_components_share_one_checked_coupling():
    model, split, net, _, _, components = cw_pipeline(7)
    # oracle: one fully validated model per field
    assert components == tuple(IsingModel(split.j_tilde, model.b + h) for h in net.fields)
    assert all(c.J is components[0].J for c in components)
    assert not any(c.b.flags.writeable for c in components)
    bad = net.fields.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        components[0]._tilts(bad)


def test_curie_weiss_net_sizes_and_symmetry():
    expected = {5: 45, 7: 123, 9: 155}
    for n, count in expected.items():
        _, _, net, _, _, _ = cw_pipeline(n)
        assert net.count == count
        assert net.count % 2 == 1  # grid is symmetric through the origin
        assert abs(net.weights.sum() - 1.0) < 1e-12
        assert np.linalg.norm(net.fields, axis=1).max() <= net.radius + 1e-9
        # b = 0, so the auxiliary Gaussian weights pair up under h -> -h
        table = {tuple(np.round(f, 9)): w for f, w in zip(net.fields, net.weights)}
        flipped = max(
            abs(w - table[tuple(np.round(-f, 9))])
            for f, w in zip(net.fields, net.weights)
        )
        assert flipped < 1e-8


def test_curie_weiss_fields_are_uniform_tilts():
    _, split, net, _, _, components = cw_pipeline(5)
    for row in net.fields:
        assert np.allclose(row, row[0], atol=1e-12)
    # spin components keep the remainder coupling (diagonal dropped: it only
    # shifts the energy by a constant on the hypercube) and pick up the tilt
    off = split.j_tilde - np.diag(np.diag(split.j_tilde))
    for h, comp in zip(net.fields, components):
        assert np.allclose(comp.J, off, atol=1e-15)
        assert np.allclose(comp.b, h, atol=1e-12)


def test_tilt_laws_share_pair_energies_bitwise():
    _, split, net, _, _, components = cw_pipeline(9)
    # the first law fills the shared pair energies, the rest reuse them
    for h, comp in list(zip(net.fields, components))[::7]:
        alone = IsingModel(split.j_tilde, split.model.b + h)
        assert np.array_equal(exact_distribution(comp).probs, _softmax(ising._energies(alone)))
    shared = components[0]._pairs["pairs"]
    assert all(c._pairs["pairs"] is shared for c in components)
    assert not shared.flags.writeable


def test_doubled_net_is_the_final_grid_from_scratch():
    # Curie-Weiss n = 9 doubles its radius once; the net must equal the
    # grid at the final radius integrated from scratch
    _, split, _, _, _, _ = cw_pipeline(9)
    with mock.patch.object(hs, "_grid_weights", wraps=hs._grid_weights) as grid:
        net = build_field_net(split, 1.0, 9)
    assert grid.call_count == 2
    coords, weights, _ = hs._grid_weights(split, net.radius, net.mesh)
    assert np.array_equal(net.weights, weights)
    assert np.array_equal(net.fields, coords @ split.basis.T)


@pytest.mark.parametrize(
    "model",
    [
        curie_weiss(7, 1.5),
        low_rank_ising(5, 2, [1.6, 1.3], 0.2, seed=0),
        mean_field_potts(3, 3, 1.2),
    ],
    ids=["rank-1", "rank-2", "potts-rank-3"],
)
def test_grid_weights_do_not_depend_on_the_block_size(monkeypatch, model):
    split = split_spectrum(model, 2.0)
    states = split.enumeration[1].size
    monkeypatch.setattr(hs, "_BLOCK_ENTRIES", 1 << 40)
    whole = hs._grid_weights(split, 2.0, 0.2)
    cells = hs._cell_log_masses(split, whole[0], 0.2)
    for nodes in (8, 20):
        monkeypatch.setattr(hs, "_BLOCK_ENTRIES", nodes * states)
        blocks = hs._grid_weights(split, 2.0, 0.2)
        assert np.array_equal(blocks[1], whole[1])
        assert blocks[2] == whole[2]
        assert np.array_equal(hs._cell_log_masses(split, whole[0], 0.2), cells)


def state_cell_log_masses(split, coords, mesh):
    """Oracle: the per-state quadrature that sums every node's log-sum-exp
    over all enumerated states, as the net was integrated before orbit
    rows."""
    r = split.r
    _, base, proj = split.enumeration
    offsets = np.meshgrid(*([np.array([-mesh / 3.0, 0.0, mesh / 3.0])] * r), indexing="ij")
    offsets = np.stack([o.ravel() for o in offsets], axis=1)
    nodes = (coords[:, None, :] + offsets[None, :, :]).reshape(-1, r)
    log_gauss = -0.5 * (nodes * nodes) @ (1.0 / split.eigenvalues)
    width = max(8, hs._BLOCK_ENTRIES // base.size // 8 * 8)
    padded = np.zeros((-(-nodes.shape[0] // 8) * 8, r))
    padded[: nodes.shape[0]] = nodes
    log_z = np.empty(padded.shape[0])
    for lo in range(0, padded.shape[0], width):
        z = proj @ padded[lo : lo + width].T
        z += base[:, None]
        log_z[lo : lo + width] = _logsumexp(z, axis=0, overwrite=True)
    per_node = (log_z[: nodes.shape[0]] + log_gauss).reshape(coords.shape[0], -1)
    return _logsumexp(per_node, axis=1, overwrite=True) + r * math.log(mesh / 3.0)


def quadratures(model, mesh, monkeypatch):
    """Cell log masses at random cells and the field net (None above the
    rank cap), once by orbit rows and once by the state oracle, each from
    a fresh split."""
    out = []
    for cells in (hs._cell_log_masses, state_cell_log_masses):
        monkeypatch.setattr(hs, "_cell_log_masses", cells)
        split = split_spectrum(model, 2.0)
        coords = np.random.default_rng(5).normal(0.0, 1.0, (40, split.r))
        net = None
        if split.r <= hs.MAX_NET_RANK:
            net = build_field_net(split, 1.0, model.n, mesh=mesh)
        out.append((split, cells(split, coords, 0.75 if mesh is None else mesh), net))
    return out


def uniform_field(n: int, b: float) -> IsingModel:
    return IsingModel(curie_weiss(n, 1.5).J, np.full(n, b))


def antiferromagnet(n: int, beta: float) -> IsingModel:
    # kept space: the n - 1 directions orthogonal to 1, eigenvalue -beta/n
    return IsingModel((beta / n) * (np.ones((n, n)) - np.eye(n)), np.zeros(n))


EXCHANGEABLE = pytest.mark.parametrize(
    "model, mesh, orbits",
    [(curie_weiss(n, 1.5), None, n + 1) for n in (5, 7, 9, 11)]
    + [(uniform_field(n, 0.2), None, n + 1) for n in (5, 7, 9, 11)]
    + [
        (mean_field_potts(n, q, 1.2), 0.75, math.comb(n + q - 1, q - 1))
        for n, q in ((3, 3), (4, 3), (3, 4))
    ],
    ids=[f"cw-{n}" for n in (5, 7, 9, 11)]
    + [f"cw-field-{n}" for n in (5, 7, 9, 11)]
    + ["potts-3-3", "potts-4-3", "potts-3-4"],
)


@EXCHANGEABLE
def test_exchangeable_quadrature_sums_over_orbits(monkeypatch, model, mesh, orbits):
    (split, cells, net), (_, oracle_cells, oracle_net) = quadratures(model, mesh, monkeypatch)
    base, proj = split.orbit_rows
    assert base.size == orbits and proj.shape == (orbits, split.r)
    assert not base.flags.writeable and not proj.flags.writeable
    assert np.all(np.abs(cells - oracle_cells) <= 1e-12 * np.abs(oracle_cells))
    if net is not None:
        assert np.array_equal(net.fields, oracle_net.fields)
        assert np.all(np.abs(net.weights - oracle_net.weights) <= 1e-12 * oracle_net.weights)


@EXCHANGEABLE
def test_orbit_grouping_matches_np_unique(model, mesh, orbits):
    features, base, _ = split_spectrum(model, 2.0).enumeration
    sums = features.reshape(base.size, model.n, -1).sum(axis=1)
    first, orbit, counts = ising._group_rows(sums)
    _, u_first, u_orbit, u_counts = np.unique(
        sums, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    assert counts.size == orbits
    assert np.array_equal(first, u_first)
    assert np.array_equal(orbit, u_orbit.reshape(-1))
    assert np.array_equal(counts, u_counts)


@pytest.mark.parametrize(
    "model, mesh, rank",
    [
        (curie_weiss(9, 1.5), None, 1),
        (low_rank_ising(8, 2, [1.6, 1.3], 0.2, seed=0), None, 2),
        (mean_field_potts(4, 3, 1.2), 0.75, 3),
    ],
    ids=["cw-9", "low-rank-8", "potts-4-3"],
)
def test_tail_bound_matches_adaptive_quadrature(model, mesh, rank):
    from scipy.integrate import quad

    split = split_spectrum(model, 2.0)
    assert split.r == rank
    scale = math.sqrt(model.n)
    radius = hs._net_radius(split, scale)
    _, _, log_bulk = hs._grid_weights(split, radius, mesh or 0.5 / scale)
    lam1 = float(split.eigenvalues.max())
    log_w = float(_logsumexp(split.enumeration[1]))
    area = 2.0 * math.pi ** (rank / 2.0) / math.gamma(rank / 2.0)

    def integrand(s):
        return s ** (rank - 1) * math.exp(log_w - log_bulk + s * scale - 0.5 * s * s / lam1)

    tails = []
    for _ in range(5):  # the start radius and the four doublings after it
        oracle = area * quad(integrand, radius, np.inf, epsabs=0, epsrel=1e-12, limit=200)[0]
        tails.append(hs._tail_to_bulk(split, radius, scale, log_bulk))
        # from the fourth radius on both sides underflow to zero or a subnormal
        assert math.isclose(tails[-1], oracle, rel_tol=1e-12, abs_tol=1e-300)
        radius *= 2.0
    assert tails[2] > 1e-300


@pytest.mark.parametrize(
    "model",
    [
        low_rank_ising(8, 2, [1.6, 1.3], 0.2, seed=0),
        low_rank_ising(9, 1, [1.6], 0.2, seed=1),
        antiferromagnet(3, -3.0),
        antiferromagnet(4, -3.0),
    ],
    ids=["low-rank-8", "low-rank-9", "antiferro-3", "antiferro-4"],
)
def test_asymmetric_quadrature_keeps_the_state_rows_bitwise(monkeypatch, model):
    (split, cells, net), (_, oracle_cells, oracle_net) = quadratures(model, None, monkeypatch)
    _, base, proj = split.enumeration
    assert split.orbit_rows[0] is base and split.orbit_rows[1] is proj
    assert np.array_equal(cells, oracle_cells)
    assert net == oracle_net


def test_net_capacity_guards():
    wide = low_rank_ising(8, 4, [1.4, 1.3, 1.2, 1.1], 0.1, seed=1)
    split = split_spectrum(wide, 2.0)
    assert split.r == 4
    with pytest.raises(CapacityError):
        build_field_net(split, 1.0, 8)
    split5 = split_spectrum(curie_weiss(5, 1.5), 2.0)
    with pytest.raises(CapacityError):
        build_field_net(split5, 1.0, 5, mesh=4e-6)


def test_net_input_validation():
    split = split_spectrum(curie_weiss(5, 1.5), 2.0)
    with pytest.raises(ValueError):
        build_field_net(split, 0.0, 5)
    with pytest.raises(ValueError):
        build_field_net(split, 1.0, 5, mesh=-0.1)
    # the mesh and radius scale with sqrt(n), so n must be the model's own
    for n in (0, 4, 50):
        with pytest.raises(ValueError, match=f"n={n} is not the split model's site count 5"):
            build_field_net(split, 1.0, n)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive support radius"):
            build_field_net(split, bad, 5)
        with pytest.raises(ValueError, match="mesh must be finite and positive"):
            build_field_net(split, 1.0, 5, mesh=bad)


def test_field_net_validation():
    with pytest.raises(ValueError):
        FieldNet(fields=np.zeros((2, 3)), weights=np.ones(3), radius=1.0, mesh=0.1)
    with pytest.raises(ValueError, match="at least one field"):
        FieldNet(fields=np.zeros((0, 3)), weights=np.ones(0), radius=1.0, mesh=0.1)
    with pytest.raises(ValueError):
        FieldNet(
            fields=np.zeros((2, 3)),
            weights=np.array([1.2, -0.2]),
            radius=1.0,
            mesh=0.1,
        )
    with pytest.raises(ValueError):
        FieldNet(
            fields=np.ones((1, 3)),
            weights=np.ones(1),
            radius=0.5,  # smaller than the stored field norm
            mesh=0.1,
        )
    nan = float("nan")
    with pytest.raises(ValueError, match="weights"):
        FieldNet(fields=np.zeros((2, 3)), weights=np.array([nan, 1.0]), radius=1.0, mesh=0.1)
    with pytest.raises(ValueError, match="mesh"):
        FieldNet(fields=np.zeros((1, 3)), weights=np.ones(1), radius=1.0, mesh=nan)
    with pytest.raises(ValueError, match="radius"):
        FieldNet(fields=np.zeros((1, 3)), weights=np.ones(1), radius=nan, mesh=0.1)


# ---------------------------------------------------------------------------
# sandwich certificates


def test_curie_weiss_sandwich_certificates():
    frozen = {
        5: (0.9934207207773794, 1.0098459853187105),
        7: (0.9998346535571274, 1.0003213727154878),
        9: (0.9998496688933928, 1.0003137172274241),
    }
    for n, (lo, hi) in frozen.items():
        _, _, _, pi, pi2, _ = cw_pipeline(n)
        cert = certify_sandwich(pi, pi2)
        assert cert.passed
        assert abs(cert.min_ratio - lo) < 1e-6
        assert abs(cert.max_ratio - hi) < 1e-6


def test_mixture_respects_global_flip_symmetry():
    _, _, _, _, pi2, _ = cw_pipeline(5)
    flipped = pi2.probs[np.arange(32) ^ 31]
    assert np.abs(pi2.probs - flipped).max() < 1e-12


def test_mesh_halving_tightens_the_sandwich():
    _, _, coarse_net, pi, coarse_pi2, _ = cw_pipeline(7)
    _, _, _, _, fine_pi2, _ = cw_pipeline(7, mesh=coarse_net.mesh / 2.0)
    coarse = certify_sandwich(pi, coarse_pi2)
    fine = certify_sandwich(pi, fine_pi2)
    assert fine.min_ratio >= coarse.min_ratio - 1e-9
    assert fine.max_ratio <= coarse.max_ratio + 1e-9
    assert abs(fine.min_ratio - 0.9999586569224684) < 1e-6
    assert abs(fine.max_ratio - 1.0000803631220971) < 1e-6


def test_certificate_flags_wide_ratios():
    _, _, _, pi, pi2, _ = cw_pipeline(5)
    # concentrating the reference on the least likely state blows the ratio
    # up at every other state
    spike = 0.98 * np.eye(32)[int(np.argmin(pi.probs))] + 0.02 / 32.0
    cert = certify_sandwich(FiniteDistribution(spike), pi2)
    assert not cert.passed
    assert cert.max_ratio > SANDWICH_LIMIT
    assert cert.min_ratio < 1.0 / SANDWICH_LIMIT


def test_certificate_input_validation():
    uni4 = FiniteDistribution(np.full(4, 0.25))
    uni8 = FiniteDistribution(np.full(8, 0.125))
    with pytest.raises(ValueError):
        certify_sandwich(uni4, uni8)
    hole = np.array([0.0, 0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        certify_sandwich(FiniteDistribution(hole), uni4)
    # the verdict is derived from the two ratios, and a NaN ratio fails it
    assert [f.name for f in dataclasses.fields(SandwichCertificate)] == ["min_ratio", "max_ratio"]
    assert SandwichCertificate(min_ratio=0.5, max_ratio=2.0).passed is True
    assert SandwichCertificate(min_ratio=1e-4, max_ratio=2.0).passed is False
    nan = float("nan")
    assert SandwichCertificate(min_ratio=nan, max_ratio=2.0).passed is False
    assert SandwichCertificate(min_ratio=0.5, max_ratio=nan).passed is False


def test_mixture_density_rejects_foreign_models():
    model, split, net, _, _, _ = cw_pipeline(5)
    with pytest.raises(ValueError):
        mixture_density(net, split, curie_weiss(5, 1.4))
    with pytest.raises(ValueError):
        mixture_density(net, split, mean_field_potts(5, 2, 1.5))
    potts_split = split_spectrum(mean_field_potts(3, 3, 1.2), 2.0)
    with pytest.raises(ValueError):
        mixture_density(net, potts_split, mean_field_potts(3, 3, 1.3))
    with pytest.raises(ValueError):
        mixture_density(net, potts_split, model)
    wide = build_field_net(split_spectrum(curie_weiss(6, 1.5), 2.0), 1.0, 6)
    with pytest.raises(ValueError, match="net fields have width 6, not the split's dimension 5"):
        mixture_density(wide, split, model)


def test_enumeration_capacity():
    big = zero_model(15)
    split = split_spectrum(big, 2.0)
    net = build_field_net(split, 1.0, 15)
    with pytest.raises(CapacityError):
        mixture_density(net, split, big)


def test_potts_enumeration_capacity():
    # 3**9 = 19683 colourings, past the 2**14 exact-enumeration cap
    split = split_spectrum(mean_field_potts(9, 3, 1.2), 2.0)
    assert split.r == 3
    with pytest.raises(CapacityError, match=r"3\*\*9 states"):
        build_field_net(split, 1.0, 9)


# ---------------------------------------------------------------------------
# exact refinement


def test_refinement_reconstructs_exactly():
    _, _, net, pi, _, components = cw_pipeline(5)
    dists = [exact_distribution(c) for c in components]
    q, refined = exact_mixture_refinement(pi, net.weights, dists)
    assert abs(q.sum() - 1.0) < 1e-12
    assert q.min() > 0.0
    recon = q @ np.stack([d.probs for d in refined])
    assert np.abs(recon - pi.probs).max() < 1e-10
    for d in refined:
        assert abs(d.probs.sum() - 1.0) < 1e-12


def test_refinement_of_rank_zero_net_is_trivial():
    model = zero_model(6)
    split = split_spectrum(model, 2.0)
    net = build_field_net(split, 1.0, 6)
    pi = exact_distribution(model)
    _, components = mixture_density(net, split, model)
    q, refined = exact_mixture_refinement(
        pi, net.weights, [exact_distribution(c) for c in components]
    )
    assert np.array_equal(q, [1.0])
    assert np.abs(refined[0].probs - pi.probs).max() < 1e-15


def test_refinement_refuses_a_failed_certificate():
    _, _, net, pi, _, components = cw_pipeline(5)
    dists = [exact_distribution(c) for c in components]
    spike = FiniteDistribution(0.98 * np.eye(32)[np.argmin(pi.probs)] + 0.02 / 32.0)
    with pytest.raises(ValueError, match="sandwich certificate fails"):
        exact_mixture_refinement(spike, net.weights, dists)


def test_refinement_weight_shape_mismatch():
    _, _, net, pi, _, components = cw_pipeline(5)
    dists = [exact_distribution(c) for c in components]
    with pytest.raises(ValueError):
        exact_mixture_refinement(pi, net.weights[:-1], dists)


def test_refinement_refuses_bad_weights_by_name():
    _, _, _, pi, _, components = cw_pipeline(5)
    dists = [exact_distribution(c) for c in components[:2]]
    for bad in ([1.5, -0.5], [np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="mixture weights must be finite and nonnegative"):
            exact_mixture_refinement(pi, bad, dists)
    with pytest.raises(ValueError, match="at least one mixture component"):
        exact_mixture_refinement(pi, [], [])


def test_component_and_refined_stacks_are_adopted_read_only():
    model = mean_field_potts(4, 3, 1.2)
    split = split_spectrum(model, 2.0)
    net = build_field_net(split, 1.0, 4, mesh=0.75)
    pi = exact_distribution(model)
    _, components = mixture_density(net, split, model)
    _, refined = exact_mixture_refinement(pi, net.weights, components)
    for rows in (components, refined):
        stack = rows[0].probs.base
        assert stack is not None and stack.shape == (net.count, 81)
        assert not stack.flags.writeable
        assert all(d.probs.base is stack for d in rows)
        with pytest.raises(ValueError):
            rows[-1].probs[0] = 0.5


# ---------------------------------------------------------------------------
# gap transfer


def component_gap(dist: FiniteDistribution) -> float:
    return float(eigendecompose(build_glauber_generator(dist)).eigenvalues[1])


def test_refined_components_keep_their_gaps():
    _, _, net, pi, _, components = cw_pipeline(5)
    dists = [exact_distribution(c) for c in components]
    q, refined = exact_mixture_refinement(pi, net.weights, dists)
    # a certified sandwich moves any Poincare constant by at most e^6
    for tilted, exact in zip(dists, refined):
        ratio = component_gap(exact) / component_gap(tilted)
        assert ratio >= GAP_TRANSFER
        assert ratio > 0.99  # observed: the tilts barely move the gap here


def test_mixture_spectrum_dominates_component_gaps():
    for n, frozen_min in ((5, 0.7583896263239476), (7, 0.8171886253947558)):
        _, _, net, pi, _, components = cw_pipeline(n)
        dists = [exact_distribution(c) for c in components]
        q, refined = exact_mixture_refinement(pi, net.weights, dists)
        gaps = np.array([component_gap(d) for d in refined])
        assert abs(gaps.min() - frozen_min) < 1e-6
        spec = eigendecompose(build_glauber_generator(pi))
        k_eff = min(net.count, pi.m - 1)
        assert spec.eigenvalues[k_eff] >= gaps.min() * GAP_TRANSFER - 1e-8


# ---------------------------------------------------------------------------
# Potts pipeline


def test_potts_mixture_pipeline():
    model = mean_field_potts(4, 3, 1.2)
    split = split_spectrum(model, 2.0)
    assert split.r == 3
    assert np.allclose(split.eigenvalues, 0.9, atol=1e-10)
    assert abs(split.negative_trace - 2.7) < 1e-10
    net = build_field_net(split, 1.0, 4)
    assert net.count == 69791
    pi = exact_distribution(model)
    pi2, components = mixture_density(net, split, model)
    cert = certify_sandwich(pi, pi2)
    assert cert.passed
    assert abs(cert.min_ratio - 0.9991315304378766) < 1e-6
    assert abs(cert.max_ratio - 1.0018385474723348) < 1e-6
    # Potts components arrive as enumerated laws, already normalized
    assert all(isinstance(c, FiniteDistribution) for c in components[:3])
    q, refined = exact_mixture_refinement(pi, net.weights, components)
    recon = q @ np.stack([d.probs for d in refined])
    assert np.abs(recon - pi.probs).max() < 1e-10


def test_potts_components_match_loop_reference():
    model = mean_field_potts(4, 3, 1.2)
    split = split_spectrum(model, 2.0)
    coords = np.random.default_rng(3).normal(0.0, 1.0, (5, split.r))
    fields = coords @ split.basis.T
    weights = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    net = FieldNet(
        fields=fields,
        weights=weights,
        radius=float(np.linalg.norm(fields, axis=1).max()),
        mesh=0.5,
    )
    pi2, components = mixture_density(net, split, model)
    # state by state: base-3 digits, one-hot colors, E0 = agreement energy
    # minus the kept quadratic form, then one tilt per field
    base = np.empty(81)
    onehot = np.zeros((81, 12))
    for x in range(81):
        digits = [(x // 3**i) % 3 for i in range(4)]
        for i, color in enumerate(digits):
            onehot[x, 3 * i + color] = 1.0
        pairs = sum(digits[i] == digits[j] for i in range(4) for j in range(i))
        proj = onehot[x] @ split.basis
        base[x] = 1.2 / 4 * pairs - 0.5 * np.sum(split.eigenvalues * proj**2)
    reference = []
    for h in fields:
        logits = base + onehot @ h
        p = np.exp(logits - logits.max())
        reference.append(p / p.sum())
    assert len(components) == 5
    for comp, ref in zip(components, reference):
        assert np.abs(comp.probs - ref).max() <= 1e-14
    mix = sum(w * c.probs for w, c in zip(weights, components))
    assert np.abs(pi2.probs - mix).max() <= 1e-14


@pytest.mark.parametrize(
    "model, mesh, enumerator",
    [
        (curie_weiss(7, 1.5), None, "states_matrix"),
        (mean_field_potts(4, 3, 1.2), 0.75, "potts_digits"),
    ],
)
def test_states_are_enumerated_once_per_split(monkeypatch, model, mesh, enumerator):
    # the split's energies and projections both read the features that
    # `ising` enumerates; from cold caches every read gets one enumeration
    seen = []
    original = getattr(ising, enumerator)

    def recorded(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(ising, enumerator, recorded)
    monkeypatch.setattr(ising, "_states_cache", {})
    monkeypatch.setattr(ising, "_onehot_cache", {})
    split = split_spectrum(model, 2.0)
    net = build_field_net(split, 1.0, model.n, mesh=mesh)
    mixture_density(net, split, model)
    assert seen and all(states is seen[0] for states in seen)


# ---------------------------------------------------------------------------
# serialization


def test_field_net_round_trip():
    _, _, net, _, _, _ = cw_pipeline(5)
    text = dump_field_net(net)
    assert text.startswith("fieldnet v1 1 45\n")
    back = load_field_net(text)
    assert back.count == net.count
    assert np.array_equal(back.fields, net.fields)
    assert np.abs(back.weights - net.weights).max() < 1e-15
    assert back.radius <= net.radius + 1e-9
    assert back.mesh == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), count=st.integers(1, 6), n=st.integers(1, 4))
def test_field_net_round_trip_property(data, count, n):
    fields = data.draw(arrays(np.float64, (count, n), elements=st.floats(-5.0, 5.0)))
    raw = data.draw(arrays(np.float64, count, elements=st.floats(0.0, 1.0)))
    assume(raw.sum() > 0.0)
    radius = float(np.linalg.norm(fields, axis=1).max())
    net = FieldNet(fields=fields, weights=raw / raw.sum(), radius=radius, mesh=0.5)
    text = dump_field_net(net)
    assert dump_field_net(load_field_net(text)) == text


def test_field_net_header_rank_must_match_the_fields():
    text = "fieldnet v1 0 2\n1.0 0.0 0.5\n0.0 1.0 0.5\n"
    with pytest.raises(ParseError, match="rank"):
        load_field_net(text)
    assert load_field_net(text.replace("v1 0 2", "v1 2 2")).count == 2


def test_field_net_equality_compares_entries():
    _, split, net, _, _, _ = cw_pipeline(5)
    same = FieldNet(fields=net.fields, weights=net.weights, radius=net.radius, mesh=net.mesh)
    assert net == same
    assert net != FieldNet(fields=net.fields, weights=net.weights, radius=net.radius, mesh=0.0)
    weights = net.weights.copy()
    weights[[0, -1]] = weights[[-1, 0]] + np.array([1e-3, -1e-3])
    assert net != FieldNet(fields=net.fields, weights=weights, radius=net.radius, mesh=net.mesh)
    assert net != split
    with pytest.raises(TypeError):
        hash(net)


def test_spectral_split_equality_compares_entries():
    split = split_spectrum(curie_weiss(5, 1.5), 2.0)
    assert split == split_spectrum(curie_weiss(5, 1.5), 2.0)
    assert split != split_spectrum(curie_weiss(5, 1.5), 3.0)
    assert split != split_spectrum(curie_weiss(5, 1.4), 2.0)
    assert split != split_spectrum(mean_field_potts(2, 3, 1.5), 2.0)
    assert split != split.model
    with pytest.raises(TypeError):
        hash(split)


def test_spectral_split_holds_only_its_inputs():
    model = curie_weiss(5, 1.5)
    split = SpectralSplit(model, 2)
    assert [f.name for f in dataclasses.fields(split)] == ["model", "c"]
    assert type(split.c) is float and split == split_spectrum(model, 2.0)
    # derived parts cannot be set, so they cannot disagree with the inputs
    with pytest.raises(TypeError):
        dataclasses.replace(split, eigenvalues=2 * split.eigenvalues)
    with pytest.raises(dataclasses.FrozenInstanceError):
        split.basis = np.zeros_like(split.basis)
    for name in ("eigenvalues", "basis", "j_plus", "j_tilde"):
        assert not getattr(split, name).flags.writeable
    with pytest.raises(ValueError, match="at least 1"):
        SpectralSplit(model, float("nan"))


def _eigh_split_parts(model, c):
    """The split's parts by the formulas `split_spectrum` first assembled
    them with, kept as the oracle."""
    J, _ = ising._feature_coupling(model)
    vals, vecs = scipy.linalg.eigh(J)
    threshold = 1.0 - 1.0 / c
    keep = vals > threshold
    eigenvalues = vals[keep]
    basis = vecs[:, keep]
    j_plus = (basis * eigenvalues) @ basis.T
    return dict(
        j_plus=j_plus,
        j_tilde=J - j_plus,
        eigenvalues=eigenvalues,
        basis=basis,
        negative_trace=float(-vals[vals < 0.0].sum()) + 0.0,
        threshold=threshold,
    )


@pytest.mark.parametrize(
    "model",
    [
        curie_weiss(5, 1.5),
        low_rank_ising(8, 2, [1.6, 1.3], 0.2, seed=0),
        mean_field_potts(4, 3, 1.2),
    ],
    ids=["curie-weiss", "low-rank", "potts"],
)
def test_spectral_split_parts_match_the_eigh_formulas_bitwise(model):
    split = SpectralSplit(model, 2.0)
    for name, want in _eigh_split_parts(model, 2.0).items():
        got = getattr(split, name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        else:
            assert float.hex(got) == float.hex(want), name


def test_rank_zero_net_round_trip():
    split = split_spectrum(zero_model(6), 2.0)
    net = build_field_net(split, 1.0, 6)
    back = load_field_net(dump_field_net(net))
    assert back.count == 1
    assert back.radius == 0.0


def test_field_net_parse_errors():
    _, _, net, _, _, _ = cw_pipeline(5)
    good = dump_field_net(net)
    with pytest.raises(ParseError):
        load_field_net("")
    with pytest.raises(ParseError):
        load_field_net(good.replace("fieldnet v1", "fieldnet v2"))
    with pytest.raises(ParseError):
        load_field_net(good.replace("fieldnet v1 1 45", "fieldnet v1 2 45"))
    lines = good.splitlines()
    with pytest.raises(ParseError):
        load_field_net("\n".join(lines[:-1]) + "\n")  # count disagrees
    with pytest.raises(ParseError):
        load_field_net(good.replace("fieldnet v1 1 45", "fieldnet v1 1 44"))
    first = lines[1].split()
    doubled = " ".join(first[:-1] + [repr(float(first[-1]) + 0.5)])
    with pytest.raises(ParseError):
        load_field_net("\n".join([lines[0], doubled] + lines[2:]) + "\n")
    with pytest.raises(ParseError):
        load_field_net(good.replace(first[0], "not-a-number", 1))
