"""Supercurrent, Jacobian, integer vorticity, mass, H^-1 distance."""

import numpy as np
import pytest

import torusgl as tg
from torusgl.bundle import constant_section
from torusgl.lattice import components, exterior_derivative, norm, zero_cochain
from torusgl.vortex import (
    ZeroOnPlaquetteError,
    single_dual_loop,
    chern_pairing,
    h_minus1_distance,
    jacobian,
    sparse_windings,
    supercurrent,
    vortex_mass,
    vorticity,
    vorticity_density,
)

from conftest import random_section

# first-order constant of the compact-coupling deviation from the continuum
# identity J(u,A) - J(u,B) = 1/2 d((A-B)(1-|u|^2)); measured ~2.1 on smooth
# fields at N = 16..128 and frozen with margin
DIFF_IDENTITY_C = 4.0


def test_supercurrent_trivial(t2_trivial):
    g = t2_trivial.geom
    j = supercurrent(constant_section(g, 1.0), zero_cochain(g, 1), t2_trivial)
    assert np.abs(j.values).max() == 0.0


def test_supercurrent_plane_wave():
    N, L = 8, 1.0
    g = tg.TorusGeometry((N, N), (L, L))
    b = tg.build_background(g, [[0, 0], [0, 0]])
    h = L / N
    x = np.broadcast_to(g.coordinates(0), g.sites)
    u = tg.Section(g, np.exp(2j * np.pi * x / L))
    j = supercurrent(u, zero_cochain(g, 1), b)
    expected = np.sin(2 * np.pi * h / L) / h
    assert np.abs(j.values[0] - expected).max() <= 1e-12 * expected
    assert np.abs(j.values[1]).max() <= 1e-15 / h


def test_supercurrent_gauge_invariance(rng, t2_bundle, t3_bundle):
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        u = random_section(g, rng)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        theta = tg.GaugePhase(g, rng.standard_normal(g.sites))
        u2, A2 = tg.apply_gauge(u, A, theta)
        j1, j2 = supercurrent(u, A, b), supercurrent(u2, A2, b)
        assert np.abs(j1.values - j2.values).max() <= 1e-12 * max(
            np.abs(j1.values).max(), 1.0
        )


def test_jacobian_definition_and_invariance(rng, t2_bundle):
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    J = jacobian(u, A, t2_bundle)
    dj = exterior_derivative(supercurrent(u, A, t2_bundle))
    F = tg.curvature(A, t2_bundle)
    resid = 2.0 * J - dj - F
    assert np.abs(resid.values).max() <= 1e-12 * max(np.abs(J.values).max(), 1.0)
    theta = tg.GaugePhase(g, rng.standard_normal(g.sites))
    u2, A2 = tg.apply_gauge(u, A, theta)
    J2 = jacobian(u2, A2, t2_bundle)
    assert np.abs(J.values - J2.values).max() <= 1e-12 * max(np.abs(J.values).max(), 1.0)


def test_jacobian_plane_wave_vanishes():
    N = 8
    g = tg.TorusGeometry((N, N), (1.0, 1.0))
    b = tg.build_background(g, [[0, 0], [0, 0]])
    x = np.broadcast_to(g.coordinates(0), g.sites)
    u = tg.Section(g, np.exp(2j * np.pi * x))
    J = jacobian(u, zero_cochain(g, 1), b)
    assert np.abs(J.values).max() <= 1e-12 / g.cell_volume


def _smooth_pair(N, which):
    g = tg.TorusGeometry((N, N), (1.0, 1.0))
    b = tg.build_background(g, [[0, 0], [0, 0]])
    x = np.arange(N) / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    f1 = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    f2 = np.cos(2 * np.pi * (X + Y))
    u = tg.Section(g, (1 + 0.5 * f1) * np.exp(0.7j * f2))
    A = tg.Cochain(g, 1, np.stack([0.8 * f1, 0.3 * f2]))
    B = tg.Cochain(g, 1, np.stack([-0.2 * f2, 0.5 * f1]))
    return g, b, u, A, B


def test_jacobian_difference_identity_first_order():
    errs = {}
    for N in (16, 32, 64):
        g, b, u, A, B = _smooth_pair(N, 0)
        JA, JB = jacobian(u, A, b), jacobian(u, B, b)
        diff = A - B
        mod = 1.0 - np.abs(u.values) ** 2
        pred = 0.5 * exterior_derivative(tg.Cochain(g, 1, diff.values * mod[None]))
        err = norm((JA - JB) - pred)
        h = 1.0 / N
        bound = DIFF_IDENTITY_C * h * norm(diff) * (1 + np.abs(u.values).max() ** 2)
        assert err <= bound, f"N={N}: {err} > {bound}"
        errs[N] = err
    # first-order decay under mesh refinement
    assert errs[32] <= 0.65 * errs[16]
    assert errs[64] <= 0.65 * errs[32]


def test_vorticity_trivial_bundle_total_zero(rng, t2_trivial):
    g = t2_trivial.geom
    u = random_section(g, rng)
    u.values += 3.0  # keep u away from zero
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    v = vorticity(u, A, t2_trivial)
    assert v.total() == 0
    assert np.array_equal(chern_pairing(v), np.zeros((2, 2), dtype=int))


def test_vorticity_integrality_and_pairing(rng, t2_bundle, t3_bundle, t3_aniso_bundle):
    for b in (t2_bundle, t3_bundle, t3_aniso_bundle):
        g = b.geom
        for _ in range(10):
            u = random_section(g, rng)
            A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
            v = vorticity(u, A, b)
            assert v.windings.dtype == np.int64
            assert np.array_equal(chern_pairing(v), b.chern)
            theta = tg.GaugePhase(g, rng.standard_normal(g.sites))
            u2, A2 = tg.apply_gauge(u, A, theta)
            v2 = vorticity(u2, A2, b)
            assert np.array_equal(v.windings, v2.windings)
    # link phases h A ~ 1e9 rad round away the winding's integrality
    u = random_section(t2_bundle.geom, rng)
    A = tg.Cochain(t2_bundle.geom, 1, 1e10 * rng.standard_normal(t2_bundle.geom.shape(1)))
    with pytest.raises(ValueError, match="integrality residue"):
        vorticity(u, A, t2_bundle)
    # parallel slices that disagree carry no closed current
    v = tg.VorticityField(t3_bundle.geom, np.zeros(t3_bundle.geom.shape(2), dtype=np.int64))
    v.windings[0, 1, 1, 0] = 1
    with pytest.raises(ValueError, match="slice sums"):
        chern_pairing(v)


def test_vorticity_flags_zeros(t2_bundle):
    g = t2_bundle.geom
    u = constant_section(g, 1.0)
    u.values[3, 4] = 0.0
    with pytest.raises(ZeroOnPlaquetteError) as exc:
        vorticity(u, zero_cochain(g, 1), t2_bundle)
    # the four plaquettes sharing that vertex are flagged
    assert len(exc.value.plaquettes) == 4


def test_vortex_ansatz_line_support():
    geom = tg.TorusGeometry((16, 16, 16), (1.0, 1.0, 1.0))
    b = tg.build_background(geom, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2)
    u, A = tg.vortex_ansatz(spec, b, geom, 0.1)
    v = vorticity(u, A, b)
    support = np.argwhere(v.windings != 0)
    assert len(support) == geom.sites[2]
    assert all(comp == 0 for comp, *_ in support)  # only (0,1)-plaquettes
    ok, length = single_dual_loop(v)
    assert ok and length == geom.sites[2]
    # no support; two crossing lines meet a cube with four dual edges;
    # no dual loops on T^2
    v.windings[:] = 0
    assert single_dual_loop(v) == (False, 0)
    v.windings[0, 3, 3, :] = 1
    v.windings[1, 3, :, 3] = 1
    assert single_dual_loop(v) == (False, 2 * geom.sites[2])
    flat = tg.TorusGeometry((8, 8), (1.0, 1.0))
    with pytest.raises(ValueError, match="n = 3"):
        single_dual_loop(tg.VorticityField(flat, np.zeros(flat.shape(2), dtype=np.int64)))


def test_vortex_mass():
    g2 = tg.TorusGeometry((8, 8), (1.0, 1.0))
    v = tg.VorticityField(g2, np.zeros(g2.shape(2), dtype=np.int64))
    assert vortex_mass(v) == 0.0
    v.windings[0, 2, 3] = 1
    assert vortex_mass(v) == 1.0
    v.windings[0, 5, 5] = -2
    assert vortex_mass(v) == 3.0

    g3 = tg.TorusGeometry((8, 8, 8), (1.0, 1.0, 2.0))
    v3 = tg.VorticityField(g3, np.zeros(g3.shape(2), dtype=np.int64))
    v3.windings[0, 1, 1, :] = 1  # straight line along axis 2, h_transverse = 0.25
    assert vortex_mass(v3) == pytest.approx(8 * 0.25)

    # on T^4 a winding weighs the product of the two spacings transverse to
    # its plaquette: a flat (0,1)-torus of unit windings has mass L_2 L_3
    g4 = tg.TorusGeometry((4, 5, 4, 6), (1.0, 1.25, 0.8, 1.5))
    v4 = tg.VorticityField(g4, np.zeros(g4.shape(2), dtype=np.int64))
    v4.windings[0, 1, 2, :, :] = 1
    assert vortex_mass(v4) == pytest.approx(0.8 * 1.5)
    v4.windings[5, :, :, 0, 3] = -1  # and a (2,3)-torus: L_0 L_1 more
    assert vortex_mass(v4) == pytest.approx(0.8 * 1.5 + 1.0 * 1.25)


def test_h_minus1_distance_axioms(rng, t2_geom):
    g = t2_geom
    a = tg.random_cochain(g, 2, rng)
    b2 = tg.random_cochain(g, 2, rng)
    c = tg.random_cochain(g, 2, rng)
    assert h_minus1_distance(a, a) == 0.0
    dab = h_minus1_distance(a, b2)
    assert dab == pytest.approx(h_minus1_distance(b2, a), rel=1e-12)
    assert dab > 0.0
    assert h_minus1_distance(a, c) <= dab + h_minus1_distance(b2, c) + 1e-10
    with pytest.raises(ValueError):
        h_minus1_distance(a, tg.random_cochain(g, 1, rng))


def test_h_minus1_distance_constant():
    g = tg.TorusGeometry((8, 8), (2.0, 2.0))
    c = 0.75
    a = tg.constant_cochain(g, 2, c)
    z = tg.zero_cochain(g, 2)
    assert h_minus1_distance(a, z) == pytest.approx(c * np.sqrt(g.volume), rel=1e-12)


def test_sparse_windings_roundtrip(t2_bundle):
    g = t2_bundle.geom
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = tg.vortex_ansatz(spec, t2_bundle, g, 0.25)
    v = vorticity(u, A, t2_bundle)
    triples = sparse_windings(v)
    assert len(triples) == 1
    comp, x, y, w = triples[0]
    assert comp == 0 and w == 1
    assert v.windings[comp, x, y] == 1


def test_vorticity_density_pairing(t2_bundle):
    g = t2_bundle.geom
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = tg.vortex_ansatz(spec, t2_bundle, g, 0.25)
    v = vorticity(u, A, t2_bundle)
    dens = vorticity_density(v)
    from torusgl.bundle import flux_pairing

    pairing = flux_pairing(dens) * (2 * np.pi)  # slice integral, not /2pi
    assert pairing[0, 1] == pytest.approx(1.0, rel=1e-12)


def test_plaquette_quantities_match_per_component_loops(t3_aniso_bundle):
    """vorticity_density, holonomy_residuals and sparse_windings, formed over
    all components at once with geom.plaquette_areas, equal bit for bit the
    per-component loops they replace, h_i h_j in the same operand order."""
    b = t3_aniso_bundle
    g, h = b.geom, b.geom.spacings
    rng = np.random.default_rng(25)
    v = vorticity(random_section(g, rng), tg.random_cochain(g, 1, rng), b)
    circ = exterior_derivative(tg.Cochain(g, 1, [t / hi for t, hi in zip(b.theta0, h)])) - b.f0
    dens, res = vorticity_density(v).values, tg.bundle.holonomy_residuals(b)
    for pos, (i, j) in enumerate(components(3, 2)):
        assert g.plaquette_areas[pos].item() == h[i] * h[j]
        assert dens[pos].tobytes() == (v.windings[pos] / (h[i] * h[j])).tobytes()
        diff = h[i] * h[j] * circ.values[pos]
        assert res[pos].tobytes() == (diff - 2.0 * np.pi * np.round(diff / (2.0 * np.pi))).tobytes()
    assert np.count_nonzero(v.windings) > 0
    assert sparse_windings(v) == [
        (pos, *map(int, site), int(v.windings[pos][tuple(site)]))
        for pos in range(3) for site in np.argwhere(v.windings[pos] != 0)
    ]


@pytest.mark.slow
def test_london_identity_at_minimizer(min_t2_64):
    geom, b, eps, res = min_t2_64
    assert res.converged
    assert res.london_residual <= 1e-6
    # the identity holds because d*F = j there; check that form too
    from torusgl.lattice import codifferential

    F = tg.curvature(res.gauge_field, b)
    el = codifferential(F) - supercurrent(res.section, res.gauge_field, b)
    assert np.abs(el.values).max() <= 100 * 1e-8


@pytest.mark.parametrize(
    "sites, lengths, entries",
    [
        ((16, 16), (1.0, 1.3), {(0, 1): 1}),
        ((8, 6, 10), (1.0, 1.3, 2.0), {(0, 1): 1, (0, 2): 2, (1, 2): -1}),
        ((4, 5, 4, 6), (1.0,) * 4, {(0, 1): 1, (2, 3): 1}),
    ],
    ids=["t2", "t3-class-1-2-m1", "t4-crossing"],
)
def test_london_residual_is_the_laplacian_defect(sites, lengths, entries):
    """london_residual forms the defect as d(d*F - j); on any state, not only
    near criticality, it equals ||-Delta F + F - 2J|| / (1 + ||F||) with the
    2-form Laplacian, as dF = 0 and 2J = dj + F."""
    from torusgl.lattice import laplacian

    rng = np.random.default_rng(33)
    chern = np.zeros((len(sites),) * 2, dtype=int)
    for (i, j), c in entries.items():
        chern[i, j], chern[j, i] = c, -c
    b = tg.build_background(tg.TorusGeometry(sites, lengths), chern)
    u, A = random_section(b.geom, rng), tg.random_cochain(b.geom, 1, rng)
    F = tg.curvature(A, b)
    reference = norm(-1.0 * laplacian(F) + F - 2.0 * jacobian(u, A, b)) / (1.0 + norm(F))
    assert abs(tg.london_residual(u, A, b) - reference) <= 1e-12 * reference


@pytest.mark.slow
def test_h_minus1_sweep_monotone(sweep_fixed80):
    # on one fixed lattice the minimizer Jacobian sharpens toward the target
    # winding density as eps decreases
    dists = [r.hminus1_to_target for r in sweep_fixed80]
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:])), dists


def test_jacobian_slice_pairing_matches_chern(rng, t2_bundle, t3_bundle):
    # the dj part telescopes over closed slices, so 2J pairs to the Chern
    # numbers for any configuration, like the curvature itself
    from torusgl.bundle import flux_pairing

    for b in (t2_bundle, t3_bundle):
        u = random_section(b.geom, rng)
        A = tg.Cochain(b.geom, 1, rng.standard_normal(b.geom.shape(1)))
        pairing = flux_pairing(2.0 * jacobian(u, A, b))
        assert np.allclose(pairing, b.chern, atol=1e-9)
