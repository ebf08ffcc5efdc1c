"""Gauge transformations and Coulomb-type gauge fixing."""

import numpy as np
import pytest

import torusgl as tg
from torusgl.bundle import _cis
from torusgl.gauge import GaugePhase, apply_gauge, coulomb_fix
from torusgl.hodge import hodge_decompose
from torusgl.lattice import codifferential, exterior_derivative, norm

from conftest import random_section


def test_constant_phase_rotates_globally(rng, t2_bundle):
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    theta = GaugePhase(g, np.full(g.sites, 0.73))
    u2, A2 = apply_gauge(u, A, theta)
    assert np.array_equal(A2.values, A.values)
    assert np.allclose(u2.values, u.values * np.exp(0.73j))
    e1 = tg.g_energy(u, A, t2_bundle, 0.3)
    e2 = tg.g_energy(u2, A2, t2_bundle, 0.3)
    assert abs(e1.total - e2.total) <= 1e-12 * e1.total


def test_energy_invariance_random(rng, t2_bundle):
    g = t2_bundle.geom
    for _ in range(20):
        u = random_section(g, rng)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        theta = GaugePhase(g, rng.standard_normal(g.sites))
        u2, A2 = apply_gauge(u, A, theta)
        e1 = tg.g_energy(u, A, t2_bundle, 0.3)
        e2 = tg.g_energy(u2, A2, t2_bundle, 0.3)
        assert abs(e2.total - e1.total) <= 1e-10 * e1.total


def test_apply_gauge_group_inverse(rng, t3_bundle):
    g = t3_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    th = rng.standard_normal(g.sites)
    u2, A2 = apply_gauge(u, A, GaugePhase(g, th))
    u3, A3 = apply_gauge(u2, A2, GaugePhase(g, -th))
    assert np.abs(u3.values - u.values).max() <= 1e-12 * max(np.abs(u.values).max(), 1.0)
    assert np.abs(A3.values - A.values).max() <= 1e-12 * max(np.abs(A.values).max(), 1.0)


def test_all_observables_invariant(rng, t2_bundle):
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    theta = GaugePhase(g, rng.standard_normal(g.sites))
    u2, A2 = apply_gauge(u, A, theta)
    for field_fn in (tg.supercurrent, tg.jacobian):
        f1 = field_fn(u, A, t2_bundle)
        f2 = field_fn(u2, A2, t2_bundle)
        assert np.abs(f1.values - f2.values).max() <= 1e-10 * max(
            np.abs(f1.values).max(), 1.0
        )
    F1 = tg.curvature(A, t2_bundle)
    F2 = tg.curvature(A2, t2_bundle)
    assert np.abs(F1.values - F2.values).max() <= 1e-10 * max(np.abs(F1.values).max(), 1.0)
    assert np.array_equal(
        tg.vorticity(u, A, t2_bundle).windings, tg.vorticity(u2, A2, t2_bundle).windings
    )


def test_coulomb_kills_pure_gauge(rng, t2_geom):
    g = t2_geom
    u = random_section(g, rng)
    theta0 = rng.standard_normal(g.sites)
    A = exterior_derivative(tg.Cochain(g, 0, theta0[np.newaxis]))
    _, A2, _ = coulomb_fix(u, A)
    assert np.abs(A2.values).max() <= 1e-10 * max(np.abs(A.values).max(), 1.0)


def test_coulomb_large_gauge_exact(rng, t2_geom):
    g = t2_geom
    u = random_section(g, rng)
    A = tg.constant_cochain(g, 1, [2 * np.pi * 3 / g.lengths[0], 0.0])
    _, A2, _ = coulomb_fix(u, A)
    assert np.abs(A2.values).max() == 0.0
    # A_0 = +-8 on L_0 = 2.5 (2 pi / 8) is a harmonic part of exactly +-2.5
    # windings, a tie: the winding nearer zero goes, leaving A'_0 = +-pi/L_0
    g = tg.TorusGeometry((16, 16), (2.5 * 2 * np.pi / 8.0, 1.0))
    for sign in (1.0, -1.0):
        A = tg.constant_cochain(g, 1, [sign * 8.0, 0.0])
        _, A2, _ = coulomb_fix(random_section(g, rng), A)
        assert np.abs(A2.values[0] - sign * np.pi / g.lengths[0]).max() <= 1e-12
        assert np.abs(A2.values[1]).max() <= 1e-12


def test_coulomb_postconditions(rng, t2_bundle, t3_bundle):
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        for _ in range(5):
            u = random_section(g, rng)
            A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
            for i in range(g.dim):
                A.values[i] += float(rng.uniform(-12, 12))
            u2, A2, theta = coulomb_fix(u, A)
            # d*A' ~ 0
            assert np.abs(codifferential(A2).values).max() <= 1e-9 * (1.0 + norm(A))
            # harmonic components in the fundamental intervals
            means = A2.values.mean(axis=tuple(range(1, g.dim + 1)))
            for i, m in enumerate(means):
                assert abs(m) <= np.pi / g.lengths[i] + 1e-9
            # gauge equivalence: energies identical
            e1 = tg.g_energy(u, A, b, 0.3)
            e2 = tg.g_energy(u2, A2, b, 0.3)
            assert abs(e2.total - e1.total) <= 1e-10 * e1.total
            # vorticity identical
            assert np.array_equal(
                tg.vorticity(u, A, b).windings,
                tg.vorticity(u2, A2, b).windings,
            )


@pytest.mark.parametrize("wound", [False, True], ids=["unwound", "wound"])
@pytest.mark.parametrize(
    "sites, lengths",
    [((16, 16), (1.0, 1.3)), ((8, 6, 10), (1.0, 1.3, 2.0)), ((4, 5, 4, 6), (1.0,) * 4)],
    ids=["t2", "t3", "t4"],
)
def test_coulomb_fix_rotates_u_once_by_its_phase(sites, lengths, wound):
    """coulomb_fix returns u' = e^{i theta} u for the phase theta it returns,
    bit for bit, and an A' with the links of A + d theta (the winding part
    of theta is a sawtooth, whose seam edge differs by 2 pi / h) and no exact
    Hodge part.  A wound A has 1, ..., n windings added to its means."""
    rng = np.random.default_rng(len(sites) + 10 * wound)
    g = tg.TorusGeometry(sites, lengths)
    u, A = random_section(g, rng), tg.random_cochain(g, 1, rng)
    if wound:
        for i in range(g.dim):
            A.values[i] += 2.0 * np.pi * (i + 1) / g.lengths[i]
    u2, A2, theta = coulomb_fix(u, A)
    axes = tuple(range(1, g.dim + 1))
    windings = np.round((A.values.mean(axis=axes) - A2.values.mean(axis=axes)) * g.lengths / (2 * np.pi))
    assert np.array_equal(windings, np.arange(1, g.dim + 1) if wound else np.zeros(g.dim))
    assert np.array_equal(u2.values.view(np.int64), (_cis(theta.theta, 1) * u.values).view(np.int64))
    dtheta = exterior_derivative(tg.Cochain(g, 0, theta.theta[np.newaxis]))
    turns = (A2 - A - dtheta).values * np.reshape(g.spacings, (-1,) + (1,) * g.dim) / (2 * np.pi)
    assert np.abs(turns - np.round(turns)).max() <= 1e-12
    assert np.abs(exterior_derivative(hodge_decompose(A2).exact_potential).values).max() <= 1e-12


def test_coulomb_idempotent(rng, t2_geom, t3_geom):
    for g in (t3_geom, t2_geom):
        u = random_section(g, rng)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        u2, A2, _ = coulomb_fix(u, A)
        u3, A3, _ = coulomb_fix(u2, A2)
        assert np.abs(A3.values - A2.values).max() <= 1e-9


def test_coulomb_l2_reduction(rng, t2_geom):
    # removing the exact part never increases the L2 norm of A
    g = t2_geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    _, A2, _ = coulomb_fix(u, A)
    assert norm(A2) <= norm(A) + 1e-12


def test_gauge_phase_shape_validation(t2_geom, t3_geom):
    with pytest.raises(ValueError):
        GaugePhase(t2_geom, np.zeros((3, 3)))
    theta = GaugePhase(t2_geom, np.zeros(t2_geom.sites))
    with pytest.raises(ValueError, match="geometry mismatch"):
        apply_gauge(tg.constant_section(t3_geom), tg.zero_cochain(t3_geom, 1), theta)


@pytest.mark.parametrize("n", [16, 256])
def test_apply_gauge_bits_do_not_depend_on_who_holds_the_phase(rng, monkeypatch, n):
    """numpy elides a temporary operand of 256 KiB or more (from 128^2 sites)
    into the product, which swaps the operands of `u * phase`, and its complex
    product is not bitwise commutative.  apply_gauge fixes the order, so its
    bits stay the same when something else keeps the phase factor alive."""
    g = tg.TorusGeometry((n, n), (1.0, 1.0))
    u = random_section(g, rng)
    A = tg.random_cochain(g, 1, rng)
    theta = GaugePhase(g, rng.uniform(-np.pi, np.pi, g.sites))
    expected = apply_gauge(u, A, theta)[0].values
    held = []

    def holding_cis(phase, sign):
        held.append(cis(phase, sign))
        return held[-1]

    cis = tg.gauge._cis
    monkeypatch.setattr(tg.gauge, "_cis", holding_cis)
    assert np.array_equal(apply_gauge(u, A, theta)[0].values.view(np.int64), expected.view(np.int64))
    assert held
