"""Energies, analytic gradients, truncation, energy density."""

import numpy as np
import pytest

import torusgl as tg
from torusgl.bundle import constant_section
from torusgl.fields import (
    e_energy,
    energy_density,
    g_energy,
    g_gradient,
    linearize,
    truncate,
)
from torusgl.lattice import inner_product, zero_cochain
from torusgl.solve import _flat, _unpack

from conftest import random_section


def test_ground_state_zero(t2_trivial):
    g = t2_trivial.geom
    E = g_energy(constant_section(g, 1.0), zero_cochain(g, 1), t2_trivial, 0.3)
    assert E.total == 0.0
    assert (E.kinetic, E.potential, E.curvature) == (0.0, 0.0, 0.0)


def test_constant_zero_section(t2_trivial):
    g = t2_trivial.geom
    E = g_energy(constant_section(g, 0.0), zero_cochain(g, 1), t2_trivial, 0.5)
    assert E.potential == pytest.approx(1.0)
    assert E.kinetic == 0.0
    assert E.curvature == 0.0


def test_constant_zero_section_nontrivial(t2_bundle):
    g = t2_bundle.geom
    E = g_energy(constant_section(g, 0.0), zero_cochain(g, 1), t2_bundle, 0.5)
    assert E.potential == pytest.approx(1.0)
    assert E.curvature == pytest.approx(0.5 * (2 * np.pi) ** 2)


def test_epsilon_validation(t2_bundle):
    g = t2_bundle.geom
    u = constant_section(g, 1.0)
    with pytest.raises(ValueError):
        g_energy(u, zero_cochain(g, 1), t2_bundle, 0.0)
    with pytest.raises(ValueError):
        e_energy(u, t2_bundle, -0.1)
    with pytest.raises(ValueError):
        energy_density(u, zero_cochain(g, 1), t2_bundle, 1.5)


def test_e_energy_matches_g_minus_background(rng, t2_bundle):
    g = t2_bundle.geom
    u = random_section(g, rng)
    full = g_energy(u, zero_cochain(g, 1), t2_bundle, 0.4)
    bare = e_energy(u, t2_bundle, 0.4)
    f0_half = 0.5 * inner_product(t2_bundle.f0, t2_bundle.f0)
    assert bare.total == pytest.approx(full.total - f0_half, rel=1e-12)
    assert bare.curvature == 0.0


def test_gauge_invariance_of_energy(rng, t2_bundle, t3_bundle):
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        for _ in range(50):
            u = random_section(g, rng)
            A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
            theta = tg.GaugePhase(g, rng.standard_normal(g.sites))
            u2, A2 = tg.apply_gauge(u, A, theta)
            e1 = g_energy(u, A, b, 0.3)
            e2 = g_energy(u2, A2, b, 0.3)
            assert abs(e1.total - e2.total) <= 1e-10 * e1.total


def test_gradient_zero_at_ground_state(t2_trivial):
    g = t2_trivial.geom
    gu, gA = g_gradient(constant_section(g, 1.0), zero_cochain(g, 1), t2_trivial, 0.3)
    assert np.abs(gu).max() == 0.0
    assert np.abs(gA.values).max() == 0.0


def test_gradient_matches_finite_differences(rng, t2_bundle, t3_bundle):
    eps, step = 0.3, 1e-5
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        for _ in range(3):
            u = random_section(g, rng)
            A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
            x0 = _flat(u.values, A)
            gvec = _flat(*g_gradient(u, A, b, eps))
            idx = rng.choice(len(x0), size=60, replace=False)
            fd = np.zeros(len(idx))
            for row, i in enumerate(idx):
                xp = x0.copy()
                xp[i] += step
                up, Ap = _unpack(xp, g)
                xm = x0.copy()
                xm[i] -= step
                um, Am = _unpack(xm, g)
                fd[row] = (
                    g_energy(up, Ap, b, eps).total - g_energy(um, Am, b, eps).total
                ) / (2 * step)
            assert np.abs(gvec[idx] - fd).max() <= 1e-6 * np.abs(fd).max()


def _hessvec_vector(u, A, b, eps, v):
    return linearize(u, A, b, eps).hessvec(*_unpack(v, b.geom)).ravel()


def test_hessvec_matches_central_differences():
    """Exact Hessian-vector products against central differences of the
    gradient, along random directions at random states on T^2 8^2 and T^3 6^3."""
    rng = np.random.default_rng(105)
    step = 1e-5
    worst = 0.0
    for geom, chern in (
        (tg.TorusGeometry((8, 8), (1.0, 1.0)), [[0, 1], [-1, 0]]),
        (tg.TorusGeometry((6, 6, 6), (1.0, 1.0, 1.0)), [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
    ):
        b = tg.build_background(geom, chern)
        for _ in range(10):
            u = random_section(geom, rng)
            A = tg.Cochain(geom, 1, rng.standard_normal(geom.shape(1)))
            eps = float(rng.uniform(0.15, 0.7))
            x0 = _flat(u.values, A)
            v = rng.standard_normal(x0.size)
            hv = _hessvec_vector(u, A, b, eps, v)
            fd = (
                _flat(*g_gradient(*_unpack(x0 + step * v, geom), b, eps))
                - _flat(*g_gradient(*_unpack(x0 - step * v, geom), b, eps))
            ) / (2 * step)
            worst = max(worst, float(np.abs(hv - fd).max() / np.abs(fd).max()))
    assert worst < 1e-6, f"max relative error {worst:.2e}"


def test_hessvec_symmetric(rng, t3_bundle):
    g = t3_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    n = 2 * g.n_sites + g.n_cells(1)
    v, w = rng.standard_normal(n), rng.standard_normal(n)
    vHw = float(v @ _hessvec_vector(u, A, t3_bundle, 0.2, w))
    wHv = float(w @ _hessvec_vector(u, A, t3_bundle, 0.2, v))
    assert abs(vHw - wHv) <= 1e-12 * max(abs(vHw), abs(wHv))


def _reference_product(lin, du, dA, gauge):
    """The Hessian-vector product at lin's state written term by term from
    the links, with no cached factor or scratch: the reference for
    LocalModel.hessvec.  With `gauge` it adds minimize's gauge-fixing term
    w G G^T (du, dA), G theta = (i theta u, d theta).  Packed like _flat."""
    from torusgl.lattice import codifferential, exterior_derivative

    w, h, eps, uv, dv = lin.w, lin.h, lin.eps, lin.u.values, du.values
    hess_u = np.zeros(uv.shape, dtype=np.complex128)
    minus_dj = np.empty(dA.values.shape)
    for i, (link, fwd) in enumerate(lin.links):
        dfwd = np.roll(dv, -1, axis=i) * link
        a = dA.values[i]
        Du = (fwd - uv) / h[i]
        dDu = (dfwd - dv) / h[i] - 1j * a * fwd
        dback = np.conj(link) * (dDu + 1j * h[i] * a * Du)
        hess_u += (w / h[i]) * (np.roll(dback, +1, axis=i) - dDu)
        minus_dj[i] = a * np.real(np.conj(uv) * fwd) - np.imag(
            np.conj(dv) * fwd + np.conj(uv) * dfwd
        ) / h[i]
    mod2 = uv.real**2 + uv.imag**2
    hess_u += -(w / (eps * eps)) * ((1.0 - mod2) * dv - 2.0 * np.real(np.conj(uv) * dv) * uv)
    hess_A = tg.Cochain(du.geom, 1, w * (codifferential(exterior_derivative(dA)).values + minus_dj))
    if gauge:
        theta = np.imag(np.conj(uv) * dv) + codifferential(dA).values[0]
        dtheta = exterior_derivative(tg.Cochain(du.geom, 0, theta[np.newaxis]))
        hess_u, hess_A = hess_u + (w * 1j) * theta * uv, hess_A + w * dtheta
    return _flat(hess_u, hess_A)


def _newton_at(monkeypatch, solver, *args):
    """The `at` that `solver` (minimize or relax_connection) hands to the
    Newton loop: its local model at a packed state."""
    seen = {}

    def capture(at, x, scale, opts, on_step=None):
        seen["at"] = at
        return x, 0.0, 0, "budget"

    monkeypatch.setattr(tg.solve, "_newton", capture)
    solver(*args)
    monkeypatch.undo()
    return seen["at"]


@pytest.mark.parametrize("dim", [2, 3])
def test_products_match_the_reference_formula(dim, monkeypatch):
    """minimize's product (LocalModel.hessvec plus the gauge-fixing term)
    and relax_connection's (LocalModel.hessvec at a zero section change)
    agree with the reference formula to 1e-13 of its largest entry, at a
    vortex core on a nontrivial bundle with A nonzero and u = 0 at a site."""
    from torusgl.lattice import codifferential, exterior_derivative

    rng = np.random.default_rng(40 + dim)
    if dim == 2:
        geom = tg.TorusGeometry((12, 10), (1.0, 1.3))
        chern = [[0, 1], [-1, 0]]
    else:
        geom = tg.TorusGeometry((6, 7, 8), (1.0, 1.0, 1.2))
        chern = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    b = tg.build_background(geom, chern)
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.43, 0.57),), axis=2 if dim == 3 else None)
    eps = 0.2
    u, A = tg.vortex_ansatz(spec, b, geom, eps)
    u.values[(3,) * dim] = 0.0
    A = A + tg.Cochain(geom, 1, 0.3 * rng.standard_normal(geom.shape(1)))
    lin = linearize(u, A, b, eps)
    at = _newton_at(monkeypatch, tg.minimize, u, A, b, eps)
    model = at(_flat(u.values, A))
    worst = 0.0
    for _ in range(3):
        v = rng.standard_normal(2 * geom.n_sites + geom.n_cells(1))
        ref = _reference_product(lin, *_unpack(v, geom), gauge=True)
        worst = max(worst, float(np.abs(model.hessvec(v) - ref).max() / np.abs(ref).max()))
    assert worst <= 1e-13, worst

    # relax_connection's product: its zero-section call, then 2 d of the A part
    at = _newton_at(monkeypatch, tg.relax_connection, u, A, b)
    still = tg.Section(geom, np.zeros(geom.sites))
    relax_lin = linearize(u, A, b, 1.0)
    model = at(np.zeros(geom.n_cells(2)))
    for _ in range(3):
        dA = tg.Cochain(geom, 1, rng.standard_normal(geom.shape(1)))
        ref = _reference_product(relax_lin, still, dA, gauge=False)
        got = relax_lin.hessvec(still, dA).ravel()
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        psi = rng.standard_normal(geom.n_cells(2))
        dA = codifferential(tg.Cochain(geom, 2, psi.reshape(geom.shape(2))))
        ref = _reference_product(relax_lin, still, dA, gauge=False)[2 * geom.n_sites:]
        ref = 2.0 * exterior_derivative(tg.Cochain(geom, 1, ref.reshape(geom.shape(1)))).values
        assert np.abs(model.hessvec(psi) - ref.ravel()).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("bundle", ["t2_bundle", "t3_bundle"])
def test_local_model_reused_matches_fresh_calls(bundle, request):
    """One linearization serves five directions, the gradient and energy
    changes bit for bit as fresh linearizations and g_gradient calls do,
    and gives d*F - j as it is computed from scratch."""
    from torusgl.bundle import curvature
    from torusgl.lattice import codifferential
    from torusgl.vortex import supercurrent

    b = request.getfixturevalue(bundle)
    g = b.geom
    rng = np.random.default_rng(21)
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    eps = 0.2
    model = linearize(u, A, b, eps)
    for _ in range(5):
        du = random_section(g, rng, scale=0.1)
        dA = tg.Cochain(g, 1, 0.1 * rng.standard_normal(g.shape(1)))
        got, fresh = model.hessvec(du, dA), linearize(u, A, b, eps).hessvec(du, dA)
        assert np.array_equal(got, fresh)
        assert model.change(du, dA) == linearize(u, A, b, eps).change(du, dA)
    assert np.array_equal(_flat(*model.gradient()), _flat(*g_gradient(u, A, b, eps)))
    el = codifferential(curvature(A, b)) - supercurrent(u, A, b)
    assert np.array_equal(model.field_equation().values, el.values)


def test_energy_change_matches_energy_difference(rng, t2_bundle):
    g = t2_bundle.geom
    for _ in range(5):
        u = random_section(g, rng)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        du = random_section(g, rng, scale=0.1)
        dA = tg.Cochain(g, 1, 0.1 * rng.standard_normal(g.shape(1)))
        d = linearize(u, A, t2_bundle, 0.3).change(du, dA)
        e0 = g_energy(u, A, t2_bundle, 0.3)
        e1 = g_energy(tg.Section(g, u.values + du.values), A + dA, t2_bundle, 0.3)
        for part in ("kinetic", "potential", "curvature", "total"):
            direct = getattr(e1, part) - getattr(e0, part)
            assert getattr(d, part) == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_energy_change_resolves_sub_ulp_steps(rng, t2_bundle):
    """A step whose energy change is far below one ulp of the energy: the
    term-by-term change still matches the second-order model g.s + s.Hs/2."""
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    eps = 0.3
    x0 = _flat(u.values, A)
    total = g_energy(u, A, t2_bundle, eps).total
    s = 1e-16 * rng.standard_normal(x0.size)
    model = float(_flat(*g_gradient(u, A, t2_bundle, eps)) @ s) + 0.5 * float(
        s @ _hessvec_vector(u, A, t2_bundle, eps, s)
    )
    assert abs(model) < np.spacing(total)
    d = linearize(u, A, t2_bundle, eps).change(*_unpack(s, g)).total
    assert d == pytest.approx(model, rel=1e-8)


def test_gradient_A_part_is_el_equation(rng, t2_bundle, t3_bundle):
    from torusgl.lattice import codifferential, exterior_derivative, laplacian, norm
    from torusgl.vortex import jacobian, supercurrent

    for b in (t2_bundle, t3_bundle):
        g = b.geom
        u = random_section(g, rng)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        _, gA = g_gradient(u, A, b, 0.3)
        F = tg.curvature(A, b)
        expected = g.cell_volume * (codifferential(F) - supercurrent(u, A, b))
        assert np.abs(gA.values - expected.values).max() <= 1e-12 * max(
            np.abs(expected.values).max(), 1.0
        )
        # the London defect is d of the A-gradient on every state, not only
        # near criticality: dF = 0 and 2J = dj + F give
        # -Delta F + F - 2J = d(d*F - j) = d(gA) / w
        defect = -1.0 * laplacian(F) + F - 2.0 * jacobian(u, A, b)
        d_grad = (1.0 / g.cell_volume) * exterior_derivative(gA)
        assert norm(defect - d_grad) <= 1e-12 * norm(d_grad)


def test_gradient_gauge_equivariance(rng, t2_bundle):
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    theta = tg.GaugePhase(g, rng.standard_normal(g.sites))
    u2, A2 = tg.apply_gauge(u, A, theta)
    gu1, gA1 = g_gradient(u, A, t2_bundle, 0.3)
    gu2, gA2 = g_gradient(u2, A2, t2_bundle, 0.3)
    scale = max(np.abs(gu1).max(), 1.0)
    assert np.abs(gu2 - np.exp(1j * theta.theta) * gu1).max() <= 1e-10 * scale
    assert np.abs(gA2.values - gA1.values).max() <= 1e-10 * scale


def test_truncate_pointwise():
    g = tg.TorusGeometry((6, 6), (1.0, 1.0))
    u = constant_section(g, 2.0)
    v = truncate(u)
    assert np.allclose(np.abs(v.values), 1.0)
    inside = tg.Section(g, np.full(g.sites, 0.5 - 0.25j))
    assert np.array_equal(truncate(inside).values, inside.values)
    # |v| = min(|u|, 1) and v parallel to u
    rng = np.random.default_rng(0)
    w = random_section(g, rng, scale=1.5)
    t = truncate(w)
    assert np.allclose(np.abs(t.values), np.minimum(np.abs(w.values), 1.0))


def test_truncation_never_increases_energy(rng, t2_bundle, t3_bundle):
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        for _ in range(100):
            u = random_section(g, rng, scale=1.5)
            A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
            eps = float(rng.uniform(0.1, 0.8))
            before = g_energy(u, A, b, eps).total
            after = g_energy(truncate(u), A, b, eps).total
            assert after <= before


def test_potential_scaling_exact(rng, t2_bundle, t3_bundle):
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        u = random_section(g, rng)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        for eps in (0.8, 0.3, 0.11):
            p1 = g_energy(u, A, b, eps).potential
            p2 = g_energy(u, A, b, eps / 2.0).potential
            assert p2 == 4.0 * p1


def test_energy_density_total(rng, t2_bundle, t3_bundle):
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        u = random_section(g, rng)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        eps = 0.2
        mu = energy_density(u, A, b, eps)
        total = g_energy(u, A, b, eps).total / abs(np.log(eps))
        one = tg.constant_cochain(g, 0, 1.0)
        assert inner_product(mu, one) == pytest.approx(total, rel=1e-10)


def test_energy_density_ground_state(t2_trivial):
    g = t2_trivial.geom
    mu = energy_density(constant_section(g, 1.0), zero_cochain(g, 1), t2_trivial, 0.3)
    assert np.abs(mu.values).max() == 0.0


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="for c=1 on the unit torus the flux 2*pi is topologically fixed, so the "
    "curvature term is bounded below by 2*pi^2 ~ 19.7 spread uniformly over the "
    "torus; the share of total density within 8h of the core is measured at "
    "~0.16, so the 0.60 concentration target cannot be met at eps = 0.05",
)
def test_energy_density_concentration(sweep_quarter):
    rec = next(r for r in sweep_quarter if abs(r.epsilon - 0.05) < 1e-12)
    geom, res = rec.geom, rec.result
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    mu = energy_density(res.section, res.gauge_field, b, 0.05)
    v = tg.vorticity(res.section, res.gauge_field, b)
    loc = np.argwhere(v.windings[0] != 0)[0]
    h = geom.spacings[0]
    center = (loc + 0.5) * h
    X = np.broadcast_to(geom.coordinates(0), geom.sites)
    Y = np.broadcast_to(geom.coordinates(1), geom.sites)
    dx = np.abs(X - center[0])
    dx = np.minimum(dx, geom.lengths[0] - dx)
    dy = np.abs(Y - center[1])
    dy = np.minimum(dy, geom.lengths[1] - dy)
    inside = np.hypot(dx, dy) <= 8 * h
    frac = mu.values[0][inside].sum() / mu.values[0].sum()
    assert frac >= 0.60, f"measured concentration {frac:.3f}"
