"""Hodge decomposition, harmonic projection, Green operator, elliptic solvers."""

import numpy as np
import pytest

import torusgl as tg
from torusgl.hodge import (
    NonCompatibleSourceError,
    _spectral_multiply,
    green,
    harmonic_projection,
    hodge_decompose,
    solve_london,
    solve_poisson,
)
from torusgl.lattice import (
    codifferential,
    constant_cochain,
    exterior_derivative,
    inner_product,
    laplacian,
    norm,
    random_cochain,
    stencil_eigenvalues,
    zero_cochain,
)

GEOMS = [
    tg.TorusGeometry((8, 8), (1.0, 1.0)),
    tg.TorusGeometry((8, 6, 4), (1.0, 1.5, 0.5)),
    tg.TorusGeometry((4, 5, 4, 6), (1.0, 1.25, 0.8, 1.5)),
]


def fourier_mode(geom, degree, kvec, comp=0):
    """Real eigenmode of the stencil Laplacian with eigenvalue lam(kvec)."""
    phase = np.zeros(geom.sites)
    for axis, k in enumerate(kvec):
        x = np.arange(geom.sites[axis]) * 2 * np.pi * k / geom.sites[axis]
        shape = [1] * geom.dim
        shape[axis] = geom.sites[axis]
        phase = phase + x.reshape(shape)
    vals = np.zeros(geom.shape(degree))
    vals[comp] = np.cos(phase)
    lam = sum(
        (2.0 / geom.spacings[a] ** 2) * (1.0 - np.cos(2 * np.pi * k / geom.sites[a]))
        for a, k in enumerate(kvec)
    )
    return tg.Cochain(geom, degree, vals), lam


def test_harmonic_projection_basics(rng):
    for geom in GEOMS:
        c = constant_cochain(geom, 1, np.arange(1.0, geom.dim + 1.0))
        assert np.array_equal(harmonic_projection(c).values, c.values)
        mode, _ = fourier_mode(geom, 0, (1,) + (0,) * (geom.dim - 1))
        assert np.abs(harmonic_projection(mode).values).max() <= 1e-14
        w = random_cochain(geom, 1, rng)
        H1 = harmonic_projection(w)
        H2 = harmonic_projection(H1)
        assert np.array_equal(H1.values, H2.values)
        # mean-free remainder orthogonal to any constant cochain
        xi = constant_cochain(geom, 1, rng.standard_normal(geom.dim))
        assert abs(inner_product(w - H1, xi)) <= 1e-12 * norm(w) * norm(xi)


def test_green_characterization(rng):
    for geom in GEOMS:
        for k in range(geom.dim + 1):
            w = random_cochain(geom, k, rng)
            G = green(w)
            # Delta G(w) = w - H(w), and G is mean-free
            resid = norm(laplacian(G) - (w - harmonic_projection(w)))
            assert resid <= 1e-10 * norm(w)
            assert norm(harmonic_projection(G)) <= 1e-12 * norm(w)
            # harmonic input -> 0
            xi = constant_cochain(geom, k, np.arange(1.0, geom.shape(k)[0] + 1.0))
            assert norm(green(xi)) <= 1e-12 * norm(xi)


def test_green_eigenmode_closed_form():
    for geom in GEOMS:
        kvec = (2, 1) if geom.dim == 2 else (2, 1, 1)
        mode, lam = fourier_mode(geom, 0, kvec)
        G = green(mode)
        assert norm(G - (1.0 / -lam) * mode) <= 1e-10 * norm(mode) / lam


def test_green_commutes_with_laplacian(rng):
    for geom in GEOMS:
        w = random_cochain(geom, 1, rng)
        lhs = laplacian(green(w))
        rhs = green(laplacian(w))
        assert norm(lhs - rhs) <= 1e-10 * max(norm(lhs), 1.0)


def test_hodge_decomposition_random(rng):
    for geom in GEOMS:
        for k in range(geom.dim + 1):
            for _ in range(200):
                w = random_cochain(geom, k, rng)
                parts = hodge_decompose(w)
                nw = norm(w)
                assert norm(parts.reconstruct() - w) <= 1e-10 * nw
                terms = [parts.harmonic]
                if parts.exact_potential is not None:
                    terms.append(exterior_derivative(parts.exact_potential))
                if parts.coexact_potential is not None:
                    terms.append(codifferential(parts.coexact_potential))
                for i, t1 in enumerate(terms):
                    for t2 in terms[i + 1:]:
                        assert abs(inner_product(t1, t2)) <= 1e-10 * nw**2
                xi = parts.harmonic
                assert norm(laplacian(xi)) <= 1e-10 * max(nw, 1.0)


def test_hodge_purity_of_exact_input(rng):
    geom = GEOMS[0]
    phi0, _ = fourier_mode(geom, 0, (1, 2))
    w = exterior_derivative(phi0)
    parts = hodge_decompose(w)
    assert norm(codifferential(parts.coexact_potential)) <= 1e-10 * norm(w)
    assert norm(parts.harmonic) <= 1e-10 * norm(w)
    assert norm(exterior_derivative(parts.exact_potential) - w) <= 1e-10 * norm(w)


def test_hodge_constant_input():
    geom = GEOMS[0]
    w = constant_cochain(geom, 1, [2.0, -1.0])
    parts = hodge_decompose(w)
    assert norm(exterior_derivative(parts.exact_potential)) <= 1e-12
    assert norm(codifferential(parts.coexact_potential)) <= 1e-12
    assert np.allclose(parts.harmonic.values, w.values)


def test_solve_london_basics(rng):
    for geom in GEOMS:
        c = constant_cochain(geom, 2, 3.25)
        v = solve_london(c)
        assert np.allclose(v.values, c.values, atol=1e-12)
        kvec = (1, 3) if geom.dim == 2 else (1, 2, 1)
        mode, lam = fourier_mode(geom, 1, kvec)
        v = solve_london(mode)
        assert norm(v - (1.0 / (1.0 + lam)) * mode) <= 1e-10 * norm(mode)
        f = random_cochain(geom, 1, rng)
        v = solve_london(f)
        assert norm(-1.0 * laplacian(v) + v - f) <= 1e-10 * norm(f)


def test_solve_poisson_basics(rng):
    for geom in GEOMS:
        kvec = (2, 1) if geom.dim == 2 else (1, 1, 2)
        mode, lam = fourier_mode(geom, 1, kvec, comp=geom.dim - 1)
        v = solve_poisson(mode)
        assert norm(v - (1.0 / lam) * mode) <= 1e-10 * norm(mode) / lam
        f = random_cochain(geom, 2, rng)
        f = f - harmonic_projection(f)
        v = solve_poisson(f)
        assert norm(-1.0 * laplacian(v) - f) <= 1e-10 * norm(f)
        assert norm(harmonic_projection(v)) <= 1e-12 * norm(f)
        assert norm(solve_poisson(tg.zero_cochain(geom, 1))) == 0.0
        with pytest.raises(NonCompatibleSourceError):
            solve_poisson(constant_cochain(geom, 1, 1.0))


def test_solver_linearity(rng):
    geom = GEOMS[1]
    for solver in (green, solve_london):
        f1 = random_cochain(geom, 1, rng)
        f2 = random_cochain(geom, 1, rng)
        lhs = solver(2.5 * f1 + (-0.75) * f2)
        rhs = 2.5 * solver(f1) + (-0.75) * solver(f2)
        assert norm(lhs - rhs) <= 1e-10 * max(norm(rhs), 1.0)


def cg_solve(apply_op, rhs):
    """Plain conjugate gradients on cochains for an SPD operator, to a
    relative residual of 1e-12 within 10 N iterations, N the site count;
    fails the test if it does not converge."""
    x = zero_cochain(rhs.geom, rhs.degree)
    r = rhs.copy()
    p = r.copy()
    rs = inner_product(r, r)
    target = 1e-12 * max(np.sqrt(rs), 1e-300)
    for _ in range(10 * rhs.geom.n_sites):
        if np.sqrt(rs) <= target:
            return x
        Ap = apply_op(p)
        alpha = rs / inner_product(p, Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = inner_product(r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    assert np.sqrt(rs) <= target, f"conjugate gradients did not converge (residual {np.sqrt(rs):.3e})"
    return x


def test_spectral_solves_match_cg_reference(rng):
    """The spectral solves agree with conjugate gradients on the stencil
    operators, an independent path."""
    geom = GEOMS[0]
    f = random_cochain(geom, 1, rng)
    vs = solve_london(f)
    vc = cg_solve(lambda p: -1.0 * laplacian(p) + p, f)
    assert norm(vs - vc) <= 1e-9 * norm(vs)
    mf = f - harmonic_projection(f)
    ps = solve_poisson(mf)
    pc = cg_solve(lambda p: -1.0 * laplacian(p), mf)
    pc = pc - harmonic_projection(pc)
    assert norm(ps - pc) <= 1e-9 * max(norm(ps), 1.0)


def test_stencil_eigenvalues_match_operator(rng):
    for geom in GEOMS:
        lam = stencil_eigenvalues(geom)
        assert lam.shape == geom.sites
        assert lam.min() == 0.0


@pytest.mark.parametrize("geom", GEOMS + [tg.TorusGeometry((9, 7, 5), (1.0, 1.0, 2.0))])
def test_spectral_multiply_matches_irfftn(geom, rng):
    """The in-place inverse passes give irfftn's result bit for bit, with
    one multiplier per component and with one shared by all."""
    values = rng.standard_normal((3, *geom.sites))
    axes = tuple(range(1, values.ndim))
    shared = 1.0 / (1.0 + stencil_eigenvalues(geom))
    each = np.stack([shared, 2.0 * shared, shared**2])
    for mult in (shared, each):
        spec = np.fft.rfftn(values, axes=axes) * mult[..., : geom.sites[-1] // 2 + 1]
        expected = np.fft.irfftn(spec, s=geom.sites, axes=axes)
        assert np.array_equal(_spectral_multiply(values, mult), expected)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_spectral_multiply_split_equals_inline(monkeypatch, rows, rng):
    """Split over 2 or 3 CPUs (cutoff lowered so small lattices split), the
    rows of one apply give the inline result bit for bit, with a shared
    sites-shaped multiplier and with one per row, also written in place
    (out=values), which must return the input array itself."""
    from torusgl import lattice

    for geom in (tg.TorusGeometry((12, 10), (1.0, 1.5)), tg.TorusGeometry((9, 7, 6), (1.0, 1.0, 2.0))):
        values = rng.standard_normal((rows, *geom.sites))
        shared = 1.0 / (1.0 + stencil_eigenvalues(geom))
        for mult in (shared, np.stack([shared / (k + 1.0) for k in range(rows)])):
            monkeypatch.setattr(lattice, "_cpus", lambda: 1)
            ref = _spectral_multiply(values, mult).tobytes()
            monkeypatch.setattr(lattice, "_SPLIT_ENTRIES", 1)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(lattice, "_cpus", lambda: cpus)
                assert _spectral_multiply(values, mult).tobytes() == ref, (rows, cpus)
                inplace = values.copy()
                assert _spectral_multiply(inplace, mult, out=inplace) is inplace
                assert inplace.tobytes() == ref, (rows, cpus, "in place")
            monkeypatch.undo()
