"""Shared fixtures.  The heavy minimization runs are session-scoped so the
acceptance criteria and module tests share one set of converged states."""

import numpy as np
import pytest

import torusgl as tg


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_section(geom, rng, scale=1.0):
    return tg.Section(
        geom,
        scale * (rng.standard_normal(geom.sites) + 1j * rng.standard_normal(geom.sites)),
    )


def bessel_k0(r):
    """K_0(r) = int_0^inf exp(-r cosh t) dt for each r > 0, by the trapezoid
    rule on t in [0, 12] with 4801 points (the integrand at t = 12 is below
    exp(-80000 r)); evaluated in blocks of r to bound the memory."""
    t = np.linspace(0.0, 12.0, 4801)
    r = np.asarray(r, dtype=float)
    out = np.empty(r.size)
    for start in range(0, r.size, 256):
        f = np.exp(-np.multiply.outer(r.flat[start:start + 256], np.cosh(t)))
        out[start:start + 256] = (t[1] - t[0]) * (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1]))
    return out.reshape(r.shape)


def image_sum_k0(a, cutoff=40.0):
    """S(a) = sum of K_0(|lambda|) over the nonzero vectors lambda = (a m, n/a)
    of the period lattice of the unit-area a x 1/a torus with |lambda| <
    cutoff: the shape-dependent part of the London field of one vortex."""
    m = np.arange(-int(cutoff / a) - 1, int(cutoff / a) + 2)
    n = np.arange(-int(cutoff * a) - 1, int(cutoff * a) + 2)
    r = np.hypot(a * m[:, None], n[None, :] / a).ravel()
    return float(bessel_k0(r[(r > 0.0) & (r < cutoff)]).sum())


def covariant_lambda1(b, dense=False):
    """The least eigenvalue lambda_1 of the discrete covariant Laplacian
    D^H D at A = 0 on the bundle b, numpy only: D is formed densely, one
    column of `covariant_difference` per unit section, so keep to about a
    thousand sites (32^2 or 10^3: a 1024^2 or 1000^2 Hermitian matrix).  A
    T^4 bundle whose only Chern entries are c_01 and c_23 takes the product
    rule unless `dense`: its theta0 on axes 0, 1 depends on x_0, x_1 alone
    and on axes 2, 3 on x_2, x_3 alone, so D^H D is the sum of the two
    planes' T^2 operators acting on separate axes, and lambda_1 is the sum
    of theirs."""
    geom = b.geom
    if not dense and geom.dim == 4 and not np.any(b.chern[np.ix_((0, 1), (2, 3))]):
        return sum(covariant_lambda1(tg.build_background(
            tg.TorusGeometry(geom.sites[k:k + 2], geom.lengths[k:k + 2]),
            [[0, b.chern[k, k + 1]], [-b.chern[k, k + 1], 0]])) for k in (0, 2))
    A = tg.zero_cochain(geom, 1)
    D = np.empty((geom.dim * geom.n_sites, geom.n_sites), dtype=np.complex128)
    for j in range(geom.n_sites):
        e = np.zeros(geom.n_sites, dtype=np.complex128)
        e[j] = 1.0
        D[:, j] = tg.covariant_difference(tg.Section(geom, e.reshape(geom.sites)), A, b).ravel()
    return float(np.linalg.eigvalsh(D.conj().T @ D)[0])


def t4_product_start(n, eps, planes, opts):
    """The T^2 n^2 minimizer with c = 1 at eps from the centred ansatz, and on
    n^4 the product of one copy of it per plane in `planes` (each (0, 1) or
    (2, 3)) with the bundle of those unit Chern entries: build_background is
    linear in the Chern matrix, so the product is a section of the combined
    bundle.  Returns (T^2 result, bundle, section, connection)."""
    g2 = tg.TorusGeometry((n, n), (1.0, 1.0))
    b2 = tg.build_background(g2, [[0, 1], [-1, 0]])
    u2, A2 = tg.vortex_ansatz(tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), b2, g2, eps)
    r2 = tg.minimize(u2, A2, b2, eps, opts)
    g4 = tg.TorusGeometry((n,) * 4, (1.0,) * 4)
    chern = np.zeros((4, 4), dtype=int)
    u = np.ones(g4.sites, dtype=complex)
    A = np.zeros(g4.shape(1))
    for i, j in planes:
        chern[i, j], chern[j, i] = 1, -1
        # the plane's two axes carry the T^2 state, the other two are constant
        lift = (slice(None),) * 2 + (None,) * 2 if i == 0 else (None,) * 2 + (slice(None),) * 2
        u = u * r2.section.values[lift]
        A[i] += r2.gauge_field.values[0][lift]
        A[j] += r2.gauge_field.values[1][lift]
    return r2, tg.build_background(g4, chern), tg.Section(g4, u), tg.Cochain(g4, 1, A)


@pytest.fixture(scope="session")
def t2_geom():
    return tg.TorusGeometry((16, 16), (1.0, 1.0))


@pytest.fixture(scope="session")
def t2_bundle(t2_geom):
    return tg.build_background(t2_geom, [[0, 1], [-1, 0]])


@pytest.fixture(scope="session")
def t2_trivial(t2_geom):
    return tg.build_background(t2_geom, [[0, 0], [0, 0]])


@pytest.fixture(scope="session")
def t3_geom():
    return tg.TorusGeometry((8, 8, 8), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def t3_bundle(t3_geom):
    return tg.build_background(t3_geom, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


@pytest.fixture(scope="session")
def t3_aniso_bundle():
    """Multi-pair bundle on an anisotropic T^3: every spacing h_i and every
    Chern entry differs."""
    geom = tg.TorusGeometry((9, 7, 5), (1.0, 1.3, 2.0))
    return tg.build_background(geom, [[0, 1, 2], [-1, 0, -1], [-2, 1, 0]])


@pytest.fixture(scope="session")
def min_t2_64():
    """Converged minimizer on T^2 64^2, c = 1, eps = 0.1, grad tol 1e-8."""
    geom = tg.TorusGeometry((64, 64), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = tg.vortex_ansatz(spec, b, geom, eps=0.1)
    res = tg.minimize(u, A, b, 0.1, tg.MinimizeOptions(tol=1e-8, max_iter=200000))
    return geom, b, 0.1, res


@pytest.fixture(scope="session")
def min_t3_28():
    """Converged minimizer on T^3 28^3, c_01 = 1 line along axis 2, eps = 0.08."""
    geom = tg.TorusGeometry((28, 28, 28), (1.0, 1.0, 1.0))
    b = tg.build_background(geom, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2)
    u, A = tg.vortex_ansatz(spec, b, geom, eps=0.08)
    res = tg.minimize(u, A, b, 0.08, tg.MinimizeOptions(tol=1e-8, max_iter=200000))
    return geom, b, 0.08, res


@pytest.fixture(scope="session")
def sweep_quarter():
    """Warm-started sweep, T^2, c = 1, eps {0.2, 0.1, 0.05, 0.025}, h = eps/4."""
    geom = tg.TorusGeometry((20, 20), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    return tg.epsilon_sweep(
        spec,
        b,
        geom,
        [0.2, 0.1, 0.05, 0.025],
        tg.MinimizeOptions(tol=1e-8, max_iter=200000),
        mesh_rule="quarter",
        seed=3,
    )


@pytest.fixture(scope="session")
def sweep_fixed80():
    """Fixed-lattice sweep (N = 80, h = 1/80) over eps {0.2, 0.1, 0.05}."""
    geom = tg.TorusGeometry((80, 80), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    return tg.epsilon_sweep(
        spec,
        b,
        geom,
        [0.2, 0.1, 0.05],
        tg.MinimizeOptions(tol=1e-8, max_iter=200000),
        mesh_rule="fixed",
        seed=3,
    )
