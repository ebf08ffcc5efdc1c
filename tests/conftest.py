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
