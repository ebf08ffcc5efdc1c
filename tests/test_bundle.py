"""Bundle background construction, covariant difference, curvature."""

import os

import numpy as np
import pytest

import torusgl as tg
from torusgl import bundle
from torusgl.bundle import (
    constant_section,
    flux_pairing,
    holonomy_residuals,
    link_phase,
    link_transport,
)
from torusgl.lattice import exterior_derivative, zero_cochain

from conftest import covariant_lambda1, random_section


def test_trivial_bundle():
    g = tg.TorusGeometry((6, 6), (1.0, 1.0))
    b = tg.build_background(g, [[0, 0], [0, 0]])
    assert np.all(b.theta0 == 0.0)
    assert np.all(b.f0.values == 0.0)
    assert b.is_trivial


def test_background_validation():
    g = tg.TorusGeometry((6, 6), (1.0, 1.0))
    with pytest.raises(ValueError):
        tg.build_background(g, [[0, 0.5], [-0.5, 0]])
    with pytest.raises(ValueError):
        tg.build_background(g, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        tg.build_background(g, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="section shape"):
        tg.Section(g, np.zeros((6, 5)))
    # the links need a degree-1 A and a section, both on the bundle's lattice
    b, other = tg.build_background(g, [[0, 1], [-1, 0]]), tg.TorusGeometry((8, 6), (1.0, 1.0))
    u, A = constant_section(g), zero_cochain(g, 1)
    for args in ((u, zero_cochain(g, 2), b), (u, zero_cochain(other, 1), b),
                 (constant_section(other), A, b)):
        with pytest.raises(ValueError, match="geometry"):
            tg.covariant_difference(*args)


def test_flux_per_plaquette_t2():
    g = tg.TorusGeometry((4, 4), (1.0, 1.0))
    b = tg.build_background(g, [[0, 1], [-1, 0]])
    h2 = g.spacings[0] * g.spacings[1]
    assert b.f0.values[0, 0, 0] * h2 == pytest.approx(2 * np.pi / 16)
    # slice sum of the background flux is 2 pi
    assert (b.f0.values[0] * h2).sum() == pytest.approx(2 * np.pi)
    assert np.abs(holonomy_residuals(b)).max() <= 1e-12


def test_chern_pairing_every_slice_t3():
    g = tg.TorusGeometry((8, 8, 8), (1.0, 1.0, 1.0))
    b = tg.build_background(g, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
    assert np.abs(holonomy_residuals(b)).max() <= 1e-12
    h01 = g.spacings[0] * g.spacings[1]
    slices = b.f0.values[0].sum(axis=(0, 1)) * h01 / (2 * np.pi)
    assert np.allclose(slices, 2.0, atol=1e-12)


def test_multi_pair_background_t3(t3_aniso_bundle):
    g = tg.TorusGeometry((6, 6, 6), (1.0, 1.0, 1.0))
    chern = np.array([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    # the anisotropic lattice puts a different h_i into every plaquette sum
    for b in (tg.build_background(g, chern), t3_aniso_bundle):
        assert np.abs(holonomy_residuals(b)).max() <= 1e-11
        pairing = flux_pairing(b.f0)
        assert np.allclose(pairing, b.chern, atol=1e-10)


def test_covariant_difference_constant_section():
    g = tg.TorusGeometry((6, 6), (1.0, 1.0))
    b = tg.build_background(g, [[0, 0], [0, 0]])
    D = tg.covariant_difference(constant_section(g, 1.0), zero_cochain(g, 1), b)
    assert np.abs(D).max() == 0.0


def test_covariant_difference_plane_wave():
    N, L = 8, 1.0
    g = tg.TorusGeometry((N, N), (L, L))
    b = tg.build_background(g, [[0, 0], [0, 0]])
    h = L / N
    x = np.broadcast_to(g.coordinates(0), g.sites)
    u = tg.Section(g, np.exp(2j * np.pi * x / L))
    D = tg.covariant_difference(u, zero_cochain(g, 1), b)
    expected = abs(np.exp(2j * np.pi * h / L) - 1.0) / h
    assert np.abs(np.abs(D[0]) - expected).max() <= 1e-12 * expected
    assert np.abs(D[1]).max() == 0.0


def test_lowest_level_of_the_discrete_covariant_laplacian():
    """The exact anchor of the normal-state threshold eps_c(h) =
    lambda_1(h)^(-1/2): on T^2 with c = 1 the least eigenvalue of D^H D at
    A = 0 tends to the lowest Landau level B = 2 pi of the uniform field,
    at second order.  Its relative error falls 4x per halving of h and is
    B h^2 / 8 at 12^2 to within 1%."""
    B = 2.0 * np.pi
    lam = {}
    for N in (12, 16, 24, 32):
        geom = tg.TorusGeometry((N, N), (1.0, 1.0))
        lam[N] = covariant_lambda1(tg.build_background(geom, [[0, 1], [-1, 0]]))
    np.testing.assert_allclose(list(lam.values()), [6.248977, 6.263928, 6.274622, 6.278367],
                               rtol=0, atol=1e-6)
    err = {N: (B - value) / B for N, value in lam.items()}
    for N in (12, 16):
        assert 3.9 <= err[N] / err[2 * N] <= 4.1
    assert abs(err[12] - B / 12**2 / 8) <= 0.01 * B / 12**2 / 8


def test_exact_gauge_covariance(rng, t2_bundle, t3_bundle):
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        u = random_section(g, rng)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        theta = tg.GaugePhase(g, rng.standard_normal(g.sites))
        u2, A2 = tg.apply_gauge(u, A, theta)
        D1 = tg.covariant_difference(u, A, b=b)
        D2 = tg.covariant_difference(u2, A2, b=b)
        tail_phase = np.exp(1j * theta.theta)
        scale = max(np.abs(D1).max(), 1.0)
        assert np.abs(D2 - tail_phase * D1).max() <= 1e-12 * scale
        # moduli coincide exactly up to rounding
        assert np.abs(np.abs(D2) - np.abs(D1)).max() <= 1e-12 * scale


def test_curvature_of_zero_and_pure_gauge(rng, t2_bundle):
    g = t2_bundle.geom
    F0 = tg.curvature(zero_cochain(g, 1), t2_bundle)
    assert np.array_equal(F0.values, t2_bundle.f0.values)
    theta = rng.standard_normal(g.sites)
    A = exterior_derivative(tg.Cochain(g, 0, theta[None]))
    F = tg.curvature(A, t2_bundle)
    scale = max(np.abs(theta).max() / min(g.spacings) ** 2, 1.0)
    assert np.abs(F.values - t2_bundle.f0.values).max() <= 1e-12 * scale


def test_curvature_linear_ramp_interior():
    # A_2 = s * x_1 away from the seam: (dA)_12 = s on interior plaquettes
    N = 8
    g = tg.TorusGeometry((N, N), (1.0, 1.0))
    b = tg.build_background(g, [[0, 0], [0, 0]])
    s = 0.7
    A = zero_cochain(g, 1)
    x = np.broadcast_to(g.coordinates(0), g.sites)
    A.values[1] = s * x
    F = tg.curvature(A, b)
    interior = F.values[0][: N - 1, :]
    assert np.abs(interior - s).max() <= 1e-12
    # closedness: n = 2 top degree, d F would leave the complex; check flux
    assert (F.values[0].sum() * g.cell_volume) == pytest.approx(0.0, abs=1e-12)


def test_curvature_closed_t3(rng):
    g = tg.TorusGeometry((6, 6, 6), (1.0, 1.0, 1.0))
    b = tg.build_background(g, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    F = tg.curvature(A, b)
    dF = exterior_derivative(F)
    scale = np.abs(F.values).max() / min(g.spacings)
    assert np.abs(dF.values).max() <= 1e-12 * scale


def test_chern_pairing_of_curvature_any_A(rng, t2_bundle, t3_bundle):
    for b in (t2_bundle, t3_bundle):
        g = b.geom
        for _ in range(5):
            A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
            pairing = flux_pairing(tg.curvature(A, b))
            assert np.abs(pairing - b.chern).max() <= 1e-10


@pytest.mark.parametrize(
    "sites, lengths, chern",
    [
        ((12, 9), (1.0, 1.3), [[0, 2], [-2, 0]]),
        ((6, 5, 7), (1.0, 0.8, 1.2), [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]),
    ],
)
def test_link_quantities_match_reference_formulas(sites, lengths, chern):
    """covariant_difference, supercurrent and the vorticity increment equal
    their docstring definitions written out with np.exp, at a random state
    with nonzero A on a nontrivial bundle."""
    rng = np.random.default_rng(7)
    g = tg.TorusGeometry(sites, lengths)
    b = tg.build_background(g, chern)
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    h = g.spacings
    uv = u.values
    D = tg.covariant_difference(u, A, b)
    j = tg.supercurrent(u, A, b).values
    for i in range(g.dim):
        link = np.exp(-1j * (b.theta0[i] + h[i] * A.values[i]))
        fwd = np.roll(uv, -1, axis=i)
        assert np.abs(D[i] - (fwd * link - uv) / h[i]).max() <= 1e-12 * np.abs(D).max()
        ref_j = np.imag(np.conj(uv) * fwd * link) / h[i]
        assert np.abs(j[i] - ref_j).max() <= 1e-12 * np.abs(j).max()

    # n_p = (1/2 pi)(sum over the boundary of wrap(arg u(head) - arg u(tail)
    #       - theta0_e - h A_e) + h_i h_j F_ij)
    delta = np.stack([
        np.angle(np.roll(uv, -1, axis=i)) - np.angle(uv) - b.theta0[i] - h[i] * A.values[i]
        for i in range(g.dim)
    ])
    delta = delta - 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
    F = tg.curvature(A, b).values
    windings = tg.vorticity(u, A, b).windings
    for pos, (i, k) in enumerate(tg.lattice.components(g.dim, 2)):
        circ = delta[i] + np.roll(delta[k], -1, axis=i) - np.roll(delta[i], -1, axis=k) - delta[k]
        raw = (circ + h[i] * h[k] * F[pos]) / (2.0 * np.pi)
        assert np.abs(raw - np.round(raw)).max() <= 1e-9
        assert np.array_equal(windings[pos], np.round(raw).astype(np.int64))


@pytest.mark.parametrize("sites", [(28, 28, 28), (160, 160)])
def test_link_matches_complex_exponential(sites):
    """link_transport's link, formed from real cosines and sines, is
    exp(-i phase) and has modulus 1 to within 2^-52 at phases in +-40 rad;
    covariant_difference is (u(x + e_i) exp(-i phase) - u) / h_i."""
    rng = np.random.default_rng(22)
    g = tg.TorusGeometry(sites, (1.0,) * len(sites))
    b = tg.build_background(g, np.eye(len(sites), k=1) - np.eye(len(sites), k=-1))
    target = rng.uniform(-40.0, 40.0, g.shape(1))
    A = tg.Cochain(g, 1, [(t - t0) / hi for t, t0, hi in zip(target, b.theta0, g.spacings)])
    u = random_section(g, rng)
    D = tg.covariant_difference(u, A, b)
    for i, (link, fwd) in enumerate(link_transport(u, A, b)):
        phase = link_phase(A, b, i)
        assert np.abs(phase - target[i]).max() <= 1e-12
        ref = np.exp(-1j * phase)
        assert np.abs(link - ref).max() <= 2.0**-52
        assert np.abs(np.abs(link) - 1.0).max() <= 2.0**-52
        ref_D = (np.roll(u.values, -1, axis=i) * ref - u.values) / g.spacings[i]
        assert np.abs(D[i] - ref_D).max() <= 1e-15 * np.abs(ref_D).max()


def _workers() -> set:
    import threading

    return {t for t in threading.enumerate() if t.name.startswith("torusgl-worker")}


@pytest.mark.parametrize("n", [32767, 49169])
@pytest.mark.parametrize("sign", [1, -1])
def test_cis_split_inline_and_exp_agree(monkeypatch, n, sign):
    """_cis inline (one CPU, or too few entries for two parts), split into 2
    or 3 slabs and np.exp(sign * 1j * x) agree bit for bit, at signed zeros
    and phases up to +-1e6 included; repeated calls reuse the named workers
    of the first, at most cpus - 1 of them."""
    from torusgl import bundle, lattice

    x = np.random.default_rng(n).uniform(-40.0, 40.0, n)
    x[:6] = [0.0, -0.0, np.pi, -np.pi, 1e6, -1e6]
    ref = np.exp(sign * 1j * x).tobytes()
    cutoff = lattice._SPLIT_ENTRIES
    for cpus, part in ((1, cutoff), (2, n // 2 + 1), (2, cutoff), (2, n // 2), (3, n // 4)):
        monkeypatch.setattr(lattice, "_cpus", lambda: cpus)
        monkeypatch.setattr(lattice, "_SPLIT_ENTRIES", part)
        before = _workers()
        assert bundle._cis(x, sign).tobytes() == ref, (cpus, part)
        started = _workers()
        assert before <= started and len(started) <= max(len(before), cpus - 1)
        for _ in range(3):
            assert bundle._cis(x, sign).tobytes() == ref, (cpus, part)
        assert _workers() == started


_FORK_SCRIPT = """
import os, sys, threading
import numpy as np
import torusgl as tg
from torusgl import bundle, lattice

lattice._cpus = lambda: 2
x = np.random.default_rng(0).uniform(-40.0, 40.0, 2 * lattice._SPLIT_ENTRIES)
ref = bundle._cis(x, -1).tobytes()
geom = tg.TorusGeometry((64, 64, 64), (1.0, 1.0, 1.0))
w = tg.random_cochain(geom, 2, np.random.default_rng(1))
london = tg.solve_london(w).values.tobytes()
pid = os.fork()
if pid == 0:
    b = tg.build_background(geom, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    u = bundle.constant_section(geom, 1.0)
    links = [link for link, _ in bundle.link_transport(u, tg.zero_cochain(geom, 1), b)]
    ok = (len(links) == 3 and bundle._cis(x, -1).tobytes() == ref
          and tg.solve_london(w).values.tobytes() == london
          and any(t.name.startswith("torusgl-worker") for t in threading.enumerate()))
    sys.exit(0 if ok else 3)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_forms_links_after_parent_used_the_pool():
    """A child forked after its parent split phase factors and a London
    solve over the worker set forms 64^3 links and solves the London
    equation on a 64^3 2-cochain, with the parent's bits, over workers of
    its own: a fork inherits none of the parent's threads."""
    import signal
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-c", _FORK_SCRIPT], start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the forked child did not finish within 60 s")
    assert proc.returncode == 0, err.decode()


def _links(u, A, b) -> list:
    return [link for link, _ in link_transport(u, A, b)]


def _bits(links) -> list[bytes]:
    return [link.tobytes() for link in links]


@pytest.mark.parametrize("sites", [(9, 7), (5, 4, 6)])
def test_link_slot_follows_in_place_changes(sites):
    """A state linked twice in a row keeps its links, which the next call
    reuses; after an in-place change of A.values, of theta0 or of the sign
    of a zero phase its links are formed anew, bit for bit _cis of its
    phases, on the first call after the change and on the second."""
    rng = np.random.default_rng(31)
    g = tg.TorusGeometry(sites, (1.0, 1.3, 0.8)[: len(sites)])
    b = tg.build_background(g, np.eye(len(sites), k=1) - np.eye(len(sites), k=-1))
    u, A = random_section(g, rng), tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    _links(u, A, b)
    kept = _links(u, A, b)
    assert all(a is c for a, c in zip(_links(u, A, b), kept))
    origin, signs = (0,) * len(sites), []

    def changes():
        A.values[0] += 0.25
        yield
        b.theta0[-1] *= 1.5
        yield
        A.values[0][origin] = b.theta0[0][origin] = 0.0
        yield
        A.values[0][origin] = b.theta0[0][origin] = -0.0
        yield

    for _ in changes():
        fresh = [bundle._cis(link_phase(A, b, i), -1) for i in range(g.dim)]
        assert _bits(_links(u, A, b)) == _bits(fresh)
        assert _bits(_links(u, A, b)) == _bits(fresh)
        signs.append(bool(np.signbit(fresh[0][origin].imag)))
    # exp(-i phase) at phase +0.0 and -0.0 differ in the sign of its
    # imaginary part only, which a key compared by value would miss
    assert signs[2:] == [True, False]


def test_kept_links_are_read_only(t2_bundle):
    g = t2_bundle.geom
    u, A = constant_section(g), zero_cochain(g, 1)
    _links(u, A, t2_bundle)
    for link in _links(u, A, t2_bundle):
        with pytest.raises(ValueError):
            link[0, 0] = 0.0


def test_state_linked_once_leaves_no_arrays_in_the_slot(rng, t3_bundle):
    """Only a state linked twice in a row keeps arrays, and linking another
    state drops them: after the observables of a state, its Coulomb-fixed
    state's energy leaves the slot empty."""
    g = t3_bundle.geom
    u, A = random_section(g, rng), tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    tg.g_energy(u, A, t3_bundle, 0.2)
    assert bundle._slot[1] == ()
    tg.supercurrent(u, A, t3_bundle)
    assert len(bundle._slot[1]) == 3
    tg.g_energy(u, A.copy(), t3_bundle, 0.2)  # equal bits in another array: a hit
    assert len(bundle._slot[1]) == 3
    u3, A3, _ = tg.coulomb_fix(u, A)
    tg.g_energy(u3, A3, t3_bundle, 0.2)
    assert bundle._slot[1] == ()


def test_threads_linking_their_own_states_get_their_own_links(t2_bundle):
    """Six threads, each linking a state of its own again and again (twice
    in a row, so the slot keeps and replaces links all the time), with a
    short switch interval: every call gives the links of its own phases."""
    import sys
    import threading

    g = t2_bundle.geom
    rngs = [np.random.default_rng(k) for k in range(6)]
    states = [(random_section(g, r), tg.random_cochain(g, 1, r)) for r in rngs]
    wrong, done = [], []

    def work(u, A):
        want = _bits(bundle._cis(link_phase(A, t2_bundle, i), -1) for i in range(g.dim))
        for _ in range(60):
            if _bits(_links(u, A, t2_bundle)) != want:
                wrong.append(A)
        done.append(A)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=state) for state in states]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == len(states) and wrong == []


def _observe(u, A, b, eps, before) -> list[bytes]:
    """The bits of the seven observables of the benchmark's observe-large
    body, in its order, each called after `before()`."""
    out = []
    for observe in (
        lambda: list(vars(tg.g_energy(u, A, b, eps)).values()),
        lambda: (lambda grad_u, grad_A: [grad_u, grad_A.values])(*tg.g_gradient(u, A, b, eps)),
        lambda: [tg.supercurrent(u, A, b).values],
        lambda: [tg.jacobian(u, A, b).values],
        lambda: [tg.vorticity(u, A, b).windings],
        lambda: [tg.london_residual(u, A, b)],
        lambda: [tg.energy_density(u, A, b, eps).values],
    ):
        before()
        out.append(b"".join(np.asarray(part).tobytes() for part in observe()))
    return out


def test_observables_with_kept_links_equal_those_formed_anew(rng, t2_bundle, t3_bundle):
    def clear():
        bundle._slot = (None, ())

    for b in (t2_bundle, t3_bundle):
        g = b.geom
        u, A = random_section(g, rng), tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        kept = _observe(u, A, b, 0.2, lambda: None)
        assert len(bundle._slot[1]) == g.dim
        assert _observe(u, A, b, 0.2, clear) == kept


def test_package_names_are_in_their_modules_all():
    """Every name torusgl/__init__.py imports from a submodule is in that
    submodule's __all__."""
    import ast
    import importlib
    from pathlib import Path

    tree = ast.parse(Path(tg.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert len(imported) > 50
    assert [f"{module}.{name}" for module, name in imported
            if name not in importlib.import_module(f"torusgl.{module}").__all__] == []
