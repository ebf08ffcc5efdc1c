"""Bundle background construction, covariant difference, curvature."""

import os

import numpy as np
import pytest

import torusgl as tg
from torusgl.bundle import (
    constant_section,
    flux_pairing,
    holonomy_residuals,
    link_phase,
    link_transport,
)
from torusgl.lattice import exterior_derivative, zero_cochain

from conftest import random_section


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
