"""Minimizer, connection relaxation, vortex ansatz, epsilon sweep."""

import numpy as np
import pytest

import torusgl as tg
from torusgl.bundle import constant_section
from torusgl.fields import linearize
from torusgl.lattice import codifferential, components, exterior_derivative, norm, zero_cochain
from torusgl.solve import (
    AnsatzSpec,
    MinimizeOptions,
    WindingMismatchError,
    _unpack,
    default_initial_pair,
    epsilon_sweep,
    refine_cochain,
    refine_section,
    vortex_ansatz,
)
from torusgl.vortex import single_dual_loop, vorticity, vortex_mass

from conftest import bessel_k0, covariant_lambda1, image_sum_k0, random_section, t4_product_start


def test_minimize_ground_state_immediate(t2_trivial):
    g = t2_trivial.geom
    res = tg.minimize(constant_section(g, 1.0), zero_cochain(g, 1), t2_trivial, 0.3)
    assert res.converged
    assert res.iterations == 0
    assert res.energy.total == 0.0
    assert res.grad_norm == 0.0


def test_minimize_small_vortex(t2_bundle):
    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = vortex_ansatz(spec, t2_bundle, g, 0.25)
    res = tg.minimize(u, A, t2_bundle, 0.25, MinimizeOptions(tol=1e-8, max_iter=50000))
    assert res.converged
    assert res.grad_norm <= 1e-8
    assert res.london_residual <= 1e-6
    v = vorticity(res.section, res.gauge_field, t2_bundle)
    assert v.total() == 1
    assert np.count_nonzero(v.windings) == 1
    # EL identity in gauge-field form
    F = tg.curvature(res.gauge_field, t2_bundle)
    el = codifferential(F) - tg.supercurrent(res.section, res.gauge_field, t2_bundle)
    assert np.abs(el.values).max() <= 100 * 1e-8


def _accepted_states(monkeypatch):
    """Record the start state and every state the Newton loop accepts, read
    through the per-step callback of solve._newton; minimize's own callback
    (the log_every printer, or none) still runs after the record."""
    states = []
    newton = tg.solve._newton

    def recording(at, x, scale, opts, on_step=None):
        states.append(x)

        def step(x, g):
            states.append(x)
            if on_step is not None:
                on_step(x, g)

        return newton(at, x, scale, opts, step)

    monkeypatch.setattr(tg.solve, "_newton", recording)
    return states


def _assert_each_step_descends(states, b, eps):
    """Re-check the accepted steps apart from the loop's own bookkeeping:
    the energy change from each state to the next, summed term by term at
    the earlier one, is negative."""
    assert len(states) > 1, "no step accepted"
    for prev, nxt in zip(states, states[1:]):
        model = linearize(*_unpack(prev, b.geom), b, eps)
        assert model.change(*_unpack(nxt - prev, b.geom)).total < 0.0


def test_minimize_descent_is_monotone(t2_bundle, monkeypatch):
    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = vortex_ansatz(spec, t2_bundle, g, 0.25)
    states = _accepted_states(monkeypatch)
    tg.minimize(u, A, t2_bundle, 0.25, MinimizeOptions(tol=1e-8, max_iter=50000))
    _assert_each_step_descends(states, t2_bundle, 0.25)


def test_minimize_budget_returns_best(t2_bundle):
    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = vortex_ansatz(spec, t2_bundle, g, 0.25)
    res = tg.minimize(u, A, t2_bundle, 0.25, MinimizeOptions(tol=1e-12, max_iter=5))
    assert not res.converged
    assert res.iterations == 5
    assert res.energy.total <= tg.g_energy(u, A, t2_bundle, 0.25).total


def test_minimize_stop_reasons(t2_bundle):
    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = vortex_ansatz(spec, t2_bundle, g, 0.25)
    res = tg.minimize(u, A, t2_bundle, 0.25, MinimizeOptions(tol=1e-8, max_iter=50000))
    assert (res.converged, res.stop_reason) == (True, "converged")
    res = tg.minimize(u, A, t2_bundle, 0.25, MinimizeOptions(tol=1e-12, max_iter=5))
    assert (res.converged, res.stop_reason) == (False, "budget")


@pytest.mark.parametrize("sites, eps, noise", [((16, 16), 0.25, 0.01), ((8, 8, 8), 0.3, 0.05)])
def test_minimize_converges_from_near_normal_start(sites, eps, noise):
    """From u = noise, A = 0 (near the normal state, where the potential
    gives the Hessian its most negative curvature) the Newton loop still
    converges to a state whose vorticity pairs to the Chern numbers."""
    geom = tg.TorusGeometry(sites, (1.0,) * len(sites))
    chern = np.zeros((geom.dim, geom.dim), dtype=int)
    chern[0, 1], chern[1, 0] = 1, -1
    b = tg.build_background(geom, chern)
    u = random_section(geom, np.random.default_rng(4), scale=noise)
    res = tg.minimize(u, zero_cochain(geom, 1), b, eps, MinimizeOptions(tol=1e-8, max_iter=50000))
    assert (res.converged, res.stop_reason) == (True, "converged")
    assert res.energy.total < tg.g_energy(u, zero_cochain(geom, 1), b, eps).total
    assert res.london_residual <= 1e-6
    v = vorticity(res.section, res.gauge_field, b)
    assert np.array_equal(tg.chern_pairing(v), b.chern)
    assert vortex_mass(v) == 1.0


@pytest.mark.parametrize("max_iter", [1, 2, 3, 8, 13])
def test_budget_is_never_exceeded(t2_bundle, monkeypatch, max_iter):
    """Gradient evaluations after the first plus Hessian-vector products
    stay within max_iter, in minimize and in relax_connection."""
    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = vortex_ansatz(spec, t2_bundle, g, 0.25)
    opts = MinimizeOptions(tol=1e-12, max_iter=max_iter)
    res = tg.minimize(u, A, t2_bundle, 0.25, opts)
    assert res.iterations <= max_iter
    assert (res.converged, res.stop_reason) == (False, "budget")

    # relax_connection reports no count: count its gradients (one local
    # model each) and Hessian-vector products (one LocalModel.hessvec each)
    calls = {"linearize": 0, "hessvec": 0}
    for owner, name in ((tg.solve, "linearize"), (tg.fields.LocalModel, "hessvec")):
        def counted(*args, _f=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(owner, name, counted)
    rng = np.random.default_rng(8)
    ur = random_section(g, rng)
    Ar = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    _, reason = tg.relax_connection(ur, Ar, t2_bundle, opts)
    assert reason == "budget"
    assert calls["hessvec"] > 0 or max_iter < 2
    assert calls["linearize"] - 1 + calls["hessvec"] <= max_iter


def test_budget_inside_a_slide_resolves_it():
    """A point off the centre of T^2 32^2 (eps 0.0625 = 2 h) slides once:
    the slide starts at 77 evaluations and is kept at 115.  A budget that
    runs out while it settles still ends "budget" within max_iter, on the
    slide kept or undone, and the energy does not rise as the budget grows:
    at 78 and 90 the slide is undone, and the result is the state before
    it, bit for bit; at 100 and 114 it is kept, at a lower energy."""
    geom = tg.TorusGeometry((32, 32), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    u, A = vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.31, 0.67),)), b, geom, 0.0625)
    before = tg.minimize(u, A, b, 0.0625, MinimizeOptions(tol=1e-8, max_iter=77))
    energies = [before.energy.total]
    for max_iter in (78, 90, 100, 114):
        res = tg.minimize(u, A, b, 0.0625, MinimizeOptions(tol=1e-8, max_iter=max_iter))
        assert (res.converged, res.stop_reason) == (False, "budget")
        assert res.iterations <= max_iter
        if max_iter < 100:
            assert np.array_equal(res.section.values, before.section.values)
            assert np.array_equal(res.gauge_field.values, before.gauge_field.values)
        energies.append(res.energy.total)
    assert energies == sorted(energies, reverse=True)
    assert energies[-2] < energies[0]


def _count_translation_builds(monkeypatch):
    """Count minimize's builds of the covariant translations."""
    built = []
    translations = tg.solve._covariant_translations

    def counted(*args):
        built.append(1)
        return translations(*args)

    monkeypatch.setattr(tg.solve, "_covariant_translations", counted)
    return built


def _count_forcing_restarts(monkeypatch):
    """Count the rounds that start a forcing sequence: the first round of a
    run, then the first after each slide tried."""
    restarts = []
    forcing = tg.solve._forcing

    def counted(gnorm, last):
        if last is None:
            restarts.append(1)
        return forcing(gnorm, last)

    monkeypatch.setattr(tg.solve, "_forcing", counted)
    return restarts


def _record_slides(monkeypatch, states):
    """Record each slide, one call of its model's rows() each, as the number
    of accepted states in `states` before it."""
    slides = []
    translations = tg.solve._covariant_translations

    def recording(lin, x):
        rows, project = translations(lin, x)

        def recorded():
            slides.append(len(states))
            return rows()

        return recorded, project

    monkeypatch.setattr(tg.solve, "_covariant_translations", recording)
    return slides


def test_minimize_slides_pinned_line(monkeypatch):
    """A coarse core stays held by lattice pinning with a force above
    tolerance once the rest of the gradient is resolved; the terminal phase
    slides it along the covariant translations, monotonically, to a
    converged state.  Inputs: a line on 12^3 (h = 0.56 eps), and a point off
    the centre of T^2 32^2 (h = 0.5 eps), whose run slides once.  A kept
    slide reports one accepted state, the settled one; an undone slide
    reports none, and the next slide starts from the restored state.  The
    line's run keeps 5 slides and undoes 4, so both branches run."""
    built = _count_translation_builds(monkeypatch)
    restarts = _count_forcing_restarts(monkeypatch)
    states = _accepted_states(monkeypatch)
    slides = _record_slides(monkeypatch, states)
    cases = (  # sites, eps, core position, line axis, evaluation bound
        ((12, 12, 12), 0.15, (0.52, 0.51), 2, 330),
        ((32, 32), 0.0625, (0.31, 0.67), None, 125),
    )
    for sites, eps, position, axis, bound in cases:
        geom = tg.TorusGeometry(sites, (1.0,) * len(sites))
        chern = np.zeros((geom.dim, geom.dim), dtype=int)
        chern[0, 1], chern[1, 0] = 1, -1
        b = tg.build_background(geom, chern)
        spec = AnsatzSpec(windings=(1,), positions=(position,), axis=axis)
        u, A = vortex_ansatz(spec, b, geom, eps)
        states.clear()
        restarts.clear()
        slides.clear()
        res = tg.minimize(u, A, b, eps, MinimizeOptions(tol=1e-8, max_iter=20000))
        assert res.converged
        _assert_each_step_descends(states, b, eps)
        kept = sum(after > before for before, after in zip(slides, [*slides[1:], len(states)]))
        assert kept >= 1
        if axis is not None:
            assert single_dual_loop(vorticity(res.section, res.gauge_field, b))[0]
            assert len(slides) - kept >= 1, "the line's run undoes a slide"
        assert res.london_residual <= 1e-6
        assert len(restarts) > 1, "the run slides"
        assert res.iterations <= bound
    assert built, "eps/h = 1.8 and 2 are strong pinning: the translations are built"


def test_minimize_weak_pinning_builds_no_translations(monkeypatch):
    """With the core resolved (eps/h = 4) the Newton steps run unprojected:
    minimize never builds the covariant translations."""
    built = _count_translation_builds(monkeypatch)
    geom = tg.TorusGeometry((20, 20), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    u, A = vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), b, geom, 0.2)
    res = tg.minimize(u, A, b, 0.2, MinimizeOptions(tol=1e-8, max_iter=20000))
    assert res.converged
    assert not built


def test_minimize_converged_state_builds_no_translations(monkeypatch):
    """Under strong pinning (eps/h = 2.24) every model whose gradient is
    above tolerance gets the covariant translations, and the converged
    state's model, which ends the loop, does not."""
    geom = tg.TorusGeometry((28, 28), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    u, A = vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), b, geom, 0.08)
    built = _count_translation_builds(monkeypatch)
    models = []
    linearize = tg.solve.linearize

    def counted(*args):
        models.append(1)
        return linearize(*args)

    monkeypatch.setattr(tg.solve, "linearize", counted)
    res = tg.minimize(u, A, b, 0.08, MinimizeOptions(tol=1e-8, max_iter=20000))
    assert res.converged
    assert len(built) == len(models) - 1


def test_minimize_forms_one_curvature_per_model(monkeypatch):
    """Under strong pinning (eps/h = 2.24), with the covariant translations
    built, minimize forms F_A once per local model, in fields.linearize;
    the result's energy and London residual read that of its model, so
    neither solve nor vortex forms one."""
    from torusgl import fields, solve, vortex

    geom = tg.TorusGeometry((28, 28), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    u, A = vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), b, geom, 0.08)
    built = _count_translation_builds(monkeypatch)
    calls = {"models": 0}
    linearize = solve.linearize

    def counted_linearize(*args):
        calls["models"] += 1
        return linearize(*args)

    monkeypatch.setattr(solve, "linearize", counted_linearize)
    for module in (fields, solve, vortex):
        def counted(*args, _f=tg.bundle.curvature, _name=module.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)
        monkeypatch.setattr(module, "curvature", counted, raising=False)
    res = tg.minimize(u, A, b, 0.08, MinimizeOptions(tol=1e-8, max_iter=20000))
    assert res.converged and built
    assert calls["torusgl.fields"] == calls["models"]
    assert "torusgl.solve" not in calls and "torusgl.vortex" not in calls


@pytest.mark.parametrize("sites, eps", [((16, 16), 0.25), ((8, 8, 8), 0.3)])
def test_minimize_links_each_model_once(monkeypatch, sites, eps):
    """A solve makes one link_transport call per local model and none for
    its result, whose energy and London residual equal those that g_energy
    and london_residual give for the returned state bit for bit; the link
    slot is left empty."""
    from torusgl import bundle, fields, solve, vortex

    geom = tg.TorusGeometry(sites, (1.0,) * len(sites))
    b = tg.build_background(geom, np.eye(len(sites), k=1) - np.eye(len(sites), k=-1))
    u, A = solve.default_initial_pair(b, eps, 0)
    calls = {"models": 0, "links": 0}
    linearize, link_transport = solve.linearize, bundle.link_transport

    def counted_linearize(*args):
        calls["models"] += 1
        return linearize(*args)

    def counted_links(*args):
        calls["links"] += 1
        return link_transport(*args)

    monkeypatch.setattr(solve, "linearize", counted_linearize)
    for module in (bundle, fields, vortex):
        monkeypatch.setattr(module, "link_transport", counted_links)
    res = tg.minimize(u, A, b, eps, MinimizeOptions(tol=1e-8, max_iter=20000))
    assert res.converged and calls["links"] == calls["models"] > 1
    assert bundle._slot[1] == ()
    monkeypatch.undo()
    assert res.energy == tg.g_energy(res.section, res.gauge_field, b, eps)
    assert res.london_residual == tg.london_residual(res.section, res.gauge_field, b)


def test_minimize_stalls_below_rounding_floor(t2_bundle):
    """A tolerance the rounded gradient cannot reach ends "stalled" once an
    accepted Newton step moves x by a rounding-level amount, long before
    max_iter, at an energy no higher than the start's."""
    g = t2_bundle.geom
    u, A = vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), t2_bundle, g, 0.25)
    res = tg.minimize(u, A, t2_bundle, 0.25, MinimizeOptions(tol=1e-14, max_iter=50000))
    assert (res.converged, res.stop_reason) == (False, "stalled")
    assert res.iterations <= 300
    assert res.energy.total <= tg.g_energy(u, A, t2_bundle, 0.25).total


def test_minimize_truncate_each(t2_bundle):
    """Truncation is a property of minimizers, not a step of the loop: a
    plain minimize from a start with |u| > 1 ends with |u| <= 1."""
    g = t2_bundle.geom
    rng = np.random.default_rng(2)
    u = random_section(g, rng, scale=1.6)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    assert np.abs(u.values).max() > 1.0
    res = tg.minimize(u, A, t2_bundle, 0.3, MinimizeOptions(tol=1e-6, max_iter=5000))
    assert res.converged
    assert np.abs(res.section.values).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("max_iter", [3, 4, 10, 5000])
def test_truncated_state_gets_a_fresh_model(t2_bundle, monkeypatch, max_iter):
    """From a start with |u| > 1, which truncation would move, every model
    the loop builds counts as an evaluation: models built after the first
    plus Hessian products equal the reported iterations, within max_iter;
    and the reported grad_norm is that of a gradient computed afresh at the
    returned state."""
    from torusgl import fields, solve
    from torusgl.fields import g_gradient
    from torusgl.solve import _flat

    calls = {"models": 0, "products": 0}
    linearize, hessvec = solve.linearize, fields.LocalModel.hessvec

    def counted_linearize(*args):
        calls["models"] += 1
        return linearize(*args)

    def counted_hessvec(self, *args):
        calls["products"] += 1
        return hessvec(self, *args)

    g = t2_bundle.geom
    rng = np.random.default_rng(2)
    u = random_section(g, rng, scale=1.6)
    assert np.abs(u.values).max() > 1.0
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    opts = MinimizeOptions(tol=1e-6, max_iter=max_iter)
    monkeypatch.setattr(solve, "linearize", counted_linearize)
    monkeypatch.setattr(fields.LocalModel, "hessvec", counted_hessvec)
    res = tg.minimize(u, A, t2_bundle, 0.3, opts)
    monkeypatch.undo()
    assert res.converged == (max_iter == 5000)
    assert calls["models"] - 1 + calls["products"] == res.iterations <= max_iter
    grad = _flat(*g_gradient(res.section, res.gauge_field, t2_bundle, 0.3))
    assert res.grad_norm == float(np.abs(grad).max()) / g.cell_volume


@pytest.mark.parametrize("option", [{}, {"log_every": 2}])
def test_minimize_log_every_counts_accepted_steps(t2_bundle, capsys, monkeypatch, option):
    """With and without log_every set every accepted step descends, and
    log_every counts the accepted steps: one line per log_every of them."""
    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = vortex_ansatz(spec, t2_bundle, g, 0.25)
    states = _accepted_states(monkeypatch)
    res = tg.minimize(u, A, t2_bundle, 0.25, MinimizeOptions(tol=1e-8, max_iter=50000, **option))
    assert res.converged
    _assert_each_step_descends(states, t2_bundle, 0.25)
    stream = [l for l in capsys.readouterr().out.splitlines() if l.startswith("iteration ")]
    cadence = option.get("log_every", 0)
    if cadence:
        assert stream, "no per-iteration records emitted"
    assert len(stream) == ((len(states) - 1) // cadence if cadence else 0)
    for n, line in enumerate(stream, start=1):
        words = line.split()
        assert words[:2] == ["iteration", str(cadence * n)]
        assert words[2::2] == ["kinetic", "potential", "curvature", "total", "grad_norm"]


def _aux_energy(u, B, b):
    """relax_connection's functional, |D_B u|^2 + |F_B|^2 integrated: twice
    g_energy's kinetic and curvature parts, float64 sums on a code path
    independent of the term-by-term changes the solver decides on."""
    e = tg.g_energy(u, B, b, 1.0)
    return 2.0 * (e.kinetic + e.curvature)


def _stationarity(u, B, b):
    """relax_connection's convergence metric at B: the sup-norm of the
    exact-direction projection d(d*F_B - j(u, B)) of the EL defect."""
    defect = codifferential(tg.curvature(B, b)) - tg.supercurrent(u, B, b)
    return np.abs(exterior_derivative(defect).values).max()


def test_relax_connection_descends_aux_energy(rng, t2_bundle):
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    B, reason = tg.relax_connection(u, A, t2_bundle, MinimizeOptions(tol=1e-8, max_iter=50000))
    assert reason == "converged"
    assert _aux_energy(u, B, t2_bundle) <= _aux_energy(u, A, t2_bundle)
    # stationarity: the exact-direction projection of the EL defect vanishes
    assert _stationarity(u, B, t2_bundle) <= 2e-8
    # B - A is coexact: its exact and harmonic parts vanish
    parts = tg.hodge_decompose(B - A)
    assert norm(exterior_derivative(parts.exact_potential)) <= 1e-9 * (1 + norm(A))
    assert norm(parts.harmonic) <= 1e-9 * (1 + norm(A))


def test_relax_connection_yang_mills(rng, t2_bundle):
    g = t2_bundle.geom
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    B, reason = tg.relax_connection(
        constant_section(g, 0.0), A, t2_bundle, MinimizeOptions(tol=1e-8, max_iter=50000)
    )
    assert reason == "converged"
    assert np.abs(codifferential(tg.curvature(B, t2_bundle)).values).max() <= 1e-6


def test_relax_connection_single_mode_quadratic(t2_trivial):
    g = t2_trivial.geom
    psi = zero_cochain(g, 2)
    x = np.arange(g.sites[0]) / g.sites[0]
    psi.values[0] = np.sin(2 * np.pi * x)[:, None] * np.cos(2 * np.pi * x)[None, :]
    A = codifferential(psi)
    B, reason = tg.relax_connection(
        constant_section(g, 1.0), A, t2_trivial, MinimizeOptions(tol=1e-8, max_iter=50000)
    )
    assert reason == "converged"
    assert np.abs(B.values).max() <= 1e-7


def test_relax_connection_budget_error(rng, t2_bundle):
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    B, reason = tg.relax_connection(u, A, t2_bundle, MinimizeOptions(tol=1e-10, max_iter=3))
    assert reason == "budget"
    assert _aux_energy(u, B, t2_bundle) <= _aux_energy(u, A, t2_bundle)


def test_relax_connection_stalls_below_rounding_floor(rng, t2_bundle):
    """A tolerance the rounded gradient cannot reach ends "stalled", long
    before max_iter: a Newton step certifies no decrease, and the last
    iterate is returned."""
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    B, reason = tg.relax_connection(u, A, t2_bundle, MinimizeOptions(tol=1e-15, max_iter=5000))
    assert reason == "stalled"
    assert _aux_energy(u, B, t2_bundle) <= _aux_energy(u, A, t2_bundle)


def test_optimised_pair_descends(rng, t2_bundle):
    g = t2_bundle.geom
    for _ in range(10):
        u = random_section(g, rng, scale=1.3)
        A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
        eps = float(rng.uniform(0.15, 0.6))
        before = tg.g_energy(u, A, t2_bundle, eps).total
        v, B = tg.optimised_pair(u, A, t2_bundle, MinimizeOptions(tol=1e-7, max_iter=50000))
        assert _stationarity(v, B, t2_bundle) <= 2e-7
        assert tg.g_energy(v, B, t2_bundle, eps).total <= before
        assert np.abs(v.values).max() <= 1.0 + 1e-12


def test_optimised_pair_near_fixed_point(t2_bundle):
    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = vortex_ansatz(spec, t2_bundle, g, 0.25)
    res = tg.minimize(u, A, t2_bundle, 0.25, MinimizeOptions(tol=1e-8, max_iter=50000))
    v, B = tg.optimised_pair(
        res.section, res.gauge_field, t2_bundle, MinimizeOptions(tol=1e-7, max_iter=50000)
    )
    assert _stationarity(v, B, t2_bundle) <= 2e-7
    # a converged minimizer is already truncated and relaxed up to tolerance
    assert np.abs(v.values - res.section.values).max() <= 1e-9
    assert norm(B - res.gauge_field) <= 1e-4


# ----------------------------------------------------------------------------
# vortex ansatz
# ----------------------------------------------------------------------------

def test_ansatz_t2_point(t2_bundle):
    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = vortex_ansatz(spec, t2_bundle, g, 0.1)
    assert np.abs(A.values).max() == 0.0
    v = vorticity(u, A, t2_bundle)
    assert v.total() == 1
    assert np.count_nonzero(v.windings) == 1
    # modulus saturates far from the core
    assert np.abs(u.values)[0, 0] == pytest.approx(1.0)


def test_ansatz_winding_validation(t2_bundle, t3_bundle):
    with pytest.raises(WindingMismatchError):
        vortex_ansatz(
            AnsatzSpec(windings=(2,), positions=((0.5, 0.5),)), t2_bundle, t2_bundle.geom, 0.1
        )
    with pytest.raises(WindingMismatchError, match=r"total winding 2 != chern\[0,1\] = 1"):
        vortex_ansatz(
            AnsatzSpec(windings=(2,), positions=((0.5, 0.5),)), t3_bundle, t3_bundle.geom, 0.1
        )
    with pytest.raises(WindingMismatchError, match=r"chern\[0,1\] = 1 cannot be carried"):
        vortex_ansatz(
            AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=0),
            t3_bundle,
            t3_bundle.geom,
            0.1,
        )
    with pytest.raises(ValueError, match="geometry must match"):
        vortex_ansatz(
            AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), t2_bundle, t3_bundle.geom, 0.1
        )
    # the ansatz plane must carry every nonzero Chern entry, with or without
    # an axis, and only T^3 takes an axis
    g3 = t3_bundle.geom
    b3 = tg.build_background(g3, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    for axis in (None, 2):
        with pytest.raises(WindingMismatchError, match=r"chern\[1,2\] = 1 cannot be carried"):
            vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=axis), b3, g3, 0.1)
    g4 = tg.TorusGeometry((4,) * 4, (1.0,) * 4)
    b4 = tg.build_background(g4, np.triu(np.ones((4, 4), dtype=int)) - np.tril(np.ones((4, 4), dtype=int)))
    with pytest.raises(WindingMismatchError, match=r"chern\[0,2\] = 1 cannot be carried"):
        vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), b4, g4, 0.1)
    for b, axis in ((t2_bundle, 0), (t2_bundle, 2), (b4, 0), (b4, 2), (b4, 3)):
        with pytest.raises(WindingMismatchError, match=f"got axis {axis} on T\\^{b.geom.dim}"):
            vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=axis), b, b.geom, 0.1)
    # (1.5, -0.5) totals c = 1 but is no integer prescription
    for windings in ((1.5, -0.5), (float("inf"), 1)):
        with pytest.raises(ValueError, match="integers"):
            AnsatzSpec(windings=windings, positions=((0.2, 0.2), (0.7, 0.7)))


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
def test_ansatz_rejects_eps_that_is_not_positive(eps):
    """vortex_ansatz, and through it default_initial_pair, checks eps as
    g_energy does.  On 8^2 with c = 1, eps = -0.1 gave moduli up to 6.19,
    NaN gave NaN at every site, and 0 divided by zero into modulus 1
    everywhere, with no core.  The self-dual eps = sqrt 2 still builds."""
    geom = tg.TorusGeometry((8, 8), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    for build in (lambda e: vortex_ansatz(spec, b, geom, e), lambda e: default_initial_pair(b, e, 0)):
        with pytest.raises(ValueError, match="epsilon > 0 required"):
            build(eps)
        u, _ = build(np.sqrt(2.0))
        assert np.abs(u.values).max() <= 1.0
        assert np.abs(u.values).min() < 1.0


def test_ansatz_t3_line(t3_bundle):
    g = t3_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2)
    u, A = vortex_ansatz(spec, t3_bundle, g, 0.15)
    v = vorticity(u, A, t3_bundle)
    ok, length = single_dual_loop(v)
    assert ok
    assert length == g.sites[2]
    assert vortex_mass(v) == pytest.approx(1.0)


def test_ansatz_multi_vortex(rng):
    g = tg.TorusGeometry((24, 24), (1.0, 1.0))
    b = tg.build_background(g, [[0, 2], [-2, 0]])
    spec = AnsatzSpec(windings=(1, 1), positions=((0.25, 0.25), (0.75, 0.75)))
    u, A = vortex_ansatz(spec, b, g, 0.08)
    v = vorticity(u, A, b)
    assert v.total() == 2
    assert np.count_nonzero(v.windings) == 2


def test_ansatz_core_profile(t2_bundle):
    g = t2_bundle.geom
    eps = 0.1
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, _ = vortex_ansatz(spec, t2_bundle, g, eps)
    # |u| = 1 outside radius 2 eps of the core up to profile tails
    X = np.broadcast_to(g.coordinates(0), g.sites)
    Y = np.broadcast_to(g.coordinates(1), g.sites)
    v = vorticity(u, tg.zero_cochain(g, 1), t2_bundle)
    loc = np.argwhere(v.windings[0] != 0)[0]
    cx, cy = (loc + 0.5) * g.spacings[0]
    dx = np.minimum(np.abs(X - cx), 1 - np.abs(X - cx))
    dy = np.minimum(np.abs(Y - cy), 1 - np.abs(Y - cy))
    far = np.hypot(dx, dy) >= 2 * eps
    assert np.abs(u.values)[far].min() >= 1.0 - 1e-12


def test_default_initial_pair(t2_bundle, t2_trivial, t3_bundle):
    u, A = default_initial_pair(t2_bundle, 0.2, seed=1)
    v = vorticity(u, A, t2_bundle)
    assert v.total() == 1
    u2, _ = default_initial_pair(t2_trivial, 0.2, seed=1)
    assert np.abs(np.abs(u2.values) - 1.0).max() < 0.7  # perturbed ones
    u3, _ = default_initial_pair(t2_trivial, 0.2, seed=1)
    assert np.array_equal(u2.values, u3.values)  # seeded determinism
    # one Chern entry gives one factor: the centred line of that entry
    u, A = default_initial_pair(t3_bundle, 0.2, seed=1)
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2)
    line, _ = vortex_ansatz(spec, t3_bundle, t3_bundle.geom, 0.2)
    assert np.array_equal(u.values.view(np.int64), line.values.view(np.int64))
    assert not A.values.any()


def _chern(n, entries):
    """The antisymmetric Chern matrix with the given {(i, j): c_ij}, i < j."""
    chern = np.zeros((n, n), dtype=int)
    for (i, j), c in entries.items():
        chern[i, j], chern[j, i] = c, -c
    return chern


@pytest.mark.parametrize(
    "sites, lengths, entries",
    [
        ((9, 7, 5), (1.0, 1.3, 2.0), {(0, 1): 1, (0, 2): 2, (1, 2): -1}),
        ((12,) * 4, (1.0,) * 4, {(0, 1): 1, (2, 3): 1}),
        ((10, 12, 14), (1.0,) * 3, {(0, 1): -2, (0, 2): 1, (1, 2): 3}),
    ],
    ids=["t3-aniso", "t4-crossing", "t3-three-entries"],
)
def test_default_start_of_a_multi_entry_class(sites, lengths, entries):
    """The default start of a class with several nonzero Chern entries is a
    section of its bundle whose windings are the sum of those of the
    single-entry starts.  (Its chern_pairing equals the bundle's; that
    holds for every section without zeros, so the windings are the check.)"""
    g = tg.TorusGeometry(sites, lengths)
    b = tg.build_background(g, _chern(g.dim, entries))
    u, A = default_initial_pair(b, 0.2, seed=0)
    v = vorticity(u, A, b)
    assert np.array_equal(tg.chern_pairing(v), b.chern)
    windings = 0
    for ij, c in entries.items():
        bij = tg.build_background(g, _chern(g.dim, {ij: c}))
        windings = windings + vorticity(*default_initial_pair(bij, 0.2, seed=0), bij).windings
    assert np.array_equal(v.windings, windings)


def _normal_energy(b, eps):
    """g_energy of the normal state u = 0, F_A = F0: (1/2)|F0|^2 vol + vol/(4 eps^2)."""
    g = b.geom
    f0 = b.f0.values[(slice(None),) + (0,) * g.dim]
    return 0.5 * float(np.sum(f0**2)) * g.volume + g.volume / (4.0 * eps * eps)


@pytest.mark.parametrize(
    "sites, entries, eps_c",
    [
        ((16, 16), {(0, 1): 1}, 0.399555),
        ((10,) * 3, {(0, 2): 1, (1, 2): 1}, 0.336873),
        pytest.param((12,) * 4, {(0, 1): 1, (2, 3): 1}, 0.282866, marks=pytest.mark.slow),
    ],
    ids=["t2-16", "t3-diagonal-10", "t4-crossing-12"],
)
def test_normal_state_threshold(sites, entries, eps_c):
    """Near u = 0 with F_A = F0 the energy is the normal energy plus
    (|D u|^2 - |u|^2 / eps^2) / 2, so the normal state is a local minimum iff
    eps >= eps_c(h) = lambda_1^(-1/2), lambda_1 the least eigenvalue of the
    discrete D^H D (the product rule on T^4).  On the T^3 diagonal class
    lambda_1 = 8.811853, against 2 pi sqrt 2 = 8.885766 in the continuum.
    From the default start, minimize keeps u away from zero 1% below
    eps_c(h) (max|u| 0.169 in 85 evaluations on T^2, 0.168 in 147 on T^3,
    0.200 in 115 on T^4) and ends in the normal state 1% above it, at its
    exact energy (99, 162 and 154 evaluations)."""
    g = tg.TorusGeometry(sites, (1.0,) * len(sites))
    b = tg.build_background(g, _chern(g.dim, entries))
    threshold = covariant_lambda1(b) ** -0.5
    assert abs(threshold - eps_c) <= 1e-6, threshold
    for eps in (0.99 * threshold, 1.01 * threshold):
        res = tg.minimize(*default_initial_pair(b, eps, seed=0), b, eps)
        assert res.converged, res.stop_reason
        modulus = np.abs(res.section.values).max()
        if eps < threshold:
            assert modulus > 0.05, modulus
        else:
            assert modulus < 1e-6, modulus
            normal = _normal_energy(b, eps)
            assert abs(res.energy.total - normal) <= 1e-12 * normal, (res.energy.total, normal)


@pytest.mark.parametrize(
    "sites, lengths, entries, fine_bound",
    [
        ([(16, 16), (32, 32), (64, 64)], (4.0, 4.0), {(0, 1): 1}, 1e-4),
        ([(24, 24), (48, 48), (96, 96)], (6.0, 6.0), {(0, 1): 2}, 1e-4),
        ([(12, 12, 6), (24, 24, 12)], (4.0, 4.0, 2.0), {(0, 1): 1}, None),
    ],
    ids=["t2-4x4-c1", "t2-6x6-c2", "t3-line-4x4x2"],
)
def test_bogomolnyi_energy_converges_at_second_order(sites, lengths, entries, fine_bound):
    """At eps = sqrt 2, the self-dual coupling (Bogomol'nyi), a minimizer of
    Chern class N on T^2 above Bradlow's area 4 pi N has energy exactly
    pi N, and a straight line on T^3 pi N per unit length.  From the default
    start, E / (pi N L) - 1 (L = 1 on T^2, the line length 2 on T^3) is
    second order in h: it reads -7.0744e-4, -1.7605e-4, -4.3961e-5 on 4 x 4,
    c = 1, ends at -5.72e-5 on 6 x 6, c = 2, and reads -1.265e-3, -3.13e-4 on
    the T^3 line; every halving ratio is 4.00-4.04.  The T^2 fine errors
    are below 1e-4; the T^3 one is not gated, as its finest spacing is 1/6
    against 1/16 on T^2."""
    eps = np.sqrt(2.0)
    count = sum(entries.values())
    errors = []
    for s in sites:
        b = tg.build_background(tg.TorusGeometry(s, lengths), _chern(len(s), entries))
        res = tg.minimize(*default_initial_pair(b, eps, seed=0), b, eps, MinimizeOptions(tol=1e-8))
        assert res.converged, res.stop_reason
        line = lengths[2] if len(s) == 3 else 1.0
        errors.append(res.energy.total / (np.pi * count * line) - 1.0)
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.9 <= r <= 4.1 for r in ratios), (errors, ratios)
    if fine_bound is not None:
        assert abs(errors[-1]) < fine_bound, errors


def test_minimize_from_a_multi_entry_start():
    """minimize from the default start of the class (c_01, c_02, c_12) =
    (1, 2, -1) on an anisotropic T^3 at eps 0.45 converges (184 evaluations)
    to the normal state: eps_c(h) is 0.34933 there, and the end state has
    max|u| 8.3e-10 and the exact normal energy.  Its vortex mass (6.23)
    would only measure the zero set of a decaying mode."""
    g = tg.TorusGeometry((18, 14, 10), (1.0, 1.3, 2.0))
    b = tg.build_background(g, _chern(3, {(0, 1): 1, (0, 2): 2, (1, 2): -1}))
    res = tg.minimize(*default_initial_pair(b, 0.45, seed=0), b, 0.45, MinimizeOptions(tol=1e-8))
    assert res.converged and res.iterations <= 250, res.iterations
    assert np.abs(res.section.values).max() < 1e-6
    normal = _normal_energy(b, 0.45)
    assert abs(res.energy.total - normal) <= 1e-12 * normal, (res.energy.total, normal)


@pytest.mark.slow
def test_minimize_a_multi_entry_class_below_its_threshold():
    """At eps 0.3, below eps_c(h) = 0.34933, the same class converges from
    its default start (2927 evaluations) with u away from zero (max|u|
    0.58) and vortex lines of exactly the least mass of the class.
    chern_pairing alone cannot tell: a section of random phase has the same
    pairing, but a vortex mass of about 300."""
    g = tg.TorusGeometry((18, 14, 10), (1.0, 1.3, 2.0))
    b = tg.build_background(g, _chern(3, {(0, 1): 1, (0, 2): 2, (1, 2): -1}))
    res = tg.minimize(*default_initial_pair(b, 0.3, seed=0), b, 0.3, MinimizeOptions(tol=1e-8, max_iter=4000))
    assert res.converged and res.iterations <= 3500, res.iterations
    assert np.abs(res.section.values).max() > 0.5
    v = vorticity(res.section, res.gauge_field, b)
    assert np.array_equal(tg.chern_pairing(v), b.chern)
    # a dual 1-cycle of the class crosses the torus |c_12| times along axis
    # 0, |c_02| times along axis 1 and |c_01| times along axis 2: 5.6 at least
    least = 1 * 1.0 + 2 * 1.3 + 1 * 2.0
    assert least - 1e-12 <= vortex_mass(v) <= 1.2 * least, vortex_mass(v)  # 5.6
    noise = tg.Section(g, np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=g.sites)))
    v_noise = vorticity(noise, zero_cochain(g, 1), b)
    assert np.array_equal(tg.chern_pairing(v_noise), b.chern)
    assert vortex_mass(v_noise) > 1.2 * least


# ----------------------------------------------------------------------------
# epsilon sweep
# ----------------------------------------------------------------------------

def test_sweep_validation(t2_bundle):
    g = t2_bundle.geom
    opts = MinimizeOptions(tol=1e-6, max_iter=100)
    with pytest.raises(ValueError, match="decreasing"):
        epsilon_sweep(None, t2_bundle, g, [0.2, 0.3], opts)
    with pytest.raises(ValueError, match="0, 1"):
        epsilon_sweep(None, t2_bundle, g, [1.2, 0.3], opts)
    with pytest.raises(ValueError, match="epsilon/2"):
        # h = 1/16 > 0.05/2
        epsilon_sweep(None, t2_bundle, g, [0.3, 0.05], opts)
    with pytest.raises(ValueError, match="at least one"):
        epsilon_sweep(None, t2_bundle, g, [], opts)
    with pytest.raises(ValueError, match="mesh_rule must be"):
        epsilon_sweep(None, t2_bundle, g, [0.3, 0.2], opts, mesh_rule="halving")


@pytest.mark.parametrize("option", [{"tol": 0.0}, {"max_iter": 0}, {"log_every": -1}])
def test_minimize_options_validation(option):
    with pytest.raises(ValueError, match=next(iter(option))):
        MinimizeOptions(**option)


def test_sweep_trivial_bundle(t2_trivial):
    g = t2_trivial.geom
    recs = epsilon_sweep(
        None, t2_trivial, g, [0.4, 0.3], MinimizeOptions(tol=1e-7, max_iter=50000), seed=5
    )
    for r in recs:
        assert r.result.converged
        assert r.result.energy.total <= 1e-10
        assert r.vortex_mass == 0.0
        assert not np.any(r.chern_pairing)


@pytest.mark.slow
def test_sweep_records(sweep_fixed80):
    assert [r.epsilon for r in sweep_fixed80] == [0.2, 0.1, 0.05]
    for r in sweep_fixed80:
        assert r.result.converged
        assert r.chern_pairing[0, 1] == 1
        assert r.vortex_mass == 1.0
        assert r.result.london_residual <= 1e-6
        assert r.g_over_logeps == pytest.approx(
            r.result.energy.total / abs(np.log(r.epsilon)), rel=1e-12
        )
    energies = [r.g_over_logeps for r in sweep_fixed80]
    assert all(b < a for a, b in zip(energies, energies[1:]))


@pytest.mark.slow
def test_sweep_quarter_rule_geometry(sweep_quarter):
    for r in sweep_quarter:
        h = max(r.geom.spacings)
        assert h <= r.epsilon / 4.0 + 1e-12
        assert r.result.converged


# the conftest sweep_quarter energies before the sweep narrowed its warm
# starts' cores
SWEEP_QUARTER_ENERGIES = (
    22.90035763008742, 24.436747812220926, 26.315200109437004, 28.382113896890054
)


@pytest.mark.slow
def test_sweep_quarter_narrowed_warm_starts(sweep_quarter):
    """Warm starts whose cores are narrowed by the epsilon ratio converge in
    fewer iterations at the finest level (109 with the previous minimizer's
    cores kept as they were) to the same energies."""
    assert sweep_quarter[-1].result.iterations <= 80
    for r, energy in zip(sweep_quarter, SWEEP_QUARTER_ENERGIES, strict=True):
        assert r.result.energy.total == pytest.approx(energy, rel=1e-12, abs=0.0)


@pytest.mark.slow
def test_sweep_quarter_gamma_slope(sweep_quarter):
    """On a fixed bundle G_eps = pi |log eps| mass + gamma + o(1), and the
    vortex has mass 1, so halving eps adds pi log 2 in the limit: the slope
    (G(eps/2) - G(eps)) / (pi log 2) rises towards 1 from below (0.706,
    0.863, 0.949 over eps 0.2 -> 0.025)."""
    energies = [r.result.energy.total for r in sweep_quarter]
    slopes = [(g2 - g1) / (np.pi * np.log(2.0)) for g1, g2 in zip(energies, energies[1:])]
    assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:])), slopes
    assert all(s < 1.0 for s in slopes), slopes
    assert slopes[-1] > 0.94, slopes


@pytest.mark.slow
def test_sweep_fixed80_narrowed_warm_starts(sweep_fixed80):
    """On one lattice too (81 and 84 iterations with the cores kept)."""
    counts = [r.result.iterations for r in sweep_fixed80]
    assert max(counts[1:]) <= 70, counts


def _self_dual_minimum(length, c, n):
    """minimize from the default start at the self-dual eps = sqrt(2),
    where the potential is (1 - |u|^2)^2/8 (Bogomol'nyi coupling), on the
    square T^2 of side `length` with n^2 sites and Chern number c."""
    g = tg.TorusGeometry((n, n), (length, length))
    b = tg.build_background(g, [[0, c], [-c, 0]])
    eps = np.sqrt(2.0)
    res = tg.minimize(*default_initial_pair(b, eps, 0), b, eps, MinimizeOptions(tol=1e-8))
    assert res.converged
    return res


def test_self_dual_vortex_energy_is_pi_to_second_order():
    """Above the Bradlow area 4 pi |c| the self-dual minimum is exactly
    pi |c| in the continuum; the lattice error is O(h^2) (G/pi = 0.99929,
    0.99982, 0.99996 at 16^2, 32^2, 64^2 on L = 4)."""
    errors = [1.0 - _self_dual_minimum(4.0, 1, n).energy.total / np.pi for n in (16, 32, 64)]
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios
    assert abs(errors[-1]) < 1e-4, errors


@pytest.mark.parametrize("n", [24, 48])
def test_self_dual_normal_state_below_bradlow_area(n):
    """Below the Bradlow area the normal state u = 0 wins, with the uniform
    field: G = 2 pi^2 c^2/Area + Area/8, exact on the lattice as well."""
    res = _self_dual_minimum(3.0, 1, n)
    exact = 2.0 * np.pi**2 / 9.0 + 9.0 / 8.0
    assert abs(res.energy.total - exact) <= 1e-12 * exact
    assert np.abs(res.section.values).max() <= 1e-8


@pytest.mark.parametrize("side", [3.45, 3.50, 3.59, 3.65])
def test_bradlow_area_splits_normal_and_vortex_states(side):
    """The Bradlow area 4 pi |c| is, in the continuum, the threshold eps^2 =
    1/lambda_1 of test_normal_state_threshold at eps = sqrt 2.  On 32^2 with c = 1 the sides
    3.45 and 3.50 (area / 4 pi 0.947, 0.975) end in the normal state (max|u|
    1.1e-10, 3.7e-12) at its exact energy (relative error 0, 2.8e-16), and
    3.59 and 3.65 (1.026, 1.060) with a vortex (max|u| 0.207, 0.308)."""
    res, area = _self_dual_minimum(side, 1, 32), side * side
    modulus = np.abs(res.section.values).max()
    if area < 4.0 * np.pi:
        assert modulus < 1e-6, modulus
        normal = 2.0 * np.pi**2 / area + area / 8.0
        assert abs(res.energy.total - normal) <= 1e-12 * normal, (res.energy.total, normal)
    else:
        assert modulus > 0.05, modulus


def test_self_dual_two_vortices_energy_is_two_pi():
    """c = 2 on L = 6: two vortices cost 2 pi up to O(h^2) and lattice
    pinning, wherever they sit in their flat moduli space."""
    res = _self_dual_minimum(6.0, 2, 48)
    assert abs(res.energy.total / (2.0 * np.pi) - 1.0) <= 5e-4


def _centred_line_minimum(sites, lengths, eps):
    """minimize from the centred ansatz on T^2, or on T^3 with the line
    along axis 3, with c_01 = 1."""
    g = tg.TorusGeometry(sites, lengths)
    chern = np.zeros((g.dim, g.dim), dtype=int)
    chern[0, 1], chern[1, 0] = 1, -1
    b = tg.build_background(g, chern)
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2 if g.dim == 3 else None)
    u, A = vortex_ansatz(spec, b, g, eps)
    res = tg.minimize(u, A, b, eps, MinimizeOptions(tol=1e-8, max_iter=20000))
    assert res.converged
    return res.energy.total


def test_energy_converges_at_second_order_in_h():
    """At fixed eps the lattice error of G is O(h^2): halving h twice on
    T^2, c = 1, eps 0.2 (eps/h = 4, 8, 16) raises G by amounts in the ratio
    4 (it reads 4.003)."""
    energies = [_centred_line_minimum((n, n), (1.0, 1.0), 0.2) for n in (20, 40, 80)]
    assert energies[0] < energies[1] < energies[2], energies
    ratio = (energies[1] - energies[0]) / (energies[2] - energies[1])
    assert 3.5 <= ratio <= 4.5, ratio


def test_torus_shape_term_matches_the_image_sum():
    """The shape of a unit-area T^2 enters the c = 1 energy only through the
    London field's image sum: G_eps(a x 1/a) - G_eps(1 x 1) tends to
    pi (S(a) - S(1)), S(a) = sum K_0(|lambda|) over the nonzero period
    vectors, with the radial core constant cancelled.  For a = 2, energies
    Richardson-extrapolated in h^2 from h = eps/4 and eps/8 approach it at
    the eps^2 |log eps| rate (ratio ~4 per halving of eps)."""
    assert bessel_k0(1.0) == pytest.approx(0.4210244382407083, rel=1e-14)  # tabulated
    shape_term = np.pi * (image_sum_k0(2.0) - image_sum_k0(1.0))

    def energy(lengths, eps, per_eps):
        g = tg.TorusGeometry(tuple(round(per_eps * L / eps) for L in lengths), lengths)
        b = tg.build_background(g, [[0, 1], [-1, 0]])
        u, A = default_initial_pair(b, eps, seed=0)
        res = tg.minimize(u, A, b, eps, MinimizeOptions(tol=1e-9, max_iter=20000))
        assert res.converged, (lengths, eps, per_eps)
        return res.energy.total

    def extrapolated(lengths, eps):
        e4, e8 = (energy(lengths, eps, per_eps) for per_eps in (4, 8))
        return e8 + (e8 - e4) / 3.0

    gaps = [
        extrapolated((2.0, 0.5), eps) - extrapolated((1.0, 1.0), eps) - shape_term
        for eps in (0.1, 0.05, 0.025)
    ]
    assert all(abs(b) < abs(a) for a, b in zip(gaps, gaps[1:])), gaps
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert all(3.5 <= r <= 6.0 for r in ratios), (gaps, ratios)
    assert abs(gaps[-1]) < 0.02, gaps


@pytest.mark.parametrize(
    "sites, axis, eps, axes",
    [((32, 32), None, 0.2, (0, 1)), ((16, 16, 12), 2, 0.3, (0, 2))],
    ids=["t2-32x32", "t3-16x16x12-line"],
)
def test_envelope_identities_of_the_minimal_energy(sites, axis, eps, axes):
    """The envelope theorem at a minimizer (tol 1e-10) gives two derivatives
    of the minimal energy E from its own parts: dE/d log eps = -2V, V the
    potential energy, and, at fixed site counts and link phases theta0 +
    h A, dE/dL_k = (E - 2 K_k - 2 C_k)/L_k, with K_k the kinetic energy of
    the k-edges and C_k the curvature energy of the plaquettes containing
    axis k.  Central differences with delta 1e-4, each side re-solved from
    the minimizer, agree within 1e-6 relative (they read 2.5e-9 to 1.0e-8,
    1.5e-13 along the line)."""
    opts, delta = MinimizeOptions(tol=1e-10, max_iter=20000), 1e-4
    lengths = (1.0,) * len(sites)
    chern = np.zeros((len(sites),) * 2, dtype=int)
    chern[0, 1], chern[1, 0] = 1, -1
    b = tg.build_background(tg.TorusGeometry(sites, lengths), chern)
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=axis)
    res = tg.minimize(*vortex_ansatz(spec, b, b.geom, eps), b, eps, opts)
    assert res.converged
    u, A, E = res.section, res.gauge_field, res.energy.total

    def minimal(b2, A2, eps2):
        r = tg.minimize(tg.Section(b2.geom, u.values), A2, b2, eps2, opts)
        assert r.converged
        return r.energy.total

    slope = (minimal(b, A, eps * np.exp(delta)) - minimal(b, A, eps * np.exp(-delta))) / (2.0 * delta)
    assert slope == pytest.approx(-2.0 * res.energy.potential, rel=1e-6)

    w, D = b.geom.cell_volume, tg.covariant_difference(u, A, b)
    F = tg.curvature(A, b).values
    for k in axes:
        K = 0.5 * w * float(np.sum(D[k].real ** 2 + D[k].imag ** 2))
        C = 0.5 * w * sum(float(np.sum(F[p] ** 2)) for p, ij in enumerate(components(len(sites), 2)) if k in ij)
        ends = []
        for side in (1.0, -1.0):
            stretched = tg.TorusGeometry(sites, tuple(L + side * delta * (m == k) for m, L in enumerate(lengths)))
            A2 = A.values.copy()
            A2[k] *= b.geom.spacings[k] / stretched.spacings[k]  # the same link phases
            ends.append(minimal(tg.build_background(stretched, chern), tg.Cochain(stretched, 1, A2), eps))
        stress = (ends[0] - ends[1]) / (2.0 * delta)
        assert stress == pytest.approx((E - 2.0 * K - 2.0 * C) / lengths[k], rel=1e-6), k


@pytest.mark.slow
@pytest.mark.parametrize("fixture", ["min_t2_64", "min_t3_28", "sweep_quarter"])
def test_rounding_noise_keeps_counts_and_energies(request, fixture):
    """Convergence does not hinge on the last bits of the start: from 8
    starts, the fixture's vortex ansatz (sweep_quarter's first level) with
    u perturbed by 1e-13 relative complex noise (A is zero there), each
    solve converges within 10% of the fixture's evaluation count and within
    tol of its energy.  They read 37 -> 39-40, 53 -> 53-54 and 38 -> 38-39
    evaluations, with energies within 3.6e-15."""
    opts = MinimizeOptions(tol=1e-8, max_iter=200000)
    if fixture == "sweep_quarter":
        first = request.getfixturevalue(fixture)[0]
        b, eps, ref = tg.build_background(first.geom, [[0, 1], [-1, 0]]), first.epsilon, first.result
    else:
        _, b, eps, ref = request.getfixturevalue(fixture)
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2 if b.geom.dim == 3 else None)
    u, A = vortex_ansatz(spec, b, b.geom, eps)
    counts = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(b.geom.sites) + 1j * rng.standard_normal(b.geom.sites)
        res = tg.minimize(tg.Section(b.geom, u.values * (1.0 + 1e-13 * noise)), A, b, eps, opts)
        counts.append(res.iterations)
        assert res.converged, (seed, res.stop_reason)
        assert abs(res.energy.total - ref.energy.total) <= opts.tol, seed
    assert all(abs(c - ref.iterations) <= 0.1 * ref.iterations for c in counts), (ref.iterations, counts)


def test_straight_line_is_the_t2_minimizer_extended():
    """A line along axis 3 is the T^2 minimizer extended along it, so its
    energy is L_3 times the T^2 one, to rounding, for L_3 below and above
    the T^2 side."""
    g2 = _centred_line_minimum((16, 16), (1.0, 1.0), 0.15)
    for length, n3 in ((0.5, 4), (2.0, 8)):
        g3 = _centred_line_minimum((16, 16, n3), (1.0, 1.0, length), 0.15)
        assert abs(g3 - length * g2) <= 1e-12 * g3, (length, g3, length * g2)


def test_t4_straight_surface_is_the_t2_minimizer_extended():
    """On T^4 with c_01 = 1 the flat 2-torus, the T^2 minimizer extended
    along axes 2 and 3, is already a minimizer with the T^2 energy."""
    r2, b, u, A = t4_product_start(12, 0.2, [(0, 1)], MinimizeOptions(tol=1e-8, max_iter=20000))
    assert r2.converged
    res = tg.minimize(u, A, b, 0.2, MinimizeOptions(tol=1e-8, max_iter=20000))
    assert res.converged and res.iterations == 0
    assert res.energy.total == r2.energy.total
    assert res.london_residual <= 1e-9
    assert vortex_mass(vorticity(res.section, res.gauge_field, b)) == 1.0


@pytest.mark.parametrize("n", [12, 16])
def test_t4_crossing_class_is_two_flat_tori(n):
    """The class c_01 = c_23 = 1 is carried by two orthogonal flat tori of
    total area 2, calibrated by dx0^dx1 + dx2^dx3.  From the product of two
    T^2 minimizers the solve keeps windings on exactly those two tori, and
    the crossing saves energy against two separate surfaces (2 E_T2)."""
    r2, b, u, A = t4_product_start(n, 0.2, [(0, 1), (2, 3)], MinimizeOptions(tol=1e-8, max_iter=20000))
    assert r2.converged
    res = tg.minimize(u, A, b, 0.2, MinimizeOptions(tol=1e-8, max_iter=20000))
    assert res.converged
    v = vorticity(res.section, res.gauge_field, b)
    assert np.array_equal(tg.chern_pairing(v), b.chern)
    carriers = [ij for ij, w in zip(tg.lattice.components(4, 2), v.windings) if w.any()]
    assert carriers == [(0, 1), (2, 3)]
    assert vortex_mass(v) == 2.0
    assert res.energy.total - 2.0 * r2.energy.total < 0.0


def test_t3_diagonal_class_concentrates_on_the_shortest_line(sweep_quarter):
    """The energy of minimisers concentrates on an area-minimising line.  In
    the class c_02 = c_12 = 1 on the unit T^3 that is the face diagonal, of
    length sqrt 2 (Alberti, Baldo and Orlandi, Indiana Univ. Math. J. 54,
    2005), whose transverse torus is the rectangle 1/sqrt 2 x 1.  So at
    eps 0.2 the energy is sqrt 2 times the T^2 one on that rectangle: from
    the default start, 16^3 and 32^3 and the T^2 45 x 64 and 91 x 128,
    each pair Richardson-extrapolated in h^2, agree to 6.5e-8 relative.  An
    L of two axial lines would cost about twice the axial energy."""

    def minimum(sites, lengths, chern):
        b = tg.build_background(tg.TorusGeometry(sites, lengths), chern)
        res = tg.minimize(*default_initial_pair(b, 0.2, seed=0), b, 0.2, MinimizeOptions(tol=1e-8))
        assert res.converged, sites
        return res, b

    line = []
    for n in (16, 32):
        res, b = minimum((n,) * 3, (1.0,) * 3, _chern(3, {(0, 2): 1, (1, 2): 1}))
        v = vorticity(res.section, res.gauge_field, b)
        assert single_dual_loop(v) == (True, 2 * n)
        assert np.array_equal(tg.chern_pairing(v), b.chern)
        line.append(res.energy.total)
    flat = [minimum(sites, (1.0 / np.sqrt(2.0), 1.0), _chern(2, {(0, 1): 1}))[0].energy.total
            for sites in ((45, 64), (91, 128))]
    line_limit, flat_limit = (e[1] + (e[1] - e[0]) / 3.0 for e in (line, flat))
    assert abs(line_limit - np.sqrt(2.0) * flat_limit) < 1e-6 * line_limit, (line_limit, flat_limit)
    assert sweep_quarter[0].epsilon == 0.2
    assert line[-1] < 2.0 * sweep_quarter[0].result.energy.total - 2.0, line


@pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
def test_narrow_cores(rng, rho):
    """The modulus map m -> tanh(rho artanh m) keeps the phase, leaves 0 and
    |u| >= 1 alone, is monotone with slope rho at 0, and takes each profile
    tanh(k r) to tanh(k rho r)."""
    from torusgl.solve import _narrow_cores

    g = tg.TorusGeometry((16, 16), (1.0, 1.0))
    u = random_section(g, rng)
    u.values[0, :4] = [0.0, 1.0, -1.0j, 1.5 * np.exp(0.3j)]
    v = _narrow_cores(u, rho).values
    m = np.abs(u.values)
    inside = (m > 0.0) & (m < 1.0)
    assert np.array_equal(v[~inside], u.values[~inside])
    assert np.abs(np.angle(v[inside] / u.values[inside])).max() <= 4 * np.finfo(float).eps

    def narrowed(samples):
        return _narrow_cores(tg.Section(g, samples.reshape(g.sites)), rho).values.ravel()

    r = np.linspace(0.0, 3.0, g.n_sites)
    for k in (0.5, 1.0, 3.0):
        assert np.abs(narrowed(np.tanh(k * r)) - np.tanh(k * rho * r)).max() <= 1e-14
    assert np.all(np.diff(narrowed(np.linspace(0.0, 1.0, g.n_sites)).real) >= 0.0)
    tiny = np.geomspace(1e-12, 1e-6, g.n_sites)
    assert np.abs(narrowed(tiny).real / tiny - rho).max() <= 1e-10 * rho


def test_refinement_helpers(rng):
    g1 = tg.TorusGeometry((8, 8), (1.0, 1.0))
    g2 = tg.TorusGeometry((16, 16), (1.0, 1.0))
    u = random_section(g1, rng)
    # on a trivial bundle with A = 0 every link phase is 0
    u2 = refine_section(u, zero_cochain(g2, 1), tg.build_background(g2, [[0, 0], [0, 0]]))
    # original samples survive at even sites
    assert np.allclose(u2.values[::2, ::2], u.values)
    c = tg.random_cochain(g1, 1, rng)
    c2 = refine_cochain(c, g2)
    assert np.allclose(c2.values[:, ::2, ::2], c.values)
    g3 = tg.TorusGeometry((12, 12), (1.0, 1.0))
    with pytest.raises(ValueError, match="integer"):
        refine_section(u, zero_cochain(g3, 1), tg.build_background(g3, [[0, 0], [0, 0]]))


def test_refine_section_follows_link_phases(t2_trivial, t2_bundle):
    """Along the fine link phases a covariantly constant section refines to
    one, and a minimizer refines to a state of about its energy; the plain
    interpolation of the values does neither across the background seam."""
    def wave(g):
        return tg.Section(g, np.exp(1j * k * np.broadcast_to(g.coordinates(0), g.sites)))

    g2 = tg.TorusGeometry((32, 32), (1.0, 1.0))
    k = 2 * np.pi * 3
    A2 = tg.Cochain(g2, 1, np.stack([np.full(g2.sites, k), np.zeros(g2.sites)]))
    b2 = tg.build_background(g2, t2_trivial.chern)
    u2 = refine_section(wave(t2_trivial.geom), A2, b2)
    assert np.abs(u2.values - wave(g2).values).max() <= 1e-13

    g = t2_bundle.geom
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    res = tg.minimize(*vortex_ansatz(spec, t2_bundle, g, 0.25), t2_bundle, 0.25)
    b2 = tg.build_background(g2, t2_bundle.chern)
    A2 = refine_cochain(res.gauge_field, g2)
    along = refine_section(res.section, A2, b2)
    plain = tg.Section(g2, tg.solve._refine(res.section.values, g, g2, 0))
    assert np.array_equal(along.values[::2, ::2], res.section.values)
    assert tg.g_energy(along, A2, b2, 0.25).total <= 1.01 * res.energy.total
    assert tg.g_energy(plain, A2, b2, 0.25).total > 1.2 * res.energy.total


def test_cg_takes_first_direction_of_negative_curvature():
    """Negative curvature along the first CG direction gives that direction
    as the step, not an empty step that would stall the Newton loop."""
    from torusgl.solve import _projected_cg

    g = np.arange(1.0, 5.0)
    same = lambda v: v  # noqa: E731
    p, used = _projected_cg(lambda v: -v, g, lambda v: 2.0 * v, same, 0.1, 10)
    assert used == 1
    assert np.array_equal(p, -2.0 * g)


def test_cg_leaves_its_gradient_unchanged():
    """The in-place CG updates never write into g, which the Newton round
    reads after the solve for the slope: neither with the identity
    projection, nor with a proper one, nor with one that writes into its
    argument, as minimize's projection does."""
    from torusgl.solve import _projected_cg

    diag = np.linspace(1.0, 50.0, 30)
    g = np.cos(np.arange(30.0))
    keep = g.copy()
    e = np.ones(30) / np.sqrt(30.0)

    def in_place(v):
        v -= (e @ v) * e
        return v

    for project in (lambda v: v, lambda v: v - (e @ v) * e, in_place):
        _, used = _projected_cg(lambda v: diag * v, g, lambda v: 2.0 * v, project, 1e-8, 100)
        assert used > 1
        assert np.array_equal(g, keep)


def test_slide_rebuilds_the_translations_bit_for_bit(monkeypatch):
    """A model keeps only the orthonormal rows Q of its covariant
    translations; the slide forms the raw rows again from the model's links,
    u and F_A.  On the slide_t3_12 input (a line on 12^3, eps 0.15), every
    slide's rows equal the rows built here as they were kept before, bit
    for bit, with the direction along the line dropped; Q from those rows is
    orthonormal, and the model's projection writes v - Q^T Q v into v."""
    from torusgl.solve import _dot, _flat

    slides = []
    translations = tg.solve._covariant_translations

    def recording(lin, x):
        rows, project = translations(lin, x)

        def recorded():
            R = rows()
            slides.append((lin, x, R, project))
            return R

        return recorded, project

    monkeypatch.setattr(tg.solve, "_covariant_translations", recording)
    geom = tg.TorusGeometry((12, 12, 12), (1.0, 1.0, 1.0))
    b = tg.build_background(geom, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    u, A = vortex_ansatz(AnsatzSpec(windings=(1,), positions=((0.52, 0.51),), axis=2), b, geom, 0.15)
    assert tg.minimize(u, A, b, 0.15, MinimizeOptions(tol=1e-8, max_iter=20000)).converged
    assert slides, "the run slides"
    h = geom.spacings
    rng = np.random.default_rng(12)
    for lin, x, R, project in slides:
        raw = []
        for k, (_, fwd) in enumerate(lin.links):
            dA = np.zeros(geom.shape(1))
            for pos, (i, j) in enumerate(components(3, 2)):
                if i == k:
                    dA[j] = -lin.F.values[pos]
                elif j == k:
                    dA[i] = lin.F.values[pos]
            raw.append(h[k] * _flat(-(fwd - lin.u.values) / h[k], tg.Cochain(geom, 1, dA)))
        floor = np.sqrt(np.finfo(float).eps) * (np.sqrt(_dot(x, x)) + 1.0)
        kept, Q = [], []
        for k, row in enumerate(raw):
            z = row.copy()
            for q in Q:
                z -= _dot(q, z) * q
            if np.sqrt(_dot(z, z)) > floor:
                kept.append(k)
                Q.append(z / np.sqrt(_dot(z, z)))
        assert kept == [0, 1]
        assert np.array_equal(R, np.stack([raw[k] for k in kept]))
        Q = np.stack(Q)
        assert np.abs(Q @ Q.T - np.eye(len(kept))).max() <= 1e-12
        v = rng.standard_normal(x.size)
        expected = v - np.einsum("k,ki", _dot(Q, v), Q)
        assert project(v) is v
        assert np.array_equal(v, expected)


@pytest.mark.parametrize("side, eps, position, bound", [
    pytest.param(16, 0.125, (0.5, 0.5), 18.0, id="0.125-18.0"),
    pytest.param(16, 0.3, (0.5, 0.5), 16.0, id="0.3-16.0"),
    pytest.param(12, 0.15, (0.52, 0.51), 26.5, id="slide_t3_12-26.5"),
])
def test_minimize_peak_memory_in_state_sizes(side, eps, position, bound):
    """The tracemalloc peak of one minimize above its start, in state sizes
    (one packed (Re u, Im u, A) vector), on a T^3 c_01 = 1 line.  On 16^3:
    with the covariant translations projected out (eps 0.125 = 2 h, 49
    evaluations) and without (eps 0.3, 43 evaluations).  The peaks read
    17.04 and 15.02.  They were 19.05 and 17.03 while the preconditioner
    kept a rotation buffer beside each apply's result and a model kept
    conj(u) and Re(conj(u) T) per axis, and 24.93 and 19.84 while a model
    also kept the raw translations beside their orthonormal rows,
    conj(link) per axis, and Re(conj(u) T) as views pinning complex
    products.  Nothing splits at 16^3, so the peak repeats to 0.01.  The
    slide_t3_12 line on 12^3 (eps 0.15, 323 evaluations) slides, keeping
    the model of the state before each slide while it settles.  Its second
    solve reads 24.94; it read 27.43 while that model kept its product array
    and preconditioner and each settle round held the previous round's
    translations through the next model's build.  A 12^3 state is 69 KB,
    and the interpreter's first-use allocations, about 100 KB, would read
    as 1.4 state sizes, so only the second solve is measured there."""
    import tracemalloc

    geom = tg.TorusGeometry((side,) * 3, (1.0, 1.0, 1.0))
    b = tg.build_background(geom, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    u, A = vortex_ansatz(AnsatzSpec(windings=(1,), positions=(position,), axis=2), b, geom, eps)
    opts = MinimizeOptions(tol=1e-8, max_iter=20000)
    if side == 12:
        tg.minimize(u, A, b, eps, opts)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = tg.minimize(u, A, b, eps, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert (peak - start) / (8 * 5 * geom.n_sites) <= bound


def test_newton_undoes_a_slide_whose_settle_round_finds_no_decrease():
    """A Newton round that finds no certified decrease while a slide settles
    undoes the slide, where outside a slide it ends the run "stalled": the
    loop restores the state before the slide, without building its model
    again, and slides from it at half the length.  On a fake model on R^2,
    the start carries gradient only along its soft mode (axis 1), and every
    slid state has gradient on axis 0 but no step that certifies a decrease.
    Each slide and its failed round cost two evaluations, so 19 end
    "budget" after nine slides, at the start, with no state accepted."""
    from torusgl.solve import _Model, _newton

    def project(v):
        v[1] = 0.0
        return v

    built = []

    def at(x):
        built.append(x.copy())
        if x[1] == 0.0:
            return _Model(np.array([0.0, 1.0]), None, lambda s: s[1], None,
                          (lambda: np.array([[0.0, 1.0]]), project))
        return _Model(np.array([1.0, 1.0]), lambda v: v.copy(), lambda s: 1.0, lambda v: v.copy())

    accepted = []
    x, _, _, used, reason = _newton(at, np.zeros(2), 1.0, MinimizeOptions(tol=1e-8, max_iter=19),
                                    lambda x, g: accepted.append(x))
    assert (reason, used) == ("budget", 18)
    assert np.array_equal(x, np.zeros(2))
    assert not accepted
    assert [y[1] for y in built] == [0.0] + [-0.125 / 2**k for k in range(9)]


def test_forcing_follows_eisenstat_walker_choice_2():
    """The first round takes eta_0; a fast drop is held at gamma eta^alpha
    while that exceeds 0.1, and not below; a rise is capped at eta_max."""
    from torusgl.solve import _forcing

    gamma, alpha = 0.9, 2.0
    expected = [
        0.5,                              # eta_0
        gamma * 0.5**alpha,               # safeguard: 0.225 > 0.009
        gamma * 0.5**alpha,               # ratio 0.5 gives 0.225 too
        gamma * 0.01**alpha,              # safeguard 0.046 < 0.1: off
        0.9,                              # ratio 2 gives 3.6: the cap
        gamma * 0.9**alpha,               # safeguard after the cap
    ]
    last, got = None, []
    for gnorm in [1.0, 0.1, 0.05, 5e-4, 1e-3, 1e-4]:
        last = (gnorm, _forcing(gnorm, last))
        got.append(last[1])
    assert got == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_cg_floor_ends_before_relative_target():
    """On a diagonal SPD system the absolute floor stops CG at the first
    residual below it, steps before a tight relative target would."""
    from torusgl.solve import _norm, _projected_cg

    diag = np.linspace(1.0, 100.0, 40)
    g = np.ones_like(diag)
    hv = lambda v: diag * v  # noqa: E731
    same = lambda v: v  # noqa: E731
    _, full = _projected_cg(hv, g, same, same, 1e-10, 100)
    floor = 1e-3 * _norm(g)
    p, used = _projected_cg(hv, g, same, same, 1e-10, 100, floor)
    assert used < full
    assert _norm(diag * p + g) <= floor
    p_short, _ = _projected_cg(hv, g, same, same, 1e-10, used - 1, floor)
    assert _norm(diag * p_short + g) > floor


def test_adaptive_forcing_counts(min_t3_28, sweep_quarter, sweep_fixed80, min_t2_64):
    """Evaluations with Eisenstat-Walker forcing and the convergence floor
    (68, 222, 182 and 65 with the fixed forcing 0.1)."""
    assert min_t3_28[3].iterations <= 60
    assert sum(r.result.iterations for r in sweep_quarter) <= 205
    assert sum(r.result.iterations for r in sweep_fixed80) <= 150
    assert min_t2_64[3].iterations <= 65


def test_weak_pinning_counts(sweep_quarter, sweep_fixed80, min_t2_64):
    """Evaluations where every level resolves its core (eps/h >= 4), so the
    Newton steps keep the covariant translations in (41/40/48/63, 138 and
    58 with them projected out)."""
    counts = [r.result.iterations for r in sweep_quarter]
    assert max(counts) <= 45, counts
    assert sum(r.result.iterations for r in sweep_fixed80) <= 135
    assert min_t2_64[3].iterations <= 45


@pytest.mark.slow
def test_minimizer_single_plaquette_support_64(min_t2_64):
    geom, b, eps, res = min_t2_64
    assert res.converged
    v = vorticity(res.section, res.gauge_field, b)
    assert np.count_nonzero(v.windings) == 1
    assert v.total() == 1


def test_relax_reduces_g_energy_for_every_eps(rng, t2_bundle):
    g = t2_bundle.geom
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    B, reason = tg.relax_connection(u, A, t2_bundle, MinimizeOptions(tol=1e-7, max_iter=50000))
    assert reason == "converged"
    for eps in (0.7, 0.3, 0.12):
        assert (
            tg.g_energy(u, B, t2_bundle, eps).total
            <= tg.g_energy(u, A, t2_bundle, eps).total
        )


@pytest.mark.slow
def test_minimize_anisotropic_torus():
    geom = tg.TorusGeometry((24, 36), (1.0, 1.5))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    spec = AnsatzSpec(windings=(1,), positions=((0.5, 0.75),))
    u, A = vortex_ansatz(spec, b, geom, 0.17)
    res = tg.minimize(u, A, b, 0.17, MinimizeOptions(tol=1e-8, max_iter=100000))
    assert res.converged
    assert res.london_residual <= 1e-6
    v = vorticity(res.section, res.gauge_field, b)
    assert tg.chern_pairing(v)[0, 1] == 1


@pytest.mark.slow
def test_minimize_negative_chern():
    geom = tg.TorusGeometry((24, 36), (1.0, 1.5))
    b = tg.build_background(geom, [[0, -1], [1, 0]])
    spec = AnsatzSpec(windings=(-1,), positions=((0.5, 0.75),))
    u, A = vortex_ansatz(spec, b, geom, 0.17)
    res = tg.minimize(u, A, b, 0.17, MinimizeOptions(tol=1e-8, max_iter=100000))
    assert res.converged
    v = vorticity(res.section, res.gauge_field, b)
    assert tg.chern_pairing(v)[0, 1] == -1
    assert v.total() == -1


@pytest.mark.slow
def test_minimize_two_vortices():
    geom = tg.TorusGeometry((32, 32), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 2], [-2, 0]])
    spec = AnsatzSpec(windings=(1, 1), positions=((0.25, 0.25), (0.75, 0.75)))
    u, A = vortex_ansatz(spec, b, geom, 0.1)
    res = tg.minimize(u, A, b, 0.1, MinimizeOptions(tol=1e-8, max_iter=100000))
    assert res.converged
    v = vorticity(res.section, res.gauge_field, b)
    assert v.total() == 2
    assert np.count_nonzero(v.windings) == 2
    assert vortex_mass(v) == 2.0


@pytest.mark.parametrize("sites, lengths", [((10, 7), (1.0, 1.4)), ((6, 5, 4), (1.0, 0.9, 1.1))])
def test_spectral_preconditioner_is_scaled_london_solve(sites, lengths):
    """The minimizers' preconditioner applies solve_london to each block of
    a packed vector, divided by the cell volume: to (Re u, Im u, A) in
    minimize, and to a 2-cochain in relax_connection."""
    rng = np.random.default_rng(11)
    g = tg.TorusGeometry(sites, lengths)
    w = g.cell_volume
    precond = tg.solve._spectral_preconditioner(g)
    u = random_section(g, rng)
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    blocks = [
        tg.Cochain(g, 0, u.values.real[np.newaxis]),
        tg.Cochain(g, 0, u.values.imag[np.newaxis]),
        A,
    ]
    expected = np.concatenate([tg.solve_london(c).values.ravel() / w for c in blocks])
    got = precond(tg.solve._flat(u.values, A))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    psi = tg.Cochain(g, 2, rng.standard_normal(g.shape(2)))
    expected = tg.solve_london(psi).values.ravel() / w
    got = precond(psi.values.ravel())
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("sites, eps", [((10, 7), 0.2), ((6, 5, 4), 0.3)])
def test_phase_aligned_preconditioner_is_spd(sites, eps):
    """M = R^T D R is symmetric and positive definite at a random state,
    also where u has an exact zero (frame 1 there)."""
    rng = np.random.default_rng(13)
    g = tg.TorusGeometry(sites, (1.0,) * len(sites))
    u = random_section(g, rng)
    u.values[(1,) * g.dim] = 0.0
    A = tg.Cochain(g, 1, rng.standard_normal(g.shape(1)))
    precond = tg.solve._phase_aligned_preconditioner(g, eps)(u.values)
    for _ in range(3):
        v, w = rng.standard_normal((2, tg.solve._flat(u.values, A).size))
        vMw, Mvw = v @ precond(w), precond(v) @ w
        assert abs(vMw - Mvw) <= 1e-12 * abs(vMw)
        assert v @ precond(v) > 0.0


@pytest.mark.slow
def test_newton_cg_counts_mesh_independent(min_t3_28, sweep_quarter):
    """The phase-aligned preconditioner keeps the Newton-CG count from
    doubling per halving of h under the quarter rule h = eps/4."""
    assert min_t3_28[3].iterations <= 80
    counts = [r.result.iterations for r in sweep_quarter]
    assert counts[-1] <= 2.6 * counts[0], counts
    assert all(b <= 1.8 * a for a, b in zip(counts, counts[1:])), counts
