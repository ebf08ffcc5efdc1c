"""Tests of the benchmark harness: binding patches, output checks, self time.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layertrace  # noqa: E402
import workloads  # noqa: E402

import torusgl as tg  # noqa: E402


def _wrapped_bindings():
    """(module, attribute) of every torusgl binding that holds a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "torusgl" or name.startswith("torusgl.")):
            continue
        for attr, value in vars(mod).items():
            if callable(value) and hasattr(value, "__wrapped__") and getattr(value, "__module__", "") == "layertrace":
                found.append((name, attr))
    return found


def test_tracer_patches_caller_bindings_and_restores():
    originals = {
        ("torusgl.solve", "g_gradient"): tg.solve.g_gradient,
        ("torusgl.fields", "g_gradient"): tg.fields.g_gradient,
        ("torusgl.fields", "covariant_difference"): tg.fields.covariant_difference,
        ("torusgl.bundle", "covariant_difference"): tg.bundle.covariant_difference,
        ("torusgl", "minimize"): tg.minimize,
    }
    geom = tg.TorusGeometry((8, 8), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    with layertrace.Tracer() as tracer:
        for (modname, attr), original in originals.items():
            bound = getattr(sys.modules[modname], attr)
            assert bound is not original
            assert bound.__wrapped__ is original
        u, A = tg.vortex_ansatz(spec, b, geom, eps=0.3)
        res = tg.minimize(u, A, b, 0.3, tg.MinimizeOptions(tol=1e-6, max_iter=5))
    for (modname, attr), original in originals.items():
        assert getattr(sys.modules[modname], attr) is original
    assert _wrapped_bindings() == []

    out = tracer.summary()
    assert out["solve.minimize.calls"] == 1
    assert out["solve.vortex_ansatz.calls"] == 1
    assert out["solve.iterations"] == res.iterations
    # solve calls g_gradient through its own binding; g_gradient calls
    # covariant_difference through the fields binding
    assert out["fields.g_gradient.calls"] >= 1
    assert out["bundle.covariant_difference.calls"] >= out["fields.g_gradient.calls"]
    assert out["fields.g_gradient.ms.20x20"] == 0.0


def test_tracer_restores_after_an_exception():
    original = tg.fields.g_energy
    with pytest.raises(ValueError):
        with layertrace.Tracer():
            geom = tg.TorusGeometry((4, 4), (1.0, 1.0))
            b = tg.build_background(geom, [[0, 0], [0, 0]])
            tg.fields.g_energy(tg.constant_section(geom), tg.zero_cochain(geom, 1), b, -1.0)
    assert tg.fields.g_energy is original
    assert _wrapped_bindings() == []


def _result(energy, converged=True, london=1e-9):
    return SimpleNamespace(
        converged=converged, london_residual=london, energy=SimpleNamespace(total=energy)
    )


CHERN = [[0, 1], [-1, 0]]


def test_correct_state_passes():
    outcome = workloads.Outcome()
    outcome.record("ok", workloads.solve_failures(_result(25.0), np.array(CHERN), CHERN, [], 25.0))
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 0, True)


@pytest.mark.parametrize(
    "result, pairing",
    [
        (_result(25.0 * (1 + 1e-8)), CHERN),         # energy off by 1e-8 relative
        (_result(25.0), [[0, 2], [-2, 0]]),           # wrong Chern pairing
        (_result(25.0, london=1e-3), CHERN),          # London identity violated
    ],
)
def test_wrong_output_counts_as_failure(result, pairing):
    outcome = workloads.Outcome()
    outcome.record("bad", workloads.solve_failures(result, np.array(pairing), CHERN, [], 25.0))
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 1, False)


def test_unconverged_solve_fails_without_marking_outputs_wrong():
    outcome = workloads.Outcome()
    # energy and London are only judged on converged states
    result = _result(30.0, converged=False, london=1.0)
    outcome.record("slow", workloads.solve_failures(result, np.array(CHERN), CHERN, [], 25.0),
                   result.converged)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 1, True)
    assert outcome.unconverged == ["slow"]


def test_wrong_vortex_mass_counts_as_failure():
    assert workloads.mass_failures(1.0) == []
    assert workloads.mass_failures(2.0) != []


def test_self_time_on_a_synthetic_span_tree():
    S = layertrace.Span
    names = [("solve", "minimize"), ("fields", "g_gradient"), ("bundle", "covariant_difference")]
    spans = [
        S(0, -1, 0.0, 10.0),   # minimize
        S(1, 0, 1.0, 4.0),     #   g_gradient
        S(2, 1, 1.5, 2.5),     #     covariant_difference
        S(1, 0, 5.0, 8.0),     #   g_gradient
        S(2, 3, 6.0, 7.5),     #     covariant_difference
        S(2, 0, 9.0, 9.5),     #   covariant_difference
    ]
    out = layertrace.summarize(names, spans)
    assert out["solve.minimize.calls"] == 1
    assert out["solve.minimize.s"] == 10.0
    assert out["fields.g_gradient.calls"] == 2
    assert out["fields.g_gradient.s"] == 6.0
    assert out["bundle.covariant_difference.calls"] == 3
    assert out["bundle.covariant_difference.s"] == 3.0
    assert out["solve.self_s"] == 10.0 - 3.0 - 3.0 - 0.5
    assert out["fields.self_s"] == (3.0 - 1.0) + (3.0 - 1.5)
    assert out["bundle.self_s"] == 3.0
    assert out["cli.self_s"] == 0.0
    # self times partition the top-level span
    assert sum(out[f"{layer}.self_s"] for layer in layertrace.LAYERS) == 10.0


def test_every_reported_metric_has_a_unit():
    tracer = layertrace.Tracer()
    tracer.names = [(layer, f) for layer, funcs in layertrace.LAYERS.items() for f in funcs]
    out = tracer.summary()
    out["trace.overhead_s"] = 0.0
    assert set(out) == set(layertrace.metric_units())
