"""CLI: config parsing, subcommands, exit codes, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

from torusgl.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    SWEEP_COLUMNS,
)

T2_CONFIG = """
[geometry]
dim = 2
sites = 12 12
lengths = 1 1

[bundle]
chern_01 = 1

[run]
epsilons = 0.3 0.25
seed = 7
out = {out}

[optimizer]
tol = 1e-8
max_iter = 40000

[ansatz]
windings = 1
positions = 0.5 0.5
"""


def write_config(tmp_path, text=None, **overrides):
    out = overrides.pop("out", tmp_path / "run_out")
    text = (text or T2_CONFIG).format(out=out)
    for key, val in overrides.items():
        text = text.replace(f"{key} = ", f"{key} = {val} #", 1)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


T3_AXIS_CONFIG = (
    T2_CONFIG.replace("dim = 2", "dim = 3")
    .replace("sites = 12 12", "sites = 8 8 10")
    .replace("lengths = 1 1", "lengths = 1 1 1.25")
    .replace("[ansatz]", "[ansatz]\naxis = 2")
)


def test_config_validation_messages():
    base = T2_CONFIG.format(out="x")
    assert parse_config(T3_AXIS_CONFIG.format(out="x")).ansatz.axis == 2
    bad = base.replace("epsilons = 0.3 0.25", "epsilons = 0")
    with pytest.raises(ConfigError, match="epsilon > 0"):
        parse_config(bad)
    bad = base.replace("epsilons = 0.3 0.25", "epsilons = 0.25 0.3")
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(bad)
    bad = base.replace("sites = 12 12", "sites = 3 12")
    with pytest.raises(ConfigError, match="N_i >= 4"):
        parse_config(bad)
    bad = base.replace("seed = 7\n", "")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(bad)
    for old, new in [
        ("sites = 12 12", "sites = 12 12 12"),
        ("lengths = 1 1", "lengths = 1"),
        ("dim = 2", "dim = 4"),
        ("lengths = 1 1", "lengths = 1 0"),
        ("positions = 0.5 0.5", ""),
        ("max_iter = 40000", "max_iter = 4e4"),
        ("lengths = 1 1", "lengths = nan 1"),
        ("positions = 0.5 0.5", "positions = nan 0.5"),
        ("positions = 0.5 0.5", "positions = 0.5 0.5 0.7"),
        ("max_iter = 40000", "max_iter = 40000\nlog_every = -1"),
    ]:
        with pytest.raises(ConfigError):
            parse_config(base.replace(old, new))
    # infinite lengths pass the quarter rule, which has no h <= epsilon/2 check
    quarter = base.replace("seed = 7", "seed = 7\nmesh_rule = quarter")
    with pytest.raises(ConfigError, match="L_i"):
        parse_config(quarter.replace("lengths = 1 1", "lengths = inf inf"))
    with pytest.raises(ConfigError, match=r"\[geometry\] sites"):
        parse_config(base.replace("sites = 12 12", "sites = 12 x"))
    with pytest.raises(ConfigError, match=r"unknown \[optimizer\] key truncate_each"):
        parse_config(base.replace("tol = 1e-8", "tol = 1e-8\ntruncate_each = true"))
    # an [ansatz] section without windings is an error, not the default start
    no_windings = base.replace("windings = 1\npositions = 0.5 0.5", "positions = 0.2 0.7\naxis = 2")
    with pytest.raises(ConfigError, match=r"missing \[ansatz\] windings"):
        parse_config(no_windings)
    for old, new, message in [
        ("[geometry]", "dim = 2\n[geometry]", "expected 'key = value'"),
        ("tol = 1e-8", "tol 1e-8", "expected 'key = value'"),
        ("dim = 2\n", "", r"missing \[geometry\] dim"),
        ("chern_01 = 1", "flux_01 = 1", r"unknown \[bundle\] key flux_01"),
        ("chern_01 = 1", "chern_10 = 1", "0 <= i < j < dim"),
        ("chern_01 = 1", "chern_02 = 1", "0 <= i < j < dim"),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_config(base.replace(old, new))
    # a repeated key fails instead of overriding the first, also when its
    # section header repeats
    for old, new, message in [
        ("seed = 7", "seed = 7\nseed = 9", r"line 13: repeated \[run\] key seed"),
        ("[run]", "[geometry]\nsites = 16 16\n\n[run]", r"line 11: repeated \[geometry\] key sites"),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_config(base.replace(old, new))
    # the lattice rules of mesh_rule bind the sweep command only
    parse_config(quarter)
    parse_config(FIXED_RULE_VIOLATION.format(out="x"))


# h = 1.5/8 > 0.125/2 on one fixed lattice; under the quarter rule the
# lattices nest (16 -> 32, 24 -> 48 sites)
FIXED_RULE_VIOLATION = (
    T2_CONFIG.replace("epsilons = 0.3 0.25", "epsilons = 0.25 0.125")
    .replace("sites = 12 12", "sites = 8 8 8")
    .replace("dim = 2", "dim = 3")
    .replace("lengths = 1 1", "lengths = 1 1 1.5")
    .replace("seed = 7", "seed = 7\nmesh_rule = fixed")
    .split("[ansatz]")[0]
)


@pytest.mark.parametrize(
    "text, message",
    [
        (FIXED_RULE_VIOLATION, "epsilon/2"),
        # 14 -> 16 sites per axis: the warm start cannot be refined
        (T2_CONFIG.replace("seed = 7", "seed = 7\nmesh_rule = quarter"), "integer multiples"),
        (T2_CONFIG.replace("epsilons = 0.3 0.25", "epsilons = 0.3"), ">= 2 epsilon"),
    ],
    ids=["fixed", "quarter", "one-epsilon"],
)
def test_sweep_config_errors(tmp_path, capsys, text, message):
    """A config the sweep alone refuses (a lattice that breaks its
    mesh_rule, or a single epsilon) ends `sweep` with exit 1 and one config
    error line before any solve writes output, and passes for `minimize`,
    which solves on the given lattice at the first epsilon."""
    out = tmp_path / "rules"
    path = write_config(tmp_path, text=text, out=out)
    assert main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()
    path = write_config(tmp_path, text=text.replace("max_iter = 40000", "max_iter = 1"), out=out)
    assert main(["minimize", "--config", str(path)]) == 2
    assert "not converged (budget)" in capsys.readouterr().err


def test_unknown_config_keys_and_sections_rejected(tmp_path, capsys):
    base = T2_CONFIG.format(out="x")
    with pytest.raises(ConfigError, match=r"unknown \[optimizer\] key max_iters"):
        parse_config(base.replace("max_iter = 40000", "max_iters = 1"))
    with pytest.raises(ConfigError, match=r"unknown section \[optimiser\]"):
        parse_config(base.replace("[optimizer]", "[optimiser]"))
    # a typo fails the run up front instead of running with the default
    path = write_config(tmp_path, text=T2_CONFIG.replace("max_iter = 40000", "max_iters = 1"))
    assert main(["minimize", "--config", str(path)]) == 1
    assert "max_iters" in capsys.readouterr().err


def test_cmd_minimize_trivial(tmp_path, capsys):
    out = tmp_path / "triv"
    text = T2_CONFIG.format(out=out)
    text = text.replace("chern_01 = 1", "chern_01 = 0")
    text = text.split("[ansatz]")[0]
    path = tmp_path / "t.cfg"
    path.write_text(text)
    code = main(["minimize", "--config", str(path)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "converged = true" in captured
    total = [l for l in captured.splitlines() if l.startswith("total = ")][0]
    assert float(total.split("=")[1]) <= 1e-10
    for name in ("u.field", "A.field", "F.field", "mu.field", "summary.txt", "vorticity.txt"):
        assert (out / name).exists()
    assert (out / "vorticity.txt").read_text() == ""


def test_cmd_minimize_vortex_artifacts(tmp_path, capsys):
    out = tmp_path / "vrt"
    path = write_config(tmp_path, out=out)
    code = main(["minimize", "--config", str(path)])
    capsys.readouterr()
    assert code == 0
    triples = (out / "vorticity.txt").read_text().split()
    assert len(triples) == 4  # exactly one (component, x, y, winding) line
    assert triples[-1] == "1"
    # dumped fields round-trip through the repo-wide format
    from torusgl.lattice import read_field

    geom, degree, vals = read_field(out / "u.field")
    assert degree == 0 and vals.shape[0] == 2
    assert geom.sites == (12, 12)


def test_cmd_minimize_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, text=T2_CONFIG.replace("epsilons = 0.3 0.25", "epsilons = 0"))
    assert main(["minimize", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "epsilon > 0" in err
    budget = write_config(tmp_path, max_iter=1)
    assert main(["minimize", "--config", str(budget)]) == 2
    err = capsys.readouterr().err
    assert err == "minimize: not converged (budget) after 0 iterations\n"
    # usage errors exit 1 as well, so that 2 always means "not converged"
    assert main(["minimize"]) == 1
    assert capsys.readouterr().err == "config error: minimize requires --config\n"
    assert main(["selftest"]) == 1
    assert main(["minimize", "--seed", "x"]) == 1
    assert "usage: torusgl" in capsys.readouterr().err
    assert main(["--help"]) == 0


def test_nonfinite_lengths_are_config_errors(tmp_path, capsys):
    """NaN lengths end the run with exit 1 and one config error line."""
    path = write_config(tmp_path, text=T2_CONFIG.replace("lengths = 1 1", "lengths = nan nan"))
    assert main(["ansatz", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cmd_sweep_names_each_unconverged_entry(tmp_path, capsys):
    """Exit code 2 from a sweep comes with one stderr line per unconverged
    epsilon; the table on stdout keeps one row per entry."""
    path = write_config(tmp_path, max_iter=3)
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "sweep epsilon 0.29999999999999999",
        "sweep epsilon 0.25",
    ]
    assert all("not converged (budget)" in line for line in lines)
    assert len(captured.out.strip().splitlines()) == 3


# T^4 on 6^4 with the trivial bundle and no ansatz
T4_CONFIG = (
    T2_CONFIG.replace("dim = 2", "dim = 4")
    .replace("sites = 12 12", "sites = 6 6 6 6")
    .replace("lengths = 1 1", "lengths = 1 1 1 1")
    .replace("[bundle]\nchern_01 = 1\n\n", "")
    .split("[ansatz]")[0]
)


def test_cmd_minimize_t4(tmp_path, capsys):
    """minimize runs on T^4, from the seeded random start on the trivial
    bundle and from the default ansatz (one flat 2-torus) in a Chern class;
    its chern_pairing_ij lines equal the config."""
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for key in (None, "chern_01", "chern_23"):
        out = tmp_path / str(key)
        text = T4_CONFIG if key is None else T4_CONFIG.replace("[run]", f"[bundle]\n{key} = 1\n\n[run]")
        path = write_config(tmp_path, text=text, out=out)
        assert main(["minimize", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "converged = true" in lines
        assert [line for line in lines if line.startswith("chern_pairing_")] == [
            f"chern_pairing_{i}{j} = {int(key == f'chern_{i}{j}')}" for i, j in pairs
        ]


# T^3 in the class c_02 = c_12 = 1, whose default start is a product of two
# line ansatze
T3_TWO_ENTRY_CONFIG = (
    T3_AXIS_CONFIG.replace("chern_01 = 1", "chern_02 = 1\nchern_12 = 1").split("[ansatz]")[0]
)


def test_cmd_minimize_two_entry_class(tmp_path, capsys):
    path = write_config(tmp_path, text=T3_TWO_ENTRY_CONFIG, out=tmp_path / "diag")
    assert main(["minimize", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "converged = true" in lines
    assert [line for line in lines if line.startswith("chern_pairing_")] == [
        "chern_pairing_01 = 0", "chern_pairing_02 = 1", "chern_pairing_12 = 1"
    ]


@pytest.mark.parametrize(
    "old, new",
    [("windings = 1", "windings = 2"), ("[ansatz]", "[ansatz]\naxis = 2")],
    ids=["chern-mismatch", "axis-on-t2"],
)
def test_ansatz_winding_mismatch_is_config_error(tmp_path, capsys, old, new):
    path = write_config(tmp_path, text=T2_CONFIG.replace(old, new))
    assert main(["ansatz", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cmd_sweep_table(tmp_path, capsys):
    out = tmp_path / "swp"
    path = write_config(tmp_path, out=out)
    code = main(["sweep", "--config", str(path)])
    stdout = capsys.readouterr().out
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    table = (out / "sweep.csv").read_text()
    assert table == stdout


def test_cmd_sweep_determinism(tmp_path, capsys):
    out = tmp_path / "det"
    path = write_config(tmp_path, out=out)
    assert main(["sweep", "--config", str(path)]) == 0
    capsys.readouterr()
    first = (out / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(path)]) == 0
    capsys.readouterr()
    assert (out / "sweep.csv").read_bytes() == first


def test_cmd_ansatz(tmp_path, capsys):
    out = tmp_path / "anz"
    path = write_config(tmp_path, out=out)
    code = main(["ansatz", "--config", str(path)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "total_winding = 1" in stdout
    assert (out / "ansatz.txt").exists()
    assert (out / "u.field").exists()


def test_cli_entrypoint_subprocess(tmp_path):
    # the console entry point works end to end in a fresh interpreter
    path = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "torusgl.cli", "ansatz", "--config", str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "total_winding = 1" in proc.stdout


def test_seed_and_out_overrides(tmp_path, capsys):
    out = tmp_path / "base"
    override = tmp_path / "override"
    path = write_config(tmp_path, out=out)
    assert main(["ansatz", "--config", str(path), "--out", str(override), "--seed", "9"]) == 0
    capsys.readouterr()
    assert override.exists()
    assert not out.exists()


def test_full_precision_output(tmp_path, capsys):
    out = tmp_path / "prec"
    path = write_config(tmp_path, out=out)
    main(["sweep", "--config", str(path)])
    capsys.readouterr()
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    eps_cell = rows[0].split(",")[0]
    assert float(eps_cell) == 0.3
    assert len(eps_cell) >= 17  # 17 significant digits requested


def test_minimize_iteration_stream(tmp_path, capsys):
    out = tmp_path / "stream"
    text = T2_CONFIG.format(out=out).replace(
        "max_iter = 40000", "max_iter = 40000\nlog_every = 2"
    )
    path = tmp_path / "s.cfg"
    path.write_text(text)
    assert main(["minimize", "--config", str(path)]) == 0
    stdout = capsys.readouterr().out
    stream = [l for l in stdout.splitlines() if l.startswith("iteration ")]
    assert stream, "no per-iteration records emitted"
    assert "kinetic" in stream[0] and "grad_norm" in stream[0]


def _run_with_threads(command, path, threads):
    """Run a CLI command in a child process with `threads` kernel threads,
    set in the child's environment, where BLAS reads them at load time."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    proc = subprocess.run(
        [sys.executable, "-m", "torusgl.cli", command, "--config", str(path)],
        capture_output=True,
        timeout=590,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.slow
def test_sweep_independent_of_thread_count(tmp_path):
    path = write_config(tmp_path, out=tmp_path / "thr")
    tables = [_run_with_threads("sweep", path, threads).stdout for threads in ("1", "2")]
    assert tables[0] == tables[1]


@pytest.mark.slow
def test_minimize_independent_of_thread_count(tmp_path):
    """A T^3 12^3 line at eps 0.15, its core off the lattice's symmetry
    axes at (0.52, 0.51), reaches the slide of the Newton loop and takes 323
    evaluations, enough for threaded BLAS reductions to change the last
    bits if they could.  Its h = 1/12 exceeds eps/2, which binds sweeps
    only: minimize takes it under the default mesh_rule."""
    text = (
        T3_AXIS_CONFIG.replace("sites = 8 8 10", "sites = 12 12 12")
        .replace("lengths = 1 1 1.25", "lengths = 1 1 1")
        .replace("epsilons = 0.3 0.25", "epsilons = 0.15")
        .replace("max_iter = 40000", "max_iter = 200000")
        .replace("positions = 0.5 0.5", "positions = 0.52 0.51")
    )
    summaries = []
    for threads in ("1", "2"):
        out = tmp_path / f"thr{threads}"
        _run_with_threads("minimize", write_config(tmp_path, text=text, out=out), threads)
        summaries.append((out / "summary.txt").read_bytes())
    record = dict(line.split(" = ") for line in summaries[0].decode().splitlines())
    assert int(record["iterations"]) >= 200, "the solve no longer runs long enough to test this"
    assert summaries[0] == summaries[1]


def test_ansatz_forms_links_and_curvature_once(tmp_path, capsys, monkeypatch):
    """torusgl ansatz forms its state's links once and F_A once, counted at
    every torusgl binding of link_transport and curvature, and its record
    still prints g_energy's parts and e_energy's total byte for byte."""
    import torusgl as tg
    from torusgl import bundle, cli, fields, gauge, solve, vortex
    from torusgl.solve import default_initial_pair

    calls = {}
    for name in ("link_transport", "curvature"):
        original = getattr(bundle, name)

        def counted(*args, _f=original, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)

        for module in (bundle, cli, fields, gauge, solve, vortex):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    out = tmp_path / "anz"
    assert main(["ansatz", "--config", str(write_config(tmp_path, out=out))]) == 0
    capsys.readouterr()
    assert calls == {"link_transport": 1, "curvature": 1}

    monkeypatch.undo()
    cfg = parse_config(write_config(tmp_path, out=out).read_text())
    b = cli._bundle(cfg)
    eps = cfg.epsilons[0]
    u, A = default_initial_pair(b, eps, cfg.seed, cfg.ansatz)
    energy = tg.g_energy(u, A, b, eps)
    record = dict(line.split(" = ") for line in (out / "ansatz.txt").read_text().splitlines())
    for name in ("kinetic", "potential", "curvature", "total", "epsilon"):
        assert record[name] == cli._fmt(getattr(energy, name))
    assert record["e_energy_total"] == cli._fmt(tg.e_energy(u, b, eps).total)


_AFFINITY_SCRIPT = """
import os, sys
import numpy as np
from torusgl import bundle, cli
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
calls = {"cis": 0, "fft": 0}
def counted(kind, f):
    def run(*args, **kwargs):
        calls[kind] += 1
        return f(*args, **kwargs)
    return run
bundle._cis_into = counted("cis", bundle._cis_into)
np.fft.rfftn = counted("fft", np.fft.rfftn)
assert cli.main(["ansatz", "--config", sys.argv[2]]) == 0
print(calls["cis"], calls["fft"])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 CPUs and sched_setaffinity")
def test_ansatz_bytes_independent_of_cpu_count(tmp_path):
    """A child pinned to one CPU runs every kernel inline and one with 2 CPUs
    splits the phase factors of the 192^2 and 40^3 links (above
    2 * lattice._SPLIT_ENTRIES entries) and the rows of the 40^3 Poisson
    solve (the T^2 solve has one row), so it makes more cos/sin and rfftn
    calls; both write the same bytes."""
    for name, config, fft_split in (
        ("t2", T2_CONFIG.replace("sites = 12 12", "sites = 192 192"), False),
        ("t3", T3_AXIS_CONFIG.replace("sites = 8 8 10", "sites = 40 40 40"), True),
    ):
        text = config.replace("epsilons = 0.3 0.25", "epsilons = 0.1")
        files, calls = {}, {}
        for cpus in ("1", "2"):
            out = tmp_path / f"{name}-cpus{cpus}"
            path = write_config(tmp_path, text, out=out)
            proc = subprocess.run([sys.executable, "-c", _AFFINITY_SCRIPT, cpus, str(path)],
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            calls[cpus] = [int(c) for c in proc.stdout.split()[-2:]]
            files[cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        (cis1, fft1), (cis2, fft2) = calls["1"], calls["2"]
        assert cis2 > cis1 and (fft2 > fft1 if fft_split else fft2 == fft1), (name, calls)
        assert sorted(files["1"]) == ["A.field", "F.field", "ansatz.txt", "mu.field", "u.field",
                                      "vorticity.txt"]
        assert files["1"] == files["2"], name
