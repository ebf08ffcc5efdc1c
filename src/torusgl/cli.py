"""Command line front end: reproducible minimization runs, epsilon sweeps
and ansatz emission.

Config files are plain sectioned key/value text (see `parse_config`), read
into a `RunConfig` that holds the library's own `TorusGeometry`,
`MinimizeOptions` and `AnsatzSpec`; all numeric output is printed with 17
significant digits so downstream comparisons are byte-stable.  Subcommands:
minimize, sweep, ansatz.  Flags: --config, --out, --seed.  Exit codes:
0 success/converged, 1 usage or config error (an unknown subcommand or
flag, a malformed or out-of-range value, or an ansatz that does not fit the
bundle), 2 not converged: the iteration budget was exhausted, or the Newton
loop stalled with no certified energy decrease left; stderr then names the
stop reason of each unconverged solve.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bundle import build_background, curvature, link_transport
from .fields import _energy_and_density
from .lattice import TorusGeometry, components, write_field
from .solve import (
    AnsatzSpec,
    MinimizeOptions,
    WindingMismatchError,
    check_sweep,
    default_initial_pair,
    epsilon_sweep,
    minimize,
)
from .vortex import _increments, _vorticity, chern_pairing, sparse_windings, vortex_mass

__all__ = ["RunConfig", "ConfigError", "parse_config", "main"]

# the columns of sweep.csv, in order, each with its value in a SweepRecord
SWEEP_COLUMNS = {
    "epsilon": lambda r: r.epsilon,
    "G_total": lambda r: r.result.energy.total,
    "G_over_log_eps": lambda r: r.g_over_logeps,
    "kinetic": lambda r: r.result.energy.kinetic,
    "potential": lambda r: r.result.energy.potential,
    "curvature": lambda r: r.result.energy.curvature,
    "vortex_mass": lambda r: r.vortex_mass,
    "chern_pairing": lambda r: ";".join(
        str(int(r.chern_pairing[i, j])) for i, j in components(r.geom.dim, 2)
    ),
    "london_residual": lambda r: r.result.london_residual,
    "hminus1_to_target": lambda r: r.hminus1_to_target,
    "iterations": lambda r: r.result.iterations,
}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the failed precondition."""


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class RunConfig:
    geom: TorusGeometry
    chern: tuple[tuple[int, int, int], ...]   # (i, j, c_ij) for i < j
    epsilons: tuple[float, ...]
    seed: int
    out: str = "runs/out"
    mesh_rule: str = "fixed"
    optimizer: MinimizeOptions = MinimizeOptions()
    ansatz: AnsatzSpec | None = None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split())


def _positions(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(group) for group in text.split(";") if group.strip())


# each section's keys with their value converters; [bundle] takes chern_ij ints
_SECTION_KEYS = {
    "geometry": {"dim": int, "sites": _ints, "lengths": _floats},
    "bundle": int,
    "run": {"epsilons": _floats, "seed": int, "out": str, "mesh_rule": str},
    "optimizer": {"tol": float, "max_iter": int, "log_every": int},
    "ansatz": {"axis": int, "windings": _ints, "positions": _positions},
}


def parse_config(text: str) -> RunConfig:
    """Parse the sectioned key/value format into a validated `RunConfig`.

    Sections and keys are those of `_SECTION_KEYS`; [ansatz] is optional
    but must give windings when present.  Every unknown section or key,
    every key repeated within a section (also under a repeated header),
    every malformed value (reported with its line as read), chern indices
    outside 0 <= i < j < dim, and every value `TorusGeometry`, `AnsatzSpec`,
    `MinimizeOptions` or `check_sweep` without a lattice rejects, raises
    `ConfigError`; the lattice rules of mesh_rule bind the sweep command
    only (see cmd_sweep).
    """
    sections: dict[str, dict[str, object]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a [section]")
        key, val = (p.strip() for p in line.split("=", 1))
        convert = _SECTION_KEYS[current] if current == "bundle" else _SECTION_KEYS[current].get(key)
        if convert is None:
            raise ConfigError(f"line {lineno}: unknown [{current}] key {key}")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: repeated [{current}] key {key}")
        try:
            sections[current][key] = convert(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: [{current}] {key}: {exc}") from None

    def need(section, key):
        if key not in sections.get(section, {}):
            raise ConfigError(f"missing [{section}] {key}")
        return sections[section][key]

    def get(section, key, default=None):
        return sections.get(section, {}).get(key, default)

    dim = need("geometry", "dim")
    sites = need("geometry", "sites")
    lengths = need("geometry", "lengths")
    chern = []
    for key, c in sorted(sections.get("bundle", {}).items()):
        if not (key.startswith("chern_") and len(key) == 8 and key[6:].isdigit()):
            raise ConfigError(f"unknown [bundle] key {key} (expected chern_ij)")
        i, j = int(key[6]), int(key[7])
        if not 0 <= i < j < dim:
            raise ConfigError(f"chern indices need 0 <= i < j < dim (got {i},{j})")
        chern.append((i, j, c))
    epsilons = need("run", "epsilons")
    if "seed" not in sections.get("run", {}):
        raise ConfigError("seed is mandatory: missing [run] seed")
    mesh_rule = get("run", "mesh_rule", "fixed")
    windings = need("ansatz", "windings") if "ansatz" in sections else None
    positions = get("ansatz", "positions", ())
    axis = get("ansatz", "axis")
    try:
        geom = TorusGeometry(sites, lengths)
        if geom.dim != dim:
            raise ValueError(f"[geometry] sites lists {geom.dim} entries for dim = {dim}")
        check_sweep(None, epsilons, mesh_rule)
        optimizer = MinimizeOptions(**sections.get("optimizer", {}))
        ansatz = None if windings is None else AnsatzSpec(windings=windings, positions=positions, axis=axis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        geom=geom,
        chern=tuple(chern),
        epsilons=epsilons,
        seed=need("run", "seed"),
        out=get("run", "out", "runs/out"),
        mesh_rule=mesh_rule,
        optimizer=optimizer,
        ansatz=ansatz,
    )


# ----------------------------------------------------------------------------
# shared construction helpers
# ----------------------------------------------------------------------------

def _bundle(cfg: RunConfig):
    chern = np.zeros((cfg.geom.dim, cfg.geom.dim), dtype=int)
    for i, j, c in cfg.chern:
        chern[i, j] = c
        chern[j, i] = -c
    return build_background(cfg.geom, chern)


def _write_fields(outdir, b, u, A, eps):
    """Dump u, A, F_A, the energy density mu and the vorticity of one state,
    whose links and F_A are formed once; returns the vorticity and the
    g_energy breakdown."""
    geom = b.geom
    F = curvature(A, b)
    fwds = tuple(fwd for _, fwd in link_transport(u, A, b))
    # the increments are dropped once read, so the peak memory stays that of
    # one observable at a time
    v = _vorticity(u, _increments(u, fwds), F)
    energy, mu = _energy_and_density(u, fwds, F, eps)
    del fwds
    os.makedirs(outdir, exist_ok=True)
    write_field(os.path.join(outdir, "u.field"), geom, 0, np.stack([u.values.real, u.values.imag]))
    write_field(os.path.join(outdir, "A.field"), geom, 1, A.values)
    write_field(os.path.join(outdir, "F.field"), geom, 2, F.values)
    write_field(os.path.join(outdir, "mu.field"), geom, 0, mu.values)
    with open(os.path.join(outdir, "vorticity.txt"), "w") as fh:
        for row in sparse_windings(v):
            fh.write(" ".join(str(t) for t in row) + "\n")
    return v, energy


def _write_record(path, lines) -> None:
    """Write `lines` to `path` and echo them to stdout, byte for byte."""
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_minimize(cfg: RunConfig) -> int:
    b = _bundle(cfg)
    eps = cfg.epsilons[0]
    u0, A0 = default_initial_pair(b, eps, cfg.seed, cfg.ansatz)
    res = minimize(u0, A0, b, eps, cfg.optimizer)

    v, _ = _write_fields(cfg.out, b, res.section, res.gauge_field, eps)
    rec = {
        "converged": res.converged,
        "iterations": res.iterations,
        "grad_norm": res.grad_norm,
        "london_residual": res.london_residual,
        "vortex_mass": vortex_mass(v),
        "max_modulus": float(np.abs(res.section.values).max()),
        **asdict(res.energy),
    }
    lines = [f"{k} = {_fmt(val)}" for k, val in rec.items()]
    pairing = chern_pairing(v)
    for i, j in components(cfg.geom.dim, 2):
        lines.append(f"chern_pairing_{i}{j} = {int(pairing[i, j])}")
    _write_record(os.path.join(cfg.out, "summary.txt"), lines)
    return _exit_code([("minimize", res)])


def cmd_sweep(cfg: RunConfig) -> int:
    if len(cfg.epsilons) < 2:
        raise ConfigError("sweep needs >= 2 epsilon values")
    try:
        check_sweep(cfg.geom, cfg.epsilons, cfg.mesh_rule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    records = epsilon_sweep(
        cfg.ansatz, _bundle(cfg), cfg.geom, list(cfg.epsilons), cfg.optimizer,
        mesh_rule=cfg.mesh_rule, seed=cfg.seed,
    )

    rows = [",".join(SWEEP_COLUMNS)]
    rows += [",".join(_fmt(value(r)) for value in SWEEP_COLUMNS.values()) for r in records]
    os.makedirs(cfg.out, exist_ok=True)
    _write_record(os.path.join(cfg.out, "sweep.csv"), rows)
    return _exit_code([(f"sweep epsilon {_fmt(r.epsilon)}", r.result) for r in records])


def _exit_code(solves) -> int:
    """0 when every (label, MinimizerResult) converged; else 2, with one
    stderr line per unconverged solve naming its stop reason."""
    code = 0
    for label, res in solves:
        if not res.converged:
            print(
                f"{label}: not converged ({res.stop_reason}) after "
                f"{res.iterations} iterations",
                file=sys.stderr,
            )
            code = 2
    return code


def cmd_ansatz(cfg: RunConfig) -> int:
    b = _bundle(cfg)
    eps = cfg.epsilons[0]
    u, A = default_initial_pair(b, eps, cfg.seed, cfg.ansatz)

    v, energy = _write_fields(cfg.out, b, u, A, eps)
    lines = [f"{k} = {_fmt(val)}" for k, val in asdict(energy).items()]
    # A is the zero cochain (see default_initial_pair), so e_energy's total is
    # kinetic + potential of the g_energy breakdown
    lines.append(f"e_energy_total = {_fmt(energy.kinetic + energy.potential)}")
    lines.append(f"total_winding = {int(v.windings.sum())}")
    _write_record(os.path.join(cfg.out, "ansatz.txt"), lines)
    return 0


# subcommand -> handler; every subcommand reads its run from --config
_COMMANDS = {
    "minimize": cmd_minimize,
    "sweep": cmd_sweep,
    "ansatz": cmd_ansatz,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusgl",
        description="Gauged Ginzburg-Landau lattice laboratory on flat tori",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "not converged" here
        return 1 if exc.code else 0
    try:
        if not args.config:
            raise ConfigError(f"{args.command} requires --config")
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        # neither override can make a valid config invalid
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, FileNotFoundError, WindingMismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
