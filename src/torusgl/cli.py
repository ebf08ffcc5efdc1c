"""Command line front end: reproducible minimization runs, epsilon sweeps,
the built-in invariant selftest, Hodge solver reports, and ansatz emission.

Config files are plain sectioned key/value text (see `parse_config`); all
numeric output is printed with 17 significant digits so downstream
comparisons are byte-stable.  Subcommands: minimize, sweep, selftest,
hodge-test, ansatz.  Flags: --config, --out, --seed.  Exit codes:
0 success/converged, 1 config error, 2 not converged: the iteration budget
was exhausted, or the Newton loop stalled with no certified energy decrease
left.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bundle import build_background, curvature
from .fields import e_energy, energy_density, g_energy
from .hodge import green, harmonic_projection, hodge_decompose, solve_london, solve_poisson
from .lattice import TorusGeometry, laplacian, norm, random_cochain, write_field
from .selftest import run_selftest
from .solve import AnsatzSpec, MinimizeOptions, default_initial_pair, epsilon_sweep, minimize
from .vortex import chern_pairing, sparse_windings, vortex_mass, vorticity

__all__ = ["RunConfig", "ConfigError", "parse_config", "serialize_config", "main"]

SWEEP_COLUMNS = (
    "epsilon",
    "G_total",
    "G_over_log_eps",
    "kinetic",
    "potential",
    "curvature",
    "vortex_mass",
    "chern_pairing",
    "london_residual",
    "hminus1_to_target",
    "iterations",
)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the failed precondition."""


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class RunConfig:
    dim: int
    sites: tuple[int, ...]
    lengths: tuple[float, ...]
    chern: tuple[tuple[int, int, int], ...]   # (i, j, c_ij) for i < j
    epsilons: tuple[float, ...]
    seed: int
    out: str = "runs/out"
    mesh_rule: str = "fixed"
    tol: float = 1e-8
    max_iter: int = 50000
    truncate_each: bool = False
    log_every: int = 0
    ansatz_axis: int | None = None
    ansatz_windings: tuple[int, ...] = ()
    ansatz_positions: tuple[tuple[float, ...], ...] = ()

    @property
    def has_ansatz(self) -> bool:
        return bool(self.ansatz_windings)


def parse_config(text: str) -> RunConfig:
    """Parse the sectioned key/value format.

    Sections: [geometry] (dim, sites, lengths), [bundle] (chern_ij entries),
    [run] (epsilons, seed, out, mesh_rule), [optimizer] (tol, max_iter,
    truncate_each), optional [ansatz] (axis, windings, positions).
    """
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a [section]")
        key, val = (p.strip() for p in line.split("=", 1))
        sections[current][key] = val

    def need(section, key):
        try:
            return sections[section][key]
        except KeyError:
            raise ConfigError(f"missing [{section}] {key}") from None

    def get(section, key, default):
        return sections.get(section, {}).get(key, default)

    dim = int(need("geometry", "dim"))
    sites = tuple(int(t) for t in need("geometry", "sites").split())
    lengths = tuple(float(t) for t in need("geometry", "lengths").split())

    chern = []
    for key, val in sorted(sections.get("bundle", {}).items()):
        if not key.startswith("chern_") or len(key) != 8:
            raise ConfigError(f"unknown [bundle] key {key} (expected chern_ij)")
        i, j = int(key[6]), int(key[7])
        chern.append((i, j, int(val)))

    epsilons = tuple(float(t) for t in need("run", "epsilons").split())
    if "seed" not in sections.get("run", {}):
        raise ConfigError("seed is mandatory: missing [run] seed")
    seed = int(need("run", "seed"))
    out = get("run", "out", "runs/out")
    mesh_rule = get("run", "mesh_rule", "fixed")

    tol = float(get("optimizer", "tol", "1e-8"))
    max_iter = int(get("optimizer", "max_iter", "50000"))
    truncate_each = get("optimizer", "truncate_each", "false").lower() == "true"
    log_every = int(get("optimizer", "log_every", "0"))

    ansatz_axis = None
    ansatz_windings: tuple[int, ...] = ()
    ansatz_positions: tuple[tuple[float, ...], ...] = ()
    if "ansatz" in sections:
        a = sections["ansatz"]
        if "axis" in a:
            ansatz_axis = int(a["axis"])
        ansatz_windings = tuple(int(t) for t in a.get("windings", "").split())
        if "positions" in a:
            ansatz_positions = tuple(
                tuple(float(t) for t in group.split())
                for group in a["positions"].split(";")
                if group.strip()
            )

    cfg = RunConfig(
        dim=dim,
        sites=sites,
        lengths=lengths,
        chern=tuple(chern),
        epsilons=epsilons,
        seed=seed,
        out=out,
        mesh_rule=mesh_rule,
        tol=tol,
        max_iter=max_iter,
        truncate_each=truncate_each,
        log_every=log_every,
        ansatz_axis=ansatz_axis,
        ansatz_windings=ansatz_windings,
        ansatz_positions=ansatz_positions,
    )
    validate_config(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = [
        "[geometry]",
        f"dim = {cfg.dim}",
        "sites = " + " ".join(str(s) for s in cfg.sites),
        "lengths = " + " ".join(_fmt(L) for L in cfg.lengths),
        "",
        "[bundle]",
    ]
    for i, j, c in cfg.chern:
        lines.append(f"chern_{i}{j} = {c}")
    lines += [
        "",
        "[run]",
        "epsilons = " + " ".join(_fmt(e) for e in cfg.epsilons),
        f"seed = {cfg.seed}",
        f"out = {cfg.out}",
        f"mesh_rule = {cfg.mesh_rule}",
        "",
        "[optimizer]",
        f"tol = {_fmt(cfg.tol)}",
        f"max_iter = {cfg.max_iter}",
        f"truncate_each = {_fmt(cfg.truncate_each)}",
        f"log_every = {cfg.log_every}",
    ]
    if cfg.has_ansatz or cfg.ansatz_axis is not None:
        lines += ["", "[ansatz]"]
        if cfg.ansatz_axis is not None:
            lines.append(f"axis = {cfg.ansatz_axis}")
        if cfg.ansatz_windings:
            lines.append("windings = " + " ".join(str(w) for w in cfg.ansatz_windings))
        if cfg.ansatz_positions:
            lines.append(
                "positions = "
                + " ; ".join(" ".join(_fmt(x) for x in p) for p in cfg.ansatz_positions)
            )
    return "\n".join(lines) + "\n"


def validate_config(cfg: RunConfig) -> None:
    if cfg.dim not in (2, 3):
        raise ConfigError(f"dim in {{2, 3}} violated (dim = {cfg.dim})")
    if len(cfg.sites) != cfg.dim or len(cfg.lengths) != cfg.dim:
        raise ConfigError("sites/lengths must list one entry per axis")
    if any(s < 4 for s in cfg.sites):
        raise ConfigError(f"N_i >= 4 violated (sites = {cfg.sites})")
    if any(L <= 0 for L in cfg.lengths):
        raise ConfigError(f"L_i > 0 violated (lengths = {cfg.lengths})")
    for i, j, _ in cfg.chern:
        if not 0 <= i < j < cfg.dim:
            raise ConfigError(f"chern indices need 0 <= i < j < dim (got {i},{j})")
    if not cfg.epsilons:
        raise ConfigError("at least one epsilon required")
    for e in cfg.epsilons:
        if not e > 0.0:
            raise ConfigError(f"epsilon > 0 violated (epsilon = {_fmt(e)})")
        if not e < 1.0:
            raise ConfigError(f"epsilon < 1 violated (epsilon = {_fmt(e)})")
    if len(cfg.epsilons) > 1 and any(
        b >= a for a, b in zip(cfg.epsilons, cfg.epsilons[1:])
    ):
        raise ConfigError("epsilon list must be strictly decreasing")
    if cfg.mesh_rule not in ("fixed", "quarter"):
        raise ConfigError(f"mesh_rule must be fixed or quarter (got {cfg.mesh_rule})")
    if not cfg.tol > 0:
        raise ConfigError("tol > 0 violated")
    if cfg.max_iter < 1:
        raise ConfigError("max_iter >= 1 violated")
    if cfg.ansatz_windings and len(cfg.ansatz_windings) != len(cfg.ansatz_positions):
        raise ConfigError("ansatz needs one position group per winding")


# ----------------------------------------------------------------------------
# shared construction helpers
# ----------------------------------------------------------------------------

def _build(cfg: RunConfig):
    geom = TorusGeometry(cfg.sites, cfg.lengths)
    chern = np.zeros((cfg.dim, cfg.dim), dtype=int)
    for i, j, c in cfg.chern:
        chern[i, j] = c
        chern[j, i] = -c
    return geom, build_background(geom, chern)


def _ansatz_spec(cfg: RunConfig):
    if not cfg.has_ansatz:
        return None
    return AnsatzSpec(
        windings=cfg.ansatz_windings,
        positions=cfg.ansatz_positions,
        axis=cfg.ansatz_axis,
    )


def _opts(cfg: RunConfig):
    return MinimizeOptions(
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        truncate_each=cfg.truncate_each,
        log_every=cfg.log_every,
    )


def _write_fields(outdir, geom, b, u, A, eps):
    write_field(os.path.join(outdir, "u.field"), geom, 0, np.stack([u.values.real, u.values.imag]))
    write_field(os.path.join(outdir, "A.field"), geom, 1, A.values)
    write_field(os.path.join(outdir, "F.field"), geom, 2, curvature(A, b).values)
    if 0.0 < eps < 1.0:
        mu = energy_density(u, A, b, eps)
        write_field(os.path.join(outdir, "mu.field"), geom, 0, mu.values)
    v = vorticity(u, A, b)
    with open(os.path.join(outdir, "vorticity.txt"), "w") as fh:
        for row in sparse_windings(v):
            fh.write(" ".join(str(t) for t in row) + "\n")
    return v


def _summary_lines(cfg, res, v, geom):
    pairing = chern_pairing(v)
    rec = {
        "converged": res.converged,
        "iterations": res.iterations,
        "grad_norm": res.grad_norm,
        "london_residual": res.london_residual,
        "vortex_mass": vortex_mass(v, geom),
        **res.energy.to_record(),
    }
    lines = [f"{k} = {_fmt(val)}" for k, val in rec.items()]
    for i in range(cfg.dim):
        for j in range(i + 1, cfg.dim):
            lines.append(f"chern_pairing_{i}{j} = {int(pairing[i, j])}")
    return lines


def _pairing_cell(pairing, dim) -> str:
    vals = [str(int(pairing[i, j])) for i in range(dim) for j in range(i + 1, dim)]
    return ";".join(vals)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_minimize(cfg: RunConfig) -> int:
    geom, b = _build(cfg)
    eps = cfg.epsilons[0]
    spec = _ansatz_spec(cfg)
    u0, A0 = default_initial_pair(b, eps, cfg.seed, spec)
    res = minimize(u0, A0, b, eps, _opts(cfg))

    os.makedirs(cfg.out, exist_ok=True)
    v = _write_fields(cfg.out, geom, b, res.section, res.gauge_field, eps)
    lines = _summary_lines(cfg, res, v, geom)
    with open(os.path.join(cfg.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0 if res.converged else 2


def cmd_sweep(cfg: RunConfig) -> int:
    if len(cfg.epsilons) < 2:
        raise ConfigError("sweep needs >= 2 epsilon values")
    geom, b = _build(cfg)
    records = epsilon_sweep(
        _ansatz_spec(cfg), b, geom, list(cfg.epsilons), _opts(cfg),
        mesh_rule=cfg.mesh_rule, seed=cfg.seed,
    )

    rows = [",".join(SWEEP_COLUMNS)]
    for r in records:
        rows.append(
            ",".join(
                [
                    _fmt(r.epsilon),
                    _fmt(r.result.energy.total),
                    _fmt(r.g_over_logeps),
                    _fmt(r.result.energy.kinetic),
                    _fmt(r.result.energy.potential),
                    _fmt(r.result.energy.curvature),
                    _fmt(r.vortex_mass),
                    _pairing_cell(r.chern_pairing, cfg.dim),
                    _fmt(r.result.london_residual),
                    _fmt(r.hminus1_to_target),
                    str(r.result.iterations),
                ]
            )
        )
    table = "\n".join(rows) + "\n"
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "sweep.csv"), "w") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return 0 if all(r.result.converged for r in records) else 2


def cmd_selftest() -> int:
    results = run_selftest(verbose=True)
    return 0 if all(ok for _, _, ok, _ in results) else 1


def cmd_hodge_test(cfg: RunConfig | None) -> int:
    geoms = (
        [TorusGeometry(cfg.sites, cfg.lengths)]
        if cfg is not None
        else [TorusGeometry((12, 12), (1.0, 1.0)), TorusGeometry((6, 6, 6), (1.0, 1.0, 1.0))]
    )
    rng = np.random.default_rng(0)
    worst = 0.0
    for geom in geoms:
        for k in range(geom.dim + 1):
            c = random_cochain(geom, k, rng)
            nc = norm(c)
            parts = hodge_decompose(c)
            rec = norm(parts.reconstruct() - c) / nc
            gre = norm(laplacian(green(c)) - (c - harmonic_projection(c))) / nc
            lon = norm(-1.0 * laplacian(solve_london(c)) + solve_london(c) - c) / nc
            mf = c - harmonic_projection(c)
            poi = norm(-1.0 * laplacian(solve_poisson(mf)) - mf) / max(norm(mf), 1e-300)
            worst = max(worst, rec, gre, lon, poi)
            print(
                f"T{geom.dim} degree {k}: reconstruct {rec:.3e}  green {gre:.3e}  "
                f"london {lon:.3e}  poisson {poi:.3e}"
            )
    print(f"worst residual {worst:.3e} (tolerance 1e-10)")
    return 0 if worst <= 1e-10 else 1


def cmd_ansatz(cfg: RunConfig) -> int:
    geom, b = _build(cfg)
    eps = cfg.epsilons[0]
    spec = _ansatz_spec(cfg)
    u, A = default_initial_pair(b, eps, cfg.seed, spec)

    os.makedirs(cfg.out, exist_ok=True)
    v = _write_fields(cfg.out, geom, b, u, A, eps)
    eg = g_energy(u, A, b, eps)
    ee = e_energy(u, b, eps)
    lines = [f"{k} = {_fmt(val)}" for k, val in eg.to_record().items()]
    lines.append(f"e_energy_total = {_fmt(ee.total)}")
    lines.append(f"total_winding = {int(v.windings.sum())}")
    with open(os.path.join(cfg.out, "ansatz.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusgl",
        description="Gauged Ginzburg-Landau lattice laboratory on flat tori",
    )
    parser.add_argument("command", choices=["minimize", "sweep", "selftest", "hodge-test", "ansatz"])
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    args = parser.parse_args(argv)

    try:
        cfg = None
        if args.command in ("minimize", "sweep", "ansatz") or (
            args.command == "hodge-test" and args.config
        ):
            if not args.config:
                raise ConfigError(f"{args.command} requires --config")
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
            if args.out is not None:
                cfg = _replace(cfg, out=args.out)
            if args.seed is not None:
                cfg = _replace(cfg, seed=args.seed)

        if args.command == "minimize":
            return cmd_minimize(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "selftest":
            return cmd_selftest()
        if args.command == "hodge-test":
            return cmd_hodge_test(cfg)
        if args.command == "ansatz":
            return cmd_ansatz(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


def _replace(cfg: RunConfig, **kw) -> RunConfig:
    new = replace(cfg, **kw)
    validate_config(new)
    return new


if __name__ == "__main__":
    raise SystemExit(main())
