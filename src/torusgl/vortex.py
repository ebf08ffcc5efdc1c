"""Gauge-invariant supercurrent, Jacobian, integer plaquette vorticity with
its mass and Chern pairing, plus an H^-1 distance between 2-cochains.

The supercurrent is discretized as the exact derivative of the compact
kinetic term with respect to the gauge field, so the discrete second
Ginzburg-Landau equation d*F = j holds at critical points and the London
identity -Delta F + F = 2J is exact there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod, sqrt

import numpy as np

from . import hodge
from .bundle import BundleData, Section, _current, curvature, link_transport
from .lattice import (
    Cochain,
    TorusGeometry,
    _by_rows,
    codifferential,
    components,
    exterior_derivative,
    inner_product,
    norm,
)

__all__ = [
    "VorticityField",
    "ZeroOnPlaquetteError",
    "supercurrent",
    "jacobian",
    "london_residual",
    "vorticity",
    "vorticity_density",
    "chern_pairing",
    "vortex_mass",
    "h_minus1_distance",
    "single_dual_loop",
    "sparse_windings",
]

# largest distance of a plaquette winding from an integer that `vorticity`
# accepts as rounding
_RESIDUE_TOL = 1e-8


class ZeroOnPlaquetteError(RuntimeError):
    """Vorticity undefined: u vanishes on a plaquette corner.

    Carries the flagged plaquettes as (component, site index) tuples; the
    caller decides whether to perturb u or treat the winding as undefined.
    """

    def __init__(self, plaquettes):
        self.plaquettes = plaquettes
        super().__init__(
            f"u vanishes on a corner of {len(plaquettes)} plaquette(s); "
            "winding undefined there"
        )


@dataclass
class VorticityField:
    """Integer winding per oriented plaquette: the discrete vortex current."""

    geom: TorusGeometry
    windings: np.ndarray = field(repr=False)  # int64, shape (C(n,2), *sites)

    def total(self) -> int:
        return int(self.windings.sum())


def supercurrent(u: Section, A: Cochain, b: BundleData) -> Cochain:
    """Pre-Jacobian 1-cochain j_e = Im(conj(u(x)) u(x + e_i) U_e) / h_i, with
    U_e = exp(-i(theta0_e + h_i A_e)) the link variable.

    Exactly gauge invariant; equals minus the gauge-field derivative of the
    kinetic energy density, so critical points satisfy d*F = j.
    """
    return Cochain(b.geom, 1, _current(u, (fwd for _, fwd in link_transport(u, A, b))))


def jacobian(u: Section, A: Cochain, b: BundleData) -> Cochain:
    """Gauge-invariant Jacobian 2-cochain: (1/2) d j(u, A) + (1/2) F_A."""
    J, F = exterior_derivative(supercurrent(u, A, b)).values, curvature(A, b).values
    _by_rows(b.geom.sites, lambda lo, hi: np.add(np.multiply(J[:, lo:hi], 0.5, out=J[:, lo:hi]),
                                                 np.multiply(F[:, lo:hi], 0.5, out=F[:, lo:hi]), out=J[:, lo:hi]))
    return Cochain(b.geom, 2, J)


def vorticity(u: Section, A: Cochain, b: BundleData) -> VorticityField:
    """Integer plaquette winding of the gauge-invariant phase plus flux.

    n_p = (1/2 pi) ( sum_{e in boundary p} wrap(arg u(head) - arg u(tail)
          - theta0_e - h A_e) + h_i h_j F_ij(p) ),

    an exact integer for nonvanishing u; slice sums over closed coordinate
    2-tori reproduce the Chern numbers exactly.  The wrapped increment is
    angle(conj(u(x)) u(x + e_i) U_e), U_e the link variable.
    """
    # the links are formed and dropped before F_A is formed
    return _vorticity(u, _increments(u, (fwd for _, fwd in link_transport(u, A, b))), curvature(A, b))


def _increments(u: Section, fwds) -> Cochain:
    """The gauge-invariant wrapped phase increment per edge, over h, from the
    transported neighbours of link_transport, axis by axis: the oriented sum
    of the increments around an (i,j)-plaquette is h_i h_j d(delta)_ij."""
    h = u.geom.spacings
    delta = np.empty(u.geom.shape(1))
    for i, fwd in enumerate(fwds):
        _by_rows(u.geom.sites, lambda lo, hi: np.divide(
            np.angle(np.conj(u.values[lo:hi]) * fwd[lo:hi]), h[i], out=delta[i, lo:hi]))
    return Cochain(u.geom, 1, delta)


def _vorticity(u: Section, delta: Cochain, F: Cochain) -> VorticityField:
    """vorticity from the increments delta (see _increments) and the
    curvature F."""
    geom = u.geom
    raw, F, areas = exterior_derivative(delta).values, F.values, geom.plaquette_areas
    zero_sites, windings, residues = np.empty(geom.sites, dtype=bool), np.empty(raw.shape, np.int64), []

    def work(lo, hi):
        np.equal(np.abs(u.values[lo:hi]), 0.0, out=zero_sites[lo:hi])
        # raw windings, then their distances from the rounded ones (in windings, exact as floats) in one buffer
        r, w = raw[:, lo:hi], windings[:, lo:hi]
        np.divide(np.multiply(np.add(r, F[:, lo:hi], out=r), areas, out=r), 2.0 * np.pi, out=r)
        np.rint(r, out=w, casting="unsafe")
        residues.append(np.abs(np.subtract(r, w, out=r), out=r).max())  # max is exact

    _by_rows(geom.sites, work)
    if zero_sites.any():
        flagged = []
        for pos, (i, j) in enumerate(components(geom.dim, 2)):
            edge_zero = zero_sites | np.roll(zero_sites, -1, axis=i)
            corner_zero = edge_zero | np.roll(edge_zero, -1, axis=j)
            for site in np.argwhere(corner_zero):
                flagged.append((pos, tuple(int(s) for s in site)))
        raise ZeroOnPlaquetteError(flagged)

    residue = max(residues)
    if residue > _RESIDUE_TOL:
        raise ValueError(
            f"vorticity integrality residue {residue:.3e} exceeds {_RESIDUE_TOL:.1e}"
        )
    return VorticityField(geom, windings)


def vorticity_density(v: VorticityField) -> Cochain:
    """2-cochain with component samples n_p / (h_i h_j); its Chern pairing
    equals the winding slice sums."""
    return Cochain(v.geom, 2, v.windings / v.geom.plaquette_areas)


def chern_pairing(v: VorticityField) -> np.ndarray:
    """Antisymmetric integer matrix of slice sums; raises if parallel slices
    of the same orientation disagree (they cannot for a closed current)."""
    geom = v.geom
    n = geom.dim
    out = np.zeros((n, n), dtype=np.int64)
    for pos, (i, j) in enumerate(components(n, 2)):
        slice_sums = v.windings[pos].sum(axis=(i, j))
        slice_sums = np.atleast_1d(slice_sums)
        if np.any(slice_sums != slice_sums.flat[0]):
            raise ValueError(f"inconsistent ({i},{j})-slice sums: {slice_sums}")
        out[i, j] = slice_sums.flat[0]
        out[j, i] = -out[i, j]
    return out


def vortex_mass(v: VorticityField) -> float:
    """Mass of the dual (n-2)-current: sum |n_p| times the product of the
    spacings transverse to p (1 for n=2)."""
    n, h = v.geom.dim, v.geom.spacings
    total = 0.0  # a loop, not sum(): sum() compensates floats from Python 3.12, so its bits vary
    for pos, (i, j) in enumerate(components(n, 2)):
        total += float(np.abs(v.windings[pos]).sum()) * prod(h[k] for k in range(n) if k not in (i, j))
    return total


def h_minus1_distance(a: Cochain, b: Cochain) -> float:
    """H^-1 proxy metric: sqrt(<a-b, (-Delta + I)^{-1}(a-b)>)."""
    diff = a - b
    val = inner_product(diff, hodge.solve_london(diff))
    return sqrt(max(val, 0.0))


def london_residual(u: Section, A: Cochain, b: BundleData) -> float:
    """Normalized defect of the London identity, ||-Delta F + F - 2J|| / (1 + ||F||).

    As dF = 0 and 2J = dj + F, the defect is d(d*F - j): zero where d*F = j.
    """
    F = curvature(A, b)
    residual, scale = codifferential(F).values, 1.0 + norm(F)
    del F  # not held through the current and d
    residual -= supercurrent(u, A, b).values
    return norm(exterior_derivative(Cochain(b.geom, 1, residual))) / scale


def sparse_windings(v: VorticityField):
    """Nonzero windings as (component, site..., winding) tuples, row-major order."""
    return [(*map(int, key), int(v.windings[tuple(key)])) for key in np.argwhere(v.windings)]


def single_dual_loop(v: VorticityField) -> tuple[bool, int]:
    """Whether the n=3 vorticity support is one closed loop of unit windings
    in the dual lattice; returns (is_single_loop, loop_length_in_edges).

    A plaquette with component (i,j) at base x is dual to the edge joining
    the cubes at x - e_k and x, k the transverse axis.
    """
    geom = v.geom
    if geom.dim != 3:
        raise ValueError("dual loop decomposition is defined for n = 3")
    edges = []  # (cube_a, cube_b) per unit of |winding|
    for pos, (i, j) in enumerate(components(3, 2)):
        (k,) = set(range(3)) - {i, j}
        for site in np.argwhere(v.windings[pos] != 0):
            w = int(v.windings[pos][tuple(site)])
            cube_b = tuple(int(s) for s in site)
            back = list(cube_b)
            back[k] = (back[k] - 1) % geom.sites[k]
            edges.extend([(tuple(back), cube_b)] * abs(w))
    if not edges:
        return False, 0
    adj: dict[tuple, list] = {}
    for a, b2 in edges:
        adj.setdefault(a, []).append(b2)
        adj.setdefault(b2, []).append(a)
    if any(len(nbs) != 2 for nbs in adj.values()):  # the degree of each cube
        return False, len(edges)
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(adj), len(edges)
