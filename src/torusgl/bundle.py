"""Hermitian line bundle data on the periodic lattice: Chern integers, the
constant-curvature background connection, and the covariant difference.

The bundle is carried entirely by per-edge background phases theta0 (the
holonomy picked up when traversing an edge forward), so sections stay plain
periodic complex vertex fields.  theta0 realizes a uniform flux
2 pi c_ij / (N_i N_j) per (i,j)-plaquette via linear (Landau-type) phases on
the j-links plus a wrap-around seam correction on the i-links, making both
holonomy/flux consistency and the Chern pairing hold exactly.  The
constant curvature F0 is stored as a read-only broadcast of one value per
component, so a bundle holds theta0 and nothing else per site.

The gauge field couples compactly, through the link variable
U_e = exp(-i(theta0_e + h_i A_e)) (Wilson's lattice link), so lattice gauge
transformations leave |D_A u| invariant exactly.  `link_transport` is the one
place the link is formed, from its phase `link_phase`; the covariant
difference, energies, gradients, Hessian products, supercurrent and
vorticity are all built on it, and sweeps refine sections along its phases.
It forms every link read-only and keeps the phases and links of the last
state linked twice in a row (one A.values array, held by weak reference),
reuses them for a call whose phases have the same bits and drops them on any
other call before it links.

`_cis` forms every phase factor exp(+-i phase) of the package from real
cosines and sines, bit for bit numpy's complex exp without its complex
temporaries.  It, the link phases, links and transported neighbours, the
covariant difference, the hopping term and F_A run by ranges of axis-0 rows
(`lattice._by_rows`, split from 2 * `lattice._SPLIT_ENTRIES` entries on, as
on 256^2, 40^3 or 64^3, not 160^2 or 28^3) over one worker set; each entry
keeps its operations, so the bits do not depend on the number of CPUs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .lattice import Cochain, TorusGeometry, _by_rows, _rolled, components, exterior_derivative

__all__ = [
    "Section",
    "BundleData",
    "constant_section",
    "build_background",
    "link_transport",
    "link_phase",
    "covariant_difference",
    "curvature",
    "flux_pairing",
    "holonomy_residuals",
]

@dataclass
class Section:
    """Complex vertex field u in the global unitary frame fixed by theta0."""

    geom: TorusGeometry
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.geom.sites:
            raise ValueError(f"section shape {vals.shape} != sites {self.geom.sites}")
        self.values = vals


def constant_section(geom: TorusGeometry, value: complex = 1.0) -> Section:
    return Section(geom, np.full(geom.sites, value, dtype=np.complex128))


@dataclass
class BundleData:
    """Chern integers, background link phases, constant reference curvature."""

    geom: TorusGeometry
    chern: np.ndarray = field(repr=False)     # antisymmetric integer matrix
    theta0: np.ndarray = field(repr=False)    # radians per oriented edge, shape (n, *sites)
    # constant 2-cochain F0_ij = 2 pi c_ij/(L_i L_j): a read-only broadcast of
    # one value per component (zero strides on the site axes)
    f0: Cochain = field(repr=False)

    @property
    def is_trivial(self) -> bool:
        return not np.any(self.chern)


def build_background(geom: TorusGeometry, chern) -> BundleData:
    """Background bundle with uniform flux 2 pi c_ij/(N_i N_j) per plaquette.

    `chern` is an antisymmetric integer matrix (only i<j entries are read).
    """
    n = geom.dim
    chern = np.asarray(chern)
    if chern.shape != (n, n):
        raise ValueError(f"chern matrix must be {n}x{n}, got {chern.shape}")
    if not np.all(chern == np.round(chern)):
        raise ValueError("chern matrix entries must be integers")
    chern = chern.astype(np.int64)
    if np.any(chern + chern.T != 0):
        raise ValueError("chern matrix must be antisymmetric")

    theta0 = np.zeros((n, *geom.sites))
    # the site index along each axis, shaped to broadcast over the sites
    idx = [np.arange(N).reshape([N if k == axis else 1 for k in range(n)]) for axis, N in enumerate(geom.sites)]
    for i in range(n):
        for j in range(i + 1, n):
            c = int(chern[i, j])
            if c == 0:
                continue
            phi = 2.0 * np.pi * c / (geom.sites[i] * geom.sites[j])
            # Landau phases on j-links, graded along axis i
            theta0[j] += phi * idx[i]
            # seam correction on the i-links of the last slab along axis i (idx[j] has one there)
            seam = [slice(None)] * n
            seam[i] = -1
            theta0[(i, *seam)] += -phi * geom.sites[i] * idx[j][tuple(seam)]

    f0 = np.reshape([2.0 * np.pi * chern[i, j] / (geom.lengths[i] * geom.lengths[j]) for i, j in components(n, 2)],
                    (-1,) + (1,) * n)
    return BundleData(geom=geom, chern=chern, theta0=theta0, f0=Cochain(geom, 2, np.broadcast_to(f0, geom.shape(2))))


def holonomy_residuals(b: BundleData) -> np.ndarray:
    """Per-plaquette residue of (sum theta0 over boundary) - h_i h_j F0_ij mod 2 pi."""
    geom = b.geom
    h = geom.spacings
    # a plaquette's oriented boundary sum of an edge field e is h_i h_j d(e/h)_ij
    circ = exterior_derivative(Cochain(geom, 1, [t / hi for t, hi in zip(b.theta0, h)])) - b.f0
    diff = geom.plaquette_areas * circ.values
    return diff - 2.0 * np.pi * np.round(diff / (2.0 * np.pi))


# (weak reference to the last linked A.values, kept (phase, link) per axis;
# without this slot observe-large wall_s rose 0.46 -> 0.62 s on 2 vCPUs)
_slot = (None, ())


def link_transport(u: Section, A: Cochain, b: BundleData):
    """Yield, axis by axis, the link variable and the transported neighbour

        U_e = exp(-i(theta0_e + h_i A_e)),    T_e = u(x + e_i) U_e,

    each of shape `sites`, for the i-edges e = (x, x + e_i).  T_e is u at the
    head of the edge carried back to its tail, so conj(u) T is the
    gauge-invariant hopping term every compact-coupling quantity is built on.
    """
    if A.degree != 1 or A.geom != b.geom:
        raise ValueError("gauge field must be a degree-1 cochain on the bundle geometry")
    if u.geom != b.geom:
        raise ValueError("section/bundle geometry mismatch")
    global _slot
    last, kept = _slot
    again, admitted = last is not None and last() is A.values, []
    sites, uv = b.geom.sites, u.values
    for i in range(b.geom.dim):
        key, h = kept[i][0] if i < len(kept) else None, b.geom.spacings[i]
        phase, hits = np.empty(sites), []

        def form(lo, hi):  # link_phase by rows, each range compared with the kept phase
            np.add(b.theta0[i][lo:hi], np.multiply(h, A.values[i][lo:hi], out=phase[lo:hi]), out=phase[lo:hi])
            hits.append(key is not None and np.array_equal(key[lo:hi].view(np.uint64),
                                                           phase[lo:hi].view(np.uint64)))

        _by_rows(sites, form)
        fresh = not all(hits)
        if not fresh:
            phase, link = kept[i]
        else:
            if kept:  # a miss: drop the kept links before forming new ones
                _slot, kept = (last, ()), ()
            link = np.empty(sites, dtype=np.complex128)
        fwd = np.empty(sites, dtype=np.complex128)

        def transport(lo, hi):
            if fresh:
                _cis_into(phase[lo:hi], -1, link[lo:hi])
            np.multiply(_rolled(uv, lo, hi, -1, i, fwd[lo:hi]), link[lo:hi], out=fwd[lo:hi])

        _by_rows(sites, transport)
        link.flags.writeable = False  # kept or not, no code writes into a link
        if again:
            admitted.append((phase, link))
        del phase
        yield link, fwd
    _slot = (weakref.ref(A.values), tuple(admitted) if again else kept)


def _cis_into(phase: np.ndarray, sign: int, out: np.ndarray) -> None:
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    if sign < 0:
        np.negative(out.imag, out=out.imag)
    else:
        out.imag += 0.0  # numpy's exp(1j * -0.0) has imaginary part +0.0


def _cis(phase: np.ndarray, sign: int) -> np.ndarray:
    """cos(phase) + i sign sin(phase), sign = +1 or -1: bit for bit
    np.exp(sign * 1j * phase) for finite phases, split into contiguous slabs
    by `lattice._by_rows`."""
    out = np.empty(phase.shape, dtype=np.complex128)
    flat, dest = phase.reshape(-1), out.reshape(-1)
    _by_rows(flat.shape, lambda lo, hi: _cis_into(flat[lo:hi], sign, dest[lo:hi]))
    return out


def link_phase(A: Cochain, b: BundleData, i: int) -> np.ndarray:
    """theta0_e + h_i A_e on the i-edges, the phase of the link U_e =
    exp(-i(theta0_e + h_i A_e)): the transport from the tail of an edge to
    its head multiplies by exp(+i phase)."""
    return b.theta0[i] + b.geom.spacings[i] * A.values[i]


def covariant_difference(u: Section, A: Cochain, b: BundleData) -> np.ndarray:
    """Compact-coupling covariant difference, one complex value per edge:

        (D_A u)_e = (u(x + e_i) exp(-i(theta0_e + h_i A_e)) - u(x)) / h_i
    """
    h = u.geom.spacings
    for i, (_, fwd) in enumerate(link_transport(u, A, b)):
        if i == 0:  # after the first link, so after a missed link slot is dropped
            out = np.empty((u.geom.dim, *u.geom.sites), dtype=np.complex128)
        _by_rows(u.geom.sites, lambda lo, hi: np.multiply(
            np.subtract(fwd[lo:hi], u.values[lo:hi], out=out[i, lo:hi]), 1.0 / h[i], out=out[i, lo:hi]))
    return out


def _hopping(u: Section, fwds, part) -> np.ndarray:
    """part(conj(u) T) / h_i per edge from the transported neighbours T, axis
    by axis: np.imag gives the supercurrent (see vortex.supercurrent), np.angle
    the wrapped phase increment whose d builds the vorticity."""
    h = u.geom.spacings
    out = np.empty((u.geom.dim, *u.geom.sites))
    for i, fwd in enumerate(fwds):
        _by_rows(u.geom.sites, lambda lo, hi: np.divide(
            part(np.conj(u.values[lo:hi]) * fwd[lo:hi]), h[i], out=out[i, lo:hi]))
    return out


def curvature(A: Cochain, b: BundleData) -> Cochain:
    """Real curvature 2-cochain F_A = F0 + dA; closed and gauge invariant."""
    F = exterior_derivative(A).values
    _by_rows(A.geom.sites, lambda lo, hi: np.add(F[:, lo:hi], b.f0.values[:, lo:hi], out=F[:, lo:hi]))
    return Cochain(A.geom, 2, F)


def flux_pairing(F: Cochain) -> np.ndarray:
    """Chern pairing of a 2-cochain: (1/2 pi) sum over an (i,j)-slice of
    h_i h_j F_ij, averaged over the transverse positions (all slices agree
    exactly for curvature cochains).  Returns an antisymmetric float matrix.
    """
    geom = F.geom
    n = geom.dim
    out = np.zeros((n, n))
    for pos, (i, j) in enumerate(components(n, 2)):
        w = geom.spacings[i] * geom.spacings[j] / (2.0 * np.pi)
        slab = F.values[pos].sum(axis=(i, j)) * w
        val = float(np.mean(slab))
        out[i, j] = val
        out[j, i] = -val
    return out
