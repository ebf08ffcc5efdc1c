"""Hermitian line bundle data on the periodic lattice: Chern integers, the
constant-curvature background connection, and the covariant difference.

The bundle is carried entirely by per-edge background phases theta0 (the
holonomy picked up when traversing an edge forward), so sections stay plain
periodic complex vertex fields.  theta0 realizes a uniform flux
2 pi c_ij / (N_i N_j) per (i,j)-plaquette via linear (Landau-type) phases on
the j-links plus a wrap-around seam correction on the i-links, making both
holonomy/flux consistency and the Chern pairing hold exactly.

The gauge field couples compactly, through the link variable
U_e = exp(-i(theta0_e + h_i A_e)) (Wilson's lattice link), so lattice gauge
transformations leave |D_A u| invariant exactly.  `link_transport` is the one
place the link is formed, as `_cis` of its phase `link_phase`; the covariant
difference, energies, gradients, Hessian products, supercurrent and
vorticity are all built on it, and sweeps refine sections along its phases.
It keeps the phases and read-only links of the last state linked twice in a
row (one A.values array, held by weak reference), reuses them for a call whose
phases have the same bits and drops them on any other call before it links.

`_cis` forms every phase factor exp(+-i phase) of the package from real
cosines and sines, bit for bit numpy's complex exp without its complex
temporaries.  From 2 * `lattice._SPLIT_ENTRIES` entries on (an axis of
256^2 or 40^3, not of 160^2 or 28^3) it splits the work into contiguous
slabs, one per CPU of the affinity mask, over the package's one long-lived
worker set (`lattice._split`; numpy releases the GIL inside the float64 cos
and sin loops).  Each entry is computed by the same loop at the same
position within its vector block wherever the slabs begin, so the bits do
not depend on the number of CPUs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .lattice import Cochain, TorusGeometry, _split, components, constant_cochain, exterior_derivative

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
    f0: Cochain = field(repr=False)           # constant 2-cochain, F0_ij = 2 pi c_ij/(L_i L_j)

    def chern_entry(self, i: int, j: int) -> int:
        return int(self.chern[i, j])

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
    idx = np.indices(geom.sites)
    for i in range(n):
        for j in range(i + 1, n):
            c = int(chern[i, j])
            if c == 0:
                continue
            phi = 2.0 * np.pi * c / (geom.sites[i] * geom.sites[j])
            # Landau phases on j-links, graded along axis i
            theta0[j] += phi * idx[i]
            # seam correction on the i-links of the last slab along axis i
            seam = [slice(None)] * n
            seam[i] = geom.sites[i] - 1
            theta0[(i, *seam)] += -phi * geom.sites[i] * idx[j][tuple(seam)]

    f0 = constant_cochain(geom, 2, [2.0 * np.pi * chern[i, j] / (geom.lengths[i] * geom.lengths[j])
                                    for i, j in components(n, 2)])

    return BundleData(geom=geom, chern=chern, theta0=theta0, f0=f0)


def holonomy_residuals(b: BundleData) -> np.ndarray:
    """Per-plaquette residue of (sum theta0 over boundary) - h_i h_j F0_ij mod 2 pi."""
    geom = b.geom
    h = geom.spacings
    # a plaquette's oriented boundary sum of an edge field e is h_i h_j d(e/h)_ij
    circ = exterior_derivative(Cochain(geom, 1, [t / hi for t, hi in zip(b.theta0, h)])) - b.f0
    diff = geom.plaquette_areas * circ.values
    return diff - 2.0 * np.pi * np.round(diff / (2.0 * np.pi))


# (weak reference to the last linked A.values, kept (phase, link) per axis)
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
    for i in range(b.geom.dim):
        phase = link_phase(A, b, i)
        if i < len(kept) and np.array_equal(kept[i][0].view(np.uint64), phase.view(np.uint64)):
            phase, link = kept[i]
        else:
            if kept:  # a miss: drop the kept links before forming new ones
                _slot, kept = (last, ()), ()
            link = _cis(phase, -1)
            link.flags.writeable = not again
        if again:
            admitted.append((phase, link))
        del phase
        fwd = np.roll(u.values, -1, axis=i)
        fwd *= link
        yield link, fwd
    _slot = (weakref.ref(A.values), tuple(admitted) if again else kept)


# slabs of _cis begin at multiples of this many entries, a whole number of
# vector blocks of every SIMD width numpy dispatches to
_SLAB_ALIGN = 64


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
    over the worker set of `lattice._split`."""
    out = np.empty(phase.shape, dtype=np.complex128)
    flat, dest = phase.reshape(-1), out.reshape(-1)
    _split(flat.size, 1, lambda lo, hi: _cis_into(flat[lo:hi], sign, dest[lo:hi]), _SLAB_ALIGN)
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
    return _difference(u, _transported(u, A, b))


def _transported(u: Section, A: Cochain, b: BundleData):
    """The transported neighbours T_e of link_transport, axis by axis."""
    return (fwd for _, fwd in link_transport(u, A, b))


def _difference(u: Section, fwds) -> np.ndarray:
    """covariant_difference from the transported neighbours, axis by axis."""
    h = u.geom.spacings
    for i, fwd in enumerate(fwds):
        if i == 0:  # after the first link, so after a missed link slot is dropped
            out = np.empty((u.geom.dim, *u.geom.sites), dtype=np.complex128)
        np.subtract(fwd, u.values, out=out[i])
        out[i] *= 1.0 / h[i]
    return out


def _current(u: Section, fwds) -> np.ndarray:
    """The supercurrent Im(conj(u) T) / h_i per edge (see vortex.supercurrent)
    from the transported neighbours T, axis by axis."""
    h = u.geom.spacings
    out = np.empty((u.geom.dim, *u.geom.sites))
    for i, fwd in enumerate(fwds):
        np.divide(np.imag(np.conj(u.values) * fwd), h[i], out=out[i])
    return out


def curvature(A: Cochain, b: BundleData) -> Cochain:
    """Real curvature 2-cochain F_A = F0 + dA; closed and gauge invariant."""
    return Cochain(A.geom, 2, exterior_derivative(A).values + b.f0.values)


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
