"""Discrete gauged Ginzburg-Landau energies, their analytic gradients and
Hessian-vector products, term-by-term energy changes, modulus truncation,
and the rescaled energy density.

Quadrature: the potential is vertex-collocated, the kinetic term
edge-collocated, the curvature term plaquette-collocated, all with the full
cell volume prod(h_i) per sample, matching the lattice inner product.  The
gauge field enters only through the curvature F_A and the links of
`bundle.link_transport`, whose slot keeps the links of a state linked twice
in a row: the observables of one state form them twice in all, and a solve
iterate, linked once, leaves none kept.  `linearize` forms both once and
keeps them in a LocalModel, which serves the gradient, every energy change
and, in scratch arrays allocated by the first of them, every Hessian-vector
product there.  The energies and the density form |D_A u|^2 axis by axis
from the transported neighbours, never a whole complex D_A u, and square a
fresh F_A in place; a model's F_A, which its other terms read, stays intact.
All reductions use plain numpy sums in fixed order, so results are
reproducible bit-for-bit within a build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import (
    BundleData,
    Section,
    _hopping,
    covariant_difference,  # unused here; perfbench's harness test reads this binding
    curvature,
    link_transport,
)
from .lattice import (Cochain, _by_rows, _roll_into, _rolled, codifferential, components, exterior_derivative,
                      zero_cochain)

__all__ = [
    "EnergyBreakdown",
    "g_energy",
    "e_energy",
    "g_gradient",
    "LocalModel",
    "linearize",
    "truncate",
    "energy_density",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """kinetic (1/2 |D_A u|^2), potential ((1-|u|^2)^2 / 4 eps^2),
    curvature (1/2 |F_A|^2), their sum, and the coupling epsilon."""

    kinetic: float
    potential: float
    curvature: float
    total: float
    epsilon: float


def _check_epsilon(eps: float) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"epsilon > 0 required, got {eps}")
    return eps


def _abs2(z: np.ndarray, out=None) -> np.ndarray:
    return np.add(out := np.square(z.real, out=out), np.square(z.imag), out=out)


def _densities(u: Section, fwds, F):
    """|D_A u|^2 per edge, axis by axis from the transported neighbours T as
    |(T - u) / h_i|^2 in row-range scratch, (1 - |u|^2)^2 per vertex and
    |F_A|^2 per plaquette, by rows; the energies weight their sums by the
    cell volume.  F is the curvature F_A, or a callable that forms a fresh
    one once the neighbours are consumed, squared then in place."""
    sites, h, uv = u.geom.sites, u.geom.spacings, u.values
    kin, pot = np.empty(u.geom.shape(1)), np.empty(sites)
    for i, fwd in enumerate(fwds):
        def edge(lo, hi):
            D = np.subtract(fwd[lo:hi], uv[lo:hi])
            np.multiply(D, 1.0 / h[i], out=D)
            np.add(np.square(D.real, out=kin[i, lo:hi]), np.square(D.imag, out=D.imag), out=kin[i, lo:hi])

        _by_rows(sites, edge)
    del fwd  # so F_A, formed next, is not held beside the last neighbour
    fresh = callable(F)
    F = F().values if fresh else F.values
    curv = F if fresh else np.empty(F.shape)
    _by_rows(sites, lambda lo, hi: np.square(np.subtract(1.0, _abs2(uv[lo:hi], out=pot[lo:hi]),
                                                         out=pot[lo:hi]), out=pot[lo:hi]))
    _by_rows(sites, lambda lo, hi: np.square(F[:, lo:hi], out=curv[:, lo:hi]))
    return kin, pot, curv


def _state_densities(u: Section, A: Cochain, b: BundleData):
    return _densities(u, (fwd for _, fwd in link_transport(u, A, b)), lambda: curvature(A, b))


def _energy(densities, w: float, eps: float) -> EnergyBreakdown:
    kin, pot, curv = (np.sum(d) for d in densities)
    kin = 0.5 * w * float(kin)
    pot = w * float(pot) / (4.0 * eps * eps)
    curv = 0.5 * w * float(curv)
    return EnergyBreakdown(kin, pot, curv, kin + pot + curv, eps)


def g_energy(u: Section, A: Cochain, b: BundleData, eps: float) -> EnergyBreakdown:
    """Full gauged energy; exactly gauge invariant by construction."""
    eps = _check_epsilon(eps)
    return _energy(_state_densities(u, A, b), b.geom.cell_volume, eps)


def g_energy_hi(u: Section, A: Cochain, b: BundleData, eps: float) -> float:
    """g_energy(...).total, the float64 total.  The name stays only because
    perfbench's kernel table and layer trace bind it; ROADMAP item 1 deletes
    it with them."""
    return g_energy(u, A, b, eps).total


def e_energy(u: Section, b: BundleData, eps: float) -> EnergyBreakdown:
    """Reference-connection energy: g_energy at A = 0 without the curvature term."""
    full = g_energy(u, zero_cochain(b.geom, 1), b, eps)
    total = full.kinetic + full.potential
    return EnergyBreakdown(full.kinetic, full.potential, 0.0, total, full.epsilon)


class LocalModel:
    """g_energy near one state (u, A): its gradient, Hessian-vector products
    and term-by-term changes, all read from `links`, the (link, transported
    neighbour) pair of each axis that `linearize` takes from
    `bundle.link_transport` once, and `F`, the curvature F_A it forms once.
    The first product adds the products' four complex scratch arrays, so a
    model used for its gradient alone holds nothing more; each product forms
    conj(u) once, and Re(conj(u) T) and conj(link) per axis in scratch."""

    def __init__(self, u: Section, b: BundleData, eps: float, links: tuple, F: Cochain):
        self.u, self.b, self.eps, self.links, self.F = u, b, eps, links, F
        self.w, self.h = b.geom.cell_volume, b.geom.spacings
        self._factors = None

    def energy(self) -> EnergyBreakdown:
        """g_energy at the state."""
        return _energy(_densities(self.u, (fwd for _, fwd in self.links), self.F), self.w, self.eps)

    def field_equation(self) -> Cochain:
        """d*F_A - j(u, A), the residual of the second Ginzburg-Landau
        equation; j is vortex.supercurrent."""
        current, div = _hopping(self.u, (fwd for _, fwd in self.links), np.imag), codifferential(self.F).values
        _by_rows(self.b.geom.sites, lambda lo, hi: np.subtract(div[:, lo:hi], current[:, lo:hi],
                                                               out=current[:, lo:hi]))
        return Cochain(self.b.geom, 1, current)

    def gradient(self):
        """Exact gradient of g_energy: (complex per-vertex field d/d(Re u,
        Im u) packed as Re + i Im, degree-1 cochain d/dA).  The A part is
        (d*F_A - j(u, A)) * prod(h), the discrete second Ginzburg-Landau
        equation; both carry the cell volume, as true derivatives of the
        summed energy do."""
        w, h, eps, uv, sites = self.w, self.h, self.eps, self.u.values, self.b.geom.sites
        grad_u = np.zeros(uv.shape, dtype=np.complex128)
        Du, back = np.empty_like(grad_u), np.empty_like(grad_u)
        for i, (link, fwd) in enumerate(self.links):
            # D_A u, then conj(link) D_A u, whose rows the next split shifts
            _by_rows(sites, lambda lo, hi: np.multiply(np.conj(link[lo:hi]), np.multiply(np.subtract(
                fwd[lo:hi], uv[lo:hi], out=Du[lo:hi]), 1.0 / h[i], out=Du[lo:hi]), out=back[lo:hi]))
            _by_rows(sites, lambda lo, hi: np.add(grad_u[lo:hi], (w / h[i]) * (
                _rolled(back, lo, hi, +1, i) - Du[lo:hi]), out=grad_u[lo:hi]))
        del Du, back  # not held through the field equation's temporaries
        _by_rows(sites, lambda lo, hi: np.add(grad_u[lo:hi], -(w / (eps * eps)) * (
            1.0 - (uv[lo:hi].real**2 + uv[lo:hi].imag**2)) * uv[lo:hi], out=grad_u[lo:hi]))
        grad_A = self.field_equation().values
        _by_rows(sites, lambda lo, hi: np.multiply(grad_A[:, lo:hi], w, out=grad_A[:, lo:hi]))
        return grad_u, Cochain(self.b.geom, 1, grad_A)

    def hessvec(self, du: Section, dA: Cochain, out: np.ndarray | None = None) -> np.ndarray:
        """Exact Hessian-vector product of g_energy along (du, dA), written
        into the flat array `out` (new when None) in solve._flat's order and
        returned as its (2 + n, *sites) view.  Per axis, with dT = du(x + e_i)
        link and D = (dT - du)/h, D_A u changes by D - i a T and
        conj(link) D_A u by conj(link) (D - i a u), a = dA_i.  Re(conj(u) T)
        goes to scratch aliasing neither factor: the out-of-place bits."""
        geom, w, h, uv, dv = self.b.geom, self.w, self.h, self.u.values, du.values
        uc = np.conj(uv)
        if self._factors is None:
            self._factors = np.empty((4, *geom.sites), dtype=np.complex128)
        S, T, Q, H = self._factors
        out = np.empty((2 + geom.dim) * geom.n_sites) if out is None else out
        planes = out.reshape(2 + geom.dim, *geom.sites)
        # the potential's part, (w/eps^2)(u (2 t + conj(t)) - du) with t = conj(u) du
        np.multiply(uc, dv, out=T)
        np.multiply(T.real, 3.0, out=T.real)
        np.multiply(uv, T, out=H)
        H -= dv
        H *= w / (self.eps * self.eps)
        for i, (link, fwd) in enumerate(self.links):
            a, c = dA.values[i], w / h[i]
            # minus the change of j: a Re(conj(u) T) - Im(conj(du) T + conj(u) dT)/h
            np.multiply(a, np.multiply(uc, fwd, out=S).real, out=planes[2 + i])
            np.multiply(_roll_into(S, dv, -1, i), link, out=S)
            np.multiply(uc, S, out=T)
            T += np.multiply(np.conjugate(dv, out=Q), fwd, out=Q)
            planes[2 + i] -= np.multiply(T.imag, 1.0 / h[i], out=T.imag)
            # the section part: c (shift(conj(link) (D - i a u), +1) - D + i a T)
            np.multiply(np.subtract(S, dv, out=T), c / h[i], out=T)
            np.multiply(np.multiply(a, -c * 1j, out=S), fwd, out=Q)
            S *= uv
            S += T
            H -= Q
            S *= np.conjugate(link, out=Q)
            H -= T
            H += _roll_into(Q, S, +1, i)
        planes[0], planes[1] = H.real, H.imag
        planes[2:] += codifferential(exterior_derivative(dA)).values
        planes[2:] *= w
        return planes

    def change(self, du: Section, dA: Cochain) -> EnergyBreakdown:
        """g_energy(u + du, A + dA) - g_energy(u, A), part by part, each
        local term's change formed from the increments (|D'|^2 - |D|^2 =
        Re(conj(dD)(2 D + dD)), the link change through the turn
        expm1(i t) = -2 sin(t/2)^2 + i sin(t), t = -h dA, numpy's complex
        expm1 formed from real sines), so rounding is relative to the change,
        not to the energy: the sign of a decrease far below one ulp of the
        total is still resolved.  Every axis reuses one set of buffers."""
        w, h, eps, uv, dv = self.w, self.h, self.eps, self.u.values, du.values
        t, (turn, Du, dDu) = np.empty(uv.shape), np.empty((3, *uv.shape), dtype=np.complex128)
        kin = 0.0
        for i, (link, fwd) in enumerate(self.links):
            np.sin(np.multiply(-h[i], dA.values[i], out=t), out=turn.imag)
            np.multiply(np.square(np.sin(np.multiply(t, 0.5, out=t), out=t), out=t), -2.0, out=turn.real)
            # dDu = (shift(dv) link (1 + turn) + fwd turn - dv) / h, Du its scratch, then Du = (fwd - u) / h
            np.multiply(np.multiply(_roll_into(dDu, dv, -1, i), link, out=dDu), np.add(1.0, turn, out=Du), out=dDu)
            dDu += np.multiply(fwd, turn, out=Du)
            np.multiply(np.subtract(dDu, dv, out=dDu), 1.0 / h[i], out=dDu)
            np.multiply(np.subtract(fwd, uv, out=Du), 1.0 / h[i], out=Du)
            np.add(np.multiply(2.0, Du, out=Du), dDu, out=Du)
            kin += float(np.sum(np.real(np.multiply(np.conjugate(dDu, out=dDu), Du, out=Du))))
        kin *= 0.5 * w
        del t, turn, Du, dDu  # not held through the other terms' temporaries

        one_minus = 1.0 - (uv.real**2 + uv.imag**2)
        dmod2 = 2.0 * np.real(np.conj(uv) * dv) + (dv.real**2 + dv.imag**2)
        pot = w * float(np.sum(dmod2 * (dmod2 - 2.0 * one_minus))) / (4.0 * eps * eps)

        dF = exterior_derivative(dA).values
        curv = 0.5 * w * float(np.sum(dF * (2.0 * self.F.values + dF)))
        return EnergyBreakdown(kin, pot, curv, kin + pot + curv, eps)


def linearize(u: Section, A: Cochain, b: BundleData, eps: float) -> LocalModel:
    """The local model of g_energy at (u, A), its links and F_A formed here, once."""
    return LocalModel(u, b, _check_epsilon(eps), tuple(link_transport(u, A, b)), curvature(A, b))


def g_gradient(u: Section, A: Cochain, b: BundleData, eps: float):
    """LocalModel.gradient at (u, A)."""
    return linearize(u, A, b, eps).gradient()


def truncate(u: Section) -> Section:
    """Project the modulus onto [0, 1]: u / |u| wherever |u| > 1.

    Never increases g_energy for any gauge field and epsilon.
    """
    mod = np.abs(u.values)
    scale = np.divide(1.0, mod, out=np.ones_like(mod), where=mod > 1.0)
    return Section(u.geom, u.values * scale)


def energy_density(u: Section, A: Cochain, b: BundleData, eps: float) -> Cochain:
    """Rescaled per-vertex energy density mu_eps as a 0-cochain.

    Edge and plaquette contributions are split equally among their incident
    vertices, so <mu_eps, 1> equals g_energy(...).total / |log eps| exactly.
    """
    return _mu(_state_densities(u, A, b), b.geom, eps)


def _mu(densities, geom, eps: float) -> Cochain:
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon in (0, 1) required, got {eps}")
    kin, pot, curv = densities
    dens, share, sites = np.zeros(geom.sites), np.empty(geom.sites), geom.sites

    def spread(x, a, b, axes):
        """dens += share = (x * a) * b, then share shifted by +1 along each of
        `axes` and, for two, along both; share is formed first, as a shift reads other rows."""
        _by_rows(sites, lambda lo, hi: np.multiply(np.multiply(x[lo:hi], a, out=share[lo:hi]), b,
                                                   out=share[lo:hi]))

        def add(lo, hi):
            out = dens[lo:hi]
            out += share[lo:hi]
            shifted = [_rolled(share, lo, hi, +1, axis) for axis in axes]
            for rolled in shifted:
                out += rolled
            if len(axes) == 2:  # axes[1] > 0, so the shift stays within the rows
                out += _roll_into(shifted[1], shifted[0], +1, axes[1])

        _by_rows(sites, add)

    for i in range(geom.dim):
        spread(kin[i], 0.5, 0.5, (i,))
    _by_rows(sites, lambda lo, hi: np.add(dens[lo:hi], np.divide(pot[lo:hi], 4.0 * eps * eps), out=dens[lo:hi]))
    for pos, ij in enumerate(components(geom.dim, 2)):
        spread(curv[pos], 0.5, 0.25, ij)
    _by_rows(sites, lambda lo, hi: np.divide(dens[lo:hi], abs(np.log(eps)), out=dens[lo:hi]))
    return Cochain(geom, 0, dens[np.newaxis])
