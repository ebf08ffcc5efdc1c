"""Discrete gauged Ginzburg-Landau energies, their analytic gradients and
Hessian-vector products, term-by-term energy changes, modulus truncation,
and the rescaled energy density.

Quadrature: the potential is vertex-collocated, the kinetic term
edge-collocated, the curvature term plaquette-collocated, all with the full
cell volume prod(h_i) per sample, matching the lattice inner product.  The
gauge field enters only through the links of `bundle.link_transport`, formed
once per axis per state: `linearize` keeps them in a LocalModel, which serves
the gradient, every Hessian-vector product and every energy change there.
All reductions use plain numpy sums in fixed order, so results are
reproducible bit-for-bit within a build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import BundleData, Section, covariant_difference, curvature, link_transport
from .lattice import Cochain, codifferential, components, exterior_derivative, zero_cochain

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


def _energy_terms(u: Section, A: Cochain, b: BundleData, dtype=np.float64):
    """Lattice sums of |D_A u|^2, (1 - |u|^2)^2 and |F_A|^2, each accumulated
    in `dtype`; the energies weight them by the cell volume."""
    Du = covariant_difference(u, A, b)
    kin = np.sum(Du.real**2 + Du.imag**2, dtype=dtype)
    one_minus = 1.0 - (u.values.real**2 + u.values.imag**2)
    pot = np.sum(one_minus**2, dtype=dtype)
    curv = np.sum(curvature(A, b).values ** 2, dtype=dtype)
    return kin, pot, curv


def g_energy(u: Section, A: Cochain, b: BundleData, eps: float) -> EnergyBreakdown:
    """Full gauged energy; exactly gauge invariant by construction."""
    eps = _check_epsilon(eps)
    w = b.geom.cell_volume
    kin, pot, curv = _energy_terms(u, A, b)
    kin = 0.5 * w * float(kin)
    pot = w * float(pot) / (4.0 * eps * eps)
    curv = 0.5 * w * float(curv)
    return EnergyBreakdown(kin, pot, curv, kin + pot + curv, eps)


def g_energy_hi(u: Section, A: Cochain, b: BundleData, eps: float):
    """g_energy total accumulated in the platform's long double, whose
    precision varies by platform.  The minimizers do not use it: they decide
    on LocalModel.change, which resolves sub-ulp differences in float64.
    """
    eps = _check_epsilon(eps)
    w = b.geom.cell_volume
    kin, pot, curv = _energy_terms(u, A, b, np.longdouble)
    return 0.5 * w * kin + w * pot / (4.0 * eps * eps) + 0.5 * w * curv


def e_energy(u: Section, b: BundleData, eps: float) -> EnergyBreakdown:
    """Reference-connection energy: g_energy at A = 0 without the curvature term."""
    eps = _check_epsilon(eps)
    full = g_energy(u, zero_cochain(b.geom, 1), b, eps)
    total = full.kinetic + full.potential
    return EnergyBreakdown(full.kinetic, full.potential, 0.0, total, eps)


class LocalModel:
    """g_energy near one state (u, A): its gradient, Hessian-vector products
    and term-by-term changes, all read from `links`, the (link, transported
    neighbour) pair of each axis that `linearize` takes from
    `bundle.link_transport` once; these two complex arrays per axis are all
    the model holds beyond the state."""

    def __init__(self, u: Section, A: Cochain, b: BundleData, eps: float, links: tuple):
        self.u, self.A, self.b, self.eps, self.links = u, A, b, eps, links
        self.w, self.h = b.geom.cell_volume, b.geom.spacings

    def field_equation(self) -> Cochain:
        """d*F_A - j(u, A), the residual of the second Ginzburg-Landau
        equation; j is vortex.supercurrent."""
        current = np.empty(self.b.geom.shape(1))
        for i, (_, fwd) in enumerate(self.links):
            current[i] = np.imag(np.conj(self.u.values) * fwd) / self.h[i]
        return codifferential(curvature(self.A, self.b)) - Cochain(self.b.geom, 1, current)

    def gradient(self):
        """Exact gradient of g_energy: (complex per-vertex field d/d(Re u,
        Im u) packed as Re + i Im, degree-1 cochain d/dA).  The A part is
        (d*F_A - j(u, A)) * prod(h), the discrete second Ginzburg-Landau
        equation; both carry the cell volume, as true derivatives of the
        summed energy do."""
        w, h, eps, uv = self.w, self.h, self.eps, self.u.values
        grad_u = np.zeros(uv.shape, dtype=np.complex128)
        for i, (link, fwd) in enumerate(self.links):
            Du = (fwd - uv) / h[i]
            grad_u += (w / h[i]) * (np.roll(np.conj(link) * Du, +1, axis=i) - Du)
        grad_u += -(w / (eps * eps)) * (1.0 - (uv.real**2 + uv.imag**2)) * uv
        return grad_u, Cochain(self.b.geom, 1, w * self.field_equation().values)

    def hessvec(self, du: Section, dA: Cochain):
        """Exact Hessian-vector product of g_energy: the directional
        derivative of the gradient along (du, dA), returned in the same
        packing (complex per-vertex field, degree-1 cochain)."""
        w, h, eps, uv, dv = self.w, self.h, self.eps, self.u.values, du.values
        hess_u = np.zeros(uv.shape, dtype=np.complex128)
        minus_dj = np.empty(dA.values.shape)
        for i, (link, fwd) in enumerate(self.links):
            dfwd = np.roll(dv, -1, axis=i) * link
            a = dA.values[i]
            Du = (fwd - uv) / h[i]
            dDu = (dfwd - dv) / h[i] - 1j * a * fwd
            dback = np.conj(link) * (dDu + 1j * h[i] * a * Du)
            hess_u += (w / h[i]) * (np.roll(dback, +1, axis=i) - dDu)
            minus_dj[i] = a * np.real(np.conj(uv) * fwd) - np.imag(
                np.conj(dv) * fwd + np.conj(uv) * dfwd
            ) / h[i]
        mod2 = uv.real**2 + uv.imag**2
        hess_u += -(w / (eps * eps)) * ((1.0 - mod2) * dv - 2.0 * np.real(np.conj(uv) * dv) * uv)
        hess_A = w * (codifferential(exterior_derivative(dA)).values + minus_dj)
        return hess_u, Cochain(self.b.geom, 1, hess_A)

    def change(self, du: Section, dA: Cochain) -> EnergyBreakdown:
        """g_energy(u + du, A + dA) - g_energy(u, A), part by part, each
        local term's change formed from the increments (|D'|^2 - |D|^2 =
        Re(conj(dD)(2 D + dD)), the link change through expm1), so rounding
        is relative to the change, not to the energy: the sign of a decrease
        far below one ulp of the total is still resolved."""
        w, h, eps, uv, dv = self.w, self.h, self.eps, self.u.values, du.values
        kin = 0.0
        for i, (link, fwd) in enumerate(self.links):
            turn = np.expm1(-1j * h[i] * dA.values[i])
            Du = (fwd - uv) / h[i]
            dDu = (np.roll(dv, -1, axis=i) * link * (1.0 + turn) + fwd * turn - dv) / h[i]
            kin += float(np.sum(np.real(np.conj(dDu) * (2.0 * Du + dDu))))
        kin *= 0.5 * w

        one_minus = 1.0 - (uv.real**2 + uv.imag**2)
        dmod2 = 2.0 * np.real(np.conj(uv) * dv) + (dv.real**2 + dv.imag**2)
        pot = w * float(np.sum(dmod2 * (dmod2 - 2.0 * one_minus))) / (4.0 * eps * eps)

        F = curvature(self.A, self.b).values
        dF = exterior_derivative(dA).values
        curv = 0.5 * w * float(np.sum(dF * (2.0 * F + dF)))
        return EnergyBreakdown(kin, pot, curv, kin + pot + curv, eps)


def linearize(u: Section, A: Cochain, b: BundleData, eps: float) -> LocalModel:
    """The local model of g_energy at (u, A), its links formed here, once."""
    return LocalModel(u, A, b, _check_epsilon(eps), tuple(link_transport(u, A, b)))


def g_gradient(u: Section, A: Cochain, b: BundleData, eps: float):
    """LocalModel.gradient at (u, A)."""
    return linearize(u, A, b, eps).gradient()


def truncate(u: Section) -> Section:
    """Project the modulus onto [0, 1]: u / |u| wherever |u| > 1.

    Never increases g_energy for any gauge field and epsilon.
    """
    mod = np.abs(u.values)
    scale = np.ones_like(mod)
    over = mod > 1.0
    scale[over] = 1.0 / mod[over]
    return Section(u.geom, u.values * scale)


def energy_density(u: Section, A: Cochain, b: BundleData, eps: float) -> Cochain:
    """Rescaled per-vertex energy density mu_eps as a 0-cochain.

    Edge and plaquette contributions are split equally among their incident
    vertices, so <mu_eps, 1> equals g_energy(...).total / |log eps| exactly.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon in (0, 1) required, got {eps}")
    geom = b.geom
    Du = covariant_difference(u, A, b)
    dens = np.zeros(geom.sites)

    for i in range(geom.dim):
        e_kin = 0.5 * (Du[i].real**2 + Du[i].imag**2)
        dens += 0.5 * e_kin
        dens += 0.5 * np.roll(e_kin, +1, axis=i)

    mod2 = u.values.real**2 + u.values.imag**2
    dens += (1.0 - mod2) ** 2 / (4.0 * eps * eps)

    F = curvature(A, b)
    for pos, (i, j) in enumerate(components(geom.dim, 2)):
        e_curv = 0.5 * F.values[pos] ** 2
        quarter = 0.25 * e_curv
        dens += quarter
        dens += np.roll(quarter, +1, axis=i)
        dens += np.roll(quarter, +1, axis=j)
        dens += np.roll(np.roll(quarter, +1, axis=i), +1, axis=j)

    dens /= abs(np.log(eps))
    return Cochain(geom, 0, dens[np.newaxis])
