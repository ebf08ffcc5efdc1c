"""Gauge transformations and Coulomb-type gauge fixing.

A gauge transformation acts as (u, A) -> (e^{i theta} u, A + d theta) for a
real vertex field theta, stored unwrapped so that d theta is an honest
1-cochain.  Every observable (energy parts, supercurrent, Jacobian,
vorticity, curvature) is exactly invariant by construction.

Coulomb fixing removes the exact Hodge part of A by a small gauge and
reduces each harmonic component to the fundamental interval
[-pi/L_i, pi/L_i] by winding phases, a tie removing the winding nearer
zero.  On the lattice a winding phase is a sawtooth vertex field whose
differential is NOT the constant -2 pi m/L_i (it spikes at the wrap seam);
the pair transformation used here rotates u by the sawtooth while shifting
A by the constant, which is still exactly energy-preserving because edge
phases only matter modulo 2 pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, copysign

import numpy as np

from .bundle import Section, _cis
from .hodge import green
from .lattice import Cochain, TorusGeometry, codifferential, exterior_derivative

__all__ = ["GaugePhase", "apply_gauge", "coulomb_fix"]


@dataclass
class GaugePhase:
    """Real phase per vertex, radians, stored unwrapped."""

    geom: TorusGeometry
    theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.theta, dtype=np.float64)
        if vals.shape != self.geom.sites:
            raise ValueError(f"phase shape {vals.shape} != sites {self.geom.sites}")
        self.theta = vals


def apply_gauge(u: Section, A: Cochain, theta: GaugePhase) -> tuple[Section, Cochain]:
    """(u, A) -> (e^{i theta} u, A + d theta)."""
    if u.geom != theta.geom or A.geom != theta.geom:
        raise ValueError("geometry mismatch between fields and gauge phase")
    # phase * u, as numpy's complex product is not bitwise commutative and
    # `u * phase` takes this order only where numpy elides the temporary
    phase = _cis(theta.theta, 1)
    u2 = Section(u.geom, np.multiply(phase, u.values, out=phase))
    dtheta = exterior_derivative(Cochain(theta.geom, 0, theta.theta[np.newaxis]))
    return u2, A + dtheta


def coulomb_fix(u: Section, A: Cochain) -> tuple[Section, Cochain, GaugePhase]:
    """Gauge-equivalent representative with d*A' ~ 0 and harmonic components
    of A' in [-pi/L_i, pi/L_i]; a tie removes the large-gauge winding nearer zero.

    Returns (u', A', phase) where phase records the total vertex rotation
    applied to u.  Energies and all gauge-invariant observables agree with
    the input exactly (to rounding).
    """
    geom = A.geom
    # the exact Hodge part of A is d(phi), phi = d*(w) with w = -green(A)
    phi = codifferential(-1.0 * green(A)).values[0]
    u1, A1 = apply_gauge(u, A, GaugePhase(geom, -phi))

    # large-gauge reduction of the harmonic (mean) components
    axes = tuple(range(1, geom.dim + 1))
    xi = A1.values.mean(axis=axes)
    vals = A1.values.copy()
    winding = np.zeros(geom.sites)
    wound = False
    for i in range(geom.dim):
        L = geom.lengths[i]
        # nearest integer, ties toward zero; |x| - 0.5 is exact for |x| < 2^52
        x = float(xi[i]) * L / (2.0 * np.pi)
        m = int(copysign(ceil(abs(x) - 0.5), x))
        if m == 0:
            continue
        wound = True
        vals[i] -= 2.0 * np.pi * m / L
        winding = winding - (2.0 * np.pi * m / L) * geom.coordinates(i)
    # with every winding zero the rotation would multiply u by exp(0j)
    u2 = u1
    if wound:
        phase = _cis(winding, 1)
        u2 = Section(geom, np.multiply(phase, u1.values, out=phase))
    A2 = Cochain(geom, 1, vals)
    return u2, A2, GaugePhase(geom, -phi + winding)
