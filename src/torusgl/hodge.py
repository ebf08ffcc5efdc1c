"""Hodge decomposition, harmonic projection, Green's operator, and the
Poisson / London solvers for periodic cochains.

On the flat torus every operator here is diagonal in the Fourier basis,
component by component, with the second-difference multiplier from
`lattice.stencil_eigenvalues`.  The spectral path is exact to rounding for
any (also anisotropic) spacings; `tests/test_hodge.py` holds a plain
conjugate-gradient solver as an independent reference for the two solves.

Sign conventions follow Delta = -(dd* + d*d): the Green operator solves
Delta G(w) = w - H(w) with H(G(w)) = 0, i.e. a single Fourier mode with
stencil eigenvalue lam of -Delta maps to mode / (-lam).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    Cochain,
    TorusGeometry,
    _split,
    codifferential,
    exterior_derivative,
    norm,
    stencil_eigenvalues,
)

__all__ = [
    "HodgeParts",
    "NonCompatibleSourceError",
    "harmonic_projection",
    "green",
    "hodge_decompose",
    "solve_london",
    "solve_poisson",
    "harmonic_dimension",
]

# stencil eigenvalues below this count as zero in `harmonic_dimension`
_HARMONIC_TOL = 1e-10


class NonCompatibleSourceError(ValueError):
    """Poisson source has a harmonic part exceeding tolerance."""


@dataclass
class HodgeParts:
    """Orthogonal splitting w = d(exact_potential) + d*(coexact_potential) + harmonic."""

    exact_potential: Cochain | None      # degree k-1, None when k = 0
    coexact_potential: Cochain | None    # degree k+1, None when k = n
    harmonic: Cochain                    # degree k, constant components

    def reconstruct(self) -> Cochain:
        out = self.harmonic.copy()
        if self.exact_potential is not None:
            out = out + exterior_derivative(self.exact_potential)
        if self.coexact_potential is not None:
            out = out + codifferential(self.coexact_potential)
        return out


def harmonic_projection(c: Cochain) -> Cochain:
    """Per-component mean: the harmonic part on the flat torus.

    Exactly idempotent: constant inputs are returned unchanged, so applying
    the projector twice is bitwise stable even when the mean of N identical
    values would round (N not a power of two).
    """
    flat = c.values.reshape(c.values.shape[0], -1)
    if np.array_equal(flat, np.broadcast_to(flat[:, :1], flat.shape)):
        return Cochain(c.geom, c.degree, c.values.copy())
    axes = tuple(range(1, c.geom.dim + 1))
    means = c.values.mean(axis=axes, keepdims=True)
    return Cochain(c.geom, c.degree, np.broadcast_to(means, c.values.shape).copy())


def harmonic_dimension(geom: TorusGeometry, degree: int) -> int:
    """Count of -Delta stencil eigenvalues below `_HARMONIC_TOL`, summed over
    components.

    Cross-checks the hard-coded harmonic space: must equal C(n, k).
    """
    lam = stencil_eigenvalues(geom)
    ncomp = geom.shape(degree)[0]
    return int(np.count_nonzero(lam < _HARMONIC_TOL)) * ncomp


def _spectral_multiply(values: np.ndarray, multiplier: np.ndarray, out=None) -> np.ndarray:
    """Apply a Fourier multiplier, given per mode on the full site grid and
    even in each wave number, to every component of a real stacked
    (components, *sites) array, bit-identical to irfftn(rfftn(values) *
    multiplier) over the site axes.  The multiplier is cut to the half
    spectrum the real transform keeps (a multiplier already cut to it
    passes unchanged); one with a leading components axis gives each
    component its own.  rfftn writes into one preallocated spectrum, the
    complex inverse passes run in place there and the last writes straight
    into `out` (new when None), which may be `values` with the same bits:
    rfftn reads each row range before irfft writes those rows.

    The component rows are split over the worker set of `lattice._split`,
    from 2 * _SPLIT_ENTRIES entries on; every row goes through the same
    1-D transforms whichever thread runs it, so the bits do not depend on
    the number of CPUs."""
    sites = values.shape[1:]
    axes = tuple(range(1, values.ndim))
    half = sites[-1] // 2 + 1
    mult = multiplier[..., :half]
    out = np.empty(values.shape) if out is None else out

    def rows(lo: int, hi: int) -> None:
        spec = np.empty((hi - lo, *sites[:-1], half), dtype=np.complex128)
        np.fft.rfftn(values[lo:hi], axes=axes, out=spec)
        spec *= mult[lo:hi] if mult.ndim == values.ndim else mult
        for axis in axes[:-1]:
            np.fft.ifft(spec, axis=axis, out=spec)
        np.fft.irfft(spec, n=sites[-1], axis=-1, out=out[lo:hi])

    _split(values.shape[0], values[0].size, rows)
    return out


def green(c: Cochain) -> Cochain:
    """Green operator: Delta green(c) = c - H(c), with H(green(c)) = 0."""
    lam = stencil_eigenvalues(c.geom)
    mult = np.divide(-1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    return Cochain(c.geom, c.degree, _spectral_multiply(c.values, mult))


def hodge_decompose(c: Cochain) -> HodgeParts:
    """Split into exact + coexact + harmonic parts (exact to solver precision).

    Potentials are chosen mean-free: exact part = d(d* w), coexact part =
    d*(d w), with w the sign-flipped Green potential, so that the
    reconstruction returns the input.
    """
    k, n = c.degree, c.geom.dim
    w = -1.0 * green(c)  # (dd* + d*d) w = c - H(c)
    phi = codifferential(w) if k >= 1 else None
    psi = exterior_derivative(w) if k <= n - 1 else None
    xi = harmonic_projection(c)
    return HodgeParts(exact_potential=phi, coexact_potential=psi, harmonic=xi)


def solve_london(f: Cochain) -> Cochain:
    """Solve (-Delta + I) v = f.  Unique, no compatibility condition."""
    lam = stencil_eigenvalues(f.geom)
    return Cochain(f.geom, f.degree, _spectral_multiply(f.values, 1.0 / (1.0 + lam)))


def solve_poisson(f: Cochain) -> Cochain:
    """Solve -Delta v = f with H(v) = 0; requires a mean-free source."""
    h_norm = norm(harmonic_projection(f))
    if h_norm > 1e-10 * max(norm(f), 1e-300):
        raise NonCompatibleSourceError(
            f"source has harmonic part of norm {h_norm:.3e}; "
            "solve_poisson needs H(f) = 0"
        )
    return -1.0 * green(f)
