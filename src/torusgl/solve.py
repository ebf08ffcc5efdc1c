"""Energy minimization, connection relaxation, the recovery-sequence vortex
ansatz, and epsilon-continuation sweeps.

Both minimizers (`minimize` and `relax_connection`) run one inexact Newton
loop from their starting state (see _newton): each step solves the Newton
system by preconditioned conjugate gradients on exact Hessian-vector
products (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982),
then halves the step until an Armijo test on the energy change summed term
by term passes.  The conjugate-gradient forcing is adaptive, Eisenstat and
Walker's choice 2 (SIAM J. Sci. Comput. 17, 1996) with their constants
_ETA_0 = 0.5, _EW_GAMMA = 0.9, _EW_ALPHA = 2 and _ETA_MAX = 0.9: loose far
from the solution, tight near it.  Conjugate gradients also stop once the
residual's 2-norm is _CG_FLOOR = 0.5 times the convergence tolerance (in
raw gradient units; Kelley, Iterative Methods for Linear and Nonlinear
Equations, SIAM 1995, section 6.3), so the last round of a run does not
solve past what convergence asks.  Each state reached gets one local model
(_Model, on fields.linearize), which forms the links and the curvature once
for the gradient, every product and every energy change there, and the
products' scratch arrays at the first product, and holds the
preconditioner and the covariant translations' orthonormal rows.  In
`minimize` every product of a model writes into one result array, where the
gauge-fixing term is added in place.  The preconditioner is a Sobolev metric
matched to the operator (Neuberger, LNM 1670; Renka and Neuberger, SIAM J.
Sci. Comput. 19, 1998): in `minimize` it is phase-aligned, rotating the
section part of a vector into the local frame u/|u| and applying
(h^n(-Delta + _RADIAL_STIFFNESS/eps^2))^-1 to the modulus direction and
(h^n(-Delta + 1))^-1 to the phase direction and to A, so the CG count no
longer grows with 1/eps^2 (see _phase_aligned_preconditioner);
`relax_connection`, whose Hessian has no potential block, uses the plain
(h^n(-Delta + 1))^-1.  Three module constants fix the backtracking:
_ARMIJO_C (sufficient-decrease constant, 1e-4), _SHRINK (backtracking
factor, 0.5) and _MAX_BACKTRACKS (trials per step, 60).  Where lattice
pinning is strong (see `minimize`), a round may slide vortex cores along
their covariant translations; the later rounds of the same loop settle
the slide, which is then kept or undone.  Convergence is declared on the
sup-norm of the scale-free gradient (the variational derivative, i.e. the
raw gradient divided by the cell volume), which makes the London residual
bound at critical points mesh-independent.

A run ends unconverged in one of two ways, named by its stop reason
(MinimizerResult.stop_reason, or the second value `relax_connection`
returns): "budget" when max_iter runs out (it counts gradient evaluations
plus Hessian-vector products), or "stalled" when no certified energy
decrease is left (a Newton step without one, or with one that moves the
state by at most eps_mach times its norm, or a slide too short to move it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from math import isfinite, log, pi, sqrt

import numpy as np

from .bundle import BundleData, Section, _cis, _cis_into, build_background, link_phase
from .fields import (
    EnergyBreakdown,
    LocalModel,
    _check_epsilon,
    g_energy,
    g_gradient,  # not called here; perfbench's harness test names solve.g_gradient
    linearize,
    truncate,
)
from .hodge import _spectral_multiply, solve_poisson
from .lattice import (
    Cochain,
    TorusGeometry,
    _by_rows,
    codifferential,
    components,
    exterior_derivative,
    norm,
    stencil_eigenvalues,
    zero_cochain,
)
from .vortex import (
    VorticityField,
    chern_pairing,
    h_minus1_distance,
    jacobian,
    vortex_mass,
    vorticity,
    vorticity_density,
)

__all__ = [
    "MinimizeOptions",
    "MinimizerResult",
    "WindingMismatchError",
    "AnsatzSpec",
    "minimize",
    "relax_connection",
    "optimised_pair",
    "vortex_ansatz",
    "default_initial_pair",
    "epsilon_sweep",
    "check_sweep",
    "SweepRecord",
    "refine_section",
    "refine_cochain",
]


class WindingMismatchError(ValueError):
    """Ansatz windings are incompatible with the bundle Chern numbers."""


@dataclass(frozen=True)
class MinimizeOptions:
    """Settings of `minimize` and `relax_connection`; raises ValueError
    unless tol > 0 (NaN fails), max_iter >= 1 and log_every >= 0."""

    tol: float = 1e-8              # sup-norm of the scale-free gradient; one below its
                                   # rounding floor ends "stalled" at an ulp-sized step
    max_iter: int = 50000
    log_every: int = 0             # minimize only: 0 = silent; else print a line every k steps

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol > 0 violated (tol = {self.tol!r})")
        if self.max_iter < 1:
            raise ValueError(f"max_iter >= 1 violated (max_iter = {self.max_iter})")
        if self.log_every < 0:
            raise ValueError(f"log_every >= 0 violated (log_every = {self.log_every})")


@dataclass
class MinimizerResult:
    section: Section
    gauge_field: Cochain
    energy: EnergyBreakdown
    grad_norm: float
    london_residual: float
    iterations: int
    converged: bool
    stop_reason: str = "converged"   # or "budget", "stalled"; see minimize


# ----------------------------------------------------------------------------
# flat parameter vector <-> (u, A)
# ----------------------------------------------------------------------------

def _pack(u: Section, A: Cochain) -> np.ndarray:  # named by perfbench/kernels.py only
    return _flat(u.values, A)


def _unpack(x: np.ndarray, geom: TorusGeometry) -> tuple[Section, Cochain]:
    nv = geom.n_sites
    re = x[:nv].reshape(geom.sites)
    im = x[nv:2 * nv].reshape(geom.sites)
    a = x[2 * nv:].reshape(geom.shape(1))
    return Section(geom, re + 1j * im), Cochain(geom, 1, a)


def _flat(grad_u: np.ndarray, grad_A: Cochain) -> np.ndarray:
    """Pack a state (u.values, A) or its gradient as the vector [Re, Im, A] _unpack reads."""
    return np.concatenate([grad_u.real.ravel(), grad_u.imag.ravel(), grad_A.values.ravel()])


_EPS_MACH = float(np.finfo(np.float64).eps)

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60

# the forcing rule (see the module docstring and _forcing): Eisenstat and
# Walker's choice 2 constants, then Kelley's floor factor
_ETA_0 = 0.5
_EW_GAMMA = 0.9
_EW_ALPHA = 2.0
_ETA_MAX = 0.9
_EW_SAFEGUARD = 0.1
_CG_FLOOR = 0.5

# core width eps, in lattice spacings, below which lattice pinning is strong
_PINNED_CORE_SPACINGS = 3.0


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b over the last axis of `a` (one value per row of a matrix),
    summed by einsum's own loop: BLAS splits long dot products across
    threads, and its partial sums then round differently per thread count."""
    return np.einsum("...i,i", a, b)


def _norm(v: np.ndarray) -> float:
    return sqrt(float(_dot(v, v)))


@dataclass(frozen=True)
class _Model:
    """What the Newton loop needs of a smooth function f at one state x,
    built once per state by `at(x)`: g, the gradient of f at x;
    hessvec(v), the exact Hessian-vector product, plus at most a term acting
    only along energy-neutral directions (a gauge-fixing term), in an array
    the next product may overwrite; change(s),
    f(x + s) - f(x) summed term by term, so its sign is resolved far below
    one ulp of f; precond, the preconditioner at x, a symmetric positive
    definite map v -> M v into a new array, shared by every conjugate-gradient
    step from x; soft_modes, (rows, project) for near-null directions kept
    out of the conjugate-gradient solve, or None: rows() forms one row per
    direction, scaled to one lattice cell, and project maps a vector, in
    place, onto the complement of their span; local, f's LocalModel or None.
    """

    g: np.ndarray
    hessvec: object
    change: object
    precond: object
    soft_modes: object = None
    local: object = None


def _spectral_preconditioner(geom: TorusGeometry):
    """Apply (cell_volume * (-Delta + 1))^-1 component-wise to a packed
    vector of site fields, such as (Re u, Im u, A) or a 2-cochain: the
    stencil Laplacian diagonalizes in Fourier space, so this flattens the
    grid-scale stiffness of the Hessian for the Newton loop's conjugate
    gradients at the cost of one real FFT pair."""
    mult = 1.0 / (1.0 + stencil_eigenvalues(geom)) / geom.cell_volume
    return lambda v: _spectral_multiply(v.reshape(-1, *geom.sites), mult).ravel()


# potential curvature along the modulus at |u| = 1, in units of 1/eps^2: the
# second derivative of (1 - r^2)^2 / (4 eps^2) at r = 1
_RADIAL_STIFFNESS = 2.0


def _phase_aligned_preconditioner(geom: TorusGeometry, eps: float):
    """The preconditioner factory of `minimize`: u -> (v -> M v) with
    M = R^T D R on packed (Re u, Im u, A) vectors.

    R rotates the section part du of v, site by site, into the frame
    e = u/|u| of the state's section values u (e = 1 where u = 0): radial Re(conj(e) du) and
    tangential Im(conj(e) du); A passes unrotated.  D is one stacked
    spectral apply of (cell_volume * (-Delta + _RADIAL_STIFFNESS/eps^2))^-1
    to the radial row and (cell_volume * (-Delta + 1))^-1 to the tangential
    row and to every A row.  Away from vortex cores the Hessian is about
    -Delta + 2/eps^2 along the modulus but carries no 1/eps^2 term along the
    phase or on A, so this keeps the conjugate-gradient count from growing
    like 1/eps^2, which the quarter rule h = eps/4 turns into 1/h^2.  R is
    a pointwise rotation, so M is symmetric positive definite.  The
    multiplier is built once here; each apply rotates v into its result,
    transforms that in place and rotates back through a two-row scratch.
    """
    nv, n = geom.n_sites, geom.dim
    # the multiplier on the half spectrum the real transform keeps
    lam = stencil_eigenvalues(geom)[..., : geom.sites[-1] // 2 + 1]
    w = geom.cell_volume
    mult = np.empty((2 + n, *lam.shape))
    mult[0] = 1.0 / (w * (lam + _RADIAL_STIFFNESS / (eps * eps)))
    mult[1:] = 1.0 / (w * (lam + 1.0))

    def at(u: np.ndarray):
        modulus = np.abs(u)
        e = np.ones_like(u)
        np.divide(u, modulus, out=e, where=modulus > 0.0)
        er, ei = e.real.copy(), e.imag.copy()

        def apply(v: np.ndarray) -> np.ndarray:
            vr = v[:nv].reshape(geom.sites)
            vi = v[nv:2 * nv].reshape(geom.sites)
            # z = (Re(conj(e) du), Im(conj(e) du), dA), z[2] doubling as
            # scratch before dA lands there
            z = np.empty((2 + n, *geom.sites))
            np.multiply(er, vr, out=z[0])
            np.multiply(ei, vi, out=z[1])
            z[0] += z[1]
            np.multiply(er, vi, out=z[1])
            np.multiply(ei, vr, out=z[2])
            z[1] -= z[2]
            z[2:] = v[2 * nv:].reshape(n, *geom.sites)
            _spectral_multiply(z, mult, out=z)
            # rotate back in place: du = e (z0 + i z1)
            t = np.multiply(ei, z[:2])
            z[0] *= er
            z[0] -= t[1]
            z[1] *= er
            z[1] += t[0]
            return z.ravel()

        return apply

    return at


def _forcing(gnorm: float, last) -> float:
    """The Eisenstat-Walker choice 2 forcing term of a Newton round whose
    projected gradient has 2-norm gnorm.  `last` is (gnorm_prev, eta_prev)
    of the round before, or None for the first round of a sequence, which
    takes _ETA_0.  Otherwise gamma (gnorm/gnorm_prev)^alpha, raised to
    gamma eta_prev^alpha when that exceeds _EW_SAFEGUARD (so the forcing
    cannot drop much faster than the convergence it has seen), capped at
    _ETA_MAX."""
    if last is None:
        return _ETA_0
    gnorm_prev, eta_prev = last
    eta = _EW_GAMMA * (gnorm / gnorm_prev) ** _EW_ALPHA
    safeguard = _EW_GAMMA * eta_prev ** _EW_ALPHA
    if safeguard > _EW_SAFEGUARD:
        eta = max(eta, safeguard)
    return min(eta, _ETA_MAX)


def _projected_cg(hv, g, precond, project, forcing, max_steps, floor=0.0):
    """Preconditioned CG on H p = -g within the range of `project`.

    Stops when the residual's 2-norm falls below `forcing` times its start
    or below `floor`, or when a direction of non-positive curvature appears:
    with the step so far, or, if that is the first direction, with the
    direction itself (a preconditioned steepest-descent step, which the line
    search shortens), since the empty step would end the Newton loop as
    stalled.
    Returns (p, Hessian-vector products used).
    """
    # r, p and d change in place; project may write into g's copy, hv's product, precond's result
    r = project(g.copy())
    z = project(precond(r))
    d = -z
    p = np.zeros_like(g)
    rz = float(_dot(r, z))
    target = max(forcing * _norm(r), floor)
    used = 0
    while used < max_steps and rz > 0.0:
        z = None  # formed anew before it is read again: not held through hv and precond
        Hd = project(hv(d))
        used += 1
        dHd = float(_dot(d, Hd))
        if dHd <= 0.0:
            if used == 1:
                p = d
            break
        a = rz / dHd
        p += a * d
        r += a * Hd
        if _norm(r) <= target:
            break
        z = project(precond(r))
        rz_new = float(_dot(r, z))
        d *= rz_new / rz
        d -= z
        rz = rz_new
    return p, used


def _newton(at, x, scale, opts, on_step=None):
    """Minimize from x by inexact Newton steps; at(x) builds the _Model at
    x, and on_step, when given, sees (x, g) after each accepted step.

    While the gradient outside the soft modes is above tolerance, each round
    is one Newton step confined to their complement.  Once only the soft
    modes' share keeps g above tolerance (a vortex held off its
    lattice-pinned position), the round slides along them instead: a move
    downhill by a length in lattice cells, from a checkpoint of x, its model
    and the energy change summed since; ordinary rounds follow.  Once the
    rest of g meets the tolerance, a round finds no certified decrease or
    fewer than two evaluations are left, the slide is kept, and its length
    doubled up to half a cell, if the summed change is negative; otherwise
    the checkpoint is restored and the length halved.  Every accepted step
    certifies a negative change, so no decision rests on a float64 tie.
    `scale` divides the sup-norm of the raw gradient to form the scale-free
    convergence metric.
    Each round's CG forcing follows Eisenstat and Walker's choice 2 on the
    2-norm of the projected gradient (_forcing), loose far from the solution
    and tight near it; a slide restarts the sequence at _ETA_0.  CG also
    stops at a residual 2-norm of _CG_FLOOR * opts.tol * scale, which bounds
    the model gradient's sup-norm after the step below the tolerance.
    Returns (x, its model, gnorm, evaluations used, stop reason), the reason being
    "converged", "budget" (fewer than the two evaluations of a Newton step
    left of opts.max_iter), or "stalled" when no certified decrease is left
    (a Newton step without one, or with one that moves x by at most
    eps_mach ||x||, or a slide too short to move x).  Models built after the
    first and Hessian-vector products count as evaluations.
    """
    m = at(x)
    budget = opts.max_iter
    used = 0
    cells = 0.125
    floor = _CG_FLOOR * opts.tol * scale
    last = None  # (projected gradient 2-norm, forcing) of the previous round
    held = None  # [x, model, summed change] from a slide until it is kept or undone
    while True:
        gnorm = float(np.abs(m.g).max()) / scale
        rows, project = m.soft_modes or (None, lambda v: v)
        rest = gnorm if rows is None else float(np.abs(project(m.g.copy())).max()) / scale
        if held is not None and (x_new is None or rest <= opts.tol or budget - used < 2):
            if x_new is None or not held[2] < 0.0:
                x, m, _ = held
                held = None
                cells *= 0.5
                continue
            held = None
            cells = min(2.0 * cells, 0.5)
            if on_step is not None:
                on_step(x, m.g)
        if gnorm <= opts.tol:
            return x, m, gnorm, used, "converged"
        if budget - used < 2:
            return x, m, gnorm, used, "budget"
        if rest > opts.tol:
            # One Newton step from x in the range of `project`: CG to the round's
            # forcing or `floor`, on at most one product fewer than the budget left,
            # then halved until the summed energy change certifies an Armijo decrease
            # with the exact slope g.s.  x_new stays None if no step certifies one or
            # the one that does moves x by at most eps_mach ||x||.
            gnorm2 = _norm(project(m.g.copy()))
            last = (gnorm2, _forcing(gnorm2, last))
            s, n = _projected_cg(
                m.hessvec, m.g, m.precond, project, last[1], min(400, budget - used - 1), floor
            )
            used += n
            x_new, slope = None, float(_dot(m.g, s))
            if slope < 0.0:
                step = 1.0
                for _ in range(_MAX_BACKTRACKS):
                    delta = m.change(step * s)
                    if delta <= _ARMIJO_C * step * slope:
                        if step * _norm(s) > _EPS_MACH * _norm(x):
                            x_new = x + step * s
                        break  # otherwise a rounding-level move: no decrease is left
                    step *= _SHRINK
            if x_new is None:
                if held is None:
                    return x, m, gnorm, used, "stalled"
                continue  # the slide is undone above
            m = rows = project = s = None  # none is held through at(x_new)
            m = at(x_new)
            used += 1
            x = x_new
            if held is not None:
                held[2] += delta
            elif on_step is not None:
                on_step(x, m.g)
        else:
            R = rows()
            force = -_dot(R, m.g)
            s = (cells / _norm(force)) * np.einsum("k,ki", force, R)
            R = None  # neither R nor s (below) is held through at(x_new)
            if _norm(s) <= _EPS_MACH * _norm(x):
                return x, m, gnorm, used, "stalled"
            last = None
            x_new, delta = x + s, m.change(s)
            # a restored state slides again or ends the run: it runs no product or preconditioner
            held = [x, replace(m, hessvec=None, precond=None), delta]
            m = rows = project = s = None
            x = x_new
            m = at(x)
            used += 1


def _covariant_translations(lin: LocalModel, x: np.ndarray):
    """The covariant translations (-D_k u, -F_k.) of the state x, whose
    model is lin, k over the axes, as (rows, project): rows() forms them anew
    from lin, scaled to one lattice cell, and project maps a vector, in place,
    onto the complement of their span, which it holds as orthonormal rows alone.

    A vortex core slides across the lattice at almost no cost in energy
    (lattice pinning), so these directions carry curvature near zero or
    below it; `minimize` builds them only where that pinning is strong.
    Gram-Schmidt drops a direction whose remainder has norm below sqrt(eps_mach)
    times the state's, such as a translation of a uniform state.
    """
    geom = lin.b.geom
    n, h = geom.dim, geom.spacings
    F = lin.F.values

    def row(k):
        dA = np.zeros(geom.shape(1))
        for pos, (i, j) in enumerate(components(n, 2)):
            if i == k:
                dA[j] = -F[pos]
            elif j == k:
                dA[i] = F[pos]
        return h[k] * _flat(-(lin.links[k][1] - lin.u.values) / h[k], Cochain(geom, 1, dA))

    floor = sqrt(_EPS_MACH) * (_norm(x) + 1.0)
    Q, kept = [], []
    for k in range(n):
        z = row(k)
        for q in Q:
            z -= _dot(q, z) * q
        norm = _norm(z)
        if norm > floor:
            Q.append(z / norm)
            kept.append(k)
    Q = np.reshape(Q, (len(kept), x.size))
    return lambda: np.array([*map(row, kept)]), lambda v: np.subtract(v, np.einsum("k,ki", _dot(Q, v), Q), out=v)


def minimize(
    u0: Section,
    A0: Cochain,
    b: BundleData,
    eps: float,
    opts: MinimizeOptions | None = None,
) -> MinimizerResult:
    """Descend g_energy from (u0, A0); monotone in the accepted iterates.

    Inexact Newton steps from the first iterate on (see _newton), on exact
    Hessian-vector products, with the gauge orbit given positive curvature
    by a background gauge-fixing term.  Where lattice pinning is strong,
    eps < _PINNED_CORE_SPACINGS * max(h) (3 spacings), the loop would creep
    along the covariant translations (the slide of vortex cores), so they
    are kept out of the CG solve and slid along separately.  With a resolved
    core they stay in: projecting them out would block the core's first
    half-cell move and its coupling to the rest of the field.
    `iterations` counts gradient evaluations plus Hessian-vector products.

    Never raises for lack of convergence.  It returns the last accepted
    iterate, which has the lowest energy, with converged=False and
    stop_reason "budget" when max_iter runs out, or "stalled" when no
    certified energy decrease is left.  It evaluates g_energy only for the
    result and for the log_every lines.
    """
    opts = opts or MinimizeOptions()
    geom = b.geom
    w = geom.cell_volume
    aligned = _phase_aligned_preconditioner(geom, eps)
    pinned = eps < _PINNED_CORE_SPACINGS * max(geom.spacings)

    def at(x):
        uu, aa = _unpack(x, geom)
        lin, out = linearize(uu, aa, b, eps), np.empty(x.size)

        def hessvec(v):
            du, dA = _unpack(v, geom)
            planes = lin.hessvec(du, dA, out)
            # plus w G G^T (du, dA) for the gauge-orbit tangent G theta =
            # (i theta u, d theta): the Hessian of the background (Feynman)
            # gauge-fixing term (w/2) |Im(conj(u) du) + d* dA|^2.  Gauge
            # invariance keeps every gradient orthogonal to the orbit, so this
            # leaves the Newton step's physical part alone while giving the
            # orbit positive curvature.
            theta = w * (codifferential(dA).values[0] + np.imag(np.conj(uu.values) * du.values))
            planes[0] -= theta * uu.values.imag
            planes[1] += theta * uu.values.real
            planes[2:] += exterior_derivative(Cochain(geom, 0, theta[np.newaxis])).values
            return out

        g = _flat(*lin.gradient())
        # a state whose gradient meets the tolerance ends the loop without
        # reading its translations, so they are not built for it
        soft = pinned and float(np.abs(g).max()) / w > opts.tol
        return _Model(
            g,
            hessvec,
            lambda s: lin.change(*_unpack(s, geom)).total,
            aligned(uu.values),
            _covariant_translations(lin, x) if soft else None,
            lin,
        )

    steps = 0

    def report(x, g):
        """Runs after every accepted step: prints every log_every-th."""
        nonlocal steps
        steps += 1
        if steps % opts.log_every == 0:
            e = g_energy(*_unpack(x, geom), b, eps)
            print(
                f"iteration {steps} kinetic {e.kinetic:.17g} "
                f"potential {e.potential:.17g} curvature {e.curvature:.17g} "
                f"total {e.total:.17g} grad_norm {float(np.abs(g).max()) / w:.17g}"
            )

    x, m, gnorm, iters, reason = _newton(
        at, _flat(u0.values, A0), w, opts, report if opts.log_every else None
    )

    # the result's g_energy and vortex.london_residual, from the links and F_A of its model
    u_fin, A_fin = _unpack(x, geom)
    return MinimizerResult(
        section=u_fin,
        gauge_field=A_fin,
        energy=m.local.energy(),
        grad_norm=gnorm,
        london_residual=norm(exterior_derivative(m.local.field_equation())) / (1.0 + norm(m.local.F)),
        iterations=iters,
        converged=reason == "converged",
        stop_reason=reason,
    )


# ----------------------------------------------------------------------------
# connection relaxation over the class B = A + d* psi, psi exact
# ----------------------------------------------------------------------------

def relax_connection(
    u: Section,
    A: Cochain,
    b: BundleData,
    opts: MinimizeOptions | None = None,
) -> tuple[Cochain, str]:
    """Minimize |D_B u|^2 + |F_B|^2 over B = A + d* psi, psi a 2-cochain,
    keeping u fixed.  Never increases this auxiliary energy, twice
    g_energy's kinetic and curvature parts, hence never increases g_energy
    for any epsilon.

    Stationarity residual: sup-norm of d(d*F_B - j(u, B)) scaled by the cell
    volume; at convergence B satisfies the discrete London equation.
    Runs the same Newton loop as `minimize` (see _newton), without the gauge
    term or the slide, and decides on term-by-term changes only, so it
    evaluates no energy.  Returns (B, stop reason), B the last accepted
    iterate; like `minimize` it never raises for lack of convergence, and
    the reason is "converged", "budget" or "stalled".  It prints nothing:
    log_every has no effect here.
    """
    opts = opts or MinimizeOptions()
    geom = b.geom
    w = geom.cell_volume
    shape = geom.shape(2)

    # d* annihilates psi's coexact and harmonic parts, so only its exact
    # part reaches B
    def codiff(x: np.ndarray) -> Cochain:
        return codifferential(Cochain(geom, 2, x.reshape(shape)))

    # the auxiliary energy is twice g_energy's kinetic and curvature parts,
    # and u does not move; eps only enters the potential, which stays fixed
    still = Section(geom, np.zeros(geom.sites))
    plain = _spectral_preconditioner(geom)

    def at(x: np.ndarray) -> _Model:
        lin = linearize(u, A + codiff(x), b, 1.0)

        def change(s: np.ndarray) -> float:
            parts = lin.change(still, codiff(s))
            return 2.0 * (parts.kinetic + parts.curvature)

        return _Model(
            (2.0 * w) * exterior_derivative(lin.field_equation()).values.ravel(),
            lambda v: 2.0 * exterior_derivative(Cochain(geom, 1, lin.hessvec(still, codiff(v))[2:])).values.ravel(),
            change,
            plain,
        )

    x, _, _, _, reason = _newton(at, np.zeros(int(np.prod(shape))), 2.0 * w, opts)
    return A + codiff(x), reason


def optimised_pair(
    u: Section,
    A: Cochain,
    b: BundleData,
    opts: MinimizeOptions | None = None,
) -> tuple[Section, Cochain]:
    """Truncate the section, then relax the connection around it.

    Returns (v, B), B relax_connection's last iterate whatever its stop
    reason.  g_energy never increases, for any epsilon:
    G(v, B) <= G(v, A) <= G(u, A), exactly.
    """
    v = truncate(u)
    B, _ = relax_connection(v, A, b, opts)
    return v, B


# ----------------------------------------------------------------------------
# recovery-sequence vortex ansatz
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class AnsatzSpec:
    """Vortices on codimension-2 flats transverse to one plane (i, j), i < j:
    points on T^2, lines on T^3, 2-tori on T^4.  The plane is that of the
    bundle's nonzero Chern entry ((0, 1) if none), or on T^3 the complement
    of `axis` where one is given.

    positions: one pair of finite physical coordinates (x_i, x_j) per flat.
    windings: integer per flat; they must total c_ij, with every other Chern
    entry zero, or the ansatz cannot be periodic.
    """

    windings: tuple[int, ...]
    positions: tuple[tuple[float, ...], ...]
    axis: int | None = None

    def __post_init__(self):
        if len(self.windings) != len(self.positions):
            raise ValueError("one winding per position required")
        if any(len(p) != 2 or not all(map(isfinite, p)) for p in self.positions):
            raise ValueError(f"need two finite coordinates per position, got {self.positions}")
        if not all(float(w).is_integer() for w in self.windings):
            raise ValueError(f"windings must be integers, got {self.windings}")


def vortex_ansatz(
    spec: AnsatzSpec,
    b: BundleData,
    geom: TorusGeometry | None = None,
    eps: float = 0.1,
) -> tuple[Section, Cochain]:
    """Section with prescribed vortex points/lines in the background frame,
    paired with A = 0; raises ValueError unless eps > 0, as g_energy does.

    The gauge-invariant phase is built from a discrete Poisson solve so the
    plaquette windings equal the prescription exactly; the modulus is the
    linear core profile min(dist/eps, 1).
    """
    eps = _check_epsilon(eps)
    geom = geom or b.geom
    if geom != b.geom:
        raise ValueError("ansatz geometry must match the bundle geometry")
    n = geom.dim
    h = geom.spacings
    prescribed, cores = _prescribed_vorticity(spec, b)

    # circulation target per plaquette -> 1-cochain omega with d omega = rho
    hab = geom.plaquette_areas
    rho_vals = (2.0 * pi * prescribed.windings - hab * b.f0.values) / hab
    omega = codifferential(solve_poisson(Cochain(geom, 2, rho_vals)))

    # per-edge phase increments; adjust harmonic constants so both/all three
    # fundamental cycle sums are integer multiples of 2 pi
    incr = np.stack([h[axis] * omega.values[axis] for axis in range(n)]) + b.theta0
    for axis in range(n):
        line = [0] * n
        line[axis] = slice(None)
        s = float(incr[(axis, *line)].sum())
        target = 2.0 * pi * np.round(s / (2.0 * pi))
        gamma = (target - s) / geom.lengths[axis]
        incr[axis] += gamma * h[axis]

    # integrate the increments over a deterministic raster path: first along
    # axis 0 at the origin line, then axis 1 lines, then axis 2 lines
    chi = np.zeros(geom.sites)
    for axis in range(n):
        slab = incr[axis][(slice(None),) * (axis + 1) + (0,) * (n - axis - 1)]
        csum = np.cumsum(slab, axis=axis)
        excl = np.roll(csum, 1, axis=axis)
        excl[(slice(None),) * axis + (0,)] = 0.0
        shape = list(geom.sites[:axis + 1]) + [1] * (n - axis - 1)
        chi += excl.reshape(shape)

    def square(axis, q):  # squared periodic distance to a core along an axis, on its coordinates
        dx = np.abs(geom.coordinates(axis) - (q + 0.5) * h[axis])
        return np.minimum(dx, geom.lengths[axis] - dx) ** 2

    squares = [[(axis, square(axis, q)) for axis, q in core] for core in cores]
    u = np.empty(geom.sites, dtype=np.complex128)

    def work(lo, hi):  # the modulus min(dist/eps, 1) times exp(i chi), by rows
        dist = np.full(u[lo:hi].shape, np.inf)
        for core in squares:
            d2 = np.zeros(dist.shape)
            for axis, sq in core:
                d2 = d2 + (sq if axis else sq[lo:hi])
            dist = np.minimum(dist, np.sqrt(d2))
        _cis_into(chi[lo:hi], 1, u[lo:hi])
        np.multiply(np.minimum(dist / eps, 1.0), u[lo:hi], out=u[lo:hi])

    _by_rows(geom.sites, work)
    return Section(geom, u), zero_cochain(geom, 1)


def default_initial_pair(
    b: BundleData,
    eps: float,
    seed: int,
    spec: AnsatzSpec | None = None,
) -> tuple[Section, Cochain]:
    """Vortex ansatz for nontrivial bundles, seeded random perturbation of
    u = 1 for trivial ones.  The default ansatz is a product over the
    nonzero c_ij (i < j) of |c_ij| unit vortices of the sign of c_ij, spread
    along the diagonal of the (i, j) plane to keep the ansatz periodic, each
    factor on the bundle of that one entry: build_background is linear in
    the Chern matrix, so the product is a section of b and the windings add."""
    geom = b.geom
    if spec is not None:
        return vortex_ansatz(spec, b, geom, eps)
    if b.is_trivial:
        rng = np.random.default_rng(seed)
        noise = 0.1 * (rng.standard_normal(geom.sites) + 1j * rng.standard_normal(geom.sites))
        return Section(geom, np.ones(geom.sites, dtype=np.complex128) + noise), zero_cochain(geom, 1)
    factors = []
    for i, j in np.argwhere(np.triu(b.chern)):
        c = int(b.chern[i, j])
        count = abs(c)
        entry = np.zeros_like(b.chern)
        entry[i, j], entry[j, i] = c, -c
        centred = AnsatzSpec(
            windings=(1 if c > 0 else -1,) * count,
            positions=tuple(
                (geom.lengths[i] * (m + 0.5) / count, geom.lengths[j] * (m + 0.5) / count)
                for m in range(count)
            ),
        )
        factors.append(vortex_ansatz(centred, build_background(geom, entry), geom, eps)[0].values)
    return Section(geom, reduce(np.multiply, factors)), zero_cochain(geom, 1)


# ----------------------------------------------------------------------------
# epsilon continuation
# ----------------------------------------------------------------------------

@dataclass
class SweepRecord:
    epsilon: float
    geom: TorusGeometry
    result: MinimizerResult
    g_over_logeps: float
    vortex_mass: float
    chern_pairing: np.ndarray
    hminus1_to_target: float


def _refine(
    vals: np.ndarray, coarse: TorusGeometry, fine: TorusGeometry, lead: int, phases=None
) -> np.ndarray:
    """Periodic linear interpolation of site arrays (site axes start at
    `lead`) onto a lattice with an integer multiple of the sites per axis,
    one axis at a time.  With `phases` (lead 0 only; see refine_section)
    each new value interpolates its two coarse neighbours carried to it
    along the fine links."""
    factors = []
    for axis in range(coarse.dim):
        factor, rem = divmod(fine.sites[axis], coarse.sites[axis])
        if rem or factor < 1:
            raise ValueError("refinement requires integer site-count factors")
        factors.append(factor)
    for axis, factor in enumerate(factors):
        if factor > 1:
            ax = axis + lead
            nxt = np.roll(vals, -1, axis=ax)
            turns = [1.0] * factor
            if phases is not None:
                # the fine links along `axis` on the grid refined so far, and
                # their phase sums from each coarse site to the r-th fine
                # site after it: the transport there is exp(i sum)
                grid = tuple(slice(None) if a <= axis else slice(None, None, factors[a])
                             for a in range(coarse.dim))
                step = phases[axis][grid]
                total = np.zeros(vals.shape)
                for r in range(factor):
                    turns[r] = _cis(total, 1)
                    total = total + step.take(np.arange(r, fine.sites[axis], factor), axis=axis)
                nxt = nxt * _cis(total, -1)
            pieces = [
                ((1.0 - r / factor) * vals + (r / factor) * nxt) * turns[r] for r in range(factor)
            ]
            new_shape = list(vals.shape)
            new_shape[ax] *= factor
            vals = np.stack(pieces, axis=ax + 1).reshape(new_shape)
    return vals


def refine_section(u: Section, A: Cochain, b: BundleData) -> Section:
    """Interpolate a section onto the lattice of the bundle b, which has an
    integer multiple of the sites per axis; the old sites keep their values.

    A is the connection on that lattice.  A new value is the linear
    interpolation of its two coarse neighbours each carried to it along the
    fine links, whose phases are theta0 + h A (see bundle.link_phase), so a
    covariantly constant section refines to one.
    """
    phases = np.stack([link_phase(A, b, i) for i in range(b.geom.dim)])
    return Section(b.geom, _refine(u.values, u.geom, b.geom, 0, phases))


def refine_cochain(c: Cochain, geom_new: TorusGeometry) -> Cochain:
    return Cochain(geom_new, c.degree, _refine(c.values, c.geom, geom_new, 1))


def _narrow_cores(u: Section, rho: float) -> Section:
    """The section with each modulus m in (0, 1) taken to tanh(rho artanh m)
    and its phase kept: a core profile tanh(k r/eps) becomes the one at
    eps/rho, whatever k is.  u = 0 and |u| >= 1 are left as they are."""
    m = np.abs(u.values)
    core = (m > 0.0) & (m < 1.0)
    scale = np.ones_like(m)
    scale[core] = np.tanh(rho * np.arctanh(m[core])) / m[core]
    return Section(u.geom, u.values * scale)


def _quarter_rule_geometry(base: TorusGeometry, eps: float) -> TorusGeometry:
    """Geometry with h ~ eps/4 on every axis (site counts rounded up; the
    1e-9 guard keeps exact ratios from spilling over to the next integer)."""
    sites = tuple(max(4, int(np.ceil(4.0 * L / eps - 1e-9))) for L in base.lengths)
    return TorusGeometry(sites, base.lengths)


def check_sweep(geom: TorusGeometry | None, eps_list, mesh_rule: str) -> None:
    """Raise ValueError unless eps_list is a non-empty, strictly decreasing
    list in (0, 1), mesh_rule is "fixed" or "quarter" and, geom given, its
    lattice fits the rule: "fixed" keeps one lattice, so its spacing h must
    satisfy h <= eps/2 for every entry; "quarter" needs each level's site
    counts to divide the next level's."""
    if not eps_list:
        raise ValueError("at least one epsilon required")
    for e in eps_list:
        if not 0.0 < e < 1.0:
            bound = "< 1" if e > 0.0 else "> 0"
            raise ValueError(f"epsilon {bound} violated: every epsilon lies in (0, 1), got {e!r}")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    if mesh_rule not in ("fixed", "quarter"):
        raise ValueError(f"mesh_rule must be fixed or quarter, got {mesh_rule!r}")
    if geom is None:
        return
    h, smallest = max(geom.spacings), eps_list[-1]
    if mesh_rule == "fixed" and h > smallest / 2.0 + 1e-15:
        raise ValueError(f"mesh_rule fixed needs h <= epsilon/2 (h = {h!r}, epsilon = {smallest!r})")
    if mesh_rule == "quarter":
        # each warm start is refined onto the next lattice (see refine_section)
        sites = [_quarter_rule_geometry(geom, e).sites for e in eps_list]
        for n1, n2 in zip(sites, sites[1:]):
            if any(fine % coarse for coarse, fine in zip(n1, n2)):
                raise ValueError(f"mesh_rule quarter needs each level's site counts to be integer "
                                 f"multiples of the previous level's, got {n1} -> {n2}")


def epsilon_sweep(
    spec: AnsatzSpec | None,
    b: BundleData,
    geom: TorusGeometry,
    eps_list,
    opts: MinimizeOptions | None = None,
    mesh_rule: str = "fixed",
    seed: int = 0,
) -> list[SweepRecord]:
    """Warm-started minimization along a strictly decreasing epsilon list.

    The first level starts from default_initial_pair with `spec` (None for
    the default initialization); check_sweep states what eps_list and
    mesh_rule must satisfy.  mesh_rule "fixed" keeps one lattice; "quarter"
    rebuilds each entry with h = eps/4 and prolongates the previous
    minimizer onto the finer lattice, the section along the fine link
    phases (see refine_section).  Under either rule each warm start then has
    its vortex cores narrowed by the ratio rho of the previous epsilon to
    this one (see _narrow_cores): a core has width ~eps, so the previous
    minimizer's is rho times too wide.
    The H^-1 column measures jacobian/pi against a target vorticity density:
    the prescribed ansatz on each level's lattice when given, else the
    converged vorticity of the first level on the current lattice, so under
    "quarter" a level on a new lattice is measured against its own.
    """
    opts = opts or MinimizeOptions()
    eps_list = [float(e) for e in eps_list]
    check_sweep(geom, eps_list, mesh_rule)

    records: list[SweepRecord] = []
    target_density: Cochain | None = None

    for eps in eps_list:
        entry_geom = geom if mesh_rule == "fixed" else _quarter_rule_geometry(geom, eps)
        if not records:
            cur_geom = entry_geom
            cur_bundle = b if entry_geom == b.geom else build_background(entry_geom, b.chern)
            u, A = default_initial_pair(cur_bundle, eps, seed, spec)
        else:
            if entry_geom != cur_geom:
                cur_geom, cur_bundle = entry_geom, build_background(entry_geom, b.chern)
                A = refine_cochain(A, cur_geom)
                u = refine_section(u, A, cur_bundle)
            u = _narrow_cores(u, records[-1].epsilon / eps)

        res = minimize(u, A, cur_bundle, eps, opts)
        u, A = res.section, res.gauge_field
        v = vorticity(u, A, cur_bundle)

        if spec is not None:
            target_density = vorticity_density(_prescribed_vorticity(spec, cur_bundle)[0])
        elif target_density is None or target_density.geom != cur_geom:
            target_density = vorticity_density(v)

        dist = h_minus1_distance(
            (1.0 / pi) * jacobian(u, A, cur_bundle), target_density
        )
        records.append(
            SweepRecord(
                epsilon=eps,
                geom=cur_geom,
                result=res,
                g_over_logeps=res.energy.total / abs(log(eps)),
                vortex_mass=vortex_mass(v),
                chern_pairing=chern_pairing(v),
                hminus1_to_target=dist,
            )
        )
    return records


def _prescribed_vorticity(spec: AnsatzSpec, b: BundleData) -> tuple[VorticityField, list]:
    """The prescribed integer plaquette windings in the ansatz plane (i, j)
    (see AnsatzSpec), constant along the other axes, and per vortex its core
    plaquette as ((i, q_i), (j, q_j)), checked against b's Chern numbers."""
    geom = b.geom
    if spec.axis is not None and (geom.dim != 3 or spec.axis not in (0, 1, 2)):
        raise WindingMismatchError(
            f"an ansatz axis names a line along 0, 1 or 2 on T^3, got axis {spec.axis} on T^{geom.dim}"
        )
    nonzero = [(a, bb) for a, bb in components(geom.dim, 2) if int(b.chern[a, bb]) != 0]
    i, j = (nonzero or [(0, 1)])[0] if spec.axis is None else sorted({0, 1, 2} - {spec.axis})
    for a, bb in nonzero:
        if (a, bb) != (i, j):
            raise WindingMismatchError(
                f"chern[{a},{bb}] = {int(b.chern[a, bb])} cannot be carried by "
                f"the ansatz in the ({i},{j}) plane"
            )
    total = sum(spec.windings)
    if total != int(b.chern[i, j]):
        raise WindingMismatchError(
            f"total winding {total} != chern[{i},{j}] = {int(b.chern[i, j])}"
        )
    pair_pos = components(geom.dim, 2).index((i, j))
    W = np.zeros(geom.shape(2), dtype=np.int64)
    h = geom.spacings
    cores = []
    for (winding, pos) in zip(spec.windings, spec.positions):
        index = [slice(None)] * geom.dim
        for axis, x in zip((i, j), pos):
            index[axis] = int(np.floor(x / h[axis] - 0.5)) % geom.sites[axis]
        W[(pair_pos, *index)] += winding
        cores.append(((i, index[i]), (j, index[j])))
    return VorticityField(geom, W), cores
