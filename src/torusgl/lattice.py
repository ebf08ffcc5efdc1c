"""Periodic cubical lattice on a flat torus, with cochains and the discrete
exterior calculus operators d, d*, Laplacian.

Conventions
-----------
A degree-k cochain stores one real sample per oriented k-cell, interpreted as
the pointwise component of a k-form: the value on an x_i-edge based at site x
is the omega_i component there, the value on an (i,j)-plaquette is omega_ij.
Components are ordered lexicographically over sorted axis tuples.

The exterior derivative uses scaled forward differences,

    (d phi)_i(x)  = (phi(x + e_i) - phi(x)) / h_i
    (d A)_ij(x)   = (A_j(x + e_i) - A_j(x)) / h_i - (A_i(x + e_j) - A_i(x)) / h_j

and the codifferential is its exact adjoint for the diagonal L2 product with
uniform weight prod(h_i) per cell sample.  On the flat torus the resulting
Hodge Laplacian acts component-wise as the standard second-difference stencil,
so every solver downstream is spectral.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from queue import Empty, SimpleQueue

import numpy as np

__all__ = [
    "TorusGeometry",
    "Cochain",
    "components",
    "zero_cochain",
    "constant_cochain",
    "random_cochain",
    "exterior_derivative",
    "codifferential",
    "inner_product",
    "norm",
    "laplacian",
    "stencil_eigenvalues",
    "write_field",
    "read_field",
]


@lru_cache(maxsize=None)
def components(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Sorted axis tuples indexing the C(n,k) components of a k-cochain."""
    return tuple(itertools.combinations(range(n), k))


@dataclass(frozen=True)
class TorusGeometry:
    """Flat periodic lattice: per-axis site counts and physical lengths."""

    sites: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if not all(float(s).is_integer() for s in self.sites):
            raise ValueError(f"site counts must be integers, got {self.sites}")
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        n = len(self.sites)
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
        if len(self.lengths) != n:
            raise ValueError("sites and lengths must have equal length")
        if any(s < 4 for s in self.sites):
            raise ValueError(f"need N_i >= 4 on every axis, got {self.sites}")
        # written so that NaN fails too
        if not all(0.0 < L < math.inf for L in self.lengths):
            raise ValueError(f"need 0 < L_i < inf on every axis, got {self.lengths}")

    @property
    def dim(self) -> int:
        return len(self.sites)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.sites))

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    @property
    def cell_volume(self) -> float:
        """Quadrature weight prod(h_i), shared by samples of every degree."""
        return math.prod(self.spacings)

    @property
    def n_sites(self) -> int:
        return math.prod(self.sites)

    @property
    def plaquette_areas(self) -> np.ndarray:
        """h_i h_j per (i,j) component, shaped (C(n,2), 1, ..., 1) to
        broadcast over the values of a 2-cochain."""
        h = self.spacings
        return np.reshape([h[i] * h[j] for i, j in components(self.dim, 2)], (-1,) + (1,) * self.dim)

    def n_cells(self, k: int) -> int:
        return math.comb(self.dim, k) * self.n_sites

    def shape(self, k: int) -> tuple[int, ...]:
        return (math.comb(self.dim, k), *self.sites)

    def coordinates(self, axis: int) -> np.ndarray:
        """Physical coordinate of each site along one axis, broadcast-ready."""
        h = self.spacings[axis]
        shape = [1] * self.dim
        shape[axis] = self.sites[axis]
        return (h * np.arange(self.sites[axis])).reshape(shape)


@dataclass
class Cochain:
    """Degree-k discrete form: array of shape (C(n,k), N_1, ..., N_n)."""

    geom: TorusGeometry
    degree: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.degree <= self.geom.dim:
            raise ValueError(f"degree {self.degree} out of range for n={self.geom.dim}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.geom.shape(self.degree):
            raise ValueError(
                f"values shape {vals.shape} != expected {self.geom.shape(self.degree)}"
            )
        self.values = vals

    def copy(self) -> "Cochain":
        return Cochain(self.geom, self.degree, self.values.copy())

    def _check_compatible(self, other: "Cochain"):
        if self.degree != other.degree or self.geom != other.geom:
            raise ValueError("cochain degree/geometry mismatch")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(self.geom, self.degree, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(self.geom, self.degree, self.values - other.values)

    def __neg__(self) -> "Cochain":
        return Cochain(self.geom, self.degree, -self.values)

    def __mul__(self, scalar: float) -> "Cochain":
        return Cochain(self.geom, self.degree, self.values * float(scalar))

    __rmul__ = __mul__


def zero_cochain(geom: TorusGeometry, degree: int) -> Cochain:
    return Cochain(geom, degree, np.zeros(geom.shape(degree)))


def constant_cochain(geom: TorusGeometry, degree: int, value) -> Cochain:
    """Cochain with constant components; `value` is scalar or one per component."""
    vals = np.zeros(geom.shape(degree))
    vals += np.reshape(value, (-1, *([1] * geom.dim)))
    return Cochain(geom, degree, vals)


def random_cochain(geom: TorusGeometry, degree: int, rng: np.random.Generator) -> Cochain:
    return Cochain(geom, degree, rng.standard_normal(geom.shape(degree)))


def _roll_into(out: np.ndarray, x: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """Write np.roll(x, shift, axis), shift +1 or -1, into out by two slice copies."""
    lead = (slice(None),) * axis
    out[lead + (slice(shift, None),)] = x[lead + (slice(None, -shift),)]
    out[lead + (slice(None, shift),)] = x[lead + (slice(-shift, None),)]
    return out


def _rolled(x: np.ndarray, lo: int, hi: int, shift: int, axis: int, out=None) -> np.ndarray:
    """Rows [lo, hi) along axis 0 of np.roll(x, shift, axis), shift +1 or -1, in `out` (new
    when None): two slices with the wrap along axis 0, `_roll_into` of the rows along others."""
    out = np.empty_like(x[lo:hi]) if out is None else out
    if axis:
        return _roll_into(out, x[lo:hi], shift, axis)
    start = (lo - shift) % len(x)  # row r of the roll is row r - shift of x
    head = min(hi - lo, len(x) - start)
    out[:head] = x[start:start + head]
    out[head:] = x[:hi - lo - head]
    return out


@lru_cache(maxsize=None)
def _terms(n: int, top: int, shift: int) -> tuple:
    """(source, target, axis, sign) per difference of d (shift -1) into or d* from degree top."""
    terms = []
    for j_pos, J in enumerate(components(n, top)):
        for m, axis in enumerate(J):
            i_pos = components(n, top - 1).index(J[:m] + J[m + 1:])
            terms.append(((i_pos, j_pos) if shift < 0 else (j_pos, i_pos)) + (axis, (np.add, np.subtract)[m % 2]))
    return tuple(terms)


def _differences(c: Cochain, degree: int, shift: int) -> Cochain:
    """d (shift -1) or d* (shift +1) of c by rows: per component, the signed sum from zero of
    (np.roll(x, shift, axis) - x) / h_axis, the forward difference or its adjoint."""
    h, terms = c.geom.spacings, _terms(c.geom.dim, max(c.degree, degree), shift)
    # a zero start, as 0.0 + (-0.0) is +0.0 where the first term alone is -0.0
    out = np.zeros(c.geom.shape(degree))

    def work(lo: int, hi: int) -> None:
        for src, dst, axis, sign in terms:
            x, total = c.values[src], out[dst, lo:hi]
            diff = _rolled(x, lo, hi, shift, axis)
            diff -= x[lo:hi]
            diff /= h[axis]
            sign(total, diff, out=total)
            del diff  # freed before the next is formed, so one is held at a time

    _by_rows(c.geom.sites, work)
    return Cochain(c.geom, degree, out)


def exterior_derivative(c: Cochain) -> Cochain:
    """Scaled forward-difference d: degree k -> k+1.  d(d(.)) = 0 to rounding."""
    if c.degree >= c.geom.dim:
        raise ValueError(f"exterior_derivative needs degree < {c.geom.dim}, got {c.degree}")
    return _differences(c, c.degree + 1, -1)


def codifferential(c: Cochain) -> Cochain:
    """Exact adjoint of `exterior_derivative` for the lattice L2 product."""
    if c.degree < 1:
        raise ValueError(f"codifferential needs degree >= 1, got {c.degree}")
    return _differences(c, c.degree - 1, +1)


def inner_product(a: Cochain, b: Cochain) -> float:
    """Diagonal L2 product: sum of products times the cell volume prod(h_i)."""
    a._check_compatible(b)
    return float(np.sum(a.values * b.values) * a.geom.cell_volume)


def norm(c: Cochain) -> float:
    return math.sqrt(max(inner_product(c, c), 0.0))


def laplacian(c: Cochain) -> Cochain:
    """Hodge Laplacian with the geometer's sign: Delta = -(dd* + d*d).

    -laplacian(.) is symmetric positive semidefinite; on the flat torus its
    kernel in degree k is the constant-component cochains, dimension C(n,k).
    """
    n, k = c.geom.dim, c.degree
    parts = zero_cochain(c.geom, k)
    if k < n:
        parts = parts + codifferential(exterior_derivative(c))
    if k > 0:
        parts = parts + exterior_derivative(codifferential(c))
    return -parts


@lru_cache(maxsize=32)
def stencil_eigenvalues(geom: TorusGeometry) -> np.ndarray:
    """Eigenvalues of -Delta per Fourier mode: sum_i (2/h_i^2)(1 - cos(2 pi k_i/N_i)).

    The same array diagonalizes every degree component-wise; equal (frozen)
    geometries share one cached array.
    """
    lam = np.zeros(geom.sites)
    for axis, (N, h) in enumerate(zip(geom.sites, geom.spacings)):
        shape = [1] * geom.dim
        shape[axis] = N
        freq = (2.0 / h**2) * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / N))
        lam = lam + freq.reshape(shape)
    return lam


# ----------------------------------------------------------------------------
# one worker set that splits the per-site kernels over the CPUs of the affinity
# mask: hodge._spectral_multiply by component rows, the rest (d, d*, the phase
# factors, links and all built on them, the energy densities, the gradient, the
# gauge transformations, the ansatz's tail) by axis-0 rows (_by_rows).  Each
# element keeps its operations and their order and reductions (sums, inner
# products, means) stay whole, so the bits do not depend on the number of CPUs.
# Of the benchmark lattices 256^2, 40^3 and 64^3 split; 160^2, 80^2, 28^3 do not.
# ----------------------------------------------------------------------------

# the fewest entries of one part of a split.  Timed inside the solves of
# min_t3_28 and sweep_quarter on a 2-vCPU x86-64 host, inline -> split in
# two, ms per call: the 5 x 28^3 preconditioner apply 1.32-1.36 -> 0.91-1.06
# and the 4 x 160^2 one 0.79-0.88 -> 0.58-0.71 gain; below 2 * 16,384
# entries a split gains nothing (_cis on a 28^3 axis 0.16-0.18 -> 0.16-0.17,
# on a 160^2 axis 0.20 -> 0.19-0.21) or loses (4 x 80^2: 0.23 -> 0.24-0.31),
# as waking an idle worker costs as much as the half it takes over.
_SPLIT_ENTRIES = 1 << 14
_jobs = SimpleQueue()   # the queue the workers read
_workers = 0            # workers started on _jobs
_starting = threading.Lock()


def _forget_workers() -> None:
    # a forked child inherits the queue but none of the threads that read it
    global _jobs, _workers, _starting
    _jobs, _workers, _starting = SimpleQueue(), 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Job:
    """One range of a split, run by whichever thread dequeues it; `done` is
    released once it has run."""

    __slots__ = ("work", "lo", "hi", "done", "error")

    def __init__(self, work, lo: int, hi: int):
        self.work, self.lo, self.hi, self.error = work, lo, hi, None
        self.done = threading.Lock()
        self.done.acquire()

    def run(self) -> None:
        try:
            self.work(self.lo, self.hi)
        except BaseException as exc:  # the caller raises it
            self.error = exc
        # drop the caller's arrays before the caller goes on: numpy reuses a
        # returned temporary in place only while nothing else holds it, and
        # that changes the bits of some complex products
        self.work = None
        self.done.release()


def _serve(jobs: SimpleQueue) -> None:
    while True:
        jobs.get().run()


def _split(count: int, weight: int, work, align: int = 1) -> None:
    """Run work(lo, hi) on consecutive ranges [lo, hi) that cover range(count)
    and begin at multiples of `align`, where each of the `count` units holds
    `weight` entries: at most one range per CPU of the affinity mask and per
    _SPLIT_ENTRIES entries.  The calling thread runs the first range, then
    every range still queued, its own or another caller's, and waits for the
    rest of its own; the workers are started on first use and kept for the
    life of the process (a forked child starts its own).  `work` must
    compute the same values for a range whichever thread runs it."""
    global _workers
    parts = count * weight // _SPLIT_ENTRIES
    if parts < 2 or (parts := min(parts, _cpus())) < 2:
        work(0, count)
        return
    step = -(-count // (parts * align)) * align
    pending = [_Job(work, lo, min(lo + step, count)) for lo in range(step, count, step)]
    if not pending:
        work(0, count)
        return
    with _starting:
        while _workers < len(pending):
            threading.Thread(target=_serve, args=(_jobs,), name=f"torusgl-worker-{_workers}",
                             daemon=True).start()
            _workers += 1
    for job in pending:
        _jobs.put(job)
    try:
        work(0, step)
    finally:
        try:
            while True:
                _jobs.get_nowait().run()
        except Empty:
            pass
        for job in pending:
            job.done.acquire()
    for job in pending:
        if job.error is not None:
            raise job.error


def _by_rows(sites: tuple[int, ...], work) -> None:
    """_split of work(lo, hi) over the axis-0 rows of a `sites` grid, each range beginning on
    a multiple of 64 entries, whole vector blocks of every SIMD width numpy dispatches to."""
    row = math.prod(sites[1:])
    _split(sites[0], row, work, 64 // math.gcd(row, 64))


# ----------------------------------------------------------------------------
# field dump format (repo-wide): one text header line
#   degree n N_1..N_n L_1..L_n component_count
# followed by one (component_count, N_1, ..., N_n) float64 array in numpy's .npy format 1.0.
# ----------------------------------------------------------------------------

def write_field(path, geom: TorusGeometry, degree: int, values: np.ndarray) -> None:
    """Dump a (ncomp, N_1, ..., N_n) real array bit for bit under its header line; raises
    ValueError unless its site axes are geom.sites."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape[1:] != geom.sites:
        raise ValueError(
            f"field of shape {values.shape} does not match the sites {geom.sites}"
        )
    head = [int(degree), geom.dim, *geom.sites, *(f"{L:.17g}" for L in geom.lengths), len(values)]
    # rewritten in place, then cut: truncating first makes ext4 drop and refill the file's cached pages
    with open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b") as fh:
        fh.write((" ".join(map(str, head)) + "\n").encode())
        np.lib.format.write_array(fh, values, version=(1, 0), allow_pickle=False)
        fh.truncate()


def read_field(path) -> tuple[TorusGeometry, int, np.ndarray]:
    """Inverse of `write_field`; returns (geometry, degree, values) with the bits written.
    Raises ValueError naming the path for any other file, such as a text dump of the old
    format, a truncated body or trailing bytes; sizes are checked before values are read."""
    with open(path, "rb") as fh:
        try:
            head = fh.readline().split()
            n = int(head[1])
            degree, sites = int(head[0]), tuple(int(s) for s in head[2:2 + n])
            lengths = tuple(float(s) for s in head[2 + n:2 + 2 * n])
            shape = (int(head[2 + 2 * n]), *sites)
            if len(head) != 3 + 2 * n or np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not one header line over a .npy 1.0 body")
            found = np.lib.format.read_array_header_1_0(fh)  # (shape, fortran_order, dtype)
            if found != (shape, False, np.dtype(np.float64)):
                raise ValueError(f"a .npy body of {found} under a header of shape {shape}")
            count, size = math.prod(shape), os.fstat(fh.fileno()).st_size - fh.tell()
            if size != 8 * count:
                raise ValueError(f"{size} bytes of values for {count} float64")
            values = np.fromfile(fh, dtype=np.float64, count=count).reshape(shape)
            return TorusGeometry(sites, lengths), degree, values
        except (IndexError, ValueError) as err:
            raise ValueError(f"{path} is not a field dump: {err}") from err
