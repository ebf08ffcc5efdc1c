"""Lattice calculus: exterior derivative, codifferential, inner product,
Laplacian, and the field dump format."""

import io
import math
import re
import struct

import numpy as np
import pytest

import torusgl as tg
from torusgl.lattice import (
    codifferential,
    constant_cochain,
    exterior_derivative,
    inner_product,
    laplacian,
    norm,
    random_cochain,
    read_field,
    stencil_eigenvalues,
    write_field,
    zero_cochain,
)

GEOMS = [
    tg.TorusGeometry((8, 8), (1.0, 1.0)),
    tg.TorusGeometry((4, 6, 8), (1.0, 1.5, 2.0)),
    tg.TorusGeometry((4, 5, 4, 6), (1.0, 1.25, 0.8, 1.5)),
]


def test_geometry_invariants():
    g = tg.TorusGeometry((8, 6), (2.0, 3.0))
    assert g.dim == 2
    assert g.spacings == (0.25, 0.5)
    assert g.volume == 6.0
    for k in range(3):
        assert g.n_cells(k) == math.comb(2, k) * 48
    with pytest.raises(ValueError):
        tg.TorusGeometry((3, 8), (1.0, 1.0))
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        tg.TorusGeometry((8,), (1.0,))
    assert tg.TorusGeometry((4, 5, 4, 6), (1.0, 1.25, 0.8, 1.5)).dim == 4
    for sites in ((16.9, 8), (8, 7.5), (float("nan"), 8)):
        with pytest.raises(ValueError, match="integers"):
            tg.TorusGeometry(sites, (1.0, 1.0))
    assert tg.TorusGeometry((16.0, 8), (1.0, 1.0)).sites == (16, 8)
    for lengths in ((1.0, -1.0), (float("nan"), 1.0), (float("inf"), 1.0)):
        with pytest.raises(ValueError):
            tg.TorusGeometry((8, 8), lengths)


def test_d_of_constant_is_zero():
    g = GEOMS[0]
    c = constant_cochain(g, 0, 3.0)
    assert np.all(exterior_derivative(c).values == 0.0)


def test_d_single_site_value():
    # phi = 1 at (0,0) on a 4^2 torus with h = 1/4: d on edge (0,0)->(1,0) is -4
    g = tg.TorusGeometry((4, 4), (1.0, 1.0))
    vals = np.zeros((1, 4, 4))
    vals[0, 0, 0] = 1.0
    d = exterior_derivative(tg.Cochain(g, 0, vals))
    assert d.values[0, 0, 0] == -4.0
    # and +4 on the edge arriving from (3,0)
    assert d.values[0, 3, 0] == 4.0


@pytest.mark.parametrize("geom", GEOMS)
def test_dd_is_zero(geom, rng):
    for k in range(geom.dim - 1):
        c = random_cochain(geom, k, rng)
        dd = exterior_derivative(exterior_derivative(c))
        scale = np.abs(c.values).max() / min(geom.spacings) ** 2
        assert np.abs(dd.values).max() <= 1e-12 * scale


@pytest.mark.parametrize("geom", GEOMS)
def test_codifferential_squared_zero(geom, rng):
    for k in range(2, geom.dim + 1):
        c = random_cochain(geom, k, rng)
        dstar2 = codifferential(codifferential(c))
        scale = np.abs(c.values).max() / min(geom.spacings) ** 2
        assert np.abs(dstar2.values).max() <= 1e-12 * scale


def test_codifferential_of_constant_is_zero():
    g = GEOMS[0]
    assert np.all(codifferential(constant_cochain(g, 1, 1.0)).values == 0.0)


@pytest.mark.parametrize("geom", GEOMS)
def test_adjointness(geom, rng):
    for k in range(geom.dim):
        for _ in range(100):
            a = random_cochain(geom, k, rng)
            b = random_cochain(geom, k + 1, rng)
            lhs = inner_product(exterior_derivative(a), b)
            rhs = inner_product(a, codifferential(b))
            assert abs(lhs - rhs) <= 1e-12 * norm(a) * norm(b)


def test_adjointness_through_exact_forms(rng):
    g = GEOMS[0]
    phi = random_cochain(g, 0, rng)
    beta = exterior_derivative(phi)
    psi = random_cochain(g, 0, rng)
    lhs = inner_product(codifferential(beta), psi)
    rhs = inner_product(beta, exterior_derivative(psi))
    assert abs(lhs - rhs) <= 1e-12 * norm(beta) * norm(psi)


def test_inner_product_basics():
    g = tg.TorusGeometry((4, 4), (1.0, 1.0))
    one = constant_cochain(g, 0, 1.0)
    assert inner_product(one, one) == pytest.approx(g.volume)
    a = zero_cochain(g, 0)
    b = zero_cochain(g, 0)
    a.values[0, 0, 0] = 1.0
    b.values[0, 1, 1] = 1.0
    assert inner_product(a, b) == 0.0
    assert inner_product(a, a) == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError):
        inner_product(a, zero_cochain(g, 1))


def test_degree_bounds():
    g = GEOMS[0]
    for degree in (-1, g.dim + 1):
        with pytest.raises(ValueError, match="out of range"):
            tg.Cochain(g, degree, np.zeros(g.shape(0)))
    with pytest.raises(ValueError, match="values shape"):
        tg.Cochain(g, 1, np.zeros(g.shape(0)))
    with pytest.raises(ValueError):
        exterior_derivative(random_cochain(g, g.dim, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        codifferential(random_cochain(g, 0, np.random.default_rng(0)))


def test_laplacian_kernel_and_sign(rng):
    for geom in GEOMS:
        for k in range(geom.dim + 1):
            const = constant_cochain(geom, k, np.arange(1, geom.shape(k)[0] + 1))
            assert np.abs(laplacian(const).values).max() <= 1e-12
            c = random_cochain(geom, k, rng)
            assert inner_product(-1.0 * laplacian(c), c) >= 0.0


def test_laplacian_fourier_eigenvalue():
    N, L = 8, 1.0
    h = L / N
    g = tg.TorusGeometry((N, N), (L, L))
    for k in range(1, N):
        x = np.arange(N) * h
        mode = np.cos(2 * np.pi * k * x / L)
        vals = np.broadcast_to(mode[:, None], (1, N, N)).copy()
        c = tg.Cochain(g, 0, vals)
        lam = (2.0 / h**2) * (1.0 - np.cos(2 * np.pi * k / N))
        res = -1.0 * laplacian(c) - lam * c
        assert np.abs(res.values).max() <= 1e-10 * lam


def test_laplacian_commutes_with_d_and_dstar(rng):
    for geom in GEOMS:
        for k in range(geom.dim + 1):
            c = random_cochain(geom, k, rng)
            if k < geom.dim:
                lhs = exterior_derivative(laplacian(c))
                rhs = laplacian(exterior_derivative(c))
                assert norm(lhs - rhs) <= 1e-10 * max(norm(rhs), 1.0)
            if k > 0:
                lhs = codifferential(laplacian(c))
                rhs = laplacian(codifferential(c))
                assert norm(lhs - rhs) <= 1e-10 * max(norm(rhs), 1.0)


def test_stencil_kernel_dimension():
    from torusgl.hodge import harmonic_dimension

    for geom in GEOMS:
        lam = stencil_eigenvalues(geom)
        assert int(np.count_nonzero(lam < 1e-10)) == 1
        for k in range(geom.dim + 1):
            assert harmonic_dimension(geom, k) == math.comb(geom.dim, k)


def test_field_dump_roundtrip(tmp_path, rng):
    for geom in GEOMS:
        for k in range(geom.dim + 1):
            c = random_cochain(geom, k, rng)
            path = tmp_path / f"dump_{geom.dim}_{k}.field"
            write_field(path, geom, k, c.values)
            geom2, k2, vals = read_field(path)
            assert geom2 == geom
            assert k2 == k
            assert np.array_equal(vals, c.values)


def test_field_dump_exact_bytes(tmp_path):
    """The dump format is pinned byte for byte: one text header line, then
    numpy's .npy 1.0 header for a C-order little-endian float64 array,
    padded with spaces to 128 bytes, then the values component-major, signed
    zero and subnormals included."""
    geom = tg.TorusGeometry((4, 4), (1.0, 0.5))
    comp = np.arange(16.0) / 4.0
    comp[0], comp[1], comp[15] = -0.0, 5e-324, 1.0 / 3.0
    path = tmp_path / "pinned.field"
    write_field(path, geom, 0, np.stack([comp, -comp]).reshape(2, 4, 4))
    npy_header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, 4, 4), }"
    assert path.read_bytes() == (
        b"0 2 4 4 1 0.5 2\n"
        + b"\x93NUMPY\x01\x00\x76\x00" + npy_header.ljust(117) + b"\n"
        + struct.pack("<32d", *comp, *-comp)
    )


def test_field_dump_header_line(tmp_path):
    """The first line of a dump is its text header `degree n N_1..N_n
    L_1..L_n component_count`, lengths to 17 significant digits, as
    `head -1` shows it."""
    geom = tg.TorusGeometry((4, 6, 8), (1.0, 1.5, 0.1))
    path = tmp_path / "head.field"
    write_field(path, geom, 1, np.zeros(geom.shape(1)))
    assert path.read_bytes().split(b"\n", 1)[0] == b"1 3 4 6 8 1 1.5 0.10000000000000001 3"


def _npy_bytes(values):
    """numpy's own .npy 1.0 encoding of values, the reference for the body
    of a dump."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, values, version=(1, 0))
    return buf.getvalue()


def _assert_dump_is_npy(path, geom, degree, values):
    """write_field's body is numpy's .npy bytes of the values, and they read
    back bit for bit; returns them as read."""
    write_field(path, geom, degree, values)
    assert path.read_bytes().split(b"\n", 1)[1] == _npy_bytes(values)
    geom2, degree2, back = read_field(path)
    assert (geom2, degree2) == (geom, degree)
    assert np.array_equal(back.view(np.int64), values.view(np.int64))
    return back


# NaNs with payloads: a quiet NaN other than numpy's, and a signalling one
# with its sign bit set
_NAN_PAYLOADS = np.array([0x7FF8_DEAD_BEEF_0001, -0x000F_FFFF_FFFF_FFFF], dtype=np.int64)


@pytest.mark.parametrize("geom", GEOMS, ids=["T2", "T3", "T4"])
def test_field_dump_special_values_bit_for_bit(tmp_path, rng, geom):
    """-0.0, the smallest subnormal, both infinities and NaNs with payloads,
    scattered through a random cochain of every degree, read back with the
    bits written."""
    special = np.concatenate([[-0.0, 5e-324, math.inf, -math.inf], _NAN_PAYLOADS.view(np.float64)])
    for k in range(geom.dim + 1):
        values = random_cochain(geom, k, rng).values
        flat = values.reshape(-1)
        flat[rng.choice(flat.size, 4 * special.size, replace=False)] = np.repeat(special, 4)
        back = _assert_dump_is_npy(tmp_path / f"special_{k}.field", geom, k, values)
        assert set(_NAN_PAYLOADS) <= set(back.reshape(-1).view(np.int64).tolist())


def test_field_dump_rewrites_identical_bytes(tmp_path, rng):
    """Two writes of one field give the same bytes, also when the second is
    handed a non-contiguous array of the same values."""
    geom = GEOMS[1]
    values = random_cochain(geom, 2, rng).values
    first, second = tmp_path / "first.field", tmp_path / "second.field"
    write_field(first, geom, 2, values)
    write_field(second, geom, 2, np.asfortranarray(values))
    assert first.read_bytes() == second.read_bytes()
    write_field(second, geom, 2, values[:, ::-1][:, ::-1])
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1.0 / 3.0, math.inf, -math.inf, math.nan])
def test_field_dump_constant_rows(tmp_path, value):
    """A component that holds one value is written as numpy's .npy bytes,
    and reads back bit for bit."""
    geom = tg.TorusGeometry((4, 5), (1.0, 0.5))
    _assert_dump_is_npy(tmp_path / "constant.field", geom, 1, np.full(geom.shape(1), value))


def test_field_dump_mixes_constant_and_varying_rows(tmp_path, rng):
    """Constant components interleaved with varying ones, one of them mixing
    0.0 and -0.0 (equal as floats, not as bits): both signs of zero read
    back."""
    geom = tg.TorusGeometry((4, 5, 6), (1.0, 0.5, 2.0))
    zeros = np.where(rng.random(geom.sites) < 0.5, 0.0, -0.0)
    zeros.flat[:2] = 0.0, -0.0
    dumps = [
        (1, np.stack([np.zeros(geom.sites), zeros, rng.standard_normal(geom.sites)])),
        (2, np.stack([np.full(geom.sites, 1.0 / 3.0), rng.standard_normal(geom.sites),
                      np.full(geom.sites, math.nan)])),
    ]
    for degree, values in dumps:
        _assert_dump_is_npy(tmp_path / f"mixed_{degree}.field", geom, degree, values)
    back = read_field(tmp_path / "mixed_1.field")[2]
    assert set(np.signbit(back[1]).reshape(-1).tolist()) == {False, True}


def test_field_dump_line_rows(tmp_path, rng):
    """Components constant along the last axis, as every field of a T^3
    line is along its axis: N/64 distinct values per row of N."""
    geom = tg.TorusGeometry((8, 8, 64), (1.0, 1.0, 2.0))
    values = np.repeat(rng.standard_normal((3, 8, 8, 1)), 64, axis=3)
    assert len(np.unique(values[0])) == geom.n_sites // 64
    _assert_dump_is_npy(tmp_path / "line.field", geom, 1, values)


@pytest.mark.parametrize("distinct", [10, 11])
def test_field_dump_rows_at_the_distinct_value_threshold(tmp_path, rng, distinct):
    """Rows of 20 values with exactly half of them distinct, and one more."""
    geom = tg.TorusGeometry((4, 5), (1.0, 0.5))
    pool = rng.standard_normal(distinct)
    values = np.stack([rng.permutation(np.resize(pool, 20)) for _ in range(2)])
    assert [len(np.unique(row)) for row in values] == [distinct, distinct]
    _assert_dump_is_npy(tmp_path / "threshold.field", geom, 1, values.reshape(2, 4, 5))


def test_field_dump_repeated_special_values(tmp_path, rng):
    """A repeated row mixing 0.0, -0.0 (equal as floats, not as bits), NaN,
    both infinities and the smallest subnormal."""
    geom = tg.TorusGeometry((6, 8), (1.0, 0.5))
    special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324])
    values = rng.choice(special, size=(1, *geom.sites))
    values.flat[:6] = special
    _assert_dump_is_npy(tmp_path / "special.field", geom, 0, values)


@pytest.mark.parametrize("runs", [8, 9])
def test_field_dump_rows_at_the_run_threshold(tmp_path, rng, runs):
    """Rows of 64 values in 8 and in 9 runs of equal values, with random run
    lengths."""
    geom = tg.TorusGeometry((8, 8), (1.0, 0.5))
    rows = []
    for _ in range(2):
        cuts = np.sort(rng.choice(np.arange(1, 64), runs - 1, replace=False))
        rows.append(np.repeat(rng.standard_normal(runs), np.diff(cuts, prepend=0, append=64)))
    values = np.stack(rows).reshape(2, 8, 8)
    assert [np.count_nonzero(np.diff(row)) + 1 for row in rows] == [runs, runs]
    _assert_dump_is_npy(tmp_path / "runs.field", geom, 1, values)


def test_field_dump_periodic_rows(tmp_path, rng):
    """Components constant along the first axis, as every field of a T^3 line
    along axis 0 is: rows that repeat with period N_1 N_2 and runs of one."""
    geom = tg.TorusGeometry((8, 6, 5), (1.0, 1.0, 2.0))
    values = np.broadcast_to(rng.standard_normal((3, 1, 6, 5)), geom.shape(1))
    _assert_dump_is_npy(tmp_path / "periodic.field", geom, 1, values)


def test_field_dump_alternating_rows(tmp_path):
    """A row alternating between two values: few distinct values, no runs."""
    geom = tg.TorusGeometry((6, 8), (1.0, 0.5))
    values = np.resize([1.0 / 3.0, -2.0 / 7.0], (1, *geom.sites))
    _assert_dump_is_npy(tmp_path / "alternating.field", geom, 0, values)


def test_field_dump_runs_of_signed_zeros_and_special_values(tmp_path):
    """Adjacent runs of 0.0 and -0.0 (equal as floats, not as bits), and runs
    of NaN and both infinities."""
    geom = tg.TorusGeometry((8, 16), (1.0, 0.5))
    values = np.stack([
        np.repeat([0.0, -0.0, 0.0, -0.0], 32),
        np.repeat([math.nan, math.inf, -math.inf, math.nan, 0.5, -math.inf], [8, 40, 16, 24, 8, 32]),
    ]).reshape(2, 8, 16)
    back = _assert_dump_is_npy(tmp_path / "runs.field", geom, 0, values)
    assert np.signbit(back[0].reshape(-1)[31:33]).tolist() == [False, True]


def _run_rows(rng):
    """Two components of 64 values in runs of 16 and one constant."""
    return np.stack([np.repeat(rng.standard_normal(4), 16), np.full(64, 1.0 / 3.0)])


def _refused(path):
    """read_field refuses the file with a ValueError that names its path."""
    return pytest.raises(ValueError, match=re.escape(str(path)))


@pytest.mark.parametrize("layout", ["tabs", "double_spaces", "crlf", "trailing_space",
                                    "comment", "wrapped", "tab_pairs"])
def test_field_read_other_layouts(tmp_path, rng, layout):
    """Text dumps of the old format (rows of `%.17g` words under the same
    header line), in every layout it read, are refused: no .npy magic."""
    if layout == "wrapped":  # one component written over two lines of 32 values
        values = _run_rows(rng)[:1]
    elif layout == "tab_pairs":  # two values alternating, each pair joined by a tab
        values = np.resize(rng.standard_normal(2), (2, 64))
    else:
        values = _run_rows(rng)
    rows = [" ".join("%.17g" % x for x in row)
            for row in values.reshape(-1, 32 if layout == "wrapped" else 64)]
    body = {
        "tabs": "\n".join(row.replace(" ", "\t") for row in rows) + "\n",
        "double_spaces": "\n".join(row.replace(" ", "  ") for row in rows) + "\n",
        "crlf": "\r\n".join(rows) + "\r\n",
        "trailing_space": "\n".join(row + " " for row in rows) + "\n",
        "comment": "\n".join(row + " # one row" for row in rows) + "\n",
        "wrapped": "\n".join(rows) + "\n",
        # 32 equal space-separated words and 32 form feeds: 64 words, 64 values
        "tab_pairs": "\n".join(" ".join(["\t".join(row.split()[:2])] * 32 + ["\f"] * 32)
                               for row in rows) + "\n",
    }[layout]
    path = tmp_path / "layout.field"
    path.write_bytes(f"0 2 8 8 1 1 {len(values)}\n".encode() + body.encode())
    with _refused(path):
        read_field(path)


@pytest.mark.parametrize("damage", ["few", "many", "shifted", "token", "comment", "empty", "extra"])
def test_field_read_rejects_damaged_rows(tmp_path, rng, damage):
    """A body truncated by one value, one value too long, an array of the
    header's size but another shape, an int64 array of the header's shape
    and size, an object array (refused before anything is unpickled), no
    body at all, or a second array after the first: each is refused."""
    values = _run_rows(rng).reshape(2, 8, 8)
    body = _npy_bytes(values)
    body = {
        "few": body[:-8],
        "many": body + struct.pack("<d", 0.5),
        "shifted": _npy_bytes(values.reshape(2, 64)),
        "token": _npy_bytes(values.view(np.int64)),
        "comment": _npy_bytes(values.astype(object)),
        "empty": b"",
        "extra": body + body,
    }[damage]
    path = tmp_path / "damaged.field"
    path.write_bytes(b"0 2 8 8 1 1 2\n" + body)
    with _refused(path):
        read_field(path)


def test_field_read_rejects_a_header_larger_than_its_body(tmp_path):
    """A header line claiming 10^20 sites over an array of four values, or
    a .npy header claiming them as well, is refused from the sizes alone,
    before anything of that size is allocated."""
    huge = {"descr": "<f8", "fortran_order": False, "shape": (1, 10**10, 10**10)}
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, huge)
    path = tmp_path / "huge.field"
    for body in [_npy_bytes(np.zeros((1, 2, 2))), buf.getvalue() + bytes(32)]:
        path.write_bytes(b"0 2 10000000000 10000000000 1 1 1\n" + body)
        with _refused(path):
            read_field(path)


def test_field_dump_rejects_mismatched_sites(tmp_path):
    """A field whose site axes differ from the geometry's is refused before
    anything is written, not dumped under a header it cannot be read back
    with."""
    geom = tg.TorusGeometry((64, 64), (1.0, 1.0))
    path = tmp_path / "bad.field"
    for shape in [(2, 32, 32), (2, 64), (64, 64), (2, 64, 64, 1)]:
        with pytest.raises(ValueError, match="sites"):
            write_field(path, geom, 0, np.zeros(shape))
        assert not path.exists()
