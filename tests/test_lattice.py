"""Lattice calculus: exterior derivative, codifferential, inner product,
Laplacian, and the field dump format."""

import io
import math

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
    """The dump format is pinned byte for byte, signed zero and subnormals
    included: one header line, then one line per component in C order."""
    geom = tg.TorusGeometry((4, 4), (1.0, 0.5))
    comp = np.arange(16.0) / 4.0
    comp[0], comp[1], comp[15] = -0.0, 5e-324, 1.0 / 3.0
    path = tmp_path / "pinned.field"
    write_field(path, geom, 0, np.stack([comp, -comp]).reshape(2, 4, 4))
    assert path.read_bytes() == (
        b"0 2 4 4 1 0.5 2\n"
        b"-0 4.9406564584124654e-324 0.5 0.75 1 1.25 1.5 1.75 2 2.25 2.5 2.75 3 3.25 3.5 "
        b"0.33333333333333331\n"
        b"0 -4.9406564584124654e-324 -0.5 -0.75 -1 -1.25 -1.5 -1.75 -2 -2.25 -2.5 -2.75 "
        b"-3 -3.25 -3.5 -0.33333333333333331\n"
    )


def _savetxt_rows(values):
    """The reference writer's bytes for the rows of a dump: np.savetxt over
    one row per component."""
    buf = io.StringIO()
    np.savetxt(buf, values.reshape(len(values), -1), fmt="%.17g")
    return buf.getvalue().encode()


def _assert_dump_is_savetxt(path, geom, degree, values):
    """write_field's rows are np.savetxt's bytes and read back bit for bit."""
    write_field(path, geom, degree, values)
    assert path.read_bytes().split(b"\n", 1)[1] == _savetxt_rows(values)
    geom2, degree2, back = read_field(path)
    assert (geom2, degree2) == (geom, degree)
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1.0 / 3.0, math.inf, -math.inf, math.nan])
def test_field_dump_constant_rows(tmp_path, value):
    """A component that holds one value is written with the bytes np.savetxt
    writes for it, and reads back bit for bit."""
    geom = tg.TorusGeometry((4, 5), (1.0, 0.5))
    _assert_dump_is_savetxt(tmp_path / "constant.field", geom, 1, np.full(geom.shape(1), value))


def test_field_dump_mixes_constant_and_varying_rows(tmp_path, rng):
    """Constant components interleaved with varying ones, one of them mixing
    0.0 and -0.0 (equal as floats, not as bits): the bytes are np.savetxt's,
    both signs of zero are printed, and the dump reads back bit for bit."""
    geom = tg.TorusGeometry((4, 5, 6), (1.0, 0.5, 2.0))
    zeros = np.where(rng.random(geom.sites) < 0.5, 0.0, -0.0)
    zeros.flat[:2] = 0.0, -0.0
    dumps = [
        (1, np.stack([np.zeros(geom.sites), zeros, rng.standard_normal(geom.sites)])),
        (2, np.stack([np.full(geom.sites, 1.0 / 3.0), rng.standard_normal(geom.sites),
                      np.full(geom.sites, math.nan)])),
    ]
    for degree, values in dumps:
        _assert_dump_is_savetxt(tmp_path / f"mixed_{degree}.field", geom, degree, values)
    signed_zero_row = (tmp_path / "mixed_1.field").read_bytes().split(b"\n")[2]
    assert set(signed_zero_row.split()) == {b"0", b"-0"}


def test_field_dump_line_rows(tmp_path, rng):
    """Components constant along the last axis, as every field of a T^3
    line is along its axis: N/64 distinct values per row of N."""
    geom = tg.TorusGeometry((8, 8, 64), (1.0, 1.0, 2.0))
    values = np.repeat(rng.standard_normal((3, 8, 8, 1)), 64, axis=3)
    assert len(np.unique(values[0])) == geom.n_sites // 64
    _assert_dump_is_savetxt(tmp_path / "line.field", geom, 1, values)


@pytest.mark.parametrize("distinct", [10, 11])
def test_field_dump_rows_at_the_distinct_value_threshold(tmp_path, rng, distinct):
    """Rows of 20 values with exactly half of them distinct, and one more."""
    geom = tg.TorusGeometry((4, 5), (1.0, 0.5))
    pool = rng.standard_normal(distinct)
    values = np.stack([rng.permutation(np.resize(pool, 20)) for _ in range(2)])
    assert [len(np.unique(row)) for row in values] == [distinct, distinct]
    _assert_dump_is_savetxt(tmp_path / "threshold.field", geom, 1, values.reshape(2, 4, 5))


def test_field_dump_repeated_special_values(tmp_path, rng):
    """A repeated row mixing 0.0, -0.0 (equal as floats, not as bits), NaN,
    both infinities and the smallest subnormal."""
    geom = tg.TorusGeometry((6, 8), (1.0, 0.5))
    special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324])
    values = rng.choice(special, size=(1, *geom.sites))
    values.flat[:6] = special
    _assert_dump_is_savetxt(tmp_path / "special.field", geom, 0, values)
    row = (tmp_path / "special.field").read_bytes().split(b"\n")[1]
    assert set(row.split()) == {b"0", b"-0", b"nan", b"inf", b"-inf", b"4.9406564584124654e-324"}


@pytest.mark.parametrize("runs", [8, 9])
def test_field_dump_rows_at_the_run_threshold(tmp_path, rng, runs):
    """Rows of 64 values in 8 runs of equal values (one run per 8 values, so
    written run by run) and in 9 runs, with random run lengths."""
    geom = tg.TorusGeometry((8, 8), (1.0, 0.5))
    rows = []
    for _ in range(2):
        cuts = np.sort(rng.choice(np.arange(1, 64), runs - 1, replace=False))
        rows.append(np.repeat(rng.standard_normal(runs), np.diff(cuts, prepend=0, append=64)))
    values = np.stack(rows).reshape(2, 8, 8)
    assert [np.count_nonzero(np.diff(row)) + 1 for row in rows] == [runs, runs]
    _assert_dump_is_savetxt(tmp_path / "runs.field", geom, 1, values)


def test_field_dump_periodic_rows(tmp_path, rng):
    """Components constant along the first axis, as every field of a T^3 line
    along axis 0 is: rows that repeat with period N_1 N_2 and runs of one."""
    geom = tg.TorusGeometry((8, 6, 5), (1.0, 1.0, 2.0))
    values = np.broadcast_to(rng.standard_normal((3, 1, 6, 5)), geom.shape(1)).copy()
    _assert_dump_is_savetxt(tmp_path / "periodic.field", geom, 1, values)


def test_field_dump_alternating_rows(tmp_path):
    """A row alternating between two values: few distinct values, no runs."""
    geom = tg.TorusGeometry((6, 8), (1.0, 0.5))
    values = np.resize([1.0 / 3.0, -2.0 / 7.0], (1, *geom.sites))
    _assert_dump_is_savetxt(tmp_path / "alternating.field", geom, 0, values)


def test_field_dump_runs_of_signed_zeros_and_special_values(tmp_path):
    """Adjacent runs of 0.0 and -0.0 (equal as floats, not as bits), and runs
    of NaN and both infinities, written run by run."""
    geom = tg.TorusGeometry((8, 16), (1.0, 0.5))
    values = np.stack([
        np.repeat([0.0, -0.0, 0.0, -0.0], 32),
        np.repeat([math.nan, math.inf, -math.inf, math.nan, 0.5, -math.inf], [8, 40, 16, 24, 8, 32]),
    ]).reshape(2, 8, 16)
    _assert_dump_is_savetxt(tmp_path / "runs.field", geom, 0, values)
    rows = (tmp_path / "runs.field").read_bytes().split(b"\n")[1:3]
    assert rows[0].split()[31:33] == [b"0", b"-0"]
    assert set(rows[1].split()) == {b"nan", b"inf", b"-inf", b"0.5"}


def _assert_reads_as_loadtxt(path):
    """read_field's values are np.loadtxt's over the body, bit for bit."""
    with open(path) as fh:
        fh.readline()
        expected = np.loadtxt(fh).reshape(-1)
    assert np.array_equal(read_field(path)[2].reshape(-1).view(np.int64), expected.view(np.int64))


def _run_rows(rng):
    """Two components of 64 values in runs of 16 and one constant."""
    return np.stack([np.repeat(rng.standard_normal(4), 16), np.full(64, 1.0 / 3.0)])


@pytest.mark.parametrize("layout", ["tabs", "double_spaces", "crlf", "trailing_space",
                                    "comment", "wrapped", "tab_pairs"])
def test_field_read_other_layouts(tmp_path, rng, layout):
    """Rows of long runs laid out otherwise than write_field lays them out
    read as np.loadtxt reads them."""
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
    _assert_reads_as_loadtxt(path)
    assert np.array_equal(read_field(path)[2].reshape(len(values), -1), values)


@pytest.mark.parametrize("damage", ["few", "many", "shifted", "token", "comment", "empty", "extra"])
def test_field_read_rejects_damaged_rows(tmp_path, rng, damage):
    """Rows of long runs with a value too few or too many, with a value moved
    to the next row, with a token that is no number or a comment mark on
    every word, a row left empty, or a row more than the header's count,
    are refused."""
    first, second = (" ".join("%.17g" % x for x in row) for row in _run_rows(rng))
    head, last = first.rsplit(" ", 1)
    rows = {
        "few": [first, second.rsplit(" ", 1)[0]],
        "many": [first, second + " 0.5"],
        "shifted": [head, last + " " + second],
        "token": [first, second.replace("0.33333333333333331", "0.3333x", 1)],
        "comment": [first, second.replace(" ", "# ") + "#"],
        "empty": [first, ""],
        "extra": [first, second, second],
    }[damage]
    path = tmp_path / "damaged.field"
    path.write_text("0 2 8 8 1 1 2\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        read_field(path)


def test_field_read_rejects_a_header_larger_than_its_body(tmp_path):
    """A header claiming 10^20 sites over a line of four values is refused as
    any row of too few values is, without building a line of 10^20 words."""
    path = tmp_path / "huge.field"
    path.write_text("0 2 10000000000 10000000000 1 1 1\n0 0 0 0\n")
    with pytest.raises(ValueError):
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
