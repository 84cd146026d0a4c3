import csv
import io
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st

from twoview import serialization as ser
from twoview.algebra import UNDEFINED, FiniteMagma
from twoview.diffgeo import ConnectionField, GridHeader, VectorFieldGrid
from twoview.errors import InputError, NumericalError
from twoview.geometry import (
    CSR,
    PointCloud,
    Projected2D,
    Sinogram,
    VoxelGrid,
)
from conftest import random_cloud, random_spec


class TestCloudAndSpec:
    def test_cloud_round_trip(self, rng, tmp_path):
        cloud = random_cloud(rng, 17)
        path = tmp_path / "cloud.json"
        ser.save_cloud(cloud, path)
        back = ser.load_cloud(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        np.testing.assert_array_equal(back.weights, cloud.weights)

    def test_spec_round_trip(self, rng, tmp_path):
        spec = random_spec(rng)
        path = tmp_path / "spec.json"
        ser.save_spec(spec, path)
        back = ser.load_spec(path)
        np.testing.assert_array_equal(back.u, spec.u)
        np.testing.assert_array_equal(back.n, spec.n)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            ser.load_cloud(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError):
            ser.load_cloud(bad)

    def test_malformed_cloud(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": [{"p": [1, 2], "w": 1.0}]}')
        with pytest.raises(InputError):
            ser.load_cloud(bad)

    def test_deterministic_bytes(self, rng, tmp_path):
        cloud = random_cloud(rng, 5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ser.save_cloud(cloud, a)
        ser.save_cloud(cloud, b)
        assert a.read_bytes() == b.read_bytes()


# values whose JSON and repr spellings are easy to get wrong
AWKWARD = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1.0, -2.0, 3.0, 1e22, 0.1,
           2.5e-308, 1.7976931348623157e308, 123456789.0, 1e15, 1e-4]


def json_points_oracle(points) -> bytes:
    """What `json.dump(indent=2, sort_keys=True)` + newline writes."""
    doc = {"points": [{"p": list(p), "w": w} for p, w in
                      zip(points.positions.tolist(), points.weights.tolist())]}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def csv_rows_oracle(array2d) -> bytes:
    """What `csv.writer` writes for rows of `repr(float(x))` cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in np.asarray(array2d, dtype=float):
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue().encode()


def float_rows_reference(text: str) -> np.ndarray:
    """One `float()` per cell of each non-empty `csv.reader` row."""
    return np.array([[float(x) for x in row]
                     for row in csv.reader(io.StringIO(text, newline=""))
                     if row], dtype=float)


@pytest.fixture(params=[1, 7, None], ids=["block1", "block7", "default"])
def write_values(request, monkeypatch):
    """Each bulk writer at 1 and 7 values per formatted block and at the
    default `_WRITE_VALUES`."""
    if request.param is not None:
        monkeypatch.setattr(ser, "_WRITE_VALUES", request.param)
    return ser._WRITE_VALUES


def awkward_points(rng, cls):
    vals = np.array(AWKWARD)
    dim = 3 if cls is PointCloud else 2
    pos = np.concatenate([vals, -vals, rng.permutation(vals)])
    return cls(pos[:dim * len(vals)].reshape(-1, dim), np.abs(vals))


class TestGoldenBytes:
    @pytest.mark.parametrize("make", [
        lambda rng: random_cloud(rng, 40),
        lambda rng: Projected2D(rng.standard_normal((40, 2)),
                                rng.uniform(0.5, 2.0, 40)),
        lambda rng: PointCloud(np.zeros((0, 3)), np.zeros(0)),
        lambda rng: Projected2D(np.zeros((0, 2)), np.zeros(0)),
        lambda rng: PointCloud([[1.0, -0.0, 5e-324]], [1e16]),
        lambda rng: Projected2D([[1e-5, 2.0]], [0.0]),
        lambda rng: awkward_points(rng, PointCloud),
        lambda rng: awkward_points(rng, Projected2D),
        lambda rng: PointCloud(rng.integers(-5, 5, (9, 3)).astype(float),
                               rng.integers(0, 5, 9).astype(float)),
    ], ids=["cloud", "image", "empty-cloud", "empty-image", "one-point",
            "one-pixel", "awkward-cloud", "awkward-image", "integral"])
    @pytest.mark.usefixtures("write_values")
    def test_points_writer_matches_json_dump(self, make, rng, tmp_path):
        points = make(rng)
        path = tmp_path / "p.json"
        ser._save_points(points, path)
        assert path.read_bytes() == json_points_oracle(points)
        back = ser._load_points(path, points.positions.shape[1])
        np.testing.assert_array_equal(back.positions.view(np.int64),
                                      points.positions.view(np.int64))
        np.testing.assert_array_equal(back.weights.view(np.int64),
                                      points.weights.view(np.int64))

    @pytest.mark.parametrize("make", [
        lambda rng: rng.standard_normal((7, 5)),
        lambda rng: rng.standard_normal((1, 9)) * 1e300,
        lambda rng: rng.uniform(0, 1, (6, 1)),
        lambda rng: np.array(AWKWARD).reshape(3, 5),
        lambda rng: -np.array(AWKWARD).reshape(5, 3),
        lambda rng: np.zeros((0, 4)),
        lambda rng: np.zeros((3, 0)),
    ], ids=["random", "huge", "one-column", "awkward", "negated", "no-rows",
            "no-columns"])
    @pytest.mark.usefixtures("write_values")
    def test_row_writer_matches_csv_writer(self, make, rng, tmp_path):
        array = make(rng)
        path = tmp_path / "rows.csv"
        ser._write_rows(path, array)
        assert path.read_bytes() == csv_rows_oracle(array)

    @pytest.mark.usefixtures("write_values")
    def test_row_writer_ends_lines_in_crlf(self, tmp_path):
        path = tmp_path / "rows.csv"
        ser._write_rows(path, [[1.0, -0.0], [5e-324, 1e16]])
        assert path.read_bytes() == b"1.0,-0.0\r\n5e-324,1e+16\r\n"

    @pytest.mark.parametrize("width", [1, 3, 7, 8, 20])
    def test_formatted_writes_one_block_per_write(self, width, write_values,
                                                  rng):
        # Python ints and floats side by side, as in Matrix Market lines
        n = 23
        ints = rng.integers(-10**12, 10**12, n)
        floats = rng.standard_normal((n, width - 1)) * 10.0 ** rng.integers(
            -300, 300, (n, width - 1))
        template = "%d" + "".join([" %r"] * (width - 1)) + ";"
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        ser._write_formatted(Recorder(), template, (ints, floats), sep="\n")
        expected = "\n".join(template % (int(i), *map(float, f))
                             for i, f in zip(ints, floats))
        assert "".join(writes) == expected
        per_block = max(1, write_values // width)
        assert len(writes) == -(-n // per_block)
        assert all(w.lstrip("\n").count(";") <= per_block for w in writes)

    def test_points_writer_holds_one_block(self, rng, tmp_path):
        # the whole-file join of per-point strings peaked at 122 MB
        n = 200_000
        cloud = PointCloud(rng.standard_normal((n, 3)), rng.uniform(0, 1, n))
        tracemalloc.start()
        try:
            ser.save_cloud(cloud, tmp_path / "cloud.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        back = ser.load_cloud(tmp_path / "cloud.json")
        np.testing.assert_array_equal(back.positions, cloud.positions)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_reader_is_bitwise_float(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        mant = rng.standard_normal((12, 30))
        array = mant * 10.0 ** rng.integers(-320, 300, mant.shape)
        array[0, :len(AWKWARD)] = AWKWARD
        array[1, :len(AWKWARD)] = np.negative(AWKWARD)
        path = tmp_path / "rows.csv"
        ser._write_rows(path, array)
        got = ser._read_rows(path)
        ref = float_rows_reference(path.read_text(encoding="utf-8"))
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        np.testing.assert_array_equal(got.view(np.int64),
                                      array.view(np.int64))


class TestDumpJson:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_before_the_file_opens(self, bad, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(NumericalError, match="report.json"):
            ser.dump_json({"ok": 1.0, "nested": [0.0, bad]}, path)
        assert not path.exists()


class TestRowReaderEdges:
    def read(self, tmp_path, text):
        path = tmp_path / "rows.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return ser._read_rows(path)

    @pytest.mark.parametrize("text", ["", "\n", "\r\n\r\n", "\n\n\n", "\r"])
    def test_no_rows_is_empty_1d_without_warning(self, text, tmp_path):
        got = self.read(tmp_path, text)
        ref = float_rows_reference(text)
        assert got.shape == ref.shape == (0,)
        assert got.dtype == np.float64

    @pytest.mark.parametrize("text", [
        "1.0,2.0\n\n3.0,4.0\n",
        "1.0,2.0\r\n3.0,4.0\r\n",
        "\n1.0,2.0\r\n\r\n3.0,4.0",
        '"1.5",2.0\n3.0,"-0.0"\n',
        " 1.0 , 2.0 \n3.0,4.0\n",
        "5.0\n6.0\n",
        "1.0,2.0,3.0",
        "inf,-Infinity\n",
    ])
    def test_parses_like_float(self, text, tmp_path):
        got = self.read(tmp_path, text)
        ref = float_rows_reference(text)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("text", [
        "1.0,2.0\n3.0\n", "1.0\n2.0,3.0\n", "1.0,#\n", "#,1.0\n",
        "1.0,2.0,\n", "1.0,,2.0\n", "  \n", "1.0,2.0\n  \n3.0,4.0\n",
        '""\n', '"1,5",2.0\n', "0x1,2.0\n", "1.5 2.0\n",
    ])
    def test_malformed_raises_input_error(self, text, tmp_path):
        with pytest.raises(InputError, match="malformed CSV"):
            self.read(tmp_path, text)


class TestUnreadableFiles:
    """Directories and non-UTF-8 bytes are input errors, not tracebacks."""

    @pytest.mark.parametrize("load", [ser._load_json, ser._read_rows,
                                      ser.load_magma])
    def test_directory(self, load, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load(tmp_path)

    @pytest.mark.parametrize("load", [ser._load_json, ser._read_rows,
                                      ser.load_magma])
    def test_not_utf8(self, load, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(InputError, match="not UTF-8"):
            load(path)

    def test_json_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(InputError, match="malformed JSON"):
            ser._load_json(path)

    @pytest.mark.parametrize("load", [ser._load_json, ser._read_rows,
                                      ser.load_magma])
    def test_missing(self, load, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            load(tmp_path / "absent")


class TestGrids:
    def test_voxels_round_trip(self, rng, tmp_path):
        grid = VoxelGrid((3, 4, 5), 0.25, (-1, 0, 2),
                         rng.uniform(0, 1, (3, 4, 5)))
        path = tmp_path / "grid.json"
        ser.save_voxels(grid, path)
        back = ser.load_voxels(path)
        assert back.dims == grid.dims
        np.testing.assert_array_equal(back.values, grid.values)
        np.testing.assert_array_equal(back.origin, grid.origin)

    def test_vector_field_round_trip(self, rng, tmp_path):
        header = GridHeader((3, 3, 4), 0.5, (0, 0, 0))
        field = VectorFieldGrid(header,
                                rng.standard_normal(header.dims + (3,)))
        path = tmp_path / "field.json"
        ser.save_vector_field(field, path)
        back = ser.load_vector_field(path)
        np.testing.assert_array_equal(back.samples, field.samples)
        assert back.header.matches(field.header)

    def test_connection_round_trip(self, rng, tmp_path):
        header = GridHeader((3, 3, 3), 0.1, (0, 0, 0))
        conn = ConnectionField(header,
                               rng.standard_normal(header.dims + (3, 3, 3)))
        path = tmp_path / "conn.json"
        ser.save_connection(conn, path)
        np.testing.assert_array_equal(ser.load_connection(path).gamma,
                                      conn.gamma)

    def test_sinogram_csv_round_trip(self, rng, tmp_path):
        sino = Sinogram(rng.uniform(0, 9, (4, 6)))
        path = tmp_path / "sino.csv"
        ser.save_sinogram_csv(sino, path)
        back = ser.load_sinogram_csv(path)
        np.testing.assert_array_equal(back.values, sino.values)

    def test_pgm_header(self, tmp_path):
        sino = Sinogram([[0.0, 1.0], [0.5, 0.25]])
        path = tmp_path / "sino.pgm"
        ser.save_sinogram_pgm(sino, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n65535\n")
        assert len(raw) == len(b"P5\n2 2\n65535\n") + 4 * 2


MM_HEADER = b"%%MatrixMarket matrix coordinate real general\n%\n"
MM_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0,
             -2.0, 1e16, 12345678901234567.0, 1.7976931348623157e308,
             -1.7976931348623157e308, 0.1, 9.941116742349803e-3]


@st.composite
def csr_matrices(draw):
    """Canonical CSR matrices up to 6 x 6, empty rows and nnz = 0
    included, with signed zeros, subnormals, the largest finite values
    and integral values among the entries."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0 if rows == 0 else 1, 6))
    picks = [sorted(draw(st.sets(st.integers(0, cols - 1), max_size=cols)))
             if cols else [] for _ in range(rows)]
    indices = [j for row in picks for j in row]
    value = st.one_of(st.sampled_from(MM_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    data = draw(st.lists(value, min_size=len(indices),
                         max_size=len(indices)))
    indptr = np.cumsum([0] + [len(row) for row in picks])
    return CSR(indptr, np.asarray(indices, dtype=np.intp),
               np.asarray(data, dtype=float), (rows, cols))


@pytest.mark.usefixtures("write_values")
class TestMatrixMarket:
    @pytest.mark.parametrize("A, body", [
        (CSR(np.array([0, 1, 1, 3]), np.array([1, 0, 2]),
             np.array([0.1, -0.0, 3.0]), (3, 4)),
         b"3 4 3\n1 2 0.1\n3 1 -0.0\n3 3 3.0\n"),
        (CSR(np.zeros(3, dtype=np.intp), np.zeros(0, dtype=np.intp),
             np.zeros(0), (2, 3)), b"2 3 0\n"),
        (CSR(np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp),
             np.zeros(0), (0, 0)), b"0 0 0\n"),
    ], ids=["entries", "no-entries", "empty"])
    def test_bytes(self, A, body, tmp_path):
        ser.save_matrix_market(A, tmp_path / "a.mtx")
        assert (tmp_path / "a.mtx").read_bytes() == MM_HEADER + body

    def test_mmread_round_trip(self):
        # @given on an inner function, as in tests/test_cli.py
        @given(A=csr_matrices())
        @settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)
        def check(A):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "a.mtx"
                ser.save_matrix_market(A, path)
                got = path.read_bytes()
                back = scipy.io.mmread(str(path))
            # each entry's own %r, so -0.0 apart from 0.0
            body = "".join("%d %d %r\n" % (i + 1, j + 1, v) for i, j, v in
                           zip(A.row.tolist(), A.indices.tolist(),
                               A.data.tolist()))
            assert got == MM_HEADER + (
                "%d %d %d\n" % (*A.shape, A.nnz) + body).encode()
            assert back.shape == A.shape
            np.testing.assert_array_equal(back.row, A.row)
            np.testing.assert_array_equal(back.col, A.indices)
            csr = back.tocsr()
            np.testing.assert_array_equal(csr.indptr, A.indptr)
            np.testing.assert_array_equal(csr.indices, A.indices)
            np.testing.assert_array_equal(csr.data.view(np.int64),
                                          A.data.view(np.int64))

        check()

    def test_symmetric_matrix_stays_general(self, tmp_path):
        A = CSR.from_entries(np.array([1.0, 2.0, 2.0, 3.0]),
                             np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                             (2, 2))
        ser.save_matrix_market(A, tmp_path / "a.mtx")
        assert (tmp_path / "a.mtx").read_bytes() == (
            MM_HEADER + b"2 2 4\n1 1 1.0\n1 2 2.0\n2 1 2.0\n2 2 3.0\n")

    def test_rerun_is_byte_identical(self, rng, tmp_path):
        n = 200
        A = CSR.from_entries(rng.standard_normal(n), rng.integers(0, 30, n),
                             rng.integers(0, 40, n), (30, 40))
        ser.save_matrix_market(A, tmp_path / "a.mtx")
        ser.save_matrix_market(A, tmp_path / "b.mtx")
        assert ((tmp_path / "a.mtx").read_bytes()
                == (tmp_path / "b.mtx").read_bytes())


class TestMagmaCsv:
    def test_round_trip_with_undefined(self, tmp_path):
        table = np.array([[0, UNDEFINED], [1, 0]])
        path = tmp_path / "m.csv"
        ser.save_magma(FiniteMagma(table), path)
        back = ser.load_magma(path)
        np.testing.assert_array_equal(back.table, table)

    def test_ascii_dot_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,.\n1,0\n")
        back = ser.load_magma(path)
        assert back.op(0, 1) == UNDEFINED

    def test_malformed(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,x\n1,0\n")
        with pytest.raises(InputError):
            ser.load_magma(path)


class TestBundledFixtures:
    def test_all_load(self):
        from twoview.data import fixture_path
        cloud = ser.load_cloud(fixture_path("sample_cloud.json"))
        assert len(cloud) == 10
        s1 = ser.load_spec(fixture_path("spec_xy.json"))
        s2 = ser.load_spec(fixture_path("spec_yz.json"))
        assert abs(np.cross(s1.n, s2.n) @ np.cross(s1.n, s2.n) - 1) < 1e-12
        for name in ("field_contact_x", "field_coord_x", "field_coord_y",
                     "field_contact_y"):
            ser.load_vector_field(fixture_path(name + ".json"))
        conn = ser.load_connection(fixture_path("conn_flat.json"))
        assert np.all(conn.gamma == 0)
        magma = ser.load_magma(fixture_path("z4_table.csv"))
        assert magma.order == 4

    def test_grid_headers_match_each_other(self):
        from twoview.data import fixture_path
        heads = [ser.load_vector_field(fixture_path(name + ".json")).header
                 for name in ("field_contact_x", "field_contact_y",
                              "field_coord_x", "field_coord_y")]
        heads.append(ser.load_connection(fixture_path("conn_flat.json"))
                     .header)
        assert all(a.matches(b) for a in heads for b in heads)
