"""File formats: JSON for structured records, CSV for bulk arrays.

Every input file and every comma-separated option value is read here.
A loader parses its file, or `read_list` its option, and hands the values
to the record it builds unchecked; the record alone refuses them, and
`_reading` re-raises its refusal with the file or the option named.
`check_option` gives any other option value to its validator the same
way.

Grid-shaped payloads (voxels, vector fields, Christoffel symbols) are a
JSON header next to a row-major CSV file with the same stem; sparse
matrices are Matrix Market coordinate text.  All writers are
deterministic: rerunning a command on the same inputs produces
byte-identical files.

The bulk writers (point JSON, float CSVs, Matrix Market) each write a
header, one `_write_formatted` call and a footer.  That helper alone
formats bulk numbers, one block of about `_WRITE_VALUES` values per `%`,
so no writer holds more than one block of text or Python numbers, and a
float is always written as its `%r`, the shortest round-trip form that is
also JSON's encoding.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import algebra, diffgeo, recon
from .errors import InputError, NumericalError, TwoViewError
from .geometry import (
    CSR,
    GridHeader,
    PointCloud,
    Projected2D,
    ProjectionSpec,
    Sinogram,
    VoxelGrid,
)

UNDEFINED_MARK = "·"  # middle dot in table CSVs
_WRITE_VALUES = 1 << 12  # values formatted per `%` by _write_formatted


@contextmanager
def _reading(path, what: str):
    """Raise every failure to read or parse `path`, a file or an option, as
    an InputError, and a record's refusal of the `what` it holds as the
    same class, `path` named."""
    try:
        yield
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        # JSONDecodeError included; KeyError and TypeError are a missing
        # field or a field of the wrong type, OverflowError an integer no
        # float64 or int64 holds or an infinite one
        raise InputError(f"malformed {what} in {path}: {exc}") from exc
    except TwoViewError as exc:
        raise type(exc)(f"{what} in {path}: {exc}") from exc


def _load_json(path) -> dict:
    with _reading(path, "JSON"), open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj, path) -> None:
    """Write `obj` as JSON with a 2-space indent and sorted keys.

    Raises NumericalError, before the file is opened, when `obj` holds a
    NaN or an infinity, which JSON cannot spell.
    """
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"non-finite number for {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_formatted(fh, template: str, rows, sep: str = "") -> None:
    """Write sep.join(template % row for row in rows) to the text file `fh`.

    `rows` is a tuple of arrays of one length, and row i is row i of each
    array in turn: one value of a 1-D array, every value of a 2-D array's
    row.  Each `%` formats a block of whole rows, about _WRITE_VALUES
    values (one row when a row is wider), taken as Python ints and floats.
    """
    cols = [c if c.ndim == 2 else c[:, None] for c in map(np.asarray, rows)]
    n, width = len(cols[0]), sum(c.shape[1] for c in cols)
    step = max(1, _WRITE_VALUES // max(width, 1))
    block = sep.join([template] * step)
    for start in range(0, n, step):
        stop = min(start + step, n)
        values = np.hstack([c[start:stop].astype(object) for c in cols])
        if stop - start < step:
            block = sep.join([template] * (stop - start))
        fh.write((sep if start else "")
                 + block % tuple(values.ravel().tolist()))


def read_list(text: str, option: str, kind, check) -> list:
    """The comma-separated `kind` values of command-line option `option`,
    given to `check`; a value `kind` cannot parse, or `check`'s refusal of
    them, is raised with the option named."""
    with _reading(option, "value"):
        values = [kind(x) for x in text.split(",")]
    check_option(values, option, check)
    return values


def check_option(value, option: str, check) -> None:
    """Give the value of command-line option `option` to `check`, the
    validator that owns it; its refusal is raised with the option named."""
    with _reading(option, "value"):
        check(value)


# -- point clouds and images ------------------------------------------------


def _save_points(points, path) -> None:
    """Write a PointCloud or Projected2D as {"points": [{"p", "w"}, ...]}.

    The bytes are those `dump_json` writes for that dict, from one template
    per point.  Both classes reject non-finite values, so `%r` is JSON's
    float encoding.
    """
    point = ('    {\n      "p": [\n'
             + ",\n".join(["        %r"] * points.positions.shape[1])
             + '\n      ],\n      "w": %r\n    }')
    with open(path, "w", encoding="utf-8") as fh:
        if len(points):
            fh.write('{\n  "points": [\n')
            _write_formatted(fh, point, (points.positions, points.weights),
                             sep=",\n")
            fh.write('\n  ]\n}\n')
        else:
            fh.write('{\n  "points": []\n}\n')


def _load_points(path, dim: int):
    """Read a PointCloud (dim 3) or Projected2D (dim 2)."""
    cls, kind = (PointCloud, "point cloud") if dim == 3 else \
        (Projected2D, "image")
    data = _load_json(path)
    with _reading(path, kind):
        pts = data["points"]
        return cls([pt["p"] for pt in pts], [pt["w"] for pt in pts])


def save_cloud(cloud: PointCloud, path) -> None:
    _save_points(cloud, path)


def load_cloud(path) -> PointCloud:
    return _load_points(path, 3)


def save_image(img: Projected2D, path) -> None:
    _save_points(img, path)


def load_image(path) -> Projected2D:
    return _load_points(path, 2)


def save_spec(spec: ProjectionSpec, path) -> None:
    dump_json({"u": spec.u.tolist(), "w": spec.w.tolist(),
               "n": spec.n.tolist()}, path)


def load_spec(path) -> ProjectionSpec:
    data = _load_json(path)
    with _reading(path, "projection spec"):
        return ProjectionSpec(data["u"], data["w"], data["n"])


# -- grids ------------------------------------------------------------------


def _csv_path(path) -> Path:
    return Path(path).with_suffix(".csv")


def _write_rows(path, array2d) -> None:
    """One line of `%r` floats per row, comma-separated, ending in \\r\\n."""
    array2d = np.asarray(array2d, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_formatted(fh, ",".join(["%r"] * array2d.shape[1]) + "\r\n",
                         (array2d,))


def _read_rows(path) -> np.ndarray:
    """The float rows of a CSV file; blank lines are skipped and a file with
    no rows gives an empty 1-D array."""
    with _reading(path, "CSV"), open(path, "r", newline="",
                                     encoding="utf-8") as fh:
        # np.loadtxt warns when it finds no rows; it parses the open file,
        # holding no copy of its text
        if not any(line.strip("\r\n") for line in fh):
            return np.array([], dtype=float)
        fh.seek(0)
        return np.loadtxt(fh, dtype=float, delimiter=",", ndmin=2,
                          comments=None, quotechar='"')


def _save_grid(path, kind: str, header, values: np.ndarray) -> None:
    """JSON header (`kind`, `dims`, `spacing`, `origin`) at `path`, values
    row-major in the sibling .csv file, one line per first-axis index."""
    dump_json({"kind": kind, "dims": list(header.dims),
               "spacing": header.spacing, "origin": header.origin.tolist()},
              path)
    _write_rows(_csv_path(path), values.reshape(header.dims[0], -1))


def _load_grid(path, kind: str, make):
    """`make(dims, spacing, origin, rows)` from a grid written by
    `_save_grid`, rows the float rows of its .csv file; `make` validates
    the header and shapes the rows."""
    head = _load_json(path)
    rows = _read_rows(_csv_path(path))
    with _reading(path, kind):
        return make(head["dims"], head["spacing"], head["origin"], rows)


def save_voxels(grid: VoxelGrid, path) -> None:
    _save_grid(path, "voxel_grid", grid, grid.values)


def load_voxels(path) -> VoxelGrid:
    return _load_grid(path, "voxel grid", VoxelGrid)


def save_sinogram_csv(sino: Sinogram, path) -> None:
    _write_rows(path, sino.values)


def load_sinogram_csv(path) -> Sinogram:
    """The sinogram at `path`: its values alone, the file holds no lattice.

    Raises InputError when the file holds no rows.
    """
    vals = _read_rows(path)
    if vals.size == 0:
        raise InputError(f"empty sinogram in {path}")
    with _reading(path, "sinogram"):
        return Sinogram(vals)


def save_sinogram_pgm(sino: Sinogram, path) -> None:
    """16-bit binary PGM, max-scaled (visualization only)."""
    vals = sino.values
    top = float(vals.max())
    scaled = np.zeros_like(vals, dtype=np.uint16) if top == 0 else \
        np.round(vals / top * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{vals.shape[1]} {vals.shape[0]}\n65535\n".encode())
        fh.write(scaled.tobytes())


def save_vector_field(field: diffgeo.VectorFieldGrid, path) -> None:
    _save_grid(path, "vector_field", field.header, field.samples)


def load_vector_field(path) -> diffgeo.VectorFieldGrid:
    return _load_grid(path, "vector field", lambda dims, spacing, origin, vals:
                      diffgeo.VectorFieldGrid(
                          GridHeader(dims, spacing, origin), vals))


def save_connection(conn: diffgeo.ConnectionField, path) -> None:
    _save_grid(path, "connection", conn.header, conn.gamma)


def load_connection(path) -> diffgeo.ConnectionField:
    return _load_grid(path, "connection", lambda dims, spacing, origin, vals:
                      diffgeo.ConnectionField(
                          GridHeader(dims, spacing, origin), vals))


# -- sparse matrices --------------------------------------------------------


def save_matrix_market(A: CSR, path) -> None:
    """Write `A` as Matrix Market coordinate text.

    The header is `%%MatrixMarket matrix coordinate real general`, a `%`
    line and `rows cols nnz`; then one `i j v` line per stored entry, in
    CSR order and 1-based, v the shortest round-trip `%r` of the value.
    The 1-based indices are made for _WRITE_VALUES entries at a time, so
    the writer holds no array as long as A's.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%%%MatrixMarket matrix coordinate real general\n%%\n"
                 "%d %d %d\n" % (*A.shape, A.nnz))
        for lo in range(0, A.nnz, _WRITE_VALUES):
            k = np.arange(lo, min(lo + _WRITE_VALUES, A.nnz))
            # the rows that start at or before entry k count its 1-based row
            _write_formatted(fh, "%d %d %r\n", (
                np.searchsorted(A.indptr, k, side="right"),
                A.indices[k] + 1, np.asarray(A.data[k], dtype=float)))


# -- composition tables -----------------------------------------------------


def save_magma(m: algebra.FiniteMagma, path) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in m.table:
            writer.writerow([UNDEFINED_MARK if x == algebra.UNDEFINED
                             else int(x) for x in row])


def load_magma(path) -> algebra.FiniteMagma:
    import csv
    with _reading(path, "table"):
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = [[algebra.UNDEFINED if cell.strip() in (UNDEFINED_MARK, ".")
                     else int(cell) for cell in row]
                    for row in csv.reader(fh) if row]
        return algebra.FiniteMagma(rows)


def load_twist(path) -> algebra.TwistMap:
    """The `diagnose jacobiator --twist` coefficients c^k_ij: a JSON 3x3x3
    array indexed [k][i][j], antisymmetric in (i, j)."""
    data = _load_json(path)
    with _reading(path, "--twist coefficients"):
        return algebra.TwistMap(data)


# -- direction constraints --------------------------------------------------


def load_constraints(path) -> tuple:
    """(rows, dim) of a `toric solve --constraints` file
    {"rows": [{"omega": [...], "rhs": r}, ...], "dim": d}, rhs 0 and dim 3
    when absent; the solvers' own validator checks the stack."""
    data = _load_json(path)
    with _reading(path, "constraints"):
        rows = [recon.ConstraintRow(r["omega"], r.get("rhs", 0.0))
                for r in data["rows"]]
        dim = data.get("dim", 3)
        recon._stack_constraints(rows, dim)
        return rows, dim
