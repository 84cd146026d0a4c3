"""File formats: JSON for structured records, CSV for bulk arrays.

Grid-shaped payloads (voxels, vector fields, Christoffel symbols) are a
JSON header next to a row-major CSV file with the same stem.  All writers
are deterministic: rerunning a command on the same inputs produces
byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .geometry import (
    PointCloud,
    Projected2D,
    ProjectionSpec,
    Sinogram,
    VoxelGrid,
)
from .diffgeo import ConnectionField, GridHeader, VectorFieldGrid
from .algebra import UNDEFINED, FiniteMagma

UNDEFINED_MARK = "·"  # middle dot in table CSVs


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- point clouds and images ------------------------------------------------


def _save_points(points, path) -> None:
    """Write a PointCloud or Projected2D as {"points": [{"p", "w"}, ...]}."""
    dump_json({"points": [{"p": list(p), "w": w} for p, w in
                          zip(points.positions.tolist(),
                              points.weights.tolist())]}, path)


def _load_points(path, dim: int):
    """Read a PointCloud (dim 3) or Projected2D (dim 2)."""
    cls, kind = (PointCloud, "point cloud") if dim == 3 else \
        (Projected2D, "image")
    data = _load_json(path)
    try:
        pts = data["points"]
        pos = [pt["p"] for pt in pts]
        w = [pt["w"] for pt in pts]
        return cls(np.asarray(pos, dtype=float).reshape(-1, dim),
                   np.asarray(w, dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind} in {path}: {exc}") from exc


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
    try:
        return ProjectionSpec(data["u"], data["w"], data["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed projection spec in {path}: {exc}") from exc


# -- grids ------------------------------------------------------------------


def _csv_path(path) -> Path:
    return Path(path).with_suffix(".csv")


def _write_rows(path, array2d) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(array2d, dtype=float):
            writer.writerow([repr(float(x)) for x in row])


def _read_rows(path) -> np.ndarray:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return np.array([[float(x) for x in row]
                             for row in csv.reader(fh) if row], dtype=float)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except ValueError as exc:
        raise InputError(f"malformed CSV in {path}: {exc}") from exc


def save_voxels(grid: VoxelGrid, path) -> None:
    """JSON header at `path`, row-major values in the sibling .csv file."""
    dump_json({"kind": "voxel_grid", "dims": list(grid.dims),
               "spacing": grid.spacing, "origin": grid.origin.tolist()}, path)
    _write_rows(_csv_path(path), grid.values.reshape(grid.dims[0], -1))


def load_voxels(path) -> VoxelGrid:
    head = _load_json(path)
    try:
        dims = tuple(head["dims"])
        vals = _read_rows(_csv_path(path)).reshape(dims)
        return VoxelGrid(dims, head["spacing"], head["origin"], vals)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed voxel grid at {path}: {exc}") from exc


def save_sinogram_csv(sino: Sinogram, path) -> None:
    _write_rows(path, sino.values)


def load_sinogram_csv(path, spacing: float, origin2d) -> Sinogram:
    return Sinogram(_read_rows(path), spacing, origin2d)


def save_sinogram_pgm(sino: Sinogram, path) -> None:
    """16-bit binary PGM, max-scaled (visualization only)."""
    vals = sino.values
    top = float(vals.max())
    scaled = np.zeros_like(vals, dtype=np.uint16) if top == 0 else \
        np.round(vals / top * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{vals.shape[1]} {vals.shape[0]}\n65535\n".encode())
        fh.write(scaled.tobytes())


def _header_dict(h: GridHeader) -> dict:
    return {"dims": list(h.dims), "spacing": h.spacing,
            "origin": h.origin.tolist()}


def _header_from(data) -> GridHeader:
    return GridHeader(tuple(data["dims"]), data["spacing"], data["origin"])


def save_vector_field(field: VectorFieldGrid, path) -> None:
    dump_json({"kind": "vector_field", **_header_dict(field.header)}, path)
    _write_rows(_csv_path(path), field.samples.reshape(field.header.dims[0], -1))


def load_vector_field(path) -> VectorFieldGrid:
    head = _load_json(path)
    try:
        h = _header_from(head)
        vals = _read_rows(_csv_path(path)).reshape(h.dims + (3,))
        return VectorFieldGrid(h, vals)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed vector field at {path}: {exc}") from exc


def save_connection(conn: ConnectionField, path) -> None:
    dump_json({"kind": "connection", **_header_dict(conn.header)}, path)
    _write_rows(_csv_path(path), conn.gamma.reshape(conn.header.dims[0], -1))


def load_connection(path) -> ConnectionField:
    head = _load_json(path)
    try:
        h = _header_from(head)
        vals = _read_rows(_csv_path(path)).reshape(h.dims + (3, 3, 3))
        return ConnectionField(h, vals)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed connection at {path}: {exc}") from exc


# -- composition tables -----------------------------------------------------


def save_magma(m: FiniteMagma, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in m.table:
            writer.writerow([UNDEFINED_MARK if x == UNDEFINED else int(x)
                             for x in row])


def load_magma(path) -> FiniteMagma:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = [[UNDEFINED if cell.strip() in (UNDEFINED_MARK, ".")
                     else int(cell) for cell in row]
                    for row in csv.reader(fh) if row]
        return FiniteMagma(np.asarray(rows, dtype=int))
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except ValueError as exc:
        raise InputError(f"malformed table in {path}: {exc}") from exc
