"""Seeded input generator for the benchmark workloads.

Uses only the standard library and numpy.  Files are written in the CLI's
documented formats (JSON with two-space indent and sorted keys; row-major
CSV of `repr` floats next to a JSON header) without going through
`twoview.serialization`, so a given seed yields the same bytes on every
commit of the program.  Each `make_*` function writes its files under
`root` (relative names are the ones the workload argv uses) and returns
the ground truth that the oracles compare against.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TILT_DEG = 30.0


def write_json(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(array2d, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(array2d, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def frame_xy():
    """(u, w, n) viewing along +z."""
    return np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]


def frame_yz():
    """(u, w, n) viewing along +x, as `coordinate_spec(0)`."""
    return np.eye(3)[1], np.eye(3)[2], np.eye(3)[0]


def frame_tilt():
    """XY frame rotated by TILT_DEG about the x axis; right-handed."""
    a = math.radians(TILT_DEG)
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, math.cos(a), math.sin(a)])
    return u, w, np.cross(u, w)


def write_spec(frame, path: Path) -> None:
    u, w, n = frame
    write_json({"u": u.tolist(), "w": w.tolist(), "n": n.tolist()}, path)


def write_cloud(positions, weights, path: Path) -> None:
    write_json({"points": [{"p": p, "w": w} for p, w in
                           zip(np.asarray(positions).tolist(),
                               np.asarray(weights).tolist())]}, path)


def write_grid(kind: str, values, spacing: float, origin, path: Path) -> None:
    """JSON header at `path`, row-major values in the sibling .csv."""
    values = np.asarray(values, dtype=float)
    dims = list(values.shape[:3])
    write_json({"kind": kind, "dims": dims, "spacing": spacing,
                "origin": [float(o) for o in origin]}, path)
    write_csv(values.reshape(dims[0], -1), path.with_suffix(".csv"))


def centered_origin(dims, spacing: float):
    return [-spacing * (d - 1) / 2.0 for d in dims]


# -- workloads ---------------------------------------------------------------


def make_points(root: Path, rng, n_points: int, n_noise: int) -> dict:
    pos = rng.standard_normal((n_points, 3))
    wts = rng.uniform(0.5, 2.0, n_points)
    noise_pos = rng.standard_normal((n_noise, 3))
    noise_wts = rng.uniform(0.5, 2.0, n_noise)
    write_cloud(pos, wts, root / "in/cloud.json")
    write_cloud(noise_pos, noise_wts, root / "in/noise_cloud.json")
    write_spec(frame_xy(), root / "in/spec1.json")
    write_spec(frame_tilt(), root / "in/spec2.json")
    return {"positions": pos, "weights": wts,
            "frames": (frame_xy(), frame_tilt())}


def make_voxels(root: Path, rng, d: int, tilt: bool) -> dict:
    dens = rng.uniform(0.0, 1.0, (d, d, d))
    spacing = 1.0
    write_grid("voxel_grid", dens, spacing, centered_origin(dens.shape, spacing),
               root / "in/density.json")
    frames = (frame_xy(), frame_tilt() if tilt else frame_yz())
    write_spec(frames[0], root / "in/spec1.json")
    write_spec(frames[1], root / "in/spec2.json")
    return {"density": dens, "spacing": spacing, "frames": frames}


def _sphere_gamma(thetas, dims) -> np.ndarray:
    """Levi-Civita symbols of the unit round metric in (theta, phi) on
    axes (0, 1); axis 2 is a flat dummy direction."""
    gamma = np.zeros(tuple(dims) + (3, 3, 3))
    s = np.sin(thetas)[:, None, None]
    c = np.cos(thetas)[:, None, None]
    gamma[..., 0, 1, 1] = -s * c
    gamma[..., 1, 0, 1] = c / s
    gamma[..., 1, 1, 0] = c / s
    return gamma


def grid_axes(dims, spacing, origin):
    return [origin[a] + spacing * np.arange(dims[a]) for a in range(3)]


def make_diagnostics(root: Path, rng, n_grid: int, n_sym: int, order: int,
                     n_loops: int, fold: int = 6) -> dict:
    # fields on an n_grid^3 node grid; axis 0 doubles as theta, so it
    # starts clear of the pole where cot(theta) blows up
    spacing = 0.05
    dims = (n_grid,) * 3
    origin = [0.3, 0.0, 0.0]
    x, y, z = np.meshgrid(*grid_axes(dims, spacing, origin), indexing="ij")
    one, zero = np.ones(dims), np.zeros(dims)
    fields = {
        "X": np.stack([one, zero, y], axis=-1),
        "Y": np.stack([zero, one, -x], axis=-1),
        # quadratic, so nested central differences stay exact
        "Z": np.stack([z, x * y, one + y * y], axis=-1),
    }
    for name, vals in fields.items():
        write_grid("vector_field", vals, spacing, origin,
                   root / f"in/field_{name.lower()}.json")
    write_grid("connection", _sphere_gamma(x[:, 0, 0], dims), spacing, origin,
               root / "in/sphere_conn.json")

    # holonomy grid: phi spans [0, 2 pi] on nodes, loops sit on theta nodes
    h = 2.0 * math.pi / 126.0
    hol_dims = (2 * n_loops + 6, 127, 3)
    hol_origin = [0.35, 0.0, -h]
    thetas = grid_axes(hol_dims, h, hol_origin)[0]
    write_grid("connection", _sphere_gamma(thetas, hol_dims), h, hol_origin,
               root / "in/holonomy_conn.json")

    # fold-symmetric cloud about the z axis
    base = rng.standard_normal((n_sym // fold, 3)) * [1.0, 1.0, 0.5]
    base_w = rng.uniform(0.5, 2.0, n_sym // fold)
    pos, wts = [], []
    for k in range(fold):
        a = 2.0 * math.pi * k / fold
        R = np.array([[math.cos(a), -math.sin(a), 0.0],
                      [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])
        pos.append(base @ R.T)
        wts.append(base_w)
    write_cloud(np.vstack(pos), np.concatenate(wts), root / "in/sym_cloud.json")

    idx = np.arange(order)
    table = (idx[:, None] + idx[None, :]) % order
    (root / "in/table.csv").write_text(
        "".join(",".join(map(str, row)) + "\n" for row in table.tolist()),
        encoding="utf-8")

    # constraints that vanish on the rotation axis: the equivariant solve
    # must return +-z
    omegas = rng.standard_normal((8, 3))
    omegas[:, 2] = 0.0
    write_json({"dim": 3, "rows": [{"omega": o, "rhs": 0.0}
                                   for o in omegas.tolist()]},
               root / "in/constraints.json")

    write_spec(frame_xy(), root / "in/spec1.json")
    write_spec(frame_tilt(), root / "in/spec2.json")
    return {"nodes": (x, y), "fold": fold, "order": order, "n_loops": n_loops}
