"""Core spatial types and orthographic projection operators.

A 3-D object is either a weighted point cloud or a density sampled on a
regular voxel grid.  Projections are orthographic: an orthonormal frame
(u, w, n) projects a point p to the plane coordinates (p.u, p.w), with n
the viewing direction.  Back-projection recovers the fiber of a planar
observation, i.e. the ray of all points producing that observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimMismatch, InvalidFrame, InvalidInvolution, NonTransverse

_ORTHO_TOL = 1e-12
_DET_TOL = 1e-9
_MARCH_BLOCK = 1 << 16  # (t, pixel) samples per ray-march block


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise InvalidFrame(f"non-finite 3-vector: {x!r}")
    return v


@dataclass(frozen=True)
class PointCloud:
    """Weighted 3-D samples of an object.

    positions : (N, 3) float array
    weights   : (N,) nonnegative float array
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if pos.shape[0] != w.shape[0]:
            raise DimMismatch(
                f"{pos.shape[0]} positions vs {w.shape[0]} weights")
        if not np.all(np.isfinite(pos)):
            raise DimMismatch("non-finite positions")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DimMismatch("weights must be finite and >= 0")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.positions.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def translated(self, t) -> "PointCloud":
        return PointCloud(self.positions + _as_vec3(t), self.weights)


@dataclass(frozen=True)
class Projected2D:
    """Planar image of a cloud: 2-D positions with carried-through weights."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if pos.shape[0] != w.shape[0]:
            raise DimMismatch(
                f"{pos.shape[0]} positions vs {w.shape[0]} weights")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(w))):
            raise DimMismatch("image positions and weights must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class VoxelGrid:
    """Nonnegative density on a regular grid.

    dims    : (nx, ny, nz)
    spacing : voxel edge length
    origin  : position of the center of voxel (0, 0, 0)
    values  : (nx, ny, nz) array of densities
    """

    dims: tuple
    spacing: float
    origin: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise DimMismatch(f"bad dims {self.dims!r}")
        if not self.spacing > 0:
            raise DimMismatch(f"spacing must be > 0, got {self.spacing}")
        vals = np.asarray(self.values, dtype=float).reshape(dims)
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise DimMismatch("voxel values must be finite and >= 0")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "origin", _as_vec3(self.origin))
        object.__setattr__(self, "values", vals)

    def centers(self) -> np.ndarray:
        """Voxel center positions, shape (nx, ny, nz, 3)."""
        axes = [self.origin[a] + self.spacing * np.arange(self.dims[a])
                for a in range(3)]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    @property
    def center(self) -> np.ndarray:
        return self.origin + self.spacing * (np.asarray(self.dims) - 1) / 2.0


@dataclass(frozen=True)
class ProjectionSpec:
    """Right-handed orthonormal frame: u, w span the image plane, n views."""

    u: np.ndarray
    w: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        u, w, n = _as_vec3(self.u), _as_vec3(self.w), _as_vec3(self.n)
        for name, v in (("u", u), ("w", w), ("n", n)):
            if abs(np.dot(v, v) - 1.0) > 2 * _ORTHO_TOL:
                raise InvalidFrame(f"|{name}| != 1 (got {np.linalg.norm(v)})")
        for a, b, pair in ((u, w, "u.w"), (u, n, "u.n"), (w, n, "w.n")):
            if abs(np.dot(a, b)) > _ORTHO_TOL:
                raise InvalidFrame(f"{pair} = {np.dot(a, b)} not ~0")
        det = float(np.linalg.det(np.column_stack([u, w, n])))
        if abs(det - 1.0) > _DET_TOL:
            raise InvalidFrame(f"det[u w n] = {det}, expected +1")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "n", n)

    def matrix(self) -> np.ndarray:
        """Rows (u, w, n): maps world coords to (plane-x, plane-y, depth)."""
        return np.vstack([self.u, self.w, self.n])


#: Frames projecting along +z, +x, +y respectively.
SPEC_XY = None  # set below once ProjectionSpec exists
SPEC_YZ = None
SPEC_ZX = None


@dataclass(frozen=True)
class Involution:
    """Orthogonal matrix squaring to the identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).reshape(3, 3)
        if np.max(np.abs(m @ m.T - np.eye(3))) > 1e-12:
            raise InvalidInvolution("matrix is not orthogonal")
        if np.max(np.abs(m @ m - np.eye(3))) > 1e-12:
            raise InvalidInvolution("matrix squared is not the identity")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class BackprojectionRay:
    """All points base + t * direction project to one observation."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        b = _as_vec3(self.base)
        d = _as_vec3(self.direction)
        nrm = np.linalg.norm(d)
        if abs(nrm - 1.0) > 1e-9:
            raise InvalidFrame(f"ray direction not unit (|d| = {nrm})")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "direction", d)

    def point_at(self, t: float) -> np.ndarray:
        return self.base + t * self.direction


@dataclass(frozen=True)
class Sinogram:
    """Line-integral image: values on a pixel grid in plane coordinates.

    origin2d is the plane coordinate of the center of pixel (0, 0);
    pixels are square with side `spacing`.
    """

    values: np.ndarray
    spacing: float
    origin2d: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DimMismatch("sinogram values must be 2-D")
        if not np.all(np.isfinite(vals)):
            raise DimMismatch("sinogram values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(
            self, "origin2d", np.asarray(self.origin2d, dtype=float).reshape(2))


# ---------------------------------------------------------------------------
# operations


def project_points(cloud: PointCloud, spec: ProjectionSpec) -> Projected2D:
    """Orthographic projection of a point cloud.

    Each position p maps to (p.u, p.w); weights are carried unchanged.
    """
    pu = cloud.positions @ spec.u
    pw = cloud.positions @ spec.w
    return Projected2D(np.column_stack([pu, pw]), cloud.weights.copy())


def _axis_alignment(spec: ProjectionSpec):
    """Return (axis_u, sign_u, axis_w, sign_w, axis_n, sign_n) if the frame
    is a signed permutation of the coordinate axes, else None."""
    out = []
    for v in (spec.u, spec.w, spec.n):
        idx = int(np.argmax(np.abs(v)))
        sign = 1.0 if v[idx] > 0 else -1.0
        e = np.zeros(3)
        e[idx] = sign
        if np.max(np.abs(v - e)) > 1e-12:
            return None
        out.extend([idx, sign])
    return tuple(out)


def pixel_center_coords(grid: VoxelGrid, spec: ProjectionSpec,
                        image_dims) -> np.ndarray:
    """Plane coordinates of pixel centers, shape (nu, nw, 2).

    The pixel lattice has spacing equal to the grid spacing and is centered
    on the projection of the grid center.
    """
    nu, nw = int(image_dims[0]), int(image_dims[1])
    c = grid.center
    cu, cw = float(c @ spec.u), float(c @ spec.w)
    au = cu + (np.arange(nu) - (nu - 1) / 2.0) * grid.spacing
    aw = cw + (np.arange(nw) - (nw - 1) / 2.0) * grid.spacing
    gu, gw = np.meshgrid(au, aw, indexing="ij")
    return np.stack([gu, gw], axis=-1)


def projection_operator(grid: VoxelGrid, spec: ProjectionSpec,
                        image_dims) -> sp.csr_matrix:
    """Sparse line-integral operator from voxel values to sinogram pixels.

    Row iu * nw + iw is the pixel (iu, iw) of the `pixel_center_coords`
    lattice; column j is voxel j of `grid.values.ravel()`.  An axis-aligned
    frame gets one exact entry per voxel, the spacing (the length of the
    ray through the voxel center).  Any other frame is ray marched with
    step = spacing / 2 over a t-range covering the grid's bounding sphere:
    each sample adds step times its trilinear weights to the (up to) eight
    surrounding voxels, with zero density outside the grid.

    Raises DimMismatch when an axis-aligned image is smaller than the grid
    cross-section.
    """
    nu, nw = int(image_dims[0]), int(image_dims[1])
    coords = pixel_center_coords(grid, spec, (nu, nw))
    origin2d = coords[0, 0]
    h, nvox = grid.spacing, grid.values.size
    shape = (nu * nw, nvox)
    if _axis_alignment(spec) is not None:
        centers = grid.centers().reshape(-1, 3)
        iu = np.rint((centers @ spec.u - origin2d[0]) / h).astype(int)
        iw = np.rint((centers @ spec.w - origin2d[1]) / h).astype(int)
        if (np.any(iu < 0) or np.any(iu >= nu)
                or np.any(iw < 0) or np.any(iw >= nw)):
            raise DimMismatch(
                f"image dims {(nu, nw)} smaller than grid cross-section")
        entries = (np.full(nvox, h), (iu * nw + iw, np.arange(nvox)))
        return sp.coo_matrix(entries, shape=shape).tocsr()
    step = h / 2.0
    half_diag = 0.5 * h * float(np.linalg.norm(grid.dims))
    tc = float(grid.center @ spec.n)
    ts = np.arange(tc - half_diag - h, tc + half_diag + h + step, step)
    dims = np.asarray(grid.dims)
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    flat = coords.reshape(-1, 2)
    bases = flat[:, 0:1] * spec.u + flat[:, 1:2] * spec.w  # (P, 3)
    data, rows, cols = [], [], []
    # Blocks of whole t-slices bound the (t, corner, pixel) scratch arrays
    # and keep the entries in (t, corner, pixel) order, so duplicates are
    # summed in the same order for every block size.
    nblocks = -(-ts.size * len(bases) // _MARCH_BLOCK)
    for tb in np.array_split(ts, nblocks):
        f = (bases + tb[:, None, None] * spec.n - grid.origin) / h
        i0 = np.floor(f).astype(int)
        frac = f - i0
        base = i0 @ strides
        wgt = np.zeros((tb.size, 8, len(bases)))
        col = np.empty(wgt.shape, dtype=base.dtype)
        for k, corner in enumerate(np.ndindex(2, 2, 2)):
            idx = i0 + corner
            inside = np.all((idx >= 0) & (idx < dims), axis=-1)
            wa, wb, wc = (frac[..., a] if d else 1.0 - frac[..., a]
                          for a, d in enumerate(corner))
            wgt[:, k][inside] = (wa * wb * wc)[inside]
            col[:, k] = base + strides @ corner
        sel = wgt > 0
        data.append(step * wgt[sel])
        rows.append(np.nonzero(sel)[2])
        cols.append(col[sel])
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape).tocsr()


def project_voxels(grid: VoxelGrid, spec: ProjectionSpec,
                   image_dims) -> Sinogram:
    """Line-integral projection of a voxel density.

    The image is `projection_operator(grid, spec, image_dims)` applied to
    the voxel values, the same operator whose rows `build_radon_system`
    stacks: exact column sums (entry = spacing * column sum) for
    axis-aligned frames, trilinear ray marching with step = spacing / 2
    for any other frame.

    Raises DimMismatch when an axis-aligned image is smaller than the grid
    cross-section.
    """
    nu, nw = int(image_dims[0]), int(image_dims[1])
    op = projection_operator(grid, spec, (nu, nw))
    origin2d = pixel_center_coords(grid, spec, (nu, nw))[0, 0]
    return Sinogram((op @ grid.values.ravel()).reshape(nu, nw), grid.spacing,
                    origin2d)


def _cross_norm(spec1: ProjectionSpec, spec2: ProjectionSpec,
               tol: float | None = None) -> float:
    """|n1 x n2|, the sine of the angle between two viewing directions.

    Raises NonTransverse when tol is given and |n1 x n2| <= tol.
    """
    cn = float(np.linalg.norm(np.cross(spec1.n, spec2.n)))
    if tol is not None and cn <= tol:
        raise NonTransverse(f"|n1 x n2| = {cn} <= tol = {tol}")
    return cn


def apply_involution(spec: ProjectionSpec, inv: Involution) -> ProjectionSpec:
    """Transform a frame by an orthogonal involution.

    The mapped frame (iota u, iota w, iota n) is re-orthonormalized; if the
    involution reverses orientation, w is flipped to restore det = +1, which
    makes the operation self-inverse on frames.
    """
    m = inv.matrix
    u = m @ spec.u
    w = m @ spec.w
    n = m @ spec.n
    # Gram-Schmidt repair against accumulated rounding
    u = u / np.linalg.norm(u)
    w = w - np.dot(w, u) * u
    w = w / np.linalg.norm(w)
    n = n - np.dot(n, u) * u - np.dot(n, w) * w
    n = n / np.linalg.norm(n)
    if np.linalg.det(np.column_stack([u, w, n])) < 0:
        w = -w
    return ProjectionSpec(u, w, n)


def backproject(obs, spec: ProjectionSpec) -> BackprojectionRay:
    """Fiber of a planar observation: the ray along the viewing direction."""
    o = np.asarray(obs, dtype=float).reshape(2)
    base = o[0] * spec.u + o[1] * spec.w
    return BackprojectionRay(base, spec.n)


def coordinate_spec(axis: int) -> ProjectionSpec:
    """Right-handed frame viewing along coordinate axis `axis` (0, 1, 2)."""
    e = np.eye(3)
    order = {2: (0, 1, 2), 0: (1, 2, 0), 1: (2, 0, 1)}[axis % 3]
    return ProjectionSpec(e[order[0]], e[order[1]], e[order[2]])


SPEC_XY = coordinate_spec(2)
SPEC_YZ = coordinate_spec(0)
SPEC_ZX = coordinate_spec(1)
