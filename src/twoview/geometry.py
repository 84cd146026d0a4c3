"""Core spatial types and orthographic projection operators.

A 3-D object is either a weighted point cloud or a density sampled on a
regular voxel grid.  Projections are orthographic: an orthonormal frame
(u, w, n) projects a point p to the plane coordinates (p.u, p.w), with n
the viewing direction.  Back-projection recovers the fiber of a planar
observation, i.e. the ray of all points producing that observation.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

from .errors import (DimMismatch, InvalidFrame, InvalidInvolution,
                     NonTransverse, SystemTooLarge)

_ORTHO_TOL = 1e-12
_DET_TOL = 1e-9
_RANK_TOL = 1e-10  # relative pivot/singular-value threshold
_MARCH_BLOCK = 1 << 16  # (t, pixel) samples per ray-march block
# The memory limit, and the one size model of `project --mode voxels`,
# `reconstruct voxels` and `noise-study` that `_require_memory` applies:
# bytes per count, each above the largest tracemalloc peak measured per
# count (in-process runs, one BLAS thread, numpy 2.4 on x86-64):
# - a row, 59 B: `reconstruct voxels` on two 512^2 or 1024^2 sinograms of
#   a 3^3 grid, through XY and a tilt or through two tilts (56.8 B), where
#   reading the sinograms and the solve's row vectors hold the most;
# - a voxel, 55 B: `project --mode voxels` reading a 48^3 to 128^3 grid
#   file of random values (52.7 B at 48^3) after its one entry per voxel,
#   about 107 B per voxel in all, when the CSV reader held a copy of the
#   file's text (it now parses the open file: about 41 B per voxel in
#   all); `reconstruct voxels` holds at most 32.4 B (a 96^3 grid seen by
#   two tilted 1x1 images, the solve's vectors);
# - a stored entry, 56 B: the components pass of the SVD rank, on XY
#   beside a diagonal view or a general pair at 48^3 to 80^3, after the
#   rows and voxels above (45 B; XY beside a 30 degree tilt: 40 B);
# - a march sample, 589 B: one block's scratch, over 30 degree, general
#   and diagonal views at 16^3 to 64^3;
# - a dense float64 value, 8 B: an SVD counts its component twice, as
#   numpy's copy of it (outside tracemalloc's view) takes as much again.
_MEMORY_LIMIT = 2**28
_ROW_BYTES, _VOXEL_BYTES, _ENTRY_BYTES, _SAMPLE_BYTES = 59, 55, 56, 640


def _as_array(x, shape, what: str, error=DimMismatch,
              lo=None) -> np.ndarray:
    """`x` as a float array reshaped to `shape` (None keeps its shape, ()
    takes a real scalar): the one coercion of every record and array entry
    point and of every real scalar parameter.

    Raises DimMismatch when x is not a rectangular array of numbers, holds
    an integer past float64 or does not fit `shape`, `error` when an entry
    is not finite (DimMismatch, but for `diffgeo`'s node samples, whose
    non-finite entries are the CLI's HeaderMismatch) and DimMismatch when
    `lo` is given and an entry is below it.
    """
    try:
        a = np.asarray(x, dtype=float)
        if shape is not None:
            a = a.reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimMismatch(f"malformed {what}: {exc}") from exc
    if not np.all(np.isfinite(a)):
        raise error(f"non-finite {what}")
    if lo is not None and np.any(a < lo):
        raise DimMismatch(f"{what} must be >= {lo}, got {a.min()}")
    return a


def _brief(value, width: int = 40) -> str:
    """str(value) for a refusal to echo, its middle elided past `width`
    characters."""
    text = str(value)
    if len(text) <= width:
        return text
    return f"{text[:width // 2]}...{text[-(width // 2):]}"


class Record:
    """Base of every record: a frozen value whose fields are its annotated
    names, its bases' first.

    Arguments bind to the fields by position or keyword, a class attribute
    is a field's default, and `__post_init__` runs once after binding (it
    may replace a field with `object.__setattr__`).  Fields are read-only;
    `==`, `hash` and `repr` work on the tuple of fields.  This is what
    `dataclass(frozen=True)` gave, without compiling generated methods in
    every process.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated "
                                f"argument {key!r}")
        values.update(kwargs)
        for key in fields:
            if key not in values:
                try:
                    values[key] = getattr(type(self), key)
                except AttributeError:
                    raise TypeError(f"{name}() missing argument "
                                    f"{key!r}") from None
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[key] for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def _trilinear_weights(frac: np.ndarray) -> np.ndarray:
    """Weights (..., 8) of the corners `np.ndindex(2, 2, 2)` of a cell at
    offset `frac` (..., 3) in it: wa * wb * wc, w = 1 - frac or frac."""
    f = np.stack([1.0 - frac, frac], axis=-2)  # (..., corner offset, axis)
    w = (f[..., :, None, None, 0] * f[..., None, :, None, 1]
         * f[..., None, None, :, 2])
    return w.reshape(frac.shape[:-1] + (8,))


def _exponent(values, axis=None):
    """The e with max|values| in [2^(e-1), 2^e), per `axis` (kept) or over
    all values, and 0 where every value is 0: the one power-of-two scale
    rule.  Scaling by 2^-e is exact and brings the largest |value| into
    [0.5, 1), so products, norms and factorizations of the scaled values
    cannot overflow, and they equal the unscaled ones times a power of two
    to the last bit wherever those neither overflow nor underflow."""
    return np.frexp(np.max(np.abs(values), axis=axis,
                           keepdims=axis is not None, initial=0.0))[1]


def _require_memory(what: str, rows=0, voxels=0, entries=0, samples=0,
                    dense=0) -> int:
    """Bytes `what` needs by the size model; SystemTooLarge above the limit."""
    need = (_ROW_BYTES * rows + _VOXEL_BYTES * voxels + 8 * dense
            + _ENTRY_BYTES * entries + _SAMPLE_BYTES * samples)
    if need > _MEMORY_LIMIT:
        raise SystemTooLarge(f"{what} needs {need} bytes, above the "
                             f"{_MEMORY_LIMIT}-byte limit")
    return need


class _WeightedPoints(Record):
    """Positions (N, _dim) and weights (N,), coerced to arrays; DimMismatch
    unless both are finite, of one length, and the weights are >= 0.  The
    body of PointCloud and Projected2D, whose messages name their arrays
    with `_kind`."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = _as_array(self.positions, (-1, self._dim),
                        f"{self._kind}positions")
        w = _as_array(self.weights, -1, f"{self._kind}weights", lo=0)
        if len(pos) != len(w):
            raise DimMismatch(f"{len(pos)} positions vs {len(w)} weights")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.positions.shape[0]


class PointCloud(_WeightedPoints):
    """Weighted 3-D samples of an object.

    positions : (N, 3) float array
    weights   : (N,) nonnegative float array

    Raises DimMismatch unless both are finite, of one length, and the
    weights are >= 0.
    """

    _dim, _kind = 3, ""

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def translated(self, t) -> "PointCloud":
        return PointCloud(self.positions + _as_array(t, 3, "translation"),
                          self.weights)


class Projected2D(_WeightedPoints):
    """Planar image of a cloud: 2-D positions with carried-through weights.

    Raises DimMismatch unless both are finite, of one length, and the
    weights are >= 0, as PointCloud does.
    """

    _dim, _kind = 2, "image "


class GridHeader(Record):
    """Regular lattice: dims, site spacing, position of site (0, 0, 0).

    Voxel centers and vector-field or connection nodes are its sites.
    Raises DimMismatch unless dims are three integers >= 1, the spacing
    is finite and at least the smallest normal float 2^-1022 (a subnormal
    spacing holds fewer significant bits than the weights, so an operator
    would no longer be the spacing times the unit-spacing one) and the
    origin is a finite 3-vector.
    """

    dims: tuple
    spacing: float
    origin: np.ndarray

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:  # not iterable, or a non-integer entry
            dims = ()
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise DimMismatch(f"dims must be three integers >= 1, "
                              f"got {self.dims!r}")
        spacing = float(_as_array(self.spacing, (), "spacing"))
        if not spacing >= np.finfo(float).tiny:
            raise DimMismatch(f"spacing must be finite and >= 2^-1022, "
                              f"got {self.spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", _as_array(self.origin, 3, "origin"))

    def matches(self, other: "GridHeader") -> bool:
        """Same dims, spacings within 1e-12 of the larger spacing h, and
        origins within 1e-12 (h + the largest origin coordinate): relative
        tolerances, so lattices of spacings 1e-13 and 9e-13 differ."""
        h = max(self.spacing, other.spacing)
        far = max(np.max(np.abs(self.origin)), np.max(np.abs(other.origin)))
        return (self.dims == other.dims
                and abs(self.spacing - other.spacing) <= 1e-12 * h
                and np.max(np.abs(self.origin - other.origin))
                <= 1e-12 * h + 1e-12 * far)

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing * np.arange(self.dims[axis])

    def node_positions(self) -> np.ndarray:
        """Site positions, shape dims + (3,)."""
        return np.stack(np.meshgrid(*map(self.axis_coords, range(3)),
                                    indexing="ij"), axis=-1)

    @property
    def center(self) -> np.ndarray:
        return self.origin + self.spacing * (np.asarray(self.dims) - 1) / 2.0


class VoxelGrid(GridHeader):
    """Nonnegative density on the sites of a lattice.

    dims    : (nx, ny, nz)
    spacing : voxel edge length
    origin  : position of the center of voxel (0, 0, 0)
    values  : (nx, ny, nz) array of densities

    Raises DimMismatch, beside the lattice's own rule, unless the values
    are dims-shaped, finite and >= 0.
    """

    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "values", _as_array(
            self.values, self.dims, "voxel values", lo=0))


class ProjectionSpec(Record):
    """Right-handed orthonormal frame: u, w span the image plane, n views.

    Raises DimMismatch unless u, w and n are finite 3-vectors, and
    InvalidFrame unless they are orthonormal with det [u w n] = +1.
    """

    u: np.ndarray
    w: np.ndarray
    n: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")  # |v|^2 of a huge v is inf
    def __post_init__(self):
        u, w, n = (_as_array(getattr(self, k), 3, f"frame vector {k}")
                   for k in "uwn")
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


class Involution(Record):
    """Orthogonal matrix squaring to the identity.

    Raises DimMismatch unless the matrix is a finite 3x3 array, and
    InvalidInvolution unless it is an orthogonal involution.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_array(self.matrix, (3, 3), "involution matrix")
        if np.max(np.abs(m @ m.T - np.eye(3))) > 1e-12:
            raise InvalidInvolution("matrix is not orthogonal")
        if np.max(np.abs(m @ m - np.eye(3))) > 1e-12:
            raise InvalidInvolution("matrix squared is not the identity")
        object.__setattr__(self, "matrix", m)


class BackprojectionRay(Record):
    """All points base + t * direction project to one observation.

    Raises DimMismatch unless both are finite 3-vectors, and InvalidFrame
    unless the direction is unit.
    """

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        b = _as_array(self.base, 3, "ray base")
        d = _as_array(self.direction, 3, "ray direction")
        nrm = np.linalg.norm(d)
        if abs(nrm - 1.0) > 1e-9:
            raise InvalidFrame(f"ray direction not unit (|d| = {nrm})")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "direction", d)

    def point_at(self, t: float) -> np.ndarray:
        return self.base + t * self.direction


class Sinogram(Record):
    """Line-integral image: values[iu, iw] is pixel (iu, iw) of the
    `pixel_center_coords` lattice of the grid it was projected from.

    Raises DimMismatch unless the values are a finite 2-D array.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = _as_array(self.values, None, "sinogram values")
        if vals.ndim != 2:
            raise DimMismatch("sinogram values must be 2-D")
        object.__setattr__(self, "values", vals)


class CSR(Record):
    """Sparse matrix in compressed sparse row form.

    Row i holds the entries data[k] in columns indices[k] for k in
    indptr[i]: indptr[i + 1].  The attribute names are scipy.sparse's, so
    `scipy.sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)`
    wraps the same arrays.  `from_entries` and `vstack` of its results give
    the canonical form: column indices strictly increasing within each row.
    Two matrices are equal only when they are one object.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    __eq__, __hash__ = object.__eq__, object.__hash__

    @classmethod
    def from_entries(cls, data, rows, cols, shape) -> "CSR":
        """Canonical CSR matrix of the entries data[k] at (rows[k], cols[k]).

        One stable `np.lexsort` groups the duplicates of each (row, col),
        and one `np.bincount` sums each group from zero in the entries'
        given order.
        """
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        summed = np.bincount(np.cumsum(first) - 1, weights=data[order])
        indptr = np.zeros(shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(r[first], minlength=shape[0]), out=indptr[1:])
        return cls(indptr, c[first], summed, tuple(shape))

    @classmethod
    def vstack(cls, blocks) -> "CSR":
        """The blocks stacked vertically, by concatenating their arrays.

        Reads only indptr, indices, data and shape of each block, so
        scipy CSR matrices stack too.  Raises DimMismatch when the blocks
        differ in column count.
        """
        ncols = {b.shape[1] for b in blocks}
        if len(ncols) != 1:
            raise DimMismatch(
                f"blocks must share one column count, got {sorted(ncols)}")
        offsets = np.cumsum([0] + [b.indptr[-1] for b in blocks])
        indptr = np.concatenate([np.zeros(1, dtype=np.intp)] + [
            b.indptr[1:] + off for b, off in zip(blocks, offsets)])
        return cls(indptr, np.concatenate([b.indices for b in blocks]),
                   np.concatenate([b.data for b in blocks]),
                   (sum(b.shape[0] for b in blocks), ncols.pop()))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def row(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x) -> np.ndarray:
        """A @ x for a vector x, each row summed over its entries in order."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise DimMismatch(f"vector shape {x.shape} != ({self.shape[1]},)")
        return np.bincount(self.row, weights=self.data * x[self.indices],
                           minlength=self.shape[0])

    def toarray(self) -> np.ndarray:
        """The dense matrix, duplicate entries summed."""
        out = np.zeros(self.shape)
        np.add.at(out, (self.row, self.indices), self.data)
        return out


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


def _pixel_offsets(n: int) -> np.ndarray:
    """Offsets in spacings of n pixel centres from the image centre."""
    return np.arange(n) - (n - 1) / 2.0


def _aligned_pixels(grid: GridHeader, align, image_dims):
    """(iu, iw): the pixel of an axis-aligned frame, `_axis_alignment`'s
    `align`, that each voxel center lies in, each index shaped to broadcast
    along its grid axis, so values[iu, iw] reads the image at every voxel
    and keeps the viewing axis as 1.  This is the one voxel-to-pixel map of
    aligned frames.

    Both lattices are centered on the grid center, so voxel i of a grid
    axis with n voxels sits at pixel coordinate
    x = (m - 1) / 2 + sign * (i - (n - 1) / 2) on an image side of m
    pixels: 2x is an exact integer, and its pixel is k = floor(x + 1/2)
    = (2x + 1) // 2, the one above a pixel edge.  Raises DimMismatch when
    the image is smaller than the grid cross-section.
    """
    pixels = []
    for axis, sign, m in zip(align[0:4:2], align[1:4:2], image_dims):
        n = grid.dims[axis]
        k = (int(sign) * (2 * np.arange(n) - n + 1) + m) // 2
        if k.min() < 0 or k.max() >= m:
            raise DimMismatch(f"image dims {image_dims} smaller than "
                              "grid cross-section")
        pixels.append(k.reshape([n if a == axis else 1 for a in range(3)]))
    return tuple(pixels)


def pixel_center_coords(grid: GridHeader, spec: ProjectionSpec,
                        image_dims) -> tuple[np.ndarray, np.ndarray]:
    """The pixel lattice's axes (au, aw): pixel (iu, iw) is centred at the
    plane coordinates (au[iu], aw[iw]), `_pixel_offsets` grid spacings from
    the projection of the grid center.
    """
    return tuple(float(grid.center @ v) + _pixel_offsets(int(n)) * grid.spacing
                 for v, n in zip((spec.u, spec.w), image_dims))


def _footprint(grid: GridHeader, spec: ProjectionSpec, image_dims):
    """(iu, iw, ts) of a marched frame: the pixel rows and columns whose
    centres lie within two spacings of the projection of the grid's box,
    and the t lattice of their rays, in spacings from the grid centre,
    step 1/2 over a range covering the grid's bounding sphere.

    Every nonzero trilinear weight lies within one spacing of the box, and
    the footprint is never empty, as the pixel lattice is centred.
    """
    dims = np.asarray(grid.dims)
    iu, iw = (np.flatnonzero(np.abs(_pixel_offsets(int(m)))
                             <= np.abs(v) @ dims / 2 + 2)
              for m, v in zip(image_dims, (spec.u, spec.w)))
    half_diag = 0.5 * float(np.linalg.norm(dims))
    return iu, iw, np.arange(-half_diag - 1, half_diag + 1.5, 0.5)


def _entry_bound(grid: GridHeader, spec: ProjectionSpec, image_dims) -> int:
    """The entries `projection_operator` is counted for before it builds
    anything: one per voxel, or for a marched frame, when fewer, eight per
    sample of its footprint's rays, as a sample's trilinear weights reach
    at most eight voxels."""
    nvox = math.prod(grid.dims)
    if _axis_alignment(spec) is not None:
        return nvox
    iu, iw, ts = _footprint(grid, spec, image_dims)
    return min(nvox, 8 * ts.size * iu.size * iw.size)


def _slice_axis(grid: GridHeader, spec: ProjectionSpec, image_dims):
    """(side, a, sign) when the image axis `side` (0 for u, 1 for w) is
    exactly sign * e_a, the frame's other two vectors are exactly 0 on grid
    axis a and that image side exceeds dims[a] by an even number of pixels,
    else None.  Then every ray lies on a voxel plane across axis a, so one
    pixel line sees one slice, bitwise as any other line sees its own."""
    vectors = (spec.u, spec.w, spec.n)
    for side in (0, 1):
        v = vectors[side]
        a = int(np.argmax(np.abs(v)))
        if (abs(v[a]) == 1.0 and np.count_nonzero(v) == 1
                and all(vectors[k][a] == 0 for k in range(3) if k != side)
                and (int(image_dims[side]) - grid.dims[a]) % 2 == 0):
            return side, a, int(v[a])
    return None


def projection_operator(grid: GridHeader, spec: ProjectionSpec,
                        image_dims) -> CSR:
    """Sparse line-integral operator from voxel values to sinogram pixels.

    Row iu * nw + iw is the pixel (iu, iw) of the `pixel_center_coords`
    lattice; column j is voxel j of the grid in row-major order, as in
    `VoxelGrid.values.ravel()`; only the lattice is read.  An axis-aligned
    frame gets one exact entry per voxel, the spacing (the length of the
    ray through the voxel center), in the pixel containing the voxel
    center.  Pixels are half-open, [c - h/2, c + h/2) about their center c
    along each image axis: when an image side exceeds the grid's
    cross-section by an odd number of pixels the voxel centers fall on
    pixel edges and each goes to the pixel above it, so every voxel row
    owns one pixel.  Any other frame marches the rays of the `_footprint`'s
    pixels (the other rows stay empty), in spacings from the grid center,
    with step 1/2: each sample adds its trilinear weights to the (up to)
    eight surrounding voxels, with zero density outside the grid; the
    weights of one (pixel, voxel) pair are summed in (t, corner) order,
    then times the step, spacing / 2.  So the operator is bitwise the
    spacing times the unit grid's with the same dims, and the origin never
    matters.  When every ray lies on a voxel plane across one grid axis
    (`_slice_axis`, the single-axis parallel-beam split of Kak & Slaney,
    *Principles of Computerized Tomographic Imaging*, 1988, ch. 3), only
    the pixel line of one slice is marched, on the whole grid's t lattice,
    and its entries, columns shifted by the slice offsets, fill every other
    slice's line: the same bits as marching each.  The result is a
    canonical `CSR` matrix.

    Raises DimMismatch unless both image dims are >= 1, and when an
    axis-aligned image is smaller than the grid cross-section;
    SystemTooLarge by `_require_memory`, counting the `_entry_bound`
    before anything is built, the entries so far before each march block
    and the tiled entries before they are made.
    """
    nu, nw = _image_dims(image_dims)
    h, nvox = grid.spacing, math.prod(grid.dims)
    shape = (nu * nw, nvox)
    what = f"projecting {nvox} voxels on a {nu}x{nw} image"
    _require_memory(what, shape[0], nvox, _entry_bound(grid, spec, (nu, nw)))
    align = _axis_alignment(spec)
    if align is not None:
        iu, iw = _aligned_pixels(grid, align, (nu, nw))
        # one entry per voxel, so the stable sort of the voxels by pixel is
        # the canonical column order, with no duplicates to sum
        row = np.broadcast_to(iu * nw + iw, grid.dims).ravel()
        indptr = np.zeros(shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(row, minlength=shape[0]), out=indptr[1:])
        return CSR(indptr, np.argsort(row, kind="stable"), np.full(nvox, h),
                   shape)
    # Lattice units, spacings from the grid centre: a sample on a voxel
    # plane stays exactly on it.
    dims = np.asarray(grid.dims)
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    iu, iw, ts = _footprint(grid, spec, (nu, nw))
    sliced = _slice_axis(grid, spec, (nu, nw))
    if sliced is not None:
        # pixel line l along that image side lies on the slice
        # (n - 1) / 2 + sign * (l - (m - 1) / 2), as in the aligned case; m - n
        # is even, so the lines that see the grid are a centred run
        side, a, sign = sliced
        m, n = (nu, nw)[side], grid.dims[a]
        lines = np.arange(max(0, (m - n) // 2), min(m, (m + n) // 2))
        iu, iw = (lines[:1], iw) if side == 0 else (iu, lines[:1])
    bases = (_pixel_offsets(nu)[iu, None, None] * spec.u
             + _pixel_offsets(nw)[None, iw, None] * spec.w).reshape(-1, 3)
    counts, indices, data = [], [], []
    # Blocks of whole footprint pixels, every t of each, at most
    # _MARCH_BLOCK samples unless one ray is longer, bound the (t, corner,
    # pixel) scratch arrays.  Every row's entries come from one block, in
    # (t, corner) order, so `CSR.from_entries` finishes the block's rows
    # and sums duplicates in the same order for every block size.
    pstep = max(1, _MARCH_BLOCK // ts.size)
    for p0 in range(0, len(bases), pstep):
        # the entries so far and one block's scratch, before it is made
        _require_memory(what, shape[0], nvox, sum(map(len, data)),
                        ts.size * min(pstep, len(bases)))
        f = bases[p0:p0 + pstep] + ts[:, None, None] * spec.n + (dims - 1) / 2
        i0 = np.floor(f).astype(int)
        frac = f - i0
        base = i0 @ strides
        wgt = np.moveaxis(_trilinear_weights(frac), -1, 1)  # (t, 8, pixel)
        col = np.empty(wgt.shape, dtype=base.dtype)
        for k, corner in enumerate(np.ndindex(2, 2, 2)):
            idx = i0 + corner
            wgt[:, k][np.any((idx < 0) | (idx >= dims), axis=-1)] = 0.0
            col[:, k] = base + strides @ corner
        sel = wgt > 0
        block = CSR.from_entries(wgt[sel], np.nonzero(sel)[2], col[sel],
                                 (wgt.shape[2], nvox))
        counts.append(np.diff(block.indptr))
        indices.append(block.indices)
        data.append(h / 2 * block.data)  # the step, in world units
    counts, indices, data = map(np.concatenate, (counts, indices, data))
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    if sliced is None:
        indptr[(iu[:, None] * nw + iw).ravel() + 1] = counts
        np.cumsum(indptr, out=indptr)
        return CSR(indptr, indices, data, shape)
    # every line's rows in ascending order: line-major for lines of u,
    # pixel-major for lines of w; each takes the marched pixel p's entries,
    # its columns shifted by its slice's offset from the marched one
    line, p = np.meshgrid(lines, np.arange(counts.size),
                          indexing="ij" if side == 0 else "xy")
    line, p = line.ravel(), p.ravel()
    other = (iw, iu)[side][p]
    row = line * nw + other if side == 0 else other * nw + line
    size = counts[p]
    _require_memory(what, shape[0], nvox, int(size.sum()))
    # entry e of a row is entry e of its marched pixel's run
    first = np.cumsum(counts) - counts
    src = np.repeat(first[p] - np.cumsum(size) + size, size)
    src += np.arange(src.size)
    indptr[row + 1] = size
    np.cumsum(indptr, out=indptr)
    shift = sign * (line - lines[0]) * strides[a]
    return CSR(indptr, indices[src] + np.repeat(shift, size), data[src],
               shape)


def project_voxels(grid: VoxelGrid, spec: ProjectionSpec,
                   image_dims) -> Sinogram:
    """Line-integral projection of a voxel density.

    The image is `projection_operator(grid, spec, image_dims)` applied to
    the voxel values, the same operator whose rows `build_radon_system`
    stacks: exact column sums (entry = spacing * column sum) for
    axis-aligned frames, trilinear ray marching with step = spacing / 2
    for any other frame.

    Raises DimMismatch unless both image dims are >= 1, and when an
    axis-aligned image is smaller than the grid cross-section.
    """
    nu, nw = _image_dims(image_dims)
    op = projection_operator(grid, spec, (nu, nw))
    return Sinogram((op @ grid.values.ravel()).reshape(nu, nw))


def _image_dims(image_dims) -> tuple[int, int]:
    """(nu, nw), an image's pixel counts; raises DimMismatch unless both
    are integers >= 1, through `_require_int`."""
    return tuple(_require_int(n, "image dim", 1) for n in image_dims[:2])


def _require_int(value, what: str, lo=None) -> int:
    """`value` through `operator.index`, as GridHeader takes its dims: the
    one rule of the integer counts, orders, seeds and indices, which
    returns the int.  Raises DimMismatch naming `what` for a float, NaN,
    string or other non-integer, which `int()` would truncate or refuse
    with another error, and for a value below `lo` when it is given."""
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise DimMismatch(f"{what} must be an integer: {exc}") from exc
    if lo is not None and value < lo:
        raise DimMismatch(f"{what} must be >= {lo}, got {_brief(value)}")
    return value


def _require_dim(dim) -> None:
    """Raise DimMismatch unless `dim`, the number of components of a
    direction constraint, is 3 or 4 through `operator.index`, as GridHeader
    takes its dims: 3.0 is refused."""
    try:
        if operator.index(dim) in (3, 4):
            return
    except TypeError:
        pass
    raise DimMismatch(f"dim must be 3 or 4, got {_brief(dim)}")


def _require_tol(value, what: str = "tol") -> float:
    """`value`, a tolerance or noise level, as a float through `_as_array`;
    DimMismatch naming `what` unless it is a real number, finite and >= 0: a
    NaN or negative tolerance makes every `<= tol` or `> tol` verdict
    meaningless, and an infinite one passes everything and is not a JSON
    number."""
    return float(_as_array(value, (), what, lo=0))


def _cross_norm(spec1: ProjectionSpec, spec2: ProjectionSpec,
               tol: float | None = None) -> float:
    """|n1 x n2|, the sine of the angle between two viewing directions.

    This is the one transversality margin: triangulation, the noise
    amplification, the CLI gates and the uniqueness certificate all read
    it.  It vanishes exactly when the two frames see along one axis, and
    the triangulation map M has |M|_F^2 = 1/2 + 2 / |n1 x n2|^2.

    Raises NonTransverse when tol is given and |n1 x n2| <= tol, and
    DimMismatch when tol is NaN or negative, which would pass coaxial
    frames, or infinite.
    """
    if tol is not None:
        tol = _require_tol(tol)
    cn = float(np.linalg.norm(np.cross(spec1.n, spec2.n)))
    if tol is not None and cn <= tol:
        raise NonTransverse(f"|n1 x n2| = {cn} <= tol = {tol}")
    return cn


class TransversalityCheck(Record):
    """The margin |n1 x n2| and its verdict, transversal when > tol."""

    cross_norm: float
    transversal: bool

    def to_dict(self) -> dict:
        return {"cross_norm": self.cross_norm, "pass": self.transversal}


def check_transversality(spec1: ProjectionSpec, spec2: ProjectionSpec,
                         tol: float = 1e-9) -> TransversalityCheck:
    """Joint rank of the two moment-map differentials under translations.

    Translating the object by t moves the moment pair by
    (t.u1, t.w1, t.u2, t.w2); the 4x3 matrix D of those covectors has
    singular values sqrt(2), sqrt(1 + |c|) and sqrt(1 - |c|), c = n1 . n2.
    The margin |n1 x n2| is the product of the two smaller ones: it
    vanishes exactly when D loses rank (coaxial views), lies between the
    smallest and sqrt(2) times it, and is `_cross_norm`, so the verdict
    (transversal when > tol) agrees with every gate.  Raises DimMismatch
    unless tol is a real number, finite and >= 0.
    """
    cn = _cross_norm(spec1, spec2)
    return TransversalityCheck(cn, cn > _require_tol(tol))


def _rank_above(svals: np.ndarray, smax: float) -> int:
    """Number of singular values in svals above _RANK_TOL times smax."""
    return int(np.sum(svals > _RANK_TOL * smax)) if smax > 0 else 0


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its largest-magnitude entry positive."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


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
    """Fiber of a planar observation: the ray along the viewing direction.

    Raises DimMismatch unless obs is a finite 2-vector.
    """
    o = _as_array(obs, 2, "observation")
    base = o[0] * spec.u + o[1] * spec.w
    return BackprojectionRay(base, spec.n)


def coordinate_spec(axis: int) -> ProjectionSpec:
    """Right-handed frame viewing along coordinate axis `axis` (0, 1, 2):
    u, w, n = e[axis + 1], e[axis + 2], e[axis], indices mod 3.  Raises
    DimMismatch for any other axis."""
    axis = _require_int(axis, "axis", 0)
    if axis > 2:
        raise DimMismatch(f"axis must be 0, 1 or 2, got {axis}")
    return ProjectionSpec(*np.eye(3)[[(axis + k) % 3 for k in (1, 2, 3)]])


#: Frames projecting along +z, +x, +y respectively.
SPEC_XY = coordinate_spec(2)
SPEC_YZ = coordinate_spec(0)
SPEC_ZX = coordinate_spec(1)
