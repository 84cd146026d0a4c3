import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from twoview.algebra import FiniteMagma, TwistMap, Verdict
from twoview.certify import TrivializationCoords, certificate
from twoview.diffgeo import (ConnectionField, VectorFieldGrid,
                             integrability_report, parallel_transport)
from twoview.errors import (
    DimMismatch,
    HeaderMismatch,
    InvalidFrame,
    InvalidInvolution,
    NonTransverse,
    TwoViewError,
)
from twoview.geometry import (
    CSR,
    BackprojectionRay,
    GridHeader,
    Involution,
    PointCloud,
    Projected2D,
    ProjectionSpec,
    Sinogram,
    TransversalityCheck,
    VoxelGrid,
    _cross_norm,
    apply_involution,
    backproject,
    check_transversality,
    coordinate_spec,
    pixel_center_coords,
    project_points,
    project_voxels,
    projection_operator,
)
from twoview.moments import MomentValue, SecondMoment3D
from twoview.recon import ConstraintRow, noise_study, triangulate
from twoview.toric import detect_axis, group_average, rotation_about
from twoview import geometry, recon
from conftest import random_cloud, random_spec, rotated_about_z, tilted_spec

E = np.eye(3)
XY = coordinate_spec(2)  # u=e1, w=e2, n=e3
YZ = coordinate_spec(0)  # u=e2, w=e3, n=e1


class TestProjectionSpec:
    def test_valid_frame(self):
        ProjectionSpec(E[0], E[1], E[2])

    def test_not_unit(self):
        with pytest.raises(InvalidFrame):
            ProjectionSpec(2 * E[0], E[1], E[2])

    def test_not_orthogonal(self):
        v = (E[0] + E[1]) / np.sqrt(2)
        with pytest.raises(InvalidFrame):
            ProjectionSpec(E[0], v, E[2])

    def test_left_handed(self):
        with pytest.raises(InvalidFrame):
            ProjectionSpec(E[0], E[1], -E[2])


class TestProjectPoints:
    def test_coordinate_plane(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]], [1.0])
        img = project_points(cloud, XY)
        np.testing.assert_array_equal(img.positions, [[1.0, 2.0]])

    def test_two_points(self):
        cloud = PointCloud([[0, 0, 0], [2, 0, 0]], [1.0, 1.0])
        img = project_points(cloud, XY)
        np.testing.assert_array_equal(img.positions, [[0, 0], [2, 0]])

    def test_yz_plane(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]], [1.0])
        img = project_points(cloud, YZ)
        np.testing.assert_array_equal(img.positions, [[2.0, 3.0]])

    def test_weights_preserved(self, rng):
        cloud = random_cloud(rng, 20)
        img = project_points(cloud, random_spec(rng))
        np.testing.assert_array_equal(img.weights, cloud.weights)
        assert len(img) == len(cloud)

    def test_translation_linearity(self, rng):
        cloud = random_cloud(rng, 15)
        spec = random_spec(rng)
        t = rng.standard_normal(3)
        a = project_points(cloud.translated(t), spec).positions
        b = project_points(cloud, spec).positions
        shift = np.array([t @ spec.u, t @ spec.w])
        np.testing.assert_allclose(a - b, np.tile(shift, (15, 1)), atol=1e-12)


class TestProjectVoxels:
    def test_single_voxel(self):
        vals = np.zeros((2, 2, 2))
        vals[0, 0, 0] = 1.0
        grid = VoxelGrid((2, 2, 2), 0.5, (0, 0, 0), vals)
        sino = project_voxels(grid, XY, (2, 2))
        assert np.count_nonzero(sino.values) == 1
        assert sino.values.max() == pytest.approx(0.5)

    def test_uniform_grid_constant_image(self):
        c, nz, h = 0.7, 4, 0.25
        grid = VoxelGrid((3, 5, nz), h, (0, 0, 0), np.full((3, 5, nz), c))
        sino = project_voxels(grid, XY, (3, 5))
        np.testing.assert_allclose(sino.values, c * nz * h, atol=1e-12)

    def test_column_sum_oracle(self, rng):
        vals = rng.uniform(0, 1, (4, 4, 4))
        grid = VoxelGrid((4, 4, 4), 0.3, (-0.1, 0.2, 0.05), vals)
        sino = project_voxels(grid, XY, (4, 4))
        # independent per-ray summation
        expected = (0.3 * vals).sum(axis=2)
        np.testing.assert_array_equal(sino.values, expected)

    def test_mass_conservation(self, rng):
        vals = rng.uniform(0, 1, (3, 4, 5))
        h = 0.2
        grid = VoxelGrid((3, 4, 5), h, (0, 0, 0), vals)
        for axis in range(3):
            sino = project_voxels(grid, coordinate_spec(axis), (6, 6))
            lhs = sino.values.sum() * h * h
            rhs = vals.sum() * h ** 3
            assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_image_too_small(self, rng):
        grid = VoxelGrid((4, 4, 4), 1.0, (0, 0, 0), np.ones((4, 4, 4)))
        with pytest.raises(DimMismatch):
            project_voxels(grid, XY, (2, 2))

    @pytest.mark.parametrize("dims", [(0, 4), (4, -2), (-2, -2)])
    @pytest.mark.parametrize("spec", [XY, tilted_spec(np.radians(30))],
                             ids=["axis", "tilt30"])
    def test_image_dims_below_one(self, spec, dims):
        grid = VoxelGrid((4, 4, 4), 1.0, (0, 0, 0), np.ones((4, 4, 4)))
        first = next(n for n in dims if n < 1)
        with pytest.raises(DimMismatch,
                           match=f"^image dim must be >= 1, got {first}$"):
            projection_operator(grid, spec, dims)

    @pytest.mark.parametrize("dims", [(2.5, 3.9), (3.7, 3.2), (2.0, 2),
                                      (2, "2"), (2, None)])
    @pytest.mark.parametrize("spec", [XY, tilted_spec(np.radians(30))],
                             ids=["axis", "tilt30"])
    def test_image_dims_must_be_integers(self, spec, dims):
        # int() once truncated them: (3.7, 3.2) projected a 3x3 sinogram
        grid = VoxelGrid((2, 2, 2), 1.0, (0, 0, 0), np.ones((2, 2, 2)))
        with pytest.raises(DimMismatch, match="image dim must be an integer"):
            project_voxels(grid, spec, dims)

    def test_ray_march_matches_exact_for_axis_aligned(self, rng):
        # tilt by a tiny angle would change values; instead compare the
        # marched estimate on a smooth blob against the exact column sums
        n, h = 8, 0.25
        grid_pts = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"),
                            axis=-1)
        blob = np.exp(-np.sum((grid_pts - (n - 1) / 2) ** 2, axis=-1) / 8.0)
        grid = VoxelGrid((n, n, n), h, (0, 0, 0), blob)
        exact = project_voxels(grid, XY, (n, n)).values
        c, s = np.cos(1e-7), np.sin(1e-7)
        tilted = ProjectionSpec([1, 0, 0], [0, c, s], [0, -s, c])
        marched = project_voxels(grid, tilted, (n, n)).values
        assert np.max(np.abs(marched - exact)) < 0.05 * exact.max()

    @pytest.mark.parametrize("deg", [10, 30, 45])
    def test_tilted_mass_conservation(self, deg):
        # the trilinear interpolant integrates to sum(vals) h^3 exactly, so
        # only the step = h/2 ray-march discretization error remains
        n, h = 10, 0.25
        grid_pts = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"),
                            axis=-1)
        blob = np.exp(-np.sum((grid_pts - (n - 1) / 2) ** 2, axis=-1) / 8.0)
        grid = VoxelGrid((n, n, n), h, (0, 0, 0), blob)
        spec = tilted_spec(np.radians(deg))
        sino = project_voxels(grid, spec, (2 * n, 2 * n))
        lhs = sino.values.sum() * h * h
        rhs = blob.sum() * h ** 3
        assert abs(lhs - rhs) <= 1e-3 * rhs


def reference_projection_operator(grid, spec, image_dims):
    """The tilted march over every pixel of the image, the oracle for the
    footprint march: each block of at most 2^16 (t, pixel) samples is a
    range of t-slices times a range of pixels."""
    nu, nw = image_dims
    h, nvox = grid.spacing, int(np.prod(grid.dims))
    au, aw = pixel_center_coords(grid, spec, image_dims)
    coords = np.stack(np.meshgrid(au, aw, indexing="ij"), axis=-1)
    step = h / 2.0
    half_diag = 0.5 * h * float(np.linalg.norm(grid.dims))
    tc = float(grid.center @ spec.n)
    ts = np.arange(tc - half_diag - h, tc + half_diag + h + step, step)
    dims = np.asarray(grid.dims)
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    flat = coords.reshape(-1, 2)
    bases = flat[:, 0:1] * spec.u + flat[:, 1:2] * spec.w
    data, rows, cols = [], [], []
    pstep = min(len(bases), 1 << 16)
    tstep = (1 << 16) // pstep
    for t0 in range(0, ts.size, tstep):
        for p0 in range(0, len(bases), pstep):
            f = (bases[p0:p0 + pstep] + ts[t0:t0 + tstep, None, None] * spec.n
                 - grid.origin) / h
            i0 = np.floor(f).astype(int)
            frac = f - i0
            base = i0 @ strides
            wgt = np.moveaxis(geometry._trilinear_weights(frac), -1, 1)
            col = np.empty(wgt.shape, dtype=base.dtype)
            for k, corner in enumerate(np.ndindex(2, 2, 2)):
                idx = i0 + corner
                wgt[:, k][np.any((idx < 0) | (idx >= dims), axis=-1)] = 0.0
                col[:, k] = base + strides @ corner
            sel = wgt > 0
            data.append(step * wgt[sel])
            rows.append(np.nonzero(sel)[2] + p0)
            cols.append(col[sel])
    return CSR.from_entries(np.concatenate(data), np.concatenate(rows),
                            np.concatenate(cols), (nu * nw, nvox))


def unit_grid(dims):
    """The unit-spacing grid of these dims, centred on the origin: on it
    world and lattice coordinates coincide exactly, so the world-coordinate
    `reference_projection_operator` marches the lattice-unit samples."""
    return GridHeader(dims, 1.0, -(np.asarray(dims) - 1) / 2.0)


def scaled(op, h):
    """op with every stored value times h."""
    return CSR(op.indptr, op.indices, h * op.data, op.shape)


def assert_bitwise(op, ref):
    assert op.shape == ref.shape
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(op, attr), getattr(ref, attr)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def about_axis(axis, theta):
    """The coordinate frame turned by theta about axis `axis`: the normal
    keeps an exact zero component."""
    c, s = np.cos(theta), np.sin(theta)
    i, j = [k for k in range(3) if k != axis]
    R = np.eye(3)
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    return ProjectionSpec(R[:, 0], R[:, 1], R[:, 2])


def sliced_spec(side, a, sign, theta):
    """A frame whose image axis `side` (0 for u, 1 for w) is sign * e_a,
    the other two vectors turned by theta in the plane across axis a."""
    b, c = (a + 1) % 3, (a + 2) % 3
    axis, other = sign * E[a], np.cos(theta) * E[b] + np.sin(theta) * E[c]
    u, w = (axis, other) if side == 0 else (other, axis)
    return ProjectionSpec(u, w, np.cross(u, w))


def march_case(seed):
    """A seeded grid, tilted frame and image for the footprint march."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 9, 3))
    grid = GridHeader(dims, float(rng.choice([0.3, 0.5, 1.0, 1.7])),
                      rng.normal(size=3))
    spec = (random_spec(rng) if seed % 2 else
            about_axis(seed // 2 % 3, rng.uniform(0.05, 1.5)))
    image = [int(n) for n in rng.integers(1, 30, 2)]
    if seed % 6 == 1:
        image[seed // 6 % 2] = 1
    return grid, spec, tuple(image)


class TestProjectionOperator:
    def test_ray_march_block_size_does_not_change_entries(self, rng,
                                                          monkeypatch):
        grid = VoxelGrid((5, 6, 4), 0.5, (0.1, -0.3, 0.2),
                         rng.uniform(0, 1, (5, 6, 4)))
        spec = tilted_spec(np.radians(30))
        whole = projection_operator(grid, spec, (9, 9))
        monkeypatch.setattr(geometry, "_MARCH_BLOCK", 100)
        blocked = projection_operator(grid, spec, (9, 9))
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(blocked, attr),
                                          getattr(whole, attr))

    @pytest.mark.parametrize("block", [3, 37])
    def test_pixel_ranges_below_one_t_slice_keep_entries(self, block, rng,
                                                         monkeypatch):
        # blocks shorter than one ray: one pixel, every t of it, per block
        grid = VoxelGrid((4, 5, 3), 0.5, (0.1, -0.3, 0.2),
                         rng.uniform(0, 1, (4, 5, 3)))
        specs = [tilted_spec(np.radians(30))] + [random_spec(rng)
                                                 for _ in range(3)]
        whole = [projection_operator(grid, spec, (9, 11)) for spec in specs]
        monkeypatch.setattr(geometry, "_MARCH_BLOCK", block)
        for spec, ref in zip(specs, whole):
            split = projection_operator(grid, spec, (9, 11))
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(split, attr),
                                              getattr(ref, attr))

    def test_ray_march_scratch_is_bounded_below_one_t_slice(self,
                                                            monkeypatch):
        # a 64 x 64 t-slice once went into one block whatever its size:
        # about 1.8 MB of scratch at 1024 samples per block
        monkeypatch.setattr(geometry, "_MARCH_BLOCK", 1024)
        grid = VoxelGrid((3, 3, 3), 1.0, (-1, -1, -1), np.ones((3, 3, 3)))
        tracemalloc.start()
        try:
            op = projection_operator(grid, tilted_spec(np.radians(30)),
                                     (64, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.shape == (4096, 27)
        assert peak < 1.0 * 2**20

    @pytest.mark.parametrize("block", [3, 37, None])
    @pytest.mark.parametrize("seed", range(24))
    def test_footprint_march_is_bitwise_the_full_image_march(self, seed,
                                                             block,
                                                             monkeypatch):
        # the lattice-unit march on any grid is its spacing times the
        # world-coordinate march on the unit centred grid
        grid, spec, image = march_case(seed)
        ref = scaled(reference_projection_operator(unit_grid(grid.dims), spec,
                                                   image), grid.spacing)
        if block is not None:
            monkeypatch.setattr(geometry, "_MARCH_BLOCK", block)
        assert ref.nnz > 0
        assert_bitwise(projection_operator(grid, spec, image), ref)

    @pytest.mark.parametrize("seed", range(24))
    def test_operator_is_the_spacing_times_the_unit_grids(self, seed):
        # world-coordinate samples once drifted off the voxel planes at
        # spacings that are not powers of two, or off-centre origins
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 9, 3))
        spec = (random_spec(rng) if seed % 2 else
                about_axis(seed // 2 % 3, rng.uniform(0.05, 1.5)))
        image = tuple(int(n) for n in rng.integers(1, 30, 2))
        unit = projection_operator(unit_grid(dims), spec, image)
        for h in (0.1, 0.3, 0.7, 1.7):
            grid = GridHeader(dims, h, rng.normal(scale=10.0, size=3))
            assert_bitwise(projection_operator(grid, spec, image),
                           scaled(unit, h))

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_rotation_about_x_keeps_one_component_per_x_slice(self, h):
        # rounding-level entries once joined neighbouring x-slices: 12
        # components at spacing 0.7
        n, theta = 24, np.radians(30)
        grid = GridHeader((n, n, n), h, -h * (n - 1) / 2.0 * np.ones(3))
        A = CSR.vstack([projection_operator(grid, spec, (36, 36))
                        for spec in (XY, about_axis(0, theta))])
        rows = A.shape[0]
        _, labels = recon._components(rows + A.shape[1], A.row,
                                      rows + A.indices)
        col_label = labels[rows:].reshape(n, n * n)
        assert np.all(col_label == col_label[:, :1])
        assert np.unique(col_label[:, 0]).size == n

    @pytest.mark.parametrize("d", [32, 48])
    def test_march_holds_one_block_beside_its_operator(self, d):
        # every block's raw entries once lived until one final merge: a
        # peak of 143 MB for this 8.3 MB operator at d = 48
        grid = GridHeader((d, d, d), 1.0, -(d - 1) / 2 * np.ones(3))
        spec = rotated_about_z(tilted_spec(np.radians(30)), np.radians(17))
        tracemalloc.start()
        try:
            op = projection_operator(grid, spec, (d, d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = op.indptr.nbytes + op.indices.nbytes + op.data.nbytes
        # one block's scratch, measured at about 589 B per (t, pixel)
        # sample: below what the size model counts for it
        assert peak - held < geometry._SAMPLE_BYTES * geometry._MARCH_BLOCK

    @pytest.mark.parametrize("seed", range(12))
    def test_aligned_operator_is_bitwise_its_entries(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 7, 3))
        grid = GridHeader(dims, float(rng.choice([0.3, 1.0, 1.7])),
                          rng.normal(size=3))
        spec = coordinate_spec(seed % 3)
        if seed // 3 % 2:
            spec = ProjectionSpec(-spec.u, spec.w, -spec.n)
        align = geometry._axis_alignment(spec)
        image = (dims[align[0]] + int(rng.integers(0, 4)),
                 dims[align[2]] + int(rng.integers(0, 4)))
        ref = CSR.from_entries(*aligned_entries(grid, spec, image),
                               (image[0] * image[1], int(np.prod(dims))))
        assert_bitwise(projection_operator(grid, spec, image), ref)

    def test_tilted_march_memory_follows_the_grid(self):
        # the full-image march peaked at about 64 B per pixel; the
        # operator's own row pointers are 8 B per pixel
        grid = GridHeader((3, 3, 3), 1.0, (-1, -1, -1))
        tracemalloc.start()
        try:
            op = projection_operator(grid, tilted_spec(np.radians(30)),
                                     (1024, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.shape == (1024 * 1024, 27) and op.nnz > 0
        assert peak < 24 * 1024 * 1024

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("side", [0, 1], ids=["u", "w"])
    def test_sliced_march_is_bitwise_the_full_image_march(self, side, a,
                                                          sign):
        # one pixel line marched, its entries shifted to every other slice:
        # odd and even slice counts, images wider and narrower than the
        # grid along the pixel axis, spacings that are and are not powers
        # of two
        rng = np.random.default_rng(10 * side + 3 * a + (sign > 0))
        for dims_a, extra in ((5, 0), (4, 2), (7, -2), (6, -4), (1, 4)):
            dims = [int(d) for d in rng.integers(2, 7, 3)]
            dims[a] = dims_a
            spec = sliced_spec(side, a, sign, rng.uniform(0.1, 1.4))
            image = [int(rng.integers(1, 14)), int(rng.integers(1, 14))]
            image[side] = dims_a + extra
            ref = reference_projection_operator(unit_grid(dims), spec, image)
            for h in (0.7, 2.0 ** -3):
                grid = GridHeader(dims, h, rng.normal(size=3))
                assert geometry._slice_axis(grid, spec, image) == (side, a,
                                                                    sign)
                assert_bitwise(projection_operator(grid, spec, image),
                               scaled(ref, h))

    def test_near_sliced_frame_takes_the_full_march(self):
        # u = e_x exactly, but w_x = 1e-17 puts the rays off the x-planes
        c, s = np.cos(np.radians(30)), np.sin(np.radians(30))
        spec = ProjectionSpec([1.0, 0.0, 0.0], [1e-17, c, s], [0.0, -s, c])
        grid = GridHeader((5, 4, 6), 0.7, (0.2, -1.0, 0.5))
        assert geometry._slice_axis(grid, spec, (7, 9)) is None
        ref = reference_projection_operator(unit_grid(grid.dims), spec,
                                            (7, 9))
        assert_bitwise(projection_operator(grid, spec, (7, 9)),
                       scaled(ref, grid.spacing))

    def test_sliced_march_counts_its_tiled_entries(self, monkeypatch):
        # one line's march counts one line's entries; the tiled entries are
        # counted before they are made
        grid = GridHeader((12, 12, 12), 1.0, np.zeros(3))
        spec, image = tilted_spec(np.radians(30)), (12, 18)
        counts = []
        require = geometry._require_memory
        monkeypatch.setattr(geometry, "_require_memory",
                            lambda *args: counts.append(args[3])
                            or require(*args))
        op = projection_operator(grid, spec, image)
        assert counts[0] == 12 ** 3  # one per voxel, before anything
        assert counts[1:-1] == [0]  # one march block, a single line's
        assert counts[-1] == op.nnz > 12 ** 3

    def test_axis_aligned_rows_are_spacing_per_voxel(self):
        grid = VoxelGrid((3, 4, 5), 0.3, (0, 0, 0), np.zeros((3, 4, 5)))
        op = projection_operator(grid, YZ, (6, 7))
        assert op.shape == (42, 60)
        np.testing.assert_array_equal(
            np.bincount(op.indices, minlength=op.shape[1]), 1)
        np.testing.assert_array_equal(op.data, 0.3)

    @pytest.mark.parametrize("excess", [(0, 0), (2, 4), (1, 1), (3, 2)])
    @pytest.mark.parametrize(
        "spec", [XY, YZ, ProjectionSpec(-E[1], E[0], E[2])],
        ids=["XY", "YZ", "-YX"])
    def test_axis_aligned_pixels_are_half_open(self, spec, excess):
        # a voxel center on a pixel edge (odd excess) goes to the pixel
        # above it, half a spacing up, so no pixel gets two voxel rows
        h, dims = 0.3, (4, 5, 3)
        grid = VoxelGrid(dims, h, (0.7, -1.1, 2.0), np.zeros(dims))
        shape = tuple(int(np.abs(a) @ dims) + e
                      for a, e in zip((spec.u, spec.w), excess))
        op = projection_operator(grid, spec, shape)
        # the one pixel of each voxel
        pixel = op.row[np.argsort(op.indices, kind="stable")]
        au, aw = pixel_center_coords(grid, spec, shape)
        centers = np.stack(np.meshgrid(au, aw, indexing="ij"),
                           axis=-1).reshape(-1, 2)
        proj = grid.node_positions().reshape(-1, 3) @ np.column_stack(
            [spec.u, spec.w])
        offset = (proj - centers[pixel]) / h
        np.testing.assert_allclose(offset + 0.5 * (np.array(excess) % 2),
                                   0.0, atol=1e-12)
        depth = int(np.abs(spec.n) @ dims)
        assert set(np.bincount(op.row, minlength=op.shape[0])) <= {0, depth}


def aligned_entries(grid, spec, image_dims):
    """The raw entries of an axis-aligned operator: the spacing, for each
    voxel, in the pixel that holds its centre (centres on a pixel edge go
    to the pixel above)."""
    align = geometry._axis_alignment(spec)
    voxel = np.indices(grid.dims).reshape(3, -1)
    iu, iw = ((int(sign) * (2 * voxel[axis] - grid.dims[axis] + 1) + m) // 2
              for axis, sign, m in ((*align[0:2], image_dims[0]),
                                    (*align[2:4], image_dims[1])))
    return (np.full(voxel.shape[1], grid.spacing), iu * image_dims[1] + iw,
            np.arange(voxel.shape[1]))


def operator_and_scipy(monkeypatch, grid, spec, image_dims):
    """projection_operator's result and the scipy CSR matrix that
    `coo_matrix(...).tocsr()` builds from the operator's raw entries, with
    the number of entries summed into each stored value: `aligned_entries`
    for an axis-aligned frame, for any other the spacing times the entries
    `reference_projection_operator` marches on its unit grid."""
    shape = (image_dims[0] * image_dims[1], int(np.prod(grid.dims)))
    if geometry._axis_alignment(spec) is not None:
        data, rows, cols = aligned_entries(grid, spec, image_dims)
    else:
        seen = []
        build = CSR.from_entries.__func__

        def spy(cls, data, rows, cols, shape):
            seen.append((data, rows, cols))
            return build(cls, data, rows, cols, shape)

        with monkeypatch.context() as patch:
            patch.setattr(CSR, "from_entries", classmethod(spy))
            reference_projection_operator(unit_grid(grid.dims), spec,
                                          image_dims)
        (data, rows, cols), = seen
        data = grid.spacing * data
    op = projection_operator(grid, spec, image_dims)
    ref = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    _, dup = np.unique(rows * shape[1] + cols, return_counts=True)
    return op, ref, dup


class TestCSR:
    """The CSR operator against scipy.sparse as the oracle."""

    SPECS = {"axis": YZ, "tilt10": tilted_spec(np.radians(10)),
             "tilt30": tilted_spec(np.radians(30)),
             "tilt45": tilted_spec(np.radians(45)),
             "general": rotated_about_z(tilted_spec(np.radians(30)),
                                        np.radians(17))}

    @pytest.fixture(params=list(SPECS))
    def case(self, request, rng, monkeypatch):
        dims = (5, 6, 4)
        grid = VoxelGrid(dims, 0.5, (0.1, -0.3, 0.2), rng.uniform(0, 1, dims))
        return operator_and_scipy(monkeypatch, grid, self.SPECS[request.param],
                                  (9, 8))

    def test_structure_and_data_match_scipy(self, case):
        op, ref, dup = case
        assert op.shape == ref.shape and op.nnz == ref.nnz
        np.testing.assert_array_equal(op.indptr, ref.indptr)
        np.testing.assert_array_equal(op.indices, ref.indices)
        # scipy sorts each row unstably before summing duplicates, so sums
        # of three or more entries may differ in the last digits
        np.testing.assert_array_max_ulp(op.data, ref.data, maxulp=4)
        np.testing.assert_array_equal(op.data[dup <= 2], ref.data[dup <= 2])

    def test_products_are_bitwise_scipy(self, case, rng):
        op, _, _ = case
        same = sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)
        x = rng.standard_normal(op.shape[1])
        np.testing.assert_array_equal(op @ x, same @ x)
        np.testing.assert_array_equal(op.toarray(), same.toarray())

    def test_vstack_matches_scipy(self, rng):
        grid = VoxelGrid((4, 3, 5), 1.0, (0, 0, 0), np.zeros((4, 3, 5)))
        blocks = [projection_operator(grid, spec, (7, 7))
                  for spec in (YZ, tilted_spec(np.radians(30)))]
        A = CSR.vstack(blocks)
        ref = sp.vstack([sp.csr_matrix((b.data, b.indices, b.indptr),
                                       shape=b.shape) for b in blocks],
                        format="csr")
        assert A.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(A, attr), getattr(ref, attr))

    def test_vstack_rejects_column_mismatch(self):
        with pytest.raises(DimMismatch):
            CSR.vstack([sp.csr_matrix(np.ones((2, 3))),
                        sp.csr_matrix(np.ones((2, 4)))])

    def test_product_rejects_wrong_length(self):
        op = CSR.from_entries(np.ones(2), np.array([0, 1]), np.array([1, 0]),
                              (2, 3))
        with pytest.raises(DimMismatch):
            op @ np.ones(2)


class TestCrossNorm:
    @pytest.mark.parametrize("tol", [np.nan, -1e-9])
    @pytest.mark.parametrize("spec2", [XY, YZ], ids=["coaxial", "transverse"])
    def test_nan_or_negative_tol_raises(self, tol, spec2):
        with pytest.raises(DimMismatch):
            _cross_norm(XY, spec2, tol)

    def test_zero_tol_rejects_only_coaxial(self):
        assert _cross_norm(XY, YZ, 0.0) == 1.0
        with pytest.raises(NonTransverse):
            _cross_norm(XY, XY, 0.0)


class TestGridHeader:
    @pytest.mark.parametrize("dims", [(2.5, 2, 2), (2, 2), (0, 1, 1), 3])
    def test_dims_are_three_integers_at_least_1(self, dims):
        with pytest.raises(DimMismatch, match="three integers >= 1"):
            GridHeader(dims, 1.0, (0, 0, 0))

    @pytest.mark.parametrize("spacing", [1e-310, 2.0**-1023, 5e-324])
    def test_spacing_is_at_least_the_smallest_normal_float(self, spacing):
        # at 1e-310 the 30 degree operator was no longer bitwise the
        # spacing times the unit-spacing one, and its solve overflowed
        with pytest.raises(DimMismatch, match=r">= 2\^-1022, got"):
            GridHeader((2, 2, 2), spacing, (0, 0, 0))
        assert GridHeader((2, 2, 2), 2.0**-1022, (0, 0, 0)).spacing > 0

    def test_lattices_nine_times_apart_differ(self):
        # absolute tolerances of 1e-12 matched spacings 1e-13 and 9e-13,
        # and origins nine spacings apart on them
        grid = GridHeader((2, 2, 2), 1e-13, (0, 0, 0))
        assert not grid.matches(GridHeader((2, 2, 2), 9e-13, (0, 0, 0)))
        assert not grid.matches(GridHeader((2, 2, 2), 1e-13, (9e-13, 0, 0)))

    @pytest.mark.parametrize("h", [1e-13, 0.05, 1e6])
    def test_one_ulp_apart_still_match(self, h):
        origin = np.array([-2.5 * h, 0.3, 0.0])
        grid = GridHeader((2, 3, 4), h, origin)
        for spacing, shifted in ((np.nextafter(h, 2 * h), origin),
                                 (h, np.nextafter(origin, np.inf)),
                                 (np.nextafter(h, 0), np.nextafter(origin,
                                                                   -np.inf))):
            other = GridHeader((2, 3, 4), spacing, shifted)
            assert grid.matches(other) and other.matches(grid)

    def test_a_voxel_grid_is_its_lattice_plus_values(self):
        grid = VoxelGrid((2, 3, 4), 0.5, (1, 2, 3), np.ones((2, 3, 4)))
        assert grid.matches(GridHeader((2, 3, 4), 0.5, (1, 2, 3)))
        np.testing.assert_array_equal(grid.node_positions()[-1, -1, -1],
                                      [1.5, 3.0, 4.5])


class TestNonFiniteRejected:
    @pytest.mark.parametrize("make", [
        lambda: Sinogram([[1.0, np.nan]]),
        lambda: Sinogram([[np.inf, 0.0]]),
        lambda: Projected2D([[np.nan, 0.0]], [1.0]),
        lambda: Projected2D([[0.0, 0.0]], [np.inf]),
    ])
    def test_dim_mismatch(self, make):
        with pytest.raises(DimMismatch):
            make()


class TestInvolution:
    def test_identity(self):
        spec = apply_involution(XY, Involution(np.eye(3)))
        np.testing.assert_allclose(spec.u, XY.u, atol=1e-12)
        np.testing.assert_allclose(spec.n, XY.n, atol=1e-12)

    def test_reflection_flips_viewing_direction(self):
        inv = Involution(np.diag([1.0, 1.0, -1.0]))
        spec = apply_involution(XY, inv)
        np.testing.assert_allclose(spec.n, -E[2], atol=1e-12)
        np.testing.assert_allclose(spec.w, -E[1], atol=1e-12)  # handedness fix

    def test_self_inverse(self, rng):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        inv = Involution(np.eye(3) - 2 * np.outer(v, v))  # Householder
        spec = random_spec(rng)
        back = apply_involution(apply_involution(spec, inv), inv)
        np.testing.assert_allclose(back.u, spec.u, atol=1e-12)
        np.testing.assert_allclose(back.w, spec.w, atol=1e-12)
        np.testing.assert_allclose(back.n, spec.n, atol=1e-12)

    def test_non_involution_rejected(self):
        with pytest.raises(InvalidInvolution):
            Involution([[0, -1, 0], [1, 0, 0], [0, 0, 1]])  # 90 deg rotation


class TestBackproject:
    def test_coordinate_case(self):
        ray = backproject([1.0, 2.0], XY)
        np.testing.assert_array_equal(ray.base, [1, 2, 0])
        np.testing.assert_array_equal(ray.direction, E[2])

    def test_origin(self, rng):
        spec = random_spec(rng)
        ray = backproject([0.0, 0.0], spec)
        np.testing.assert_allclose(ray.base, 0, atol=1e-15)
        np.testing.assert_allclose(ray.direction, spec.n, atol=1e-15)

    def test_round_trip(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            obs = rng.standard_normal(2)
            ray = backproject(obs, spec)
            for t in (-2.0, 0.0, 3.7):
                p = PointCloud([ray.point_at(t)], [1.0])
                img = project_points(p, spec)
                np.testing.assert_allclose(img.positions[0], obs, atol=1e-12)


NODES = GridHeader((3, 3, 3), 1.0, (0, 0, 0))
FLAT = ConnectionField.flat(NODES)
FIELD = VectorFieldGrid(NODES, np.zeros((3, 3, 3, 3)))
HEXAGON = PointCloud(np.column_stack([
    np.cos(np.arange(6) * np.pi / 3), np.sin(np.arange(6) * np.pi / 3),
    np.zeros(6)]), np.ones(6))
# every record constructor, array entry point and real scalar parameter,
# with the one argument each entry feeds it in place of an array
BOUNDARY = {
    "PointCloud positions": lambda x: PointCloud(x, [1.0]),
    "PointCloud weights": lambda x: PointCloud([[0.0, 0.0, 0.0]], x),
    "PointCloud.translated": lambda x: PointCloud([[0, 0, 0]], [1]).translated(x),
    "Projected2D positions": lambda x: Projected2D(x, [1.0]),
    "Projected2D weights": lambda x: Projected2D([[0.0, 0.0]], x),
    "GridHeader origin": lambda x: GridHeader((2, 2, 2), 1.0, x),
    "VoxelGrid values": lambda x: VoxelGrid((2, 1, 1), 1.0, (0, 0, 0), x),
    "ProjectionSpec u": lambda x: ProjectionSpec(x, E[1], E[2]),
    "ProjectionSpec n": lambda x: ProjectionSpec(E[0], E[1], x),
    "Involution": Involution,
    "BackprojectionRay base": lambda x: BackprojectionRay(x, E[2]),
    "BackprojectionRay direction": lambda x: BackprojectionRay(E[0], x),
    "Sinogram": Sinogram,
    "backproject": lambda x: backproject(x, XY),
    "ConstraintRow omega": ConstraintRow,
    "ConstraintRow rhs": lambda x: ConstraintRow(E[0], x),
    "triangulate": lambda x: triangulate([0.0, 0.0], x, XY, YZ),
    "MomentValue": lambda x: MomentValue(x, 1.0),
    "MomentValue total_mass": lambda x: MomentValue([0.0, 0.0], x),
    "SecondMoment3D": SecondMoment3D,
    "TrivializationCoords": lambda x: TrivializationCoords([0.0, 0.0], x),
    "TwistMap": TwistMap,
    "rotation_about": lambda x: rotation_about(x, 1.0),
    "parallel_transport path": lambda x: parallel_transport(FLAT, x, E[0]),
    "parallel_transport v0": lambda x: parallel_transport(
        FLAT, [[0, 0, 0], [1, 1, 1]], x),
    "VectorFieldGrid": lambda x: VectorFieldGrid(NODES, x),
    "ConnectionField": lambda x: ConnectionField(NODES, x),
    "rotation_about angle": lambda x: rotation_about(E[2], x),
    "check_transversality tol": lambda x: check_transversality(XY, YZ, x),
    "triangulate tol": lambda x: triangulate([0, 0], [0, 0], XY, YZ, x),
    "detect_axis tol": lambda x: detect_axis(HEXAGON, [2], x),
    "integrability_report tol": lambda x: integrability_report(
        FIELD, FIELD, FLAT, x),
    "certificate tol_transversal": lambda x: certificate(
        XY, YZ, HEXAGON, FIELD, FIELD, FLAT, tol_transversal=x),
    "certificate tol_integrability": lambda x: certificate(
        XY, YZ, HEXAGON, FIELD, FIELD, FLAT, tol_integrability=x),
    "noise_study sigma": lambda x: noise_study(HEXAGON, XY, YZ, x, 1),
}
# a non-finite sample of a node array is the CLI's HeaderMismatch
NODE_ARRAYS = ("VectorFieldGrid", "ConnectionField")
# leaves no float64 array holds finitely: each makes any input it is in
# malformed or non-finite
JUNK = [np.nan, np.inf, -np.inf, 10 ** 400, None, "ab", ""]


class TestArrayBoundary:
    """`geometry._as_array` is the one coercion of every record and array
    entry point and of every real scalar parameter: a malformed or
    non-finite array raises DimMismatch."""

    @pytest.mark.parametrize("call", [
        lambda: GridHeader((2, 2, 2), 1.0, [0, 0]),
        lambda: ConstraintRow("ab"),
        lambda: TwistMap([[1, 2], [3]]),
        lambda: Sinogram([[1.0, 2.0], [3.0]]),
        lambda: VoxelGrid((2, 2, 2), 1.0, (0, 0, 0), np.zeros(7)),
        lambda: PointCloud(np.zeros(7), [1.0]),
        lambda: ProjectionSpec([1, 0], E[1], E[2]),
        lambda: VectorFieldGrid(NODES, np.zeros(80)),
        lambda: Involution(np.full((3, 3), np.nan)),
        lambda: triangulate([np.nan, 0.0], [0.0, 0.0], XY, YZ),
        lambda: parallel_transport(FLAT, [[0, 0, 0], [np.nan, 1, 1]], E[0]),
        lambda: parallel_transport(FLAT, [[0, 0, 0], [1, 1, 1]],
                                   [np.nan, 0, 0]),
        lambda: MomentValue([0.0, 0.0], np.nan),
        lambda: MomentValue([0.0, 0.0], np.inf),
        lambda: TwistMap.from_cross_product(np.eye(2)),
        lambda: TwistMap.from_cross_product(np.full((3, 3), np.inf)),
    ], ids=["short origin", "string omega", "ragged twist", "ragged sinogram",
            "voxel count", "position count", "short frame vector",
            "field sample count", "nan involution", "nan observation",
            "nan path vertex", "nan transported vector", "nan total mass",
            "infinite total mass", "2x2 cross-product matrix",
            "infinite cross-product matrix"])
    def test_once_escaped_or_accepted(self, call):
        # each raised numpy's ValueError, returned NaN or was accepted
        with pytest.raises(DimMismatch):
            call()

    def test_twist_needs_its_own_shape(self):
        # 27 values fill a 3x3x3 array, but a twist must be given as one
        with pytest.raises(DimMismatch, match="3x3x3"):
            TwistMap(np.zeros(27))

    def test_non_finite_node_sample_is_a_header_mismatch(self):
        with pytest.raises(HeaderMismatch):
            VectorFieldGrid(NODES, np.full((3, 3, 3, 3), np.inf))

    def test_each_site_keeps_its_own_checks(self):
        with pytest.raises(DimMismatch, match="2 positions vs 1 weights"):
            PointCloud(np.zeros((2, 3)), [1.0])
        with pytest.raises(DimMismatch, match="non-finite positions"):
            PointCloud([[0.0, np.nan, 0.0]], [1.0])
        with pytest.raises(DimMismatch, match=">= 0"):
            PointCloud([[0.0, 0.0, 0.0]], [-1.0])
        with pytest.raises(DimMismatch, match="1 positions vs 2 weights"):
            Projected2D([[0.0, 0.0]], [1.0, 1.0])
        with pytest.raises(DimMismatch, match=">= 0"):
            Projected2D([[0.0, 0.0]], [-1.0])
        with pytest.raises(InvalidInvolution, match="not orthogonal"):
            Involution(2 * np.eye(3))
        with pytest.raises(InvalidFrame, match="not unit"):
            BackprojectionRay(E[0], 2 * E[2])
        with pytest.raises(DimMismatch, match="2-D"):
            Sinogram([1.0, 2.0])

    def test_only_input_errors_escape(self):
        # @given on an inner function, as in tests/test_cli.py
        leaves = st.one_of(st.sampled_from(JUNK),
                           st.floats(-2, 2), st.integers(-2, 2))
        arrays = st.recursive(leaves, lambda kids: st.lists(kids, max_size=5),
                              max_leaves=40)

        def junk_in(x):
            if isinstance(x, list):
                return any(map(junk_in, x))
            return not (isinstance(x, (int, float)) and abs(x) <= 2)

        @given(name=st.sampled_from(sorted(BOUNDARY)), x=arrays)
        @settings(max_examples=400, deadline=None, derandomize=True,
                  database=None)
        def check(name, x):
            try:
                BOUNDARY[name](x)
            except TwoViewError as exc:
                error = exc
            else:
                error = None
            if junk_in(x):
                expected = ((DimMismatch, HeaderMismatch)
                            if name in NODE_ARRAYS else DimMismatch)
                assert isinstance(error, expected), (name, x, error)

        check()


GRID = VoxelGrid((2, 2, 2), 1.0, (0, 0, 0), np.ones((2, 2, 2)))
# every integer parameter, and a value below its bound
INTEGERS = {
    "noise_study trials": (lambda k: noise_study(HEXAGON, XY, YZ, 0.1, k),
                           0),
    "noise_study seed": (lambda k: noise_study(HEXAGON, XY, YZ, 0.1, 1, k),
                         -1),
    "group_average order": (lambda k: group_average(E[2], k), 1),
    "detect_axis orders": (lambda k: detect_axis(HEXAGON, [2, k]), 1),
    "project_voxels image dims": (
        lambda k: project_voxels(GRID, XY, (4, k)), 0),
    "coordinate_spec": (coordinate_spec, -1),
    "FiniteMagma.op": (lambda k: FiniteMagma.cyclic_group(3).op(0, k), -1),
}


class TestIntegerBoundary:
    """`geometry._require_int` is the one rule of every integer parameter:
    a non-integer, or a value below the parameter's bound, raises
    DimMismatch."""

    @pytest.mark.parametrize("value", [2.5, "3", None, "below"])
    @pytest.mark.parametrize("name", sorted(INTEGERS))
    def test_refused(self, name, value):
        # coordinate_spec(2.5) raised KeyError and coordinate_spec(-1)
        # viewed along +z; op(0, -1) read the last column
        call, below = INTEGERS[name]
        with pytest.raises(DimMismatch):
            call(below if value == "below" else value)

    def test_above_the_range(self):
        # op(0, 3) raised IndexError, coordinate_spec(5) viewed along +z,
        # and a lone order raised TypeError
        with pytest.raises(DimMismatch, match="^elements must be < 3: 0, 3$"):
            FiniteMagma.cyclic_group(3).op(0, 3)
        with pytest.raises(DimMismatch, match="^axis must be 0, 1 or 2"):
            coordinate_spec(5)
        with pytest.raises(DimMismatch, match="^symmetry orders must be one"):
            detect_axis(HEXAGON, 3)

    def test_bound_message(self):
        with pytest.raises(DimMismatch, match="^element must be >= 0, got -1$"):
            FiniteMagma.cyclic_group(3).op(-1, 0)
        with pytest.raises(DimMismatch, match="^seed must be >= 0, got -1$"):
            noise_study(HEXAGON, XY, YZ, 0.1, 1, -1)


class TestRecord:
    """`geometry.Record`, the one base of every record: what
    `dataclass(frozen=True)` gave them."""

    def test_positional_keyword_and_default_binding(self):
        assert Verdict(True, (0, 1)) == Verdict(witness=(0, 1), holds=True)
        assert Verdict(False).witness is None
        assert ConstraintRow([1, 0, 0]).rhs == 0.0
        assert ConstraintRow([1, 0, 0], rhs=2).rhs == 2.0

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}), ((), {"witness": None}), ((True, None, 1), {}),
        ((True,), {"holds": False}), ((True,), {"nope": 1}),
    ], ids=["none", "missing", "extra", "repeated", "unknown"])
    def test_missing_or_extra_argument(self, args, kwargs):
        with pytest.raises(TypeError, match="Verdict"):
            Verdict(*args, **kwargs)

    def test_voxel_grid_fields_follow_its_lattices(self):
        assert VoxelGrid._fields == ("dims", "spacing", "origin", "values")
        grid = VoxelGrid((1, 1, 2), 0.5, [0, 0, 1], [[[1, 2]]])
        assert grid.dims == (1, 1, 2) and grid.spacing == 0.5
        assert grid.origin[2] == 1.0 and grid.values.shape == (1, 1, 2)

    def test_subclass_without_fields_has_its_bases(self):
        # PointCloud and Projected2D declare no field of their own; a class
        # without annotations must not read its base's as its own, which
        # would list each field twice
        class Base(geometry.Record):
            a: int
            b: int = 2

        class Child(Base):
            c = 3

        assert Child._fields == Base._fields == ("a", "b")
        assert Child(1) == Child(a=1, b=2) and Child(1).c == 3
        assert repr(Child(1)) == f"{Child.__qualname__}(a=1, b=2)"
        assert (PointCloud._fields == Projected2D._fields
                == ("positions", "weights"))

    def test_post_init_runs_once(self, monkeypatch):
        calls = []
        for cls in (GridHeader, VoxelGrid):
            def counted(self, post=cls.__post_init__, name=cls.__name__):
                calls.append(name)
                post(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        VoxelGrid((1, 1, 1), 1.0, (0, 0, 0), [[[1.0]]])
        assert calls == ["VoxelGrid", "GridHeader"]

    @pytest.mark.parametrize("field", ["dims", "values", "other"])
    def test_fields_are_read_only(self, field):
        grid = VoxelGrid((1, 1, 1), 1.0, (0, 0, 0), [[[1.0]]])
        with pytest.raises(AttributeError):
            setattr(grid, field, 1)
        with pytest.raises(AttributeError):
            delattr(grid, field)
        assert grid.dims == (1, 1, 1) and not hasattr(grid, "other")

    def test_equality_and_hash_by_fields(self):
        for make in (lambda: Verdict(False, (0, 1, 2)),
                     lambda: TransversalityCheck(0.5, True)):
            a, b = make(), make()
            assert a is not b and a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
        assert Verdict(True) != Verdict(False)
        assert (TransversalityCheck(0.5, True)
                != TransversalityCheck(0.5, False))
        # one class's records equal only each other
        assert Verdict(True, None) != (True, None)
        assert GridHeader((1, 1, 1), 1.0, 0.0 * E[0]) != VoxelGrid(
            (1, 1, 1), 1.0, 0.0 * E[0], [[[1.0]]])

    def test_array_records_are_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(Sinogram([[1.0, 2.0]]))

    def test_csr_compares_by_identity(self):
        def make():
            return CSR(np.array([0, 1]), np.array([0]), np.array([2.0]),
                       (1, 1))
        a, b = make(), make()
        assert a == a and a != b and len({a, b, a}) == 2
        assert hash(a) == object.__hash__(a)

    def test_repr_lists_the_fields(self):
        assert repr(Verdict(False, (0, 1))) == \
            "Verdict(holds=False, witness=(0, 1))"
        assert repr(TransversalityCheck(0.5, True)) == \
            "TransversalityCheck(cross_norm=0.5, transversal=True)"
        assert repr(GridHeader((1, 2, 3), 0.5, E[0])) == (
            "GridHeader(dims=(1, 2, 3), spacing=0.5, "
            "origin=array([1., 0., 0.]))")
