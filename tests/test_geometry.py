import numpy as np
import pytest

from twoview.errors import DimMismatch, InvalidFrame, InvalidInvolution
from twoview.geometry import (
    Involution,
    PointCloud,
    Projected2D,
    ProjectionSpec,
    Sinogram,
    VoxelGrid,
    apply_involution,
    backproject,
    coordinate_spec,
    project_points,
    project_voxels,
    projection_operator,
)
from twoview import geometry
from conftest import random_cloud, random_spec, tilted_spec

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

    def test_axis_aligned_rows_are_spacing_per_voxel(self):
        grid = VoxelGrid((3, 4, 5), 0.3, (0, 0, 0), np.zeros((3, 4, 5)))
        op = projection_operator(grid, YZ, (6, 7))
        assert op.shape == (42, 60)
        np.testing.assert_array_equal(op.getnnz(axis=0), 1)
        np.testing.assert_array_equal(op.data, 0.3)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("make", [
        lambda: Sinogram([[1.0, np.nan]], 1.0),
        lambda: Sinogram([[np.inf, 0.0]], 1.0),
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
