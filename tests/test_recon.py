import numpy as np
import pytest

from twoview.errors import (
    AmbiguousDirection,
    DimMismatch,
    Inconsistent,
    LengthMismatch,
    NonTransverse,
)
from twoview.geometry import (
    PointCloud,
    Projected2D,
    Sinogram,
    VoxelGrid,
    coordinate_spec,
    pixel_center_coords,
    project_points,
    project_voxels,
)
from twoview.recon import (
    ConstraintRow,
    amplification_factor,
    build_radon_system,
    elimination_rank,
    noise_study,
    reconstruct_cloud,
    solve_direction,
    solve_radon,
    triangulate,
)
from conftest import random_cloud, random_noncoaxial_pair, tilted_spec

XY = coordinate_spec(2)
YZ = coordinate_spec(0)


def closest_point_oracle(b1, n1, b2, n2):
    """Closed-form midpoint of the common perpendicular of two lines."""
    A = np.array([[n1 @ n1, -(n1 @ n2)], [n1 @ n2, -(n2 @ n2)]])
    rhs = np.array([(b2 - b1) @ n1, (b2 - b1) @ n2])
    t1, t2 = np.linalg.solve(A, rhs)
    return 0.5 * ((b1 + t1 * n1) + (b2 + t2 * n2))


class TestTriangulate:
    def test_coordinate_recovery(self):
        p = triangulate([1, 2], [2, 3], XY, YZ)
        np.testing.assert_allclose(p, [1, 2, 3], atol=1e-12)

    def test_coaxial_raises(self):
        with pytest.raises(NonTransverse):
            triangulate([0, 0], [1, 1], XY, XY)

    def test_skew_midpoint_oracle(self, rng):
        for _ in range(30):
            s1, s2 = random_noncoaxial_pair(rng)
            o1 = rng.standard_normal(2)
            o2 = rng.standard_normal(2)
            got = triangulate(o1, o2, s1, s2)
            b1 = o1[0] * s1.u + o1[1] * s1.w
            b2 = o2[0] * s2.u + o2[1] * s2.w
            np.testing.assert_allclose(
                got, closest_point_oracle(b1, s1.n, b2, s2.n), atol=1e-10)
            # the whole-cloud map agrees row by row on stacked observations
            obs = np.vstack([np.concatenate([o1, o2]),
                             rng.standard_normal((8, 4))])
            w = np.ones(len(obs))
            rec = reconstruct_cloud(Projected2D(obs[:, :2], w),
                                    Projected2D(obs[:, 2:], w), s1, s2)
            for p, o in zip(rec.positions, obs):
                b1 = o[0] * s1.u + o[1] * s1.w
                b2 = o[2] * s2.u + o[3] * s2.w
                np.testing.assert_allclose(
                    p, closest_point_oracle(b1, s1.n, b2, s2.n), atol=1e-10)


class TestReconstructCloud:
    def test_round_trip_orthogonal_planes(self, rng):
        cloud = random_cloud(rng, 10)
        rec = reconstruct_cloud(project_points(cloud, XY),
                                project_points(cloud, YZ), XY, YZ)
        np.testing.assert_allclose(rec.positions, cloud.positions, atol=1e-10)
        np.testing.assert_array_equal(rec.weights, cloud.weights)

    def test_round_trip_orthogonal_planes_bitwise(self, rng):
        # on coordinate frames the map is [[1,0,0,0],[0,.5,.5,0],[0,0,0,1]]
        cloud = random_cloud(rng, 200, scale=10.0)
        rec = reconstruct_cloud(project_points(cloud, XY),
                                project_points(cloud, YZ), XY, YZ)
        np.testing.assert_array_equal(rec.positions, cloud.positions)

    def test_empty_inputs(self):
        empty = Projected2D(np.zeros((0, 2)), np.zeros(0))
        rec = reconstruct_cloud(empty, empty, XY, YZ)
        assert len(rec) == 0

    def test_large_random(self, rng):
        cloud = random_cloud(rng, 1000)
        s1, s2 = random_noncoaxial_pair(rng, min_cross=0.3)
        rec = reconstruct_cloud(project_points(cloud, s1),
                                project_points(cloud, s2), s1, s2)
        assert np.max(np.abs(rec.positions - cloud.positions)) < 1e-9

    def test_length_mismatch(self):
        a = Projected2D([[0, 0]], [1.0])
        b = Projected2D([[0, 0], [1, 1]], [1.0, 1.0])
        with pytest.raises(LengthMismatch):
            reconstruct_cloud(a, b, XY, YZ)


def elimination_nullspace_oracle(A):
    """Null-space basis via Gauss-Jordan elimination (independent path)."""
    A = np.array(A, dtype=float)
    m, n = A.shape
    R = A.copy()
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        p = row + int(np.argmax(np.abs(R[row:, col])))
        if abs(R[p, col]) < 1e-12:
            continue
        R[[row, p]] = R[[p, row]]
        R[row] /= R[row, col]
        for r in range(m):
            if r != row:
                R[r] -= R[r, col] * R[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(n)
        v[fc] = 1.0
        for r, pc in enumerate(pivots):
            v[pc] = -R[r, fc]
        basis.append(v / np.linalg.norm(v))
    return basis


class TestSolveDirection:
    def test_coordinate_nullspace(self):
        rows = [ConstraintRow(np.eye(4)[i]) for i in range(3)]
        sol = solve_direction(rows, dim=4)
        assert sol.nullity == 1
        np.testing.assert_allclose(np.abs(sol.v), [0, 0, 0, 1], atol=1e-12)

    def test_duplicated_rows_ambiguous(self):
        rows = [ConstraintRow(np.eye(4)[0]), ConstraintRow(np.eye(4)[0])]
        with pytest.raises(AmbiguousDirection) as exc:
            solve_direction(rows, dim=4)
        assert exc.value.nullity == 3

    def test_full_rank_homogeneous_inconsistent(self):
        rows = [ConstraintRow(np.eye(3)[i]) for i in range(3)]
        with pytest.raises(Inconsistent):
            solve_direction(rows, dim=3)

    def test_random_elimination_oracle(self, rng):
        for _ in range(25):
            A = rng.standard_normal((3, 4))
            sol = solve_direction([ConstraintRow(r) for r in A], dim=4)
            basis = elimination_nullspace_oracle(A)
            assert len(basis) == 1
            dot = abs(basis[0] @ sol.v)
            assert abs(dot - 1.0) < 1e-10

    def test_row_scaling_invariance(self, rng):
        A = rng.standard_normal((3, 4))
        sol1 = solve_direction([ConstraintRow(r) for r in A], dim=4)
        scales = [3.0, -0.5, 10.0]
        sol2 = solve_direction(
            [ConstraintRow(s * r) for s, r in zip(scales, A)], dim=4)
        np.testing.assert_allclose(np.abs(sol1.v), np.abs(sol2.v), atol=1e-10)

    def test_inhomogeneous(self, rng):
        A = rng.standard_normal((5, 3))
        x = rng.standard_normal(3)
        rows = [ConstraintRow(a, a @ x) for a in A]
        sol = solve_direction(rows, dim=3)
        assert sol.nullity == 0
        np.testing.assert_allclose(np.abs(sol.v), np.abs(x / np.linalg.norm(x)),
                                   atol=1e-10)
        assert sol.residual < 1e-10


def make_sinos(grid, specs, dims):
    return [project_voxels(grid, s, dims) for s in specs]


class TestRadonSystem:
    def test_single_voxel(self):
        grid = VoxelGrid((1, 1, 1), 1.0, (0, 0, 0), [[[2.0]]])
        sinos = make_sinos(grid, [XY, YZ], (1, 1))
        system = build_radon_system([XY, YZ], (1, 1, 1), 1.0, sinos,
                                    origin=grid.origin)
        assert system.rows.shape == (2, 1)
        assert system.rank == 1
        assert system.determined
        vals = solve_radon(system)
        np.testing.assert_allclose(vals, [[[2.0]]], atol=1e-10)

    def test_2x2x2_underdetermined(self, rng):
        vals = rng.uniform(0.1, 1, (2, 2, 2))
        grid = VoxelGrid((2, 2, 2), 1.0, (-0.5, -0.5, -0.5), vals)
        sinos = make_sinos(grid, [XY, YZ], (2, 2))
        system = build_radon_system([XY, YZ], (2, 2, 2), 1.0, sinos,
                                    origin=grid.origin)
        # SVD-rank oracle, independent of the elimination path
        assert system.rank == np.linalg.matrix_rank(system.rows.toarray())
        assert system.rank < 8
        assert not system.determined
        # the least-squares solution must still reproduce both sinograms
        sol = solve_radon(system)
        rec = VoxelGrid((2, 2, 2), 1.0, (-0.5, -0.5, -0.5),
                        np.maximum(sol, 0))
        for spec, sino in zip([XY, YZ], sinos):
            got = project_voxels(rec, spec, (2, 2)).values
            np.testing.assert_allclose(got, sino.values, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_nxnx1_rank(self, n, rng):
        vals = rng.uniform(0, 1, (n, n, 1))
        grid = VoxelGrid((n, n, 1), 1.0, (0, 0, 0), vals)
        spec_e1 = coordinate_spec(0)
        spec_e2 = coordinate_spec(1)
        sinos = make_sinos(grid, [spec_e1, spec_e2], (n, n))
        system = build_radon_system([spec_e1, spec_e2], (n, n, 1), 1.0, sinos,
                                    origin=grid.origin)
        assert system.rank == 2 * n - 1
        assert system.rank == np.linalg.matrix_rank(system.rows.toarray())

    def test_determined_round_trip(self, rng):
        # a single column of voxels viewed from two sides is determined
        vals = rng.uniform(0.1, 1, (1, 1, 4))
        grid = VoxelGrid((1, 1, 4), 0.5, (0, 0, 0), vals)
        sinos = make_sinos(grid, [YZ, coordinate_spec(1)], (4, 4))
        system = build_radon_system([YZ, coordinate_spec(1)], (1, 1, 4), 0.5,
                                    sinos, origin=grid.origin)
        assert system.determined
        sol = solve_radon(system)
        np.testing.assert_allclose(sol, vals, atol=1e-8)

    def test_forward_consistency(self, rng):
        vals = rng.uniform(0, 1, (3, 3, 3))
        grid = VoxelGrid((3, 3, 3), 1.0, (-1, -1, -1), vals)
        sinos = make_sinos(grid, [XY, YZ], (3, 3))
        system = build_radon_system([XY, YZ], (3, 3, 3), 1.0, sinos,
                                    origin=grid.origin)
        np.testing.assert_allclose(system.rows @ vals.ravel(), system.rhs,
                                   atol=1e-12)

    @pytest.mark.parametrize("deg", [None, 10, 30, 45])
    def test_rows_apply_the_forward_projector(self, deg, rng):
        # A x stacks project_voxels of any x, not only of the sinograms' truth
        specs = [XY, YZ if deg is None else tilted_spec(np.radians(deg))]
        dims, h, origin = (4, 5, 3), 0.5, (-0.75, -1.0, -0.5)
        truth = VoxelGrid(dims, h, origin, rng.uniform(0, 1, dims))
        system = build_radon_system(specs, dims, h,
                                    make_sinos(truth, specs, (7, 7)),
                                    origin=origin)
        probe = VoxelGrid(dims, h, origin, rng.uniform(0, 1, dims))
        expected = np.concatenate([project_voxels(probe, s, (7, 7)).values
                                   .ravel() for s in specs])
        np.testing.assert_allclose(system.rows @ probe.values.ravel(),
                                   expected, rtol=0, atol=1e-12)

    def test_sinogram_smaller_than_grid(self):
        grid = VoxelGrid((4, 4, 4), 1.0, (0, 0, 0), np.ones((4, 4, 4)))
        origin2d = pixel_center_coords(grid, XY, (2, 2))[0, 0]
        sino = Sinogram(np.zeros((2, 2)), 1.0, origin2d)
        with pytest.raises(DimMismatch):
            build_radon_system([XY], (4, 4, 4), 1.0, [sino],
                               origin=grid.origin)


class TestEliminationRank:
    def test_matches_svd_rank(self, rng):
        for _ in range(20):
            m = rng.integers(2, 8)
            n = rng.integers(2, 8)
            r = int(min(m, n, rng.integers(1, 5)))
            A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            assert elimination_rank(A) == np.linalg.matrix_rank(A)


def linear_propagation_oracle(spec1, spec2, sigma):
    """Expected per-point RMSE via the numerical Jacobian of triangulation."""
    eps = 1e-6
    base = np.zeros(4)

    def tri(obs):
        return triangulate(obs[:2], obs[2:], spec1, spec2)

    J = np.empty((3, 4))
    for j in range(4):
        d = np.zeros(4)
        d[j] = eps
        J[:, j] = (tri(base + d) - tri(base - d)) / (2 * eps)
    return sigma * np.sqrt(np.trace(J @ J.T))


class TestNoiseStudy:
    def test_zero_sigma(self, rng):
        cloud = random_cloud(rng, 20)
        rep = noise_study(cloud, XY, YZ, 0.0, 5, seed=3)
        assert rep.rmse_mean == 0.0
        assert rep.slope == 0.0

    def test_orthogonal_linear_oracle(self, rng):
        cloud = random_cloud(rng, 50)
        sigma = 0.01
        rep = noise_study(cloud, XY, YZ, sigma, 100, seed=1)
        predicted = linear_propagation_oracle(XY, YZ, sigma)
        assert predicted / 2 < rep.rmse_mean < predicted * 2

    def test_deterministic(self, rng):
        cloud = random_cloud(rng, 10)
        a = noise_study(cloud, XY, YZ, 0.05, 20, seed=9)
        b = noise_study(cloud, XY, YZ, 0.05, 20, seed=9)
        assert a == b

    def test_monotone_in_sigma(self, rng):
        cloud = random_cloud(rng, 40)
        reps = [noise_study(cloud, XY, YZ, s, 60, seed=5)
                for s in (0.0, 0.01, 0.05, 0.1)]
        for lo, hi in zip(reps[:-1], reps[1:]):
            slack = 3 * (lo.rmse_std + hi.rmse_std)
            assert hi.rmse_mean >= lo.rmse_mean - slack

    def test_amplification(self):
        assert amplification_factor(XY, YZ) == pytest.approx(1.0)
