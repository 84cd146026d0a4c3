import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from twoview import geometry, recon
from twoview.certify import check_transversality
from twoview.errors import (
    AmbiguousDirection,
    DimMismatch,
    Inconsistent,
    LengthMismatch,
    NonTransverse,
    NumericalError,
    SystemTooLarge,
)
from twoview.geometry import (
    CSR,
    GridHeader,
    PointCloud,
    Projected2D,
    ProjectionSpec,
    Sinogram,
    VoxelGrid,
    coordinate_spec,
    project_points,
    project_voxels,
    projection_operator,
    _cross_norm,
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
    _triangulation_map,
)
from conftest import (
    random_cloud,
    random_noncoaxial_pair,
    random_spec,
    rotated_about_z,
    tilted_spec,
)

XY = coordinate_spec(2)
YZ = coordinate_spec(0)
ZX = coordinate_spec(1)


# 30 degrees about x, then 17 degrees about z: no x-slice structure left
GENERAL = rotated_about_z(tilted_spec(np.radians(30)), np.radians(17))


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

    @pytest.mark.parametrize("tol", [np.nan, -1e-3])
    @pytest.mark.parametrize("spec2", [XY, YZ], ids=["coaxial", "transverse"])
    def test_nan_or_negative_tol_raises(self, tol, spec2):
        # either tol would otherwise let coaxial frames through
        with pytest.raises(DimMismatch):
            triangulate([0, 0], [1, 1], XY, spec2, tol)

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


class TestOneMargin:
    """|n1 x n2| is the one transversality margin, and it is tied to the
    conditioning of the triangulation map and to the rank of the stacked
    moment differentials D = [u1; w1; u2; w2] in closed form."""

    def frame_pairs(self, rng):
        pairs = [random_noncoaxial_pair(rng) for _ in range(40)]
        return pairs + [(XY, tilted_spec(t)) for t in (3e-9, 1e-6, 0.3, 1.5)]

    def test_triangulation_map_frobenius(self, rng):
        for s1, s2 in self.frame_pairs(rng):
            cn = _cross_norm(s1, s2)
            M = _triangulation_map(s1, s2, 0.0)
            assert np.sum(M * M) == pytest.approx(0.5 + 2 / cn**2, rel=1e-12)

    def test_margin_is_product_of_smaller_singular_values(self, rng):
        for _ in range(40):
            s1, s2 = random_noncoaxial_pair(rng)
            svals = np.linalg.svd(np.vstack([s1.u, s1.w, s2.u, s2.w]),
                                  compute_uv=False)
            assert _cross_norm(s1, s2) == pytest.approx(svals[1] * svals[2],
                                                        rel=1e-12)

    def test_certificate_agrees_with_triangulation(self, rng):
        pairs = [(random_spec(rng), random_spec(rng)) for _ in range(20)]
        pairs += [(XY, tilted_spec(t)) for t in (0.0, 3e-9, 1e-4, np.pi / 6)]
        for s1, s2 in pairs:
            cn = _cross_norm(s1, s2)
            tols = [np.nextafter(cn, 0), cn, np.nextafter(cn, np.inf),
                    *(cn * rng.uniform(0.5, 1.5, 4))]
            for tol in tols:
                try:
                    _triangulation_map(s1, s2, tol)
                    triangulates = True
                except NonTransverse:
                    triangulates = False
                assert check_transversality(s1, s2, tol).transversal \
                    == triangulates == (cn > tol)


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

    @pytest.mark.parametrize("omega, rhs", [
        ([np.nan, 0, 0], 0.0), ([np.inf, 0, 0], 0.0), ([1, 0, -np.inf], 0.0),
        ([1, 0, 0], np.nan), ([1, 0, 0, 0], np.inf),
    ])
    def test_non_finite_row_rejected(self, omega, rhs):
        # a NaN row once reached the SVD and raised a raw LinAlgError
        with pytest.raises(DimMismatch, match="finite"):
            solve_direction([ConstraintRow(omega, rhs), ConstraintRow(
                np.eye(len(omega))[1])], dim=len(omega))

    @pytest.mark.parametrize("lengths, dim", [((3, 4), 3), ((4, 3), 4),
                                              ((3, 3), 4), ((4, 4), 3)])
    def test_omega_length_mismatch(self, lengths, dim):
        # mixed lengths once leaked numpy's ValueError from np.vstack
        rows = [ConstraintRow(np.eye(n)[i]) for i, n in enumerate(lengths)]
        with pytest.raises(DimMismatch, match=f"!= dim {dim}"):
            solve_direction(rows, dim=dim)

    def test_least_squares_uses_the_rank_cut(self):
        # singular values 2, 1, 2e-15: rank 2 at the 1e-10 cut, so the
        # solution is the minimum-norm one of the rank-2 system (0.75,
        # 0.75, 1); inverting the 2e-15 once gave (-1, 1, 0) / sqrt(2)
        rows = [ConstraintRow([1, 1, 0], 1.0),
                ConstraintRow([1, 1 + 4e-15, 0], 2.0),
                ConstraintRow([0, 0, 1], 1.0)]
        sol = solve_direction(rows, dim=3)
        assert sol.nullity == 1
        np.testing.assert_allclose(sol.v, np.array([0.75, 0.75, 1.0])
                                   / np.sqrt(2.125), atol=1e-12)
        assert sol.residual == pytest.approx(np.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_least_squares_matches_lstsq(self, dim, rng):
        # the solve from one SVD against LAPACK's least squares at the
        # same cut, on inconsistent systems of rank dim - 1 and dim
        for _ in range(40):
            rank = int(rng.integers(dim - 1, dim + 1))
            A = (rng.standard_normal((int(rng.integers(dim, 8)), rank))
                 @ rng.standard_normal((rank, dim)))
            b = rng.standard_normal(A.shape[0])
            x, *_ = np.linalg.lstsq(A, b, rcond=recon._RANK_TOL)
            sol = recon._direction_core(A, b)
            assert sol.nullity == dim - rank
            v = x / np.linalg.norm(x)
            np.testing.assert_allclose(sol.v, v if v[np.argmax(np.abs(v))] > 0
                                       else -v, atol=1e-10)
            assert sol.residual == pytest.approx(np.linalg.norm(A @ x - b),
                                                 rel=1e-10)

    @pytest.mark.parametrize("dim", [2, 5, 10**400, 3.0, np.float64(4), "3"],
                             ids=["2", "5", "1e400", "3.0", "float64-4", "str"])
    def test_bad_dim(self, dim):
        # 1 and 400 zeros was once echoed whole, and 3.0 solved as dim 3
        with pytest.raises(DimMismatch, match="dim must be 3 or 4") as exc:
            solve_direction([ConstraintRow([1, 0, 0])], dim=dim)
        assert len(str(exc.value)) < 80

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_b_orthogonal_to_the_range_is_inconsistent(self, scale):
        # rows e1 = 1, e1 = -1 and e2 = 0: the least-squares x is rounding
        # noise (|x| 1.6e-16), which once passed an absolute zero test and
        # came back as the direction (1, 0, 0); at scale 1e-13 the rows
        # were refused as zero
        e1, e2, _ = scale * np.eye(3)
        rows = [ConstraintRow(e1, scale), ConstraintRow(e1, -scale),
                ConstraintRow(e2, 0.0)]
        with pytest.raises(Inconsistent, match="orthogonal to the range"):
            solve_direction(rows, dim=3)

    def test_only_an_exactly_zero_omega_is_refused(self):
        assert ConstraintRow([0, 1e-300, 0]).omega[1] == 1e-300
        with pytest.raises(DimMismatch, match="identically zero"):
            ConstraintRow([0.0, -0.0, 0.0])

    @pytest.mark.parametrize("k", [-40, 40])
    def test_scale_free(self, k, rng):
        # every omega and rhs times 2^k: the same v and nullity, and the
        # residual times 2^k
        A3 = rng.standard_normal((2, 3)) @ rng.standard_normal((3, 3))
        A4 = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 4))
        systems = [(rng.standard_normal((3, 4)), np.zeros(3)),
                   (A3, np.zeros(2)),
                   (rng.standard_normal((5, 3)), rng.standard_normal(5)),
                   (A4, rng.standard_normal(5))]
        for A, b in systems:
            dim = A.shape[1]
            sol = solve_direction([ConstraintRow(a, r) for a, r in zip(A, b)],
                                  dim=dim)
            scaled = solve_direction(
                [ConstraintRow(np.ldexp(a, k), np.ldexp(r, k))
                 for a, r in zip(A, b)], dim=dim)
            assert scaled.nullity == sol.nullity
            np.testing.assert_allclose(scaled.v, sol.v, rtol=0, atol=1e-13)
            assert scaled.residual == pytest.approx(
                np.ldexp(sol.residual, k), rel=1e-12, abs=np.ldexp(1e-15, k))

    def test_empty(self):
        with pytest.raises(DimMismatch, match="at least one"):
            solve_direction([], dim=3)


def make_sinos(grid, specs, dims):
    return [project_voxels(grid, s, dims) for s in specs]


class TestRadonSystem:
    def test_single_voxel(self):
        grid = VoxelGrid((1, 1, 1), 1.0, (0, 0, 0), [[[2.0]]])
        sinos = make_sinos(grid, [XY, YZ], (1, 1))
        system = build_radon_system([XY, YZ], grid, sinos)
        assert system.rows.shape == (2, 1)
        assert system.rank == 1
        assert system.determined
        vals = solve_radon(system)
        np.testing.assert_allclose(vals, [[[2.0]]], atol=1e-10)

    def test_2x2x2_underdetermined(self, rng):
        vals = rng.uniform(0.1, 1, (2, 2, 2))
        grid = VoxelGrid((2, 2, 2), 1.0, (-0.5, -0.5, -0.5), vals)
        sinos = make_sinos(grid, [XY, YZ], (2, 2))
        system = build_radon_system([XY, YZ], grid, sinos)
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
        system = build_radon_system([spec_e1, spec_e2], grid, sinos)
        assert system.rank == 2 * n - 1
        assert system.rank == np.linalg.matrix_rank(system.rows.toarray())

    def test_determined_round_trip(self, rng):
        # a single column of voxels viewed from two sides is determined
        vals = rng.uniform(0.1, 1, (1, 1, 4))
        grid = VoxelGrid((1, 1, 4), 0.5, (0, 0, 0), vals)
        sinos = make_sinos(grid, [YZ, coordinate_spec(1)], (4, 4))
        system = build_radon_system([YZ, coordinate_spec(1)], grid, sinos)
        assert system.determined
        sol = solve_radon(system)
        np.testing.assert_allclose(sol, vals, atol=1e-8)

    def test_forward_consistency(self, rng):
        vals = rng.uniform(0, 1, (3, 3, 3))
        grid = VoxelGrid((3, 3, 3), 1.0, (-1, -1, -1), vals)
        sinos = make_sinos(grid, [XY, YZ], (3, 3))
        system = build_radon_system([XY, YZ], grid, sinos)
        np.testing.assert_allclose(system.rows @ vals.ravel(), system.rhs,
                                   atol=1e-12)

    @pytest.mark.parametrize("deg", [None, 10, 30, 45])
    def test_rows_apply_the_forward_projector(self, deg, rng):
        # A x stacks project_voxels of any x, not only of the sinograms' truth
        specs = [XY, YZ if deg is None else tilted_spec(np.radians(deg))]
        dims, h, origin = (4, 5, 3), 0.5, (-0.75, -1.0, -0.5)
        truth = VoxelGrid(dims, h, origin, rng.uniform(0, 1, dims))
        system = build_radon_system(specs, truth,
                                    make_sinos(truth, specs, (7, 7)))
        probe = VoxelGrid(dims, h, origin, rng.uniform(0, 1, dims))
        expected = np.concatenate([project_voxels(probe, s, (7, 7)).values
                                   .ravel() for s in specs])
        np.testing.assert_allclose(system.rows @ probe.values.ravel(),
                                   expected, rtol=0, atol=1e-12)

    def test_one_sinogram_per_spec(self):
        grid = GridHeader((2, 2, 2), 1.0, (0, 0, 0))
        with pytest.raises(DimMismatch, match="0 specs vs 1 sinograms"):
            build_radon_system([], grid, [Sinogram(np.ones((2, 2)))])

    def test_sinogram_smaller_than_grid(self):
        grid = VoxelGrid((4, 4, 4), 1.0, (0, 0, 0), np.ones((4, 4, 4)))
        sino = Sinogram(np.zeros((2, 2)))
        with pytest.raises(DimMismatch):
            build_radon_system([XY], grid, [sino])


class TestSolveRadonScale:
    """A^+ b is linear in b: a sinogram scaled by 2^k solves to 2^k times
    the solution, bitwise, however small or large 2^k makes it."""

    def systems(self, rng, k):
        """A tilted-pair system and the same with its sinograms times 2^k."""
        specs, dims = [XY, tilted_spec(np.radians(30))], (6, 6, 6)
        grid = VoxelGrid(dims, 1.0, -2.5 * np.ones(3), rng.uniform(0, 1, dims))
        sinos = make_sinos(grid, specs, (9, 9))
        system = build_radon_system(specs, grid, sinos)
        return system, build_radon_system(
            specs, grid, [Sinogram(np.ldexp(s.values, k)) for s in sinos])

    @pytest.mark.parametrize("k", [-664, -1000, 1000])
    def test_scaled_sinograms_give_the_scaled_solution(self, k, rng):
        # near 1e-200 the sums of squares once underflowed to an all-zero
        # solution; near 1e300 they overflowed
        system, scaled = self.systems(rng, k)
        want = solve_radon(system)
        assert np.any(want > 0)
        np.testing.assert_array_equal(solve_radon(scaled), np.ldexp(want, k))

    @pytest.mark.parametrize("k", [-600, -400, 0, 400, 600])
    @pytest.mark.parametrize("spec2", [YZ, tilted_spec(np.radians(30))],
                             ids=["axis-pair", "tilt-30"])
    def test_spacing_2k_gives_the_scaled_solution(self, spec2, k, rng):
        # A is the spacing times the unit-spacing operator, and the
        # factorization works on A scaled into [0.5, 1): at 2^-600 the
        # iterative solve's sums of squares once underflowed to an all-zero
        # solution, at 2^+-400 it ran out of iterations, and at 2^600 they
        # overflowed
        sinos = [Sinogram(rng.uniform(0.0, 1.0, (6, 6))) for _ in range(2)]

        def solve(h):
            grid = GridHeader((4, 4, 4), h, np.zeros(3))
            return solve_radon(build_radon_system([XY, spec2], grid, sinos))

        want = solve(1.0)
        assert np.any(want > 0)
        np.testing.assert_array_equal(solve(np.ldexp(1.0, k)),
                                      np.ldexp(want, -k))


class TestSolveRadonIsThePseudoInverse:
    """solve_radon returns A^+ b, the minimum-norm least-squares solution
    through the singular values the rank counts, to 1e-12 relative."""

    # the conjugate-gradient solve this replaced stopped 5e-3 to 3e-2 away
    # from A^+ b on these ill-conditioned pairs, and exited 0.  Their
    # condition numbers reach 1e6, where double precision fixes A^+ b to
    # about 1e6 times the rounding unit: np.linalg.pinv and
    # np.linalg.lstsq differ by up to 4.7e-12 relative on them, so the
    # bound here is 1e-11
    @pytest.mark.parametrize("spec2, n, m", [
        (GENERAL, 10, 16), (GENERAL, 14, 20), (GENERAL, 16, 24),
        (tilted_spec(np.radians(30)), 16, 24)],
        ids=["general-10", "general-14", "general-16", "tilt-16"])
    def test_ill_conditioned_pairs(self, spec2, n, m):
        rng = np.random.default_rng(n)
        grid = VoxelGrid((n, n, n), 1.0, -(n - 1) / 2 * np.ones(3),
                         rng.uniform(0, 1, (n, n, n)))
        sinos = [project_voxels(grid, XY, (n, n)),
                 project_voxels(grid, spec2, (m, m))]
        system = build_radon_system([XY, spec2], grid, sinos)
        assert system.rank_method == "svd"
        assert_pinv(solve_radon(system).ravel(), system.rows.toarray(),
                    system.rhs, rel=1e-11)
        # the residual of the consistent sinograms is at rounding level
        residual = system.rows @ solve_radon(system).ravel() - system.rhs
        assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(system.rhs)

    def test_values_between_the_cuts_wait_for_the_largest(self):
        # components of scale 1 beside components of scale 1e3: the largest
        # singular value is 2e3 and the bound sqrt(|A|_1 |A|_inf) is 4e3,
        # so the scale-1 values sqrt(2) 2^-22 (above 1e-10 * 2e3, counted)
        # and sqrt(2) 2^-24 (below it, dropped) are neither counted nor
        # dropped before every component is factored.  Rows (1, 1) and
        # (beta, -beta) are orthogonal, so both factorizations find the
        # small values to rounding.
        entries = []
        for r0, beta in ((0, 2.0**-22), (2, 2.0**-24)):
            entries += [(1.0, r0, r0), (1.0, r0, r0 + 1),
                        (beta, r0 + 1, r0), (-beta, r0 + 1, r0 + 1)]
        entries += [(1e3, 4, c) for c in range(4, 8)]
        entries += [(1e3, r, 8) for r in range(5, 9)]
        d, r, c = map(np.array, zip(*entries))
        A = CSR.from_entries(d, r, c, (9, 9))
        b = np.random.default_rng(0).standard_normal(9)
        rank, x = recon._factor(A, b)
        assert rank == 5 == svd_rank(A.toarray())
        assert_pinv(x, A.toarray(), b)

    @pytest.mark.parametrize("margin", [(0, 0), (1, 2), (3, 3)],
                             ids=["0-0", "1-2", "3-3"])
    @pytest.mark.parametrize("axes", [{2, 0}, {2, 1}, {0, 1}],
                             ids=["XY-YZ", "XY-ZX", "YZ-ZX"])
    def test_aligned_pairs_in_closed_form(self, axes, margin, rng):
        # every ordered pair of signed axis frames along the two different
        # axes q and p (128 per set of axes, 384 in all): each slice across
        # the shared axis s is m x n voxels (m, n the sides along p and q)
        # seen through its row and column sums, so the rank is
        # dims[s] (m + n - 1); b is not a projection of any grid
        dims = (3, 4, 2)
        pairs = [(a, b) for a in AXIS_FRAMES for b in AXIS_FRAMES
                 if {axis_of(a), axis_of(b)} == axes]
        assert len(pairs) == 128
        for pair in pairs:
            system = sino_system(pair, dims, margin, rng, h=0.7)
            q, p = map(axis_of, pair)
            A = system.rows.toarray()
            assert system.rank_method == "graph"
            assert system.rank == svd_rank(A) == dims[3 - p - q] * (
                dims[p] + dims[q] - 1)
            assert_pinv(solve_radon(system).ravel(), A, system.rhs)

    @pytest.mark.parametrize("margin", [(0, 0), (1, 2)], ids=["0-0", "1-2"])
    def test_coaxial_aligned_pair_is_factored(self, margin, rng):
        # on a grid one voxel thick two views along z put each voxel alone
        # on one pixel of each, a complete pixel graph of rank 12; the
        # frames, not the matrix, choose the method, so it is factored
        flipped = ProjectionSpec(-XY.u, -XY.w, XY.n)
        system = sino_system([XY, flipped], (3, 4, 1), margin, rng)
        A = system.rows.toarray()
        assert system.rank_method == "svd"
        assert system.rank == svd_rank(A) == 12
        assert_pinv(solve_radon(system).ravel(), A, system.rhs)


@pytest.mark.parametrize("spec2", [YZ, tilted_spec(np.radians(30))],
                         ids=["axis-pair", "tilt-30"])
def test_the_lattice_alone_gives_the_voxel_grids_system(spec2, rng):
    # projection_operator and build_radon_system read only the lattice, so
    # a bare GridHeader gives bitwise what a VoxelGrid on it gives
    specs, dims, h, origin = [XY, spec2], (4, 5, 3), 0.5, (-0.75, -1.0, -0.5)
    grid = VoxelGrid(dims, h, origin, rng.uniform(0, 1, dims))
    lattice = GridHeader(dims, h, origin)
    blocks = [projection_operator(grid, s, (7, 7)) for s in specs]

    def assert_same(A, B):
        assert A.shape == B.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(A, attr), getattr(B, attr)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    for spec, block in zip(specs, blocks):
        assert_same(projection_operator(lattice, spec, (7, 7)), block)
    system = build_radon_system(specs, lattice,
                                make_sinos(grid, specs, (7, 7)))
    assert_same(system.rows, CSR.vstack(blocks))
    assert system.rank == rank_of(CSR.vstack(blocks))


def sino_system(specs, dims, margin=0, rng=None, h=1.0):
    """Radon system of zero sinograms, or of U[0, 1] ones drawn from `rng`;
    each image is the view's grid cross-section grown by `margin` pixels
    per axis, or by (mu, mw) pixels along (u, w) (even margins keep the
    pixel lattice on the voxel centers, odd ones put pixel edges there)."""
    grid = GridHeader(dims, h, -h * (np.asarray(dims) - 1) / 2.0)
    margins = np.broadcast_to(margin, 2)
    sinos = []
    for spec in specs:
        shape = tuple(int(np.abs(a) @ dims) + int(m)
                      for a, m in zip((spec.u, spec.w), margins))
        sinos.append(Sinogram(np.zeros(shape) if rng is None
                              else rng.uniform(0, 1, shape)))
    return build_radon_system(specs, grid, sinos)


def rank_of(A):
    """The rank of the stacked matrix A by `recon._factor`."""
    return recon._factor(A, np.zeros(A.shape[0]))[0]


def axis_of(spec):
    """The coordinate axis an axis-aligned frame views along."""
    return int(np.argmax(np.abs(spec.n)))


# the 24 right-handed frames whose axes are signed coordinate axes
AXIS_FRAMES = [ProjectionSpec(*M) for M in (
    np.eye(3)[list(perm)] * np.array(signs)[:, None]
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3))
    if np.linalg.det(M) > 0]


def svd_rank(A):
    """Number of singular values of dense A above recon._RANK_TOL times the
    largest: the Radon-rank oracle for the graph and per-component ranks."""
    svals = np.linalg.svd(A, compute_uv=False)
    return recon._rank_above(svals, svals[0])


class TestRadonRank:
    @pytest.mark.parametrize("margin", [0, 2])
    @pytest.mark.parametrize("dims", [(8, 8, 8), (6, 7, 5), (4, 6, 3)])
    @pytest.mark.parametrize("pair", [(XY, YZ), (XY, ZX), (YZ, ZX)],
                             ids=["XY-YZ", "XY-ZX", "YZ-ZX"])
    def test_axis_pairs_use_the_graph(self, pair, dims, margin):
        system = sino_system(pair, dims, margin)
        A = system.rows.toarray()
        assert system.rank_method == "graph"
        assert system.rank == elimination_rank(A) == np.linalg.matrix_rank(A)
        # a larger image leaves pixels no voxel projects to
        assert np.any(~A.any(axis=1)) == (margin > 0)

    @pytest.mark.parametrize("margin", [1, (2, 3)], ids=["9x9", "10x11"])
    def test_odd_image_excess_keeps_one_pixel_per_voxel_row(self, margin):
        # voxel centers on pixel edges; rounding them half to even sent
        # two voxel rows to one pixel (rank 45 at 9x9, 60 at 10x11)
        system = sino_system([XY, YZ], (8, 8, 8), margin)
        A = system.rows.toarray()
        assert system.rank_method == "graph"
        assert system.rank == elimination_rank(A) == 120
        assert set(np.count_nonzero(A, axis=1)) == {0, 8}

    def test_three_axis_views_use_svd(self):
        # the two-view pixel-graph count would give 74 here
        system = sino_system([XY, YZ, ZX], (5, 5, 5))
        A = system.rows.toarray()
        assert system.rank_method == "svd"
        assert system.rank == 61
        assert system.rank == svd_rank(A) == np.linalg.matrix_rank(A)

    # an even image excess keeps the pixel lattice on the voxel centers, so
    # each x-slice is its own component; an odd one along u couples them
    @pytest.mark.parametrize("margin", [(6, 1), (1, 2), 3],
                             ids=["even-u", "odd-u", "odd"])
    @pytest.mark.parametrize("dims", [(6, 7, 5), (14, 14, 14)])
    @pytest.mark.parametrize("deg", [10, 30, 45])
    def test_component_rank_matches_dense_oracles(self, deg, dims, margin):
        system = sino_system([XY, tilted_spec(np.radians(deg))], dims,
                             margin)
        A = system.rows.toarray()
        assert system.rank_method == "svd"
        assert system.rank == svd_rank(A) == np.linalg.matrix_rank(A)

    @pytest.mark.parametrize("dims", [(6, 7, 5), (14, 14, 14)])
    def test_general_rotation_matches_dense_oracles(self, dims):
        system = sino_system([XY, GENERAL], dims, margin=2)
        A = system.rows.toarray()
        assert system.rank_method == "svd"
        assert system.rank == svd_rank(A) == np.linalg.matrix_rank(A)

    def test_tilted_pair_uses_svd(self):
        specs = [tilted_spec(np.radians(10)), tilted_spec(np.radians(30))]
        system = sino_system(specs, (6, 6, 6), margin=4)
        assert system.rank_method == "svd"
        assert system.rank == np.linalg.matrix_rank(system.rows.toarray())

    def test_unequal_weights_leave_the_graph(self):
        # a 4-cycle of pixels: its incidence matrix has rank 3, but one
        # voxel weighted 2 makes the four columns independent
        b2 = sp.csr_matrix([[1.0, 0, 1, 0], [0, 1, 0, 1]])
        equal = sp.csr_matrix([[1.0, 1, 0, 0], [0, 0, 1, 1]])
        weighted = sp.csr_matrix([[1.0, 1, 0, 0], [0, 0, 1, 2]])
        # a path of three voxels is a pixel graph, but not a complete one,
        # with the graph's rank #rows - 1
        path = [sp.csr_matrix([[1.0, 1, 0], [0, 0, 1]]),
                sp.csr_matrix([[1.0, 0, 0], [0, 1, 1]])]
        for blocks, expected in (([equal, b2], 3), ([weighted, b2], 4),
                                 (path, 3)):
            A = sp.vstack(blocks).toarray()
            assert rank_of(CSR.vstack(blocks)) == expected
            assert expected == svd_rank(A)
            assert expected == np.linalg.matrix_rank(A)
        # the frames, not the matrix, choose the closed form: XY beside YZ
        # on a 2 x 1 x 2 grid is the 4-cycle of equal weights, one y-slice
        system = sino_system([XY, YZ], (2, 1, 2))
        assert (system.rank, system.rank_method) == (3, "graph")

    def test_graph_rank_disagreeing_with_elimination_raises(self, monkeypatch):
        monkeypatch.setattr(recon, "elimination_rank", lambda A: -1)
        with pytest.raises(NumericalError):
            sino_system([XY, YZ], (2, 2, 2))

    def test_equal_slices_are_factored_once(self, monkeypatch):
        # XY beside the 30 degree tilt at 14^3 with 20^2 images, as in the
        # benchmark: 14 x-slices of one pattern and values, one SVD (once
        # 14), with the rank and the solution of each slice solved alone
        n = 14
        rng = np.random.default_rng(3)
        grid = VoxelGrid((n, n, n), 1.0, -(n - 1) / 2 * np.ones(3),
                         rng.uniform(0.0, 1.0, (n, n, n)))
        specs = [XY, tilted_spec(np.radians(30))]
        sinos = [project_voxels(grid, spec, (k, k))
                 for spec, k in zip(specs, (n, 20))]
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs:
                            calls.append(args[0].shape) or svd(*args,
                                                               **kwargs))
        system = build_radon_system(specs, grid, sinos)
        assert len(calls) == 1
        A, b, rank, parts = system.rows, system.rhs, 0, []
        for k in range(n):
            keep = A.indices // (n * n) == k
            part = CSR.from_entries(A.data[keep], A.row[keep],
                                    A.indices[keep] - k * n * n,
                                    (A.shape[0], n * n))
            r, x = recon._factor(part, b)
            rank, parts = rank + r, parts + [x]
        assert len(calls) == 1 + n
        assert system.rank == rank
        np.testing.assert_array_equal(
            system.solution.ravel().view(np.int64),
            np.concatenate(parts).view(np.int64))

    def test_unequal_neighbours_are_each_factored(self, monkeypatch):
        # the memo keeps one component: a run broken by another pattern
        # factors again, and a matrix of distinct blocks once per block
        blocks = [[[1.0, 2.0]], [[1.0, 2.0]], [[2.0, 1.0]], [[1.0, 2.0]]]
        A = CSR.vstack([sp.csr_matrix(sp.block_diag(blocks))])
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs:
                            calls.append(1) or svd(*args, **kwargs))
        b = np.array([1.0, 2.0, 3.0, 4.0])
        rank, x = recon._factor(A, b)
        assert (rank, len(calls)) == (4, 3)
        assert_pinv(x, A.toarray(), b)

    def test_64_cube_axis_pair_stays_sparse(self):
        # the dense matrix alone would take 8192 * 262144 * 8 B = 17 GB
        n = 64
        tracemalloc.start()
        try:
            system = sino_system([XY, YZ], (n, n, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.rank_method == "graph"
        assert system.rank == 2 * n * n - n
        assert peak < 40 * 2**20

    @staticmethod
    def tilt_matrix():
        """XY beside the 30 degree tilt on a 4^3 grid, images grown by two
        pixels: 36 + 42 rows, and its largest component, one x-slice, has
        (4 + 7) rows and 16 voxels."""
        specs = [XY, tilted_spec(np.radians(30))]
        return sino_system(specs, (4, 4, 4), margin=2).rows

    def test_dense_limit_raises_system_too_large(self, monkeypatch):
        # the factor guard counts the matrix's rows, voxels and entries and
        # the largest component's dense values: 16 voxels are one QR chunk,
        # so the SVD of its 11 x 11 triangle, eight times over, sets them
        A = self.tilt_matrix()
        need = geometry._require_memory("", *A.shape, A.nnz,
                                        dense=8 * 11 * 11)
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", need - 1)
        with pytest.raises(SystemTooLarge, match=r"factoring the 78x64 Radon "
                           r"matrix by its dense 11x16 component needs "
                           rf"{need} bytes"):
            rank_of(A)
        # the closed form builds no dense matrix and calls no guard: a
        # limit that holds the stacked 4^3 axis pair alone is enough
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", geometry._require_memory(
            "", 32, 64, 128))
        system = sino_system([XY, YZ], (4, 4, 4))
        assert (system.rank, system.rank_method) == (28, "graph")

    def test_limit_counts_the_svd_copy(self, monkeypatch):
        # a limit that holds the largest component once, but not the
        # copies, factors and workspace of its triangle's SVD
        A = self.tilt_matrix()
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", geometry._require_memory(
            "", *A.shape, A.nnz, dense=11 * 16))
        with pytest.raises(SystemTooLarge, match="dense 11x16 component"):
            rank_of(A)

    def test_limit_applies_to_the_largest_component(self, monkeypatch):
        # the whole 78 x 64 matrix would need 39936 bytes dense; the limit
        # counts the largest component, 11 x 16, by its triangle's SVD
        A = self.tilt_matrix()
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", geometry._require_memory(
            "", *A.shape, A.nnz, dense=8 * 11 * 11))
        rank = rank_of(A)
        dense = A.toarray()
        assert dense.nbytes == 39936
        assert rank == svd_rank(dense) == np.linalg.matrix_rank(dense)


@st.composite
def sparse_systems(draw):
    """A canonical CSR matrix: a few blocks of random entries on disjoint,
    shuffled rows and columns beside empty ones, or two views that form a
    pixel graph."""
    if draw(st.booleans()):
        # one entry per column in each view, all of one value
        top, bottom, cols = (draw(st.integers(1, 6)) for _ in range(3))
        value = draw(st.sampled_from([1.0, 0.5, 3.0]))
        rows = np.array(draw(st.lists(st.integers(0, top - 1), min_size=cols,
                                      max_size=cols)) + draw(st.lists(
            st.integers(top, top + bottom - 1), min_size=cols, max_size=cols)))
        A = CSR.from_entries(np.full(2 * cols, value), rows,
                             np.tile(np.arange(cols), 2), (top + bottom, cols))
        return A
    r, c, d, nrows, ncols = [], [], [], 0, 0
    for _ in range(draw(st.integers(1, 4))):
        h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        for i, j, v in draw(st.lists(st.tuples(
                st.integers(0, h - 1), st.integers(0, w - 1),
                st.sampled_from([1.0, 0.5, 2.0]) | st.floats(0.1, 10.0)),
                max_size=2 * h * w)):
            r.append(nrows + i)
            c.append(ncols + j)
            d.append(v)
        nrows, ncols = nrows + h, ncols + w
    nrows += draw(st.integers(0, 3))  # empty rows and columns
    ncols += draw(st.integers(0, 3))
    row_of = np.array(draw(st.permutations(range(nrows))))
    col_of = np.array(draw(st.permutations(range(ncols))))
    A = CSR.from_entries(np.array(d), row_of[np.array(r, dtype=int)],
                         col_of[np.array(c, dtype=int)], (nrows, ncols))
    return A


def assert_pinv(x, A, b, rel=1e-12):
    """x is within `rel` relative of np.linalg.pinv(A) @ b, cut at the
    rank's relative threshold."""
    want = np.linalg.pinv(A, rcond=recon._RANK_TOL) @ b
    assert np.linalg.norm(x - want) <= rel * np.linalg.norm(want), (
        np.linalg.norm(x - want) / np.linalg.norm(want))


class TestRadonRankProperty:
    def test_matches_the_dense_oracle(self):
        # @given sits on an inner function, as in tests/test_cli.py, so a
        # failure is reported as one
        @given(A=sparse_systems())
        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        def check(A):
            assert rank_of(A) == svd_rank(A.toarray())

        check()

    def test_solution_is_the_pseudo_inverses(self):
        # both kinds of matrix, against a random b
        @given(A=sparse_systems(), seed=st.integers(0, 2**32 - 1))
        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        def check(A, seed):
            b = np.random.default_rng(seed).standard_normal(A.shape[0])
            assert_pinv(recon._factor(A, b)[1], A.toarray(), b)

        check()

    @pytest.mark.parametrize("n, m, rank, limit_mb", [(96, 1, 2, 20),
                                                      (3, 1024, 27, 40)])
    def test_empty_rows_and_voxels_cost_nothing(self, n, m, rank, limit_mb):
        # the components pass labels only rows and voxels with an entry: a
        # 96^3 grid seen by two 1x1 tilted images once peaked at 71 MB, a
        # 3^3 grid through two 1024^2 tilted images at 168 MB
        grid = GridHeader((n, n, n), 1.0, np.zeros(3))
        A = CSR.vstack([projection_operator(grid, spec, (m, m))
                        for spec in (tilted_spec(np.radians(30)), GENERAL)])
        b = np.ones(A.shape[0])
        tracemalloc.start()
        try:
            got = recon._factor(A, b)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == rank
        assert peak < limit_mb * 2**20, peak


def searchsorted_labels(A):
    """The component labels of A's sparsity graph with each column's vertex
    found by binary search among the columns with an entry: the reference
    for the rank table of `recon._graph_labels`."""
    ur = np.flatnonzero(np.diff(A.indptr))
    uc = np.flatnonzero(np.bincount(A.indices, minlength=A.shape[1]))
    return recon._components(
        ur.size + uc.size, np.repeat(np.arange(ur.size), np.diff(A.indptr)[ur]),
        ur.size + np.searchsorted(uc, A.indices))[1]


class TestGraphLabels:
    """The column rank table gives bitwise the binary search's labels."""

    @pytest.mark.parametrize("spec2", [tilted_spec(np.radians(30)), GENERAL],
                             ids=["tilt", "general"])
    def test_view_pairs(self, spec2):
        A = sino_system([XY, spec2], (7, 6, 5), margin=3).rows
        got = recon._graph_labels(A)[2]
        assert got.dtype == searchsorted_labels(A).dtype
        np.testing.assert_array_equal(got, searchsorted_labels(A))

    def test_hypothesis_matrices(self):
        @given(A=sparse_systems())
        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        def check(A):
            np.testing.assert_array_equal(recon._graph_labels(A)[2],
                                          searchsorted_labels(A))

        check()


def csgraph_components(n, u, v):
    graph = sp.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)


class TestComponents:
    """`recon._components` against scipy's connected components."""

    def assert_matches_csgraph(self, n, u, v):
        ncomp, labels = recon._components(n, np.asarray(u), np.asarray(v))
        expected, oracle = csgraph_components(n, u, v)
        assert ncomp == expected
        np.testing.assert_array_equal(labels, oracle)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_bipartite_graphs(self, seed):
        # sparse enough that isolated rows and columns are common
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 80, 2)
        nnz = rng.integers(0, rows + cols)
        u = rng.integers(0, rows, nnz)
        v = rows + rng.integers(0, cols, nnz)
        self.assert_matches_csgraph(rows + cols, u, v)

    def test_shuffled_long_path(self, rng):
        n = 10**5
        order = rng.permutation(n)
        self.assert_matches_csgraph(n, order[:-1], order[1:])

    def test_no_edges(self):
        self.assert_matches_csgraph(5, np.zeros(0, int), np.zeros(0, int))

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_with_isolated_rows_and_columns(self, seed):
        # weighted entries take the SVD path, which densifies components
        rng = np.random.default_rng(seed)
        dense = rng.uniform(0.5, 2, (30, 40)) * (rng.random((30, 40)) < 0.04)
        dense[:, :3] = dense[:2] = 0.0
        blocks = [sp.csr_matrix(dense[:12]), sp.csr_matrix(dense[12:])]
        assert rank_of(CSR.vstack(blocks)) == np.linalg.matrix_rank(dense)


class TestEliminationRank:
    def test_matches_svd_rank(self, rng):
        for _ in range(20):
            m = rng.integers(2, 8)
            n = rng.integers(2, 8)
            r = int(min(m, n, rng.integers(1, 5)))
            A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            assert elimination_rank(A) == np.linalg.matrix_rank(A)

    def test_zero_matrix(self):
        assert elimination_rank(np.zeros((3, 4))) == 0


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

    @pytest.mark.parametrize("degrees", [90, 30, 10])
    def test_slope_is_frobenius_norm(self, degrees, rng):
        # over many points and trials the RMSE per unit noise is |M|_F; the
        # largest deviation over 20 seeds was 0.7%
        spec2 = tilted_spec(np.radians(degrees))
        rep = noise_study(random_cloud(rng, 2000), XY, spec2, 0.01, 50, seed=2)
        frobenius = np.linalg.norm(_triangulation_map(XY, spec2, 1e-9))
        assert rep.slope == pytest.approx(frobenius, rel=0.02)

    def test_matches_reconstruct_cloud_loop(self, rng):
        # triangulation is linear, so the error of the noisy images is the
        # triangulated unit noise times sigma, whatever the cloud
        spec1, spec2 = random_noncoaxial_pair(rng)
        cloud = random_cloud(rng, 30)
        img1, img2 = project_points(cloud, spec1), project_points(cloud, spec2)

        def rmse(err):
            return np.sqrt(np.mean(np.sum(err * err, axis=1)))

        for sigma, trials, seed in ((0.0, 3, 0), (0.02, 25, 4), (1.5, 7, 11)):
            unit, noisy = [], []
            for t in range(trials):
                gen = np.random.default_rng([seed, t])
                z1 = gen.standard_normal(img1.positions.shape)
                z2 = gen.standard_normal(img2.positions.shape)
                unit.append(rmse(reconstruct_cloud(
                    Projected2D(z1, img1.weights),
                    Projected2D(z2, img2.weights), spec1, spec2).positions))
                rec = reconstruct_cloud(
                    Projected2D(img1.positions + sigma * z1, img1.weights),
                    Projected2D(img2.positions + sigma * z2, img2.weights),
                    spec1, spec2)
                noisy.append(rmse(rec.positions - cloud.positions))
            rep = noise_study(cloud, spec1, spec2, sigma, trials, seed=seed)
            assert rep.rmse_mean == sigma * float(np.mean(unit))
            assert rep.rmse_std == sigma * float(np.std(unit))
            if sigma > 0:
                assert rep.rmse_mean == pytest.approx(np.mean(noisy),
                                                      rel=1e-12)
                assert rep.rmse_std == pytest.approx(np.std(noisy), rel=1e-12)

    def test_sigma_only_scales_the_study(self, rng):
        # the noisy positions once leaked their rounding into the error:
        # sigma = 1e-20 read a slope of 1.4e4, sigma = 0 a nonzero RMSE,
        # and 1e200 was refused.  |n1 x n2| > 0.95 keeps sigma * slope at
        # 1e308 a float
        spec1, spec2 = random_noncoaxial_pair(rng, min_cross=0.95)
        cloud = random_cloud(rng, 60)
        unit = noise_study(cloud, spec1, spec2, 1.0, 80, seed=3)
        zero = noise_study(cloud, spec1, spec2, 0.0, 80, seed=3)
        assert (zero.rmse_mean, zero.rmse_std, zero.predicted_bound,
                zero.slope) == (0.0, 0.0, 0.0, 0.0)
        for sigma in (1e-300, 1e-20, 1e-8, 0.01, 1e200, 1e308):
            rep = noise_study(cloud, spec1, spec2, sigma, 80, seed=3)
            assert rep.slope == unit.slope
            assert rep.rmse_mean == sigma * unit.rmse_mean
            assert rep.rmse_std == sigma * unit.rmse_std
            assert rep.predicted_bound == sigma * unit.predicted_bound

    @pytest.mark.parametrize("sigma, trials, seed", [
        (np.inf, 2, 0), (np.nan, 2, 0), (-0.1, 2, 0), (0.1, 0, 0),
        (0.1, 2, -1),
    ])
    def test_bad_arguments(self, sigma, trials, seed, rng):
        with pytest.raises(DimMismatch):
            noise_study(random_cloud(rng, 5), XY, YZ, sigma, trials, seed=seed)

    @pytest.mark.parametrize("trials", [2.5, np.nan, 2.0, "2", None])
    def test_trials_must_be_an_integer(self, trials, rng):
        # 2.5 once escaped as numpy's TypeError
        with pytest.raises(DimMismatch, match="trials must be an integer"):
            noise_study(random_cloud(rng, 5), XY, YZ, 0.1, trials)

    @pytest.mark.parametrize("seed", [1.5, np.nan, 0.0, "0", None])
    def test_seed_must_be_an_integer(self, seed, rng):
        # 1.5 once escaped as numpy's "TypeError: seed must be integer"
        with pytest.raises(DimMismatch, match="seed must be an integer"):
            noise_study(random_cloud(rng, 5), XY, YZ, 0.1, 2, seed=seed)

    def test_empty_cloud_rejected(self):
        # the mean over no points once warned, and read as "noise overflows"
        empty = PointCloud(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(DimMismatch, match="no points"):
            noise_study(empty, XY, YZ, 0.1, 2)

    @pytest.mark.parametrize("sigma", [1.7e308, 1.7976931348623157e308])
    def test_overflowing_noise_rejected(self, sigma, rng):
        # the slope of XY/YZ is near |M|_F = 1.58, so sigma * slope
        # overflows; inf once reached noise.csv, and a RuntimeWarning,
        # which this suite turns into an error, reached stderr
        with pytest.raises(DimMismatch, match="overflows"):
            noise_study(random_cloud(rng, 50), XY, YZ, sigma, 2)
