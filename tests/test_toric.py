import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from twoview import toric
from twoview.errors import AmbiguousDirection, DegenerateCloud, DimMismatch
from twoview.geometry import PointCloud, coordinate_spec
from twoview.moments import moment_map, second_moment
from twoview.recon import ConstraintRow, solve_direction
from twoview.toric import (
    CONTINUOUS,
    ToricReport,
    detect_axis,
    group_average,
    invariant_moment_check,
    rotation_about,
    solve_direction_equivariant,
)
from conftest import random_cloud, random_rotation


def regular_polygon(n, radius=1.0, z=0.0, phase=0.0):
    ang = phase + 2 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang),
                            np.full(n, z)])


def hexagon_cloud():
    return PointCloud(regular_polygon(6), np.ones(6))


def brute_force_residual(points, axis, k, weights=None):
    """Independent nearest-neighbour matching via explicit double loop."""
    if weights is None:
        weights = np.ones(len(points))
    c = (weights[:, None] * points).sum(axis=0) / weights.sum()
    R = rotation_about(axis, 2 * np.pi / k)
    rotated = (points - c) @ R.T + c
    worst = 0.0
    for q in rotated:
        best = min(float(np.linalg.norm(q - p)) for p in points)
        worst = max(worst, best)
    return worst


class TestRotationAbout:
    def test_quarter_turn(self):
        R = rotation_about([0, 0, 1], np.pi / 2)
        np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_orthogonal(self, rng):
        a = rng.standard_normal(3)
        R = rotation_about(a, 1.3)
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_axis_fixed(self, rng):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        np.testing.assert_allclose(rotation_about(a, 2.1) @ a, a, atol=1e-12)

    @pytest.mark.parametrize("axis", [[0, 0, 0], [np.nan, 0, 1],
                                      [np.inf, 0, 0]],
                             ids=["zero", "nan", "inf"])
    def test_zero_or_non_finite_axis(self, axis):
        with pytest.raises(DimMismatch, match="finite and nonzero"):
            rotation_about(axis, 1.0)


class TestDetectAxis:
    def test_hexagon(self):
        rep = detect_axis(hexagon_cloud(), orders=[2, 3, 4, 6])
        assert rep.order == 6
        np.testing.assert_allclose(np.abs(rep.axis), [0, 0, 1], atol=1e-10)
        assert rep.invariance_residual <= 1e-10
        # the in-plane moment of a regular polygon is isotropic
        assert rep.continuous

    def test_square_prefers_highest_passing_order(self):
        cloud = PointCloud(regular_polygon(4), np.ones(4))
        rep = detect_axis(cloud, orders=[2, 4])
        assert rep.order == 4

    def test_random_cloud_no_symmetry(self, rng):
        cloud = random_cloud(rng, 20)
        rep = detect_axis(cloud, orders=[2, 3, 4, 5, 6])
        diam = max(np.linalg.norm(p - q)
                   for p in cloud.positions for q in cloud.positions)
        assert rep.invariance_residual > 0.1 * diam
        assert not rep.continuous

    def test_residual_matches_brute_force(self, rng):
        cloud = random_cloud(rng, 12)
        rep = detect_axis(cloud, orders=[3])
        _, evecs = second_moment(cloud).eigen()
        best = min(brute_force_residual(cloud.positions, evecs[:, i], 3,
                                        cloud.weights)
                   for i in range(3))
        assert rep.invariance_residual == pytest.approx(best, abs=1e-10)

    def test_circle_continuous(self):
        cloud = PointCloud(regular_polygon(40), np.ones(40))
        rep = detect_axis(cloud, orders=[7])  # 7 does not divide 40
        assert rep.continuous
        assert rep.order == CONTINUOUS

    def test_conjugation_covariance(self, rng):
        base = hexagon_cloud()
        rep = detect_axis(base, orders=[6])
        R = random_rotation(rng)
        moved = PointCloud(base.positions @ R.T, base.weights)
        rep2 = detect_axis(moved, orders=[6])
        assert abs(rep2.invariance_residual - rep.invariance_residual) <= 1e-10
        assert abs(abs((R @ rep.axis) @ rep2.axis) - 1.0) <= 1e-10

    def test_collinear_raises(self):
        pts = np.outer(np.arange(5.0), [1.0, 2.0, 0.5])
        with pytest.raises(DegenerateCloud):
            detect_axis(PointCloud(pts, np.ones(5)), orders=[2])

    def test_too_few_points(self):
        with pytest.raises(DegenerateCloud):
            detect_axis(PointCloud([[0, 0, 0], [1, 0, 0]], [1, 1]),
                        orders=[2])

    def test_bad_order(self):
        with pytest.raises(DimMismatch):
            detect_axis(hexagon_cloud(), orders=[1])


class TestNearestNeighbourMatching:
    @pytest.mark.parametrize("which", ["hexagon", "random"])
    def test_residual_equals_dense_cdist(self, which, rng):
        if which == "hexagon":
            pts = hexagon_cloud().positions
        else:
            pts = random_cloud(rng, 300).positions @ random_rotation(rng).T
        pts = pts - pts.mean(axis=0)
        tree = cKDTree(pts)
        for axis in (np.array([0.0, 0.0, 1.0]), rng.standard_normal(3)):
            for k in (2, 3, 4, 6):
                rotated = pts @ rotation_about(axis, 2 * np.pi / k).T
                assert toric._matching_residual(tree, rotated) == \
                    cdist(rotated, pts).min(axis=1).max()

    @pytest.mark.parametrize("block", [1, 7, 2**18])
    def test_blocked_diameter_equals_dense(self, block, rng, monkeypatch):
        monkeypatch.setattr(toric, "_DIAMETER_BLOCK", block)
        pts = random_cloud(rng, 300).positions
        assert toric._diameter(pts) == cdist(pts, pts).max()
        hexagon = hexagon_cloud().positions
        assert toric._diameter(hexagon) == cdist(hexagon, hexagon).max()

    def test_20k_points_stay_linear_in_memory(self, rng):
        # the N x N distance matrix alone would take 20000^2 * 8 B = 3.2 GB
        cloud = random_cloud(rng, 20000)
        tracemalloc.start()
        try:
            rep = detect_axis(cloud, orders=[2, 3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.invariance_residual > 0.0
        assert peak < 64 * 2**20


class TestInvariantMomentCheck:
    def test_symmetric_cloud_zero(self):
        # viewing along the axis, a centered hexagon moves nowhere
        val = invariant_moment_check(hexagon_cloud(), coordinate_spec(2),
                                     [0, 0, 1], 6)
        assert val <= 1e-12

    def test_off_axis_cloud_nonzero_with_oracle(self):
        shifted = PointCloud(hexagon_cloud().positions + [1.0, 0, 0],
                             np.ones(6))
        spec = coordinate_spec(2)
        got = invariant_moment_check(shifted, spec, [0, 0, 1], 4)
        base = moment_map(shifted, spec).centroid
        worst = 0.0  # direct re-evaluation of every group element
        for m in range(1, 4):
            R = rotation_about([0, 0, 1], 2 * np.pi * m / 4)
            moved = PointCloud(shifted.positions @ R.T, shifted.weights)
            d = np.linalg.norm(moment_map(moved, spec).centroid - base)
            worst = max(worst, float(d))
        assert got == pytest.approx(worst, abs=1e-12)
        assert got > 0.5


class TestGroupAverage:
    def test_idempotent(self, rng):
        a = rng.standard_normal(3)
        P = group_average(a, 5)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)

    def test_axis_projector(self):
        P = group_average([0, 0, 1], 4)
        np.testing.assert_allclose(P, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_group_invariance(self, rng):
        a = rng.standard_normal(3)
        k = 6
        P = group_average(a, k)
        for m in range(k):
            R = rotation_about(a, 2 * np.pi * m / k)
            np.testing.assert_allclose(P @ R, P, atol=1e-12)

    def test_dim4_block(self):
        P = group_average([0, 0, 1], 3, dim=4)
        assert P.shape == (4, 4)
        assert P[3, 3] == 1.0
        np.testing.assert_allclose(P[:3, 3], 0, atol=1e-15)

    def test_matches_rotation_sum(self, rng):
        for k in range(2, 65):
            a = rng.standard_normal(3)
            mean = sum(rotation_about(a, 2 * np.pi * m / k)
                       for m in range(k)) / k
            np.testing.assert_allclose(group_average(a, k), mean, rtol=0,
                                       atol=1e-13)

    @pytest.mark.parametrize("order", [1, 0, -3])
    def test_order_below_two(self, order):
        with pytest.raises(DimMismatch, match="order"):
            group_average([0, 0, 1], order)

    def test_bad_dim(self):
        with pytest.raises(DimMismatch):
            group_average([0, 0, 1], 2, dim=5)

    def test_zero_axis(self):
        with pytest.raises(DimMismatch, match="finite and nonzero"):
            group_average([0, 0, 0], 3)


class TestSolveDirectionEquivariant:
    def test_matches_plain_solver_on_symmetric_system(self):
        rows = [ConstraintRow([1, 0, 0]), ConstraintRow([0, 1, 0])]
        plain = solve_direction(rows, dim=3)
        equi = solve_direction_equivariant(rows, [0, 0, 1], 4)
        np.testing.assert_allclose(np.abs(equi.v), np.abs(plain.v),
                                   atol=1e-12)
        assert equi.nullity == 1

    def test_zero_axis(self):
        with pytest.raises(DimMismatch, match="finite and nonzero"):
            solve_direction_equivariant([ConstraintRow([1, 0, 0])],
                                        [0, 0, 0], 4)

    def test_inhomogeneous_on_fixed_line(self):
        rows = [ConstraintRow([0, 0, 1.0], 2.0)]
        sol = solve_direction_equivariant(rows, [0, 0, 1], 6)
        np.testing.assert_allclose(np.abs(sol.v), [0, 0, 1], atol=1e-12)
        assert sol.nullity == 0

    def test_homogeneous_on_fixed_line_ambiguous(self):
        rows = [ConstraintRow([0, 0, 1.0])]
        with pytest.raises(AmbiguousDirection) as exc:
            solve_direction_equivariant(rows, [0, 0, 1], 6)
        assert exc.value.fixed_subspace_dim == 1

    def test_no_effective_constraints(self):
        # a row living entirely in the rotating plane averages to zero
        rows = [ConstraintRow([1.0, -2.0, 0.0, 0.0])]
        with pytest.raises(AmbiguousDirection) as exc:
            solve_direction_equivariant(rows, [0, 0, 1], 3, dim=4)
        assert exc.value.fixed_subspace_dim == 2
        assert exc.value.nullity == 2

    def test_dim4_reduced_nullspace(self):
        rows = [ConstraintRow([0.0, 0.0, 1.0, 1.0])]
        sol = solve_direction_equivariant(rows, [0, 0, 1], 3, dim=4)
        expected = np.array([0, 0, 1.0, -1.0]) / np.sqrt(2)
        np.testing.assert_allclose(np.abs(sol.v), np.abs(expected),
                                   atol=1e-12)
        assert sol.nullity == 1

    def test_dim4_inhomogeneous_residual_at_least_squares_solution(self):
        # fixed subspace span(e3, e4): x3 = 1 and x3 = 3 meet at x3 = 2,
        # x4 = 2 holds exactly, so |A x - b| = sqrt(1 + 1)
        rows = [ConstraintRow([0.0, 0.0, 1.0, 0.0], 1.0),
                ConstraintRow([0.0, 0.0, 1.0, 0.0], 3.0),
                ConstraintRow([0.0, 0.0, 0.0, 1.0], 2.0)]
        sol = solve_direction_equivariant(rows, [0, 0, 1], 4, dim=4)
        assert sol.nullity == 0
        assert sol.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)
        np.testing.assert_allclose(sol.v, np.array([0, 0, 1.0, 1.0])
                                   / np.sqrt(2), atol=1e-12)

    def test_averaging_kills_nonfixed_components(self, rng):
        # rows differing by a component in the rotating plane solve alike
        base = np.array([0.3, -0.7, 1.9])
        extra = np.array([5.0, 2.0, 0.0])
        s1 = solve_direction_equivariant(
            [ConstraintRow(base, 1.0)], [0, 0, 1], 4)
        s2 = solve_direction_equivariant(
            [ConstraintRow(base + extra, 1.0)], [0, 0, 1], 4)
        np.testing.assert_allclose(s1.v, s2.v, atol=1e-12)

    def test_empty_constraints(self):
        with pytest.raises(DimMismatch):
            solve_direction_equivariant([], [0, 0, 1], 4)
