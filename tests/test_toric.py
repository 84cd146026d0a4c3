import tracemalloc

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from twoview import toric
from twoview.errors import (
    AmbiguousDirection,
    DegenerateCloud,
    DimMismatch,
    Inconsistent,
)
from twoview.geometry import PointCloud, coordinate_spec, project_points
from twoview.moments import centroid2d, moment_map, second_moment
from twoview.recon import (
    ConstraintRow,
    _canonical_sign,
    _direction_core,
    solve_direction,
)
from twoview.toric import (
    CONTINUOUS,
    ToricReport,
    detect_axis,
    group_average,
    invariant_moment_check,
    rotation_about,
    solve_direction_equivariant,
)
from conftest import random_cloud, random_rotation, random_spec


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

    @pytest.mark.parametrize("scale", [2.0 ** 700, 2.0 ** -700,
                                       2.0 ** -1070, 1e200, 1e-200, 1e-320],
                             ids=["2^700", "2^-700", "2^-1070", "1e200",
                                  "1e-200", "1e-320"])
    @pytest.mark.parametrize("unit", [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                      [-3.0, 4.0, 0.0]])
    def test_axis_scale_does_not_matter(self, unit, scale):
        # the norm of 1e200 axes once overflowed (exit 4 from the CLI), and
        # of 1e-200 or subnormal ones underflowed to a "zero" axis; a
        # power-of-two scale gives the same bits, any other the same
        # direction to rounding
        axis = scale * np.array(unit)
        assert np.all(axis[np.nonzero(unit)] != 0)
        want = toric._unit_axis(unit)
        check = (np.testing.assert_array_equal
                 if np.frexp(scale)[0] == 0.5 else
                 lambda a, b: np.testing.assert_allclose(a, b, rtol=0,
                                                         atol=4e-16))
        check(toric._unit_axis(axis), want)
        check(rotation_about(axis, 1.3), rotation_about(unit, 1.3))

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

    @pytest.mark.parametrize("offset", [1e5, 1e6])
    def test_collinear_up_to_rounding_raises(self, offset, rng):
        # a line moved far off the origin keeps transverse singular values
        # of 1e-10 to 1e-9 from rounding, which an absolute 1e-10 rank
        # threshold once took for a plane, reporting a symmetry
        pts = (np.outer(10 * rng.standard_normal(40), [1.0, 2.0, 0.5])
               + offset * np.array([1.0, -1.0, 1.0]))
        assert np.linalg.matrix_rank(pts - pts.mean(axis=0), tol=1e-10) >= 2
        with pytest.raises(DegenerateCloud, match="collinear"):
            detect_axis(PointCloud(pts, np.ones(40)), orders=[2, 3])

    def test_too_few_points(self):
        with pytest.raises(DegenerateCloud):
            detect_axis(PointCloud([[0, 0, 0], [1, 0, 0]], [1, 1]),
                        orders=[2])

    def test_bad_order(self):
        with pytest.raises(DimMismatch):
            detect_axis(hexagon_cloud(), orders=[1])

    @pytest.mark.parametrize("orders", [[2.5, 6.9], [6.0], [np.nan], ["6"]])
    def test_orders_must_be_integers(self, orders):
        # [2.5, 6.9] was once truncated to [2, 6] and reported order 6
        with pytest.raises(DimMismatch,
                           match="symmetry order must be an integer"):
            detect_axis(hexagon_cloud(), orders)

    def test_no_order(self, monkeypatch):
        # once scored no candidate with the k-d tree and raised ValueError
        def no_tree(*args):
            raise AssertionError("the k-d tree path ran")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        with pytest.raises(DimMismatch, match="one or more"):
            detect_axis(hexagon_cloud(), orders=[])


class TestNearestNeighbourMatching:
    @pytest.mark.parametrize("which", ["hexagon", "random"])
    def test_residual_equals_dense_cdist(self, which, rng):
        # detect_axis scores a failing candidate by this exact k-d tree query
        if which == "hexagon":
            pts = hexagon_cloud().positions
        else:
            pts = random_cloud(rng, 300).positions @ random_rotation(rng).T
        pts = pts - pts.mean(axis=0)
        tree = cKDTree(pts)
        for axis in (np.array([0.0, 0.0, 1.0]), rng.standard_normal(3)):
            for k in (2, 3, 4, 6):
                rotated = pts @ rotation_about(axis, 2 * np.pi / k).T
                assert tree.query(rotated)[0].max() == \
                    cdist(rotated, pts).min(axis=1).max()

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


def centroid_span(centered):
    """2R, R the largest distance of a centred point from the origin,
    each summed (dx*dx + dy*dy) + dz*dz as `detect_axis` does."""
    sq = centered * centered
    return 2 * float(np.max(np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])))


def reference_detect_axis(cloud, orders, tol=1e-8):
    """The `cKDTree`/`cdist` detector the numpy cell grid replaced, with
    every candidate scored by its exact nearest-neighbour residual:
    (report, branch), branch one of "pass", "continuous", "no-pass"."""
    orders = [int(k) for k in orders]
    if any(k < 2 for k in orders):
        raise DimMismatch("symmetry orders must be >= 2")
    if not tol >= 0:
        raise DimMismatch(f"tol must be >= 0, got {tol}")
    pts = cloud.positions
    if len(cloud) < 3:
        raise DegenerateCloud("need at least 3 points")
    centered = pts - (cloud.weights @ pts / cloud.total_mass)
    evals, evecs = second_moment(cloud).eigen()
    svals = np.linalg.svd(centered, compute_uv=False)
    if np.sum(svals > 1e-10 * svals[0]) < 2:
        raise DegenerateCloud("points are collinear")
    scale = max(float(evals[-1]), 1e-300)
    match_tol = max(tol, tol * centroid_span(centered))
    order_s = np.argsort(evals)
    gaps = np.abs(np.diff(evals[order_s]))
    continuous = bool(np.min(gaps) <= tol * scale)
    lone = order_s[2] if int(np.argmin(gaps)) == 0 else order_s[0]
    cont_axis = _canonical_sign(evecs[:, lone])
    tree = cKDTree(centered)
    candidates = []
    for ci in range(3):
        axis = _canonical_sign(evecs[:, ci])
        for k in orders:
            rotated = centered @ rotation_about(axis, 2 * np.pi / k).T
            candidates.append((float(tree.query(rotated)[0].max()), k,
                               tuple(axis)))
    passing = [c_ for c_ in candidates if c_[0] <= match_tol]
    if passing:
        res, k, axis = min(passing, key=lambda c_: (-c_[1], c_[0], c_[2]))
        return ToricReport(np.asarray(axis), k, res, 1, continuous), "pass"
    if continuous:
        best = min(c_ for c_ in candidates if c_[2] == tuple(cont_axis))
        return (ToricReport(np.asarray(cont_axis), CONTINUOUS, best[0], 1,
                            True), "continuous")
    res, k, axis = min(candidates)
    return ToricReport(np.asarray(axis), k, res, 1, False), "no-pass"


def report_key(rep):
    return (rep.order, tuple(rep.axis.tolist()), rep.invariance_residual,
            rep.continuous, rep.fixed_subspace_dim)


def assert_detect_matches_reference(pts, orders, tol, weights=None):
    """Both detectors give the same report, the residual bitwise, or raise
    the same error type; returns the reference's branch or error name."""
    cloud = PointCloud(pts, np.ones(len(pts)) if weights is None
                       else weights)
    try:
        want, branch = reference_detect_axis(cloud, orders, tol)
    except (DimMismatch, DegenerateCloud) as exc:
        with pytest.raises(type(exc)):
            detect_axis(cloud, orders, tol)
        return type(exc).__name__
    assert report_key(detect_axis(cloud, orders, tol)) == report_key(want)
    return branch


def symmetric_points(rng, n, k, noise=0.0):
    """n // k random points (at least one) and their k - 1 turns about z,
    jittered by `noise`."""
    base = rng.standard_normal((max(1, n // k), 3)) * [1.0, 1.0, 0.5]
    pts = np.vstack([base @ rotation_about([0, 0, 1], 2 * np.pi * m / k).T
                     for m in range(k)])
    return pts + noise * rng.standard_normal(pts.shape)


def random_detect_case(rng):
    """(points, orders, tol) over every branch: exact and jittered k-fold
    clouds (k = 2..6), Gaussian clouds, coplanar rings and polygons,
    duplicated points, collinear and two-point clouds, moved by a random
    rotation, scale and offset up to 1e12."""
    kind = rng.integers(8)
    k = int(rng.integers(2, 7))
    n = int(rng.integers(3, 150))
    if kind == 0:
        pts = symmetric_points(rng, n, k)
    elif kind == 1:
        pts = symmetric_points(rng, n, k, 10.0 ** rng.uniform(-9, -1))
    elif kind == 2:
        pts = rng.standard_normal((n, 3))
    elif kind == 3:  # coplanar rings, some of them regular polygons
        pts = np.vstack([regular_polygon(int(rng.integers(3, 13)),
                                         radius=rng.uniform(0.5, 2),
                                         phase=rng.uniform(0, 6))
                         for _ in range(int(rng.integers(1, 4)))])
    elif kind == 4:  # duplicated points
        pts = symmetric_points(rng, n, k)
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), 5)]])
    elif kind == 5:
        pts = regular_polygon(k * int(rng.integers(1, 8)))
    elif kind == 6:
        pts = np.outer(rng.standard_normal(n), rng.standard_normal(3))
    else:
        pts = rng.standard_normal((int(rng.integers(1, 3)), 3))
    pts = (pts @ random_rotation(rng).T * 10.0 ** rng.uniform(-3, 3)
           + rng.uniform(-1, 1, 3) * 10.0 ** rng.choice([0, 3, 6, 12]))
    orders = sorted(set(rng.integers(2, 7, size=3).tolist()))
    return pts, orders, float(10.0 ** rng.uniform(-8, -1))


class TestDetectAxisAgainstKDTreeReference:
    def test_random_clouds(self):
        rng = np.random.default_rng(14)
        seen = [assert_detect_matches_reference(*random_detect_case(rng))
                for _ in range(300)]
        assert set(seen) == {"pass", "continuous", "no-pass",
                             "DegenerateCloud"}

    def test_pair_and_query_blocks(self, monkeypatch):
        # blocks of at most 3 whole queries and at most 31 pairs, unless
        # one query has more
        monkeypatch.setattr(toric, "_CELL_BLOCK", 31)
        rng = np.random.default_rng(5)
        seen = {assert_detect_matches_reference(*random_detect_case(rng))
                for _ in range(60)}
        assert {"pass", "no-pass"} <= seen

    @pytest.mark.parametrize("block", [1, 31, 2**18])
    def test_dense_cells(self, block, monkeypatch):
        # at tol 0.05 the 27 cells around a query hold much of the cloud,
        # so at the small blocks one query's pairs fill a block alone
        sizes, distances = [], toric._distances

        def counting(u, v):
            d = distances(u, v)
            if np.ndim(v):  # a block of pairs, not the centroid radii
                sizes.append(d.size)
            return d

        monkeypatch.setattr(toric, "_CELL_BLOCK", block)
        monkeypatch.setattr(toric, "_distances", counting)
        rng = np.random.default_rng(40)
        gauss = rng.standard_normal((1500, 3)) * [1.0, 0.7, 0.4]
        seen = [assert_detect_matches_reference(pts, [2, 3, 4, 6], 0.05)
                for pts in (gauss, gauss**3,
                            symmetric_points(rng, 1200, 6, 1e-3))]
        assert seen == ["no-pass", "no-pass", "pass"]
        if block < 2**18:
            assert max(sizes) > block

    def test_tol_a_few_ulps_either_side_of_the_residual(self):
        rng = np.random.default_rng(7)
        seen = set()
        for scale in (0.1, 1.0, 30.0):
            pts = symmetric_points(rng, 60, 6, 1e-4) * scale
            cloud = PointCloud(pts, np.ones(len(pts)))
            rep, _ = reference_detect_axis(cloud, [6], 1.0)
            span = centroid_span(pts - cloud.weights @ pts / cloud.total_mass)
            tol0 = rep.invariance_residual / max(span, 1.0)
            for steps in range(-3, 4):
                tol = tol0
                for _ in range(abs(steps)):
                    tol = np.nextafter(tol, np.sign(steps) * np.inf)
                seen.add(assert_detect_matches_reference(pts, [6], tol))
        # a 6-fold cloud's in-plane moment is isotropic: when 6 fails,
        # the report is the continuous one
        assert seen == {"pass", "continuous"}

    @pytest.mark.parametrize("offset", [1e6, 1e12])
    def test_large_offsets(self, offset, rng):
        pts = symmetric_points(rng, 120, 4) + offset * rng.uniform(-1, 1, 3)
        for tol in (1e-8, 1e-5, 1e-3):
            assert_detect_matches_reference(pts, [2, 3, 4], tol)

    @pytest.mark.parametrize("tol", [1e300, 1e308])
    def test_tolerance_beyond_the_cloud(self, tol, rng):
        # every rotation matches; at 1e308 tol * diameter overflows to inf
        for pts in (symmetric_points(rng, 90, 3) * 5.0,
                    rng.standard_normal((40, 3))):
            assert assert_detect_matches_reference(pts, [2, 3, 5],
                                                   tol) == "pass"

    def test_symmetric_cloud_needs_no_kdtree(self, monkeypatch):
        def no_tree(*args):
            raise AssertionError("the k-d tree path ran")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        rep = detect_axis(PointCloud(symmetric_points(
            np.random.default_rng(3), 600, 6), np.ones(600)), [2, 3, 4, 6])
        assert rep.order == 6


class TestMatchScale:
    def test_ring_scale_costs_linear_distances(self, monkeypatch):
        # an exact diameter scan prunes no point of a ring: 4.0e8 distances
        # for these 20 000 points, where 2R needs one per point
        calls, distances = [], toric._distances

        def counting(u, v):
            d = distances(u, v)
            calls.append(d.size)
            return d

        monkeypatch.setattr(toric, "_distances", counting)
        n = 20000
        rep = detect_axis(PointCloud(regular_polygon(n), np.ones(n)),
                          [2, 3, 4])
        assert rep.order == 4
        assert sum(calls) < 100 * n

    def test_tolerance_scale_is_twice_the_centroid_radius(self):
        # a jittered 6-fold cloud whose residual lies between tol * D and
        # tol * 2R: it passes at the 2R scale, and would fail at D
        pts = symmetric_points(np.random.default_rng(11), 240, 6, 1e-4) * 3
        cloud = PointCloud(pts, np.ones(len(pts)))
        want, _ = reference_detect_axis(cloud, [6], 1.0)
        res = want.invariance_residual
        diam = cdist(pts, pts).max()
        span = centroid_span(pts - cloud.weights @ pts / cloud.total_mass)
        tol = res / np.sqrt(diam * span)
        assert 1.0 < diam and tol * diam < res < tol * span
        rep = detect_axis(cloud, [6], tol)
        assert rep.order == 6
        assert rep.invariance_residual == res


class TestInvariantMomentCheck:
    def test_symmetric_cloud_zero(self):
        # viewing along the axis, a centered hexagon moves nowhere
        val = invariant_moment_check(hexagon_cloud(), coordinate_spec(2),
                                     [0, 0, 1], 6)
        assert val <= 1e-12

    def test_off_axis_cloud_nonzero_with_oracle(self, rng):
        shifted = PointCloud(hexagon_cloud().positions + [1.0, 0, 0],
                             np.ones(6))
        cases = [(shifted, coordinate_spec(2), np.array([0, 0, 1.0]), 4)]
        for _ in range(60):
            cloud = random_cloud(rng, int(rng.integers(1, 30)))
            cloud = cloud.translated(rng.uniform(-3, 3, 3))
            cases.append((cloud, random_spec(rng), rng.standard_normal(3),
                          int(rng.integers(2, 21))))
        for cloud, spec, axis, k in cases:
            base = centroid2d(project_points(cloud, spec)).centroid
            worst = 0.0  # direct re-evaluation of every group element
            for m in range(1, k):
                R = rotation_about(axis, 2 * np.pi * m / k)
                moved = PointCloud(cloud.positions @ R.T, cloud.weights)
                d = centroid2d(project_points(moved, spec)).centroid - base
                worst = max(worst, float(np.linalg.norm(d)))
            got = invariant_moment_check(cloud, spec, axis, k)
            assert got == pytest.approx(worst, abs=1e-12)
        assert invariant_moment_check(shifted, coordinate_spec(2),
                                      [0, 0, 1], 4) > 0.5

    def test_order_one_is_refused(self):
        # it once checked no order and returned 0.0 for the trivial group,
        # which no other rotation-group function takes
        with pytest.raises(DimMismatch, match="order must be >= 2, got 1"):
            invariant_moment_check(hexagon_cloud(), coordinate_spec(0),
                                   [1, 2, 3], 1)


@pytest.mark.parametrize("order", [2.5, np.nan, 4.0, "4", None])
@pytest.mark.parametrize("call", [
    lambda k: solve_direction_equivariant([ConstraintRow([0, 0, 1])],
                                          [0, 0, 1], k),
    lambda k: invariant_moment_check(hexagon_cloud(), coordinate_spec(2),
                                     [0, 0, 1], k),
    lambda k: group_average([0, 0, 1], k),
], ids=["solve", "moment-check", "group-average"])
def test_order_must_be_an_integer(call, order):
    # 2.5 was once truncated to 2 by the solve and taken as it was by the
    # moment check
    with pytest.raises(DimMismatch, match="order must be an integer"):
        call(order)


class TestMomentMapClosedForm:
    def test_equals_centroid_of_projection(self, rng):
        for _ in range(50):
            cloud = random_cloud(rng, int(rng.integers(1, 40)), scale=3.0)
            spec = random_spec(rng)
            mv = moment_map(cloud, spec)
            ref = centroid2d(project_points(cloud, spec))
            np.testing.assert_allclose(mv.centroid, ref.centroid, rtol=0,
                                       atol=1e-12)
            assert mv.total_mass == ref.total_mass


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
        # 1 and 400 zeros was once echoed whole, and 3.0 and 4.0 passed
        for dim in (5, 10**400, 3.0, np.float64(4)):
            with pytest.raises(DimMismatch, match="dim must be 3 or 4") as exc:
                group_average([0, 0, 1], 2, dim=dim)
            assert len(str(exc.value)) < 80
            with pytest.raises(DimMismatch, match="dim must be 3 or 4"):
                solve_direction_equivariant([ConstraintRow([1, 0, 0])],
                                            [0, 0, 1], 4, dim=dim)

    def test_zero_axis(self):
        with pytest.raises(DimMismatch, match="finite and nonzero"):
            group_average([0, 0, 0], 3)

    def test_bitwise_outer_product(self, rng):
        # each entry of B Bᵀ is one product a_i a_j (plus 0 * 0 in dim 4)
        for _ in range(50):
            a = rng.standard_normal(3)
            u = a / np.linalg.norm(a)
            np.testing.assert_array_equal(group_average(a, 7), np.outer(u, u))
            P4 = np.eye(4)
            P4[:3, :3] = np.outer(u, u)
            np.testing.assert_array_equal(group_average(a, 7, dim=4), P4)


class TestFixedBasis:
    @pytest.mark.parametrize("dim, f", [(3, 1), (4, 2)])
    def test_orthonormal_and_fixed(self, dim, f, rng):
        a = rng.standard_normal(3)
        B = toric._fixed_basis(a, 5, dim)
        assert B.shape == (dim, f)
        np.testing.assert_allclose(B.T @ B, np.eye(f), atol=1e-15)
        R = np.eye(dim)
        R[:3, :3] = rotation_about(a, 2 * np.pi / 5)
        np.testing.assert_allclose(R @ B, B, atol=1e-15)


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

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40, 1e-11, 2.0**40])
    def test_rows_vanish_relative_to_their_size(self, scale):
        # rows (e3, 2) and (e1 + 1e-3 e3, 1) about e3: the second row keeps
        # its 1e-3 on the axis at every scale; at 1e-11 an absolute 1e-12
        # cut once dropped it, and the residual went from 0.998 to 0
        rows = [ConstraintRow(scale * np.array([0, 0, 1.0]), 2 * scale),
                ConstraintRow(scale * np.array([1, 0, 1e-3]), scale)]
        sol = solve_direction_equivariant(rows, [0, 0, 1], 4)
        assert sol.nullity == 0
        np.testing.assert_array_equal(sol.v, [0, 0, 1.0])
        assert sol.residual == pytest.approx(0.998 * scale, rel=1e-6)

    def test_b_orthogonal_to_the_reduced_range_is_ambiguous(self):
        # both rows reduce to e3 with rhs 1 and -1: the least-squares
        # solution on the axis is zero
        rows = [ConstraintRow([1.0, 0, 1.0], 1.0),
                ConstraintRow([0, 1.0, 1.0], -1.0)]
        with pytest.raises(AmbiguousDirection, match="orthogonal") as exc:
            solve_direction_equivariant(rows, [0, 0, 1], 4)
        assert (exc.value.nullity, exc.value.fixed_subspace_dim) == (0, 1)

    @pytest.mark.parametrize("lengths, dim", [((3, 4), 3), ((4, 3), 4)])
    def test_omega_length_mismatch(self, lengths, dim):
        rows = [ConstraintRow(np.eye(n)[i]) for i, n in enumerate(lengths)]
        with pytest.raises(DimMismatch, match=f"!= dim {dim}"):
            solve_direction_equivariant(rows, [0, 0, 1], 4, dim=dim)


# (axis, omegas, rhs): both solvers, the plain one for axis None, on
# homogeneous and inhomogeneous systems in dim 3 and 4; the equivariant ones
# about (1, 2, 0) hold rows that vanish on its fixed subspace, and its
# homogeneous dim 3 system is refused (its one kept row is full rank)
_A3 = [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
_A4 = [[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 1.0, 0.0],
       [2.0, 1.0, 3.0, 1.0]]
_SCALED_SYSTEMS = {
    "plain dim 3 homogeneous": (None, _A3[:2], [0.0, 0.0]),
    "plain dim 3": (None, _A3, [3.0, 1.0, 0.0]),
    "plain dim 4 homogeneous": (None, _A4[:3], [0.0, 0.0, 0.0]),
    "plain dim 4": (None, _A4, [3.0, 1.0, 0.0, 2.0]),
    "equivariant dim 3 homogeneous": ((1, 2, 0), [[1.0, 2.0, 0.0],
                                                  [2.0, -1.0, 0.0]],
                                      [0.0, 0.0]),
    "equivariant dim 3": ((1, 2, 0), _A3, [3.0, 1.0, 0.0]),
    "equivariant dim 4 homogeneous": ((1, 2, 0), [[1.0, 2.0, 0.0, 1.0],
                                                  [2.0, -1.0, 5.0, 0.0],
                                                  [3.0, 6.0, 1.0, 3.0]],
                                      [0.0, 0.0, 0.0]),
    "equivariant dim 4": ((1, 2, 0), _A4, [3.0, 1.0, 0.0, 2.0]),
}


class TestPowerOfTwoScaling:
    @staticmethod
    def outcome(axis, omegas, rhs, k):
        """(v's bytes, nullity, residual) of the system with every omega and
        rhs times 2^k, or its refusal's (type, message, nullity)."""
        rows = [ConstraintRow(np.ldexp(o, k), np.ldexp(r, k))
                for o, r in zip(omegas, rhs)]
        dim = len(omegas[0])
        try:
            sol = (solve_direction(rows, dim) if axis is None else
                   solve_direction_equivariant(rows, axis, 2, dim))
        except (AmbiguousDirection, Inconsistent) as exc:
            return type(exc), str(exc), getattr(exc, "nullity", None)
        return sol.v.tobytes(), sol.nullity, sol.residual

    @pytest.mark.parametrize("case", _SCALED_SYSTEMS)
    def test_direction_solvers_are_exact(self, case):
        # times 2^k: v bitwise, and the residual exactly 2^k times k = 0's,
        # or the same refusal; at 2^-600 the row norms once underflowed
        # (Inconsistent, or every row dropped) and at 2^600 they overflowed
        want = self.outcome(*_SCALED_SYSTEMS[case], 0)
        for k in (-1000, -600, 600, 1000):
            got = self.outcome(*_SCALED_SYSTEMS[case], k)
            if isinstance(want[0], bytes):
                assert got == (*want[:2], np.ldexp(want[2], k)), k
            else:
                assert got == want, k

    @pytest.mark.parametrize("matched", [True, False],
                             ids=["matched", "no match"])
    def test_detect_is_exact(self, matched):
        # a jittered 6-fold cloud, whose order 6 matches, and one whose
        # residuals come from the k-d tree, times 2^k with 2R 2^k >= 1:
        # the order, the axis bits and the continuous flag hold, and the
        # residual is exactly 2^k times k = 0's; from 2^520 the second
        # moment once overflowed, and at 2^300 the axis bits moved
        rng = np.random.default_rng(5)
        pts = (symmetric_points(rng, 240, 6, 1e-3) if matched
               else rng.standard_normal((60, 3)))
        weights = rng.uniform(0.5, 2.0, len(pts))
        assert centroid_span(pts - weights @ pts / weights.sum()) >= 1
        want = detect_axis(PointCloud(pts, weights), [2, 3, 4, 6], 1e-2)
        assert (want.order == 6) == matched
        for k in (300, 520, 600, 1000):
            got = detect_axis(PointCloud(np.ldexp(pts, k), weights),
                              [2, 3, 4, 6], 1e-2)
            assert ((got.order, got.continuous, got.axis.tobytes(),
                     got.invariance_residual)
                    == (want.order, want.continuous, want.axis.tobytes(),
                        np.ldexp(want.invariance_residual, k))), k


def eigh_reduction(rows, axis, order, dim):
    """The eigendecomposition-based solver the closed form replaced:
    (outcome, v or None, nullity, fixed-subspace dim, residual or None).
    P is the group average a aᵀ (embedded in dim 4), which
    `TestGroupAverage` checks against the sum over the rotations."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    P = np.eye(dim)
    P[:3, :3] = np.outer(a, a)
    evals, evecs = np.linalg.eigh(0.5 * (P + P.T))
    B = evecs[:, evals > 1.0 - 1e-9]
    f = B.shape[1]
    reduced = [((r.omega @ P) @ B, r.rhs) for r in rows]
    kept = [(o, rhs) for o, rhs in reduced if np.linalg.norm(o) > 1e-12]
    if not kept:
        if f == 1 and all(r.rhs == 0.0 for r in rows):
            return "solved", _canonical_sign(B[:, 0]), 1, f, 0.0
        return "ambiguous", None, f, f, None
    try:
        sol = _direction_core(np.array([o for o, _ in kept]),
                              np.array([rhs for _, rhs in kept]))
    except AmbiguousDirection as exc:
        return "ambiguous", None, exc.nullity, f, None
    except Inconsistent:
        return "ambiguous", None, 0, f, None
    v = B @ sol.v
    return ("solved", _canonical_sign(v / np.linalg.norm(v)), sol.nullity, f,
            sol.residual)


def random_system(rng):
    """Random constraints with random or coordinate axes, rows that
    vanish on the fixed subspace, rows whose restrictions are parallel
    (so homogeneous systems can have a solution) and zero or random rhs."""
    dim = int(rng.choice([3, 4]))
    order = int(rng.integers(2, 13))
    if rng.random() < 0.3:
        axis = np.eye(3)[rng.integers(3)] * rng.choice([-2.0, 1.0])
    else:
        axis = rng.standard_normal(3)
    a = axis / np.linalg.norm(axis)
    fixed = np.column_stack([np.append(a, 0.0), np.eye(4)[3]])[:dim, :dim - 2]
    q = rng.standard_normal(dim - 2)  # one shared restriction direction
    homogeneous = rng.random() < 0.5
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        kind = rng.integers(3)
        off = rng.standard_normal(dim)
        off -= fixed @ (fixed.T @ off)  # vanishes on the fixed subspace
        if kind == 0:
            omega = rng.standard_normal(dim)
        elif kind == 1:
            omega = off
        else:
            omega = rng.uniform(0.5, 2.0) * (fixed @ q) + off
        rhs = 0.0 if homogeneous else float(rng.standard_normal())
        rows.append(ConstraintRow(omega, rhs))
    return rows, axis, order, dim


class TestEquivariantAgainstEighReduction:
    def test_random_systems(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(1200):
            rows, axis, order, dim = random_system(rng)
            want = eigh_reduction(rows, axis, order, dim)
            try:
                sol = solve_direction_equivariant(rows, axis, order, dim)
                got = ("solved", sol.v, sol.nullity, want[3], sol.residual)
            except AmbiguousDirection as exc:
                got = ("ambiguous", None, exc.nullity, exc.fixed_subspace_dim,
                       None)
            assert got[0] == want[0] and got[2:4] == want[2:4], (got, want)
            if got[0] == "solved":
                np.testing.assert_allclose(got[1], want[1], rtol=0,
                                           atol=1e-12)
                assert abs(got[4] - want[4]) <= 1e-12
            seen.add((dim, got[0], got[2]))
        # every outcome class the reduction can reach was drawn
        assert {(3, "solved", 0), (3, "solved", 1), (3, "ambiguous", 0),
                (3, "ambiguous", 1), (4, "solved", 0), (4, "solved", 1),
                (4, "ambiguous", 0), (4, "ambiguous", 2)} <= seen
