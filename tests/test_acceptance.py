"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts the same condition, so the suite doubles as a
human-readable checklist.
"""

import numpy as np
import pytest

from twoview.algebra import (
    FiniteMagma,
    TwistMap,
    check_associative,
    check_moufang,
    jacobiator,
)
from twoview.certify import certificate, check_transversality
from twoview.diffgeo import (
    ConnectionField,
    GridHeader,
    VectorFieldGrid,
    covariant_derivative,
    curvature,
    duality_residual,
    frobenius_residual,
    hantjies_tensor,
    integrability_report,
    parallel_transport,
)
from twoview.errors import AmbiguousDirection, NonTransverse
from twoview.geometry import (
    Involution,
    PointCloud,
    ProjectionSpec,
    VoxelGrid,
    coordinate_spec,
    project_points,
    project_voxels,
)
from twoview.moments import centroid3d, moment_map
from twoview.recon import (
    ConstraintRow,
    build_radon_system,
    noise_study,
    reconstruct_cloud,
    solve_direction,
)
from twoview.toric import detect_axis, group_average, solve_direction_equivariant
from conftest import (
    random_cloud,
    random_noncoaxial_pair,
    random_rotation,
    random_spec,
    sphere_connection,
)
from test_diffgeo import (
    metric_angle,
    octant_loop,
    smooth_small_gamma,
    sphere_transport_oracle,
)
from test_recon import elimination_nullspace_oracle
from test_algebra import exhaustive_assoc_oracle, nonassoc_latin_square

XY = coordinate_spec(2)
YZ = coordinate_spec(0)


def verdict(num, description, ok):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_round_trip_reconstruction():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        cloud = random_cloud(rng, int(rng.integers(1, 1001)))
        s1, s2 = random_noncoaxial_pair(rng)
        rec = reconstruct_cloud(project_points(cloud, s1),
                                project_points(cloud, s2), s1, s2)
        worst = max(worst, float(np.abs(rec.positions - cloud.positions).max()))
    coaxial_raises = 0
    for _ in range(100):
        s1 = random_spec(rng)
        # same viewing axis, different in-plane frame (and random sign)
        theta = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        u2 = c * s1.u + s * s1.w
        w2 = -s * s1.u + c * s1.w
        s2 = ProjectionSpec(u2, w2, s1.n)
        if rng.integers(2):
            s2 = ProjectionSpec(u2, -w2, -s1.n)
        try:
            reconstruct_cloud(project_points(random_cloud(rng, 3), s1),
                              project_points(random_cloud(rng, 3), s2),
                              s1, s2)
        except NonTransverse:
            coaxial_raises += 1
    verdict(1, f"round-trip max err {worst:.2e} < 1e-9 and "
            f"{coaxial_raises}/100 coaxial NonTransverse",
            worst < 1e-9 and coaxial_raises == 100)


def test_criterion_02_moment_commutation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        cloud = random_cloud(rng, int(rng.integers(1, 40)))
        spec = random_spec(rng)
        lhs = moment_map(cloud, spec).centroid
        c3 = centroid3d(cloud)
        rhs = np.array([c3 @ spec.u, c3 @ spec.w])
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    verdict(2, f"moment commutation max dev {worst:.2e} <= 1e-12",
            worst <= 1e-12)


def test_criterion_03_direction_solver():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(200):
        A = rng.standard_normal((3, 4))
        sol = solve_direction([ConstraintRow(r) for r in A], dim=4)
        basis = elimination_nullspace_oracle(A)
        ok &= len(basis) == 1 and abs(abs(basis[0] @ sol.v) - 1.0) < 1e-10
    nullity_ok = 0
    for _ in range(50):
        r = int(rng.integers(1, 3))  # rank 1 or 2 -> nullity 3 or 2
        base = rng.standard_normal((r, 4))
        rows = [ConstraintRow(rng.standard_normal(r) @ base)
                for _ in range(5)]
        try:
            solve_direction(rows, dim=4)
        except AmbiguousDirection as exc:
            nullity_ok += exc.nullity == 4 - r
    verdict(3, f"null-space match on 200 systems, nullity correct "
            f"{nullity_ok}/50", ok and nullity_ok == 50)


def test_criterion_04_radon_determinacy():
    rng = np.random.default_rng(104)
    vals = rng.uniform(0.1, 1, (2, 2, 2))
    grid = VoxelGrid((2, 2, 2), 1.0, (-0.5, -0.5, -0.5), vals)
    sinos = [project_voxels(grid, s, (2, 2)) for s in (XY, YZ)]
    system = build_radon_system([XY, YZ], grid, sinos)
    ok = system.rank < 8
    ok &= system.rank == np.linalg.matrix_rank(system.rows.toarray())
    ranks = []
    for n in range(2, 7):
        g = VoxelGrid((n, n, 1), 1.0, (0, 0, 0), rng.uniform(0, 1, (n, n, 1)))
        specs = [coordinate_spec(0), coordinate_spec(1)]
        sinos = [project_voxels(g, s, (n, n)) for s in specs]
        sysm = build_radon_system(specs, g, sinos)
        ranks.append(sysm.rank)
        ok &= sysm.rank == 2 * n - 1
        ok &= sysm.rank == np.linalg.matrix_rank(sysm.rows.toarray())
    verdict(4, f"2x2x2 rank {system.rank} < 8; nxnx1 ranks {ranks} = 2n-1", ok)


def test_criterion_05_integrability_diagnostics():
    h = 1e-2
    header = GridHeader((5, 5, 5), h, (-2 * h, -2 * h, -2 * h))
    _, coord_max = frobenius_residual(
        VectorFieldGrid.constant(header, (1, 0, 0)),
        VectorFieldGrid.constant(header, (0, 1, 0)))
    ok = coord_max <= 1e-6
    # contact fixture: residual 1 at x2 = 0
    Xc = VectorFieldGrid.from_function(
        header, lambda x, y, z: (np.ones_like(x), np.zeros_like(x), y))
    res1, _ = frobenius_residual(Xc, VectorFieldGrid.constant(header, (0, 1, 0)))
    ok &= abs(res1[2, 2, 2] - 1.0) <= 0.05
    # tilted fixture: residual 1/sqrt(2) at x1 = 1
    h2 = GridHeader((5, 5, 5), h, (1 - 2 * h, -2 * h, -2 * h))
    Yt = VectorFieldGrid.from_function(
        h2, lambda x, y, z: (np.zeros_like(x), np.ones_like(x), x))
    res2, _ = frobenius_residual(VectorFieldGrid.constant(h2, (1, 0, 0)), Yt)
    ok &= abs(res2[2, 2, 2] - 1 / np.sqrt(2)) <= 0.05 / np.sqrt(2)
    # symmetric-Gamma Hantjies bound on polynomial fields
    rng = np.random.default_rng(105)
    g = rng.standard_normal(header.dims + (3, 3, 3))
    conn = ConnectionField(header, 0.5 * (g + np.swapaxes(g, -1, -2)))
    Xp = VectorFieldGrid.from_function(header,
                                       lambda x, y, z: (x * y, z, y * y))
    Yp = VectorFieldGrid.from_function(header,
                                       lambda x, y, z: (z * z, x, x * y))
    hmax = hantjies_tensor(Xp, Yp, conn).max_interior_norm()
    ok &= hmax <= 10 * h * h
    # order-2 convergence of the discrete residual on a curved foliation
    errs = []
    for step, nn in ((0.1, 11), (0.05, 21)):  # same physical domain
        hd = GridHeader((nn, nn, nn), step, (0.3, 0.3, 0.3))

        def s1(x, y):
            return 2 * np.cos(2 * x) * np.cos(y)

        def s2(x, y):
            return -np.sin(2 * x) * np.sin(y)

        X = VectorFieldGrid.from_function(
            hd, lambda x, y, z: (np.ones_like(x), np.zeros_like(x), s1(x, y)))
        Y = VectorFieldGrid.from_function(
            hd, lambda x, y, z: (np.zeros_like(x), np.ones_like(x), s2(x, y)))
        _, rmax = frobenius_residual(X, Y)  # analytically integrable
        errs.append(rmax)
    ratio = errs[0] / errs[1]
    ok &= 3.0 <= ratio <= 5.0
    verdict(5, f"foliation {coord_max:.1e}, fixtures {res1[2, 2, 2]:.4f}/"
            f"{res2[2, 2, 2]:.4f}, hantjies {hmax:.1e}, ratio {ratio:.2f}",
            ok)


def test_criterion_06_curvature():
    rng = np.random.default_rng(106)
    header = GridHeader((7, 7, 7), 0.1, (-0.3, -0.3, -0.3))
    e1 = VectorFieldGrid.constant(header, (1, 0, 0))
    e2 = VectorFieldGrid.constant(header, (0, 1, 0))
    e3 = VectorFieldGrid.constant(header, (0, 0, 1))
    flat_max = float(np.abs(curvature(ConnectionField.flat(header),
                                      e1, e2, e3).samples).max())
    ok = flat_max <= 1e-12
    # sphere sectional curvature at the equator
    n, h = 11, 0.01
    sh = GridHeader((n, n, 5), h, (np.pi / 2 - h * (n - 1) / 2, 0.0, 0.0))
    conn = sphere_connection(sh)
    F = curvature(conn, VectorFieldGrid.constant(sh, (1, 0, 0)),
                  VectorFieldGrid.constant(sh, (0, 1, 0)),
                  VectorFieldGrid.constant(sh, (0, 1, 0)))
    mid = (n - 1) // 2
    K = F.samples[mid, mid, 2, 0] / np.sin(sh.axis_coords(0)[mid]) ** 2
    ok &= abs(K - 1.0) <= 1e-2
    # exact antisymmetry
    rc = ConnectionField(header, rng.standard_normal(header.dims + (3, 3, 3)))
    X = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
    Y = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
    anti = np.array_equal(curvature(rc, X, Y, e3).samples,
                          -curvature(rc, Y, X, e3).samples)
    ok &= anti
    # constructed involution-dual pair
    dh = GridHeader((9, 9, 9), 0.1, (-0.4, -0.4, -0.4))
    g1 = smooth_small_gamma(dh, eps=0.02)
    m = -np.eye(3)
    pos = dh.node_positions()
    idx = np.rint(((pos @ m.T) - dh.origin) / dh.spacing).astype(int)
    g_at = g1[idx[..., 0], idx[..., 1], idx[..., 2]]
    g2 = -np.einsum("ka,...apq,pi,qj->...kij", m, g_at, m, m)
    probes = (VectorFieldGrid.constant(dh, (1, 0, 0)),
              VectorFieldGrid.constant(dh, (0, 1, 0)),
              VectorFieldGrid.constant(dh, (0, 0, 1)))
    dres = duality_residual(ConnectionField(dh, g1), ConnectionField(dh, g2),
                            Involution(m), probes)
    ok &= dres <= 5e-3
    verdict(6, f"flat {flat_max:.1e}, K {K:.4f}, antisym {anti}, "
            f"duality {dres:.2e}", ok)


def test_criterion_07_parallel_transport():
    header = GridHeader((7, 7, 7), 0.1, (-0.3, -0.3, -0.3))
    conn = ConnectionField.flat(header)
    loop = [(0, 0, 0), (0.2, 0, 0), (0.2, 0.2, 0), (0, 0.2, 0), (0, 0, 0)]
    v = parallel_transport(conn, loop, (0.3, -1.0, 0.7))
    flat_dev = float(np.abs(v - [0.3, -1.0, 0.7]).max())
    ok = flat_dev <= 1e-12
    h, margin = 0.01, 0.06
    nt = int(np.ceil((np.pi / 2 + 2 * margin) / h)) + 1
    sh = GridHeader((nt, nt, 3), h, (np.pi / 4 - margin, -margin, -h))
    sconn = sphere_connection(sh)
    sloop = octant_loop(num=600)
    v0 = np.array([1.0, 0.0, 0.0])
    v1 = parallel_transport(sconn, sloop, v0)
    angle = metric_angle(v0, v1, sloop[0, 0])
    oracle = sphere_transport_oracle(sloop, v0)
    odev = float(np.abs(v1 - oracle).max())
    ok &= abs(angle - np.pi / 2) <= 1e-3 and odev <= 1e-3
    verdict(7, f"flat loop dev {flat_dev:.1e}; octant holonomy "
            f"{angle:.5f} (pi/2 within 1e-3), oracle dev {odev:.1e}", ok)


def test_criterion_08_certificate():
    header = GridHeader((5, 5, 5), 0.01, (-0.02, -0.02, -0.02))
    cloud = PointCloud([[0, 0, 0], [1, 1, 1]], [1.0, 1.0])
    coordX = VectorFieldGrid.constant(header, (1, 0, 0))
    coordY = VectorFieldGrid.constant(header, (0, 1, 0))
    contactX = VectorFieldGrid.from_function(
        header, lambda x, y, z: (np.ones_like(x), np.zeros_like(x), y))
    flat = ConnectionField.flat(header)
    combos = [(YZ, coordX, coordY, True, True),
              (YZ, contactX, coordY, True, False),
              (XY, coordX, coordY, False, True),
              (XY, contactX, coordY, False, False)]
    ok = True
    for spec2, X, Y, want_t, want_i in combos:
        cert = certificate(XY, spec2, cloud, X, Y, flat)
        ok &= cert.transversality.transversal == want_t
        ok &= cert.integrability.integrable == want_i
        ok &= cert.unique == (want_t and want_i)
    # tolerance monotonicity: raising tol_integrability never un-integrates
    flags = [certificate(XY, YZ, cloud, contactX, coordY, flat,
                         tol_integrability=t).integrability.integrable
             for t in np.logspace(-6, 1, 10)]
    mono = all(not (a and not b) for a, b in zip(flags, flags[1:]))
    ok &= mono and (False in flags) and (True in flags)
    verdict(8, f"4 truth combinations correct, tolerance sweep {flags} "
            "monotone", ok)


def test_criterion_09_algebra():
    rng = np.random.default_rng(109)
    from test_algebra import s3_table
    groups_ok = all(
        check_associative(m).holds and check_moufang(m, strict=True).holds
        for m in (FiniteMagma.cyclic_group(2), FiniteMagma.cyclic_group(4),
                  FiniteMagma(s3_table())))
    table = nonassoc_latin_square()
    v = check_associative(FiniteMagma(table))
    latin_ok = (not v.holds
                and v.witness == exhaustive_assoc_oracle(table.tolist())
                and not check_moufang(FiniteMagma(table)).holds)
    h = 0.05
    header = GridHeader((9, 9, 9), h, (-0.2, -0.2, -0.2))
    coeffs = rng.uniform(-1, 1, (3, 3, 3))  # per-component quadratics

    def poly(ax):
        def fn(x, y, z):
            c = coeffs[ax]
            return tuple(c[k, 0] * x * y + c[k, 1] * z * z + c[k, 2] * x
                         for k in range(3))
        return fn

    fields = [VectorFieldGrid.from_function(header, poly(a)) for a in range(3)]
    _, jmax = jacobiator(*fields, TwistMap.zero())
    jzero_ok = jmax <= 10 * h * h
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    basis = np.eye(3)
    consts = [VectorFieldGrid.constant(header, basis[i]) for i in range(3)]
    _, tmax = jacobiator(*consts, TwistMap.from_cross_product(A))
    expected = np.zeros(3)
    for u, vv, w in ((basis[0], basis[1], basis[2]),
                     (basis[1], basis[2], basis[0]),
                     (basis[2], basis[0], basis[1])):
        expected += A @ np.cross(u, A @ np.cross(vv, w))
    twist_ok = (np.linalg.norm(expected) > 1e-6
                and abs(tmax - np.linalg.norm(expected)) <= 1e-10)
    ok = groups_ok and latin_ok and jzero_ok and twist_ok
    verdict(9, f"groups {groups_ok}, latin-square witness {v.witness}, "
            f"jacobiator H=0 {jmax:.2e}, twisted {tmax:.3f}", ok)


def test_criterion_10_toric():
    ang = 2 * np.pi * np.arange(6) / 6
    hexagon = PointCloud(np.column_stack(
        [np.cos(ang), np.sin(ang), np.zeros(6)]), np.ones(6))
    rep = detect_axis(hexagon, orders=[2, 3, 4, 6])
    hex_ok = (rep.order == 6 and rep.invariance_residual <= 1e-10
              and np.allclose(np.abs(rep.axis), [0, 0, 1], atol=1e-10))
    rng = np.random.default_rng(110)
    a = rng.standard_normal(3)
    P = group_average(a, 5)
    idem = float(np.abs(P @ P - P).max())
    rows = [ConstraintRow([1, 0, 0]), ConstraintRow([0, 1, 0])]
    sol = solve_direction_equivariant(rows, [0, 0, 1], 4)
    solve_ok = np.allclose(np.abs(sol.v), [0, 0, 1], atol=1e-12)
    ok = hex_ok and idem <= 1e-12 and solve_ok
    verdict(10, f"hexagon (axis {np.round(rep.axis, 6)}, order {rep.order}, "
            f"res {rep.invariance_residual:.1e}), idempotency {idem:.1e}, "
            f"equivariant v {np.round(sol.v, 6)}", ok)


def test_criterion_11_noise_study():
    rng = np.random.default_rng(111)
    cloud = random_cloud(rng, 60)
    ok = True
    ratios = []
    for deg in (90, 30, 10):
        t = np.radians(deg)
        c, s = np.cos(t), np.sin(t)
        spec2 = ProjectionSpec([1, 0, 0], [0, c, s], [0, -s, c])
        kappa = 1.0 / np.linalg.norm(np.cross(XY.n, spec2.n))
        rep = noise_study(cloud, XY, spec2, 0.01, 200, seed=11)
        ratios.append(float(rep.slope / kappa))
        ok &= 0.5 <= rep.slope / kappa <= 2.0
    a = noise_study(cloud, XY, YZ, 0.05, 50, seed=7)
    b = noise_study(cloud, XY, YZ, 0.05, 50, seed=7)
    ok &= a == b
    verdict(11, f"slope/kappa ratios {[round(r, 3) for r in ratios]} in "
            f"[0.5, 2], reruns identical {a == b}", ok)
