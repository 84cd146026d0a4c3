import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoview.errors import (
    DegenerateDistribution,
    GridTooSmall,
    HeaderMismatch,
    NumericalError,
    PathOutsideGrid,
)
from twoview import diffgeo
from twoview.geometry import Involution
from twoview.diffgeo import (
    INTERIOR,
    ConnectionField,
    GridHeader,
    VectorFieldGrid,
    covariant_derivative,
    curvature,
    default_tolerance,
    duality_residual,
    frobenius_residual,
    hantjies_tensor,
    integrability_report,
    lie_bracket,
    parallel_transport,
)
from twoview.data import fixture_path
from twoview.serialization import load_connection, load_vector_field
from conftest import smooth_waves, sphere_connection


def small_header(h=0.1, n=7, origin=None):
    if origin is None:
        origin = -h * (n - 1) / 2
    return GridHeader((n, n, n), h, (origin, origin, origin))


def const(header, v):
    return VectorFieldGrid.constant(header, v)


class TestCovariantDerivative:
    def test_flat_directional(self):
        header = small_header()
        X = const(header, (1, 0, 0))
        Y = VectorFieldGrid.from_function(
            header, lambda x, y, z: (x, np.zeros_like(x), np.zeros_like(x)))
        out = covariant_derivative(X, Y, ConnectionField.flat(header))
        np.testing.assert_allclose(out.samples[..., 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(out.samples[..., 1:], 0.0, atol=1e-12)

    def test_constant_fields_flat(self):
        header = small_header()
        out = covariant_derivative(const(header, (1, 2, 3)),
                                   const(header, (4, 5, 6)),
                                   ConnectionField.flat(header))
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-14)

    def test_polynomial_symbolic_oracle(self):
        header = small_header()
        X = const(header, (1.0, 2.0, -1.0))
        Y = VectorFieldGrid.from_function(
            header, lambda x, y, z: (x * x, y * z, x + z))
        out = covariant_derivative(X, Y, ConnectionField.flat(header))
        pos = header.node_positions()
        x1, x2, x3 = pos[..., 0], pos[..., 1], pos[..., 2]
        # hand-differentiated Jacobian applied to X
        expected = np.stack([2 * x1 * 1.0,
                             x3 * 2.0 + x2 * (-1.0),
                             1.0 - 1.0 * np.ones_like(x1)], axis=-1)
        np.testing.assert_allclose(out.samples, expected, atol=1e-10)

    def test_christoffel_term(self):
        header = small_header()
        gamma = np.zeros(header.dims + (3, 3, 3))
        gamma[..., 2, 0, 1] = 5.0  # Gamma^3_12
        out = covariant_derivative(const(header, (1, 0, 0)),
                                   const(header, (0, 1, 0)),
                                   ConnectionField(header, gamma))
        np.testing.assert_allclose(out.samples[..., 2], 5.0, atol=1e-14)

    def test_header_mismatch(self):
        a, b = small_header(), small_header(n=9)
        with pytest.raises(HeaderMismatch):
            covariant_derivative(const(a, (1, 0, 0)), const(b, (1, 0, 0)),
                                 ConnectionField.flat(a))

    def test_order2_convergence(self):
        # halving h reduces smooth-field derivative error by about 4x
        errs = []
        for h in (0.1, 0.05):
            header = small_header(h=h, n=11)
            X = const(header, (1.0, 0.0, 0.0))
            Y = VectorFieldGrid.from_function(
                header, lambda x, y, z: (np.sin(3 * x), np.cos(3 * x), 0 * x))
            out = covariant_derivative(X, Y, ConnectionField.flat(header))
            pos = header.node_positions()
            exact = np.stack([3 * np.cos(3 * pos[..., 0]),
                              -3 * np.sin(3 * pos[..., 0]),
                              np.zeros(header.dims)], axis=-1)
            errs.append(np.abs((out.samples - exact)[INTERIOR]).max())
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0


class TestOverflow:
    """Finite fields whose computed products overflow raise NumericalError,
    with numpy's overflow warnings (errors under this suite) kept quiet."""

    @pytest.fixture
    def fields(self):
        header = small_header(h=1.0, n=5)
        gamma = np.zeros(header.dims + (3, 3, 3))
        gamma[..., 2, 0, 1] = 1e200
        return (const(header, (1e200, 0, 0)), const(header, (0, 1e200, 0)),
                ConnectionField(header, gamma))

    @pytest.mark.parametrize("compute", [
        lambda X, Y, C: covariant_derivative(X, Y, C),
        lambda X, Y, C: hantjies_tensor(X, Y, C),
        lambda X, Y, C: frobenius_residual(X, VectorFieldGrid.from_function(
            X.header, lambda x, y, z: (0 * x, 1e200 + 0 * x, 1e200 * x))),
        lambda X, Y, C: curvature(C, X, Y, Y),
        lambda X, Y, C: const(X.header,
                              (1.5e308, 1.5e308, 0)).max_interior_norm(),
    ], ids=["covariant", "hantjies", "frobenius", "curvature", "norm"])
    def test_numerical_error(self, compute, fields):
        # the frobenius case overflows in its bracket X^0 d_0 Y^2 = 1e400,
        # the norm case in |(1.5e308, 1.5e308, 0)| = 2.1e308
        with pytest.raises(NumericalError, match="overflows"):
            compute(*fields)


def _unscaled_norms_and_residual(X, Y):
    """|X| per node and the Frobenius residual by the formulas that square
    the raw samples, which overflow above about 1e154."""
    nx = np.linalg.norm(X.samples, axis=-1)
    cross = np.cross(X.samples, Y.samples)
    chat = cross / np.maximum(
        np.linalg.norm(cross, axis=-1, keepdims=True), 1e-300)
    b = lie_bracket(X, Y).samples
    return nx, np.abs(np.einsum("...k,...k->...", b, chat))


class TestNodeScaling:
    """Norms, the Hantjies tensor and the Frobenius residual scale each node
    by a power of two first: finite answers of fields above 1e154 stay
    finite, and on fields in the normal range nothing changes, to the last
    bit."""

    fields = TestOverflow.fields

    def test_norm_of_a_huge_field(self, fields):
        X, _, _ = fields
        assert X.max_interior_norm() == 1e200

    def test_frobenius_of_huge_coordinate_fields(self, fields):
        X, Y, _ = fields
        residual, rmax = frobenius_residual(X, Y)
        assert rmax == 0.0
        assert not residual.any()

    def test_hantjies_of_huge_coordinate_fields(self, fields):
        # X x Y = 1e400 is past float64, while the torsion acting on it is
        # 0 under a symmetric Gamma and 1e200 under T^2_01 = 1e-200
        X, Y, _ = fields
        flat = ConnectionField.flat(X.header)
        assert not hantjies_tensor(X, Y, flat).samples.any()
        assert integrability_report(X, Y, flat).max_hantjies_norm == 0.0
        gamma = np.zeros(X.header.dims + (3, 3, 3))
        gamma[..., 2, 0, 1] = 1e-200
        h = hantjies_tensor(X, Y, ConnectionField(X.header, gamma)).samples
        assert np.all(h[..., 2] == pytest.approx(1e200, rel=1e-15))
        assert not h[..., :2].any()

    def test_hantjies_of_tiny_fields_under_a_huge_gamma(self):
        # |X||Y| = 1e-400 is below float64, Gamma 1e300: h is 1e-100, not 0
        header = small_header(h=1.0, n=3)
        gamma = np.zeros(header.dims + (3, 3, 3))
        gamma[..., 2, 0, 1] = 1e300
        h = hantjies_tensor(const(header, (1e-200, 0, 0)),
                            const(header, (0, 1e-200, 0)),
                            ConnectionField(header, gamma)).samples
        assert np.all(h[..., 2] == pytest.approx(1e-100, rel=1e-15))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ex=st.integers(-60, 60),
           ey=st.integers(-60, 60))
    def test_bitwise_equal_to_the_unscaled_formulas(self, seed, ex, ey):
        rng = np.random.default_rng(seed)
        header = small_header(n=4)
        X, Y = (VectorFieldGrid(header, 10.0 ** e * rng.standard_normal(
            header.dims + (3,))) for e in (ex, ey))
        nx, residual = _unscaled_norms_and_residual(X, Y)
        assert X.max_interior_norm() == nx[INTERIOR].max()
        got, rmax = frobenius_residual(X, Y)
        assert np.array_equal(got, residual)
        assert rmax == residual[INTERIOR].max()


def test_a_3_node_cube_has_one_interior_node():
    # the smallest grid the stencils take
    X = const(small_header(n=3), (1.0, 0, 0))
    assert X.samples[INTERIOR].shape == (1, 1, 1, 3)
    assert X.max_interior_norm() == 1.0


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        header = small_header()
        out = lie_bracket(const(header, (1, 0, 0)), const(header, (0, 1, 0)))
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-14)

    def test_contact_bracket(self):
        header = small_header()
        X = VectorFieldGrid.from_function(
            header, lambda x, y, z: (np.ones_like(x), np.zeros_like(x), y))
        Y = const(header, (0, 1, 0))
        out = lie_bracket(X, Y)
        np.testing.assert_allclose(
            out.samples, np.broadcast_to([0.0, 0.0, -1.0], header.dims + (3,)),
            atol=1e-10)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(0)
        header = small_header()
        X = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        Y = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        np.testing.assert_array_equal(lie_bracket(X, Y).samples,
                                      -lie_bracket(Y, X).samples)


class TestHantjiesTensor:
    def test_torsion_free_vanishes(self):
        rng = np.random.default_rng(1)
        header = small_header()
        g = rng.standard_normal(header.dims + (3, 3, 3))
        sym = 0.5 * (g + np.swapaxes(g, -1, -2))
        conn = ConnectionField(header, sym)
        X = VectorFieldGrid.from_function(
            header, lambda x, y, z: (y, x * z, np.ones_like(x)))
        Y = VectorFieldGrid.from_function(
            header, lambda x, y, z: (z * z, x, y))
        H = hantjies_tensor(X, Y, conn)
        assert H.max_interior_norm() <= 5e-3 * header.spacing ** 2

    def test_antisymmetric_part(self):
        header = small_header()
        c = 1.7
        gamma = np.zeros(header.dims + (3, 3, 3))
        gamma[..., 2, 0, 1] = c
        gamma[..., 2, 1, 0] = -c
        conn = ConnectionField(header, gamma)
        H = hantjies_tensor(const(header, (1, 0, 0)), const(header, (0, 1, 0)),
                            conn)
        np.testing.assert_allclose(
            H.samples, np.broadcast_to([0, 0, 2 * c], header.dims + (3,)),
            atol=1e-12)

    def test_alternating(self):
        rng = np.random.default_rng(2)
        header = small_header()
        conn = ConnectionField(header,
                               rng.standard_normal(header.dims + (3, 3, 3)))
        X = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        np.testing.assert_array_equal(hantjies_tensor(X, X, conn).samples, 0.0)

    def test_bilinear_antisymmetric_in_xy(self):
        rng = np.random.default_rng(3)
        header = small_header()
        conn = ConnectionField(header,
                               rng.standard_normal(header.dims + (3, 3, 3)))
        X = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        Y = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        np.testing.assert_array_equal(hantjies_tensor(X, Y, conn).samples,
                                      -hantjies_tensor(Y, X, conn).samples)

    @pytest.mark.parametrize("k", [-300, -5, 0, 6, 15, 300])
    def test_exactly_zero_without_torsion_at_any_scale(self, k):
        # the torsion of a symmetric Gamma is exactly zero, and so is
        # X x X, whatever the scale of Gamma
        rng = np.random.default_rng(k + 300)
        header = small_header()
        g = 10.0 ** k * rng.standard_normal(header.dims + (3, 3, 3))
        X, Y = (VectorFieldGrid(header, rng.standard_normal(
            header.dims + (3,))) for _ in range(2))
        sym = ConnectionField(header, g + np.swapaxes(g, -1, -2))
        assert not hantjies_tensor(X, Y, sym).samples.any()
        assert not hantjies_tensor(X, X, ConnectionField(header, g)
                                   ).samples.any()


def literal_hantjies(X, Y, conn):
    """nabla_X Y - nabla_Y X - [X, Y] through the derivative stencils."""
    return (covariant_derivative(X, Y, conn).samples
            - covariant_derivative(Y, X, conn).samples
            - lie_bracket(X, Y).samples)


class TestHantjiesClosedForm:
    """`hantjies_tensor` against the literal formula it closes."""

    def check(self, X, Y, conn, rel=1e-12):
        lit = literal_hantjies(X, Y, conn)
        np.testing.assert_allclose(hantjies_tensor(X, Y, conn).samples, lit,
                                   rtol=0, atol=rel * np.abs(lit).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        header = small_header(n=7)
        conn = ConnectionField(header,
                               rng.standard_normal(header.dims + (3, 3, 3)))
        X = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        Y = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        self.check(X, Y, conn)

    def test_scaled_connections(self):
        # Gamma from 1e-5 to 1e5: the literal formula's stencils cancel
        # only up to rounding of |X| |dY|, measured at most 3.7e-11 of it
        rng = np.random.default_rng(10)
        header = small_header(n=7)
        for k in rng.uniform(-5.0, 5.0, 30):
            conn = ConnectionField(header, 10.0 ** k * rng.standard_normal(
                header.dims + (3, 3, 3)))
            X, Y = (VectorFieldGrid(header, rng.standard_normal(
                header.dims + (3,))) for _ in range(2))
            self.check(X, Y, conn, rel=1e-10)

    @pytest.mark.parametrize("fx, fy", [("coord_x", "coord_y"),
                                        ("contact_x", "contact_y"),
                                        ("coord_x", "contact_y"),
                                        ("contact_y", "coord_x")])
    def test_bundled_fixtures(self, fx, fy):
        X = load_vector_field(fixture_path(f"field_{fx}.json"))
        Y = load_vector_field(fixture_path(f"field_{fy}.json"))
        conn = load_connection(fixture_path("conn_flat.json"))
        self.check(X, Y, conn)
        rng = np.random.default_rng(9)
        self.check(X, Y, ConnectionField(
            conn.header, rng.standard_normal(conn.header.dims + (3, 3, 3))))


class TestFrobeniusResidual:
    def test_coordinate_foliation(self):
        header = small_header()
        _, rmax = frobenius_residual(const(header, (1, 0, 0)),
                                     const(header, (0, 1, 0)))
        assert rmax <= 1e-12

    def test_contact_distribution(self):
        # span{d1 + x2 d3, d2}: residual 1/sqrt(1 + x2^2), max 1 at x2 = 0
        header = GridHeader((5, 5, 5), 0.01, (-0.02, -0.02, -0.02))
        X = VectorFieldGrid.from_function(
            header, lambda x, y, z: (np.ones_like(x), np.zeros_like(x), y))
        Y = const(header, (0, 1, 0))
        residual, rmax = frobenius_residual(X, Y)
        assert abs(residual[2, 2, 2] - 1.0) < 1e-10  # node at x2 = 0
        assert abs(rmax - 1.0) < 0.05

    def test_tilted_distribution(self):
        # span{d1, d2 + x1 d3}: residual 1/sqrt(1 + x1^2) = 1/sqrt(2) at x1=1
        header = GridHeader((5, 5, 5), 0.01, (1 - 0.02, -0.02, -0.02))
        X = VectorFieldGrid.constant(header, (1.0, 0.0, 0.0))
        Y = VectorFieldGrid.from_function(
            header, lambda x, y, z: (np.zeros_like(x), np.ones_like(x), x))
        residual, _ = frobenius_residual(X, Y)
        assert abs(residual[2, 2, 2] - 1 / np.sqrt(2)) < 1e-10

    def test_determinant_oracle(self):
        # residual == 0 iff det[X Y [X,Y]] == 0, pointwise in R^3
        rng = np.random.default_rng(4)
        header = small_header()
        X = VectorFieldGrid.from_function(
            header, lambda x, y, z: (np.ones_like(x), y, x * y))
        Y = VectorFieldGrid.from_function(
            header, lambda x, y, z: (y, np.ones_like(x), z))
        residual, _ = frobenius_residual(X, Y)
        b = lie_bracket(X, Y).samples
        det = np.linalg.det(np.stack([X.samples, Y.samples, b], axis=-1))
        agree = np.isclose(residual[INTERIOR], 0.0, atol=1e-10) == \
            np.isclose(det[INTERIOR], 0.0, atol=1e-10)
        assert np.all(agree)

    def test_degenerate(self):
        header = small_header()
        X = const(header, (1, 0, 0))
        with pytest.raises(DegenerateDistribution):
            frobenius_residual(X, X)


class TestCurvature:
    def test_flat_zero(self):
        header = small_header()
        F = curvature(ConnectionField.flat(header), const(header, (1, 0, 0)),
                      const(header, (0, 1, 0)), const(header, (0, 0, 1)))
        np.testing.assert_allclose(F.samples, 0.0, atol=1e-12)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(5)
        header = small_header()
        conn = ConnectionField(header,
                               rng.standard_normal(header.dims + (3, 3, 3)))
        X = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        Y = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        Z = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        np.testing.assert_array_equal(curvature(conn, X, Y, Z).samples,
                                      -curvature(conn, Y, X, Z).samples)

    def test_sphere_sectional_curvature(self):
        h = 0.01
        n = 11
        theta0 = np.pi / 2 - h * (n - 1) / 2
        header = GridHeader((n, n, 5), h, (theta0, 0.0, 0.0))
        conn = sphere_connection(header)
        X = const(header, (1, 0, 0))  # d_theta
        Y = const(header, (0, 1, 0))  # d_phi
        F = curvature(conn, X, Y, Y)
        mid = (n - 1) // 2
        theta = header.axis_coords(0)[mid]
        K = F.samples[mid, mid, 2, 0] / np.sin(theta) ** 2
        assert abs(K - 1.0) < 1e-2

    def test_three_nodes_per_axis_suffice(self):
        header = GridHeader((3, 3, 3), 0.1, (0, 0, 0))
        F = curvature(ConnectionField.flat(header), const(header, (1, 0, 0)),
                      const(header, (0, 1, 0)), const(header, (0, 0, 1)))
        assert F.max_interior_norm() == 0.0
        with pytest.raises(GridTooSmall, match=">= 3 nodes"):
            ConnectionField.flat(GridHeader((3, 3, 2), 0.1, (0, 0, 0)))

    @pytest.mark.parametrize("seed", range(3))
    def test_each_field_differentiated_once(self, seed, monkeypatch):
        # oracle: F composed of the public derivatives, which differentiate
        # Z three times (7 partials for 5 distinct fields) and agree with
        # the closed form to O(h^2) at the nodes at depth 2 from every face
        errs = []
        for n, h in ((17, 0.05), (33, 0.025)):
            rng = np.random.default_rng(seed)
            header = GridHeader((n, n, n), h, (-0.4, -0.4, -0.4))
            X, Y, Z = (VectorFieldGrid(header, smooth_waves(header, rng, (3,)))
                       for _ in range(3))
            conn = ConnectionField(header,
                                   smooth_waves(header, rng, (3, 3, 3)))
            nyz = covariant_derivative(Y, Z, conn)
            nxz = covariant_derivative(X, Z, conn)
            expected = (covariant_derivative(X, nyz, conn).samples
                        - covariant_derivative(Y, nxz, conn).samples
                        - covariant_derivative(lie_bracket(X, Y), Z,
                                               conn).samples)
            with monkeypatch.context() as m:
                calls = []
                real = np.gradient
                m.setattr(np, "gradient", lambda f, *a, **k:
                          calls.append((f, k["axis"])) or real(f, *a, **k))
                F = curvature(conn, X, Y, Z).samples
            # the stencil is applied to Gamma alone, once per axis
            assert [(f is conn.gamma, axis) for f, axis in calls] == [
                (True, 0), (True, 1), (True, 2)]
            depth2 = (slice(2, -2),) * 3
            errs.append(np.abs(F - expected)[depth2].max())
            assert errs[-1] <= 2 * h * h
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    @staticmethod
    def flat_case():
        rng = np.random.default_rng(7)
        header = GridHeader((5, 6, 7), 0.2, tuple(rng.standard_normal(3)))
        probes = [VectorFieldGrid(header, rng.standard_normal(
            header.dims + (3,))) for _ in range(3)]
        return (ConnectionField.flat(header), probes,
                np.zeros(header.dims + (3,)), np.ones(header.dims, bool), 0.0)

    @staticmethod
    def quadratic_case():
        # Gamma = c0 + c1 p + p^T c2 p per symbol, which the stencils
        # differentiate exactly, with random X, Y and Z; the tensor is
        # sum_a (d_a Gamma)(X^a Y - Y^a X, Z) + Gamma(X, Gamma(Y, Z))
        # - Gamma(Y, Gamma(X, Z))
        rng = np.random.default_rng(8)
        header = GridHeader((5, 6, 7), 0.2, tuple(rng.standard_normal(3)))
        p = header.node_positions()
        c0, c1, c2 = (rng.standard_normal(s) for s in
                      ((3, 3, 3), (3, 3, 3, 3), (3, 3, 3, 3, 3)))
        gamma = (c0 + np.einsum("...a,akij->...kij", p, c1)
                 + np.einsum("...a,...b,abkij->...kij", p, p, c2))
        dgamma = c1 + np.einsum("...b,abkij->...akij", p,
                                c2 + np.swapaxes(c2, 0, 1))
        x, y, z = (rng.standard_normal(header.dims + (3,)) for _ in range(3))

        def christoffel(a, b):
            return np.einsum("...kij,...i,...j->...k", gamma, a, b)

        want = (np.einsum("...akij,...a,...i,...j->...k", dgamma, x, y, z)
                - np.einsum("...akij,...a,...i,...j->...k", dgamma, y, x, z)
                + christoffel(x, christoffel(y, z))
                - christoffel(y, christoffel(x, z)))
        probes = [VectorFieldGrid(header, v) for v in (x, y, z)]
        return (ConnectionField(header, gamma), probes, want,
                np.ones(header.dims, bool),
                1e-12 * np.linalg.norm(want, axis=-1).max())

    @staticmethod
    def sphere_case(n, h, bound):
        # the round sphere about the equator, on probes built from sin, cos
        # and exp of position: R(X, Y)Z = g(Y, Z) X - g(X, Z) Y on the
        # (theta, phi) components, g = diag(1, sin^2 theta), at the
        # interior nodes; each bound is the error this form was measured
        # to make at the nodes at depth 2 on such probes
        c = h * (n - 1) / 2
        header = GridHeader((n, n, n), h, (np.pi / 2 - c, -c, -c))
        probes = [VectorFieldGrid.from_function(header, fn) for fn in (
            lambda x, y, z: (np.sin(y + z), np.cos(x), np.exp(-z)),
            lambda x, y, z: (np.exp(y - x), np.sin(z), np.cos(y)),
            lambda x, y, z: (np.cos(x + y), np.exp(z) - 1, np.sin(x)))]
        x, y, z = (f.samples[..., :2] for f in probes)
        theta = header.node_positions()[..., 0]
        g = np.stack([np.ones_like(theta), np.sin(theta) ** 2], axis=-1)
        want = np.zeros(header.dims + (3,))
        want[..., :2] = ((g * y * z).sum(-1)[..., None] * x
                         - (g * x * z).sum(-1)[..., None] * y)
        return (sphere_connection(header), probes, want,
                INTERIOR, bound)

    @pytest.mark.parametrize("case", [
        lambda: TestCurvature.flat_case(),
        lambda: TestCurvature.quadratic_case(),
        lambda: TestCurvature.sphere_case(11, 0.05, 1.9e-4),
        lambda: TestCurvature.sphere_case(21, 0.05, 1.4e-3),
        lambda: TestCurvature.sphere_case(21, 0.025, 9.9e-5),
        lambda: TestCurvature.sphere_case(41, 0.0125, 3.3e-5),
    ], ids=["flat", "quadratic", "sphere-11-0.05", "sphere-21-0.05",
            "sphere-21-0.025", "sphere-41-0.0125"])
    def test_against_the_exact_tensor(self, case):
        conn, probes, want, nodes, bound = case()
        F = curvature(conn, *probes).samples
        assert np.linalg.norm(F - want, axis=-1)[nodes].max() <= bound


def smooth_small_gamma(header, eps):
    pos = header.node_positions()
    gamma = np.zeros(header.dims + (3, 3, 3))
    x, y, z = pos[..., 0], pos[..., 1], pos[..., 2]
    gamma[..., 0, 1, 2] = eps * np.sin(x)
    gamma[..., 1, 0, 2] = eps * (y * z)
    gamma[..., 2, 0, 1] = eps * np.cos(y)
    gamma[..., 2, 1, 1] = eps * x * y
    return gamma


class TestDualityResidual:
    def probes(self, header):
        return (VectorFieldGrid.constant(header, (1.0, 0, 0)),
                VectorFieldGrid.constant(header, (0, 1.0, 0)),
                VectorFieldGrid.constant(header, (0, 0, 1.0)))

    def test_flat_pair(self):
        header = small_header()
        flat = ConnectionField.flat(header)
        assert duality_residual(flat, flat, Involution(np.eye(3)),
                                self.probes(header)) == 0.0

    def test_constructed_dual_pair(self):
        # small Gamma: the negated point-reflection pullback has curvature
        # -iota*F up to the quadratic Gamma^2 terms
        header = small_header(h=0.1, n=9)
        g1 = smooth_small_gamma(header, eps=0.02)
        conn1 = ConnectionField(header, g1)
        m = -np.eye(3)
        pos = header.node_positions()
        idx = np.rint(((pos @ m.T) - header.origin) / header.spacing).astype(int)
        # (iota* Gamma)(p)^k_ij = m_ka Gamma^a_pq(iota p) m_pi m_qj; negate it
        g_at = g1[idx[..., 0], idx[..., 1], idx[..., 2]]
        g2 = -np.einsum("ka,...apq,pi,qj->...kij", m, g_at, m, m)
        conn2 = ConnectionField(header, g2)
        res = duality_residual(conn1, conn2, Involution(m),
                               self.probes(header))
        assert res <= 5e-3

    def test_reflection_of_an_off_centre_grid_leaves_it(self):
        # x -> -x carries a grid with its corner at the origin onto the
        # negative octant
        header = small_header(origin=0.0)
        flat = ConnectionField.flat(header)
        with pytest.raises(HeaderMismatch, match="outside the other grid"):
            duality_residual(flat, flat, Involution(-np.eye(3)),
                             self.probes(header))

    def test_rotation_off_the_lattice(self):
        # the half turn about (cos 30, sin 30, 0) moves nodes between nodes
        a = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6), 0.0])
        header = small_header()
        flat = ConnectionField.flat(header)
        with pytest.raises(HeaderMismatch, match="onto nodes"):
            duality_residual(flat, flat, Involution(2 * np.outer(a, a)
                                                    - np.eye(3)),
                             self.probes(header))

    def test_unrelated_pair(self):
        rng = np.random.default_rng(6)
        header = small_header()
        c1 = ConnectionField(header,
                             smooth_small_gamma(header, eps=1.0) + 0.3)
        c2 = ConnectionField(header,
                             rng.standard_normal(header.dims + (3, 3, 3)))
        res = duality_residual(c1, c2, Involution(np.eye(3)),
                               self.probes(header))
        assert res > 0.1


def octant_vertices():
    s = np.sqrt(0.5)
    return np.array([s, 0, s]), np.array([0, 1, 0]), np.array([s, 0, -s])


def arc_points(P, Q, num):
    t = np.linspace(0.0, np.pi / 2, num)
    pts = np.cos(t)[:, None] * P + np.sin(t)[:, None] * Q
    theta = np.arccos(np.clip(pts[:, 2], -1, 1))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return theta, phi


def octant_loop(num=600, dummy=0.0):
    A, B, C = octant_vertices()
    legs = []
    for P, Q in ((A, B), (B, C), (C, A)):
        theta, phi = arc_points(P, Q, num)
        legs.append(np.column_stack([theta, phi, np.full(num, dummy)]))
    loop = np.vstack([legs[0], legs[1][1:], legs[2][1:]])
    return loop


def sphere_transport_oracle(loop, v0, substeps=8):
    """Fine-step integrator with exact (non-interpolated) Christoffels."""
    def gamma_exact(theta):
        g = np.zeros((3, 3, 3))
        g[0, 1, 1] = -np.sin(theta) * np.cos(theta)
        g[1, 0, 1] = g[1, 1, 0] = 1.0 / np.tan(theta)
        return g

    v = np.asarray(v0, dtype=float).copy()
    for a, b in zip(loop[:-1], loop[1:]):
        seg = b - a
        for s in range(substeps):
            def rhs(p, vv):
                return -np.einsum("kij,i,j->k", gamma_exact(p[0]), seg, vv)
            dt = 1.0 / substeps
            t = s * dt
            p1 = a + t * seg
            p2 = a + (t + dt / 2) * seg
            p3 = a + (t + dt) * seg
            k1 = rhs(p1, v)
            k2 = rhs(p2, v + dt / 2 * k1)
            k3 = rhs(p2, v + dt / 2 * k2)
            k4 = rhs(p3, v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def metric_angle(v0, v1, theta):
    g = np.diag([1.0, np.sin(theta) ** 2, 1.0])
    cosang = (v0 @ g @ v1) / np.sqrt((v0 @ g @ v0) * (v1 @ g @ v1))
    return np.arccos(np.clip(cosang, -1, 1))


class TestParallelTransport:
    def test_flat_unchanged(self):
        header = small_header()
        conn = ConnectionField.flat(header)
        path = [(-0.2, -0.2, 0.0), (0.2, 0.1, 0.0), (0.0, 0.2, 0.1)]
        v = parallel_transport(conn, path, (1.0, 2.0, 3.0))
        np.testing.assert_allclose(v, [1, 2, 3], atol=1e-12)

    def test_flat_closed_loop_identity(self):
        header = small_header()
        conn = ConnectionField.flat(header)
        loop = [(0, 0, 0), (0.2, 0, 0), (0.2, 0.2, 0), (0, 0.2, 0), (0, 0, 0)]
        v = parallel_transport(conn, loop, (0.3, -1.0, 0.7))
        np.testing.assert_allclose(v, [0.3, -1.0, 0.7], atol=1e-12)

    def test_outside_grid(self):
        header = small_header()
        conn = ConnectionField.flat(header)
        with pytest.raises(PathOutsideGrid):
            parallel_transport(conn, [(0, 0, 0), (5, 0, 0)], (1, 0, 0))

    def test_repeated_vertex_adds_no_step(self):
        # a zero-length segment is skipped: a repeated vertex, first, inner
        # or last, gives bitwise the vector of the path without it
        header = GridHeader((5, 5, 3), 0.1, (0.8, 0.0, -0.1))
        conn = sphere_connection(header)
        path = [(0.9, 0.1, 0.0), (1.0, 0.25, 0.0), (1.1, 0.3, 0.05)]
        v0 = (0.7, 0.4, 0.0)
        v = parallel_transport(conn, path, v0)
        assert not np.array_equal(v, v0)
        for i in range(3):
            repeated = path[:i + 1] + path[i:]
            np.testing.assert_array_equal(
                parallel_transport(conn, repeated, v0), v)

    def test_octant_holonomy(self):
        h = 0.01
        margin = 0.06
        t0 = np.pi / 4 - margin
        nt = int(np.ceil((np.pi / 2 + 2 * margin) / h)) + 1
        p0 = -margin
        nph = int(np.ceil((np.pi / 2 + 2 * margin) / h)) + 1
        header = GridHeader((nt, nph, 3), h, (t0, p0, -h))
        conn = sphere_connection(header)
        loop = octant_loop(num=600)
        v0 = np.array([1.0, 0.0, 0.0])
        v1 = parallel_transport(conn, loop, v0)
        theta_start = loop[0, 0]
        angle = metric_angle(v0, v1, theta_start)
        assert abs(angle - np.pi / 2) < 1e-3
        oracle = sphere_transport_oracle(loop, v0)
        np.testing.assert_allclose(v1, oracle, atol=1e-3)

    def test_latitude_norm_preserved(self):
        h = 0.002
        theta0 = 1.0
        nphi = int(np.ceil(2 * np.pi / h)) + 3
        header = GridHeader((5, nphi, 3), h, (theta0 - 2 * h, -h, -h))
        conn = sphere_connection(header)
        phis = np.arange(0.0, 2 * np.pi + h, h)
        loop = np.column_stack([np.full_like(phis, theta0), phis,
                                np.zeros_like(phis)])
        v0 = np.array([0.7, 0.4, 0.0])
        v1 = parallel_transport(conn, loop, v0)
        g = np.diag([1.0, np.sin(theta0) ** 2, 1.0])
        n0 = np.sqrt(v0 @ g @ v0)
        n1 = np.sqrt(v1 @ g @ v1)
        path_len = 2 * np.pi * np.sin(theta0)
        assert abs(n1 - n0) <= 1e-6 * path_len


def taylor4(M):
    """I + M + M^2/2 + M^3/6 + M^4/24, one RK4 step of v' = (M / dt) v."""
    out, term = np.eye(3), np.eye(3)
    for k in range(1, 5):
        term = term @ M / k
        out = out + term
    return out


def reference_transport(conn, path, v0):
    """Point-by-point trilinear Gamma and RK4, one stage at a time."""
    h = conn.header
    dims = np.asarray(h.dims)

    def gamma_at(p):
        f = np.clip((p - h.origin) / h.spacing, 0.0, dims - 1)
        i0 = np.minimum(np.floor(f).astype(int), dims - 2)
        t = f - i0
        out = np.zeros((3, 3, 3))
        for corner in np.ndindex(2, 2, 2):
            w = np.prod([t[a] if d else 1 - t[a]
                         for a, d in enumerate(corner)])
            out += w * conn.gamma[tuple(i0 + corner)]
        return out

    pts = np.asarray(path, dtype=float)
    v = np.asarray(v0, dtype=float)
    for a, b in zip(pts[:-1], pts[1:]):
        seg = b - a
        n = max(1, int(np.ceil(np.linalg.norm(seg) / (h.spacing / 4))))
        dt = 1.0 / n
        for s in range(n):
            def rhs(t, vv):
                return -np.einsum("kij,i,j->k", gamma_at(a + t * seg), seg, vv)
            k1 = rhs(s * dt, v)
            k2 = rhs((s + 0.5) * dt, v + 0.5 * dt * k1)
            k3 = rhs((s + 0.5) * dt, v + 0.5 * dt * k2)
            k4 = rhs((s + 1) * dt, v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


class TestTransportPropagator:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pointwise_reference(self, seed):
        rng = np.random.default_rng(seed)
        header = GridHeader((7, 8, 9), 0.1, (-0.3, -0.35, -0.4))
        conn = ConnectionField(header,
                               rng.standard_normal(header.dims + (3, 3, 3)))
        lo = header.origin
        hi = lo + header.spacing * (np.asarray(header.dims) - 1)
        path = lo + rng.uniform(0, 1, (5, 3)) * (hi - lo)
        path[2] = hi  # a corner node of the grid
        v0 = rng.standard_normal(3)
        np.testing.assert_allclose(parallel_transport(conn, path, v0),
                                   reference_transport(conn, path, v0),
                                   rtol=0, atol=1e-12)

    def test_constant_gamma_is_taylor_power(self):
        # with Gamma constant, each RK4 step multiplies v by T4(-dt A),
        # A = Gamma(seg, .), so a segment of n steps is T4(-A / n)^n
        rng = np.random.default_rng(11)
        header = small_header()
        gamma = rng.standard_normal((3, 3, 3))
        conn = ConnectionField(
            header, np.broadcast_to(gamma, header.dims + (3, 3, 3)))
        path = np.array([(-0.25, -0.2, 0.1), (0.27, 0.05, -0.2),
                         (0.1, 0.1, 0.1)])
        v0 = np.array([0.3, -1.0, 0.7])
        expected = v0
        for a, b in zip(path[:-1], path[1:]):
            seg = b - a
            n = max(1, int(np.ceil(np.linalg.norm(seg) / (0.1 / 4))))
            A = np.einsum("kij,i->kj", gamma, seg)
            expected = np.linalg.matrix_power(taylor4(-A / n), n) @ expected
        np.testing.assert_allclose(parallel_transport(conn, path, v0),
                                   expected, rtol=0, atol=1e-12)

    def test_outside_grid_names_first_vertex(self):
        # the vertices are tested before any step: the refusal once named
        # the first stage point off the grid, (0.2, 0.3125, 0)
        conn = ConnectionField.flat(small_header())  # x, y, z in [-0.3, 0.3]
        with pytest.raises(PathOutsideGrid,
                           match=r"vertex \[0\.2 +0\.5 +0\. *\] outside"):
            parallel_transport(conn, [(0, 0, 0), (0.2, 0, 0), (0.2, 0.5, 0),
                                      (0.2, 0.9, 0)], (1, 0, 0))

    def test_long_segment_off_the_grid_allocates_nothing(self):
        # its 2n + 1 stage points once took 41 MiB before the first was
        # tested, n growing with the segment's length
        conn = ConnectionField.flat(GridHeader((5, 5, 5), 1.0, (0, 0, 0)))
        tracemalloc.start()
        try:
            with pytest.raises(PathOutsideGrid) as exc:
                parallel_transport(conn, [(1, 1, 1), (1e5, 1, 1)], (1, 0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert "vertex [1.e+05 " in str(exc.value)

    def test_vertex_past_float64_is_outside(self):
        # its segment's length once overflowed: a RuntimeWarning, then an
        # OverflowError from the step count
        conn = ConnectionField.flat(GridHeader((5, 5, 5), 1.0, (0, 0, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PathOutsideGrid, match="vertex"):
                parallel_transport(conn, [(1, 1, 1), (1e308, 1e308, 1)],
                                   (1, 0, 0))

    @pytest.mark.parametrize("k", [-700, -600, 520, 600])
    def test_power_of_two_rescaling_is_exact(self, k):
        # the path is walked in spacings, so scaling the grid and the path
        # by s = 2^k and Gamma by 1 / s gives the vector bitwise.  Measured
        # in world units, every segment's length once underflowed to 0 at
        # k <= -600 (v0 came back) and overflowed at k >= 520
        # (OverflowError from the step count)
        G = np.random.default_rng(5).standard_normal((5, 5, 5, 3, 3, 3))
        path = np.array([(0, 0, 0), (4, 3, 1), (1, 4, 4)], dtype=float)

        def transport(s):
            conn = ConnectionField(GridHeader((5, 5, 5), s, (0, 0, 0)), G / s)
            return parallel_transport(conn, path * s, (1.0, 0.0, 0.0))

        v = transport(1.0)
        assert not np.array_equal(v, [1, 0, 0])
        np.testing.assert_array_equal(transport(2.0**k), v)

    def test_segment_whose_square_overflows_transports(self):
        # a diagonal of the 3^3 grid of spacing 1e300: its world length once
        # overflowed, a RuntimeWarning and then an OverflowError
        conn = ConnectionField.flat(GridHeader((3, 3, 3), 1e300, (0, 0, 0)))
        v = parallel_transport(conn, [(0, 0, 0), (2e300, 2e300, 0)],
                               (1, 0, 0))
        np.testing.assert_array_equal(v, [1, 0, 0])


class TestIntegrabilityReport:
    def test_coordinate_foliation_integrable(self):
        header = small_header()
        rep = integrability_report(
            VectorFieldGrid.constant(header, (1, 0, 0)),
            VectorFieldGrid.constant(header, (0, 1, 0)),
            ConnectionField.flat(header), tol=1e-6)
        assert rep.integrable
        assert rep.interior_node_count == 5 ** 3

    def test_contact_not_integrable(self):
        header = GridHeader((5, 5, 5), 0.01, (-0.02, -0.02, -0.02))
        X = VectorFieldGrid.from_function(
            header, lambda x, y, z: (np.ones_like(x), np.zeros_like(x), y))
        Y = VectorFieldGrid.constant(header, (0, 1, 0))
        rep = integrability_report(X, Y, ConnectionField.flat(header),
                                   tol=1e-6)
        assert not rep.integrable
        assert abs(rep.max_frobenius_residual - 1.0) < 0.05

    def test_torsion_full_connection(self):
        header = small_header()
        c = 0.9
        gamma = np.zeros(header.dims + (3, 3, 3))
        gamma[..., 2, 0, 1] = c
        gamma[..., 2, 1, 0] = -c
        rep = integrability_report(
            VectorFieldGrid.constant(header, (1, 0, 0)),
            VectorFieldGrid.constant(header, (0, 1, 0)),
            ConnectionField(header, gamma), tol=1e-6)
        assert not rep.integrable
        assert rep.max_hantjies_norm == pytest.approx(2 * c, abs=1e-12)

    def test_default_tolerance(self):
        assert default_tolerance(0.0001) == 1e-6
        assert default_tolerance(0.1) == pytest.approx(0.1)
