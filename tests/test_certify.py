import numpy as np
import pytest

from twoview.certify import (
    certificate,
    check_transversality,
    trivialization,
)
from twoview.diffgeo import ConnectionField, GridHeader, VectorFieldGrid
from twoview.errors import ZeroMass
from twoview.geometry import PointCloud, coordinate_spec
from twoview.moments import centroid3d
from twoview.recon import triangulate
from conftest import (
    random_cloud,
    random_noncoaxial_pair,
    random_spec,
    tilted_spec,
)

XY = coordinate_spec(2)
YZ = coordinate_spec(0)


class TestCheckTransversality:
    def test_orthogonal_planes(self):
        chk = check_transversality(XY, YZ)
        assert chk.transversal
        assert chk.cross_norm == pytest.approx(1.0, abs=1e-12)

    def test_coaxial(self):
        chk = check_transversality(XY, XY)
        assert not chk.transversal
        assert chk.cross_norm == pytest.approx(0.0, abs=1e-12)

    def test_thirty_degrees(self):
        # the margin is |n1 x n2| = 0.5, not the smallest singular value
        # of D, sqrt(1 - cos 30) = 0.366, so tol 0.4 passes and 0.6 fails
        theta = np.pi / 6
        chk = check_transversality(XY, tilted_spec(theta), 0.4)
        assert chk.cross_norm == pytest.approx(np.sin(theta), abs=1e-12)
        assert chk.transversal
        assert not check_transversality(XY, tilted_spec(theta),
                                        0.6).transversal

    def test_sigma_cross_relation(self, rng):
        # D = [u1; w1; u2; w2] has singular values sqrt(2), sqrt(1 + |c|)
        # and sqrt(1 - |c|) with c = n1 . n2, so it loses rank exactly when
        # |n1 x n2| vanishes
        for _ in range(20):
            s1, s2 = random_spec(rng), random_spec(rng)
            c = abs(s1.n @ s2.n)
            D = np.vstack([s1.u, s1.w, s2.u, s2.w])
            np.testing.assert_allclose(np.linalg.svd(D, compute_uv=False),
                                       np.sqrt([2, 1 + c, 1 - c]), atol=1e-12)

    def test_sigma_min_closed_form(self, rng):
        # the margin lies between D's smallest singular value and sqrt(2)
        # times it
        for _ in range(20):
            s1, s2 = random_spec(rng), random_spec(rng)
            sigma_min = np.sqrt(1 - abs(s1.n @ s2.n))
            cn = check_transversality(s1, s2).cross_norm
            assert sigma_min - 1e-12 <= cn <= np.sqrt(2) * sigma_min + 1e-12

    def test_monotone_in_angle(self):
        margins = [check_transversality(XY, tilted_spec(t)).cross_norm
                   for t in np.linspace(0.05, np.pi / 2, 12)]
        assert all(b > a for a, b in zip(margins, margins[1:]))

    def test_zero_mass(self):
        # the margin needs no cloud; the mass check lives in certificate()
        header = GridHeader((5, 5, 5), 0.01, (-0.02, -0.02, -0.02))
        X, Y = integrable_fields(header)
        with pytest.raises(ZeroMass):
            certificate(XY, YZ, PointCloud([[1, 1, 1]], [0.0]), X, Y,
                        ConnectionField.flat(header))


def integrable_fields(header):
    return (VectorFieldGrid.constant(header, (1, 0, 0)),
            VectorFieldGrid.constant(header, (0, 1, 0)))


def contact_fields(header):
    X = VectorFieldGrid.from_function(
        header, lambda x, y, z: (np.ones_like(x), np.zeros_like(x), y))
    Y = VectorFieldGrid.constant(header, (0, 1, 0))
    return X, Y


class TestCertificate:
    header = GridHeader((5, 5, 5), 0.01, (-0.02, -0.02, -0.02))

    def build(self, spec2, fields):
        cloud = PointCloud([[0, 0, 0], [1, 1, 1]], [1.0, 1.0])
        X, Y = fields(self.header)
        return certificate(XY, spec2, cloud, X, Y,
                           ConnectionField.flat(self.header))

    def test_both_pass(self):
        cert = self.build(YZ, integrable_fields)
        assert cert.unique
        assert cert.transversality.transversal
        assert cert.integrability.integrable

    def test_transversal_only(self):
        cert = self.build(YZ, contact_fields)
        assert not cert.unique
        assert cert.transversality.transversal
        assert not cert.integrability.integrable

    def test_integrable_only(self):
        cert = self.build(XY, integrable_fields)
        assert not cert.unique
        assert not cert.transversality.transversal
        assert cert.integrability.integrable

    def test_neither(self):
        cert = self.build(XY, contact_fields)
        assert not cert.unique

    def test_to_dict_round_trip(self):
        import json
        cert = self.build(YZ, integrable_fields)
        d = json.loads(json.dumps(cert.to_dict()))
        assert d["unique"] is True
        assert d["transversality"]["pass"] is True
        assert d["integrability"]["pass"] is True
        assert d["tolerances"]["transversal"] == 1e-9


class TestTrivialization:
    def test_translation_equivariance(self, rng):
        cloud = random_cloud(rng, 15)
        s1, s2 = random_noncoaxial_pair(rng)
        t = rng.standard_normal(3)
        a = trivialization(cloud, s1, s2)
        b = trivialization(cloud.translated(t), s1, s2)
        np.testing.assert_allclose(b.mu1 - a.mu1, [t @ s1.u, t @ s1.w],
                                   atol=1e-12)
        np.testing.assert_allclose(b.mu2 - a.mu2, [t @ s2.u, t @ s2.w],
                                   atol=1e-12)

    def test_coords_determine_centroid(self, rng):
        # injectivity on translations: the coordinate pair pins down the
        # 3-D centroid whenever the views are transversal
        for _ in range(10):
            cloud = random_cloud(rng, 8)
            s1, s2 = random_noncoaxial_pair(rng, min_cross=0.2)
            coords = trivialization(cloud, s1, s2)
            rec = triangulate(coords.mu1, coords.mu2, s1, s2)
            np.testing.assert_allclose(rec, centroid3d(cloud), atol=1e-9)
