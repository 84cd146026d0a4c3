import numpy as np
import pytest

from twoview.diffgeo import ConnectionField, GridHeader, VectorFieldGrid
from twoview.geometry import PointCloud, ProjectionSpec


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation matrix via QR with sign fix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_spec(rng) -> ProjectionSpec:
    q = random_rotation(rng)
    return ProjectionSpec(q[:, 0], q[:, 1], q[:, 2])


def tilted_spec(theta):
    """XY-plane frame rotated about e1 by theta (normal tilts by theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return ProjectionSpec([1, 0, 0], [0, c, s], [0, -s, c])


def rotated_about_z(spec, theta):
    """`spec` with all three frame vectors turned by theta about e3."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return ProjectionSpec(R @ spec.u, R @ spec.w, R @ spec.n)


def random_noncoaxial_pair(rng, min_cross=0.05):
    while True:
        s1, s2 = random_spec(rng), random_spec(rng)
        if np.linalg.norm(np.cross(s1.n, s2.n)) > min_cross:
            return s1, s2


def random_cloud(rng, n, scale=1.0) -> PointCloud:
    return PointCloud(scale * rng.standard_normal((n, 3)),
                      rng.uniform(0.5, 2.0, n))


def sphere_connection(header: GridHeader) -> ConnectionField:
    """Levi-Civita Christoffels of the unit round metric in (theta, phi)
    coordinates on axes (0, 1); axis 2 is a flat dummy direction."""
    theta = header.axis_coords(0)
    gamma = np.zeros(header.dims + (3, 3, 3))
    sin = np.sin(theta)[:, None, None]
    cos = np.cos(theta)[:, None, None]
    gamma[..., 0, 1, 1] = -sin * cos
    gamma[..., 1, 0, 1] = cos / sin
    gamma[..., 1, 1, 0] = cos / sin
    return ConnectionField(header, gamma)


def smooth_waves(header: GridHeader, rng, tail: tuple) -> np.ndarray:
    """Per-node samples shaped header.dims + tail, each entry a wave
    a sin(w . p + phi) of position p with its own random a, w and phi."""
    pos = header.node_positions()
    pos = pos[(...,) + (None,) * len(tail) + (slice(None),)]
    w = rng.uniform(-2.0, 2.0, tail + (3,))
    phase = rng.uniform(0.0, 2 * np.pi, tail)
    return rng.uniform(-1.0, 1.0, tail) * np.sin((pos * w).sum(-1) + phase)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
