"""First and second moments of clouds and their projections.

The moment map of an object with respect to a projection frame is the
mass-weighted centroid of its planar image; because projection is linear
it equals the projection of the 3-D centroid, which is how it is
computed and the linear constraint the direction solver consumes.
"""

from __future__ import annotations


import numpy as np

from .errors import ZeroMass
from .geometry import (PointCloud, Projected2D, ProjectionSpec, Record,
                       _as_array)


class MomentValue(Record):
    """Centroid (plane coordinates) plus the total mass it was taken over.

    Raises DimMismatch unless the centroid is a finite 2-vector and the
    total mass a finite number.
    """

    centroid: np.ndarray
    total_mass: float

    def __post_init__(self):
        object.__setattr__(self, "centroid",
                           _as_array(self.centroid, 2, "centroid"))
        object.__setattr__(self, "total_mass", float(
            _as_array(self.total_mass, (), "total mass")))


class SecondMoment3D(Record):
    """Central second-moment tensor of a cloud (symmetric PSD 3x3).

    Raises DimMismatch unless the matrix is a finite 3x3 array.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_array(
            self.matrix, (3, 3), "second-moment matrix"))

    def eigen(self):
        """Eigenvalues ascending and the matching unit eigenvectors."""
        vals, vecs = np.linalg.eigh(self.matrix)
        return vals, vecs


def centroid2d(img: Projected2D) -> MomentValue:
    """Mass-weighted mean position of a planar image."""
    total = float(img.weights.sum())
    if total <= 0:
        raise ZeroMass(f"total weight {total} is not positive")
    c = img.weights @ img.positions / total
    return MomentValue(c, total)


def centroid3d(cloud: PointCloud) -> np.ndarray:
    total = cloud.total_mass
    if total <= 0:
        raise ZeroMass(f"total weight {total} is not positive")
    return cloud.weights @ cloud.positions / total


def moment_map(cloud: PointCloud, spec: ProjectionSpec) -> MomentValue:
    """Centroid of the projection of a cloud.

    Projection is linear, so this is the projected 3-D centroid (u.c,
    w.c); translating the cloud by t shifts it by (t.u, t.w) exactly.
    """
    c = centroid3d(cloud)
    return MomentValue([spec.u @ c, spec.w @ c], cloud.total_mass)


def second_moment(cloud: PointCloud) -> SecondMoment3D:
    """Central second-moment tensor sum w (p-c)(p-c)^T / sum w."""
    c = centroid3d(cloud)
    d = cloud.positions - c
    m = (cloud.weights[:, None] * d).T @ d / cloud.total_mass
    m = 0.5 * (m + m.T)  # kill rounding asymmetry
    return SecondMoment3D(m)
