"""Uniqueness certificate for two-view reconstruction.

A reconstruction is certified unique exactly when (a) the moment-map
differentials of the two projections are jointly full rank on the
translation directions, and (b) the sampled distribution is integrable
(both obstruction diagnostics below tolerance).  The certificate is the
conjunction of the two checks and never claims uniqueness when either
fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffgeo import (
    ConnectionField,
    IntegrabilityReport,
    VectorFieldGrid,
    integrability_report,
)
from .errors import ZeroMass
from .geometry import PointCloud, ProjectionSpec, _cross_norm
from .moments import moment_map


@dataclass(frozen=True)
class TransversalityCheck:
    """Smallest singular value of the stacked moment differentials, which
    decides `transversal`, plus |n1 x n2| for reference."""

    sigma_min: float
    cross_norm: float
    transversal: bool

    def to_dict(self) -> dict:
        return {"sigma_min": self.sigma_min, "cross_norm": self.cross_norm,
                "pass": self.transversal}


@dataclass(frozen=True)
class Certificate:
    transversality: TransversalityCheck
    integrability: IntegrabilityReport
    unique: bool
    tol_transversal: float
    tol_integrability: float

    def to_dict(self) -> dict:
        return {
            "transversality": self.transversality.to_dict(),
            "integrability": {
                "max_hantjies_norm": self.integrability.max_hantjies_norm,
                "max_frobenius_residual":
                    self.integrability.max_frobenius_residual,
                "pass": self.integrability.integrable,
            },
            "unique": self.unique,
            "tolerances": {
                "transversal": self.tol_transversal,
                "integrability": self.tol_integrability,
            },
        }


@dataclass(frozen=True)
class TrivializationCoords:
    """The coordinate pair (mu1, mu2) of an object."""

    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu1",
                           np.asarray(self.mu1, dtype=float).reshape(2))
        object.__setattr__(self, "mu2",
                           np.asarray(self.mu2, dtype=float).reshape(2))


def check_transversality(spec1: ProjectionSpec, spec2: ProjectionSpec,
                         tol: float = 1e-9) -> TransversalityCheck:
    """Joint rank of the two moment-map differentials under translations.

    Translating the object by t moves the moment pair by
    (t.u1, t.w1, t.u2, t.w2); the 4x3 matrix of those covectors has full
    rank iff the viewing directions are non-coaxial, and its smallest
    singular value is the reported margin, transversal when > tol.  That
    margin is sqrt(1 - |n1 . n2|), not |n1 x n2|: the two vanish together
    but differ elsewhere (0.366 vs 0.5 at 30 degrees).  |n1 x n2| is
    returned alongside it.  The margin depends on the frames alone.
    """
    D = np.vstack([spec1.u, spec1.w, spec2.u, spec2.w])
    svals = np.linalg.svd(D, compute_uv=False)
    sigma_min = float(svals[-1])
    return TransversalityCheck(sigma_min, _cross_norm(spec1, spec2),
                               sigma_min > tol)


def certificate(spec1: ProjectionSpec, spec2: ProjectionSpec,
                cloud: PointCloud, X: VectorFieldGrid, Y: VectorFieldGrid,
                conn: ConnectionField, tol_transversal: float = 1e-9,
                tol_integrability: float | None = None) -> Certificate:
    """Conjunction of transversality and integrability into a verdict.

    Raises ZeroMass when the cloud has no positive mass.
    """
    if cloud.total_mass <= 0:
        raise ZeroMass("certificate requires a positive-mass cloud")
    trans = check_transversality(spec1, spec2, tol_transversal)
    integ = integrability_report(X, Y, conn, tol_integrability)
    return Certificate(
        transversality=trans,
        integrability=integ,
        unique=bool(trans.transversal and integ.integrable),
        tol_transversal=float(tol_transversal),
        tol_integrability=float(integ.tolerance),
    )


def trivialization(cloud: PointCloud, spec1: ProjectionSpec,
                   spec2: ProjectionSpec) -> TrivializationCoords:
    """Coordinates (mu1, mu2); translating the cloud by t maps them by the
    two planar projections of t exactly."""
    return TrivializationCoords(
        moment_map(cloud, spec1).centroid,
        moment_map(cloud, spec2).centroid,
    )
