"""Uniqueness certificate for two-view reconstruction.

A reconstruction is certified unique exactly when (a) the moment-map
differentials of the two projections are jointly full rank on the
translation directions, with margin |n1 x n2| above tolerance, and (b)
the sampled distribution is integrable (both obstruction diagnostics
below tolerance).  The certificate is the conjunction of the two checks
and never claims uniqueness when either fails.  Check (a) depends on the
frames alone, so `geometry` owns its record (`check_transversality`,
re-exported here) beside the one margin every other transversality gate
reads, and a pair that triangulates at a tolerance also passes (a) at it.
"""

from __future__ import annotations


import numpy as np

from . import diffgeo, moments
from .errors import ZeroMass
from .geometry import (
    PointCloud,
    ProjectionSpec,
    Record,
    TransversalityCheck,
    _as_array,
    _require_tol,
    check_transversality,
)


class Certificate(Record):
    transversality: TransversalityCheck
    integrability: diffgeo.IntegrabilityReport
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


class TrivializationCoords(Record):
    """The coordinate pair (mu1, mu2) of an object.

    Raises DimMismatch unless each is a finite 2-vector.
    """

    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu1", _as_array(self.mu1, 2, "mu1"))
        object.__setattr__(self, "mu2", _as_array(self.mu2, 2, "mu2"))


def certificate(spec1: ProjectionSpec, spec2: ProjectionSpec,
                cloud: PointCloud, X: diffgeo.VectorFieldGrid,
                Y: diffgeo.VectorFieldGrid, conn: diffgeo.ConnectionField,
                tol_transversal: float = 1e-9,
                tol_integrability: float | None = None) -> Certificate:
    """Conjunction of transversality and integrability into a verdict.

    Raises ZeroMass when the cloud has no positive mass.
    """
    if cloud.total_mass <= 0:
        raise ZeroMass("certificate requires a positive-mass cloud")
    trans = check_transversality(spec1, spec2, tol_transversal)
    integ = diffgeo.integrability_report(X, Y, conn, tol_integrability)
    return Certificate(
        transversality=trans,
        integrability=integ,
        unique=bool(trans.transversal and integ.integrable),
        tol_transversal=_require_tol(tol_transversal),
        tol_integrability=float(integ.tolerance),
    )


def trivialization(cloud: PointCloud, spec1: ProjectionSpec,
                   spec2: ProjectionSpec) -> TrivializationCoords:
    """Coordinates (mu1, mu2); translating the cloud by t maps them by the
    two planar projections of t exactly."""
    return TrivializationCoords(
        moments.moment_map(cloud, spec1).centroid,
        moments.moment_map(cloud, spec2).centroid,
    )
