"""Rotational symmetry detection and symmetry-reduced direction solving.

A finite cyclic (or continuous) rotation group about an axis stands in
for the abstract symmetry group: candidate axes come from the second
moment of the cloud, invariance is checked by rotate-and-match, and the
equivariant solver averages constraint rows over the group, which
projects the problem onto the fixed subspace of the action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    AmbiguousDirection,
    DegenerateCloud,
    DimMismatch,
    Inconsistent,
)
from .geometry import PointCloud, ProjectionSpec
from .moments import centroid3d, moment_map, second_moment
from .recon import DirectionSolution, _canonical_sign, _direction_core

CONTINUOUS = "continuous"


@dataclass(frozen=True)
class ToricReport:
    axis: np.ndarray
    order: object  # int >= 2 or CONTINUOUS
    invariance_residual: float
    fixed_subspace_dim: int
    continuous: bool


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    a = np.asarray(axis, dtype=float).reshape(3)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def _matching_residual(points: np.ndarray, rotated: np.ndarray) -> float:
    """One-sided nearest-neighbour displacement, max over rotated points."""
    d = cdist(rotated, points)
    return float(d.min(axis=1).max())


def detect_axis(cloud: PointCloud, orders, tol: float = 1e-8) -> ToricReport:
    """Find the best rotational symmetry (axis, order) of a cloud.

    Candidate axes are the eigenvectors of the second-moment tensor; each
    is scored by rotating the cloud about the axis through its centroid by
    2 pi / k and nearest-neighbour matching against the original.  Among
    candidates whose residual passes tol the highest order wins (the
    finest symmetry); otherwise the overall minimum residual is reported.
    A repeated eigenvalue pair flags a continuous symmetry.
    """
    orders = [int(k) for k in orders]
    if any(k < 2 for k in orders):
        raise DimMismatch("symmetry orders must be >= 2")
    pts = cloud.positions
    if len(cloud) < 3:
        raise DegenerateCloud("need at least 3 points")
    c = centroid3d(cloud)
    centered = pts - c
    sm = second_moment(cloud)
    evals, evecs = sm.eigen()
    span = np.linalg.matrix_rank(centered, tol=1e-10)
    if span < 2:
        raise DegenerateCloud("points are collinear")
    scale = max(float(evals[-1]), 1e-300)
    diam = float(np.max(cdist(pts, pts)))
    match_tol = max(tol, tol * diam)
    # a repeated eigenvalue pair means the second moment cannot distinguish
    # rotations about the lone eigenvector: flag a (potential) continuous
    # symmetry; regular polygons carry the flag alongside a discrete order
    order_s = np.argsort(evals)
    gaps = np.abs(np.diff(evals[order_s]))
    continuous = bool(np.min(gaps) <= tol * scale)
    pair = int(np.argmin(gaps))
    lone = order_s[2] if pair == 0 else order_s[0]
    cont_axis = _canonical_sign(evecs[:, lone])
    candidates = []
    for ci in range(3):
        axis = _canonical_sign(evecs[:, ci])
        for k in orders:
            R = rotation_about(axis, 2 * np.pi / k)
            rotated = centered @ R.T
            res = _matching_residual(centered, rotated)
            candidates.append((res, k, tuple(axis)))
    passing = [c_ for c_ in candidates if c_[0] <= match_tol]
    if passing:
        # finest symmetry first, then smaller residual, then axis order
        res, k, axis = min(passing, key=lambda c_: (-c_[1], c_[0], c_[2]))
        return ToricReport(np.asarray(axis), k, res, 1, continuous)
    if continuous:
        # no discrete order matched but the moment is rotation-degenerate
        best = min(c_ for c_ in candidates if c_[2] == tuple(cont_axis))
        return ToricReport(np.asarray(cont_axis), CONTINUOUS, best[0], 1,
                           True)
    res, k, axis = min(candidates)
    return ToricReport(np.asarray(axis), k, res, 1, False)


def invariant_moment_check(cloud: PointCloud, spec: ProjectionSpec,
                           axis, order: int) -> float:
    """Max moment-map displacement over the rotation group about `axis`.

    Rotations act linearly (axis through the origin), so a symmetric
    cloud centered on the axis scores zero while off-axis mass shows up
    as a nonzero displacement.
    """
    base = moment_map(cloud, spec).centroid
    worst = 0.0
    for m in range(1, int(order)):
        R = rotation_about(axis, 2 * np.pi * m / order)
        moved = PointCloud(cloud.positions @ R.T, cloud.weights)
        worst = max(worst, float(np.linalg.norm(
            moment_map(moved, spec).centroid - base)))
    return worst


def group_average(matrixlike_axis, order: int, dim: int = 3) -> np.ndarray:
    """Averaging projector (1/k) sum of rotations about the axis.

    For dim 4 the rotation acts on the first three coordinates and fixes
    the fourth.  The result projects onto the trivial weight space.
    """
    k = int(order)
    if k < 2:
        raise DimMismatch("order must be >= 2")
    P3 = np.zeros((3, 3))
    for m in range(k):
        P3 += rotation_about(matrixlike_axis, 2 * np.pi * m / k)
    P3 /= k
    if dim == 3:
        return P3
    if dim == 4:
        P = np.eye(4)
        P[:3, :3] = P3
        return P
    raise DimMismatch(f"dim must be 3 or 4, got {dim}")


def solve_direction_equivariant(constraints, axis, order: int,
                                dim: int = 3) -> DirectionSolution:
    """Direction solve reduced to the fixed subspace of the rotation group.

    Each constraint row is averaged over the group (covectors pull back
    through the rotations) and the solve runs inside the fixed subspace,
    so a one-dimensional fixed space yields the axis up to sign.  For any
    order >= 2 that subspace is the axis (f = 1) in dim 3 and the axis
    plus the fourth coordinate (f = 2) in dim 4.  The reduced rows go
    through `solve_direction`'s SVD core, so the residual is |A x - b| at
    the least-squares solution.  Raises AmbiguousDirection, carrying the
    fixed-subspace dimension, when the reduced solution space is not
    one-dimensional, with nullity 0 when it holds only the zero vector.
    """
    rows = list(constraints)
    if not rows:
        raise DimMismatch("need at least one constraint")
    P = group_average(axis, order, dim)
    # orthonormal basis of the fixed subspace (eigenvalue-1 space of P)
    evals, evecs = np.linalg.eigh(0.5 * (P + P.T))
    keep = evals > 1.0 - 1e-9
    B = evecs[:, keep]  # (dim, f)
    f = B.shape[1]
    reduced = []
    homogeneous = True
    for r in rows:
        if r.omega.shape[0] != dim:
            raise DimMismatch(f"omega length {r.omega.shape[0]} != dim {dim}")
        red = (r.omega @ P) @ B
        if r.rhs != 0.0:
            homogeneous = False
        if np.linalg.norm(red) > 1e-12:
            reduced.append((red, r.rhs))
    if not reduced:
        if f == 1 and homogeneous:
            return DirectionSolution(_canonical_sign(B[:, 0]), 1, 0.0)
        raise AmbiguousDirection(
            f"all constraints vanish on the {f}-dimensional fixed subspace",
            nullity=f, fixed_subspace_dim=f)
    A = np.array([o for o, _ in reduced])
    b = np.array([rhs for _, rhs in reduced])
    try:
        sol = _direction_core(A, b)
    except AmbiguousDirection as exc:
        raise AmbiguousDirection(str(exc), nullity=exc.nullity,
                                 fixed_subspace_dim=f) from exc
    except Inconsistent as exc:
        raise AmbiguousDirection(str(exc), nullity=0,
                                 fixed_subspace_dim=f) from exc
    v = B @ sol.v
    v = _canonical_sign(v / np.linalg.norm(v))
    return DirectionSolution(v, sol.nullity, sol.residual)
