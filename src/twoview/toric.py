"""Rotational symmetry detection and symmetry-reduced direction solving.

A finite cyclic (or continuous) rotation group about an axis stands in
for the abstract symmetry group: candidate axes come from the second
moment of the cloud and invariance is checked by rotate-and-match, a
fixed-radius near-neighbour question that a numpy cell grid decides
exactly; scipy's k-d tree is loaded only to score rotations when none
matches.  The fixed subspace of the action has a closed-form orthonormal
basis, whose projector is the group average; the equivariant solver
restricts the constraint rows to it and shares the plain solver's core.
"""

from __future__ import annotations


import numpy as np

from . import moments, recon
from .errors import (
    AmbiguousDirection,
    DegenerateCloud,
    DimMismatch,
    Inconsistent,
    InputError,
)
from .geometry import (PointCloud, ProjectionSpec, Record, _RANK_TOL,
                       _as_array, _brief, _canonical_sign, _exponent,
                       _rank_above, _require_tol)

CONTINUOUS = "continuous"
_CELL_BLOCK = 2**18  # pairs per block of whole queries in the cell grid


class ToricReport(Record):
    axis: np.ndarray
    order: object  # int >= 2 or CONTINUOUS
    invariance_residual: float
    fixed_subspace_dim: int
    continuous: bool


def _unit_axis(axis) -> np.ndarray:
    """`axis` scaled to unit length; DimMismatch unless it is three finite
    numbers, not all zero.  The norm is taken after the exact power-of-two
    scaling of `geometry._exponent`, which brings the largest |component|
    into [0.5, 1), so axes near 1e200 or 1e-320 neither overflow nor
    vanish."""
    a = _as_array(axis, 3, "rotation axis, which must be finite and nonzero")
    if not np.any(a):
        raise DimMismatch(
            f"rotation axis must be finite and nonzero, got {a.tolist()}")
    a = np.ldexp(a, -_exponent(a))
    return a / np.linalg.norm(a)


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about the direction of `axis`.

    Raises DimMismatch unless the axis is three finite numbers, not all
    zero.
    """
    a = _unit_axis(axis)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def _distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distances between the broadcast rows of u and v, summed
    as (dx*dx + dy*dy) + dz*dz, the order scipy's dense distances and
    k-d tree use, so each is bitwise theirs."""
    d = u - v
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
                   + d[..., 2] * d[..., 2])


class _CellGrid:
    """Points bucketed in cubic cells of one side, sorted by cell key, for
    fixed-radius matching (Bentley, Stanat & Williams, 1977).

    With side >= 2 * radius, a point within `radius` of a query lies in
    the 3 x 3 x 3 cells around the query's cell: the two cell coordinates
    differ by at most radius / side <= 1/2 plus rounding far below the
    other half.  Query cells are clipped to one cell beyond the occupied
    range, which only adds cells to scan.  A side of at least
    diameter / 2**20 keeps the int64 keys below 2**61.
    """

    def __init__(self, pts: np.ndarray, side: float):
        self.lo, self.side = pts.min(axis=0), side
        cells = self._cells(pts)
        self.top = cells.max(axis=0) + 1  # one cell beyond the occupied
        self.base = int(self.top.max()) + 4  # shifted query neighbours < base
        keys = self._key(cells + 2)
        order = np.argsort(keys, kind="stable")
        self.keys, self.pts = keys[order], pts[order]

    def _cells(self, pts: np.ndarray) -> np.ndarray:
        return np.floor((pts - self.lo) / self.side)

    def _key(self, cells: np.ndarray) -> np.ndarray:
        c = cells.astype(np.int64)
        return (c[..., 0] * self.base + c[..., 1]) * self.base + c[..., 2]

    def residual_within(self, queries: np.ndarray, radius: float):
        """Max over the queries of the distance to their nearest point when
        every query has a point within `radius`, else None.

        The queries are sorted by cell key once.  Each pass takes the next
        `size` of them and counts every one's pairs before any distance:
        for each of the 3 x 3 neighbour columns the cells z - 1 .. z + 1
        are one run of keys, found by `np.searchsorted` on needles that
        stay sorted (keys are linear in the cell).  A query with no pair
        fails the scan.  The leading queries whose pairs fit in
        _CELL_BLOCK, at least one, are gathered flat and reduced to their
        nearest distances, and the scan stops at the first block with one
        beyond `radius`.  `size` starts at 256 and is then twice the
        queries last kept, up to _CELL_BLOCK / 9, so a candidate that
        fails almost everywhere costs one small block, no query is
        counted more than about twice, and memory stays linear in the
        points.
        """
        key = self._key(np.clip(self._cells(queries), -1, self.top) + 2)
        order = np.argsort(key)
        queries, key = queries[order], key[order]
        b = self.base
        cols = np.array([(dx * b + dy) * b for dx in (-1, 0, 1)
                         for dy in (-1, 0, 1)])[:, None]
        qstep = max(1, _CELL_BLOCK // 9)
        worst, a, size = 0.0, 0, min(256, qstep)
        while a < len(queries):
            mid = key[a:a + size] + cols
            start = np.searchsorted(self.keys, mid - 1, side="left").T
            count = np.searchsorted(self.keys, mid + 1, side="right").T - start
            pairs = count.sum(axis=1)
            if not pairs.all():
                return None  # nothing in any cell a partner could lie in
            end = np.cumsum(pairs)
            take = max(1, int(np.searchsorted(end, _CELL_BLOCK, "right")))
            start, count = start[:take].ravel(), count[:take].ravel()
            near = self.pts[np.arange(end[take - 1]) + np.repeat(
                start - np.cumsum(count) + count, count)]
            q = np.repeat(queries[a:a + take], pairs[:take], axis=0)
            best = np.minimum.reduceat(_distances(q, near),
                                       end[:take] - pairs[:take]).max()
            if best > radius:
                return None
            worst = max(worst, float(best))
            a, size = a + take, min(2 * take, qstep)
        return worst


def _require_orders(orders) -> list:
    """The candidate symmetry orders as ints; raises DimMismatch unless
    there is one or more and each is >= 2."""
    orders = [int(k) for k in orders]
    if not orders or any(k < 2 for k in orders):
        raise DimMismatch("symmetry orders must be one or more integers >= 2")
    return orders


def detect_axis(cloud: PointCloud, orders, tol: float = 1e-9) -> ToricReport:
    """Find the best rotational symmetry (axis, order) of a cloud.

    Candidate axes are the eigenvectors of the second-moment tensor; each
    is scored by rotating the cloud about the axis through its centroid by
    2 pi / k and nearest-neighbour matching against the original.  Among
    candidates whose residual passes tol the highest order wins (the
    finest symmetry); otherwise the overall minimum residual is reported.
    A repeated eigenvalue pair flags a continuous symmetry.  Raises
    DimMismatch when an order is below 2 or tol is NaN, negative or
    infinite, or when no order is given, and DegenerateCloud for fewer
    than 3 points or points collinear up to rounding: fewer than two
    singular values of the centred positions above _RANK_TOL times the
    largest, so a line's rounding is judged against its length.

    A candidate passes when every rotated point has a partner within
    max(tol, tol * 2R), R the largest distance of a point from the
    weighted centroid: 2R lies between the cloud's diameter D and 2D, and
    costs one pass over the points.  A `_CellGrid` at that radius answers
    this fixed-radius question exactly with numpy, and the residuals it
    reports are bitwise the nearest-neighbour ones.  Only when no
    candidate passes does the report need failing residuals: the
    one-sided nearest-neighbour displacement, max over the rotated points,
    from an exact (eps = 0) `scipy.spatial.cKDTree` query of the unrotated
    points, which returns the dense nearest-neighbour distances bitwise
    without the N x N matrix; InputError names that missing dependency
    when scipy.spatial cannot be imported.

    All of this runs once on the positions scaled by 2^-e, e their
    `_exponent`, which is exact: the radius is max(2^-e tol, tol 2R'), R'
    in scaled units, and each reported residual is scaled back.  So a
    cloud times a power of two keeps its order, axis bits and continuous
    flag, and its residual scales alone, to the last bit, wherever 2R is
    at least 1; below that the absolute floor tol decides, and a smaller
    copy of a cloud may match more orders.
    """
    orders = _require_orders(orders)
    _require_tol(tol)
    if len(cloud) < 3:
        raise DegenerateCloud("need at least 3 points")
    e = _exponent(cloud.positions)
    cloud = PointCloud(np.ldexp(cloud.positions, -e), cloud.weights)
    c = moments.centroid3d(cloud)
    centered = cloud.positions - c
    sm = moments.second_moment(cloud)
    evals, evecs = sm.eigen()
    svals = np.linalg.svd(centered, compute_uv=False)
    if _rank_above(svals, svals[0]) < 2:
        raise DegenerateCloud("points are collinear")
    scale = max(float(evals[-1]), 1e-300)
    span = 2 * float(np.max(_distances(centered, 0.0)))  # D <= span <= 2 D
    match_tol = max(np.ldexp(tol, -e), tol * span)
    # a repeated eigenvalue pair means the second moment cannot distinguish
    # rotations about the lone eigenvector: flag a (potential) continuous
    # symmetry; regular polygons carry the flag alongside a discrete order
    gaps = np.diff(evals)  # eigh's eigenvalues ascend
    continuous = bool(np.min(gaps) <= tol * scale)
    pair = int(np.argmin(gaps))
    lone = 2 if pair == 0 else 0
    cont_axis = _canonical_sign(evecs[:, lone])
    trials = [(tuple(_canonical_sign(evecs[:, ci])), k)
              for ci in range(3) for k in orders]

    def rotated(axis, k):
        return centered @ rotation_about(axis, 2 * np.pi / k).T

    grid = _CellGrid(centered, max(2 * match_tol, span * 2.0**-20))
    passing = []
    for axis, k in trials:
        res = grid.residual_within(rotated(axis, k), match_tol)
        if res is not None:
            passing.append((res, k, axis))
    if passing:
        # finest symmetry first, then smaller residual, then axis order
        res, k, axis = min(passing, key=lambda c_: (-c_[1], c_[0], c_[2]))
        return ToricReport(np.asarray(axis), k, float(np.ldexp(res, e)), 1,
                           continuous)
    try:
        from scipy.spatial import cKDTree
    except ImportError as exc:
        raise InputError(
            "no candidate rotation matches, and scoring the failing ones "
            f"needs scipy.spatial, which cannot be imported: {exc}") from exc

    tree = cKDTree(centered)
    candidates = [(float(tree.query(rotated(axis, k))[0].max()), k, axis)
                  for axis, k in trials]
    if continuous:
        # no discrete order matched but the moment is rotation-degenerate
        best = min(c_ for c_ in candidates if c_[2] == tuple(cont_axis))
        return ToricReport(np.asarray(cont_axis), CONTINUOUS,
                           float(np.ldexp(best[0], e)), 1, True)
    res, k, axis = min(candidates)
    return ToricReport(np.asarray(axis), k, float(np.ldexp(res, e)), 1, False)


def invariant_moment_check(cloud: PointCloud, spec: ProjectionSpec,
                           axis, order: int) -> float:
    """Max moment-map displacement over the rotation group about `axis`.

    The moment map is linear in the centroid c, so rotation m moves it by
    the projection of (R_m - I) c = sin θ a × c + (1 - cos θ) a × (a × c):
    zero for a cloud centered on the axis (through the origin), nonzero
    for off-axis mass.
    """
    a = _unit_axis(axis)
    ac = np.cross(a, moments.centroid3d(cloud))
    theta = 2 * np.pi * np.arange(1, int(order)) / order
    moved = (np.outer(np.sin(theta), ac)
             + np.outer(1 - np.cos(theta), np.cross(a, ac)))
    shift = moved @ np.column_stack([spec.u, spec.w])
    return float(np.linalg.norm(shift, axis=1).max(initial=0.0))


def _require_order(order: int) -> None:
    """Raise DimMismatch unless a rotation group's order is >= 2."""
    if int(order) < 2:
        raise DimMismatch(f"order must be >= 2, got {_brief(order)}")


def _fixed_basis(axis, order: int, dim: int) -> np.ndarray:
    """Orthonormal basis (dim x f) of the fixed subspace of k >= 2
    rotations: the unit axis a in dim 3, a ⊕ 0 and e4 in dim 4.  Raises
    DimMismatch for an order below 2, a zero or non-finite axis, or a dim
    other than 3 or 4."""
    _require_order(order)
    a = _unit_axis(axis)
    if dim == 3:
        return a[:, None]
    if dim == 4:
        return np.column_stack([np.append(a, 0.0), np.eye(4)[3]])
    raise DimMismatch(f"dim must be 3 or 4, got {_brief(dim)}")


def group_average(matrixlike_axis, order: int, dim: int = 3) -> np.ndarray:
    """Averaging projector (1/k) sum of the k rotations about the axis.

    Each rotation is a aᵀ + cos θ (I - a aᵀ) + sin θ K, and the cosines
    and sines of the k-th roots of unity sum to zero, so the average is
    B Bᵀ for the fixed-subspace basis B of `_fixed_basis`.
    """
    B = _fixed_basis(matrixlike_axis, order, dim)
    return B @ B.T


def solve_direction_equivariant(constraints, axis, order: int,
                                dim: int = 3) -> recon.DirectionSolution:
    """Direction solve reduced to the fixed subspace of the rotation group.

    Every row is restricted to the fixed subspace, the axis (f = 1) in
    dim 3 and the axis plus the fourth coordinate (f = 2) in dim 4, which
    is what averaging it over the group does; rows vanishing there are
    dropped and the rest go through `solve_direction`'s validator and SVD
    core, so the residual is |A x - b| at the least-squares solution.  A
    row vanishes when its restriction is at most _RANK_TOL times its norm,
    both taken after scaling the row by its own power of two
    (`_exponent`), so scaling A and b by a power of two leaves v bitwise
    as it was and scales the residual alone.
    Raises AmbiguousDirection, carrying f, when the reduced solution
    space is not one-dimensional, with nullity 0 when it holds only zero.
    """
    A, b = recon._stack_constraints(constraints, dim)
    B = _fixed_basis(axis, order, dim)
    f = B.shape[1]
    reduced = A @ B
    unit = np.ldexp(A, -_exponent(A, 1))
    keep = (np.linalg.norm(unit @ B, axis=1)
            > _RANK_TOL * np.linalg.norm(unit, axis=1))
    if not keep.any():
        if f == 1 and not b.any():
            return recon.DirectionSolution(_canonical_sign(B[:, 0]), 1, 0.0)
        raise AmbiguousDirection(
            f"all constraints vanish on the {f}-dimensional fixed subspace",
            nullity=f, fixed_subspace_dim=f)
    try:
        sol = recon._direction_core(reduced[keep], b[keep])
    except (AmbiguousDirection, Inconsistent) as exc:
        raise AmbiguousDirection(str(exc), nullity=getattr(exc, "nullity", 0),
                                 fixed_subspace_dim=f) from exc
    v = B @ sol.v
    v = _canonical_sign(v / np.linalg.norm(v))
    return recon.DirectionSolution(v, sol.nullity, sol.residual)
