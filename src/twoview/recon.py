"""Reconstruction solvers.

Two-view point recovery intersects back-projection rays, which for fixed
frames is one 3x4 linear map from the stacked observations; the direction
solver extracts the one-dimensional solution of a homogeneous constraint
system; the discrete tomographic path assembles one linear equation per
observed ray and inverts it with a conjugate-direction least-squares
iteration; the noise study measures how planar noise amplifies through
triangulation against the 1/|n1 x n2| geometric bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    AmbiguousDirection,
    DimMismatch,
    Inconsistent,
    LengthMismatch,
    NotConverged,
)
from .geometry import (
    PointCloud,
    Projected2D,
    ProjectionSpec,
    Sinogram,
    VoxelGrid,
    pixel_center_coords,
    project_points,
    projection_operator,
    _cross_norm,
)

_RANK_TOL = 1e-10  # relative pivot/singular-value threshold


@dataclass(frozen=True)
class ConstraintRow:
    """One linear constraint omega . v = rhs on the direction v."""

    omega: np.ndarray
    rhs: float = 0.0

    def __post_init__(self):
        o = np.asarray(self.omega, dtype=float).reshape(-1)
        if o.shape[0] not in (3, 4):
            raise DimMismatch(f"omega must have 3 or 4 components, got {o.shape[0]}")
        if np.linalg.norm(o) <= 1e-12:
            raise DimMismatch("omega is identically zero")
        object.__setattr__(self, "omega", o)
        object.__setattr__(self, "rhs", float(self.rhs))


@dataclass(frozen=True)
class DirectionSolution:
    """Unit representative of a direction modulo scaling."""

    v: np.ndarray
    nullity: int
    residual: float


@dataclass(frozen=True)
class RadonSystem:
    """Sparse ray/voxel incidence system A x = b.

    rows[r, voxel] is the intersection length of ray r with that voxel;
    b stacks the observed sinogram values.
    """

    rows: sp.csr_matrix
    rhs: np.ndarray
    rank: int
    determined: bool
    grid_dims: tuple
    spacing: float


@dataclass(frozen=True)
class NoiseReport:
    sigma: float
    trials: int
    rmse_mean: float
    rmse_std: float
    predicted_bound: float
    slope: float
    seed: int


# ---------------------------------------------------------------------------
# two-view point recovery


def _triangulation_map(spec1: ProjectionSpec, spec2: ProjectionSpec,
                       tol: float) -> np.ndarray:
    """The 3x4 matrix M with midpoint(o1, o2) = M @ (o1, o2).

    Observation o_i lies on the ray b_i + t n_i with b_i = [u_i w_i] o_i.
    The closest-point parameters t1, t2 are linear in d = b2 - b1, so the
    midpoint of the common perpendicular is 1/2 (b1 + b2) + K d with
    K = (n1 (n1 - c n2)^T + n2 (c n1 - n2)^T) / (2 |n1 x n2|^2), c = n1.n2.
    Raises NonTransverse when |n1 x n2| <= tol.
    """
    s = _cross_norm(spec1, spec2, tol)
    n1, n2 = spec1.n, spec2.n
    c = float(n1 @ n2)
    K = (np.outer(n1, n1 - c * n2) + np.outer(n2, c * n1 - n2)) / (2 * s * s)
    half = 0.5 * np.eye(3)
    B1 = np.column_stack([spec1.u, spec1.w])
    B2 = np.column_stack([spec2.u, spec2.w])
    return np.hstack([(half - K) @ B1, (half + K) @ B2])


def triangulate(obs1, obs2, spec1: ProjectionSpec, spec2: ProjectionSpec,
                tol: float = 1e-9) -> np.ndarray:
    """Least-squares intersection of two back-projection rays.

    Returns the midpoint of the common perpendicular segment, which is the
    exact intersection whenever the rays meet.  For fixed frames this is
    one 3x4 linear map applied to (obs1, obs2); `reconstruct_cloud` applies
    the same map to every point at once.

    Raises NonTransverse when the viewing directions are coaxial within
    tol (|n1 x n2| <= tol).
    """
    o1 = np.asarray(obs1, dtype=float).reshape(2)
    o2 = np.asarray(obs2, dtype=float).reshape(2)
    return _triangulation_map(spec1, spec2, tol) @ np.concatenate([o1, o2])


def reconstruct_cloud(img1: Projected2D, img2: Projected2D,
                      spec1: ProjectionSpec, spec2: ProjectionSpec,
                      tol: float = 1e-9) -> PointCloud:
    """Index-wise triangulation of two corresponding images.

    Every point goes through the same 3x4 triangulation map as
    `triangulate`, applied to all stacked observations in one product.
    Weights are taken from the first image.  Raises LengthMismatch when
    the images disagree in length and NonTransverse for coaxial frames.
    """
    if len(img1) != len(img2):
        raise LengthMismatch(f"{len(img1)} vs {len(img2)} observations")
    M = _triangulation_map(spec1, spec2, tol)
    obs = np.hstack([img1.positions, img2.positions])
    return PointCloud(obs @ M.T, img1.weights.copy())


# ---------------------------------------------------------------------------
# direction solver


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def solve_direction(constraints, dim: int) -> DirectionSolution:
    """Solve a stack of linear constraints for a direction modulo scaling.

    Homogeneous systems (all rhs zero) return a unit null-space vector and
    demand nullity exactly 1; inhomogeneous systems return the normalized
    minimum-norm least-squares solution with its residual.  The nullity
    dim - rank is always reported rather than assumed.

    Raises AmbiguousDirection when nullity > 1 and Inconsistent when a
    homogeneous system admits only the trivial solution.
    """
    if dim not in (3, 4):
        raise DimMismatch(f"dim must be 3 or 4, got {dim}")
    rows = list(constraints)
    if not rows:
        raise DimMismatch("need at least one constraint")
    A = np.vstack([r.omega for r in rows])
    if A.shape[1] != dim:
        raise DimMismatch(f"omega length {A.shape[1]} != dim {dim}")
    b = np.array([r.rhs for r in rows])
    return _direction_core(A, b)


def _direction_core(A: np.ndarray, b: np.ndarray) -> DirectionSolution:
    """Unit direction solving A v = b modulo scaling, with its nullity.

    The rank is the number of singular values above _RANK_TOL times the
    largest.  Raises AmbiguousDirection when nullity > 1 and Inconsistent
    when no nonzero solution exists.  The residual is |A v| for a
    homogeneous system and |A x - b| at the least-squares solution x
    (before normalization) otherwise.
    """
    svals = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(svals > _RANK_TOL * svals[0])) if svals[0] > 0 else 0
    nullity = A.shape[1] - rank
    if nullity > 1:
        raise AmbiguousDirection(
            f"solution space has dimension {nullity}", nullity=nullity)
    if np.all(b == 0.0):
        if nullity == 0:
            raise Inconsistent(
                "homogeneous system is full rank; only trivial solution")
        _, _, vt = np.linalg.svd(A)
        v = _canonical_sign(vt[-1])
        return DirectionSolution(v, nullity, float(np.linalg.norm(A @ v)))
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    nx = np.linalg.norm(x)
    if nx <= 1e-300:
        raise Inconsistent("least-squares solution is zero; no direction")
    v = _canonical_sign(x / nx)
    return DirectionSolution(v, nullity, float(np.linalg.norm(A @ x - b)))


# ---------------------------------------------------------------------------
# discrete tomographic system


def elimination_rank(A: np.ndarray, tol: float = _RANK_TOL) -> int:
    """Rank by Gaussian elimination with partial pivoting.

    A pivot counts when its magnitude exceeds tol times the largest pivot
    seen so far (the first pivot is the largest entry of the matrix).
    """
    M = np.array(A, dtype=float)
    nrows, ncols = M.shape
    scale = np.max(np.abs(M))
    if scale == 0:
        return 0
    rank = 0
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        p = row + int(np.argmax(np.abs(M[row:, col])))
        if abs(M[p, col]) <= tol * scale:
            continue
        M[[row, p]] = M[[p, row]]
        M[row + 1:] -= np.outer(M[row + 1:, col] / M[row, col], M[row])
        rank += 1
        row += 1
    return rank


def build_radon_system(specs, grid_dims, spacing, sinograms,
                       origin=None) -> RadonSystem:
    """Assemble the linear system tying voxel densities to sinogram rays.

    One row per sinogram pixel, one column per voxel: each view's block is
    `projection_operator`, the operator `project_voxels` applies, so
    A x stacks the views' forward projections of x (exact intersection
    lengths for axis-aligned frames, trilinear ray marching otherwise).
    The rank is computed by elimination and `determined` records whether
    it equals the voxel count.
    """
    specs = list(specs)
    sinos = list(sinograms)
    if len(specs) != len(sinos):
        raise DimMismatch(f"{len(specs)} specs vs {len(sinos)} sinograms")
    dims = tuple(int(d) for d in grid_dims)
    nvox = int(np.prod(dims))
    if origin is None:
        origin = -spacing * (np.asarray(dims) - 1) / 2.0
    grid = VoxelGrid(dims, spacing, origin, np.zeros(dims))
    blocks = []
    for spec, sino in zip(specs, sinos):
        origin2d = pixel_center_coords(grid, spec, sino.values.shape)[0, 0]
        if np.max(np.abs(origin2d - sino.origin2d)) > 1e-9 * max(1.0, spacing):
            raise DimMismatch("sinogram pixel lattice does not match the grid")
        blocks.append(projection_operator(grid, spec, sino.values.shape))
    A = sp.vstack(blocks, format="csr")
    b = np.concatenate([sino.values.ravel() for sino in sinos])
    rank = elimination_rank(A.toarray())
    return RadonSystem(A, b, rank, rank == nvox, dims, float(spacing))


def solve_radon(system: RadonSystem, max_iter: int | None = None,
                tol: float = 1e-10) -> np.ndarray:
    """Minimum-norm least-squares voxel solve (CGLS on the normal equations).

    Starting from zero keeps the iterates in the row space of A, so the
    converged solution is the minimum-norm one; for determined systems it
    is the unique exact solution.  Raises NotConverged (carrying the best
    iterate) when neither the residual target nor least-squares
    stationarity is reached within max_iter.
    """
    if tol <= 0:
        raise DimMismatch(f"tol must be > 0, got {tol}")
    A, b = system.rows, system.rhs
    nvox = A.shape[1]
    if max_iter is None:
        max_iter = 10 * nvox
    x = np.zeros(nvox)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x.reshape(system.grid_dims)
    r = b - A @ x
    s = A.T @ r
    p = s.copy()
    gamma = float(s @ s)
    snorm0 = np.sqrt(gamma)
    for it in range(max_iter):
        if np.linalg.norm(r) <= tol * bnorm:
            return x.reshape(system.grid_dims)
        if np.sqrt(gamma) <= tol * snorm0:
            break  # least-squares optimum; residual may stay > tol*|b|
        q = A @ p
        qq = float(q @ q)
        if qq == 0.0:
            break
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        s = A.T @ r
        gamma_new = float(s @ s)
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    res = float(np.linalg.norm(A @ x - b))
    if res <= tol * bnorm or np.sqrt(gamma) <= max(tol, 1e-12) * snorm0:
        return x.reshape(system.grid_dims)
    raise NotConverged(
        f"residual {res} > tol*|b| after {max_iter} iterations",
        best=x.reshape(system.grid_dims), residual=res, iterations=max_iter)


# ---------------------------------------------------------------------------
# noise propagation


def amplification_factor(spec1: ProjectionSpec, spec2: ProjectionSpec) -> float:
    """Geometric noise amplification 1 / |n1 x n2| of a triangulation pair.

    Raises NonTransverse for coaxial frames (|n1 x n2| = 0).
    """
    return 1.0 / _cross_norm(spec1, spec2, 0.0)


def noise_study(cloud: PointCloud, spec1: ProjectionSpec,
                spec2: ProjectionSpec, sigma: float, trials: int,
                seed: int = 0, tol: float = 1e-9) -> NoiseReport:
    """Monte-Carlo noise propagation through two-view reconstruction.

    Adds i.i.d. Gaussian noise of std sigma to both projected images,
    reconstructs, and records the per-trial RMSE against the ground-truth
    cloud.  Each trial's RNG stream derives solely from (seed, trial), so
    results do not depend on execution order.  predicted_bound is the
    geometric amplification kappa * sigma with kappa = 1 / |n1 x n2|.
    """
    if sigma < 0:
        raise DimMismatch(f"sigma must be >= 0, got {sigma}")
    if trials < 1:
        raise DimMismatch(f"trials must be >= 1, got {trials}")
    kappa = amplification_factor(spec1, spec2)
    img1 = project_points(cloud, spec1)
    img2 = project_points(cloud, spec2)
    rmses = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        n1 = sigma * rng.standard_normal(img1.positions.shape)
        n2 = sigma * rng.standard_normal(img2.positions.shape)
        rec = reconstruct_cloud(
            Projected2D(img1.positions + n1, img1.weights),
            Projected2D(img2.positions + n2, img2.weights),
            spec1, spec2, tol)
        err = rec.positions - cloud.positions
        rmses[t] = np.sqrt(np.mean(np.sum(err * err, axis=1)))
    rmse_mean = float(np.mean(rmses))
    rmse_std = float(np.std(rmses))
    slope = rmse_mean / sigma if sigma > 0 else 0.0
    return NoiseReport(float(sigma), int(trials), rmse_mean, rmse_std,
                       float(kappa * sigma), float(slope), int(seed))
