"""Reconstruction solvers.

Two-view point recovery intersects back-projection rays, which for fixed
frames is one 3x4 linear map from the stacked observations; the direction
solvers (plain and `toric`'s symmetry-reduced) share one validator and one
SVD core; the discrete tomographic path stacks one linear equation per
observed ray into one sparse matrix and finds its exact rank and its
minimum-norm least-squares solution: in closed form, one slice across the
shared axis at a time, for two axis-aligned views along different axes,
and by one factorization per run of equal connected components for any
other views.
The noise study pushes unit planar noise through the triangulation map,
scales the error by the noise std, and measures the amplification against
the first-order factor 1/|n1 x n2|, where |n1 x n2| is the
transversality margin every gate reads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AmbiguousDirection,
    DimMismatch,
    Inconsistent,
    LengthMismatch,
    NumericalError,
)
from .geometry import (
    CSR,
    GridHeader,
    PointCloud,
    Projected2D,
    ProjectionSpec,
    Record,
    projection_operator,
    _RANK_TOL,
    _aligned_pixels,
    _as_array,
    _axis_alignment,
    _canonical_sign,
    _cross_norm,
    _entry_bound,
    _exponent,
    _rank_above,
    _require_dim,
    _require_int,
    _require_memory,
    _require_tol,
)

# Closed-form slice ranks of systems with at most this many matrix entries
# are also checked against `elimination_rank`, which costs at most a few
# ms there.
# The check also keeps the `elimination_rank` call under
# `build_radon_system` that bench/spans.py times as `recon.radon_rank_s`
# and that bench/test_bench.py asserts on a 4^3 grid.
_ORACLE_CHECK_ENTRIES = 2**14
# Voxels per chunk of a component's QR, in multiples of its row count:
# of 1, 2, 4 and 8, 4 ranked and solved XY beside a 30 degree tilt at 48^3
# and beside a general rotation at 16^3 and 22^3 fastest (one BLAS thread),
# and 8 would count a 22^3 general pair over the memory limit.
_QR_CHUNK = 4


class ConstraintRow(Record):
    """One linear constraint omega . v = rhs on the direction v.

    Raises DimMismatch unless omega has 3 or 4 finite components, not all
    zero, and rhs is finite.  Only an exactly zero omega is refused: the
    solvers judge a row against the others, so any scale is a constraint.
    """

    omega: np.ndarray
    rhs: float = 0.0

    def __post_init__(self):
        o = _as_array(self.omega, -1, "omega")
        if o.shape[0] not in (3, 4):
            raise DimMismatch(f"omega must have 3 or 4 components, got {o.shape[0]}")
        rhs = float(_as_array(self.rhs, (), "rhs"))
        if not np.any(o):
            raise DimMismatch("omega is identically zero")
        object.__setattr__(self, "omega", o)
        object.__setattr__(self, "rhs", rhs)


class DirectionSolution(Record):
    """Unit representative of a direction modulo scaling."""

    v: np.ndarray
    nullity: int
    residual: float


class RadonSystem(Record):
    """Sparse ray/voxel incidence system A x = b.

    rows is A, a canonical `CSR` matrix: rows[r, voxel] is the
    intersection length of ray r with that voxel (`rows @ x` is A x); b
    stacks the observed sinogram values.
    rank_method names how rank was found: "graph" for two axis-aligned
    views along different axes (m + n - 1 per m x n slice across the axis
    both views see, each slice a complete bipartite pixel graph K_{m,n},
    no dense matrix), "svd" for any other views (the sum of the ranks of
    the connected components of A's row/column sparsity graph, one
    factorization each, its singular values thresholded against the
    largest of A).  solution, shaped as the voxel grid of A's columns, is
    the minimum-norm least-squares A^+ b through the singular values the
    rank counts.
    """

    rows: CSR
    rhs: np.ndarray
    rank: int
    rank_method: str
    solution: np.ndarray

    @property
    def determined(self) -> bool:
        """Whether the rank equals the voxel count."""
        return self.rank == self.rows.shape[1]


class NoiseReport(Record):
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
    tol (|n1 x n2| <= tol), and DimMismatch unless each observation is a
    finite 2-vector.
    """
    o1 = _as_array(obs1, 2, "observation 1")
    o2 = _as_array(obs2, 2, "observation 2")
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


def solve_direction(constraints, dim: int) -> DirectionSolution:
    """Solve a stack of linear constraints for a direction modulo scaling.

    Homogeneous systems (all rhs zero) return a unit null-space vector and
    demand nullity exactly 1; inhomogeneous systems return the normalized
    minimum-norm least-squares solution with its residual.  The nullity
    dim - rank is always reported rather than assumed.

    Raises AmbiguousDirection when nullity > 1, and Inconsistent when a
    homogeneous system admits only the trivial solution or b is
    orthogonal to the range of A.  Every test is relative to the data, so
    scaling all omegas and rhs values by one factor scales the residual
    alone, and by a power of two leaves v bitwise as it was
    (`_direction_core`).
    """
    return _direction_core(*_stack_constraints(constraints, dim))


def _stack_constraints(constraints, dim: int):
    """(A, b) from the omegas and rhs values; DimMismatch unless dim is
    3 or 4, there is at least one row and every omega has dim entries."""
    _require_dim(dim)
    rows = list(constraints)
    if not rows:
        raise DimMismatch("need at least one constraint")
    for r in rows:
        if r.omega.shape[0] != dim:
            raise DimMismatch(f"omega length {r.omega.shape[0]} != dim {dim}")
    return np.vstack([r.omega for r in rows]), np.array([r.rhs for r in rows])


def _direction_core(A: np.ndarray, b: np.ndarray) -> DirectionSolution:
    """Unit direction solving A v = b modulo scaling, with its nullity.

    One SVD A = U S V^T gives all three: the rank is the number of
    singular values above _RANK_TOL times the largest, a homogeneous
    system's direction is the last right singular vector, and the
    least-squares solution keeps only the first `rank` singular triplets.
    Raises AmbiguousDirection when nullity > 1 and Inconsistent when no
    nonzero solution exists: a full-rank homogeneous system, or a b whose
    part in the range of A, |U_r^T b|, is at most _RANK_TOL |b|.  The
    residual is |A v| for a homogeneous system and |A x - b| at the
    least-squares solution x (before normalization) otherwise.  The core
    solves 2^-f A against 2^-e b (`_exponent`), as `_factor` does, and
    scales the residual back, so scaling A and b by a power of two
    scales the residual alone, to the last bit.
    """
    e, f = _exponent(b), _exponent(A)
    A, b = np.ldexp(A, -f), np.ldexp(b, -e)
    u, svals, vt = np.linalg.svd(A)
    rank = _rank_above(svals, svals[0])
    nullity = A.shape[1] - rank
    if nullity > 1:
        raise AmbiguousDirection(
            f"solution space has dimension {nullity}", nullity=nullity)
    if np.all(b == 0.0):
        if nullity == 0:
            raise Inconsistent(
                "homogeneous system is full rank; only trivial solution")
        v = _canonical_sign(vt[-1])
        return DirectionSolution(
            v, nullity, float(np.ldexp(np.linalg.norm(A @ v), f)))
    c = u[:, :rank].T @ b
    if np.linalg.norm(c) <= _RANK_TOL * np.linalg.norm(b):
        raise Inconsistent("b is orthogonal to the range of A; the "
                           "least-squares solution is zero")
    x = vt[:rank].T @ (c / svals[:rank])
    v = _canonical_sign(x / np.linalg.norm(x))
    return DirectionSolution(
        v, nullity, float(np.ldexp(np.linalg.norm(A @ x - b), e)))


# ---------------------------------------------------------------------------
# discrete tomographic system


def elimination_rank(A: np.ndarray) -> int:
    """Rank by Gaussian elimination with partial pivoting.

    A pivot counts when its magnitude exceeds _RANK_TOL times the largest
    entry of the matrix.
    This is the reference oracle for the Radon rank: tests compare
    `build_radon_system`'s graph and SVD ranks against it, and
    `_slice_solve` cross-checks the slice rank of small systems with it.
    Its Python loop over columns is too slow for anything larger.
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
        if abs(M[p, col]) <= _RANK_TOL * scale:
            continue
        M[[row, p]] = M[[p, row]]
        M[row + 1:] -= np.outer(M[row + 1:, col] / M[row, col], M[row])
        rank += 1
        row += 1
    return rank


def _components(n: int, u: np.ndarray,
                v: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on vertices 0..n-1 with
    edges (u[k], v[k]): their number and each vertex's component, numbered
    in order of the components' smallest vertices.

    Min-label hooking with pointer jumping (after Shiloach & Vishkin,
    *J. Algorithms* 1982).  parent[x] is a vertex of x's component no
    larger than x, so the pointers form a forest whose roots are the
    smallest vertices of their trees.  Each round drops the edges inside
    one tree, hooks every root that an edge joins to a smaller root under
    the smallest such root, jumps pointers until every vertex points at
    its root, and replaces each edge by the roots of its ends.  Each round
    removes a root; the last leaves one root, the smallest vertex, per
    component.
    """
    parent = np.arange(n)
    while True:
        join = u != v
        if not join.any():
            break
        u, v = u[join], v[join]
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
        u, v = parent[u], parent[v]
    root = parent == np.arange(n)
    return int(root.sum()), (np.cumsum(root) - 1)[parent]


def _slice_solve(A: CSR, grid: GridHeader, views) -> tuple[int, np.ndarray]:
    """Rank of A and A^+ b in closed form for two axis-aligned views, each
    an (`_axis_alignment`, sinogram values) pair, the first along grid
    axis q and the second along p.

    Each view puts each voxel on one pixel with weight h, the spacing, so
    a slice across the axis s = 3 - p - q both views see, m x n voxels
    (m = dims[p], n = dims[q]), is seen through h times its m row sums and
    n column sums alone, of rank m + n - 1.  Projecting b onto A's range
    moves the slice's sums R and C of its two views' pixels to R - m delta,
    delta = (R - C) / (m + n), and the least voxels with those sums are
    ((b_1 - delta) / n + (b_2 + delta) / m - (R - m delta) / (mn)) / h,
    b_1 and b_2 the voxel's pixel values (Herman & Kuba, *Discrete
    Tomography*, 1999).  Each view's sinogram is read through
    `_aligned_pixels`, the map its block of A was built with, and the
    solve works on 2^-f h against 2^-e b (`_exponent`).  A itself is read
    only to cross-check the rank of small systems by `elimination_rank`.
    """
    q, p = (align[4] for align, _ in views)
    m, n = grid.dims[p], grid.dims[q]
    e, f = max(_exponent(v) for _, v in views), _exponent(grid.spacing)
    # view 1's values are constant along q and view 2's along p, so each
    # keeps its viewing axis as 1; R, C and delta are one value per slice
    b_1, b_2 = (np.ldexp(values[_aligned_pixels(grid, align, values.shape)],
                         -e) for align, values in views)
    sum_r = b_1.sum(axis=p, keepdims=True)
    delta = (sum_r - b_2.sum(axis=q, keepdims=True)) / (m + n)
    x = (b_1 - delta) / n + (b_2 + delta) / m
    x -= (sum_r - m * delta) / (m * n)
    x /= np.ldexp(grid.spacing, -f)
    rank = grid.dims[3 - p - q] * (m + n - 1)
    if A.shape[0] * A.shape[1] <= _ORACLE_CHECK_ENTRIES:
        check = elimination_rank(A.toarray())
        if check != rank:
            raise NumericalError(
                f"slice rank {rank} != elimination rank {check}")
    return rank, np.ldexp(x, e - f).ravel()


def _component_svd(r: int, c: int, i: np.ndarray, j: np.ndarray,
                   v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, vt): the singular values of the r x c component B with entries
    v at (i, j), j ascending, and its left singular vectors as the rows
    of vt, by the SVD of the QR triangle of B^T, built dense _QR_CHUNK r
    columns at a time."""
    R, width = np.zeros((0, r)), _QR_CHUNK * r
    for lo, a, z in zip(range(0, c, width), *np.searchsorted(
            j, [range(0, c, width), range(width, c + width, width)])):
        block = np.zeros((R.shape[0] + min(width, c - lo), r))
        block[:R.shape[0]] = R
        block[R.shape[0] + j[a:z] - lo, i[a:z]] = v[a:z]
        del R
        R = np.linalg.qr(block, mode="r")
        del block
    return tuple(np.linalg.svd(R, full_matrices=False)[1:])


def _graph_labels(A: CSR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ur, row_entries, labels): the rows of A with an entry, their entry
    counts, and the `_components` label of each vertex of A's bipartite
    row/column sparsity graph.

    A row or column without an entry is a component of rank 0 of its own,
    so only the others are vertices: row ur[i] is vertex i, and the j-th
    column with an entry is vertex len(ur) + j, its rank read from a table
    of the running count of such columns.  The edges, one per stored
    entry, are passed as temporaries, which the components pass frees as
    it goes.
    """
    ur = np.flatnonzero(np.diff(A.indptr))
    present = np.bincount(A.indices, minlength=A.shape[1]) > 0
    column_vertex = np.cumsum(present)
    column_vertex += ur.size - 1
    row_entries = A.indptr[ur + 1] - A.indptr[ur]
    labels = _components(ur.size + int(np.count_nonzero(present)),
                         np.repeat(np.arange(ur.size), row_entries),
                         column_vertex[A.indices])[1]
    return ur, row_entries, labels


def _factor(A: CSR, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank of A and A^+ b, the minimum-norm least-squares solution
    through the singular values the rank counts, one factorization per
    run of equal components.

    The rank of a sparse matrix is the sum of the ranks of the connected
    components of its bipartite row/column sparsity graph (the coarse
    block-triangular form of Pothen & Fan).  A singular value counts when
    it is above _RANK_TOL times the largest over all components, which
    are those of the whole matrix.  `_require_memory` counts the largest
    component's dense values before any is densified.  The components
    factor A' = 2^-f A against 2^-e b (`_exponent`).
    """
    e, f = _exponent(b), _exponent(A.data)
    rows, cols = A.shape
    ur, row_entries, labels = _graph_labels(A)
    nr = np.bincount(labels[:ur.size], minlength=1)
    nc = np.bincount(labels[ur.size:], minlength=1)
    # the dense values a component holds at once: its triangle stacked
    # over one chunk, three times (np.linalg.qr copies it twice), or the
    # SVD of its last triangle, whose copy, factors and LAPACK workspace
    # come to at most 7.7 times the triangle (numpy 2.4, 500 to 2000 rows)
    dense = nr * np.maximum(3 * np.minimum(nc, (_QR_CHUNK + 1) * nr),
                            8 * np.minimum(nr, nc))
    big = int(np.argmax(dense))
    _require_memory(f"factoring the {rows}x{cols} Radon matrix by its dense "
                    f"{nr[big]}x{nc[big]} component", rows, cols, A.nnz,
                    dense=int(dense[big]))
    # the entries of each component, ordered by voxel, and ||A'||_1 and
    # ||A'||_inf, whose geometric mean bounds every singular value
    entry_label = np.repeat(labels[:ur.size], row_entries)
    by_comp = np.lexsort((A.indices, entry_label))
    stops = np.cumsum(np.bincount(entry_label))
    del entry_label, labels, row_entries
    data = np.abs(np.ldexp(A.data, -f))
    bound = np.sqrt(np.max(np.bincount(A.indices, weights=data), initial=0.0)
                    * np.max(np.bincount(A.row, weights=data), initial=0.0))
    y, svals, waiting, start = np.zeros(rows), [np.zeros(0)], [], 0
    # each component B: B^T built dense _QR_CHUNK r voxels at a time (r its
    # rows) under a running QR triangle R (TSQR, Demmel et al., *SIAM J.
    # Sci. Comput.* 2012), so B B^T = R^T R and the SVD of R gives B's
    # singular values s and left vectors U; y = U S^-2 U^T b on its rows,
    # corrected once by the same map of its residual (the corrected
    # semi-normal equations, whose error grows with the condition number of
    # B, not with its square), and x = A'^T y.  A component whose local
    # pattern and value bits equal the one before it (the slices of a tilt
    # about a grid axis come in a run) reuses its s and U: one entry of
    # memo, so no U outlives its run.
    memo = None
    for stop in stops:
        ent = by_comp[start:stop]
        start = stop
        rows_c, i = np.unique(A.row[ent], return_inverse=True)
        j = np.unique(A.indices[ent], return_inverse=True)[1]
        r, c, v = rows_c.size, j[-1] + 1, np.ldexp(A.data[ent], -f)
        key = (i, j, v.view(np.int64))  # the values compared by their bits
        if memo is None or not all(map(np.array_equal, memo[0], key)):
            memo = key, _component_svd(r, c, i, j, v)
        s, vt = memo[1]
        svals.append(s)
        # s is descending: the first k values are surely counted (above
        # _RANK_TOL times the bound), and the next ones, up to those
        # _RANK_TOL times this component's largest, wait for the largest of
        # all; no U outlives its run but these few vectors
        k, w = int(np.sum(s > _RANK_TOL * bound)), _rank_above(s, s[0])
        b_c = np.ldexp(b[rows_c], -e)
        y_c = vt[:k].T @ (vt[:k] @ b_c / s[:k] ** 2)
        x_c = np.bincount(j, weights=v * y_c[i], minlength=c)
        res = b_c - np.bincount(i, weights=v * x_c[j], minlength=r)
        y[rows_c] = y_c + vt[:k].T @ (vt[:k] @ res / s[:k] ** 2)
        if w > k:
            waiting.append((rows_c, vt[k:w] @ b_c, s[k:w], vt[k:w].copy()))
    svals = np.concatenate(svals)
    smax = svals.max(initial=0.0)
    for rows_c, coef, s, vt in waiting:
        k = _rank_above(s, smax)
        y[rows_c] += vt[:k].T @ (coef[:k] / s[:k] ** 2)
    np.ldexp(A.data, -f, out=data)
    data *= y[A.row]
    x = np.bincount(A.indices, weights=data, minlength=cols)
    return _rank_above(svals, smax), np.ldexp(x, e - f)


def build_radon_system(specs, grid: GridHeader, sinograms) -> RadonSystem:
    """Assemble the linear system tying voxel densities to sinogram rays,
    with its rank and its minimum-norm least-squares solution: the frames
    choose how, `_slice_solve` for two axis-aligned views along different
    axes and `_factor` for any other views.

    One row per sinogram pixel, one column per voxel of `grid`: each
    view's block is `projection_operator`, the operator `project_voxels`
    applies, on the `pixel_center_coords` lattice of the sinogram's shape,
    so A x stacks the views' forward projections of x (exact intersection
    lengths for axis-aligned frames, trilinear ray marching otherwise).
    The blocks are stacked once, by `CSR.vstack`.  `_require_memory`
    counts each view's `_entry_bound` before anything is built, and the
    built entries before the stack.
    """
    specs, sinos = list(specs), list(sinograms)
    if len(specs) != len(sinos):
        raise DimMismatch(f"{len(specs)} specs vs {len(sinos)} sinograms")
    rows, nvox = sum(s.values.size for s in sinos), math.prod(grid.dims)
    what = f"a {rows}x{nvox} Radon system"
    _require_memory(what, rows, nvox, sum(
        _entry_bound(grid, spec, sino.values.shape)
        for spec, sino in zip(specs, sinos)))
    ops = [projection_operator(grid, spec, sino.values.shape)
           for spec, sino in zip(specs, sinos)]
    _require_memory(what, rows, nvox, sum(op.nnz for op in ops))
    A = CSR.vstack(ops)
    del ops  # the factorization holds the stacked copy alone
    b = np.concatenate([sino.values.ravel() for sino in sinos])
    align = [_axis_alignment(spec) for spec in specs]
    if len(specs) == 2 and None not in align and align[0][4] != align[1][4]:
        method, (rank, x) = "graph", _slice_solve(
            A, grid, [(a, sino.values) for a, sino in zip(align, sinos)])
    else:
        method, (rank, x) = "svd", _factor(A, b)
    return RadonSystem(A, b, rank, method, x.reshape(grid.dims))


def solve_radon(system: RadonSystem) -> np.ndarray:
    """The minimum-norm least-squares voxel values A^+ b, grid-shaped,
    that `build_radon_system` found with the rank."""
    return system.solution


# ---------------------------------------------------------------------------
# noise propagation


def amplification_factor(spec1: ProjectionSpec, spec2: ProjectionSpec) -> float:
    """Geometric noise amplification 1 / |n1 x n2| of a triangulation pair.

    Raises NonTransverse for coaxial frames (|n1 x n2| = 0).
    """
    return 1.0 / _cross_norm(spec1, spec2, 0.0)


def _require_trials(trials: int) -> int:
    """A noise study's trial count as an int; DimMismatch unless it is an
    integer >= 1 (`_require_int`), and SystemTooLarge when its per-trial
    RMSEs exceed the memory limit."""
    trials = _require_int(trials, "trials", 1)
    _require_memory(f"a noise study of {trials} trials", dense=trials)
    return trials


def noise_study(cloud: PointCloud, spec1: ProjectionSpec,
                spec2: ProjectionSpec, sigma: float, trials: int,
                seed: int = 0, tol: float = 1e-9) -> NoiseReport:
    """Monte-Carlo noise propagation through two-view reconstruction.

    Triangulation is the 3x4 linear map M that `reconstruct_cloud`
    applies, so the error of triangulating images with added noise sigma z
    is exactly sigma M z, whatever the cloud's positions.  Each trial draws
    unit Gaussian noise z for both images from a stream derived solely
    from (seed, trial), pushes it through M and records the RMSE per
    point; slope is the mean of those unit RMSEs, and rmse_mean, rmse_std
    and predicted_bound are sigma times their mean, their std and kappa.
    So slope is one number for every sigma > 0, sigma = 0 gives exact
    zeros, and the study is exact wherever the reported numbers are normal
    floats.  predicted_bound is the first-order geometric amplification
    kappa * sigma with kappa = 1 / |n1 x n2|, not an upper bound: over
    many points and trials the root mean squared error is
    sigma * |M|_F = sigma * sqrt(1/2 + 2 / |n1 x n2|^2), which exceeds
    kappa * sigma for every pair.
    Raises DimMismatch for a cloud of no points, unless sigma is a real
    number, finite and >= 0 (`geometry._require_tol`), trials an integer
    >= 1 (`_require_trials`) and seed an integer >= 0, which numpy's seed
    sequence needs (`geometry._require_int`), and when rmse_mean, rmse_std
    or predicted_bound overflows, and SystemTooLarge when the trials' RMSEs
    would exceed the memory limit (`_require_trials`).
    """
    sigma = _require_tol(sigma, "sigma")
    trials = _require_trials(trials)
    seed = _require_int(seed, "seed", 0)
    if len(cloud) == 0:
        raise DimMismatch("the cloud has no points")
    kappa = amplification_factor(spec1, spec2)
    M = _triangulation_map(spec1, spec2, tol)
    rmses = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        err = np.hstack(rng.standard_normal((2, len(cloud), 2))) @ M.T
        rmses[t] = np.sqrt(np.mean(np.sum(err * err, axis=1)))
    unit = np.array([np.mean(rmses), np.std(rmses), kappa])
    with np.errstate(over="ignore"):  # checked below
        scaled = sigma * unit
    if not np.all(np.isfinite(scaled)):
        raise DimMismatch(f"noise of std {sigma} overflows the reconstruction")
    return NoiseReport(sigma, trials, *map(float, scaled),
                       float(unit[0]) if sigma > 0 else 0.0, seed)
