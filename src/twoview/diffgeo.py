"""Discrete differential geometry on regular grids.

Vector fields and Christoffel symbols are sampled per node; derivatives
use second-order central differences in the interior and one-sided
second-order stencils at the boundary, so report maxima are taken over
interior nodes only, and over nodes at depth 2 for quantities that
compose two derivatives (curvature, the jacobiator, the duality
residual).  Overflow in a computed field raises NumericalError, not a
numpy warning.  The integrability obstruction is exposed twice: as
the Hantjies tensor, in the closed form Gamma(X, Y) - Gamma(Y, X) of the
literal formula (which the tests keep as its oracle), and as the
Frobenius residual, the component of the Lie bracket sticking out of the
spanned distribution.  The uniqueness certificate consumes both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDistribution,
    GridTooSmall,
    HeaderMismatch,
    NumericalError,
    PathOutsideGrid,
)
from .geometry import GridHeader, _as_array, _require_tol, _trilinear_weights

_STEPS_PER_SPACING = 4  # RK4 steps per node spacing of path length
# X and Y count as nearly parallel where the sine of their angle is at most
# this
_ANGLE_TOL = 1e-8


def _require_same_header(*objs):
    h0 = objs[0].header
    for o in objs[1:]:
        if not h0.matches(o.header):
            raise HeaderMismatch(
                f"grid headers differ: {h0} vs {o.header}")
    return h0


def _finite(values, what: str):
    """values, computed from finite inputs under `np.errstate`; raises
    NumericalError where that overflowed (a non-finite input sample is the
    constructors' HeaderMismatch)."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} overflows to non-finite values")
    return values


def _node_scaled(v: np.ndarray):
    """(v / 2**e, e) per node, 2**e the power of two that brings the node's
    largest |component| into [0.5, 1) (e = 0 for a zero vector).  Products
    and norms of the scaled vectors cannot overflow, and power-of-two
    scaling is exact, so they equal the unscaled ones to the last bit
    wherever those neither overflow nor underflow."""
    _, e = np.frexp(np.abs(v).max(axis=-1, keepdims=True))
    return np.ldexp(v, -e), e


def interior_mask(dims, depth: int = 1) -> np.ndarray:
    """Boolean mask of nodes at least `depth` nodes away from every face."""
    m = np.zeros(tuple(dims), dtype=bool)
    sl = tuple(slice(depth, d - depth) for d in dims)
    if any(s.start >= s.stop for s in sl):
        raise GridTooSmall(f"dims {tuple(dims)} too small for depth {depth}")
    m[sl] = True
    return m


def _node_array(header: GridHeader, values, tail: tuple,
                what: str) -> np.ndarray:
    """`values` shaped header.dims + tail.  Raises GridTooSmall unless every
    axis has the >= 3 nodes the derivative stencils need, DimMismatch
    unless the values fill that shape, and HeaderMismatch unless every
    sample is finite."""
    if any(d < 3 for d in header.dims):
        raise GridTooSmall(f"need >= 3 nodes per axis, got {header.dims}")
    return _as_array(values, header.dims + tail, f"{what} samples",
                     HeaderMismatch)


@dataclass(frozen=True)
class VectorFieldGrid:
    """Per-node 3-vector samples of a vector field, or of a vector-valued
    tensor evaluated node-wise (Hantjies, jacobiator)."""

    header: GridHeader
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _node_array(
            self.header, self.samples, (3,), "vector field"))

    @classmethod
    def from_function(cls, header: GridHeader, fn) -> "VectorFieldGrid":
        """Sample fn(x, y, z) -> 3-vector on every node (vectorized over
        coordinate arrays)."""
        pos = header.node_positions()
        vals = fn(pos[..., 0], pos[..., 1], pos[..., 2])
        vals = np.stack([np.broadcast_to(np.asarray(v, dtype=float),
                                         header.dims) for v in vals], axis=-1)
        return cls(header, vals)

    @classmethod
    def constant(cls, header: GridHeader, v) -> "VectorFieldGrid":
        vals = np.broadcast_to(np.asarray(v, dtype=float), header.dims + (3,))
        return cls(header, vals.copy())

    @np.errstate(over="ignore", invalid="ignore")
    def max_interior_norm(self, depth: int = 1) -> float:
        """Largest |sample| over the nodes at least `depth` from every face."""
        scaled, e = _node_scaled(self.samples)
        norms = np.ldexp(np.linalg.norm(scaled, axis=-1), e[..., 0])
        norms = norms[interior_mask(self.header.dims, depth)]
        return float(_finite(norms, "the field's norm").max())


@dataclass(frozen=True)
class ConnectionField:
    """Per-node Christoffel symbols gamma[..., k, i, j] for Gamma^k_ij."""

    header: GridHeader
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _node_array(
            self.header, self.gamma, (3, 3, 3), "Christoffel"))

    @classmethod
    def flat(cls, header: GridHeader) -> "ConnectionField":
        return cls(header, np.zeros(header.dims + (3, 3, 3)))


@dataclass(frozen=True)
class IntegrabilityReport:
    max_hantjies_norm: float
    max_frobenius_residual: float
    integrable: bool
    tolerance: float
    interior_node_count: int


# ---------------------------------------------------------------------------
# derivatives


def partials(field: VectorFieldGrid) -> np.ndarray:
    """All first partials d_i Y^k, shape dims + (3 axes, 3 components).

    Central differences in the interior, one-sided order-2 at boundaries.
    """
    h = field.header.spacing
    return np.stack(
        [np.gradient(field.samples, h, axis=i, edge_order=2)
         for i in range(3)], axis=-2)


@np.errstate(over="ignore", invalid="ignore")
def covariant_derivative(X: VectorFieldGrid, Y: VectorFieldGrid,
                         conn: ConnectionField) -> VectorFieldGrid:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j, node-wise."""
    _require_same_header(X, Y, conn)
    return _derivative(X, Y, partials(Y), conn=conn)


@np.errstate(over="ignore", invalid="ignore")
def _derivative(X: VectorFieldGrid, Y: VectorFieldGrid, dY: np.ndarray, *,
                conn: ConnectionField | None = None,
                dX: np.ndarray | None = None) -> VectorFieldGrid:
    """nabla_X Y with `conn`, or [X, Y] with dX, from the partials dY of Y
    (and dX of X): the one place the stencils are applied, so a caller
    composing derivatives differentiates each field once.  The headers
    must already match."""
    v = np.einsum("...i,...ik->...k", X.samples, dY)  # dY is (..., i, k)
    if conn is not None:
        v = v + _christoffel(conn, X, Y)
        what = "the covariant derivative"
    else:
        v = v - np.einsum("...i,...ik->...k", Y.samples, dX)
        what = "the Lie bracket"
    return VectorFieldGrid(X.header, _finite(v, what))


def _christoffel(conn: ConnectionField, X: VectorFieldGrid,
                 Y: VectorFieldGrid) -> np.ndarray:
    """Gamma(X, Y)^k = Gamma^k_ij X^i Y^j, node-wise."""
    return np.einsum("...kij,...i,...j->...k",
                     conn.gamma, X.samples, Y.samples)


@np.errstate(over="ignore", invalid="ignore")
def lie_bracket(X: VectorFieldGrid, Y: VectorFieldGrid) -> VectorFieldGrid:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k via the shared stencils."""
    _require_same_header(X, Y)
    return _derivative(X, Y, partials(Y), dX=partials(X))


@np.errstate(over="ignore", invalid="ignore")
def hantjies_tensor(X: VectorFieldGrid, Y: VectorFieldGrid,
                    conn: ConnectionField) -> VectorFieldGrid:
    """Antisymmetrized covariant derivative minus the bracket.

    nabla_X Y - nabla_Y X - [X, Y] in closed form: the stencils cancel,
    leaving the torsion contraction Gamma(X, Y) - Gamma(Y, X), exactly zero
    for X = Y or a symmetric Gamma.  The tests keep the literal formula.
    """
    header = _require_same_header(X, Y, conn)
    h = _christoffel(conn, X, Y) - _christoffel(conn, Y, X)
    return VectorFieldGrid(header, _finite(h, "the Hantjies tensor"))


@np.errstate(over="ignore", invalid="ignore")
def frobenius_residual(X: VectorFieldGrid, Y: VectorFieldGrid):
    """Component of [X, Y] orthogonal to span{X, Y}, node by node.

    Returns (residual_field, max_over_interior).  The residual vanishes
    exactly where the plane field spanned by X and Y closes under the
    bracket.  Raises DegenerateDistribution when X and Y are nearly
    parallel at an interior node.
    """
    header = _require_same_header(X, Y)
    b = lie_bracket(X, Y).samples
    # sin_angle and chat do not change when X and Y are scaled node by node
    xs, _ = _node_scaled(X.samples)
    ys, _ = _node_scaled(Y.samples)
    nx = np.linalg.norm(xs, axis=-1)
    ny = np.linalg.norm(ys, axis=-1)
    cross = np.cross(xs, ys)
    sin_angle = np.linalg.norm(cross, axis=-1) / np.maximum(nx * ny, 1e-300)
    inner = interior_mask(header.dims)
    if np.any(sin_angle[inner] <= _ANGLE_TOL):
        raise DegenerateDistribution(
            "X and Y nearly parallel at an interior node")
    # in R^3 the complement of span{X, Y} is the line along X x Y
    chat = cross / np.maximum(
        np.linalg.norm(cross, axis=-1, keepdims=True), 1e-300)
    residual = np.abs(_finite(np.einsum("...k,...k->...", b, chat),
                              "the Frobenius residual"))
    return residual, float(residual[inner].max())


@np.errstate(over="ignore", invalid="ignore")
def curvature(conn: ConnectionField, X: VectorFieldGrid, Y: VectorFieldGrid,
              Z: VectorFieldGrid) -> VectorFieldGrid:
    """F(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.

    Composes the discrete covariant derivative, so only nodes at depth 2
    from the boundary carry second-order-accurate values.  Each of the
    five fields it differentiates (Z, nabla_Y Z, nabla_X Z, X and Y) is
    differentiated once.
    """
    header = _require_same_header(X, Y, Z, conn)
    if any(d < 5 for d in header.dims):
        raise GridTooSmall(
            f"curvature needs >= 5 nodes per axis, got {header.dims}")
    dZ = partials(Z)
    nyz = _derivative(Y, Z, dZ, conn=conn)
    nxz = _derivative(X, Z, dZ, conn=conn)
    term1 = _derivative(X, nyz, partials(nyz), conn=conn).samples
    term2 = _derivative(Y, nxz, partials(nxz), conn=conn).samples
    term3 = _derivative(lie_bracket(X, Y), Z, dZ, conn=conn).samples
    F = term1 - term2 - term3
    return VectorFieldGrid(header, _finite(F, "the curvature"))


# ---------------------------------------------------------------------------
# involution-dual pair check


def _involution_index_map(header: GridHeader, other: GridHeader,
                          matrix: np.ndarray):
    """Per-node index arrays mapping node p of `header` to the node of
    `other` sitting at iota(p).  Raises HeaderMismatch when iota does not
    carry the node lattice onto the other lattice."""
    pos = header.node_positions()
    mapped = pos @ matrix.T
    f = (mapped - other.origin) / other.spacing
    idx = np.rint(f).astype(int)
    if np.max(np.abs(f - idx)) > 1e-6:
        raise HeaderMismatch("involution does not map nodes onto nodes")
    dims = np.asarray(other.dims)
    if np.any(idx < 0) or np.any(idx >= dims):
        raise HeaderMismatch("involution maps nodes outside the other grid")
    return idx[..., 0], idx[..., 1], idx[..., 2]


@np.errstate(over="ignore", invalid="ignore")
def duality_residual(conn1: ConnectionField, conn2: ConnectionField,
                     inv, probes) -> float:
    """Max deviation from the dual-pair curvature relation F1 = -iota* F2.

    `probes` is a triple (X, Y, Z) of fields on conn1's grid; they are
    pushed through the involution to evaluate F2, whose value is pulled
    back and added to F1.  Zero certifies the relation numerically.
    """
    X, Y, Z = probes
    h1 = _require_same_header(X, Y, Z, conn1)
    m = inv.matrix
    ix, iy, iz = _involution_index_map(h1, conn2.header, m)
    pushed = []
    for fld in (X, Y, Z):
        vals = np.zeros(conn2.header.dims + (3,))
        vals[ix, iy, iz] = _finite(fld.samples @ m.T, "a pushed field")
        pushed.append(VectorFieldGrid(conn2.header, vals))
    f1 = curvature(conn1, X, Y, Z).samples
    f2 = curvature(conn2, *pushed).samples
    pulled = f2[ix, iy, iz] @ m.T  # iota inverse = iota
    residual = _finite(f1 + pulled, "the duality residual")
    return VectorFieldGrid(h1, residual).max_interior_norm(depth=2)


# ---------------------------------------------------------------------------
# parallel transport


def parallel_transport(conn: ConnectionField, path, v0) -> np.ndarray:
    """Transport v0 along a polyline with the classical 4th-order stepper.

    Integrates v' = -Gamma(gamma(t))(gamma'(t), v) with Gamma trilinearly
    interpolated.  The path is walked in lattice coordinates, as the march
    is: a segment of D spacings takes n = ceil(4 |D|) steps, |D| a hypot
    that neither under- nor overflows, and Gamma(spacing D, .) is gathered
    at its 2n + 1 stage points.  So scaling the grid and the path by a
    power of two and Gamma by its inverse gives the same vector bitwise,
    and a repeated vertex adds no step.  The grid box is convex, so the
    vertices are tested before any segment is stepped, the first one more
    than 1e-9 spacings off the grid raising PathOutsideGrid; stage points
    are clipped to the box against rounding.  Raises DimMismatch unless
    the path's vertices and v0 are finite 3-vectors, and GridTooSmall for
    a path of fewer than 2 vertices.
    """
    pts = _as_array(path, (-1, 3), "path")
    if pts.shape[0] < 2:
        raise GridTooSmall("path needs at least 2 points")
    v = _as_array(v0, 3, "vector").copy()
    h, dims = conn.header, np.asarray(conn.header.dims)
    with np.errstate(over="ignore"):  # a vertex past float64 is outside
        lat = (pts - h.origin) / h.spacing
    outside = np.any((lat < -1e-9) | (lat > dims - 1 + 1e-9), axis=-1)
    if np.any(outside):
        raise PathOutsideGrid(
            f"path vertex {pts[np.argmax(outside)]} outside grid")
    for a, d in zip(lat[:-1], np.diff(lat, axis=0)):  # d: gamma' in spacings
        nsteps = int(np.ceil(_STEPS_PER_SPACING * np.hypot.reduce(d)))
        if nsteps == 0:
            continue
        dt = 1.0 / nsteps
        f = np.clip(a + np.arange(2 * nsteps + 1)[:, None] * (0.5 * dt) * d,
                    0.0, dims - 1)
        i0 = np.minimum(np.floor(f).astype(int), dims - 2)
        wgt = _trilinear_weights(f - i0)
        idx = i0[:, None, :] + np.array(list(np.ndindex(2, 2, 2)))
        g = conn.gamma[idx[..., 0], idx[..., 1], idx[..., 2]]  # (m, 8, ...)
        # corner by corner, so Gamma sums in the same order at every point
        gamma = sum(wgt[:, k, None, None, None] * g[:, k] for k in range(8))
        A = -np.einsum("mkij,i->mkj", gamma, h.spacing * d)  # v' = A[m] v
        for s in range(0, 2 * nsteps, 2):
            k1 = A[s] @ v
            k2 = A[s + 1] @ (v + 0.5 * dt * k1)
            k3 = A[s + 1] @ (v + 0.5 * dt * k2)
            k4 = A[s + 2] @ (v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


# ---------------------------------------------------------------------------
# aggregate verdict


def default_tolerance(spacing: float) -> float:
    """Verdict tolerance tied to the discretization error, >= 1e-6."""
    return max(1e-6, 10.0 * spacing * spacing)


def integrability_report(X: VectorFieldGrid, Y: VectorFieldGrid,
                         conn: ConnectionField,
                         tol: float | None = None) -> IntegrabilityReport:
    """Aggregate obstruction maxima over interior nodes into a verdict.

    Raises DimMismatch when tol is NaN, negative or infinite, the
    default 10 h^2 of a spacing h that large included.
    """
    header = _require_same_header(X, Y, conn)
    if tol is None:
        tol = default_tolerance(header.spacing)
    _require_tol(tol)
    hmax = hantjies_tensor(X, Y, conn).max_interior_norm()
    _, fmax = frobenius_residual(X, Y)
    inner = int(interior_mask(header.dims).sum())
    return IntegrabilityReport(
        max_hantjies_norm=hmax,
        max_frobenius_residual=fmax,
        integrable=bool(hmax <= tol and fmax <= tol),
        tolerance=float(tol),
        interior_node_count=inner)
