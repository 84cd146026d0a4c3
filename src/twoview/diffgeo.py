"""Discrete differential geometry on regular grids.

Vector fields and Christoffel symbols are sampled per node; derivatives
use second-order central differences in the interior and one-sided
second-order stencils at the boundary, so report maxima are taken over
the interior nodes only, `INTERIOR`.  Each node-wise rule has one owner:
`_along` differentiates a field along a vector, one axis at a time, and
`_contract` contracts Gamma, or a partial of it, with a pair of vectors.
No diagnostic composes two derivatives: curvature differentiates Gamma
alone and the jacobiator its three fields, so every value is
second-order accurate at every interior node.  Overflow in a computed
field raises NumericalError, not a numpy warning.  The integrability
obstruction is exposed twice: as the Hantjies tensor, the torsion of
Gamma acting on X x Y, which is the closed form Gamma(X, Y) - Gamma(Y, X)
of the literal formula (the tests keep that as its oracle) and exactly
zero on a torsion-free connection at any scale, and as the Frobenius
residual, the component of the Lie bracket sticking out of the spanned
distribution.  The uniqueness certificate consumes both.
"""

from __future__ import annotations


import numpy as np

from .errors import (
    DegenerateDistribution,
    GridTooSmall,
    HeaderMismatch,
    NumericalError,
    PathOutsideGrid,
)
from .geometry import (GridHeader, Record, _as_array, _exponent,
                       _require_tol, _trilinear_weights)

_STEPS_PER_SPACING = 4  # RK4 steps per node spacing of path length
# X and Y count as nearly parallel where the sine of their angle is at most
# this
_ANGLE_TOL = 1e-8
# the interior: every node at least one node away from every face, where the
# stencils are central; report maxima are taken over it
INTERIOR = (slice(1, -1),) * 3


def _require_same_header(*objs):
    h0 = objs[0].header
    for o in objs[1:]:
        if not h0.matches(o.header):
            raise HeaderMismatch(f"grid headers differ: {h0} vs {o.header}")
    return h0


def _finite(values, what: str):
    """values, computed from finite inputs under `np.errstate`; raises
    NumericalError where that overflowed (a non-finite input sample is the
    constructors' HeaderMismatch)."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} overflows to non-finite values")
    return values


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


class VectorFieldGrid(Record):
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
        vals = fn(*np.moveaxis(header.node_positions(), -1, 0))
        vals = np.stack([np.broadcast_to(np.asarray(v, dtype=float),
                                         header.dims) for v in vals], axis=-1)
        return cls(header, vals)

    @classmethod
    def constant(cls, header: GridHeader, v) -> "VectorFieldGrid":
        vals = np.broadcast_to(np.asarray(v, dtype=float), header.dims + (3,))
        return cls(header, vals.copy())

    @np.errstate(over="ignore", invalid="ignore")
    def max_interior_norm(self) -> float:
        """Largest |sample| over the interior nodes."""
        # each node scaled by its own power of two, so no norm overflows
        s = self.samples[INTERIOR]
        e = _exponent(s, -1)
        norms = np.ldexp(np.linalg.norm(np.ldexp(s, -e), axis=-1), e[..., 0])
        return float(_finite(norms, "the field's norm").max())


class ConnectionField(Record):
    """Per-node Christoffel symbols gamma[..., k, i, j] for Gamma^k_ij."""

    header: GridHeader
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _node_array(
            self.header, self.gamma, (3, 3, 3), "Christoffel"))

    @classmethod
    def flat(cls, header: GridHeader) -> "ConnectionField":
        return cls(header, np.zeros(header.dims + (3, 3, 3)))


class IntegrabilityReport(Record):
    max_hantjies_norm: float
    max_frobenius_residual: float
    integrable: bool
    tolerance: float
    interior_node_count: int


# ---------------------------------------------------------------------------
# derivatives


def _along(v: np.ndarray, Y: VectorFieldGrid) -> np.ndarray:
    """(v . d) Y^k = v^i d_i Y^k, node-wise: the one directional derivative.

    Y is differentiated one axis at a time, by central differences in the
    interior and one-sided order-2 stencils at the boundary.
    """
    return sum(v[..., i, None] * np.gradient(Y.samples, Y.header.spacing,
                                             axis=i, edge_order=2)
               for i in range(3))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^i b^j, node-wise, flattened to (..., 9): a bilinear map of (a, b)
    is a linear map of it."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (9,))


def _contract(c: np.ndarray, o: np.ndarray) -> np.ndarray:
    """c^k_ij o_ij, node-wise, for c (..., 3, 3, 3) and o = _outer(a, b):
    the one contraction of Gamma, or of a partial of it, with a pair."""
    return np.einsum("...kw,...w->...k", c.reshape(o.shape[:-1] + (3, 9)), o)


@np.errstate(over="ignore", invalid="ignore")
def covariant_derivative(X: VectorFieldGrid, Y: VectorFieldGrid,
                         conn: ConnectionField) -> VectorFieldGrid:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j, node-wise."""
    _require_same_header(X, Y, conn)
    v = _along(X.samples, Y) + _contract(conn.gamma,
                                         _outer(X.samples, Y.samples))
    return VectorFieldGrid(X.header, _finite(v, "the covariant derivative"))


@np.errstate(over="ignore", invalid="ignore")
def lie_bracket(X: VectorFieldGrid, Y: VectorFieldGrid) -> VectorFieldGrid:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k via the shared stencils."""
    _require_same_header(X, Y)
    b = _along(X.samples, Y) - _along(Y.samples, X)
    return VectorFieldGrid(X.header, _finite(b, "the Lie bracket"))


@np.errstate(over="ignore", invalid="ignore")
def hantjies_tensor(X: VectorFieldGrid, Y: VectorFieldGrid,
                    conn: ConnectionField) -> VectorFieldGrid:
    """Antisymmetrized covariant derivative minus the bracket.

    nabla_X Y - nabla_Y X - [X, Y] in closed form: the stencils cancel,
    leaving Gamma(X, Y) - Gamma(Y, X) = T(X, Y), the torsion
    T^k_ij = Gamma^k_ij - Gamma^k_ji.  In 3-D T(X, Y) depends on X and Y
    only through c = X x Y, as T^k_12 c_0 + T^k_20 c_1 + T^k_01 c_2, which
    is evaluated here, with X and Y scaled node by node so that c neither
    overflows nor underflows: exactly zero for a symmetric Gamma at any
    scale and for X = Y, and bitwise antisymmetric in X and Y.  The tests
    keep the literal formula.
    """
    header = _require_same_header(X, Y, conn)
    g, x, y = conn.gamma, X.samples, Y.samples
    h = np.zeros(x.shape)
    # one slab along the first axis at a time, so every temporary is one
    # slab; each node's X and Y scaled by their own powers of two
    # (`_exponent`), and h scaled back by their product, all exact
    for gs, xs, ys, hs in zip(g, x, y, h):
        ex, ey = _exponent(xs, -1), _exponent(ys, -1)
        xs, ys = np.ldexp(xs, -ex), np.ldexp(ys, -ey)
        for i, j in ((1, 2), (2, 0), (0, 1)):
            c = xs[..., i] * ys[..., j] - xs[..., j] * ys[..., i]
            hs += (gs[..., :, i, j] - gs[..., :, j, i]) * c[..., None]
        np.ldexp(hs, ex + ey, out=hs)
    return VectorFieldGrid(header, _finite(h, "the Hantjies tensor"))


@np.errstate(over="ignore", invalid="ignore")
def frobenius_residual(X: VectorFieldGrid, Y: VectorFieldGrid):
    """Component of [X, Y] orthogonal to span{X, Y}, node by node.

    Returns (residual_field, max_over_interior).  The residual vanishes
    exactly where the plane field spanned by X and Y closes under the
    bracket.  Raises DegenerateDistribution when X and Y are nearly
    parallel at an interior node.
    """
    b = lie_bracket(X, Y).samples  # which checks the headers
    # sin_angle and chat do not change when X and Y are scaled node by node,
    # each by its own power of two (`_exponent`), so no product overflows
    xs = np.ldexp(X.samples, -_exponent(X.samples, -1))
    ys = np.ldexp(Y.samples, -_exponent(Y.samples, -1))
    nx = np.linalg.norm(xs, axis=-1)
    ny = np.linalg.norm(ys, axis=-1)
    cross = np.cross(xs, ys)
    sin_angle = np.linalg.norm(cross, axis=-1) / np.maximum(nx * ny, 1e-300)
    if np.any(sin_angle[INTERIOR] <= _ANGLE_TOL):
        raise DegenerateDistribution(
            "X and Y nearly parallel at an interior node")
    # in R^3 the complement of span{X, Y} is the line along X x Y
    chat = cross / np.maximum(
        np.linalg.norm(cross, axis=-1, keepdims=True), 1e-300)
    residual = np.abs(_finite(np.einsum("...k,...k->...", b, chat),
                              "the Frobenius residual"))
    return residual, float(residual[INTERIOR].max())


@np.errstate(over="ignore", invalid="ignore")
def curvature(conn: ConnectionField, X: VectorFieldGrid, Y: VectorFieldGrid,
              Z: VectorFieldGrid) -> VectorFieldGrid:
    """F(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.

    Every derivative of X, Y and Z cancels from it, leaving the closed
    form u(X, Y) - u(Y, X), u(X, Y) = (d_X Gamma)(Y, Z) + Gamma(X, Gamma(Y,
    Z)) (Kobayashi & Nomizu, Foundations of Differential Geometry I, ch.
    III).  Only Gamma is differentiated, by the stencils `_along` uses,
    one axis at a time.  Gamma(a, b) is linear in the outer product of a
    and b, so each difference is taken before it is contracted
    (`_contract`): Gamma with X (x) Gamma(Y, Z) - Y (x) Gamma(X, Z), and
    d_a Gamma with (X^a Y - Y^a X) (x) Z.  Swapping X and Y negates both
    exactly, so F is bitwise antisymmetric in X and Y.  Second-order
    accurate at every interior node, and exact wherever Gamma is quadratic
    in position.
    """
    header = _require_same_header(X, Y, Z, conn)
    g, x, y, z = conn.gamma, X.samples, Y.samples, Z.samples
    h = header.spacing
    gz = np.einsum("...kij,...j->...ik", g, z)  # Gamma(v, Z)^k = v^i gz_ik
    gyz = np.einsum("...i,...ik->...k", np.stack([y, x]), gz)  # v = Y, X
    F = _contract(g, _outer(x, gyz[0]) - _outer(y, gyz[1]))
    del gyz  # not kept through the loop over d_a Gamma
    for a in range(3):
        w = x[..., a, None] * y - y[..., a, None] * x
        F += _contract(np.gradient(g, h, axis=a, edge_order=2), _outer(w, z))
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
    vals = np.zeros((3,) + conn2.header.dims + (3,))
    vals[:, ix, iy, iz] = _finite(np.stack([X.samples, Y.samples, Z.samples])
                                  @ m.T, "a pushed field")
    pushed = [VectorFieldGrid(conn2.header, v) for v in vals]
    f1 = curvature(conn1, X, Y, Z).samples
    f2 = curvature(conn2, *pushed).samples
    pulled = f2[ix, iy, iz] @ m.T  # iota inverse = iota
    residual = _finite(f1 + pulled, "the duality residual")
    return VectorFieldGrid(h1, residual).max_interior_norm()


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

    Raises DimMismatch unless tol is a real number, finite and >= 0, the
    default 10 h^2 of a spacing h included.
    """
    header = _require_same_header(X, Y, conn)
    tol = _require_tol(default_tolerance(header.spacing) if tol is None
                       else tol)
    hmax = hantjies_tensor(X, Y, conn).max_interior_norm()
    _, fmax = frobenius_residual(X, Y)
    return IntegrabilityReport(
        max_hantjies_norm=hmax,
        max_frobenius_residual=fmax,
        integrable=bool(hmax <= tol and fmax <= tol),
        tolerance=tol,
        interior_node_count=int(np.prod(np.subtract(header.dims, 2))))
