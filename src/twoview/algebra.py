"""Finite algebraic diagnostics: associativity, the Moufang identity on
possibly-partial composition tables, and the twisted-bracket Jacobiator.

Partial tables model category-like partial composition: an entry may be
undefined, and an identity is only checked on triples whose every needed
product is defined.  The scans pad the table with one row and one column
of UNDEFINED; since UNDEFINED == -1 indexes that padding, any product
with an undefined factor is undefined, with no branch.  Witnesses are the
lexicographically smallest violating triples, so verdicts are
deterministic.
"""

from __future__ import annotations


import numpy as np

from . import diffgeo
from .errors import DimMismatch
from .geometry import Record, _as_array, _require_int

UNDEFINED = -1


class FiniteMagma(Record):
    """n x n composition table; UNDEFINED (-1) marks missing products.

    Raises DimMismatch unless the table is square and each entry is an
    integer, in 0..n-1 or UNDEFINED.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table)
        # numpy's integer and bool dtypes hold exactly the entries that
        # operator.index takes; any other array's entries go through it one
        # by one, so a float, NaN, None or string entry is refused, not
        # truncated
        if t.dtype.kind not in "biu":
            t = np.array([_require_int(v, "table entry") for v in t.flat])
        t = t.reshape(np.shape(self.table))
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimMismatch(f"table must be square, got shape {t.shape}")
        # UNDEFINED is -1, so the entries lie in -1..n-1; checked before the
        # int64 conversion, which an entry past int64 would overflow and a
        # uint64 one past int64 would wrap
        if np.any((t < UNDEFINED) | (t >= t.shape[0])):
            raise DimMismatch("table entries must be in 0..n-1 or undefined")
        object.__setattr__(self, "table", t.astype(int))

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def is_total(self) -> bool:
        return bool(np.all(self.table != UNDEFINED))

    def op(self, a: int, b: int) -> int:
        """Product a * b, or UNDEFINED.  Raises DimMismatch unless a and b
        are integers in 0..n-1."""
        a, b = (_require_int(x, "element", 0) for x in (a, b))
        if max(a, b) >= self.order:
            raise DimMismatch(f"elements must be < {self.order}: {a}, {b}")
        return int(self.table[a, b])

    @classmethod
    def cyclic_group(cls, n: int) -> "FiniteMagma":
        idx = np.arange(n)
        return cls((idx[:, None] + idx[None, :]) % n)


class Verdict(Record):
    """Outcome of an exhaustive identity scan."""

    holds: bool
    witness: tuple | None = None


def _first_violation(n: int, bad) -> Verdict:
    """First a whose (n, n) mask bad(a) over (b, c) has a hit; argmax of
    the row-major mask gives the smallest (b, c) for that a."""
    for a in range(n):
        mask = bad(a)
        k = int(np.argmax(mask))
        if mask.flat[k]:
            return Verdict(False, (a, *divmod(k, n)))
    return Verdict(True)


def check_associative(m: FiniteMagma) -> Verdict:
    """Exhaustive (a*b)*c = a*(b*c) scan over fully-defined triples.

    Returns the lexicographically first violating triple as witness.
    """
    n = m.order
    t = np.pad(m.table, (0, 1), constant_values=UNDEFINED)

    def bad(a):
        left, right = t[t[a, :n], :n], t[a, m.table]
        return (left != right) & (left != UNDEFINED) & (right != UNDEFINED)

    return _first_violation(n, bad)


def check_moufang(m: FiniteMagma, strict: bool = False) -> Verdict:
    """Exhaustive (a*b)*(c*a) = (a*(b*c))*a scan.

    The right-hand side is left-associated; with strict=True the other
    parenthesization a*((b*c)*a) must agree as well wherever it is
    defined.  Triples with any undefined intermediate product are skipped.
    """
    n = m.order
    t = np.pad(m.table, (0, 1), constant_values=UNDEFINED)

    def bad(a):
        lhs = t[t[a, :n, None], t[None, :n, a]]
        rhs = t[t[a, m.table], a]
        hit = lhs != rhs
        if strict:
            rhs2 = t[a, t[m.table, a]]
            hit |= (lhs != rhs2) & (rhs2 != UNDEFINED)
        return hit & (lhs != UNDEFINED) & (rhs != UNDEFINED)

    return _first_violation(n, bad)


# ---------------------------------------------------------------------------
# twisted bracket


class TwistMap(Record):
    """Bilinear antisymmetric map H^k(a, b) = c^k_ij a^i b^j on R^3.

    Raises DimMismatch unless coeffs is a finite 3x3x3 array, indexed
    [k, i, j], antisymmetric in (i, j).
    """

    coeffs: np.ndarray

    @np.errstate(over="ignore")  # c + c^T of huge entries may be infinite
    def __post_init__(self):
        c = _as_array(self.coeffs, None, "twist coefficients")
        if c.shape != (3, 3, 3):
            raise DimMismatch(f"twist coefficients must be a 3x3x3 array, "
                              f"got shape {c.shape}")
        if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > 0.0:
            raise DimMismatch("twist coefficients must be antisymmetric in (i, j)")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, a, b) -> np.ndarray:
        # one (..., 9) @ (9, 3) product of a (x) b: a 3-operand einsum
        # takes over twice as long
        ab = diffgeo._outer(np.asarray(a, dtype=float),
                            np.asarray(b, dtype=float))
        return ab @ self.coeffs.reshape(3, 9).T

    @classmethod
    def zero(cls) -> "TwistMap":
        return cls(np.zeros((3, 3, 3)))

    @classmethod
    def from_cross_product(cls, matrix=None) -> "TwistMap":
        """H(a, b) = A (a x b); identity A gives the plain cross product.
        Raises DimMismatch unless A is a finite 3x3 array."""
        A = np.eye(3) if matrix is None else _as_array(matrix, (3, 3),
                                                          "twist matrix")
        eps = np.cross(np.eye(3)[:, None], np.eye(3))  # [i, j] = e_i x e_j
        return cls(np.einsum("kl,ijl->kij", A, eps))


@np.errstate(over="ignore", invalid="ignore")
def twisted_bracket(X: diffgeo.VectorFieldGrid, Y: diffgeo.VectorFieldGrid,
                    H: TwistMap) -> diffgeo.VectorFieldGrid:
    """[X, Y]_H = [X, Y] + H(X, Y), node-wise."""
    b = diffgeo.lie_bracket(X, Y).samples + H(X.samples, Y.samples)
    return diffgeo.VectorFieldGrid(X.header,
                                   diffgeo._finite(b, "the twisted bracket"))


@np.errstate(over="ignore", invalid="ignore")
def jacobiator(X: diffgeo.VectorFieldGrid, Y: diffgeo.VectorFieldGrid,
               Z: diffgeo.VectorFieldGrid, H: TwistMap):
    """The cyclic sum of [X, [Y, Z]_H]_H (the negative of that of
    [[X, Y]_H, Z]_H), plus its max interior norm.

    Zero iff the twisted bracket satisfies the Jacobi identity on these
    fields.  H is constant, so [X, [Y, Z]_H]_H = [X, [Y, Z]] + H(X . d Y, Z)
    + H(Y, X . d Z) - (H(Y, Z) . d) X + H(X, [Y, Z] + H(Y, Z)).  Summed
    cyclically, the plain brackets cancel (the Jacobi identity), and, H
    being antisymmetric, so does every term with a derivative of one field
    along another, leaving the closed form evaluated here: the cyclic sum
    of H(X, H(Y, Z)) - (H(Y, Z) . d) X.  Only X, Y and Z are
    differentiated, once each; every interior node is second-order
    accurate, and the plain bracket (H = 0) gives exactly 0.
    """
    header = diffgeo._require_same_header(X, Y, Z)
    total = np.zeros(header.dims + (3,))
    for a, b, c in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
        hbc = H(b.samples, c.samples)
        total += H(a.samples, hbc) - diffgeo._along(hbc, a)
    field = diffgeo.VectorFieldGrid(header,
                                    diffgeo._finite(total, "the jacobiator"))
    return field, field.max_interior_norm()
