import tracemalloc

import numpy as np
import pytest

from twoview.errors import DimMismatch
from twoview.algebra import (
    UNDEFINED,
    FiniteMagma,
    TwistMap,
    Verdict,
    check_associative,
    check_moufang,
    jacobiator,
    twisted_bracket,
)
from twoview.diffgeo import ConnectionField, GridHeader, VectorFieldGrid, \
    lie_bracket
from conftest import smooth_waves


def exhaustive_assoc_oracle(table):
    """Pure-python triple loop, independent of the library scan."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab, bc = table[a][b], table[b][c]
                if UNDEFINED in (ab, bc):
                    continue
                left, right = table[ab][c], table[a][bc]
                if UNDEFINED in (left, right):
                    continue
                if left != right:
                    return (a, b, c)
    return None


def exhaustive_moufang_oracle(table, strict=False):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab, ca, bc = table[a][b], table[c][a], table[b][c]
                if UNDEFINED in (ab, ca, bc):
                    continue
                lhs, a_bc = table[ab][ca], table[a][bc]
                if UNDEFINED in (lhs, a_bc):
                    continue
                rhs = table[a_bc][a]
                if rhs == UNDEFINED:
                    continue
                if lhs != rhs:
                    return (a, b, c)
                if strict and table[bc][a] != UNDEFINED:
                    rhs2 = table[a][table[bc][a]]
                    if rhs2 != UNDEFINED and lhs != rhs2:
                        return (a, b, c)
    return None


def s3_table():
    """Composition table of the six permutations of {0,1,2}, built from
    actual function composition rather than any group-theory shortcut."""
    from itertools import permutations
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.empty((n, n), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(3))]
    return table


def nonassoc_latin_square():
    """a * b = (2a + b) mod 5: a quasigroup, not associative."""
    idx = np.arange(5)
    return (2 * idx[:, None] + idx[None, :]) % 5


def random_partial_tables(per_order=4, seed=10):
    """Seeded random tables of orders 1-8, about 30% of entries undefined."""
    rng = np.random.default_rng(seed)
    tables = {}
    for n in range(1, 9):
        for k in range(per_order):
            t = rng.integers(0, n, (n, n))
            t[rng.random((n, n)) < 0.3] = UNDEFINED
            tables[f"random{n}-{k}"] = t
    return tables


def cyclic80_one_entry_changed():
    t = FiniteMagma.cyclic_group(80).table.copy()
    t[79, 78] = 0
    return t


# the witness of each must equal the pure-python oracle's
ORACLE_TABLES = {"latin5": nonassoc_latin_square(),
                 "cyclic80-changed": cyclic80_one_entry_changed(),
                 **random_partial_tables()}
oracle_tables = pytest.mark.parametrize(
    "table", ORACLE_TABLES.values(), ids=ORACLE_TABLES.keys())


class TestFiniteMagma:
    def test_cyclic_group_table(self):
        m = FiniteMagma.cyclic_group(4)
        assert m.order == 4
        assert m.is_total
        assert m.op(3, 2) == 1

    def test_partial_entries(self):
        m = FiniteMagma([[0, UNDEFINED], [UNDEFINED, 1]])
        assert not m.is_total
        assert m.op(0, 1) == UNDEFINED

    def test_rejects_nonsquare(self):
        with pytest.raises(DimMismatch):
            FiniteMagma([[0, 1, 0], [1, 0, 1]])

    @pytest.mark.parametrize("table", [
        [[0, 5], [1, 0]], [[0, -2], [1, 0]], [[2**70, 0], [0, 1]],
        np.array([[2**70, 0], [0, 1]], dtype=object),
        np.array([[2**64 - 1, 0], [0, 1]], dtype=np.uint64),
    ], ids=["5", "-2", "2^70", "object-2^70", "uint64-max"])
    def test_rejects_out_of_range(self, table):
        # 2^70 once escaped as a bare OverflowError from the int64
        # conversion, and the largest uint64 wrapped to -1, undefined
        with pytest.raises(DimMismatch, match="table entries must be in"):
            FiniteMagma(table)

    @pytest.mark.parametrize("table", [
        [[1.5, 0], [0, 1]], [[np.nan, 0], [0, 1]], [[1.0, 0], [0, 1]],
        [["0", "1"], ["1", "0"]], [[0, None], [1, 0]],
        np.array([[1.5, 0], [0, 1]], dtype=object),
    ], ids=["1.5", "nan", "1.0", "str", "None", "object-1.5"])
    def test_rejects_non_integer_entries(self, table):
        # 1.5 was once truncated to 1 (in an object array too), a NaN
        # raised numpy's ValueError and a None a TypeError
        with pytest.raises(DimMismatch,
                           match="table entry must be an integer"):
            FiniteMagma(table)

    def test_integer_and_bool_arrays(self):
        for dtype in (np.int8, np.uint16, np.int64, bool):
            m = FiniteMagma(np.eye(2, dtype=dtype))
            assert m.table.dtype == int
            assert m.op(0, 0) == 1 and m.op(0, 1) == 0


class TestAssociativity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_cyclic_groups_pass(self, n):
        assert check_associative(FiniteMagma.cyclic_group(n)).holds

    def test_s3_passes(self):
        assert check_associative(FiniteMagma(s3_table())).holds

    @oracle_tables
    def test_oracle_verdict_and_witness(self, table):
        verdict = check_associative(FiniteMagma(table))
        witness = exhaustive_assoc_oracle(table.tolist())
        assert verdict == Verdict(witness is None, witness)
        assert all(type(x) is int for x in verdict.witness or ())

    def test_relabeling_preserves_associativity(self, rng):
        base = s3_table()
        for _ in range(5):
            sigma = rng.permutation(6)
            inv = np.argsort(sigma)
            relabeled = sigma[base[np.ix_(inv, inv)]]
            assert check_associative(FiniteMagma(relabeled)).holds

    PARTIAL = {"latin5": nonassoc_latin_square(),
               **random_partial_tables(seed=11)}

    @pytest.mark.parametrize("table", PARTIAL.values(), ids=PARTIAL.keys())
    def test_partial_table_skips_missing(self, table):
        # blank the entry that the violating triple needs: the witness moves
        table = table.tolist()
        first = exhaustive_assoc_oracle(table)
        assert check_associative(FiniteMagma(table)).witness == first
        if first is None:
            return
        a, b, _ = first
        table[a][b] = UNDEFINED
        got = check_associative(FiniteMagma(table))
        witness = exhaustive_assoc_oracle(table)
        assert got == Verdict(witness is None, witness)
        assert witness != first


class TestMoufang:
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_groups_pass(self, n):
        assert check_moufang(FiniteMagma.cyclic_group(n)).holds
        assert check_moufang(FiniteMagma.cyclic_group(n), strict=True).holds

    def test_s3_passes_strict(self):
        assert check_moufang(FiniteMagma(s3_table()), strict=True).holds

    @pytest.mark.parametrize("strict", [False, True])
    @oracle_tables
    def test_oracle_verdict_and_witness(self, table, strict):
        verdict = check_moufang(FiniteMagma(table), strict=strict)
        witness = exhaustive_moufang_oracle(table.tolist(), strict)
        assert verdict == Verdict(witness is None, witness)
        assert all(type(x) is int for x in verdict.witness or ())

    def test_associative_implies_moufang(self, rng):
        # relabelings of groups stay associative, hence Moufang
        for n in (3, 4, 6):
            base = FiniteMagma.cyclic_group(n).table
            sigma = rng.permutation(n)
            inv = np.argsort(sigma)
            m = FiniteMagma(sigma[base[np.ix_(inv, inv)]])
            assert check_associative(m).holds
            assert check_moufang(m, strict=True).holds

    def test_fully_undefined_vacuous(self):
        m = FiniteMagma(np.full((3, 3), UNDEFINED))
        assert check_associative(m).holds
        assert check_moufang(m).holds

    def test_order_200_scans_stay_quadratic_in_memory(self):
        # an (n, n, n) int64 array alone would take 200^3 * 8 B = 64 MB
        m = FiniteMagma.cyclic_group(200)
        for scan in (check_associative,
                     lambda m: check_moufang(m, strict=True)):
            tracemalloc.start()
            try:
                assert scan(m).holds
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20


def grid(h=0.1, n=7):
    o = -h * (n - 1) / 2
    return GridHeader((n, n, n), h, (o, o, o))


class TestTwistMap:
    def test_rejects_symmetric_coeffs(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 1] = 1.0
        with pytest.raises(DimMismatch):
            TwistMap(c)

    @pytest.mark.parametrize("coeffs", [
        np.full((3, 3, 3), np.nan), np.zeros((2, 2)), np.zeros(27),
    ], ids=["nan", "2x2", "flat"])
    def test_rejects_non_finite_or_misshaped_coeffs(self, coeffs):
        with pytest.raises(DimMismatch):
            TwistMap(coeffs)

    def test_zero_twist(self):
        a = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(TwistMap.zero()(a, a), [0, 0, 0])

    def test_cross_product(self, rng):
        H = TwistMap.from_cross_product()
        for _ in range(10):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(H(a, b), np.cross(a, b), atol=1e-14)

    def test_matrix_twist_oracle(self, rng):
        A = rng.standard_normal((3, 3))
        H = TwistMap.from_cross_product(A)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(H(a, b), A @ np.cross(a, b), atol=1e-13)

    def test_antisymmetry(self, rng):
        H = TwistMap.from_cross_product(rng.standard_normal((3, 3)))
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(H(a, b), -H(b, a), atol=1e-14)


class TestTwistedBracket:
    def test_zero_twist_is_lie_bracket(self, rng):
        header = grid()
        X = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        Y = VectorFieldGrid(header, rng.standard_normal(header.dims + (3,)))
        np.testing.assert_array_equal(
            twisted_bracket(X, Y, TwistMap.zero()).samples,
            lie_bracket(X, Y).samples)

    def test_constant_fields_pure_twist(self):
        header = grid()
        X = VectorFieldGrid.constant(header, (1, 0, 0))
        Y = VectorFieldGrid.constant(header, (0, 1, 0))
        out = twisted_bracket(X, Y, TwistMap.from_cross_product())
        np.testing.assert_allclose(
            out.samples, np.broadcast_to([0, 0, 1.0], header.dims + (3,)),
            atol=1e-12)


class TestJacobiator:
    def probes(self, header):
        X = VectorFieldGrid.from_function(
            header, lambda x, y, z: (np.sin(y), np.cos(z), np.exp(x)))
        Y = VectorFieldGrid.from_function(
            header, lambda x, y, z: (np.exp(-z), x * y, np.cos(x)))
        Z = VectorFieldGrid.from_function(
            header, lambda x, y, z: (np.ones_like(x), np.sin(x),
                                     np.exp(y * z)))
        return X, Y, Z

    def test_plain_bracket_jacobi(self):
        # exactly, at every node: the closed form is a sum of twist terms
        header = grid(h=0.05, n=9)
        field, jmax = jacobiator(*self.probes(header), TwistMap.zero())
        assert jmax == 0.0
        assert not field.samples.any()

    def test_cross_product_constants_jacobi(self):
        # a x (b x c) cycled sums to zero; brackets of constants vanish too
        header = grid()
        X = VectorFieldGrid.constant(header, (0.3, -1.0, 0.2))
        Y = VectorFieldGrid.constant(header, (1.1, 0.4, -0.5))
        Z = VectorFieldGrid.constant(header, (-0.7, 0.9, 0.6))
        _, jmax = jacobiator(X, Y, Z, TwistMap.from_cross_product())
        assert jmax <= 1e-12

    def test_matrix_twist_breaks_jacobi(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        header = grid()
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        c = np.array([0.0, 0.0, 1.0])
        X = VectorFieldGrid.constant(header, a)
        Y = VectorFieldGrid.constant(header, b)
        Z = VectorFieldGrid.constant(header, c)
        field, jmax = jacobiator(X, Y, Z, TwistMap.from_cross_product(A))
        # direct evaluation of the cyclic sum with plain numpy
        expected = np.zeros(3)
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            expected += A @ np.cross(u, A @ np.cross(v, w))
        assert np.linalg.norm(expected) > 0.1
        assert jmax == pytest.approx(np.linalg.norm(expected), abs=1e-12)
        np.testing.assert_allclose(field.samples[3, 3, 3], expected,
                                   atol=1e-12)

    def test_three_nodes_per_axis_suffice(self):
        header = GridHeader((3, 3, 3), 0.1, (0, 0, 0))
        X = VectorFieldGrid.constant(header, (1, 0, 0))
        field, jmax = jacobiator(X, X, X, TwistMap.zero())
        assert jmax == 0.0
        assert not field.samples.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_each_field_differentiated_once(self, seed, monkeypatch):
        # oracle: the cyclic sum of public twisted brackets, which
        # differentiate X, Y and Z three times each and each inner bracket
        # once (12 partials for 6 distinct fields), under a random
        # cross-product twist; the two agree to O(h^2) at the nodes at
        # depth 2 from every face
        errs = []
        for n, h in ((17, 0.05), (33, 0.025)):
            rng = np.random.default_rng(seed)
            header = GridHeader((n, n, n), h, (-0.4, -0.4, -0.4))
            X, Y, Z = (VectorFieldGrid(header, smooth_waves(header, rng, (3,)))
                       for _ in range(3))
            H = TwistMap.from_cross_product(rng.standard_normal((3, 3)))
            expected = np.zeros(header.dims + (3,))
            for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
                expected += twisted_bracket(A, twisted_bracket(B, C, H),
                                            H).samples
            with monkeypatch.context() as m:
                calls = []
                real = np.gradient
                m.setattr(np, "gradient", lambda f, *a, **k:
                          calls.append((id(f), k["axis"])) or real(f, *a, **k))
                field, jmax = jacobiator(X, Y, Z, H)
            # each of X, Y and Z is differentiated once per axis
            assert sorted(calls) == sorted(
                (id(F.samples), axis) for F in (X, Y, Z) for axis in range(3))
            assert jmax == field.max_interior_norm()
            depth2 = (slice(2, -2),) * 3
            errs.append(np.abs(field.samples - expected)[depth2].max())
            assert errs[-1] <= 2 * h * h
        assert 3.0 <= errs[0] / errs[1] <= 5.0
