"""Exact and certified ranks, cross-checked against the oracles."""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrperm import linalg
from ekrperm.chartab import dimension
from ekrperm.linalg import (
    bareiss_rank,
    certified_family_rank,
    certified_rank,
    rank_profile_mod_p,
)
from ekrperm.permgroup import partitions_of
from ekrperm.scheme import constraint_families

import oracles


def _matvec(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def gram_matrix(rows):
    """rows * rows^T for integer rows; rank(gram) = rank(rows) over the rationals."""
    return [_matvec(rows, r) for r in rows]


def kron(a, b) -> list[list[int]]:
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def complete_graph_matrix(n: int) -> list[list[int]]:
    """Adjacency matrix of the complete graph on n vertices."""
    return [[int(i != j) for j in range(n)] for i in range(n)]


@st.composite
def _tall_and_wide_matrices(draw):
    """Integer matrices of 1 to 8 rows and 1 to 8 columns, either side the longer."""
    cols = draw(st.integers(1, 8))
    row = st.lists(st.integers(-4, 4), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=8))


class TestRanks:
    def test_known_ranks(self):
        assert bareiss_rank(identity_matrix(4)) == 4
        assert bareiss_rank([[1, 2], [2, 4]]) == 1
        assert bareiss_rank([[0, 0], [0, 0]]) == 0
        assert bareiss_rank([]) == 0
        assert bareiss_rank([[1, 2, 3]]) == 1

    def test_rank_of_complete_graph(self):
        # J - I is invertible for n >= 2
        for n in range(2, 7):
            assert bareiss_rank(complete_graph_matrix(n)) == n

    def test_bareiss_matches_gaussian_on_random_integer_matrices(self):
        rng = random.Random(11)
        for _ in range(25):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            m = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
            assert bareiss_rank(m) == oracles.gaussian_rank(m)

    @pytest.mark.parametrize("bad", [0.5, 2.0, float("nan"), Fraction(1, 2), Fraction(3)])
    def test_non_integer_entry_raises(self, bad):
        # rows are integer matrices; a rational caller scales its rows first
        import numpy as np

        # square, tall (eliminated as its transpose) and wide
        for rows in ([[1, 2], [3, bad]], [[1], [bad], [2]], [[1, bad, 2]]):
            with pytest.raises(TypeError):
                bareiss_rank(rows)
        # a list, and the float or object array NumPy makes of it
        for rows in ([[1, 2], [3, bad]], np.array([[1, 2], [3, bad]])):
            for p in (2, linalg._RANK_PRIME):
                with pytest.raises(TypeError):
                    rank_profile_mod_p(rows, p)
            with pytest.raises(TypeError):
                certified_rank(rows, 2)

    def test_every_integer_type(self):
        import numpy as np

        rows = [[True, np.int64(2)], [np.int8(3), 3**50]]
        assert bareiss_rank(rows) == 2

    @given(_tall_and_wide_matrices())
    def test_tall_and_wide_ranks_equal_the_transposes(self, rows):
        assert bareiss_rank(rows) == bareiss_rank(transpose(rows)) == oracles.gaussian_rank(rows)

    def test_matches_external_elimination(self):
        rng = random.Random(7)
        for _ in range(10):
            m = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(4)]
            assert bareiss_rank(m) == oracles.gaussian_rank(m)


def _modular_rank(rows, p):
    """The mod-p rank: how many rows the modular rank profile keeps."""
    return len(rank_profile_mod_p(rows, p))


class TestModularRank:
    def test_lower_bound_property(self):
        rng = random.Random(3)
        for _ in range(15):
            m = [[rng.randrange(-20, 21) for _ in range(6)] for _ in range(6)]
            exact = bareiss_rank(m)
            assert _modular_rank(m, 32749) <= exact

    def test_usually_equal_for_small_entries(self):
        m = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        assert _modular_rank(m, 32749) == bareiss_rank(m) == 3

    def test_modular_rank_can_drop(self):
        # the matrix [[p]] is nonzero but vanishes mod p
        assert _modular_rank([[5]], 5) == 0
        assert bareiss_rank([[5]]) == 1


class TestCertifiedRank:
    def test_certificate_path(self):
        m = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
        assert certified_rank(m, 3) == (3, "modular-certificate")

    def test_loose_upper_bound_falls_back_exactly(self):
        rank, method = certified_rank([[1, 2], [2, 4]], 2)
        assert rank == 1
        assert method == "fraction-free-elimination"

    def test_wrong_upper_bound_is_caught(self):
        with pytest.raises(AssertionError):
            certified_rank(identity_matrix(3), 2)

    def test_rank_prime_is_a_prime_below_2_8(self):
        p = linalg._RANK_PRIME
        assert all(p % d for d in range(2, int(p**0.5) + 1))
        # far inside the moduli below 2**15 that rank_profile_mod_p accepts:
        # every product of two residues is below 2**16
        assert p < 2**8

    def test_one_profile_at_the_prime_then_elimination(self, monkeypatch):
        calls = []
        real = linalg.rank_profile_mod_p

        def spy(rows, p):
            calls.append(p)
            return real(rows, p)

        monkeypatch.setattr(linalg, "rank_profile_mod_p", spy)
        assert certified_rank(identity_matrix(3), 3) == (3, "modular-certificate")
        assert calls == [linalg._RANK_PRIME]
        # [[p]] vanishes mod the prime, so it is eliminated after one profile
        calls.clear()
        assert certified_rank([[linalg._RANK_PRIME]], 1) == (1, "fraction-free-elimination")
        assert calls == [linalg._RANK_PRIME]

    def test_indicator_rows_short_mod_2_are_certified_by_the_first_prime(
        self, monkeypatch
    ):
        # rows 1100, 0110, 1010 and ones: the first three sum to 0 mod 2, so
        # the rank is 3 mod 2 and 4, the correct cap, over the rationals; the
        # dense rows are built once and certified at 251
        import numpy as np

        positions = np.array([[0, 1], [1, 2], [0, 2]])
        dense = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
        assert rank_profile_mod_p(dense, 2) == [0, 1, 3]
        read, real = [], linalg.rank_profile_mod_p

        def spy(rows, p):
            read.append((rows.tolist(), rows.dtype, p))
            return real(rows, p)

        def no_elimination(rows):
            raise AssertionError("eliminated")

        monkeypatch.setattr(linalg, "rank_profile_mod_p", spy)
        monkeypatch.setattr(linalg, "bareiss_rank", no_elimination)
        assert certified_family_rank(positions, 4, 4) == (4, "modular-certificate")
        assert read == [(dense, np.int8, linalg._RANK_PRIME)]

    def test_empty_family_list_is_the_ones_row(self):
        import numpy as np

        positions = np.empty((0, 2), dtype=np.int64)
        assert certified_family_rank(positions, 5, 1) == (1, "modular-certificate")
        with pytest.raises(AssertionError, match="exceeds the proven upper bound 0"):
            certified_family_rank(positions, 5, 0)


@st.composite
def _position_sets(draw):
    """(positions, width): a (rows, k) array of one-positions in width
    columns, repeats allowed, so a row holds 1 to k ones."""
    import numpy as np

    width = draw(st.integers(1, 12))
    k = draw(st.integers(1, width))
    row = st.lists(st.integers(0, width - 1), min_size=k, max_size=k)
    rows = draw(st.lists(row, max_size=10))
    return np.array(rows, dtype=np.int64).reshape(len(rows), k), width


class TestFamilyRank:
    @given(_position_sets())
    def test_packed_rank_is_the_transposed_kernels_mod_2(self, case):
        import numpy as np

        positions, width = case
        dense = np.zeros((len(positions) + 1, width), dtype=np.int8)
        dense[-1] = 1
        for i, row in enumerate(positions.tolist()):
            dense[i, row] = 1
        exact = bareiss_rank(dense.tolist())
        assert exact == oracles.gaussian_rank(dense.tolist())
        # the rank mod 2 of the rows packed from the positions, read by a spy
        packed, real = [], linalg._rank_mod_2

        def spy(rows):
            packed.append(real(rows))
            return packed[-1]

        with patch.object(linalg, "_rank_mod_2", spy):
            rank, method = certified_family_rank(positions, width, exact)
        assert packed == [len(rank_profile_mod_p(dense, 2))]
        assert packed[0] <= exact == rank
        if packed[0] == exact:
            assert method == "modular-certificate"


def _span_cap(n, k):
    """The rank of [X; ones] for the constraint families S_A with |A| = k:
    the indicators span the eigenspaces of the shapes whose first row is at
    least n - k, ones among them."""
    return sum(dimension(shape) ** 2 for shape in partitions_of(n) if shape[0] >= n - k)


_ORDER_CASES = [(n, k) for n in range(1, 7) for k in range(1, min(n, 3) + 1)]


class TestFamilyRowOrder:
    @pytest.mark.parametrize("n, k", _ORDER_CASES)
    def test_shuffled_families_give_the_same_rank(self, n, k):
        import numpy as np

        families, width = constraint_families(n, k), math.factorial(n)
        certified = certified_family_rank(families, width, _span_cap(n, k))
        assert certified == (_span_cap(n, k), "modular-certificate")
        rng = np.random.default_rng(n * 10 + k)
        for _ in range(3):
            shuffled = families[rng.permutation(len(families))]
            assert certified_family_rank(shuffled, width, _span_cap(n, k)) == certified

    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 2)])
    def test_a_family_short_of_its_cap_builds_rows_in_the_callers_order(
        self, monkeypatch, n, k
    ):
        import numpy as np

        families, width = constraint_families(n, k), math.factorial(n)
        shuffled = families[np.random.default_rng(n).permutation(len(families))]
        dense = np.zeros((len(shuffled) + 1, width), dtype=np.int8)
        dense[-1] = 1
        for f, ranks in enumerate(shuffled):
            dense[f, ranks] = 1
        real_mod_2, real_profile, read = linalg._rank_mod_2, rank_profile_mod_p, []

        def recording(rows, p):
            read.append(rows)
            return real_profile(rows, p)

        monkeypatch.setattr(linalg, "_rank_mod_2", lambda packed: real_mod_2(packed) - 1)
        monkeypatch.setattr(linalg, "rank_profile_mod_p", recording)
        rank, method = certified_family_rank(shuffled, width, _span_cap(n, k))
        assert (rank, method) == (_span_cap(n, k), "modular-certificate")
        ((rows,),) = [read]
        assert np.array_equal(rows, dense)


_SMALL_INTS = st.integers(-4, 4)


@st.composite
def _int_matrices(draw):
    n_cols = draw(st.integers(1, 5))
    row = st.lists(_SMALL_INTS, min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=1, max_size=7))


def _rank_mod(rows, p):
    """Rank over the field of p elements by plain row reduction."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inv
            rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestRankProfileProperties:
    @given(_int_matrices(), st.sampled_from([2, 3, 5, 251, 32719, 32749]))
    def test_every_prefix_count_is_its_modular_rank(self, matrix, p):
        profile = rank_profile_mod_p(matrix, p)
        assert profile == sorted(set(profile))
        for k in range(len(matrix) + 1):
            count = bisect_left(profile, k)
            assert count <= oracles.gaussian_rank(matrix[:k])
            assert count == _modular_rank(matrix[:k], p) == _rank_mod(matrix[:k], p)

    @given(_int_matrices(), st.sampled_from([2, 3, 5, 251, 32719, 32749]))
    def test_same_pivots_for_every_input_form(self, matrix, p):
        import numpy as np

        expected = rank_profile_mod_p(matrix, p)
        narrow = np.array(matrix, dtype=np.int8)
        assert rank_profile_mod_p(narrow, p) == expected
        assert rank_profile_mod_p(np.asfortranarray(narrow), p) == expected
        wide = np.array(matrix, dtype=np.int64)
        assert rank_profile_mod_p(wide, p) == expected
        assert wide.tolist() == matrix  # the caller's array is not reduced
        # negative entries: shifted by -p (same residues) or negated rows
        shifted = [[v - p for v in row] for row in matrix]
        assert rank_profile_mod_p(np.array(shifted, dtype=np.int64), p) == expected
        assert rank_profile_mod_p(-narrow, p) == expected

    @given(_int_matrices(), st.integers(0, 6))
    def test_certified_rank_never_exceeds_its_bound(self, matrix, bound):
        exact = oracles.gaussian_rank(matrix)
        if exact > bound:
            with pytest.raises(AssertionError):
                certified_rank(matrix, bound)
        else:
            rank, _ = certified_rank(matrix, bound)
            assert rank == exact <= bound


def _parent_profile(rows, p):
    """A dense int64 elimination written apart from rank_profile_mod_p, kept
    as a reference: each pivot row is scaled to lead with 1, and every live
    row updates every column from the pivot on.  Rows are reduced mod p in
    Python first, so entries past int64 can be compared."""
    import numpy as np

    if not len(rows):
        return []
    a = np.array([[int(v) % p for v in row] for row in rows], dtype=np.int64).T.copy()
    free = np.ones(len(a), dtype=bool)
    pivots = []
    for col in range(a.shape[1]):
        live = np.flatnonzero(free & (a[:, col] != 0))
        if live.size == 0:
            continue
        r, rest = live[-1], live[:-1]
        free[r] = False
        lead = a[r, col:]
        lead *= pow(int(lead[0]), p - 2, p)
        lead %= p
        if rest.size:
            block = a[rest, col:]
            block -= np.multiply.outer(block[:, 0], lead)
            block %= p
            a[rest, col:] = block
        pivots.append(col)
        if len(pivots) == len(a):
            break
    return pivots


_DTYPE_RANGES = {
    "bool": (0, 1),
    "int8": (-(2**7), 2**7 - 1),
    "uint8": (0, 2**8 - 1),
    "int16": (-(2**15), 2**15 - 1),
    "uint16": (0, 2**16 - 1),
    "int32": (-(2**31), 2**31 - 1),
    "uint32": (0, 2**32 - 1),
    "int64": (-(2**63), 2**63 - 1),
    "uint64": (0, 2**64 - 1),
    "object": (-(2**80), 2**80),
}


@st.composite
def _typed_matrices(draw):
    """A matrix of one dtype, its entries mostly near zero (so ranks drop)."""
    import numpy as np

    dtype = draw(st.sampled_from(sorted(_DTYPE_RANGES)))
    lo, hi = _DTYPE_RANGES[dtype]
    entries = st.integers(max(lo, -2), 2) | st.integers(lo, hi)
    n_cols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, max_size=8))
    return np.array(rows, dtype=dtype).reshape(len(rows), n_cols)


class TestResidueKernel:
    @given(_typed_matrices(), st.sampled_from([2, 3, 5, 251, 32719, 32749]))
    def test_profile_matches_the_dense_int64_elimination(self, matrix, p):
        before = matrix.copy()
        assert rank_profile_mod_p(matrix, p) == _parent_profile(matrix.tolist(), p)
        assert (matrix == before).all()  # the caller's array is not reduced

    @pytest.mark.parametrize("p", [-3, 0, 1, 2**15, 2**31 - 1, 2**31, 2**61 - 1])
    def test_modulus_out_of_range_raises(self, p):
        # moduli are primes below 2**15, whose residue products stay below
        # 2**30; at p = 2**61 - 1 even int64 products wrap: this rank-3
        # matrix once read as rank 4
        matrix = [[-7, -9, -3, 1], [-4, -2, -2, 5], [3, 9, 4, -8], [3, 9, 4, -8]]
        assert bareiss_rank(matrix) == 3
        with pytest.raises(ValueError):
            rank_profile_mod_p(matrix, p)

    @pytest.mark.parametrize(
        "matrix, p", [([[2, 4], [1, 2]], 4), ([[2, 2], [1, 1]], 4), ([[2, 2], [1, 1]], 15)]
    )
    def test_composite_modulus_raises(self, matrix, p):
        # rank 1, which the dense elimination read as rank 2 mod p: a pivot
        # without an inverse passed as a certificate
        assert bareiss_rank(matrix) == 1
        with pytest.raises(ValueError):
            rank_profile_mod_p(matrix, p)

    def test_largest_modulus_is_exact(self):
        matrix = [[-7, -9, -3, 1], [-4, -2, -2, 5], [3, 9, 4, -8], [3, 9, 4, -8]]
        assert rank_profile_mod_p(matrix, 32749) == [0, 1, 2]

    @pytest.mark.parametrize("p", [251, 32749, 32719])
    def test_extreme_residues_are_exact(self, p):
        """Residues of p - 1 give the largest products, (p - 1)**2 < 2**30,
        and entries shifted by p give the residues of the identity."""
        size = 6
        top = [[p - 1] * size for _ in range(size)]
        assert rank_profile_mod_p(top, p) == _parent_profile(top, p) == [0]
        shifted = [[int(i == j) + p for j in range(size)] for i in range(size)]
        assert rank_profile_mod_p(shifted, p) == _parent_profile(shifted, p)
        assert len(rank_profile_mod_p(shifted, p)) == size
        # residues p - 1 and 1 only, so every pivot, factor and product is extreme
        rng = random.Random(p)
        mixed = [[rng.choice([p - 1, 1, -1]) for _ in range(9)] for _ in range(12)]
        assert rank_profile_mod_p(mixed, p) == _parent_profile(mixed, p)

    @pytest.mark.parametrize("p", [2, 5, 251, 32749, 32719])
    def test_entries_past_int64_give_the_profile_of_their_residues(self, p):
        rng = random.Random(p)
        big = [
            [rng.choice([-1, 1]) * 2**70 + rng.randrange(-3, 4) for _ in range(5)]
            for _ in range(6)
        ]
        big[4] = [a + b for a, b in zip(big[0], big[1])]
        residues = [[v % p for v in row] for row in big]
        assert rank_profile_mod_p(big, p) == rank_profile_mod_p(residues, p)
        assert 4 not in rank_profile_mod_p(big, p)
        # NumPy reads a list holding 2**63 and -1 as floats; the residues stay exact
        edge = [[2**63 + 2, -1], [2**63 + 1, -1]]
        assert rank_profile_mod_p(edge, p) == _parent_profile(edge, p)

    @pytest.mark.parametrize("p", [3, 5, 251, 32749])
    def test_uint64_entries_past_int64_are_not_wrapped(self, p):
        # the largest multiple of p below 2**64 vanishes mod p; read as
        # int64 it would wrap to itself less 2**64, which does not
        import numpy as np

        top = (2**64 - 1) // p * p
        assert top >= 2**63
        matrix = np.array([[top, 1], [top, 0]], dtype=np.uint64)
        assert rank_profile_mod_p(matrix, p) == [0]
        assert rank_profile_mod_p(matrix[:, :1], p) == []

    @pytest.mark.parametrize(
        "container",
        ["list", "tuple", "list of arrays", "array", "object array", "sequence"],
    )
    def test_every_container_of_the_rows_gives_the_list_profile(self, container):
        """The rows are read once with np.asarray, whatever holds them: a
        tall matrix with a dependent row past the 64th gives the list's
        profile, and the caller's rows are left as they were."""
        import numpy as np

        rng = random.Random(130)
        matrix = [[rng.randrange(-3, 4) for _ in range(5)] for _ in range(130)]
        matrix[100] = [a - b for a, b in zip(matrix[0], matrix[1])]

        class Rows:
            def __len__(self):
                return len(matrix)

            def __getitem__(self, i):
                return matrix[i]

        held = {
            "list": lambda: [list(row) for row in matrix],
            "tuple": lambda: tuple(tuple(row) for row in matrix),
            "list of arrays": lambda: [np.array(row) for row in matrix],
            "array": lambda: np.array(matrix),
            "object array": lambda: np.array(matrix, dtype=object),
            "sequence": Rows,
        }[container]()
        for p in (2, 251, 32749):
            profile = rank_profile_mod_p(held, p)
            assert profile == _parent_profile(matrix, p)
            assert 100 not in profile
        assert np.array_equal(np.asarray(held, dtype=object), np.array(matrix, dtype=object))


class TestKernelAndSolve:
    """The oracles' Fraction kernel and solve, which the reference tests rest on."""

    def test_kernel_of_rank_one_matrix(self):
        basis = oracles.kernel([[1, 2, 3]])
        assert len(basis) == 2
        for vec in basis:
            assert sum(c * v for c, v in zip([1, 2, 3], vec)) == 0

    def test_full_rank_kernel_is_trivial(self):
        assert oracles.kernel(identity_matrix(3)) == []

    def test_kernel_vectors_annihilate_random_matrices(self):
        rng = random.Random(19)
        for _ in range(10):
            m = [[rng.randrange(-4, 5) for _ in range(6)] for _ in range(3)]
            basis = oracles.kernel(m)
            assert len(basis) == 6 - bareiss_rank(m)
            for vec in basis:
                assert all(v == 0 for v in _matvec(m, vec))

    def test_rref_pivots(self):
        rows, pivots = oracles._reduced_echelon([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
        assert pivots == [0, 1]
        assert rows == [[1, 0, 0], [0, 1, 2], [0, 0, 0]]
        assert all(type(v) is Fraction for row in rows for v in row)

    def test_solve_consistent_system(self):
        x = oracles.solve([[1, 1], [1, -1]], [3, 1])
        assert x == [Fraction(2), Fraction(1)]

    def test_solve_inconsistent_system(self):
        assert oracles.solve([[1, 1], [1, 1]], [0, 1]) is None

    def test_solve_verifies_by_substitution(self):
        rng = random.Random(23)
        for _ in range(10):
            m = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(6)]
            target = [rng.randrange(-3, 4) for _ in range(4)]
            rhs = _matvec(m, target)
            x = oracles.solve(m, rhs)
            assert x is not None
            assert _matvec(m, x) == rhs

    def test_solve_returns_fractions(self):
        x = oracles.solve([[2, 0], [0, 3]], [1, 1])
        assert x == [Fraction(1, 2), Fraction(1, 3)]
        assert all(type(v) is Fraction for v in x)


class TestStructuredMatrices:
    def test_kron_small(self):
        k2 = complete_graph_matrix(2)
        i2 = identity_matrix(2)
        assert kron(k2, i2) == [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]

    def test_kron_dimensions_and_entries(self):
        a = [[1, 2], [3, 4]]
        b = [[0, 5], [6, 7]]
        prod = kron(a, b)
        assert len(prod) == 4 and len(prod[0]) == 4
        assert prod[0][1] == 5 and prod[3][3] == 28

    def test_gram_matrix(self):
        # inner products of the rows; same rank as the matrix itself
        m = [[1, 0], [1, 1], [0, 2]]
        assert gram_matrix(m) == [[1, 1, 0], [1, 2, 2], [0, 2, 4]]
        assert bareiss_rank(gram_matrix(m)) == bareiss_rank(m) == 2

    def test_transpose(self):
        assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]

    def test_rank_of_kron_multiplies(self):
        a = complete_graph_matrix(3)
        b = identity_matrix(2)
        assert bareiss_rank(kron(a, b)) == bareiss_rank(a) * bareiss_rank(b)


_ENTRIES = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-(3**40), 3**40))


@st.composite
def _matrix_and_vectors(draw):
    """A small integer matrix, a column vector x0 and a right-hand side b."""
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 5))
    row = st.lists(_ENTRIES, min_size=n_cols, max_size=n_cols)
    matrix = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    x0 = draw(st.lists(_ENTRIES, min_size=n_cols, max_size=n_cols))
    b = draw(st.lists(_ENTRIES, min_size=n_rows, max_size=n_rows))
    return matrix, x0, b


class TestEliminationProperties:
    @given(_matrix_and_vectors())
    def test_rank_matches_oracle(self, case):
        matrix, _, _ = case
        assert bareiss_rank(matrix) == oracles.gaussian_rank(matrix)

    @given(_matrix_and_vectors())
    def test_kernel_dimension_and_annihilation(self, case):
        # rank-nullity against the oracle's independent kernel
        matrix, _, _ = case
        basis = oracles.kernel(matrix)
        assert len(basis) == len(matrix[0]) - bareiss_rank(matrix)
        for vec in basis:
            assert any(vec)
            assert all(v == 0 for v in _matvec(matrix, vec))

    @given(_matrix_and_vectors())
    def test_solve_consistent_right_hand_side(self, case):
        matrix, x0, _ = case
        rhs = _matvec(matrix, x0)
        x = oracles.solve(matrix, rhs)
        assert x is not None
        assert _matvec(matrix, x) == rhs

    @given(_matrix_and_vectors())
    def test_solve_none_exactly_when_inconsistent(self, case):
        matrix, _, b = case
        augmented = [list(row) + [v] for row, v in zip(matrix, b)]
        inconsistent = bareiss_rank(augmented) > bareiss_rank(matrix)
        x = oracles.solve(matrix, b)
        assert (x is None) == inconsistent
        if x is not None:
            assert _matvec(matrix, x) == b
