"""Top-level acceptance checks, one per criterion, each with a runtime budget.

Every check here recomputes its target from scratch through the public API
and verifies exact values; nothing is trusted from other test modules.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from ekrperm.chartab import (
    character_table,
    character_value,
    check_column_orthogonality,
    check_row_orthogonality,
    dimension,
)
from ekrperm.ekrverify import (
    basis_check,
    bordered_kernel_check,
    depth_conjecture_dims,
    gram_check,
    kernel_membership_check,
    pi_ab,
    pi_ab_submatrix,
    rank_H_check,
    rank_M_check,
)
from ekrperm.graphs import (
    affine_clique,
    cycle_decomposition_clique,
    latin_clique,
    max_independent_sets,
    odd_n_latin_clique,
)
from ekrperm.permgroup import (
    classes_with_few_fixed_points,
    cycle_type_of_images,
    derangement_count,
    partitions_of,
)
from ekrperm.scheme import (
    clique_coclique_check,
    constraint_rows,
    fundamental_identity_check,
    group_data,
    ratio_bound,
    union_spectrum,
)

import oracles
from oracles import parse_cycles, unrank_permutation


class Budget:
    """Context manager asserting the block stays under its time budget."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.1f}s)")
        return False


def dense_projections(vectors, n):
    """n! E_shape v for every shape and each integer vector v, one per column.

    n! E_shape is dim(shape) * chi_shape(p^-1 q) as a dense n! x n! matrix, the
    class of p^-1 q read from GroupData.quotient_classes for every pair of ranks.
    """
    ranks = np.arange(math.factorial(n))
    classes = group_data(n).quotient_classes(ranks[:, None], ranks)
    table = character_table(n)
    columns = np.array(vectors, dtype=np.int64).T
    return {
        shape: dimension(shape) * (np.array(row, dtype=np.int64)[classes] @ columns)
        for shape, row in zip(table.partitions, table.values)
    }


def test_01_derangement_counts():
    with Budget("1 derangement counts", 10):
        values = {n: derangement_count(n) for n in range(1, 10)}
        # recursion recomputed here, seeded by the first two values
        assert values[1] == 0 and values[2] == 1
        for n in range(3, 10):
            assert values[n] == (n - 1) * (values[n - 1] + values[n - 2])
        for n in range(1, 10):
            assert values[n] == oracles.derangements_by_inclusion_exclusion(n)
        for n in range(1, 9):
            brute = sum(
                1
                for images in itertools.permutations(range(1, n + 1))
                if all(v != i for i, v in enumerate(images, start=1))
            )
            assert values[n] == brute
        for n in range(2, 10):
            by_classes = sum(
                cls.size for cls in classes_with_few_fixed_points(n, 0)
            )
            assert values[n] == by_classes


def test_02_character_tables():
    with Budget("2 character tables", 30):
        for n in range(1, 9):
            table = character_table(n)
            assert check_row_orthogonality(table)
            assert check_column_orthogonality(table)
        for n in (4, 5):
            oracle = oracles.brute_force_character_table(n)
            table = character_table(n)
            for shape, row in oracle.items():
                got = tuple(table.value(shape, c) for c in table.partitions)
                assert got == row


def test_03_spectrum_and_eigenvectors():
    with Budget("3 spectrum", 120):
        for n in range(2, 10):
            s = union_spectrum(n, 0)
            d = derangement_count(n)
            assert s.valency == d
            assert s.eigenvalue((n,)) == d
            assert s.least()[0] == Fraction(-d, n - 1)
        # exact eigenvector identity for every module at the dense degrees
        rng = random.Random(321)
        for n in range(2, 7):
            order = math.factorial(n)
            z = [rng.randrange(-4, 5) for _ in range(order)]
            projections = dense_projections([z], n)
            total = sum(projections.values())
            assert total.ravel().tolist() == [order * v for v in z]
            # adjacency from agreement counts; p agrees with itself n > t times
            images = np.array(list(itertools.permutations(range(n))))
            agree = (images[:, None, :] == images[None, :, :]).sum(axis=2)
            thresholds = (0, 1) if n >= 3 else (0,)
            for t in thresholds:
                s = union_spectrum(n, t)
                adjacency = (agree <= t).astype(np.int64)
                for shape, image in projections.items():
                    assert np.array_equal(adjacency @ image, s.eigenvalue(shape) * image)


def test_04_least_eigenvalue():
    with Budget("4 least eigenvalue", 60):
        for n in range(2, 9):
            value, achieved = union_spectrum(n).least()
            assert value == Fraction(-derangement_count(n), n - 1)
            assert (n - 1, 1) in achieved
            assert ratio_bound(n) == math.factorial(n - 1)
        assert union_spectrum(8).least()[0] == -2119


def test_05_cliques_and_exhaustive_search():
    with Budget("5 cliques and search", 300):
        for n in range(2, 9):
            cert = latin_clique(n)
            assert cert.size == n and cert.validated
        for n in range(2, 7):
            result = max_independent_sets(n)
            assert result.alpha == math.factorial(n - 1)
            assert result.tight
            points = range(1, n + 1)
            catalogue = {
                frozenset(map(tuple, constraint_rows(n, [pair]).tolist()))
                for pair in itertools.product(points, points)
            }
            assert result.count == len(catalogue)
            found = {
                frozenset(unrank_permutation(r, n) for r in row)
                for row in result.ranks.tolist()
            }
            assert found == catalogue
            report = clique_coclique_check(
                latin_clique(n).members, constraint_rows(n, [(n, n)]), n
            )
            assert report.tight and report.corollary_ok


def test_06_fundamental_identity():
    with Budget("6 fundamental identity", 60):
        rng = random.Random(2024)
        for n in (4, 5):
            order = math.factorial(n)
            pairs = []
            for _ in range(20):
                x = [rng.randrange(2) for _ in range(order)]
                y = [rng.randrange(2) for _ in range(order)]
                pairs.append((x, y))
            sides = fundamental_identity_check(pairs, n)
            assert len(sides) == 20
            for lhs, rhs in sides:
                assert lhs == rhs
        # tight clique/coclique pairs collapse the identity to exactly 1
        for n in (4, 5):
            x = oracles.characteristic_vector(latin_clique(n).members, n)
            y = oracles.characteristic_vector(constraint_rows(n, [(1, 1)]), n)
            [(lhs, rhs)] = fundamental_identity_check([(x, y)], n)
            assert lhs == rhs == 1


def test_07_larger_cliques_and_character_coverage():
    with Budget("7 clique characters", 120):
        available = {
            7: [cycle_decomposition_clique(7), odd_n_latin_clique(7)],
            8: [cycle_decomposition_clique(8)],
            9: [cycle_decomposition_clique(9), odd_n_latin_clique(9)],
        }
        for n, certs in available.items():
            table = character_table(n)
            sums = []
            for cert in certs:
                assert cert.size == n and cert.validated
                sums.append(
                    {
                        shape: sum(
                            table.value(shape, cycle_type_of_images(row))
                            for row in cert.members.tolist()
                        )
                        for shape in table.partitions
                    }
                )
            for cert, by_shape in zip(certs, sums):
                # the standard character always sums to zero on a clique
                assert by_shape[(n - 1, 1)] == 0
                if cert.construction == "hamilton-decomposition":
                    for shape in table.partitions:
                        expected = dimension(shape) + (n - 1) * character_value(shape, (n,))
                        assert by_shape[shape] == expected
            for shape in table.partitions:
                if shape == (n - 1, 1):
                    continue
                assert any(by_shape[shape] != 0 for by_shape in sums)


def test_08_incidence_linear_algebra():
    with Budget("8 incidence linear algebra", 300):
        for n in range(3, 8):
            ok, _ = gram_check(n)
            assert ok
            rank_h, ok_h = rank_H_check(n)
            assert ok_h and rank_h == (n - 1) ** 2
            rank_m, ok_m = rank_M_check(n)
            assert ok_m and rank_m == (n - 1) * (n - 2)
            _, _, equal = pi_ab_submatrix(n)
            assert equal
        for n in range(4, 8):
            assert bordered_kernel_check(n) is True
            assert kernel_membership_check(n)
        # the worked degree-4 example, bit for bit
        expected_cycles = {
            (1, 1): "(1,4,2,3)",
            (1, 2): "(1,4,3,2)",
            (2, 1): "(1,2,4,3)",
            (2, 2): "(1,3,2,4)",
            (3, 1): "(1,2,3,4)",
            (3, 2): "(1,3,4,2)",
        }
        for (a, b), cycles in expected_cycles.items():
            assert pi_ab(a, b, 4) == parse_cycles(cycles, 4)
        rows, _, _ = pi_ab_submatrix(4)
        assert rows == [
            [0, 0, 1, 0, 1, 0],
            [0, 0, 0, 1, 0, 1],
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 0],
        ]


def test_09_module_supports_and_basis():
    with Budget("9 module supports", 300):
        for n in range(3, 7):
            # n times each point family's indicator minus ones/n, by rank
            points = range(1, n + 1)
            shifted = []
            for pair in itertools.product(points, points):
                members = set(map(tuple, constraint_rows(n, [pair]).tolist()))
                shifted.append(
                    [n * (images in members) - 1 for images in itertools.permutations(points)]
                )
            for shape, images in dense_projections(shifted, n).items():
                assert images.any(axis=0).tolist() == [shape == (n - 1, 1)] * n * n
            report = basis_check(n)
            assert report.supports_ok and report.dimension_match
            assert report.rank_shifted == (n - 1) ** 2
            assert report.rank_with_ones == (n - 1) ** 2 + 1


def test_10_depth_spans_and_threshold_one_bound():
    with Budget("10 depth spans", 600):
        expected = {
            4: (23, 22),
            5: (78, 77),
            6: (207, 206),
        }
        for n, (dim_sum, shifted) in expected.items():
            report = depth_conjecture_dims(n, 1)
            assert report.module_dim_sums[2] == dim_sum
            assert report.span_rank_shifted == shifted
            assert report.span_rank_with_ones == dim_sum
            assert report.supports_within_depth[2]
            assert report.agreement["shifted_equals_depth_2_sum_minus_top"]
            assert report.agreement["with_ones_equals_depth_2_sum"]
        # the degree-4 sum decomposes over the shallow modules
        assert 23 == sum(
            dimension(s) ** 2
            for s in partitions_of(4)
            if s in ((4,), (3, 1), (2, 2), (2, 1, 1))
        )
        assert [dimension(s) ** 2 for s in ((4,), (3, 1), (2, 2), (2, 1, 1))] == [
            1, 9, 4, 9,
        ]
        report = clique_coclique_check(
            affine_clique(5).members,
            constraint_rows(5, [(1, 1), (2, 2)]),
            5,
            t=1,
        )
        assert report.product == 120 == report.bound
        assert report.tight and report.corollary_ok
