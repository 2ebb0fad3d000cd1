"""One-line notation, cycle types, partitions, conjugacy classes, derangement counts."""

import itertools
import math

import numpy as np
import pytest

from ekrperm.permgroup import (
    ClassInfo,
    DegreeRangeError,
    agreements,
    class_size,
    classes_with_few_fixed_points,
    conjugacy_classes,
    cycle_type_of_images,
    derangement_count,
    need_degree,
    one_line,
    partition_depth,
    partitions_of,
    stabilizer_coset_count,
)
from ekrperm.scheme import image_table

import oracles


def _permutations(n):
    """The images of every degree-n permutation, in rank (lexicographic) order."""
    return list(itertools.permutations(range(1, n + 1)))


def _fixed_points(p):
    return sum(1 for i, v in enumerate(p, start=1) if i == v)


class TestPermutationBasics:
    def test_one_line_reads_tuples_lists_and_array_rows_alike(self):
        rows = np.array([[4, 3, 1, 2]], dtype=np.intp)
        for images in ((4, 3, 1, 2), [4, 3, 1, 2], rows[0]):
            assert one_line(images) == "4,3,1,2"

    def test_compose_applies_right_factor_first(self):
        # the reference product sends i to p(q(i)): q = (1,2) first, then p = (1,2,3)
        p, q = (2, 3, 1), (2, 1, 3)
        assert oracles.compose(p, q) == (3, 2, 1)
        assert oracles.compose(q, p) == (1, 3, 2)

    def test_inverse(self):
        identity = (1, 2, 3, 4)
        for p in _permutations(4):
            q = oracles.inverse(p)
            assert oracles.compose(p, q) == oracles.compose(q, p) == identity
            assert agreements(p, identity) == agreements(q, identity)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_string_table_is_str_of_every_rank(self, n):
        expected = [",".join(map(str, p)) for p in _permutations(n)]
        assert [one_line(row) for row in (image_table(n) + 1).tolist()] == expected


class TestCycleStructure:
    def test_cycle_type_of_identity(self):
        assert cycle_type_of_images((1, 2, 3, 4, 5)) == (1, 1, 1, 1, 1)

    def test_cycle_type_of_four_cycle(self):
        assert cycle_type_of_images((4, 3, 1, 2)) == (4,)

    def test_cycle_type_is_a_partition(self):
        for p in _permutations(5):
            t = cycle_type_of_images(p)
            assert sum(t) == 5
            assert list(t) == sorted(t, reverse=True)

    def test_fixed_points_match_ones_in_cycle_type(self):
        for p in _permutations(4):
            assert _fixed_points(p) == cycle_type_of_images(p).count(1)

    def test_cycle_type_matches_the_oracle(self):
        for p in _permutations(6):
            assert cycle_type_of_images(p) == oracles.cycle_type_of(p)

    def test_parse_cycles(self):
        # the cycle-notation reference the tests write hand tables in:
        # one cycle 1 -> 4 -> 2 -> 3 -> 1
        assert oracles.parse_cycles("(1,4,2,3)", 4) == (4, 3, 1, 2)
        assert oracles.parse_cycles("(1,2)(3,4)", 4) == (2, 1, 4, 3)
        assert oracles.parse_cycles("", 4) == (1, 2, 3, 4)
        assert cycle_type_of_images(oracles.parse_cycles("(1,5)(2,6,4)", 7)) == (3, 2, 1, 1)


class TestAgreements:
    def test_worked_example(self):
        assert agreements((1, 2, 4, 3), (1, 3, 4, 2)) == 2

    def test_self_agreement_is_degree(self):
        assert agreements((3, 1, 2), (3, 1, 2)) == 3

    def test_agreements_via_quotient(self):
        # the number of agreements of p and q equals the number of fixed
        # points of inverse(p) * q
        for p, q in itertools.product(_permutations(4), repeat=2):
            assert agreements(p, q) == _fixed_points(oracles.compose(oracles.inverse(p), q))

    def test_reads_lists_and_array_rows_alike(self):
        rows = np.array([[1, 2, 4, 3], [1, 3, 4, 2]], dtype=np.intp)
        assert agreements(*rows) == agreements([1, 2, 4, 3], (1, 3, 4, 2)) == 2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degrees differ"):
            agreements((1, 2, 3), (1, 2, 3, 4))


class TestPartitions:
    def test_reverse_lex_order(self):
        assert partitions_of(4) == (
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        )

    def test_counts_match_oracle(self):
        for n in range(1, 10):
            assert len(partitions_of(n)) == oracles.partition_count(n)

    def test_order_matches_oracle(self):
        for n in range(1, 9):
            assert list(partitions_of(n)) == oracles.partitions_reverse_lex(n)

    def test_depth_is_degree_minus_largest_part(self):
        assert partition_depth((4,)) == 0
        assert partition_depth((3, 1)) == 1
        assert partition_depth((2, 2)) == 2
        assert partition_depth((1, 1, 1, 1)) == 3


class TestConjugacyClasses:
    def test_class_sizes_small(self):
        assert class_size((1, 1, 1, 1)) == 1
        assert class_size((2, 2)) == 3
        assert class_size((4,)) == 6
        assert class_size((2, 1, 1)) == 6
        assert class_size((3, 1)) == 8

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 11):
            assert sum(class_size(t) for t in partitions_of(n)) == math.factorial(n)

    def test_class_sizes_match_enumeration(self):
        sizes, _ = oracles.classes_by_enumeration(5)
        for t in partitions_of(5):
            assert class_size(t) == sizes[t]

    def test_conjugacy_classes_reverse_lex(self):
        infos = conjugacy_classes(4)
        assert [c.cycle_type for c in infos] == list(partitions_of(4))
        assert [c.size for c in infos] == [6, 8, 3, 6, 1]
        assert all(isinstance(c, ClassInfo) for c in infos)

    @pytest.mark.parametrize("shape", [(2, 0), (3, -1, 1), (0,)])
    def test_class_size_rejects_parts_below_one(self, shape):
        with pytest.raises(ValueError, match="bad cycle type"):
            class_size(shape)

    def test_fixed_point_filter(self):
        zero = classes_with_few_fixed_points(4, 0)
        assert [c.cycle_type for c in zero] == [(4,), (2, 2)]
        one = classes_with_few_fixed_points(4, 1)
        assert [c.cycle_type for c in one] == [(4,), (3, 1), (2, 2)]
        # identity class is excluded even at the largest allowed threshold
        assert all(
            c.cycle_type != (1, 1, 1, 1)
            for c in classes_with_few_fixed_points(4, 3)
        )
        with pytest.raises(ValueError):
            classes_with_few_fixed_points(4, 4)


class TestDerangementCounts:
    # 0, 1, 2, 9, 44, 265, 1854, 14833 for n = 1..8
    def test_small_values(self):
        assert [derangement_count(n) for n in range(1, 9)] == [
            0, 1, 2, 9, 44, 265, 1854, 14833,
        ]

    def test_matches_inclusion_exclusion(self):
        for n in range(1, 12):
            assert derangement_count(n) == oracles.derangements_by_inclusion_exclusion(n)

    def test_matches_brute_force(self):
        for n in range(1, 8):
            brute = sum(1 for p in _permutations(n) if _fixed_points(p) == 0)
            assert derangement_count(n) == brute

    def test_matches_class_size_sum(self):
        for n in range(2, 10):
            total = sum(
                c.size for c in classes_with_few_fixed_points(n, 0)
            )
            assert derangement_count(n) == total


def test_stabilizer_coset_count():
    # S_1 is the single coset S_{1->1}; at n = 2, S_{1->1} = S_{2->2}
    assert [stabilizer_coset_count(n) for n in range(1, 6)] == [1, 2, 9, 16, 25]


def test_need_degree_names_the_caller_and_the_range():
    need_degree("f", 1, 1)
    need_degree("f", 0, 0, 0)
    need_degree("f", 12, 1, 12)
    with pytest.raises(DegreeRangeError, match=r"^f takes n of at least 2, got 1$"):
        need_degree("f", 1, 2)
    with pytest.raises(DegreeRangeError, match=r"^f takes n from 1 to 12, got 13$"):
        need_degree("f", 13, 1, 12)
    with pytest.raises(DegreeRangeError, match=r"^g takes --max-n from 1 to 9, got 0$"):
        need_degree("g", 0, 1, 9, "--max-n")

