"""Permutations, partitions, conjugacy classes, derangement counts."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrperm.permgroup import (
    MAX_RANK_DEGREE,
    ClassInfo,
    DegreeRangeError,
    Permutation,
    agreements,
    class_size,
    classes_with_few_fixed_points,
    compose,
    conjugacy_classes,
    cycle_type_of_images,
    derangement_count,
    identity,
    image_table,
    inverse,
    need_degree,
    one_line,
    parse_cycles,
    parse_one_line,
    partition_depth,
    partitions_of,
    rank_images,
    rank_permutation,
    stabilizer_coset_count,
    unrank_permutation,
)

import oracles


def _permutations(n):
    """Every degree-n permutation in rank (lexicographic) order."""
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


def _fixed_points(p):
    return sum(1 for i, v in enumerate(p.images, start=1) if i == v)


class TestPermutationBasics:
    def test_identity_fixes_everything(self):
        e = identity(5)
        assert e.images == (1, 2, 3, 4, 5)
        assert _fixed_points(e) == 5
        assert all(e(i) == i for i in range(1, 6))

    def test_application_is_one_based(self):
        p = Permutation((3, 1, 2))
        assert (p(1), p(2), p(3)) == (3, 1, 2)

    def test_invalid_images_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1, 2))
        with pytest.raises(ValueError):
            Permutation((2, 3, 4))

    def test_compose_applies_right_factor_first(self):
        p = parse_one_line("2,3,1")
        q = parse_one_line("1,3,2")
        # (p*q)(i) = p(q(i))
        r = compose(p, q)
        assert r.images == tuple(p(q(i)) for i in (1, 2, 3))
        assert r.images == (2, 1, 3)

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    def test_inverse(self):
        p = parse_one_line("2,3,1")
        assert inverse(p).images == (3, 1, 2)
        for images in itertools.permutations(range(1, 5)):
            p = Permutation(images)
            assert compose(p, inverse(p)) == identity(4)
            assert compose(inverse(p), p) == identity(4)

    def test_str_is_comma_separated(self):
        assert str(parse_one_line("4,3,1,2")) == "4,3,1,2"

    def test_one_line_reads_tuples_lists_and_array_rows_alike(self):
        rows = np.array([[4, 3, 1, 2]], dtype=np.intp)
        for images in ((4, 3, 1, 2), [4, 3, 1, 2], rows[0]):
            assert one_line(images) == "4,3,1,2"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_string_table_is_str_of_every_rank(self, n):
        expected = [str(unrank_permutation(r, n)) for r in range(math.factorial(n))]
        assert [one_line(row) for row in (image_table(n) + 1).tolist()] == expected

    def test_record_behaviour(self):
        p = Permutation(images=(2, 3, 1))
        assert repr(p) == "Permutation(images=(2, 3, 1))"
        assert hash(p) == hash(((2, 3, 1),)) and p == Permutation((2, 3, 1))
        assert pickle.loads(pickle.dumps(p)) == p
        for name in ("images", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, (1, 2, 3))
        with pytest.raises(ValueError):
            Permutation(images=())

    def test_one_line_accepts_whitespace_around_numbers(self):
        assert parse_one_line(" 4, 3 ,1,\t2 ").images == (4, 3, 1, 2)

    @pytest.mark.parametrize(
        "text",
        ["1 2 3", "2,1 3", "1,,2", "1,a", "", "1,2,", "2,1,+3", "1_0,2", "2,1,\u0663"],
    )
    def test_one_line_rejects_split_empty_or_non_numeric_tokens(self, text):
        # "1 2 3" once read as the degree-one permutation (123,), and int() reads
        # a sign, an underscore and the digits of other scripts
        with pytest.raises(ValueError, match="bad one-line permutation"):
            parse_one_line(text)


class TestRanking:
    """Lexicographic rank agrees with itertools.permutations order."""

    def test_rank_zero_is_identity(self):
        assert rank_permutation(identity(4)) == 0

    def test_last_rank_is_reversal(self):
        assert unrank_permutation(23, 4).images == (4, 3, 2, 1)

    def test_matches_itertools_order(self):
        for rank, images in enumerate(itertools.permutations(range(1, 6))):
            p = Permutation(images)
            assert rank_permutation(p) == rank
            assert unrank_permutation(rank, 5) == p

    def test_round_trip_degree_seven(self):
        for rank in (0, 1, 1000, math.factorial(7) - 1):
            assert rank_permutation(unrank_permutation(rank, 7)) == rank

    @given(st.data())
    def test_round_trips_through_degree_nine(self, data):
        n = data.draw(st.integers(1, 9))
        rank = data.draw(st.integers(0, math.factorial(n) - 1))
        p = unrank_permutation(rank, n)
        assert sorted(p.images) == list(range(1, n + 1))
        assert rank_permutation(p) == rank
        images = data.draw(st.permutations(range(1, n + 1)))
        q = Permutation(tuple(images))
        assert unrank_permutation(rank_permutation(q), n) == q

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_permutation(24, 4)
        with pytest.raises(ValueError):
            unrank_permutation(-1, 4)

    def test_all_permutations_is_lex_ordered(self):
        perms = _permutations(4)
        assert len(perms) == 24
        assert [rank_permutation(p) for p in perms] == list(range(24))

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(st.permutations(range(n)), min_size=1)
        )
    )
    def test_image_planes_rank_like_the_scalar_rank(self, rows):
        # one plane per position, one column per permutation
        planes = np.array(rows, dtype=np.int8).T
        expected = [rank_permutation(Permutation(tuple(v + 1 for v in r))) for r in rows]
        assert rank_images(planes).tolist() == expected

    @given(
        st.integers(1, MAX_RANK_DEGREE),
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.sampled_from([np.int8, np.intp]),
        st.integers(0, 2**32 - 1),
    )
    def test_image_planes_rank_like_the_pairwise_lehmer_code(self, n, shape, dtype, seed):
        # one random permutation of 0..n-1 along the leading axis per cell of shape
        keys = np.random.default_rng(seed).random((n, *shape))
        planes = np.argsort(keys, axis=0).astype(dtype)
        reference = np.zeros(tuple(shape), dtype=np.int64)
        for k in range(n - 1):  # digit k compared against every later plane at once
            reference += (planes[k + 1 :] < planes[k]).sum(0) * math.factorial(n - 1 - k)
        ranks = rank_images(planes)
        assert ranks.dtype == np.int64 and ranks.shape == tuple(shape)
        assert np.array_equal(ranks, reference)

    def test_image_planes_past_the_int64_ranks_raise(self):
        planes = np.arange(MAX_RANK_DEGREE)[:, None]
        assert rank_images(planes).tolist() == [0]
        assert rank_images(planes[::-1]).tolist() == [math.factorial(MAX_RANK_DEGREE) - 1]
        with pytest.raises(DegreeRangeError):
            rank_images(np.arange(MAX_RANK_DEGREE + 1)[:, None])


class TestCycleStructure:
    def test_cycle_type_of_identity(self):
        assert cycle_type_of_images(identity(5).images) == (1, 1, 1, 1, 1)

    def test_cycle_type_of_four_cycle(self):
        assert cycle_type_of_images(parse_one_line("4,3,1,2").images) == (4,)

    def test_cycle_type_is_a_partition(self):
        for p in _permutations(5):
            t = cycle_type_of_images(p.images)
            assert sum(t) == 5
            assert list(t) == sorted(t, reverse=True)

    def test_fixed_points_match_ones_in_cycle_type(self):
        for p in _permutations(4):
            assert _fixed_points(p) == cycle_type_of_images(p.images).count(1)

    def test_parse_cycles(self):
        # one cycle: 1 -> 4 -> 2 -> 3 -> 1
        assert parse_cycles("(1,4,2,3)", 4).images == (4, 3, 1, 2)
        assert parse_cycles("(1,2)(3,4)", 4).images == (2, 1, 4, 3)
        assert parse_cycles("", 4) == identity(4)

    def test_parse_cycles_rejects_repeats(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 4)

    def test_parse_cycles_accepts_whitespace_around_numbers_and_cycles(self):
        expected = parse_cycles("(1,2)(3,4)", 4)
        assert parse_cycles(" ( 1 , 2 ) (3,4 ) ", 4) == expected
        assert parse_cycles("(1,2)\t(3,4)", 4) == expected
        assert parse_cycles("()", 4) == parse_cycles("  ", 4) == identity(4)

    @pytest.mark.parametrize(
        "text",
        ["(1 2)", "(1, 2)(3 4)", "(1,,2)", "(1,a)", "(1,2,)", "((1,2))", "1(2,3)"]
        + ["(1,1_0)", "(1,+2)", "(\u0661,2)"],
    )
    def test_parse_cycles_rejects_split_empty_or_non_numeric_tokens(self, text):
        # "(1 2)" once read as the identity, "(1, 2)(3 4)" as a point 34 and
        # "(1,1_0)" as the transposition of 1 and 10
        with pytest.raises(ValueError, match="bad cycle notation"):
            parse_cycles(text, 12)

    def test_parse_cycles_rejects_unbalanced_brackets(self):
        with pytest.raises(ValueError, match="unbalanced cycle notation"):
            parse_cycles("(1,2", 4)


class TestAgreements:
    def test_worked_example(self):
        p = parse_one_line("1,2,4,3")
        q = parse_one_line("1,3,4,2")
        assert agreements(p, q) == 2

    def test_self_agreement_is_degree(self):
        p = parse_one_line("3,1,2")
        assert agreements(p, p) == 3

    def test_agreements_via_quotient(self):
        # the number of agreements of p and q equals the number of fixed
        # points of inverse(p) * q
        for p, q in itertools.product(_permutations(4), repeat=2):
            assert agreements(p, q) == _fixed_points(compose(inverse(p), q))


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


def test_degree_guard():
    with pytest.raises(DegreeRangeError):
        identity(0)
    with pytest.raises(DegreeRangeError):
        unrank_permutation(0, 0)
