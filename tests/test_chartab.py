"""Exact symmetric-group character tables against an independent oracle.

The oracle builds each table from scratch: permutation characters of
set-partition actions, orthogonalized exactly over the rationals.  No code
is shared with the package.
"""

import csv
import io
import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrperm import chartab
from ekrperm.chartab import (
    MAX_TABLE_DEGREE,
    CharacterTable,
    character_table,
    character_value,
    check_column_orthogonality,
    check_row_orthogonality,
    conjugate_partition,
    dimension,
    skew_row_tableaux,
    table_to_csv,
)
from ekrperm.errors import DegreeRangeError
from ekrperm.permgroup import class_size, cycle_type_of_images, partitions_of

import oracles

# Degree-4 table, rows and columns in reverse-lex partition order.
# Recomputed by the tabloid-and-orthogonalize oracle before freezing.
TABLE_4 = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (-1, 0, -1, 1, 3),
    (2, 2): (0, -1, 2, 0, 2),
    (2, 1, 1): (1, 0, -1, -1, 3),
    (1, 1, 1, 1): (-1, 1, 1, -1, 1),
}

# Degree-5 table from the same oracle, classes ordered
# (5), (4,1), (3,2), (3,1,1), (2,2,1), (2,1,1,1), (1,1,1,1,1).
TABLE_5 = {
    (5,): (1, 1, 1, 1, 1, 1, 1),
    (4, 1): (-1, 0, -1, 1, 0, 2, 4),
    (3, 2): (0, -1, 1, -1, 1, 1, 5),
    (3, 1, 1): (1, 0, 0, 0, -2, 0, 6),
    (2, 2, 1): (0, 1, -1, -1, 1, -1, 5),
    (2, 1, 1, 1): (-1, 0, 1, 1, 0, -2, 4),
    (1, 1, 1, 1, 1): (1, -1, -1, 1, 1, -1, 1),
}


class TestShapeHelpers:
    def test_conjugate_partition(self):
        assert conjugate_partition((3, 1)) == (2, 1, 1)
        assert conjugate_partition((2, 2)) == (2, 2)
        assert conjugate_partition((4,)) == (1, 1, 1, 1)
        assert conjugate_partition(()) == ()

    def test_conjugate_counts_the_parts_beyond_each_column(self):
        for n in range(1, 21):
            for shape in partitions_of(n):
                columns = tuple(
                    sum(1 for part in shape if part > j) for j in range(shape[0])
                )
                assert conjugate_partition(shape) == columns

    def test_dimension_by_hook_formula(self):
        assert dimension((4,)) == 1
        assert dimension((2, 2)) == 2
        assert dimension((3, 1)) == 3
        assert dimension((1, 1, 1, 1)) == 1

    def test_standard_module_dimension(self):
        for n in range(2, 9):
            assert dimension((n - 1, 1)) == n - 1

    def test_dimension_squares_sum_to_group_order(self):
        for n in range(1, 9):
            total = sum(dimension(s) ** 2 for s in partitions_of(n))
            assert total == math.factorial(n)

    def test_conjugate_flips_dimension_invariantly(self):
        for s in partitions_of(6):
            assert dimension(conjugate_partition(s)) == dimension(s)


def _horizontal_strip_removals(shape, m):
    """The mu with shape/mu a horizontal strip of m cells.

    These are the mu with shape[i+1] <= mu[i] <= shape[i] and m cells fewer.
    """
    below = tuple(shape[1:]) + (0,)
    for mu in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(below, shape))):
        if sum(shape) - sum(mu) == m:
            yield tuple(part for part in mu if part)


class TestSkewRowTableaux:
    def test_small_shapes_by_hand(self):
        assert skew_row_tableaux(()) == (1,)
        assert skew_row_tableaux((4,)) == (1, 1, 1, 1, 1)
        assert skew_row_tableaux((3, 1)) == (3, 3, 2, 1)
        assert skew_row_tableaux((2, 2)) == (2, 2, 1)

    def test_pieri_sum_through_degree_eight(self):
        # f^{shape/(m)} = sum of f^mu over mu with shape/mu a horizontal m-strip
        for n in range(1, 9):
            for shape in partitions_of(n):
                counts = skew_row_tableaux(shape)
                for m in range(n + 1):
                    pieri = sum(
                        dimension(mu) if mu else 1
                        for mu in _horizontal_strip_removals(shape, m)
                    )
                    count = counts[m] if m < len(counts) else 0
                    assert count == pieri, (shape, m)
                    assert (count == 0) == (shape[0] < m), (shape, m)

    def test_counts_equal_walked_chains_through_degree_ten(self):
        # the oracle walks every chain of cells added to (m); dimension is m = 0
        for n in range(1, 11):
            walked = [oracles.skew_tableaux_over_row(m, n) for m in range(n + 1)]
            for shape in partitions_of(n):
                counts = skew_row_tableaux(shape)
                assert len(counts) == shape[0] + 1
                assert [c.get(shape, 0) for c in walked] == list(counts) + [0] * (
                    n - shape[0]
                ), shape
                assert dimension(shape) == walked[0][shape], shape

    def test_first_entry_is_the_dimension(self):
        for n in range(1, 11):
            for shape in partitions_of(n):
                assert skew_row_tableaux(shape)[0] == dimension(shape)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            skew_row_tableaux((1, 2))


def _double_loop(table):
    """Both orthogonality relations, one pairing at a time, as (rows, columns).

    Rows: sum_C |C| chi_a(C) chi_b(C) is n! when a == b, else 0.  Columns:
    |C| sum_a chi_a(C) chi_a(D) is n! when C == D, else 0.
    """
    order = math.factorial(table.n)
    sizes = [class_size(c) for c in table.partitions]
    rows, columns = table.values, list(zip(*table.values))
    rows_ok = all(
        sum(w * x * y for w, x, y in zip(sizes, rows[a], rows[b]))
        == (order if a == b else 0)
        for a in range(len(rows))
        for b in range(len(rows))
    )
    columns_ok = all(
        sizes[c] * sum(x * y for x, y in zip(columns[c], columns[d]))
        == (order if c == d else 0)
        for c in range(len(columns))
        for d in range(len(columns))
    )
    return rows_ok, columns_ok


@lru_cache(maxsize=None)
def _oracle_table(n):
    return oracles.brute_force_character_table(n)


class TestCharacterValues:
    def test_frozen_degree_four_table(self):
        classes = partitions_of(4)
        for shape, row in TABLE_4.items():
            for cycles, expected in zip(classes, row):
                assert character_value(shape, cycles) == expected

    def test_frozen_degree_five_table(self):
        classes = partitions_of(5)
        for shape, row in TABLE_5.items():
            for cycles, expected in zip(classes, row):
                assert character_value(shape, cycles) == expected

    def test_oracle_table_degree_four(self):
        oracle = oracles.brute_force_character_table(4)
        for shape, row in oracle.items():
            assert TABLE_4[shape] == row

    def test_oracle_table_degree_five(self):
        oracle = oracles.brute_force_character_table(5)
        for shape, row in oracle.items():
            assert TABLE_5[shape] == row

    @given(st.data())
    def test_random_values_match_oracle_through_degree_six(self, data):
        n = data.draw(st.integers(1, 6))
        classes = oracles.partitions_reverse_lex(n)
        shape = data.draw(st.sampled_from(classes))
        cycles = data.draw(st.sampled_from(classes))
        expected = dict(zip(classes, _oracle_table(n)[shape]))[cycles]
        assert character_value(shape, cycles) == expected

    @given(st.data())
    def test_bead_recursion_matches_frobenius_through_degree_eight(self, data):
        n = data.draw(st.integers(1, 8))
        classes = oracles.partitions_reverse_lex(n)
        shape = data.draw(st.sampled_from(classes))
        cycles = data.draw(st.sampled_from(classes))
        expected = oracles.frobenius_character(shape, cycles)
        assert character_value(shape, cycles) == expected
        table = character_table(n)
        row = table.values[table.partitions.index(shape)]
        assert row[table.partitions.index(cycles)] == expected

    def test_frobenius_oracle_matches_brute_force_through_degree_six(self):
        for n in range(1, 7):
            classes = oracles.partitions_reverse_lex(n)
            for shape, row in _oracle_table(n).items():
                assert [oracles.frobenius_character(shape, c) for c in classes] == list(row)

    def test_trivial_character_is_constant_one(self):
        for n in range(1, 8):
            assert all(character_value((n,), c) == 1 for c in partitions_of(n))

    def test_standard_character_counts_fixed_points(self):
        # value on a class is (number of fixed points) - 1
        for n in range(2, 8):
            for cycles in partitions_of(n):
                expected = cycles.count(1) - 1
                assert character_value((n - 1, 1), cycles) == expected

    def test_sign_character(self):
        for n in range(2, 7):
            for cycles in partitions_of(n):
                parity = (-1) ** (n - len(cycles))
                assert character_value((1,) * n, cycles) == parity

    def test_conjugate_twists_by_sign(self):
        for shape in partitions_of(6):
            for cycles in partitions_of(6):
                lhs = character_value(conjugate_partition(shape), cycles)
                parity = (-1) ** (6 - len(cycles))
                assert lhs == parity * character_value(shape, cycles)

    def test_identity_column_is_dimension(self):
        for n in range(1, 8):
            for shape in partitions_of(n):
                assert character_value(shape, (1,) * n) == dimension(shape)

    def test_five_cycle_column(self):
        # hooks contribute a sign, everything else vanishes
        assert character_value((3, 2), (5,)) == 0
        assert character_value((2, 2, 1), (5,)) == 0
        assert character_value((3, 1, 1), (5,)) == 1
        assert character_value((2, 1, 1, 1), (5,)) == -1

    def test_n_cycle_character_closed_form(self):
        # (-1)^(rows - 1) on hooks, 0 on every other shape
        for n in range(2, 9):
            for shape in partitions_of(n):
                hook = len(shape) == 1 or shape[1] == 1
                expected = (-1) ** (len(shape) - 1) if hook else 0
                assert character_value(shape, (n,)) == expected

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            character_value((3, 1), (5,))


class TestTableObject:
    def test_row_and_column_layout(self):
        table = character_table(4)
        assert isinstance(table, CharacterTable)
        assert table.partitions == partitions_of(4)
        for shape, row in TABLE_4.items():
            assert table.values[table.partitions.index(shape)] == row

    def test_orthogonality_small_degrees(self):
        for n in range(1, MAX_TABLE_DEGREE + 1):
            table = character_table(n)
            assert check_row_orthogonality(table)
            assert check_column_orthogonality(table)

    @given(st.data())
    def test_checks_match_the_double_loop_on_changed_tables(self, data):
        n = data.draw(st.integers(1, 8))
        table = character_table(n)
        size = len(table.partitions)
        values = [list(row) for row in table.values]
        a, c = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        values[a][c] += data.draw(
            st.integers(-(10**30), 10**30).filter(bool), label="change"
        )
        if size > 1 and data.draw(st.booleans(), label="repeat a column"):
            src, dst = data.draw(st.permutations(range(size)))[:2]
            for row in values:
                row[dst] = row[src]
        doctored = CharacterTable(n, table.partitions, tuple(map(tuple, values)))
        assert (
            check_row_orthogonality(doctored),
            check_column_orthogonality(doctored),
        ) == _double_loop(doctored)

    def test_packed_digits_do_not_carry(self):
        # rows (2^k) and (1) pair to 2^k, not 0; packed at shift k, that digit
        # would carry into the norms 2^(2k+1) and 2, and both rows would pass
        for k in range(1, 80):
            rows, norms = ((2**k,), (1,)), (2 ** (2 * k + 1), 2)
            assert not chartab._orthonormal(rows, (1,), norms), k

    def test_checks_past_the_degree_cap(self, monkeypatch):
        # the uncached builder, so no table above the cap outlives the patch
        monkeypatch.setattr(chartab, "MAX_TABLE_DEGREE", 16)
        for n in range(13, 17):
            table = character_table.__wrapped__(n)
            assert check_row_orthogonality(table), n
            assert check_column_orthogonality(table), n
            values = [list(row) for row in table.values]
            values[n % 7][n % 5] += 1
            doctored = CharacterTable(n, table.partitions, tuple(map(tuple, values)))
            assert not check_row_orthogonality(doctored), n
            assert not check_column_orthogonality(doctored), n

    def test_row_orthogonality_fails_on_a_repeated_row(self):
        # every row keeps its norm; only the pair (2, 3) is not orthogonal
        table = character_table(5)
        values = list(table.values)
        values[3] = values[2]
        doctored = CharacterTable(5, table.partitions, tuple(values))
        assert not check_row_orthogonality(doctored)

    def test_row_orthogonality_by_hand(self):
        # sum over classes of |C| * chi(C) * psi(C) is 0 or |G|
        table = character_table(5)
        for a in table.values:
            for b in table.values:
                total = sum(
                    class_size(c) * chi * psi
                    for c, chi, psi in zip(table.partitions, a, b)
                )
                assert total == (math.factorial(5) if a == b else 0)

    def test_character_norm_via_enumeration(self):
        # direct sum over all 120 group elements, no class bookkeeping
        for shape in ((3, 2), (2, 2, 1)):
            total = sum(
                character_value(shape, cycle_type_of_images(images)) ** 2
                for images in itertools.permutations(range(1, 6))
            )
            assert total == math.factorial(5)

    def test_degree_cap(self):
        with pytest.raises(DegreeRangeError):
            character_table(MAX_TABLE_DEGREE + 1)


class TestAgainstTheRemovalRecursions:
    """The forward strip tables against recursions that remove strips and corners.

    oracles.strip_removal_table removes border strips one entry at a time and
    oracles.corner_removal_counts removes corners; neither shares code with
    the package, and both are cross-checked at small degrees.
    """

    def test_strip_removal_oracle_matches_frobenius_through_degree_seven(self):
        for n in range(1, 8):
            classes = oracles.partitions_reverse_lex(n)
            for shape, row in oracles.strip_removal_table(n).items():
                assert [oracles.frobenius_character(shape, c) for c in classes] == list(
                    row
                ), shape

    def test_corner_removal_oracle_matches_walked_chains_through_degree_ten(self):
        counts = oracles.corner_removal_counts(10)
        for n in range(11):
            walked = [oracles.skew_tableaux_over_row(m, n) for m in range(n + 1)]
            for shape in oracles.partitions_descending(n):
                expected = [c.get(shape, 0) for c in walked]
                assert list(counts[shape]) == expected[: len(counts[shape])], shape
                assert not any(expected[len(counts[shape]) :]), shape

    def test_whole_tables_through_degree_fourteen(self, monkeypatch):
        # the uncached builder, so no table above the cap outlives the patch
        monkeypatch.setattr(chartab, "MAX_TABLE_DEGREE", 14)
        for n in range(1, 15):
            table = character_table.__wrapped__(n)
            oracle = oracles.strip_removal_table(n)
            assert table.partitions == tuple(oracle), n
            assert table.values == tuple(oracle.values()), n

    @pytest.mark.slow
    def test_whole_table_at_degree_twenty(self, monkeypatch):
        monkeypatch.setattr(chartab, "MAX_TABLE_DEGREE", 20)
        try:
            table = character_table.__wrapped__(20)
        finally:  # the strip dicts of degree 20 hold tens of MiB
            chartab._murnaghan_nakayama.cache_clear()
        oracle = oracles.strip_removal_table(20)
        assert table.partitions == tuple(oracle)
        assert table.values == tuple(oracle.values())

    def test_character_values_read_the_column_dicts(self):
        for n in range(1, 9):
            classes = oracles.partitions_reverse_lex(n)
            for shape, row in oracles.strip_removal_table(n).items():
                assert [character_value(shape, c) for c in classes] == list(row), shape

    def test_skew_counts_of_every_shape_through_degree_thirty(self):
        # also pins the digit width: from n = 3 on, the largest dimension
        # overflows a digit of a third of the width, and the carry misreads
        for shape, expected in oracles.corner_removal_counts(30).items():
            assert skew_row_tableaux(shape) == expected, shape

    def test_one_memoized_dict_per_cycle_suffix(self):
        # ekrbench's tracer reads cache_info() when a traced run exits
        chartab._murnaghan_nakayama.cache_clear()
        character_table.__wrapped__(7)
        info = chartab._murnaghan_nakayama.cache_info()
        suffixes = {
            mu[i:] for mu in oracles.partitions_descending(7) for i in range(len(mu) + 1)
        }
        assert (info.misses, info.currsize) == (len(suffixes), len(suffixes))
        # each column misses, and each past the first stops at one cached suffix
        assert info.hits == oracles.partition_count(7) - 1


class TestCsv:
    def test_header_and_shape(self):
        text = table_to_csv(character_table(4))
        lines = text.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("partition/cycle_type")

    def test_standard_row_rendering(self):
        text = table_to_csv(character_table(4))
        assert '"3,1",-1,0,-1,1,3' in text

    def test_round_trip_against_values(self):
        table = character_table(5)
        rows = list(csv.reader(io.StringIO(table_to_csv(table))))
        header, body = rows[0], rows[1:]
        assert header[1:] == [",".join(str(k) for k in c) for c in table.partitions]
        for row, shape in zip(body, table.partitions):
            assert row[0] == ",".join(str(k) for k in shape)
            values = tuple(int(tok) for tok in row[1:])
            assert values == table.values[table.partitions.index(shape)]
