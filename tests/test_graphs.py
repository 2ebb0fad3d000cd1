"""Graphs on permutations: constructions, catalogues, exhaustive search."""

import collections
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrperm import cli, graphs, groupcmds, permgroup, scheme
from ekrperm.chartab import union_spectrum
from ekrperm.errors import (
    DegreeRangeError,
    FamilyValidationError,
    UnsupportedConstructionError,
)
from ekrperm.graphs import (
    affine_clique,
    cycle_decomposition_clique,
    equitable_quotient,
    latin_clique,
    latin_coset_cover,
    max_independent_sets,
    odd_n_latin_clique,
    parse_one_line,
    read_family,
    validate_clique,
    validate_family,
    write_family,
)
from ekrperm.permgroup import agreements, cycle_type_of_images, derangement_count
from ekrperm.scheme import constraint_rows

import oracles
from oracles import compose, rank_permutation, unrank_permutation


class _ParentField:
    """GF(q) as graphs built it before one base-p route served every q."""

    POLYS = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}

    def __init__(self, q):
        if q not in self.POLYS:
            self.add = lambda a, b: (a + b) % q
            self.mul = lambda a, b: (a * b) % q
            return
        p, poly = self.POLYS[q]
        k = len(poly) - 1

        def to_coeffs(a):
            out = []
            for _ in range(k):
                a, r = divmod(a, p)
                out.append(r)
            return out

        def from_coeffs(cs):
            value = 0
            for c in reversed(cs):
                value = value * p + c
            return value

        def mul(a, b):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(to_coeffs(a)):
                for j, y in enumerate(to_coeffs(b)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for deg in range(2 * k - 2, k - 1, -1):
                coeff = prod[deg]
                if coeff:
                    prod[deg] = 0
                    for j in range(k):
                        prod[deg - k + j] = (prod[deg - k + j] - coeff * poly[j]) % p
            return from_coeffs(prod[:k])

        self.mul = mul
        self.add = lambda a, b: from_coeffs(
            [(x + y) % p for x, y in zip(to_coeffs(a), to_coeffs(b))]
        )


def as_permutations(rows):
    """Image rows as tuples, for the reference functions and the set lookups."""
    return [tuple(row) for row in rows.tolist()]


def identity(n):
    return tuple(range(1, n + 1))


def point_families(n):
    """The image rows of the n^2 families S_{i->j}, keyed by the pair (i, j)."""
    points = range(1, n + 1)
    return {(i, j): constraint_rows(n, [(i, j)]) for i in points for j in points}


class TestBuildGraph:
    """The agreement graph as the search builds it: one neighbour bit mask per rank."""

    def test_degree_equals_derangement_count(self):
        for n in (3, 4, 5):
            degrees = {mask.bit_count() for mask in graphs._adjacency_masks(n, 0)}
            assert degrees == {derangement_count(n)}

    def test_threshold_one_degree(self):
        degrees = {mask.bit_count() for mask in graphs._adjacency_masks(5, 1)}
        assert degrees == {89}
        # the masks and the spectrum read one class-level connection set
        for n in range(1, 7):
            for t in range(n):
                degrees = {mask.bit_count() for mask in graphs._adjacency_masks(n, t)}
                assert degrees == {union_spectrum(n, t).valency}, (n, t)

    def test_adjacency_predicate(self):
        mask = graphs._adjacency_masks(4, 0)[rank_permutation(identity(4))]
        assert mask >> rank_permutation((2, 1, 4, 3)) & 1
        assert not mask >> rank_permutation((2, 1, 3, 4)) & 1

    def test_masks_symmetric_and_irreflexive(self):
        masks = graphs._adjacency_masks(4, 0)
        for i, mask in enumerate(masks):
            assert not (mask >> i) & 1
            for j in range(24):
                assert ((mask >> j) & 1) == ((masks[j] >> i) & 1)

    @pytest.mark.parametrize(
        "n, t", [(3, 0), (4, 0), (5, 0), (6, 0), (4, 1), (5, 1)]
    )
    def test_packed_masks_equal_shift_sums(self, n, t):
        gd = scheme.group_data(n)
        # the connection set: the ranks that fix at most t points (never the identity)
        connection = np.flatnonzero((gd.images == np.arange(n)).sum(1) <= t)
        rows = gd.compose_ranks([[r] for r in range(gd.order)], connection)
        shifted = [sum(1 << r for r in row) for row in rows.tolist()]
        assert graphs._adjacency_masks(n, t) == shifted

    @pytest.mark.parametrize("n", range(1, 7))
    def test_masks_equal_the_agreement_counts(self, n):
        images = scheme.image_table(n)
        agree = scheme.agreement_counts(images, images)
        for t in range(n):
            packed = np.packbits(agree <= t, axis=1, bitorder="little")
            expected = [int.from_bytes(row.tobytes(), "little") for row in packed]
            assert graphs._adjacency_masks(n, t) == expected


class TestValidators:
    def test_validate_clique_witness(self):
        rows = np.array([[1, 2, 3, 4], [2, 1, 3, 4]])
        ok, witness = validate_clique(rows, 0)
        assert not ok
        assert [row.tolist() for row in witness] == rows.tolist()

    def test_validate_family_witness(self):
        rows = np.array([[1, 2, 3, 4], [2, 1, 4, 3]])
        ok, witness = validate_family(rows, 0)
        assert not ok
        assert [row.tolist() for row in witness] == rows.tolist()

    def test_valid_inputs(self):
        assert validate_clique(latin_clique(4).members, 0) == (True, None)
        assert validate_family(constraint_rows(4, [(1, 1)]), 0) == (True, None)


def _first_failing_pair(members, t, clique):
    """The first failing pair straight from the definition, one pair at a time."""
    rows = members.tolist()
    for i, p in enumerate(rows):
        for j in range(i + 1, len(rows)):
            q = rows[j]
            a = sum(x == y for x, y in zip(p, q))
            if p == q or (a > t if clique else a <= t):
                return i, j, a
    return None


def _assert_entry_points_agree(members, t, clique):
    """All three validators report the pair the nested loop finds first."""
    bad = _first_failing_pair(members, t, clique)
    assert scheme.first_agreement_violation(members, t, clique) == bad
    validate = validate_clique if clique else validate_family
    ok, witness = validate(members, t)
    assert ok is (bad is None)
    if bad is None:
        assert witness is None
        assert np.array_equal(scheme._validated_rows(members, t, clique), members)
        return
    i, j, a = bad
    assert [row.tolist() for row in witness] == members[[i, j]].tolist()
    p, q = permgroup.one_line(members[i]), permgroup.one_line(members[j])
    if p == q:
        message = f"repeated member {p}"
    else:
        kind = "a clique" if clique else "independent"
        message = f"not {kind} at threshold {t}: {p} and {q} agree on {a} points"
    with pytest.raises(FamilyValidationError) as info:
        scheme._validated_rows(members, t, clique)
    assert str(info.value) == message


@st.composite
def _member_rows(draw):
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=6))
    images = draw(st.lists(st.sampled_from(pool), max_size=12))
    rows = np.array(images, dtype=np.intp).reshape(len(images), n)
    return rows, draw(st.integers(-1, n + 1))


class TestAgreementValidator:
    @given(_member_rows(), st.booleans(), st.sampled_from([1, 5, 1 << 16]))
    def test_matches_the_nested_loop(self, case, clique, block_pairs):
        members, t = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "AGREEMENT_BLOCK_PAIRS", block_pairs)
            _assert_entry_points_agree(members, t, clique)

    @given(_member_rows(), st.booleans(), st.sampled_from(["int8", "uint8", "int64"]))
    def test_every_integer_dtype_agrees(self, case, clique, dtype):
        members, t = case
        images = members.astype(dtype)
        assert scheme.first_agreement_violation(
            images, t, clique
        ) == scheme.first_agreement_violation(members, t, clique)
        # the witness is the same two rows whatever the dtype
        validate = validate_clique if clique else validate_family
        ok, witness = validate(members, t)
        rows_ok, rows = validate(images, t)
        assert rows_ok is ok
        if witness is None:
            assert rows is None
        else:
            assert [row.tolist() for row in rows] == [row.tolist() for row in witness]

    @pytest.mark.parametrize("block_pairs", [1, 40])
    def test_late_failures_in_small_blocks(self, monkeypatch, block_pairs):
        # a budget of 1 pair gives one row per block; 40 gives two rows once
        # at most 20 later members remain
        monkeypatch.setattr(scheme, "AGREEMENT_BLOCK_PAIRS", block_pairs)
        points = constraint_rows(5, [(5, 5)])
        late = [points[10], [2, 3, 4, 5, 1], [1, 5, 3, 4, 2]]
        for extra in late:
            _assert_entry_points_agree(np.vstack([points, extra]), 0, False)
            _assert_entry_points_agree(np.vstack([points, extra]), 3, True)
        clique = latin_clique(7).members
        _assert_entry_points_agree(np.vstack([clique, clique[3]]), 0, True)
        _assert_entry_points_agree(np.vstack([clique, clique[3]]), 6, True)

    def test_degree_128(self):
        # images and agreement counts reach 128, past the top of int8
        rows = latin_clique(128).members
        assert rows.max() == 128
        assert validate_clique(rows, 0) == (True, None)
        ok, witness = validate_clique(rows[[5, 5]], 0)
        assert not ok
        assert [row.tolist() for row in witness] == [rows[5].tolist()] * 2

    def test_empty_and_single_families_pass(self):
        for members in (np.empty((0, 3), dtype=np.intp), np.array([[1, 2, 3]])):
            for clique in (True, False):
                _assert_entry_points_agree(members, 0, clique)


class TestLatinCliques:
    def test_degree_two(self):
        cert = latin_clique(2)
        assert cert.members.tolist() == [[1, 2], [2, 1]]

    def test_rows_pairwise_disagree(self):
        for n in (3, 4, 5, 8):
            cert = latin_clique(n)
            assert cert.size == n
            assert cert.construction == "cyclic-latin"
            assert cert.validated
            members = as_permutations(cert.members)
            for i in range(n):
                for j in range(i + 1, n):
                    assert agreements(members[i], members[j]) == 0

    def test_forms_a_group(self):
        # the cyclic construction is closed under composition
        members = set(as_permutations(latin_clique(5).members))
        for p in members:
            for q in members:
                assert compose(p, q) in members

    def test_contains_identity(self):
        assert identity(6) in as_permutations(latin_clique(6).members)

    def test_rows_are_read_only_intp(self):
        members = latin_clique(5).members
        assert members.dtype == np.intp and members.shape == (5, 5)
        with pytest.raises(ValueError, match="read-only"):
            members[0, 0] = 2


class TestOddLatinCliques:
    def test_prescribed_second_row(self):
        cert = odd_n_latin_clique(5)
        assert cert.members[0].tolist() == [1, 2, 3, 4, 5]
        assert cert.members[1].tolist() == [2, 1, 5, 3, 4]

    def test_second_row_is_odd(self):
        # parity is what distinguishes this clique from the cyclic one
        for n in (5, 7, 9):
            cert = odd_n_latin_clique(n)
            second = cert.members[1].tolist()
            parity = (-1) ** (n - len(cycle_type_of_images(second)))
            assert parity == -1

    def test_validates_at_odd_degrees(self):
        for n in (5, 7, 9):
            cert = odd_n_latin_clique(n)
            assert cert.size == n
            assert cert.construction == "odd-latin"
            assert cert.validated

    def test_rejected_degrees(self):
        for n in (3, 4, 6):
            with pytest.raises(UnsupportedConstructionError):
                odd_n_latin_clique(n)


class TestCycleDecompositionCliques:
    def test_odd_degrees_by_construction(self):
        for n in (3, 5, 7):
            cert = cycle_decomposition_clique(n)
            assert cert.size == n
            assert cert.construction == "hamilton-decomposition"
            assert identity(n) in as_permutations(cert.members)

    def test_members_are_full_cycles(self):
        for n in (5, 7):
            for p in as_permutations(cycle_decomposition_clique(n).members):
                if p != identity(n):
                    assert cycle_type_of_images(p) == (n,)

    def test_even_degree_eight_from_the_table(self):
        cert = cycle_decomposition_clique(8)
        assert cert.size == 8
        assert all(
            cycle_type_of_images(p) == (8,)
            for p in as_permutations(cert.members)
            if p != identity(8)
        )

    def test_a_damaged_table_is_caught(self, monkeypatch, capsys):
        cycles = list(graphs._DEGREE_8_CYCLES)
        # the last cycle traversed backwards reuses arcs of the others
        monkeypatch.setattr(graphs, "_DEGREE_8_CYCLES", cycles[:-1] + [cycles[0][::-1]])
        with pytest.raises(AssertionError, match="every arc exactly once"):
            cycle_decomposition_clique(8)
        # one cycle short leaves arcs uncovered
        monkeypatch.setattr(graphs, "_DEGREE_8_CYCLES", cycles[:-1])
        with pytest.raises(AssertionError, match="every arc exactly once"):
            cycle_decomposition_clique(8)
        # a vertex visited twice leaves another without a successor: an
        # internal failure, not a usage error
        damaged = [(2,) + cycles[0][1:]] + cycles[1:]
        monkeypatch.setattr(graphs, "_DEGREE_8_CYCLES", damaged)
        assert cli.main(["clique", "8", "--method", "cycles"]) == cli.EXIT_INTERNAL == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal check failed:"
            " the Hamilton cycles do not use every arc exactly once\n"
        )

    def test_impossible_even_degrees(self):
        with pytest.raises(UnsupportedConstructionError):
            cycle_decomposition_clique(4)
        with pytest.raises(UnsupportedConstructionError):
            cycle_decomposition_clique(6)

    def test_no_even_degree_past_the_table(self):
        with pytest.raises(UnsupportedConstructionError, match="degree 10"):
            cycle_decomposition_clique(10)

    def test_degree_two_is_untabulated_and_one_out_of_range(self):
        with pytest.raises(UnsupportedConstructionError, match="degree 2$"):
            cycle_decomposition_clique(2)
        with pytest.raises(DegreeRangeError, match="at least 2"):
            cycle_decomposition_clique(1)

    def test_arc_coverage(self):
        # the n-1 cycles traverse every ordered pair exactly once
        n = 7
        rows = cycle_decomposition_clique(n).members.tolist()
        arcs = set()
        for row in rows[1:]:  # the identity, then one successor row per cycle
            for i in range(1, n + 1):
                arc = (i, row[i - 1])
                assert arc not in arcs
                arcs.add(arc)
        assert len(arcs) == n * (n - 1)


class TestAffineCliques:
    def test_prime_field_degrees(self):
        for q in (3, 5, 7):
            cert = affine_clique(q)
            assert cert.size == q * (q - 1)
            assert cert.t == 1
            assert cert.construction == "affine"

    def test_degree_three_is_whole_group(self):
        members = {tuple(row) for row in affine_clique(3).members.tolist()}
        assert members == set(itertools.permutations(range(1, 4)))

    def test_prime_power_degrees(self):
        assert affine_clique(4).size == 12
        assert affine_clique(8).size == 56
        assert affine_clique(9).size == 72

    @pytest.mark.parametrize("q", graphs._AFFINE_SIZES)
    def test_one_route_equals_the_prime_and_polynomial_branches(self, q):
        add, mul = graphs._field(q)
        parent = _ParentField(q)
        assert add.shape == mul.shape == (q, q)
        for a, b in itertools.product(range(q), repeat=2):
            assert add[a, b] == parent.add(a, b)
            assert mul[a, b] == parent.mul(a, b)

    @pytest.mark.parametrize("q", graphs._AFFINE_SIZES)
    def test_tables_obey_the_field_laws(self, q):
        add, mul = graphs._field(q)
        elements = np.arange(q)
        a, b, c = np.ix_(elements, elements, elements)
        for table in (add, mul):
            assert ((0 <= table) & (table < q)).all()
            assert np.array_equal(table, table.T)
            assert np.array_equal(table[table[a, b], c], table[a, table[b, c]])
        assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
        assert add[0].tolist() == mul[1].tolist() == elements.tolist()
        assert (mul[0] == 0).all()
        # each nonzero a has exactly one b with a b = 1
        assert ((mul[1:] == 1).sum(axis=1) == 1).all()

    def test_non_prime_power_rejected(self):
        with pytest.raises(UnsupportedConstructionError):
            affine_clique(6)
        with pytest.raises(UnsupportedConstructionError):
            affine_clique(10)


# Each clique --method with degrees at which it builds; t = 0: latin,
# odd-latin and cycles, t = 1: affine.
_SHARP_CASES = [
    *[("latin", n) for n in (2, 3, 5, 8, 9)],
    *[("odd-latin", n) for n in (5, 7, 9)],
    *[("cycles", n) for n in (3, 5, 7, 8, 9)],
    *[("affine", q) for q in (2, 3, 4, 5, 7, 8, 9)],
]


class TestSharplyTransitive:
    @pytest.mark.parametrize(
        "method, n", _SHARP_CASES, ids=[f"{m} {n}" for m, n in _SHARP_CASES]
    )
    def test_every_ordered_tuple_is_hit_once(self, method, n):
        # a clique at threshold t of n!/(n-t-1)! members: its images of each
        # ordered (t+1)-tuple of distinct points are every such tuple once
        cert = getattr(graphs, cli._CLIQUE_CONSTRUCTIONS[method])(n)
        k = cert.t + 1
        assert cert.validated
        assert cert.size == math.perm(n, k)
        for points in itertools.permutations(range(n), k):
            images = collections.Counter(map(tuple, cert.members[:, points].tolist()))
            assert len(images) == math.perm(n, k)
            assert set(images.values()) == {1}

    def test_the_bounds_table_names_a_clique_at_each_threshold(self):
        for t, method in groupcmds._SHARPLY_TRANSITIVE.items():
            assert method in {m for m, _ in _SHARP_CASES}
            assert getattr(graphs, cli._CLIQUE_CONSTRUCTIONS[method])(t + 2).t == t


class TestFamilies:
    def test_single_constraint_size(self):
        rows = constraint_rows(4, [(1, 1)])
        assert rows.shape == (6, 4)
        assert (rows[:, 0] == 1).all()

    def test_two_constraint_size(self):
        rows = constraint_rows(5, [(1, 2), (2, 1)])
        assert rows.shape == (6, 5)
        assert (rows[:, :2] == [2, 1]).all()

    def test_members_pairwise_intersect(self):
        members = as_permutations(constraint_rows(4, [(3, 3)]))
        for p in members:
            for q in members:
                assert agreements(p, q) >= 1

    def test_two_constraints_meet_in_two_points(self):
        rows = constraint_rows(5, [(1, 1), (2, 2)])
        members = as_permutations(rows)
        for p in members:
            for q in members:
                assert agreements(p, q) >= 2
        assert validate_family(rows, t=1) == (True, None)

    def test_conflicting_constraints(self):
        with pytest.raises(ValueError):
            constraint_rows(4, [(1, 1), (1, 2)])
        with pytest.raises(ValueError):
            constraint_rows(4, [(1, 1), (2, 1)])

    def test_constraint_count_bounds(self):
        with pytest.raises(ValueError):
            constraint_rows(4, [])
        with pytest.raises(ValueError):
            constraint_rows(4, [(1, 1), (2, 2), (3, 3), (4, 4)])

    def test_bad_constraints_keep_their_messages(self):
        cases = [
            ([], "need between 1 and 3 constraints, got 0"),
            ([(2, 5)], "constraint value 5 outside 1..4"),
            ([(2, 1), (1, 1)], r"conflicting constraints: \(\(1, 1\), \(2, 1\)\)"),
        ]
        for constraints, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                constraint_rows(4, constraints)

    @pytest.mark.parametrize("k", [-1, 0, 5])
    def test_constraint_families_need_k_from_1_to_n(self, k):
        with pytest.raises(ValueError, match=rf"^need 1 <= k <= n, got k={k}, n=4$"):
            scheme.constraint_families(4, k)

    def test_constraint_families_at_k_equal_n(self):
        # one family per permutation of 1..4, its only member, in rank order
        ranks = scheme.constraint_families(4, 4)
        assert ranks.shape == (24, 1)
        assert ranks[:, 0].tolist() == list(range(24))

    @pytest.mark.parametrize("free", [2, 3])
    def test_any_degree_builds_only_the_free_points(self, monkeypatch, free):
        # at degree 12 the members are the orders of the free values alone
        n = 12
        shift = [(x, x % n + 1) for x in range(1, n + 1)]
        constraints = shift[: n - free]
        degrees = []
        real = scheme.image_table

        def spy(k):
            degrees.append(k)
            return real(k)

        monkeypatch.setattr(scheme, "image_table", spy)
        rows = constraint_rows(n, reversed(constraints))
        assert degrees == [free]
        fixed = [y for _, y in constraints]
        free_values = sorted(set(range(1, n + 1)) - set(fixed))
        assert [tuple(row) for row in rows.tolist()] == [
            tuple(fixed) + order for order in itertools.permutations(free_values)
        ]

    def test_all_point_families(self):
        catalogue = point_families(4)
        assert len(catalogue) == 16
        assert all(rows.shape == (6, 4) for rows in catalogue.values())
        identity_holders = [
            key for key, rows in catalogue.items() if [1, 2, 3, 4] in rows.tolist()
        ]
        assert sorted(identity_holders) == [(1, 1), (2, 2), (3, 3), (4, 4)]


class TestEquitableQuotient:
    def test_degree_four(self):
        q = equitable_quotient(4)
        assert q.matrix == ((0, 9), (3, 6))
        assert q.eigenvalues == (9, -3)
        assert q.cell_sizes == (6, 18)
        assert q.equitable and q.matches_closed_form

    def test_degree_five(self):
        q = equitable_quotient(5)
        assert q.matrix == ((0, 44), (11, 33))
        assert q.eigenvalues == (44, -11)

    def test_row_sums_are_the_valency(self):
        for n in range(2, 8):
            q = equitable_quotient(n)
            d = derangement_count(n)
            assert q.matrix[0][0] + q.matrix[0][1] == d
            assert q.matrix[1][0] + q.matrix[1][1] == d
            assert q.matches_closed_form


    @pytest.mark.parametrize("n", range(2, 8))
    def test_counts_are_the_walk_of_every_derangement(self, n):
        counts = [0] * (n + 1)
        for images in itertools.permutations(range(1, n + 1)):
            if all(v != i for i, v in enumerate(images, start=1)):
                counts[images[-1]] += 1
        assert permgroup.derangements_by_last_image(n) == tuple(counts)

    # every degree that equitable_quotient walks
    @pytest.mark.parametrize("n", range(1, permgroup.MAX_QUOTIENT_DEGREE + 1))
    def test_walk_equals_the_inclusion_exclusion_count(self, n):
        walk = permgroup.derangements_by_last_image(n)
        assert walk == oracles.derangements_ending_at(n)


class TestCosetCover:
    def test_partition_into_cliques(self):
        n = 4
        cover = latin_coset_cover(n)
        assert len(cover) == math.factorial(n) // n
        seen = set()
        for coset in cover:
            assert len(coset) == n
            seen.update(coset)
            members = scheme.image_table(n)[list(coset)] + 1
            assert validate_clique(members, 0) == (True, None)
        assert seen == set(range(math.factorial(n)))


class TestSearch:
    def test_degree_two(self):
        result = max_independent_sets(2)
        assert result.alpha == 1
        assert result.count == 2

    def test_small_degrees_catalogue(self):
        expected_counts = {3: 9, 4: 16, 5: 25}
        for n, expected in expected_counts.items():
            result = max_independent_sets(n)
            assert result.alpha == math.factorial(n - 1)
            assert result.omega == n
            assert result.tight
            assert result.count == expected
            catalogue = {
                frozenset(map(tuple, rows.tolist()))
                for rows in point_families(n).values()
            }
            for row in result.ranks.tolist():
                members = frozenset(unrank_permutation(r, n) for r in row)
                assert members in catalogue

    @pytest.mark.parametrize("n", range(2, 7))
    def test_root_branches_are_the_walk(self, n):
        # the search maps these branches, in process or over a pool of workers
        full = (1 << math.factorial(n)) - 1
        nonadj = [full & ~m for m in graphs._adjacency_masks(n, 0)]
        cover = latin_coset_cover(n)
        coset_masks = [sum(1 << v for v in coset) for coset in cover]
        walk = graphs._enumerate_transversals(coset_masks, nonadj, full, ())
        branches = [
            chosen
            for v in cover[0]
            for chosen in graphs._enumerate_transversals(
                coset_masks[1:], nonadj, nonadj[v], (v,)
            )
        ]
        assert branches == walk

    def test_the_walk_meets_every_point_stabilizer_coset_at_degree_seven(self):
        # one degree past the search's cap: the cover has 720 cosets, and the
        # forced picks are taken in bulk before each branch
        n = 7
        full = (1 << math.factorial(n)) - 1
        nonadj = [full & ~m for m in graphs._adjacency_masks(n, 0)]
        coset_masks = [sum(1 << v for v in coset) for coset in latin_coset_cover(n)]
        walk = graphs._enumerate_transversals(coset_masks, nonadj, full, ())
        assert len(walk) == permgroup.stabilizer_coset_count(n) == 49
        images = scheme.image_table(n)
        families = {scheme.point_family(images[sorted(chosen)]) for chosen in walk}
        assert families == set(itertools.product(range(1, n + 1), repeat=2))

    def test_a_coset_with_no_allowed_vertex_ends_the_branch(self):
        # vertices 0..3 in cosets {0, 1} and {2, 3}; only 0 and 1 are allowed
        everything = [0b1111] * 4
        walk = graphs._enumerate_transversals([0b0011, 0b1100], everything, 0b0011, ())
        assert walk == []

    def test_a_pick_that_blocks_a_later_coset_is_pruned(self):
        # picking 0 leaves coset {2, 3} no vertex; picking 1 leaves it 2
        nonadj = [0b0011, 0b0111, 0b1111, 0b1111]
        walk = graphs._enumerate_transversals([0b0011, 0b1100], nonadj, 0b1111, ())
        assert walk == [(1, 2)]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_workers_agree(self, n, fresh_search):
        serial = max_independent_sets(n, workers=1)
        fresh_search.clear()
        parallel = max_independent_sets(n, workers=2)
        assert parallel is not serial
        assert serial.ranks.tolist() == parallel.ranks.tolist()

    def test_each_degree_is_searched_once(self, fresh_search):
        # whatever the workers, the second call reads the first one's result
        found = max_independent_sets(4, workers=2)
        assert max_independent_sets(4) is found
        assert max_independent_sets(4, workers=1) is found
        assert list(fresh_search) == [4]
        with pytest.raises(ValueError, match="read-only"):
            found.ranks[0, 0] = found.ranks[1, 0]

    def test_a_failed_search_is_not_kept(self, monkeypatch, fresh_search):
        monkeypatch.setattr(graphs, "_enumerate_transversals", lambda *args: [])
        with pytest.raises(AssertionError, match="the seed family"):
            max_independent_sets(3)
        assert fresh_search == {}
        monkeypatch.undo()
        assert max_independent_sets(3).count == 9

    def test_the_seed_must_be_rediscovered(self, monkeypatch, fresh_search):
        seed_rows = constraint_rows(4, [(4, 4)])
        seed = sorted(map(rank_permutation, as_permutations(seed_rows)))
        enumerate_all = graphs._enumerate_transversals

        def losing_the_seed(*args):
            return [t for t in enumerate_all(*args) if sorted(t) != seed]

        monkeypatch.setattr(graphs, "_enumerate_transversals", losing_the_seed)
        with pytest.raises(AssertionError, match="the seed family was not rediscovered"):
            max_independent_sets(4)

    def test_unsupported_threshold(self):
        with pytest.raises(UnsupportedConstructionError):
            max_independent_sets(4, t=1)

    def test_degree_cap(self):
        with pytest.raises(DegreeRangeError):
            max_independent_sets(7)


class TestParseOneLine:
    def test_one_line_reads_an_image_tuple(self):
        assert parse_one_line("4,3,1,2") == (4, 3, 1, 2)

    def test_one_line_accepts_whitespace_around_numbers(self):
        assert parse_one_line(" 4, 3 ,1,\t2 ") == (4, 3, 1, 2)

    @pytest.mark.parametrize(
        "text",
        ["1 2 3", "2,1 3", "1,,2", "1,a", "", "1,2,", "2,1,+3", "1_0,2", "2,1,٣"],
    )
    def test_one_line_rejects_split_empty_or_non_numeric_tokens(self, text):
        # "1 2 3" once read as the degree-one permutation (123,), and int() reads
        # a sign, an underscore and the digits of other scripts
        with pytest.raises(ValueError, match="bad one-line permutation"):
            parse_one_line(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,1,3", "not a permutation of 1..3: (1, 1, 3)"),
            ("0,1,2", "not a permutation of 1..3: (0, 1, 2)"),
            ("2,3,4", "not a permutation of 1..3: (2, 3, 4)"),
        ],
    )
    def test_one_line_rejects_images_that_are_not_a_permutation(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_one_line(text)


class TestFamilyIo:
    def test_round_trip(self, tmp_path):
        members = constraint_rows(5, [(2, 3)])
        path = tmp_path / "family.txt"
        write_family(members, str(path))
        back = read_family(str(path), 5)
        assert back.dtype == np.intp and np.array_equal(back, members)

    def test_read_rejects_wrong_degree(self, tmp_path):
        path = tmp_path / "family.txt"
        write_family(np.array([[1, 2, 3, 4]]), str(path))
        with pytest.raises(ValueError):
            read_family(str(path), 5)

    def test_rows_round_trip_as_one_line_text(self, tmp_path):
        rows = latin_clique(4).members
        path = tmp_path / "rows.txt"
        write_family(rows, str(path))
        assert path.read_text() == "".join(
            ",".join(map(str, row)) + "\n" for row in rows.tolist()
        )
        assert np.array_equal(read_family(str(path), 4), rows)

    def test_a_file_of_blank_lines_reads_no_rows(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n  \n")
        back = read_family(str(path), 4)
        assert back.shape == (0, 4) and back.dtype == np.intp
        write_family(back, str(path))
        assert path.read_text() == ""

    @pytest.mark.parametrize(
        "members, message",
        [
            ([[1, 1, 1], [2, 3, 1]], "^member 1,1,1 is not a permutation of 1..3$"),
            ([(1, 2, 3), 5], "inhomogeneous"),
            (np.array([[1.0, 2.0], [2.0, 1.5]]), "^member 2.0,1.5 is not a permutation of 1..2$"),
        ],
        ids=["repeated-image", "ragged", "fractional"],
    )
    def test_bad_members_raise_before_the_file_opens(self, tmp_path, members, message):
        path = tmp_path / "family.txt"
        with pytest.raises(ValueError, match=message):
            write_family(members, str(path))
        assert not path.exists()
        path.write_text("2,1\n")
        with pytest.raises(ValueError, match=message):
            write_family(members, str(path))
        assert path.read_text() == "2,1\n"

    def test_float_and_bool_rows_are_written_as_integers(self, tmp_path):
        path = tmp_path / "family.txt"
        write_family(np.array([[2.0, 1.0], [1.0, 2.0]]), str(path))
        assert path.read_text() == "2,1\n1,2\n"
        write_family(np.array([[True]]), str(path))
        assert np.array_equal(read_family(str(path), 1), [[1]])


IDENTITY_3 = np.array([[1, 2, 3]])


class TestImageArrayShape:
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3)])
    @pytest.mark.parametrize(
        "check",
        [
            scheme.image_rows,
            validate_clique,
            validate_family,
            lambda rows: scheme.clique_coclique_check(rows, IDENTITY_3, 3),
            lambda rows: scheme.clique_coclique_check(IDENTITY_3, rows, 3),
        ],
        ids=["image_rows", "clique", "family", "coclique-clique", "coclique-set"],
    )
    def test_arrays_that_are_not_two_dimensional_raise(self, shape, check):
        rows = np.arange(1, np.prod(shape) + 1).reshape(shape) % 3 + 1
        message = rf"^need an \(m, n\) image array, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            check(rows)


class TestImageRowsArePermutations:
    @pytest.mark.parametrize(
        "rows, bad",
        [
            ([[1, 1, 1], [2, 2, 2], [3, 3, 3]], "1,1,1"),
            ([[1, 2, 3], [1, 2, 2]], "1,2,2"),
            ([[0, 1, 2], [1, 2, 0]], "0,1,2"),
            ([[2, 3, 1], [2, 3, 4]], "2,3,4"),
        ],
    )
    @pytest.mark.parametrize(
        "check",
        [
            validate_clique,
            validate_family,
            lambda rows: scheme.clique_coclique_check(rows, IDENTITY_3, 3),
            lambda rows: scheme.clique_coclique_check(IDENTITY_3, rows, 3),
        ],
        ids=["clique", "family", "coclique-clique", "coclique-set"],
    )
    def test_rows_that_are_not_permutations_raise(self, rows, bad, check):
        message = f"^member {bad} is not a permutation of 1..3$"
        with pytest.raises(ValueError, match=message):
            check(np.array(rows))
