"""Conjugacy-class association scheme: spectra, projections, bound machinery."""

import collections
import functools
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrperm import chartab, graphs, scheme
from ekrperm.chartab import (
    MAX_TABLE_DEGREE,
    character_table,
    character_value,
    dimension,
    skew_row_tableaux,
)
from ekrperm.errors import DegreeRangeError, FamilyValidationError
from ekrperm.graphs import affine_clique, latin_clique
from ekrperm.permgroup import (
    classes_with_few_fixed_points,
    conjugacy_classes,
    cycle_type_of_images,
    derangement_count,
    partitions_of,
    stabilizer_coset_count,
)
from ekrperm.scheme import (
    MAX_GROUP_DEGREE,
    MAX_RANK_DEGREE,
    class_quadratic_forms,
    clique_coclique_check,
    constraint_families,
    constraint_rows,
    fundamental_identity_check,
    group_data,
    image_table,
    point_family,
    rank_images,
    ratio_bound,
    union_spectrum,
)

import oracles
from oracles import compose, inverse, rank_permutation, unrank_permutation

# Derangement-graph spectra, one eigenvalue per partition in reverse-lex
# order.  Degree 4 is certified externally below; degree 5 eigenvalues
# follow from the frozen degree-5 character table by the quotient formula.
SPECTRUM_4 = ((9, 1), (-3, 9), (3, 4), (1, 9), (-3, 1))
SPECTRUM_5 = ((44, 1), (-11, 16), (4, 25), (4, 36), (-4, 25), (-1, 16), (4, 1))


def project(shape, x, n):
    """E_shape x = dim/n! * sum_q x_q chi(p^-1 q) at every rank p, exactly.

    GroupData.quotient_classes gives the class of p^-1 q for every p against
    the support of x only, so a sparse x stays cheap at degree 7.
    """
    gd = group_data(n)
    denom = math.lcm(*(Fraction(v).denominator for v in x))
    nums = [int(Fraction(v) * denom) for v in x]
    support = [q for q, v in enumerate(nums) if v]
    classes = gd.quotient_classes(np.arange(gd.order)[:, None], support)
    table = character_table(n)
    chi = np.array(table.values[table.partitions.index(shape)], dtype=object)
    totals = chi[classes] @ np.array([nums[q] for q in support], dtype=object)
    return [Fraction(dimension(shape) * int(v), gd.order * denom) for v in totals]


def adjacency_apply(z, n, t):
    """The agreement-at-most-t adjacency operator on z, read off the search's masks."""
    masks = graphs._adjacency_masks(n, t)
    return [sum(v for q, v in enumerate(z) if mask >> q & 1) for mask in masks]


def class_eigenvalue(shape, cls):
    """Eigenvalue of one class graph on the eigenspace of shape: |C| chi(C) / dim."""
    chi = character_value(shape, cls.cycle_type)
    value = Fraction(cls.size * chi, dimension(shape))
    assert value.denominator == 1, (shape, cls.cycle_type)
    return int(value)


def module_quadratic_form(shape, qforms, n):
    """x^T E x from the class quadratic forms; equals |E x|^2 since E is idempotent."""
    total = sum(
        character_value(shape, cls.cycle_type) * q
        for cls, q in zip(conjugacy_classes(n), qforms)
    )
    value = Fraction(dimension(shape), math.factorial(n)) * total
    if value < 0:
        raise AssertionError("idempotent quadratic form must be nonnegative")
    return value


class TestClassEigenvalues:
    def test_trivial_module_carries_class_size(self):
        for cls in conjugacy_classes(5):
            assert class_eigenvalue((5,), cls) == cls.size

    def test_standard_module_on_derangement_classes(self):
        by_type = {c.cycle_type: c for c in conjugacy_classes(4)}
        assert class_eigenvalue((3, 1), by_type[(4,)]) == -2
        assert class_eigenvalue((3, 1), by_type[(2, 2)]) == -1

    def test_zero_character_gives_zero_eigenvalue(self):
        by_type = {c.cycle_type: c for c in conjugacy_classes(4)}
        # the square module vanishes on the 4-cycle class
        assert class_eigenvalue((2, 2), by_type[(4,)]) == 0


class TestSharedOrder:
    def test_character_rows_follow_the_class_order(self):
        # _character_sums pairs character row i with class i, for class
        # quadratic forms and for shifted_character_sums alike
        for n in range(1, MAX_TABLE_DEGREE + 1):
            classes = tuple(cls.cycle_type for cls in conjugacy_classes(n))
            assert character_table(n).partitions == classes == partitions_of(n), n


class TestUnionSpectrum:
    def test_degree_four_frozen(self):
        s = union_spectrum(4, 0)
        assert s.partitions == partitions_of(4)
        assert tuple(zip(s.eigenvalues, s.multiplicities)) == SPECTRUM_4
        assert s.valency == 9
        assert s.least() == (-3, ((3, 1), (1, 1, 1, 1)))

    def test_degree_four_certified_externally(self):
        # the oracle ranks A - eI on the explicit adjacency matrix
        collected: dict[int, int] = {}
        for ev, mult in SPECTRUM_4:
            collected[ev] = collected.get(ev, 0) + mult
        assert collected == {9: 1, 3: 4, 1: 9, -3: 10}
        assert oracles.certify_spectrum(4, list(collected.items()))

    def test_degree_five_frozen(self):
        s = union_spectrum(5, 0)
        assert tuple(zip(s.eigenvalues, s.multiplicities)) == SPECTRUM_5
        assert s.valency == derangement_count(5)

    @pytest.mark.slow
    def test_degree_five_certified_externally(self):
        collected: dict[int, int] = {}
        for ev, mult in SPECTRUM_5:
            collected[ev] = collected.get(ev, 0) + mult
        assert oracles.certify_spectrum(5, sorted(collected.items()))

    def test_degree_six_least(self):
        s = union_spectrum(6, 0)
        assert s.valency == 265
        assert s.least() == (-53, ((5, 1),))

    def test_trivial_eigenvalue_is_valency(self):
        for n in range(2, 9):
            for t in range(0, min(n - 1, 3)):
                s = union_spectrum(n, t)
                assert s.eigenvalue((n,)) == s.valency

    def test_trace_identities(self):
        # trace(A) = 0 and trace(A^2) = n! * valency, summed over modules
        for n in range(2, 8):
            s = union_spectrum(n, 0)
            assert sum(m * ev for ev, m in zip(s.eigenvalues, s.multiplicities)) == 0
            assert sum(
                m * ev * ev for ev, m in zip(s.eigenvalues, s.multiplicities)
            ) == math.factorial(n) * s.valency

    def test_threshold_one_valency(self):
        s = union_spectrum(5, 1)
        assert s.valency == 89
        assert s.eigenvalue((5,)) == 89

    def test_matches_class_sums_through_degree_ten(self):
        for n in range(2, 11):
            classes = conjugacy_classes(n)
            for t in range(n):
                selected = [c for c in classes if c.fixed_points <= t]
                s = union_spectrum(n, t)
                assert s.eigenvalues == tuple(
                    sum(class_eigenvalue(c.cycle_type, cls) for cls in selected)
                    for c in classes
                ), (n, t)

    def test_indivisible_skew_count_is_an_internal_failure(self, monkeypatch):
        # the counts are read before the patch, which union_spectrum then reads
        # by name, dims included
        counts = {shape: skew_row_tableaux(shape) for shape in partitions_of(4)}

        def off_by_one(shape):
            # shifts every total by the m = 0 weight (-1)^n and every dim by 1:
            # (2, 2) then reads 3 * 2 + 1 = 7 over dim 3
            return (counts[shape][0] + 1,) + counts[shape][1:]

        monkeypatch.setattr(chartab, "_skew_row_counts", off_by_one)
        with pytest.raises(AssertionError, match="not an integer"):
            union_spectrum(4, 0)

    def test_derangement_eigenvalue_signs_alternate(self):
        # Ku-Wales (JCTA 2010), Renteln (EJC 2007): sign (-1)^(n - shape[0])
        for n in range(2, 21):
            s = union_spectrum(n, 0)
            for shape, ev in zip(s.partitions, s.eigenvalues):
                assert ev != 0 and (ev > 0) == ((n - shape[0]) % 2 == 0), (shape, ev)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            union_spectrum(4, 4)
        with pytest.raises(ValueError):
            union_spectrum(4, -1)


class TestLeastEigenvalue:
    def test_closed_form_through_degree_eight(self):
        # least eigenvalue is -d(n)/(n-1), attained by the standard module
        for n in range(2, 9):
            value, achieved = union_spectrum(n).least()
            assert value == Fraction(-derangement_count(n), n - 1)
            assert (n - 1, 1) in achieved

    def test_frozen_values(self):
        assert union_spectrum(7).least()[0] == -309
        assert union_spectrum(8).least()[0] == -2119

    def test_ratio_bound_is_stabilizer_size(self):
        for n in range(2, 9):
            assert ratio_bound(n) == math.factorial(n - 1)
        assert ratio_bound(7) == 720


class TestProjections:
    def test_trivial_projection_is_the_mean(self):
        members = latin_clique(4).members
        x = oracles.characteristic_vector(members, 4)
        assert project((4,), x, 4) == [Fraction(1, 6)] * 24

    def test_shifted_family_lives_in_standard_module(self):
        x = oracles.characteristic_vector(constraint_rows(4, [(1, 1)]), 4)
        x = [Fraction(v) - Fraction(1, 4) for v in x]
        for shape in partitions_of(4):
            vec = project(shape, x, 4)
            if shape == (3, 1):
                assert vec == x
            else:
                assert not any(vec)

    def test_projections_resolve_the_identity(self):
        rng = random.Random(5)
        z = [rng.randrange(-3, 4) for _ in range(120)]
        total = [Fraction(0)] * 120
        for shape in partitions_of(5):
            vec = project(shape, z, 5)
            total = [a + b for a, b in zip(total, vec)]
        assert total == [Fraction(v) for v in z]

    def test_projection_is_idempotent(self):
        rng = random.Random(8)
        z = [rng.randrange(-5, 6) for _ in range(24)]
        once = project((2, 2), z, 4)
        twice = project((2, 2), once, 4)
        assert once == twice

    def test_eigenvector_identity_degree_four(self):
        rng = random.Random(13)
        z = [rng.randrange(-5, 6) for _ in range(24)]
        s = union_spectrum(4, 0)
        for shape in partitions_of(4):
            vec = project(shape, z, 4)
            image = adjacency_apply(vec, 4, 0)
            expected = [s.eigenvalue(shape) * v for v in vec]
            assert image == expected

    def test_adjacency_matches_explicit_matrix(self):
        matrix = oracles.derangement_adjacency(4)
        rng = random.Random(17)
        z = [rng.randrange(-9, 10) for _ in range(24)]
        direct = [sum(row[j] * z[j] for j in range(24)) for row in matrix]
        assert adjacency_apply(z, 4, 0) == direct


class TestQuadraticForms:
    def test_two_element_set(self):
        x = oracles.characteristic_vector([(1, 2, 3, 4), (2, 1, 3, 4)], 4)
        (forms,) = class_quadratic_forms([x], 4)
        gd = group_data(4)
        by_type = dict(zip((c.cycle_type for c in gd.classes), forms))
        assert by_type[(1, 1, 1, 1)] == 2
        assert by_type[(2, 1, 1)] == 2
        assert by_type[(4,)] == 0
        assert by_type[(3, 1)] == 0
        assert by_type[(2, 2)] == 0

    def test_module_form_nonnegative_and_complete(self):
        x = oracles.characteristic_vector(latin_clique(4).members, 4)
        (forms,) = class_quadratic_forms([x], 4)
        total = Fraction(0)
        for shape in partitions_of(4):
            value = module_quadratic_form(shape, forms, 4)
            assert value >= 0
            total += value
        # the module forms resolve |x|^2
        assert total == 4


def _brute_force_forms(x, n):
    """x^T A_C x of a 0/1 x by a double loop over the ordered pairs of its support.

    Each p^-1 q is composed by hand and typed by the oracle.
    """
    perms = list(itertools.permutations(range(1, n + 1)))  # rank order
    support = [perms[a] for a, v in enumerate(x) if v]
    typed = functools.cache(oracles.cycle_type_of)
    totals = collections.Counter()
    for p in support:
        inv = [0] * n
        for pos, v in enumerate(p, start=1):
            inv[v - 1] = pos
        totals.update(typed(tuple(inv[v - 1] for v in q)) for q in support)
    return [totals[cls.cycle_type] for cls in conjugacy_classes(n)]


_FORM_VECTOR_NAMES = ("zeros", "ones", "single", "negative", "fractions")


def _form_vectors(n):
    """Named 0/1 vectors over S(n) that stress the support and the blocks.

    "negative" is the complement of "single", and "fractions" holds a random
    fraction of the ranks.
    """
    order = math.factorial(n)
    rng = random.Random(n)
    single = [0] * order
    single[order // 2] = 1
    density = rng.random()
    return {
        "zeros": [0] * order,
        "ones": [1] * order,
        "single": single,
        "negative": [1 - v for v in single],
        "fractions": [int(rng.random() < density) for _ in range(order)],
    }


class TestClassFormsAgainstDoubleLoop:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("name", _FORM_VECTOR_NAMES)
    def test_matches_brute_force(self, n, name):
        x = _form_vectors(n)[name]
        assert class_quadratic_forms([x], n) == [_brute_force_forms(x, n)]

    def test_many_small_blocks(self, monkeypatch):
        # the supports of 120, 119 and 72 members are dense, read as gathered
        # relation rows three at a time (8 * 50 // 120), 119 leaving a short
        # last block; the empty and one-member supports are read flat, whole
        monkeypatch.setattr(scheme, "BLOCK_PAIRS", 50)
        for name, x in _form_vectors(5).items():
            assert class_quadratic_forms([x], 5) == [_brute_force_forms(x, 5)], name

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 1), min_size=24, max_size=24))
    def test_random_integer_vectors_at_degree_four(self, x):
        assert class_quadratic_forms([x], 4) == [_brute_force_forms(x, 4)]

    def test_forms_are_python_ints_and_bools_count_as_integers(self):
        x = _form_vectors(4)["fractions"]
        (forms,) = class_quadratic_forms([x], 4)
        assert all(type(v) is int for v in forms)
        assert class_quadratic_forms([[bool(v) for v in x]], 4) == [forms]

    @pytest.mark.parametrize("entry", [2, -1, Fraction(1, 2), Fraction(1), 1.0])
    def test_rejects_entries_other_than_integer_zero_and_one(self, entry):
        x = [0] * 24
        x[5] = entry
        with pytest.raises(ValueError):
            class_quadratic_forms([[1] * 24, x], 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            class_quadratic_forms([[1] * 23], 4)
        with pytest.raises(ValueError):
            class_quadratic_forms([[1] * 24, [1] * 25], 4)


def _random_set_vector(rng, n):
    """The 0/1 vector of a random set over S(n), of a random density."""
    density = rng.random()
    return [int(rng.random() < density) for _ in range(math.factorial(n))]


class TestBatchedClassForms:
    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_random_multi_level_batches(self, n, batch):
        # each vector of a batch has its own density level
        rng = random.Random(100 * n + batch)
        vectors = [_random_set_vector(rng, n) for _ in range(batch)]
        assert class_quadratic_forms(vectors, n) == [
            _brute_force_forms(x, n) for x in vectors
        ]

    @pytest.mark.parametrize("block_pairs", [1, 30, 100])
    def test_tiny_row_blocks(self, monkeypatch, block_pairs):
        # every support (8 to 111 members) is dense, read as gathered relation
        # rows in blocks of 8 * BLOCK_PAIRS // 120 rows (1, 2 or 6), the last
        # one short
        monkeypatch.setattr(scheme, "BLOCK_PAIRS", block_pairs)
        rng = random.Random(block_pairs)
        vectors = [_random_set_vector(rng, 5) for _ in range(5)]
        assert class_quadratic_forms(vectors, 5) == [
            _brute_force_forms(x, 5) for x in vectors
        ]

    def test_a_dense_degree_six_batch_stays_in_row_blocks(self):
        # the whole 720 x 720 class matrix with its int32 ranks takes 720^2 * 5 bytes
        gd = group_data(6)  # the tables are built outside the traced span
        vectors = [[1] * 720] * 64
        tracemalloc.start()
        try:
            forms = class_quadratic_forms(vectors, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every ordered pair of S(6) is counted: 720 |C| in class C
        assert forms == [[720 * cls.size for cls in gd.classes]] * len(vectors)
        assert peak < 720 * 720 * 5

    def test_small_blocks_with_many_vectors(self, monkeypatch):
        # each support twice: both empty and both one-member supports share a
        # flat block, the dense ones are read as gathered rows
        monkeypatch.setattr(scheme, "BLOCK_PAIRS", 50)
        vectors = list(_form_vectors(5).values())
        vectors = vectors[::-1] + vectors
        assert class_quadratic_forms(vectors, 5) == [
            _brute_force_forms(x, 5) for x in vectors
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_vectors_and_an_empty_union(self, n):
        order = math.factorial(n)
        zero = [0] * order
        single = [0] * order
        single[-1] = 1
        assert class_quadratic_forms([zero, zero], n) == [
            [0] * len(conjugacy_classes(n))
        ] * 2
        got = class_quadratic_forms([zero, single, zero, [1] * order], n)
        assert got == [
            _brute_force_forms(x, n) for x in (zero, single, zero, [1] * order)
        ]

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_degrees(self, n):
        rng = random.Random(n)
        vectors = [_random_set_vector(rng, n) for _ in range(5)]
        assert class_quadratic_forms(vectors, n) == [
            _brute_force_forms(x, n) for x in vectors
        ]

    def test_repeated_identical_vectors(self):
        x = _form_vectors(5)["fractions"]
        y = _form_vectors(5)["negative"]
        forms = class_quadratic_forms([x, x, y, x], 5)
        assert forms[0] == forms[1] == forms[3] == _brute_force_forms(x, 5)
        assert forms[2] == _brute_force_forms(y, 5)

    def test_empty_batch(self):
        assert class_quadratic_forms([], 4) == []

    def test_sparse_degree_seven_vectors(self):
        rng = random.Random(77)
        vectors = []
        for size in (4, 9, 1):
            x = [0] * 5040
            for r in rng.sample(range(5040), size):
                x[r] = 1
            vectors.append(x)
        assert class_quadratic_forms(vectors, 7) == [
            _brute_force_forms(x, 7) for x in vectors
        ]


def negative_identity_forms(vectors, n):
    """Forms whose character sums are negative: -1 on the identity class only."""
    forms = [-int(cls.cycle_type == (1,) * n) for cls in conjugacy_classes(n)]
    return [list(forms) for _ in vectors]


class TestFundamentalIdentity:
    def test_negative_module_form_raises(self, monkeypatch):
        monkeypatch.setattr(scheme, "class_quadratic_forms", negative_identity_forms)
        with pytest.raises(AssertionError, match="nonnegative"):
            fundamental_identity_check([([1] * 24, [1] * 24)], 4)

    def test_all_ones_frozen_value(self):
        ones = [1] * 24
        [(lhs, rhs)] = fundamental_identity_check([(ones, ones)], 4)
        assert lhs == rhs == 576

    def test_tight_pair_value_is_one(self):
        x = oracles.characteristic_vector(latin_clique(4).members, 4)
        y = oracles.characteristic_vector(constraint_rows(4, [(1, 1)]), 4)
        [(lhs, rhs)] = fundamental_identity_check([(x, y)], 4)
        assert lhs == rhs == 1

    def test_random_zero_one_vectors(self):
        rng = random.Random(2024)
        for _ in range(5):
            x = [rng.randrange(2) for _ in range(24)]
            y = [rng.randrange(2) for _ in range(24)]
            [(lhs, rhs)] = fundamental_identity_check([(x, y)], 4)
            assert lhs == rhs


def _identity_pairs(count, n, seed):
    rng = random.Random(seed)
    order = math.factorial(n)
    return [
        tuple([rng.randrange(2) for _ in range(order)] for _ in "xy")
        for _ in range(count)
    ]


class TestIdentityInChunks:
    def test_more_pairs_than_one_chunk(self):
        pairs = _identity_pairs(37, 4, 8)
        sides = fundamental_identity_check(pairs, 4)
        assert sides == [fundamental_identity_check([pair], 4)[0] for pair in pairs]
        assert all(lhs == rhs for lhs, rhs in sides)

    def test_reads_the_pairs_one_chunk_at_a_time(self, monkeypatch):
        # each pair gets its forms from one call, made just after it is drawn
        pairs = _identity_pairs(8, 4, 9)
        drawn = [0]
        batches = []  # (vectors in the call, pairs drawn so far)
        forms = scheme.class_quadratic_forms

        def lazily():
            for pair in pairs:
                drawn[0] += 1
                yield pair

        def recording(vectors, n):
            batches.append((len(vectors), drawn[0]))
            return forms(vectors, n)

        monkeypatch.setattr(scheme, "class_quadratic_forms", recording)
        sides = fundamental_identity_check(lazily(), 4)
        assert batches == [(2, k) for k in range(1, 9)]
        assert sides == [fundamental_identity_check([pair], 4)[0] for pair in pairs]

    def test_no_pairs(self):
        assert fundamental_identity_check([], 4) == []


class TestCharacteristicVector:
    def test_counts_members(self):
        members = constraint_rows(4, [(2, 2)])
        vec = oracles.characteristic_vector(members, 4)
        assert sum(vec) == 6

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            oracles.characteristic_vector([(1, 2, 3, 4), (1, 2, 3, 4)], 4)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            oracles.characteristic_vector([(1, 2, 3)], 4)


class TestCliqueCoclique:
    def test_tight_pair_at_degree_four(self):
        report = clique_coclique_check(
            latin_clique(4).members, constraint_rows(4, [(1, 1)]), 4
        )
        assert report.product == 24 == report.bound
        assert report.tight
        assert report.corollary_ok
        support = {shape: (x, y) for shape, x, y in report.supports}
        assert (4,) not in support
        assert support[(3, 1)] == (False, True)
        for x_nonzero, y_nonzero in support.values():
            assert not (x_nonzero and y_nonzero)

    def test_supports_match_module_forms(self):
        clique, independent = latin_clique(4).members, constraint_rows(4, [(1, 1)])
        qx, qy = class_quadratic_forms(
            [oracles.characteristic_vector(f, 4) for f in (clique, independent)], 4
        )
        report = clique_coclique_check(clique, independent, 4)
        for shape, x_nonzero, y_nonzero in report.supports:
            assert x_nonzero == (module_quadratic_form(shape, qx, 4) != 0)
            assert y_nonzero == (module_quadratic_form(shape, qy, 4) != 0)

    @pytest.mark.parametrize(
        "n, t", [(3, 0), (4, 0), (5, 0), (6, 0), (3, 1), (4, 1), (5, 1)]
    )
    def test_tight_supports_match_dense_vector_forms(self, n, t):
        # the rank-array route against 0/1 vectors built on the test side
        if t == 0:
            clique, independent = latin_clique(n).members, constraint_rows(n, [(n, n)])
        else:
            clique = affine_clique(n).members
            independent = constraint_rows(n, [(1, 1), (2, 2)])
        forms = class_quadratic_forms(
            [oracles.characteristic_vector(f, n) for f in (clique, independent)], n
        )
        report = clique_coclique_check(clique, independent, n, t)
        assert report.tight
        assert report.supports == tuple(
            (shape, *(module_quadratic_form(shape, q, n) != 0 for q in forms))
            for shape in partitions_of(n)[1:]
        )

    def test_negative_module_form_raises(self, monkeypatch):
        # the class counts that reach the character sums are made negative
        real = scheme._character_sums
        monkeypatch.setattr(
            scheme,
            "_character_sums",
            lambda qforms, sizes, n: real(negative_identity_forms(qforms, n), sizes, n),
        )
        with pytest.raises(AssertionError, match="nonnegative"):
            clique_coclique_check(
                latin_clique(4).members, constraint_rows(4, [(1, 1)]), 4
            )

    def test_loose_pair_reports_no_supports(self):
        identity_row = np.array([[1, 2, 3, 4]])
        report = clique_coclique_check(identity_row, identity_row, 4)
        assert report.product == 1
        assert not report.tight
        assert report.supports is None
        assert report.corollary_ok is None

    def test_threshold_one_tight_pair(self):
        clique = affine_clique(5).members
        independent = constraint_rows(5, [(1, 1), (2, 2)])
        report = clique_coclique_check(clique, independent, 5, t=1)
        assert report.clique_size == 20
        assert report.independent_size == 6
        assert report.product == 120 == report.bound
        assert report.tight and report.corollary_ok

    def test_rejects_non_clique(self):
        with pytest.raises(FamilyValidationError):
            clique_coclique_check(
                np.array([[1, 2, 3, 4], [2, 1, 3, 4]]), np.array([[1, 2, 3, 4]]), 4
            )

    def test_rejects_members_of_another_degree(self):
        with pytest.raises(ValueError, match="^member 1,2,3 has degree 3, not 5$"):
            clique_coclique_check(
                latin_clique(3).members, constraint_rows(4, [(1, 1)]), 5, 0
            )
        identity_row = np.array([[1, 2, 3, 4]])
        with pytest.raises(ValueError, match="^member 1,2,3,4 has degree 4, not 5$"):
            clique_coclique_check(identity_row, identity_row, 5)
        with pytest.raises(ValueError, match="^member 1,2,3,4 has degree 4, not 5$"):
            clique_coclique_check(
                latin_clique(5).members, constraint_rows(4, [(1, 1)]), 5, 0
            )

    @pytest.mark.parametrize(
        "n, t", [(3, 0), (4, 0), (6, 0), (7, 0), (4, 1), (5, 1)]
    )
    def test_int8_and_intp_rows_give_equal_reports(self, n, t):
        if t == 0:
            clique, independent = latin_clique(n).members, constraint_rows(n, [(n, n)])
        else:
            clique = affine_clique(n).members
            independent = constraint_rows(n, [(1, 1), (2, 2)])
        loose = independent[: len(independent) // 2]
        empty = clique[:0]
        for pair in ((clique, independent), (clique, loose), (empty, independent)):
            expected = clique_coclique_check(*pair, n, t)
            narrow = [rows.astype(np.int8) for rows in pair]
            assert clique_coclique_check(*narrow, n, t) == expected
            assert clique_coclique_check(pair[0], narrow[1], n, t) == expected

    @pytest.mark.parametrize(
        "clique, independent, error, message",
        [
            (
                ["1,2,3,4", "2,1,3,4"],
                ["1,2,3,4"],
                FamilyValidationError,
                "not a clique at threshold 0: 1,2,3,4 and 2,1,3,4 agree on 2 points",
            ),
            (
                ["1,2,3,4", "1,2,3,4"],
                ["1,2,3,4"],
                FamilyValidationError,
                "repeated member 1,2,3,4",
            ),
            (
                ["1,2,3,4"],
                ["1,2,3,4", "2,1,4,3"],
                FamilyValidationError,
                "not independent at threshold 0: 1,2,3,4 and 2,1,4,3 agree on 0 points",
            ),
            (["1,2,3"], ["1,2,3,4"], ValueError, "member 1,2,3 has degree 3, not 4"),
            (
                ["1,2,3"],
                ["1,2,3,4", "1,2,3,4"],
                FamilyValidationError,
                "repeated member 1,2,3,4",
            ),
        ],
        ids=[
            "not-a-clique",
            "repeated-in-clique",
            "not-independent",
            "other-degree",
            "pairs-before-degrees",
        ],
    )
    def test_rows_fail_with_their_message(self, clique, independent, error, message):
        rows = [
            np.array([[int(v) for v in text.split(",")] for text in f])
            for f in (clique, independent)
        ]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            clique_coclique_check(*rows, 4)

    def test_pairs_of_both_families_are_checked_before_degrees(self):
        # the clique has the wrong degree, the coclique repeats a member
        with pytest.raises(FamilyValidationError, match="^repeated member 1,2,3,4$"):
            clique_coclique_check(
                np.array([[1, 2, 3]]), np.array([[1, 2, 3, 4], [1, 2, 3, 4]]), 4
            )

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 1, 1], [2, 2, 2], [3, 3, 3]], "^member 1,1,1 is not a permutation of 1..3$"),
            ([[1, 2, 3], [2, 3, 4]], "^member 2,3,4 is not a permutation of 1..3$"),
            ([[0, 1, 2]], "^member 0,1,2 is not a permutation of 1..3$"),
            ([1, 2, 3], r"^need an \(m, n\) image array, got shape \(3,\)$"),
        ],
    )
    def test_rows_that_are_no_permutations_raise(self, rows, message):
        rows = np.array(rows)
        identity_row = np.array([[1, 2, 3]])
        for pair in ((rows, identity_row), (identity_row, rows)):
            with pytest.raises(ValueError, match=message):
                clique_coclique_check(*pair, 3)

    def test_rejects_intersecting_pair_as_independent(self):
        rows = np.array([[1, 2, 3, 4], [2, 1, 4, 3]])
        with pytest.raises(FamilyValidationError):
            clique_coclique_check(rows, rows, 4)


def explicit_idempotent(shape, n):
    """Dense idempotent matrix: E[i][j] = dim * chi(class of p_i^-1 p_j) / n!."""
    gd = group_data(n)
    table = character_table(n)
    chi = table.values[table.partitions.index(shape)]
    dim = dimension(shape)
    ranks = range(gd.order)
    return [
        [Fraction(dim * chi[c], gd.order) for c in row]
        for row in gd.quotient_classes([[r] for r in ranks], ranks).tolist()
    ]


class TestIdempotentMatrices:
    def test_idempotent_algebra_degree_three(self):
        shapes = partitions_of(3)
        mats = {s: explicit_idempotent(s, 3) for s in shapes}
        size = 6
        # rank of each idempotent is the squared module dimension
        expected_trace = {(3,): 1, (2, 1): 4, (1, 1, 1): 1}
        for s, e in mats.items():
            square = [
                [sum(e[i][k] * e[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]
            assert square == e
            trace = sum(e[i][i] for i in range(size))
            assert trace == expected_trace[s]
        # distinct idempotents annihilate each other
        a, b = mats[(3,)], mats[(2, 1)]
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        assert all(v == 0 for row in prod for v in row)

    def test_idempotents_sum_to_identity_degree_four(self):
        size = 24
        total = [[Fraction(0)] * size for _ in range(size)]
        for shape in partitions_of(4):
            e = explicit_idempotent(shape, 4)
            for i in range(size):
                row = e[i]
                trow = total[i]
                for j in range(size):
                    trow[j] += row[j]
        for i in range(size):
            for j in range(size):
                assert total[i][j] == (1 if i == j else 0)


@st.composite
def _rank_pairs(draw):
    n = draw(st.integers(1, MAX_GROUP_DEGREE))
    ranks = st.lists(st.integers(0, math.factorial(n) - 1), min_size=1, max_size=6)
    return n, draw(ranks), draw(ranks)


def _connection(gd, t):
    """Ranks of the non-identity permutations fixing at most t points, by class."""
    few = classes_with_few_fixed_points(gd.n, t)
    chosen = {gd.class_index[cls.cycle_type] for cls in few}
    return [r for r, k in enumerate(gd.type_of.tolist()) if k in chosen]


def _oracle_quotient_type(p, q):
    """Cycle type of p^-1 q, composed by hand and typed by the oracle."""
    inv = [0] * len(p)
    for pos, v in enumerate(p, start=1):
        inv[v - 1] = pos
    return oracles.cycle_type_of(tuple(inv[v - 1] for v in q))


class TestRanking:
    """rank_images agrees with the lexicographic rank of the oracle."""

    def test_rank_zero_is_identity(self):
        for n in range(MAX_RANK_DEGREE + 1):
            assert rank_images(np.arange(n, dtype=np.int8)[:, None]).tolist() == [0]

    def test_last_rank_is_reversal(self):
        for n in range(1, MAX_RANK_DEGREE + 1):
            planes = np.arange(n - 1, -1, -1, dtype=np.int8)[:, None]
            assert rank_images(planes).tolist() == [math.factorial(n) - 1]

    def test_matches_itertools_order(self):
        # the 120 permutations of degree 5, laid out as a 4 x 30 grid of cells
        perms = list(itertools.permutations(range(5)))
        planes = np.array(perms, dtype=np.int8).T.reshape(5, 4, 30)
        assert rank_images(planes).tolist() == np.arange(120).reshape(4, 30).tolist()
        assert [rank_permutation([v + 1 for v in p]) for p in perms] == list(range(120))

    def test_round_trip_degree_seven(self):
        table = image_table(7)
        for rank in (0, 1, 1000, math.factorial(7) - 1):
            assert tuple(table[rank] + 1) == unrank_permutation(rank, 7)
            assert rank_images(table[rank][:, None]).tolist() == [rank]

    @given(st.data())
    def test_round_trips_through_degree_nine(self, data):
        # a row of the image table is the permutation of its rank
        n = data.draw(st.integers(1, 9))
        rank = data.draw(st.integers(0, math.factorial(n) - 1))
        row = image_table(n)[rank]
        assert tuple(row + 1) == unrank_permutation(rank, n)
        assert rank_images(row[:, None]).tolist() == [rank]
        images = data.draw(st.permutations(range(n)))
        ranked = rank_images(np.array(images, dtype=np.int8)[:, None]).tolist()
        assert ranked == [rank_permutation([v + 1 for v in images])]
        assert image_table(n)[ranked[0]].tolist() == images

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_permutations_is_lex_ordered(self, n):
        # read as tuples, not through rank_images: each row a permutation of
        # 0..n-1 and each strictly above the row before it
        rows = [tuple(row) for row in image_table(n).tolist()]
        assert len(rows) == math.factorial(n)
        assert all(sorted(row) == list(range(n)) for row in rows)
        assert all(a < b for a, b in zip(rows, rows[1:]))

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(st.permutations(range(n)), min_size=1)
        )
    )
    def test_image_planes_rank_like_the_scalar_rank(self, rows):
        # one plane per position, one column per permutation
        planes = np.array(rows, dtype=np.int8).T
        expected = [rank_permutation([v + 1 for v in r]) for r in rows]
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


class TestGroupTables:
    @pytest.mark.parametrize("n", range(1, MAX_GROUP_DEGREE + 1))
    def test_arrays_agree_with_the_oracle_walk(self, n):
        gd = group_data(n)
        assert gd.type_of.dtype == np.int8
        perms = list(itertools.permutations(range(1, n + 1)))  # rank order
        index = {images: r for r, images in enumerate(perms)}
        assert (gd.images + 1).tolist() == [list(images) for images in perms]
        for r, images in enumerate(perms):
            inverse_images = [0] * n
            for i, v in enumerate(images, start=1):
                inverse_images[v - 1] = i
            assert gd.inv[r] == index[tuple(inverse_images)]
            assert gd.classes[gd.type_of[r]].cycle_type == oracles.cycle_type_of(images)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_images_rank_in_order(self, n):
        # GroupData.images is this table up to MAX_GROUP_DEGREE; n = 8 has no
        # GroupData but still ranks its own image table
        ranks = rank_images(image_table(n).T)
        assert ranks.tolist() == list(range(math.factorial(n)))

    def test_the_image_table_is_shared_and_read_only(self, monkeypatch):
        from ekrperm import ekrverify

        table = image_table(5)
        assert group_data(5).images is table
        with pytest.raises(ValueError):
            table[0, 0] = 1

        def walk(*args):
            raise AssertionError("S(5) walked again")

        monkeypatch.setattr(itertools, "permutations", walk)
        h = ekrverify.incidence(5)
        # row r has column (1, pi(1)) unless pi(1) = 5
        assert h.ones[:, 0].tolist() == [
            4 * 4 if v == 4 else v for v in table[:, 0].tolist()
        ]


class TestRelationTable:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_equals_the_composed_classes(self, n):
        gd = scheme.GroupData(n)
        a = np.arange(gd.order)
        composed = gd.type_of[gd.compose_ranks(gd.inv[a[:, None]], a)]
        assert gd.relations.dtype == np.int8
        assert np.array_equal(gd.relations, composed)

    def test_degree_seven_table_equals_sampled_compositions(self):
        # composing all 5040^2 pairs would take about 600 MB
        gd = group_data(7)
        rng = np.random.default_rng(7)
        a, b = rng.integers(gd.order, size=(2, 20_000))
        composed = gd.type_of[gd.compose_ranks(gd.inv[a], b)]
        assert gd.relations.shape == (5040, 5040)
        assert np.array_equal(gd.relations[a, b], composed)

    def test_read_only_and_built_once(self):
        gd = scheme.GroupData(5)
        assert gd.relations is gd.relations
        assert not gd.relations.flags.writeable
        with pytest.raises(ValueError):
            gd.relations[0, 0] = 0

    def test_dense_degrees_read_the_table(self, monkeypatch):
        gd = group_data(5)

        def compose(*args):
            raise AssertionError("composed at a dense degree")

        monkeypatch.setattr(gd, "compose_ranks", compose)
        classes = gd.quotient_classes([[0], [7]], range(120))
        assert np.array_equal(classes, gd.relations[[0, 7]])


def _vector_of(ranks, n):
    x = [0] * math.factorial(n)
    for r in ranks:
        x[r] = 1
    return x


def _rank_batches(n, seed, sizes):
    """One (f, m) array of random distinct ranks for each (f, m) of sizes."""
    order = math.factorial(n)
    rng = random.Random(seed)
    return [
        np.array([rng.sample(range(order), m) for _ in range(f)], dtype=np.intp)
        for f, m in sizes
    ]


class TestClassCounts:
    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("block_pairs", [scheme.BLOCK_PAIRS, 7])
    def test_counts_equal_the_double_loop_on_the_table(
        self, monkeypatch, n, block_pairs
    ):
        monkeypatch.setattr(scheme, "BLOCK_PAIRS", block_pairs)
        order = math.factorial(n)
        sizes = [(2, 0), (2, 1), (3, 5), (1, order), (1, min(9, order)), (1, 2)]
        for families in _rank_batches(n, n, sizes):
            counts = scheme._class_counts(families, n)
            assert counts.dtype == np.int64
            assert counts.tolist() == [
                _brute_force_forms(_vector_of(ranks, n), n) for ranks in families
            ]

    def test_degree_seven_reads_the_table(self):
        gd = group_data(7)
        for families in _rank_batches(7, 7, [(1, 0), (2, 1), (2, 6), (1, 3)]):
            counts = scheme._class_counts(families, 7)
            assert "relations" in vars(gd)
            assert counts.tolist() == [
                _brute_force_forms(_vector_of(ranks, 7), 7) for ranks in families
            ]

    def test_constraint_families_are_read_in_place(self, monkeypatch):
        # every block handed to quotient_classes is a view of the caller's array
        families = constraint_families(6, 3)
        gd = group_data(6)
        real, arguments = gd.quotient_classes, []

        def recording(a, b):
            arguments.extend((a, b))
            return real(a, b)

        monkeypatch.setattr(gd, "quotient_classes", recording)
        counts = scheme._class_counts(families, 6)
        assert counts.shape == (len(families), len(gd.classes))
        assert arguments
        assert all(np.shares_memory(a, families) for a in arguments)

    def test_empty_batch_of_families(self):
        counts = scheme._class_counts(np.empty((0, 6), dtype=np.intp), 6)
        assert counts.dtype == np.int64
        assert counts.shape == (0, len(group_data(6).classes))

    def test_one_degree_seven_family_stays_in_blocks(self):
        # 720^2 pairs make the family dense: blocks of 52 gathered table rows
        # (about 8 * BLOCK_PAIRS bytes) and their 52 x 720 classes, 1.5 times
        # BLOCK_PAIRS * n bytes measured, against 8 MB for all pairs at once
        group_data(7).relations  # the tables are built outside the traced span
        family = constraint_families(7, 1)[0]  # S_{1->1}, 720 members
        tracemalloc.start()
        try:
            counts = scheme._class_counts([family], 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == 720 * 720
        assert peak < 4 * scheme.BLOCK_PAIRS * 7

    def test_one_small_family_allocates_labels_for_itself(self):
        # the flat read builds the int32 label offsets of the families in the
        # block, not of the BLOCK_PAIRS // m^2 families a block could hold
        gd = group_data(6)
        gd.relations  # the tables are built outside the traced span
        tracemalloc.start()
        try:
            counts = scheme._class_counts([[5]], 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one ordered pair, (5, 5), in the identity class
        assert counts.tolist() == [[int(cls.size == 1) for cls in gd.classes]]
        assert peak < 16_000

    def test_flat_blocks_of_whole_families_end_short(self, monkeypatch):
        # five 24-member point families at n = 5, two whole families a block
        # under BLOCK_PAIRS = 2 * 24^2 + 1: blocks of 2, 2 and 1
        families = constraint_families(5, 1)[:5]
        gd = group_data(5)
        real, blocks = gd.quotient_classes, []

        def recording(a, b):
            blocks.append(len(a))
            return real(a, b)

        monkeypatch.setattr(gd, "quotient_classes", recording)
        monkeypatch.setattr(scheme, "BLOCK_PAIRS", 2 * 24 * 24 + 1)
        assert scheme._class_counts(families, 5).tolist() == [
            _brute_force_forms(_vector_of(ranks, 5), 5) for ranks in families
        ]
        assert blocks == [2, 2, 1]


class TestClassCountReads:
    """The gathered relation rows and the flat blocks count the same pairs."""

    @staticmethod
    def _assert_both_reads_are_the_oracle(monkeypatch, families, n):
        """_class_counts by each read, forced through BLOCK_PAIRS, against the oracle.

        families is one (f, m) rank array.  At BLOCK_PAIRS 1 every nonempty
        family is dense, read as gathered relation rows, and quotient_classes
        classes none of its pairs; above m * m the families are read in flat
        blocks, quotient_classes classing every pair.
        """
        families = np.asarray(families)
        expected = [_brute_force_forms(_vector_of(ranks, n), n) for ranks in families]
        gd = group_data(n)
        real, classed = gd.quotient_classes, []

        def recording(a, b):
            classes = real(a, b)
            classed.append(classes.size)
            return classes

        monkeypatch.setattr(gd, "quotient_classes", recording)
        f, m = families.shape
        for read, block_pairs, pairs in (
            ("gathered", 1, 0),
            ("flat", 1 + m * m, f * m * m),
        ):
            monkeypatch.setattr(scheme, "BLOCK_PAIRS", block_pairs)
            classed.clear()
            assert scheme._class_counts(families, n).tolist() == expected, read
            assert sum(classed) == pairs, read

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_dense_supports(self, monkeypatch, n):
        # two random halves of S_n, one batch, and a coin-flip support alone
        order = math.factorial(n)
        rng = random.Random(n)
        halves = [sorted(rng.sample(range(order), order // 2)) for _ in range(2)]
        support = [r for r in range(order) if rng.random() < 0.5]
        for families in (halves, [support]):
            self._assert_both_reads_are_the_oracle(monkeypatch, families, n)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_constraint_families_at_degree_six(self, monkeypatch, k):
        families = constraint_families(6, k)
        self._assert_both_reads_are_the_oracle(monkeypatch, families, 6)

    def test_a_coset_and_a_random_support_at_degree_seven(self, monkeypatch):
        coset = constraint_families(7, 1)[0]  # S_{1->1}, 720 members
        support = random.Random(7).sample(range(5040), 300)
        for families in ([coset], [support]):
            self._assert_both_reads_are_the_oracle(monkeypatch, families, 7)


class TestFlatRelationGather:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_flat_take_equals_the_two_index_gather(self, n):
        gd = group_data(n)
        rng = np.random.default_rng(n)
        ranks = rng.integers(gd.order, size=(3, 4, 5))
        shapes = [
            (ranks[:, :2, :1], ranks[:, None, 0]),  # (F, R, 1) x (F, 1, m)
            (ranks[0, :, :1], ranks[1, 0]),  # (R, 1) x (m,)
            (ranks[0], ranks[1]),  # equal shapes
        ]
        for a, b in shapes:
            classes = gd.quotient_classes(a, b)
            assert classes.dtype == np.int8
            assert np.array_equal(classes, gd.relations[a, b])


class TestCompositionKernel:
    @settings(max_examples=60)
    @given(_rank_pairs())
    def test_kernel_agrees_with_permgroup(self, case):
        n, a, b = case
        gd = group_data(n)
        column = [[r] for r in a]
        ranks = gd.compose_ranks(column, b).tolist()
        classes = gd.quotient_classes(column, b).tolist()
        for i, ra in enumerate(a):
            p = unrank_permutation(ra, n)
            for j, rb in enumerate(b):
                q = unrank_permutation(rb, n)
                assert ranks[i][j] == rank_permutation(compose(p, q))
                quotient = cycle_type_of_images(compose(inverse(p), q))
                assert gd.classes[classes[i][j]].cycle_type == quotient

    @pytest.mark.parametrize("n", [1, 4, 6, MAX_GROUP_DEGREE])
    def test_kernel_composes_the_broadcast_shapes_of_its_callers(self, n):
        gd = group_data(n)
        ranks = np.random.default_rng(n).integers(gd.order, size=(3, 4, 5))
        cases = [
            (ranks[0, 0, 0], ranks[0, 0]),  # a 0-d rank against a row
            (ranks[0, :, :1], ranks[0]),  # (k, 1) x (k, m), as in classify
            (ranks[0, 0], np.arange(gd.order)[:, None]),  # (m,) x (n!, 1), coset cover
            (ranks[:, :2, :1], ranks[:, None, 0]),  # (F, R, 1) x (F, 1, m)
            (ranks[0, :, :1].tolist(), ranks[0].tolist()),  # nested lists
        ]
        for a, b in cases:
            composed = gd.compose_ranks(a, b)
            a, b = np.broadcast_arrays(a, b)
            assert composed.shape == a.shape
            expected = [
                rank_permutation(compose(unrank_permutation(x, n), unrank_permutation(y, n)))
                for x, y in zip(a.ravel().tolist(), b.ravel().tolist())
            ]
            assert composed.ravel().tolist() == expected

    def test_multiplication_table_spans_many_blocks(self):
        # the 720 x 720 pairs go through the kernel in one pass
        gd = group_data(6)
        rng = random.Random(6)
        for _ in range(300):
            a, b = rng.randrange(720), rng.randrange(720)
            expected = compose(unrank_permutation(a, 6), unrank_permutation(b, 6))
            assert gd.mult[a][b] == rank_permutation(expected)

    def test_connection_set(self):
        gd = group_data(5)
        for t in range(4):
            expected = [
                r
                for r in range(120)
                if 0 < 5 - cycle_type_of_images(unrank_permutation(r, 5)).count(1)
                and cycle_type_of_images(unrank_permutation(r, 5)).count(1) <= t
            ]
            assert _connection(gd, t) == expected

    def test_degree_seven_sparse_vector_matches_brute_force(self):
        n, order = 7, 5040
        perms = list(itertools.permutations(range(1, n + 1)))  # rank order
        rng = random.Random(77)
        x = [0] * order
        for r in rng.sample(range(order), 4):
            x[r] = 1
        support = [j for j in range(order) if x[j]]
        assert class_quadratic_forms([x], n) == [_brute_force_forms(x, n)]
        shape = (5, 1, 1)
        vector = project(shape, x, n)
        dim = dimension(shape)
        for i in range(order):
            total = sum(
                character_value(shape, _oracle_quotient_type(perms[i], perms[j])) * x[j]
                for j in support
            )
            assert vector[i] == Fraction(dim * total, order)


def constraint_sets(n, k):
    """Every set of k pairs (x, y) with distinct points x and distinct values y.

    The points run in itertools.combinations order and, for each, the values
    in lexicographic order: the order of the rows of constraint_families.
    """
    return [
        tuple(zip(xs, ys))
        for xs in itertools.combinations(range(1, n + 1), k)
        for ys in itertools.permutations(range(1, n + 1), k)
    ]


@functools.lru_cache(maxsize=None)
def _permutations(n):
    return tuple(itertools.permutations(range(1, n + 1)))


def filtered_ranks(pairs, n):
    """The ranks of S_A by brute force: itertools.permutations runs in rank order."""
    images = _permutations(n)
    ranks = range(len(images))
    for x, y in pairs:
        ranks = [r for r in ranks if images[r][x - 1] == y]
    return list(ranks)


def family_ranks(pairs, n):
    """The ranks of S_A, read off the image rows of constraint_rows."""
    return rank_images((constraint_rows(n, pairs) - 1).T)


# S_1 has the one family S_{1->1}, which basis_check reads at n = 1
_DEGREE_SPLITS = [(1, 1)] + [(n, k) for n in range(2, 7) for k in range(1, n)]


class TestConstraintFamilies:
    @pytest.mark.parametrize("n, k", _DEGREE_SPLITS)
    def test_every_row_is_its_filtered_set(self, n, k):
        got = constraint_families(n, k)
        assert got.shape == (
            math.comb(n, k) * math.perm(n, k),
            math.factorial(n - k),
        )
        assert [row.tolist() for row in got] == [
            filtered_ranks(pairs, n) for pairs in constraint_sets(n, k)
        ]

    @pytest.mark.parametrize("n, k", _DEGREE_SPLITS)
    def test_each_position_set_partitions_the_group(self, n, k):
        blocks = constraint_families(n, k).reshape(math.comb(n, k), -1)
        order = np.arange(math.factorial(n))
        for block in blocks:
            assert (np.sort(block) == order).all()

    def test_a_row_of_two_value_tuples_raises(self, monkeypatch):
        # 1 goes to 1 in seven rows of the doctored table, to 2 in five
        table = image_table(4).copy()
        table[6, 0] = 0
        monkeypatch.setattr(scheme, "image_table", lambda n: table)
        with pytest.raises(AssertionError, match="mixes value tuples"):
            constraint_families(4, 1)

    def test_mixed_sizes_keep_their_members(self):
        sets = [((1, 2),), ((1, 2), (3, 3)), ((5, 1),), ((2, 2), (3, 1), (4, 5))]
        for pairs in sets:
            assert family_ranks(pairs, 5).tolist() == filtered_ranks(pairs, 5)

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 3), (6, 2)])
    def test_rows_and_family_are_the_ranked_members(self, n, k):
        table = _permutations(n)
        sets = constraint_sets(n, k)
        for pairs, ranks in zip(sets, constraint_families(n, k)):
            expected = [table[r] for r in filtered_ranks(pairs, n)]
            rows = constraint_rows(n, pairs)
            assert [tuple(row) for row in rows.tolist()] == expected
            assert (rows == image_table(n)[ranks] + 1).all()

    @pytest.mark.parametrize("pairs", [((0, 1),), ((1, 5),), ((5, 1),), ()])
    def test_points_outside_the_degree_raise(self, pairs):
        with pytest.raises(ValueError):
            constraint_rows(4, pairs)


def _catalogue(n):
    """The n^2 point families as (i, j) and ascending ranks, in row-major order."""
    keys = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return list(zip(keys, constraint_families(n, 1)))


class TestPointFamily:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_the_catalogue_and_its_translates(self, n):
        gd = group_data(n)
        catalogue = _catalogue(n)

        def first_key(ranks):
            members = set(ranks.tolist())
            return next(k for k, fam in catalogue if set(fam.tolist()) == members)

        spread = range(0, gd.order, max(1, gd.order // 24))
        for _, ranks in catalogue:
            for g in [gd.inv[ranks[0]], *spread]:
                translated = gd.compose_ranks(g, ranks)
                assert point_family(gd.images[translated]) == first_key(translated)

    def test_degree_two_reads_the_first_constant_column(self):
        # S_{1->1} = S_{2->2} = {12} and S_{1->2} = S_{2->1} = {21}
        assert point_family([[0, 1]]) == (1, 1)
        assert point_family([[1, 0]]) == (1, 2)

    @pytest.mark.parametrize("n", [4, 5])
    def test_a_set_short_or_swapped_is_no_family(self, n):
        # from n = 4 on, two cosets share at most (n-2)! < (n-1)! - 1 members,
        # so a coset with one member swapped out is no coset at all
        gd = group_data(n)
        for _, ranks in _catalogue(n):
            outsider = next(r for r in range(gd.order) if r not in set(ranks.tolist()))
            assert point_family(gd.images[ranks[:-1]]) is None
            assert point_family(gd.images[[*ranks[:-1], outsider]]) is None

    @pytest.mark.parametrize("n", range(1, 7))
    def test_coset_count_is_the_distinct_catalogue_families(self, n):
        distinct = {tuple(ranks.tolist()) for _, ranks in _catalogue(n)}
        assert stabilizer_coset_count(n) == len(distinct)


def test_group_data_degree_cap():
    with pytest.raises(DegreeRangeError):
        group_data(MAX_GROUP_DEGREE + 1)
