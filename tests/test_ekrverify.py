"""Incidence matrix of position-value pairs: Gram identity, ranks, kernels,
module supports, and the classification of maximum intersecting families."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrperm import ekrverify, graphs, linalg, scheme
from ekrperm.chartab import dimension
from ekrperm.ekrverify import (
    MAX_INCIDENCE_DEGREE,
    BasisCheckReport,
    SetClassification,
    basis_check,
    bordered_kernel_check,
    classify_maximum_sets,
    depth_conjecture_dims,
    expected_gram,
    gram_check,
    incidence,
    kernel_membership_check,
    pi_ab,
    pi_ab_submatrix,
    rank_H_check,
    rank_M_check,
)
from ekrperm.errors import DegreeRangeError
from ekrperm.graphs import max_independent_sets
from ekrperm.linalg import bareiss_rank
from ekrperm.scheme import (
    class_quadratic_forms,
    constraint_families,
    constraint_rows,
    group_data,
    point_family,
    rank_images,
)
import oracles
from oracles import compose, inverse, parse_cycles, rank_permutation, unrank_permutation
from test_graphs import point_families
from test_linalg import kron
from test_scheme import constraint_sets, family_ranks, module_quadratic_form

# Row pattern of the six reordered derangement rows at degree 4, columns
# ordered (1,2),(1,3),(2,3),(2,1),(3,1),(3,2); checked off the worked
# example by hand.
SUBMATRIX_4 = [
    [0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 1],
    [1, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 0, 1],
    [1, 0, 1, 0, 0, 0],
    [0, 1, 0, 1, 0, 0],
]


def _columns(n):
    """H's columns (i, j), 1 <= i, j <= n-1, in index order."""
    return [(i, j) for i in range(1, n) for j in range(1, n)]


def _rows(h):
    """H as dense 0/1 rows, built from its one-positions (the width is no column)."""
    width = (h.n - 1) ** 2
    return [[int(k in ones) for k in range(width)] for ones in h.ones.tolist()]


def reference_ranks(rows):
    """rank_permutation of each image row, the scalar reference ranking."""
    return [rank_permutation(p) for p in np.asarray(rows).tolist()]


def module_supports(families, n):
    """Exact squared norm of each eigenspace component, one dict per family.

    Each vector is the 0/1 indicator of one family of image rows less its
    density m/n! times ones; the norms are dim/n! times the entries of
    scheme.shifted_character_sums, which reads the families, all of one size,
    as one (f, m) rank array.
    """
    gd = group_data(n)
    ranks = [reference_ranks(members) for members in families]
    return [
        {
            cls.cycle_type: Fraction(dimension(cls.cycle_type) * total, gd.order)
            for cls, total in zip(gd.classes, totals)
        }
        for totals in scheme.shifted_character_sums(ranks, n).tolist()
    ]


def module_support(members, n):
    return module_supports([members], n)[0]


def support_set(supports):
    return tuple(shape for shape, value in supports.items() if value != 0)


PI_AB_CYCLES_4 = {
    (1, 1): "(1,4,2,3)",
    (1, 2): "(1,4,3,2)",
    (2, 1): "(1,2,4,3)",
    (2, 2): "(1,3,2,4)",
    (3, 1): "(1,2,3,4)",
    (3, 2): "(1,3,4,2)",
}


class TestIncidenceMatrix:
    def test_shape_and_column_order(self):
        h = incidence(4)
        assert h.ones.shape == (24, 3)
        # the entry for position i is a column (i, j), or the width 9
        for row in h.ones.tolist():
            assert all(k == 9 or k // 3 == i for i, k in enumerate(row))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ones_match_the_defining_predicate(self, n):
        # row pi, position i: the column (i, j) when pi(i) = j < n, else the width
        column = {c: k for k, c in enumerate(_columns(n))}
        expected = [
            [column.get((i, j), len(column)) for i, j in enumerate(images[:-1], 1)]
            for images in itertools.permutations(range(1, n + 1))
        ]
        h = incidence(n)
        assert h.ones.tolist() == expected
        assert h.derangement_ranks.tolist() == [
            r
            for r, images in enumerate(itertools.permutations(range(1, n + 1)))
            if all(v != i for i, v in enumerate(images, 1))
        ]
        # W's columns (i, i) are the multiples of n below the width
        assert [column[(i, i)] for i in range(1, n)] == list(range(0, len(column), n))

    def test_identity_row(self):
        h = incidence(4)
        row = _rows(h)[rank_permutation((1, 2, 3, 4))]
        ones = {_columns(4)[k] for k, v in enumerate(row) if v}
        assert ones == {(1, 1), (2, 2), (3, 3)}

    def test_four_cycle_row(self):
        # pi = (1,4,2,3) sends 1 to 4 and 4 to 2, so only two pairs remain
        h = incidence(4)
        row = _rows(h)[rank_permutation((4, 3, 1, 2))]
        ones = {_columns(4)[k] for k, v in enumerate(row) if v}
        assert ones == {(2, 3), (3, 1)}

    def test_column_weight(self):
        # each position-value pair is hit by (n-1)! permutations
        h = incidence(4)
        for idx in range(9):
            assert sum(row[idx] for row in _rows(h)) == 6

    def test_row_weights(self):
        # n-1 pairs when the last point is fixed, otherwise n-2
        h = incidence(5)
        perms = [unrank_permutation(r, 5) for r in range(120)]
        for p, row in zip(perms, _rows(h)):
            expected = (5 - 1) if p[4] == 5 else 5 - 2
            hits = sum(1 for v in p[:4] if v <= 4)
            assert sum(row) == hits <= expected

    def test_degree_cap(self):
        with pytest.raises(DegreeRangeError):
            incidence(MAX_INCIDENCE_DEGREE + 1)


@pytest.mark.parametrize(
    "check, lo, holds",
    [
        (gram_check, 2, lambda result: result[0]),
        (pi_ab_submatrix, 3, lambda result: result[2]),
        (bordered_kernel_check, 3, lambda result: result),
    ],
    ids=["gram_check", "pi_ab_submatrix", "bordered_kernel_check"],
)
def test_lemmas_below_their_degrees_are_out_of_range(check, lo, holds):
    # below lo these died in factorial(-1), an IndexError or a false
    # AssertionError; from lo each lemma holds
    for n in range(lo):
        message = f"^{check.__name__} takes n of at least {lo}, got {n}$"
        with pytest.raises(DegreeRangeError, match=message):
            check(n)
    assert holds(check(lo)) is True


class TestGramIdentity:
    def test_degree_three_literal(self):
        ok, gram = gram_check(3)
        assert ok
        assert gram == [
            [2, 0, 0, 1],
            [0, 2, 1, 0],
            [0, 1, 2, 0],
            [1, 0, 0, 2],
        ]

    def test_expected_form(self):
        # (n-1)! on the diagonal plus (n-2)! times the doubled pattern
        gram = expected_gram(4)
        assert gram[0][0] == 6
        assert gram[0][4] == 2 and gram[0][8] == 2
        assert gram[0][1] == 0 and gram[0][3] == 0

    def test_gram_identity_through_degree_six(self):
        for n in range(3, 7):
            ok, _ = gram_check(n)
            assert ok

    @pytest.mark.parametrize("n", range(3, 9))
    def test_position_pairs_add_up_to_the_closed_form(self, n):
        gram = ekrverify._gram(incidence(n).ones, (n - 1) ** 2)
        assert gram[:-1, :-1].tolist() == expected_gram(n)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_bordered_position_pairs_equal_the_dense_product(self, n):
        inc = incidence(n)
        width = (n - 1) ** 2
        for ones in (inc.ones, inc.ones[inc.derangement_ranks]):
            dense = ekrverify._dense(ones, width)
            bordered = np.column_stack([dense, np.ones(len(ones), dtype=np.int64)])
            gram = ekrverify._gram(ones, width)
            assert gram.tolist() == (bordered.T @ bordered).tolist()


def _bordered_gram(rows):
    bordered = np.column_stack([rows, np.ones(len(rows), dtype=np.int64)])
    return (bordered.T @ bordered).tolist()


class TestBorderedGrams:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_grams_match_brute_force(self, n):
        # H, N and M from itertools.permutations alone, M's one-positions
        # renumbered among the off-diagonal columns as c - c // n - 1
        width, m_width = (n - 1) ** 2, (n - 1) * (n - 2)
        perms = list(itertools.permutations(range(1, n + 1)))
        h = np.array([[int(p[i - 1] == j) for i, j in _columns(n)] for p in perms])
        deranged = [p for p in perms if all(v != i for i, v in enumerate(p, 1))]
        n_rows = h[[perms.index(p) for p in deranged]]
        g_h, g_n = ekrverify.bordered_grams(n)
        assert g_h.tolist() == _bordered_gram(h)
        assert g_n.tolist() == _bordered_gram(n_rows)
        diagonal = [k for k, (i, j) in enumerate(_columns(n)) if i == j]
        assert not g_n[diagonal].any() and not g_n[:, diagonal].any()
        n_ones = np.array(
            [[(i - 1) * (n - 1) + p[i - 1] - 1 if p[i - 1] < n else width
              for i in range(1, n)] for p in deranged]
        )
        m_ones = n_ones - n_ones // n - 1
        m = np.zeros((len(m_ones), m_width + 1), dtype=np.int64)
        m[np.arange(len(m_ones))[:, None], m_ones] = 1
        off = [k for k in range(width + 1) if k not in diagonal]
        assert g_n[np.ix_(off, off)].tolist() == _bordered_gram(m[:, :m_width])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_G_N_equals_the_counting_oracle(self, n):
        # entrywise, the transposed columns (j, i) and the border included
        g_n = ekrverify.bordered_grams(n)[1]
        assert g_n.tolist() == oracles.derangement_gram(n)
        assert g_n[-1, -1] == oracles.derangements_by_inclusion_exclusion(n)

    def test_cached_and_read_only(self):
        g_h, g_n = ekrverify.bordered_grams(5)
        assert ekrverify.bordered_grams(5)[0] is g_h
        assert not g_h.flags.writeable and not g_n.flags.writeable

    def test_formed_once_per_degree(self, monkeypatch, fresh_grams):
        from ekrperm import groupcmds

        real, widths = ekrverify._gram, []

        def counting(ones, width):
            widths.append(width)
            return real(ones, width)

        monkeypatch.setattr(ekrverify, "_gram", counting)
        groupcmds.run_lemmas(5)
        groupcmds.run_classify(5)
        assert widths == [16, 16]


@st.composite
def _one_position_arrays(draw):
    """A width and an array whose rows hold distinct columns below it, padded
    to one length with the width (no column) and shuffled."""
    width = draw(st.integers(0, 7))
    k = draw(st.integers(0, 4))
    columns = st.sets(st.integers(0, width - 1), max_size=k) if width else st.just(set())
    rows = [
        draw(st.permutations(sorted(cols) + [width] * (k - len(cols))))
        for cols in draw(st.lists(columns, max_size=12))
    ]
    return np.array(rows, dtype=np.intp).reshape(len(rows), k), width


class TestIncidenceArrays:
    @given(_one_position_arrays())
    def test_gram_and_dense_rows_match_loops(self, case):
        ones, width = case
        dense = np.zeros((len(ones), width), dtype=np.int64)
        for r, row in enumerate(ones.tolist()):
            for c in row:
                if c < width:
                    dense[r, c] = 1
        bordered = np.column_stack([dense, np.ones(len(ones), dtype=np.int64)])
        assert ekrverify._gram(ones, width).tolist() == (bordered.T @ bordered).tolist()
        assert ekrverify._dense(ones, width).tolist() == dense.tolist()


class TestBlocks:
    def test_degree_four_shapes(self):
        h = incidence(4)
        assert [_columns(4).index((i, i)) for i in range(1, 4)] == [0, 4, 8]
        # M's six columns, then the border
        assert ekrverify._m_columns(4).tolist() == [1, 2, 3, 5, 6, 7, 9]
        assert len(h.derangement_ranks) == 9

    def test_derangement_rows_avoid_diagonal(self):
        h = incidence(5)
        # M holds only off-diagonal column restrictions of derangements, so
        # the diagonal block of a derangement row must vanish
        rows = _rows(h)
        assert any(any(rows[r]) for r in h.derangement_ranks)
        diag_cols = [_columns(5).index((i, i)) for i in range(1, 5)]
        for r in h.derangement_ranks:
            assert all(rows[r][c] == 0 for c in diag_cols)

    def test_off_diagonal_row_weight(self):
        for n in (4, 6):
            h = incidence(n)
            # M is N on the off-diagonal columns, each row holding n-2 ones
            off_cols = [k for k, (i, j) in enumerate(_columns(n)) if i != j]
            assert ekrverify._m_columns(n).tolist() == off_cols + [(n - 1) ** 2]
            rows = np.array(_rows(h))[h.derangement_ranks]
            assert (rows[:, off_cols].sum(axis=1) == n - 2).all()


class TestReorderedSubmatrix:
    def test_cycle_forms_match_hand_table(self):
        for (a, b), cycles in PI_AB_CYCLES_4.items():
            assert pi_ab(a, b, 4) == parse_cycles(cycles, 4)

    def test_rows_are_derangements_and_distinct(self):
        for n in (4, 5, 6):
            perms = [
                pi_ab(a, b, n)
                for a in range(1, n)
                for b in range(1, n - 1)
            ]
            assert len(set(perms)) == (n - 1) * (n - 2)
            assert all(v != i for p in perms for i, v in enumerate(p, 1))

    def test_application_is_one_based(self):
        # images[i - 1] is the image of i: pi_ab sends a to n
        for n in (3, 4, 5, 6):
            for a in range(1, n):
                for b in range(1, n - 1):
                    assert pi_ab(a, b, n)[a - 1] == n

    def test_degree_four_literal(self):
        rows, expected, equal = pi_ab_submatrix(4)
        assert equal
        assert rows == SUBMATRIX_4
        assert expected == kron([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[1, 0], [0, 1]])

    def test_matches_kron_through_degree_six(self):
        for n in (3, 4, 5, 6):
            _, _, equal = pi_ab_submatrix(n)
            assert equal

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            pi_ab(4, 1, 4)
        with pytest.raises(ValueError):
            pi_ab(1, 3, 4)


class TestRanks:
    def test_full_matrix_rank(self):
        for n in (3, 4, 5):
            rank, ok = rank_H_check(n)
            assert ok
            assert rank == (n - 1) ** 2

    def test_off_diagonal_block_rank(self):
        # full column rank: the bordered kernel vector needs the extra column
        for n in (3, 4, 5):
            rank, ok = rank_M_check(n)
            assert ok
            assert rank == (n - 1) * (n - 2)

    def test_rank_H_agrees_with_direct_elimination(self):
        h = incidence(4)
        assert bareiss_rank(_rows(h)) == 9


class TestKernels:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bordered_kernel_direction(self, n):
        # the certificate against the oracle's kernel of the dense [M | ones]
        assert bordered_kernel_check(n) is True
        width = (n - 1) * (n - 2)
        off_cols = [k for k, (i, j) in enumerate(_columns(n)) if i != j]
        dense = np.array(_rows(incidence(n)))[incidence(n).derangement_ranks]
        (vec,) = oracles.kernel([row + [1] for row in dense[:, off_cols].tolist()])
        assert [v / vec[0] for v in vec] == [1] * width + [-(n - 2)]

    def test_bordered_kernel_through_degree_six(self):
        for n in (4, 5, 6):
            assert bordered_kernel_check(n) is True

    def test_kernel_membership(self):
        assert kernel_membership_check(4)
        assert kernel_membership_check(5)

    def test_the_rank_of_M_is_certified_by_the_check_itself(self, monkeypatch):
        # no caller can vouch for M: the check reads rank_M_check's verdict
        for full in (True, False):
            monkeypatch.setattr(ekrverify, "rank_M_check", lambda n: (0, full))
            assert kernel_membership_check(5) is full
        monkeypatch.undo()
        heights = _recording_bareiss(monkeypatch)
        assert kernel_membership_check(5) is True
        assert heights == [44]

    def test_lemmas_eliminate_H_once_and_M_once(self, monkeypatch):
        # the dense cross-checks at n <= 5: H (120 x 16), then M (44 x 12),
        # whose rank the kernel membership check reads from rank_M_check's cache
        from ekrperm import groupcmds

        heights = _recording_bareiss(monkeypatch)
        _, checks = groupcmds.run_lemmas(5)
        assert all(c["pass"] for c in checks)
        assert heights == [120, 44]


def _parent_kernel_membership(n, trials, seed):
    """Random trials: each forms y in ker(N), then H y over every row of H, then
    its border against W, and compares the ranks of the bordered Gram matrices."""
    h = ekrverify.incidence(n)
    width = (n - 1) ** 2
    basis = oracles.kernel(
        ekrverify._gram(h.ones[h.derangement_ranks], width)[:-1, :-1].tolist()
    )
    if len(basis) != n - 1:
        raise AssertionError("unexpected kernel dimension for the derangement rows")
    w = ekrverify._dense(h.ones, width)[:, ::n]  # W's columns, the multiples of n
    w_gram = (w.T @ w).tolist()
    w_rank = oracles.gaussian_rank(w_gram)
    w_support = [np.flatnonzero(column).tolist() for column in w.T]
    h_ones = [[c for c in ones if c < width] for ones in h.ones.tolist()]
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [rng.randint(-9, 9) for _ in basis]
        y = [sum(c * vec[k] for c, vec in zip(coeffs, basis)) for k in range(width)]
        hy = [sum(y[c] for c in ones) for ones in h_ones]
        border = [sum(hy[r] for r in support) for support in w_support]
        bordered = [row + [v] for row, v in zip(w_gram, border)]
        bordered.append(border + [sum(v * v for v in hy)])
        if oracles.gaussian_rank(bordered) != w_rank:
            return False
    return True


def _every_other_derangement(inc):
    return inc._replace(derangement_ranks=inc.derangement_ranks[::2])


class TestKernelMembershipByLinearity:
    """The unit-vector certificate against the random-trial reference."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("seed", [987, 1, 2024])
    def test_matches_explicit_trials(self, n, seed):
        # the seed draws the reference's trials; the certificate draws nothing
        assert kernel_membership_check(n) is True
        assert _parent_kernel_membership(n, 20, seed) is True

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_G_N_meeting_any_W_column_fails(self, n, monkeypatch):
        # a row of N meeting W's column (i, i) counts on G_N's diagonal there;
        # the check must see it at every i, the last one too
        real = ekrverify.bordered_grams
        for i in range(1, n):
            doctored = _W_meeting_grams(real, (i - 1) * n)
            monkeypatch.setattr(ekrverify, "bordered_grams", doctored)
            assert kernel_membership_check(n) is False

    def test_half_the_rows_fail_here_and_raise_in_the_reference(self, doctor_incidence):
        # every other derangement row leaves a kernel wider than n-1: M loses
        # full column rank, which fails the check; the reference still raises
        doctor_incidence(_every_other_derangement)
        assert kernel_membership_check(4) is False
        with pytest.raises(AssertionError, match="kernel dimension"):
            _parent_kernel_membership(4, 20, 987)

    def test_half_the_rows_at_five_keep_the_lemma(self, doctor_incidence):
        # 22 of the 44 derangement rows still give M full column rank
        doctor_incidence(_every_other_derangement)
        assert kernel_membership_check(5) is True
        assert _parent_kernel_membership(5, 20, 987) is True

    def test_a_row_meeting_W_voids_the_certificate(self, doctor_incidence):
        # with the identity among N's rows, G_N is nonzero on W's diagonal
        doctor_incidence(
            lambda inc: inc._replace(
                derangement_ranks=np.append(0, inc.derangement_ranks)
            )
        )
        assert kernel_membership_check(4) is False


def _undershooting_ranks(monkeypatch):
    """Rank profiles and family ranks mod 2 each one short, so no cap is met
    by a modulus and every certified rank is eliminated fraction-free."""
    real_profile, real_mod_2 = linalg.rank_profile_mod_p, linalg._rank_mod_2
    monkeypatch.setattr(
        linalg, "rank_profile_mod_p", lambda rows, p: real_profile(rows, p)[1:]
    )
    monkeypatch.setattr(linalg, "_rank_mod_2", lambda packed: real_mod_2(packed) - 1)


def _recording_bareiss(monkeypatch):
    real = linalg.bareiss_rank
    heights = []

    def recording(rows):
        heights.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "bareiss_rank", recording)
    return heights


def _first_derangements(count):
    """An incidence edit keeping only the first count rows of N."""
    return lambda inc: inc._replace(derangement_ranks=inc.derangement_ranks[:count])


def _deficient_grams(real):
    """real bordered_grams with the row and column of H's column (n-1, n-2)
    zeroed in both, as if no permutation took n-1 to n-2: that column is off
    W, so H^T H, [H | 1]'s Gram and M's each lose one rank."""

    def deficient(n):
        grams = []
        for gram in real(n):
            gram = gram.copy()
            gram[(n - 1) ** 2 - 2] = gram[:, (n - 1) ** 2 - 2] = 0
            grams.append(gram)
        return tuple(grams)

    return deficient


def _W_meeting_grams(real, column):
    """real bordered_grams with G_N's diagonal entry on W's column set to 1,
    as if one row of N met that column."""

    def meeting(n):
        g_h, g_n = real(n)
        g_n = g_n.copy()
        g_n[column, column] = 1
        return g_h, g_n

    return meeting


class TestCertifiedLemmaRanks:
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_lemmas_read_the_grams_alone(self, n, monkeypatch):
        # once bordered_grams(n) is built, no lemma reads H's rows above 5
        lemmas = (
            gram_check,
            rank_H_check,
            rank_M_check,
            bordered_kernel_check,
            kernel_membership_check,
        )
        expected = [lemma(n) for lemma in lemmas]

        def no_rows(n):
            raise AssertionError(f"H's rows read at degree {n}")

        monkeypatch.setattr(ekrverify, "incidence", no_rows)
        assert [lemma(n) for lemma in lemmas] == expected

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_no_elimination_at_the_top_degrees(self, n, monkeypatch):
        heights = _recording_bareiss(monkeypatch)
        assert rank_H_check(n) == ((n - 1) ** 2, True)
        assert rank_M_check(n) == ((n - 1) * (n - 2), True)
        assert bordered_kernel_check(n) is True
        assert kernel_membership_check(n) is True
        assert heights == []

    def test_rank_disagreeing_with_direct_elimination_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "bareiss_rank", lambda rows: 0)
        for lemma in (rank_H_check, rank_M_check):
            with pytest.raises(
                AssertionError, match="^Gram rank disagrees with direct elimination$"
            ):
                lemma(4)

    @pytest.mark.parametrize(
        "exact, message",
        [
            (0, "^exact rank 0 is below the modular rank 24$"),
            (26, "^exact rank 26 exceeds the proven upper bound 25$"),
        ],
        ids=["below-modular", "above-cap"],
    )
    def test_certified_rank_invariants_raise(self, exact, message, monkeypatch):
        # at n = 6 no direct elimination runs, so a profile one short of the
        # cap (25) sends H^T H to the patched elimination
        real = linalg.rank_profile_mod_p
        monkeypatch.setattr(
            linalg, "rank_profile_mod_p", lambda rows, p: real(rows, p)[1:]
        )
        monkeypatch.setattr(linalg, "bareiss_rank", lambda rows: exact)
        with pytest.raises(AssertionError, match=message):
            rank_H_check(6)

    def test_doctored_gram_reports_its_exact_rank(self, monkeypatch):
        n = 6
        doctored = _deficient_grams(ekrverify.bordered_grams)
        monkeypatch.setattr(ekrverify, "bordered_grams", doctored)
        assert rank_H_check(n) == ((n - 1) ** 2 - 1, False)
        assert rank_M_check(n) == ((n - 1) * (n - 2) - 1, False)

    def test_undershooting_profile_keeps_the_exact_ranks(self, monkeypatch):
        n = 6
        real = linalg.rank_profile_mod_p
        monkeypatch.setattr(
            linalg, "rank_profile_mod_p", lambda rows, p: real(rows, p)[1:]
        )
        assert rank_H_check(n) == ((n - 1) ** 2, True)
        assert rank_M_check(n) == ((n - 1) * (n - 2), True)
        assert bordered_kernel_check(n) is True

    @pytest.mark.parametrize("n", [4, 6])
    def test_too_few_rows_widen_the_kernel(self, n, doctor_incidence):
        # every row still sums to 0 against the expected vector, but the
        # rank falls below the width, so the kernel has more than one line
        doctor_incidence(_first_derangements(3))
        assert bordered_kernel_check(n) is False

    @pytest.mark.parametrize("n", [4, 6])
    def test_expected_vector_missing_a_row_fails(self, n, doctor_incidence):
        # a row of M with one of its ones dropped sums to -1 against the vector
        width = (n - 1) ** 2

        def drop_one(inc):
            ones, r = inc.ones.copy(), inc.derangement_ranks[0]
            ones[r, np.flatnonzero(ones[r] < width)[0]] = width
            return inc._replace(ones=ones)

        doctor_incidence(drop_one)
        assert bordered_kernel_check(n) is False


class TestModuleSupport:
    def test_point_family_lives_in_standard_module(self):
        supports = module_support(constraint_rows(5, [(2, 3)]), 5)
        assert support_set(supports) == ((4, 1),)
        assert supports[(4, 1)] == Fraction(96, 5)

    def test_whole_group_shifts_to_zero(self):
        # the whole group is its own density times ones
        supports = module_support(group_data(4).images, 4)
        assert support_set(supports) == ()

    def test_two_element_set_spreads_out(self):
        supports = module_support(np.array([[1, 2, 3, 4], [2, 1, 3, 4]]), 4)
        assert supports[(4,)] == 0
        assert supports[(3, 1)] == 1
        assert supports[(2, 2)] == Fraction(1, 3)
        assert supports[(2, 1, 1)] == Fraction(1, 2)
        assert supports[(1, 1, 1, 1)] == 0

    def test_density_shift_leaves_the_trivial_shape_unmet(self):
        supports = module_support(constraint_rows(5, [(1, 1), (2, 2)]), 5)
        assert supports[(5,)] == 0
        assert support_set(supports) == ((4, 1), (3, 2), (3, 1, 1))


def _supports_by_class_forms(members, n):
    """The per-vector route: class quadratic forms of the indicator, then E.

    The indicator is shifted by its density m/n! in exact fractions, and each
    component's squared norm is read off the character table one shape at a
    time.
    """
    gd = group_data(n)
    vec = [0] * gd.order
    for r in reference_ranks(members):
        vec[r] = 1
    m = len(members)
    shift = Fraction(m, gd.order)
    adjusted = [
        q - 2 * shift * cls.size * m + shift * shift * cls.size * gd.order
        for q, cls in zip(class_quadratic_forms([vec], n)[0], gd.classes)
    ]
    return {
        cls.cycle_type: module_quadratic_form(cls.cycle_type, adjusted, n)
        for cls in gd.classes
    }


@st.composite
def _family_batches(draw):
    """A degree and a few families of m distinct random permutations each."""
    n = draw(st.integers(3, 5))
    m = draw(st.integers(0, 6))
    ranks = st.sets(st.integers(0, math.factorial(n) - 1), min_size=m, max_size=m)
    batch = draw(st.lists(ranks, min_size=1, max_size=5))
    families = [group_data(n).images[sorted(fam)] for fam in batch]
    return n, families


class TestBatchedSupports:
    @given(_family_batches())
    def test_batch_matches_class_form_route(self, case):
        n, families = case
        batched = module_supports(families, n)
        assert len(batched) == len(families)
        for members, supports in zip(families, batched):
            assert supports == _supports_by_class_forms(members, n)

    def test_repeated_member_anywhere_in_batch(self):
        # a repeated rank adds to the squared norm but not to the member count
        ranks = constraint_families(4, 1)
        ranks[5, 2] = ranks[5, 1]
        with pytest.raises(AssertionError, match="add up"):
            scheme.shifted_character_sums(ranks, 4)

    def test_many_kernel_blocks(self, monkeypatch):
        batches = [
            list(point_families(5).values()),
            [constraint_rows(5, [(1, 2), (3, 3)])],
            [np.arange(1, 6)[None]],
        ]
        expected = [[module_support(fam, 5) for fam in batch] for batch in batches]
        monkeypatch.setattr(scheme, "BLOCK_PAIRS", 7)
        assert [module_supports(batch, 5) for batch in batches] == expected

    def test_block_size_is_read_at_call_time(self, monkeypatch):
        # 25 point families of 24 members: 576 pairs each
        gd = group_data(5)
        ranks = constraint_families(5, 1)
        blocks = []
        real = gd.quotient_classes

        def recording(a, b):
            blocks.append(len(a))
            return real(a, b)

        monkeypatch.setattr(gd, "quotient_classes", recording)
        expected = scheme.shifted_character_sums(ranks, 5)
        assert blocks == [25]
        blocks.clear()
        monkeypatch.setattr(scheme, "BLOCK_PAIRS", 3 * 576)
        assert np.array_equal(scheme.shifted_character_sums(ranks, 5), expected)
        assert blocks == [3] * 8 + [1]


class TestIntegerNorms:
    @pytest.mark.parametrize("n, k", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3)])
    def test_equal_module_supports_on_constraint_families(self, n, k):
        gd = group_data(n)
        sets = constraint_sets(n, k)
        members = [constraint_rows(n, pairs) for pairs in sets]
        sums = scheme.shifted_character_sums(constraint_families(n, k), n)
        assert sums.dtype == np.int64 and sums.shape == (len(sets), len(gd.classes))
        assert not sums[:, gd.class_index[(n,)]].any()
        assert module_supports(members, n) == [
            _supports_by_class_forms(fam, n) for fam in members
        ]

    def test_point_families(self):
        n = 5
        sets = [((i, j),) for i in range(1, n + 1) for j in range(1, n + 1)]
        members = [constraint_rows(n, pairs) for pairs in sets]
        assert module_supports(members, n) == [
            _supports_by_class_forms(fam, n) for fam in members
        ]

    def test_empty_family_and_empty_batch(self):
        assert scheme.shifted_character_sums([[]], 4).tolist() == [[0] * 5]
        empty = np.empty((0, 3), dtype=np.intp)
        assert scheme.shifted_character_sums(empty, 4).shape == (0, 5)

    def test_negative_norm_raises(self, monkeypatch):
        table = scheme.character_table(4)
        flipped = table._replace(
            values=tuple(tuple(-v for v in row) for row in table.values)
        )
        monkeypatch.setattr(scheme, "character_table", lambda n: flipped)
        ranks = constraint_families(4, 1)[:1]
        with pytest.raises(AssertionError, match="nonnegative"):
            scheme.shifted_character_sums(ranks, 4)


class TestNoPermutationPerRow:
    def test_verify_all_paths_build_no_permutation(self, monkeypatch):
        # once the per-degree image tables and group tables are cached, the
        # verify-all paths read them as arrays and walk no permutation of
        # the group in Python again
        from ekrperm import cli, groupcmds

        found = {n: max_independent_sets(n) for n in (4, 5)}
        degrees = {"latin": 5, "odd-latin": 7, "cycles": 8, "affine": 5}

        def run():
            depth_conjecture_dims(5, 1)
            basis_check(5)
            kernel_membership_check(6)
            for n in (4, 5):
                classify_maximum_sets(n, found[n])
                groupcmds.run_search(n=n, t=0, workers=1)
            cli.run_derangements(n=8)
            groupcmds.run_quotient(n=8)
            for method, n in degrees.items():
                groupcmds.run_clique(n=n, method=method)
            groupcmds.run_clique_characters(n=7)
            graphs.latin_coset_cover(5)

        run()  # fills the per-degree caches (classes, tables)

        def walk(*args):
            raise AssertionError("a permutation walk ran again")

        monkeypatch.setattr(itertools, "permutations", walk)
        monkeypatch.setattr(scheme, "cycle_type_of_images", walk)
        run()

    @pytest.mark.parametrize("n, t", [(7, 0), (8, 0), (7, 1), (8, 1)])
    def test_bounds_builds_only_the_clique(self, monkeypatch, n, t):
        # the clique and the coclique are both image rows; a tight pair's
        # supports and their check stop at MAX_GROUP_DEGREE, above which no
        # group table is built
        from ekrperm import groupcmds

        def forbidden(*args):
            raise AssertionError("bounds built group tables")

        # every library route to the group tables passes one of these names
        if n > scheme.MAX_GROUP_DEGREE:
            monkeypatch.setattr(scheme.GroupData, "__init__", forbidden)
            for module in (scheme, graphs, ekrverify):
                monkeypatch.setattr(module, "group_data", forbidden)
        result, checks = groupcmds.run_bounds(n=n, t=t)
        assert all(c["pass"] for c in checks)
        assert result["clique_size"] == (n if t == 0 else n * (n - 1))
        supported = n <= scheme.MAX_GROUP_DEGREE
        assert ("supports" in result) == supported
        names = [c["name"] for c in checks]
        assert ("tight-pair-supports-disjoint" in names) == supported


class TestBasisCheck:
    def test_degree_four(self):
        report = basis_check(4)
        assert report.supports_ok and report.dimension_match
        assert report.rank_shifted == 9
        assert report.rank_with_ones == 10

    def test_degree_five(self):
        report = basis_check(5)
        assert report.supports_ok and report.dimension_match
        assert report.rank_shifted == 16
        assert report.rank_with_ones == 17

    def test_undershooting_profile_falls_back_to_elimination(self, monkeypatch):
        _undershooting_ranks(monkeypatch)
        heights = _recording_bareiss(monkeypatch)
        report = basis_check(4)
        assert (report.rank_shifted, report.rank_with_ones) == (9, 10)
        assert heights == [10]

    @pytest.mark.parametrize(
        "n, ranks", [(1, (0, 1)), (2, (1, 2)), (3, (4, 5)), (6, (25, 26))]
    )
    def test_ranks_are_one_certified_rank_of_the_indicator_rows(
        self, monkeypatch, n, ranks
    ):
        # the (n-1)^2 point-family indicators and ones, as n! wide 0/1 rows:
        # one certified rank against the standard module's dim^2 plus one
        # gives both ranks
        real, sides = linalg.certified_family_rank, []

        def recording(positions, width, cap):
            sides.append((len(positions) + 1, width, cap))
            return real(positions, width, cap)

        monkeypatch.setattr(linalg, "certified_family_rank", recording)
        report = basis_check(n)
        assert (report.rank_shifted, report.rank_with_ones) == ranks
        side = (n - 1) ** 2 + 1
        assert sides == [(side, math.factorial(n), side)]

    def test_degree_one_keeps_its_record(self):
        assert basis_check(1) == BasisCheckReport(1, True, 0, 1, False)

    def test_basis_reads_its_families_not_G_H(self, monkeypatch):
        # a rank deficit in G_H stops the classification, but the basis check
        # reads the point families themselves
        doctored = _deficient_grams(ekrverify.bordered_grams)
        monkeypatch.setattr(ekrverify, "bordered_grams", doctored)
        report = basis_check(4)
        assert (report.rank_shifted, report.rank_with_ones) == (9, 10)
        with pytest.raises(AssertionError, match=r"\[H \| ones\]"):
            classify_maximum_sets(4)

    def test_a_repeated_family_fails_both_ranks(self, monkeypatch, capsys):
        # S_{1->1} replaced by a second S_{1->2}: the supports stay standard,
        # but the 9 families span 8 dimensions, and ones a ninth
        from ekrperm import cli

        real = ekrverify.constraint_families

        def repeated(n, k):
            families = real(n, k).copy()
            families[0] = families[1]
            return families

        monkeypatch.setattr(ekrverify, "constraint_families", repeated)
        assert cli.main(["lemmas", "4"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        failed = {c["name"]: c.get("rank") for c in checks if not c["pass"]}
        assert failed == {
            "shifted-point-families-have-full-rank": 8,
            "ones-outside-span": 9,
        }
        assert "point-family-supports-standard-only" in {c["name"] for c in checks}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_all_point_families_span_the_standard_module_and_ones(self, n):
        # k = 1: all n^2 families S_{i->j}, the last position and value
        # included, meet only (n-1, 1) and add no rank to the (n-1)^2 of
        # those below n
        supports, union, *ranks, _ = ekrverify._family_span(
            constraint_families(n, 1), n
        )
        assert supports.shape[0] == n * n
        assert union == ((n - 1, 1),)
        assert tuple(ranks) == ((n - 1) ** 2, (n - 1) ** 2 + 1)


def _per_set_records(n, sets):
    """The records of sets of image tuples, classified one set at a time, as
    classify_maximum_sets did before it took every set's ranks at once."""
    gd, h = group_data(n), incidence(n)
    width = (n - 1) ** 2
    h_matrix = ekrverify._dense(h.ones, width)
    records = []
    for members in sets:
        images = np.array(members, dtype=np.int8)
        member_ranks = rank_images(images)
        distinct = len(set(member_ranks.tolist())) == len(member_ranks)
        family_key = point_family(images) if distinct else None
        translated = gd.compose_ranks(gd.inv[member_ranks[0]], member_ranks)
        fixed = point_family(gd.images[translated]) if family_key else None
        if fixed is None:
            records.append(SetClassification(family_key, None, None, None, False))
            continue
        if fixed[0] == fixed[1] < n:
            case, body, coefficient = 1, np.zeros(width, dtype=np.int64), 0
            body[(fixed[0] - 1) * n] = 1
        else:
            case, body, coefficient = 2, np.ones(width, dtype=np.int64), -(n - 2)
        indicator = np.zeros(gd.order, dtype=np.int64)
        indicator[translated] = 1
        ok = np.array_equal(h_matrix @ body + coefficient, indicator)
        if not ok:
            case = coefficient = None
        records.append(SetClassification(family_key, fixed, case, coefficient, ok))
    return records


class TestClassification:
    def test_degree_four(self):
        report = classify_maximum_sets(4)
        assert report.total_sets == 16
        assert report.all_canonical
        cases = [r.case for r in report.records]
        assert cases.count(1) == 12
        assert cases.count(2) == 4
        for r in report.records:
            assert r.coordinates_ok
            assert type(r.recovered_coefficient) is int
            if r.case == 1:
                assert r.recovered_coefficient == 0
                assert r.translated_to[0] == r.translated_to[1] != 4
            else:
                assert r.recovered_coefficient == -2
                assert r.translated_to == (4, 4)

    def test_degree_three(self):
        report = classify_maximum_sets(3)
        assert report.total_sets == 9
        assert report.all_canonical

    @pytest.mark.parametrize("n", [4, 5])
    def test_records_are_the_unique_dense_solutions(self, n):
        h = incidence(n)
        width = (n - 1) ** 2
        families = point_families(n)
        found = max_independent_sets(n)
        report = classify_maximum_sets(n, found)
        assert len(report.records) == len(found.ranks) == n * n
        bordered = [row + [1] for row in _rows(h)]
        # [H | ones] has a trivial kernel, so each consistent system has
        # exactly one solution
        assert oracles.kernel(bordered) == []
        for row, record in zip(found.ranks.tolist(), report.records):
            members = [unrank_permutation(r, n) for r in row]
            point_set = families[record.family_key]
            assert set(map(rank_permutation, members)) == set(reference_ranks(point_set))
            translated = {
                rank_permutation(compose(inverse(members[0]), p)) for p in members
            }
            target = families[record.translated_to]
            assert translated == set(reference_ranks(target))
            solution = oracles.solve(
                bordered, [int(r in translated) for r in range(len(bordered))]
            )
            assert solution is not None
            coefficient = solution[-1]
            case = 1 if coefficient == 0 else 2
            assert record == SetClassification(
                record.family_key, record.translated_to, case, coefficient, True
            )
            if case == 1:
                i = record.translated_to[0]
                assert solution[:-1] == [int(c == (i, i)) for c in _columns(n)]
            else:
                assert solution[:-1] == [1] * width

    def test_doctored_search_result_flags_that_set(self):
        # Cameron-Ku: no intersecting family of size (n-1)! is outside the
        # point families, so the stand-in has the size but not independence.
        found = max_independent_sets(4)
        k = 5
        ranks = found.ranks.copy()
        ranks[k, -1] = next(r for r in range(24) if r not in ranks[k])
        report = classify_maximum_sets(4, found._replace(ranks=ranks))
        assert report.violations == (k,)
        assert report.records[k] == SetClassification(None, None, None, None, False)
        assert all(r.coordinates_ok for i, r in enumerate(report.records) if i != k)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("doctor", ["non-coset", "repeated-rank", "unsorted"])
    def test_doctored_rank_rows_match_the_per_set_loop(self, n, doctor):
        found = max_independent_sets(n)
        ranks = found.ranks.copy()
        k = n + 1
        if doctor == "non-coset":
            outsider = next(r for r in range(math.factorial(n)) if r not in ranks[k])
            ranks[k, -1] = outsider
            ranks[k].sort()
        elif doctor == "repeated-rank":
            ranks[k, -1] = ranks[k, -2]
        else:
            ranks[k] = ranks[k, ::-1].copy()
        sets = [[unrank_permutation(r, n) for r in row] for row in ranks.tolist()]
        report = classify_maximum_sets(n, found._replace(ranks=ranks))
        assert report.records == tuple(_per_set_records(n, sets))
        assert report.violations == (() if doctor == "unsorted" else (k,))

    def test_failed_prediction_is_a_violation(self, monkeypatch):
        # with the coset test reading S_{1->1} and S_{2->2} swapped, the sets
        # translated onto them get the other point's column predicted, which
        # the rows refute
        found = max_independent_sets(4)
        real = ekrverify.point_family
        swap = {(1, 1): (2, 2), (2, 2): (1, 1)}

        def swapped(images):
            key = real(images)
            return swap.get(key, key)

        monkeypatch.setattr(ekrverify, "point_family", swapped)
        report = classify_maximum_sets(4, found)
        assert report.violations
        for idx, record in enumerate(report.records):
            if idx in report.violations:
                assert record.translated_to in {(1, 1), (2, 2)}
                assert (record.case, record.recovered_coefficient) == (None, None)
                assert not record.coordinates_ok
            else:
                assert record.coordinates_ok

    def test_rank_deficient_certificate_raises(self, monkeypatch):
        found = max_independent_sets(4)
        doctored = _deficient_grams(ekrverify.bordered_grams)
        monkeypatch.setattr(ekrverify, "bordered_grams", doctored)
        with pytest.raises(AssertionError, match=r"\[H \| ones\]"):
            classify_maximum_sets(4, found)

    def test_eliminates_no_more_rows_than_the_certificate(self, monkeypatch):
        n = 5
        heights = _recording_bareiss(monkeypatch)
        found = max_independent_sets(n)
        # the modular certificate meets its cap, so nothing is eliminated
        assert classify_maximum_sets(n, found).all_canonical
        assert heights == []
        # a profile that undershoots every prime eliminates the certificate only
        real_profile = linalg.rank_profile_mod_p
        monkeypatch.setattr(
            linalg, "rank_profile_mod_p", lambda rows, p: real_profile(rows, p)[1:]
        )
        assert classify_maximum_sets(n, found).all_canonical
        assert heights and max(heights) <= (n - 1) ** 2 + 1

    def test_translation_moves_families_to_families(self):
        # left-multiplying a point family gives another point family
        rows = constraint_rows(4, [(4, 4)]).tolist()
        g = (2, 3, 4, 1)
        translated = frozenset(compose(g, p) for p in rows)
        target = constraint_rows(4, [(4, g[3])])
        assert translated == frozenset(map(tuple, target.tolist()))


def _shifted_row_ranks(order, off, on, families, bounds):
    """certified_rank of the first k int64 rows for each (k, cap) in bounds;
    the rows hold on at each family, off elsewhere, then the ones row."""
    import numpy as np

    rows = np.full((len(families) + 1, order), off, dtype=np.int64)
    rows[-1] = 1
    for f, ranks in enumerate(families):
        rows[f, ranks] = on
    return [linalg.certified_rank(rows[:k], cap) for k, cap in bounds]


class TestIndicatorRoute:
    """The 0/1 indicator rows give the ranks of the shifted rows they replace."""

    @pytest.mark.parametrize(
        "n, t", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2)]
    )
    def test_depth_spans_match_shifted_rows(self, n, t):
        gd = group_data(n)
        size = math.factorial(n - t - 1)
        families = constraint_families(n, t + 1)
        report = depth_conjecture_dims(n, t)
        union_dim = sum(dimension(shape) ** 2 for shape in report.support_union)
        k = len(families)
        # n! x - |family| ones
        (shifted, m1), (with_ones, m2) = _shifted_row_ranks(
            gd.order, -size, gd.order - size, families,
            [(k, union_dim), (k + 1, union_dim + 1)],
        )
        assert (report.span_rank_shifted, report.span_rank_with_ones) == (
            shifted,
            with_ones,
        )
        assert report.rank_method == f"{m1}/{m2}"

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_point_basis_matches_shifted_rows(self, n):
        gd = group_data(n)
        points = [((i, j),) for i in range(1, n) for j in range(1, n)]
        families = [family_ranks(pairs, n) for pairs in points]
        k = len(families)
        # n x - ones
        (shifted, m1), (with_ones, m2) = _shifted_row_ranks(
            gd.order, -1, n - 1, families, [(k, k), (k + 1, k + 1)]
        )
        report = basis_check(n)
        assert (report.rank_shifted, report.rank_with_ones) == (shifted, with_ones)
        route = ekrverify._family_span(np.array(families), n)
        assert route[1] == ((n - 1, 1),)
        assert route[2:] == (shifted, with_ones, m1) and m1 == m2

    def test_repeated_member_raises(self):
        families = constraint_families(4, 1)[:2].copy()
        families[1, -1] = families[1, 0]
        with pytest.raises(
            AssertionError, match="eigenspace norms do not add up to the vector norm"
        ):
            ekrverify._family_span(families, 4)

    @staticmethod
    def _dense_rows(families, width):
        """The rows [X; ones] of _family_span, built row by row as int8."""
        rows = np.zeros((len(families) + 1, width), dtype=np.int8)
        rows[-1] = 1
        for f, ranks in enumerate(families):
            rows[f, ranks] = 1
        return rows

    @pytest.mark.parametrize("n, t", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2)])
    def test_profile_reads_the_dense_rows(self, monkeypatch, n, t):
        # a family rank short mod 2 builds [X; ones] once, as int8, and the
        # profile at 251 reads those rows
        families, width = constraint_families(n, t + 1), math.factorial(n)
        dense = self._dense_rows(families, width)
        real_mod_2, real_profile = linalg._rank_mod_2, linalg.rank_profile_mod_p
        monkeypatch.setattr(linalg, "_rank_mod_2", lambda packed: real_mod_2(packed) - 1)
        read = []

        def recording(int_rows, p):
            read.append((int_rows, p))
            return real_profile(int_rows, p)

        monkeypatch.setattr(linalg, "rank_profile_mod_p", recording)
        rank, method = linalg.certified_family_rank(families, width, bareiss_rank(dense))
        assert method == "modular-certificate"
        ((rows, p),) = read
        assert p == linalg._RANK_PRIME
        assert rows.dtype == np.int8 and np.array_equal(rows, dense)

    @pytest.mark.parametrize("n, t", [(3, 1), (4, 1), (4, 2)])
    def test_bareiss_over_the_rows_is_the_dense_rank(self, monkeypatch, n, t):
        # short of the cap at both moduli, the dense rows are eliminated
        families, width = constraint_families(n, t + 1), math.factorial(n)
        dense = self._dense_rows(families, width)
        _undershooting_ranks(monkeypatch)
        eliminated, real = [], linalg.bareiss_rank

        def recording(rows):
            eliminated.append(rows)
            return real(rows)

        monkeypatch.setattr(linalg, "bareiss_rank", recording)
        rank, method = linalg.certified_family_rank(families, width, width)
        assert method == "fraction-free-elimination"
        ((rows,),) = [eliminated]
        assert np.array_equal(rows, dense)
        assert rank == bareiss_rank(dense.tolist()) == oracles.gaussian_rank(dense.tolist())

    def test_peak_memory_is_below_one_byte_per_entry(self):
        """The n = 6, t = 2 certificate, [X; ones] 2,401 x 720: it is met mod
        2 on rows packed into ints, so neither a dense copy of the rows nor a
        byte-wide copy of their residues is held."""
        import tracemalloc

        # the cached tables the supports read are built first: the peak is
        # the route's own
        families = constraint_families(6, 3)
        group_data(6).relations
        scheme.character_table(6)
        tracemalloc.start()
        try:
            *_, shifted, with_ones, method = ekrverify._family_span(families, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (shifted, with_ones, method) == (587, 588, "modular-certificate")
        assert peak < 2401 * 720

    @pytest.mark.parametrize(
        "n, t",
        [(n, None) for n in range(1, 7)]
        + [(n, t) for t in (1, 2) for n in range(t + 2, 7)],
    )
    def test_every_catalogue_is_certified_mod_2(self, monkeypatch, n, t):
        # the point basis (t None) and the depth spans: the indicator rows a
        # report reads meet their cap mod 2, and a cap below the rational
        # rank still raises there
        real, met = linalg.certified_family_rank, []

        def recording(positions, width, cap):
            met.append((positions, width, real(positions, width, cap)))
            return met[-1][-1]

        monkeypatch.setattr(linalg, "certified_family_rank", recording)
        basis_check(n) if t is None else depth_conjecture_dims(n, t)
        ((positions, width, (rank, method)),) = met
        assert method == "modular-certificate"
        # the packed rank is the transposed kernel's rank of the dense rows
        dense = self._dense_rows(positions, width)
        assert len(linalg.rank_profile_mod_p(dense, 2)) == rank
        with pytest.raises(AssertionError, match="exceeds the proven upper bound"):
            real(positions, width, rank - 1)


class TestDepthSpans:
    def test_constraint_set_count(self):
        assert depth_conjecture_dims(4, 1).family_count == 72
        assert depth_conjecture_dims(5, 2).family_count == 600

    def test_degree_three_by_hand(self):
        # two constraints pin down a degree-3 permutation completely, so the
        # shifted singletons span the whole sum-zero space
        report = depth_conjecture_dims(3, 1)
        assert report.span_rank_shifted == 5
        assert report.span_rank_with_ones == 6
        assert report.agreement["shifted_equals_depth_2_sum_minus_top"]
        assert report.agreement["with_ones_equals_depth_2_sum"]

    def test_degree_four_frozen(self):
        report = depth_conjecture_dims(4, 1)
        assert report.family_count == 72
        assert report.module_dim_sums == {1: 10, 2: 23}
        assert report.span_rank_shifted == 22
        assert report.span_rank_with_ones == 23
        assert report.support_union == ((3, 1), (2, 2), (2, 1, 1))
        assert report.supports_within_depth == {1: False, 2: True}
        assert report.agreement == {
            "shifted_equals_depth_1_sum_minus_top": False,
            "with_ones_equals_depth_1_sum": False,
            "shifted_equals_depth_2_sum_minus_top": True,
            "with_ones_equals_depth_2_sum": True,
        }

    def test_degree_five_frozen(self):
        report = depth_conjecture_dims(5, 1)
        assert report.module_dim_sums == {1: 17, 2: 78}
        assert report.span_rank_shifted == 77
        assert report.span_rank_with_ones == 78
        assert report.supports_within_depth[2]

    def test_depth_two_families(self):
        report = depth_conjecture_dims(5, 2)
        assert report.module_dim_sums == {2: 78, 3: 119}
        assert report.span_rank_shifted == 118
        assert report.span_rank_with_ones == 119
        assert report.supports_within_depth == {2: False, 3: True}
        assert report.support_union == (
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
        )

    def test_degree_six_depth_two_frozen(self):
        report = depth_conjecture_dims(6, 2)
        assert report.family_count == 2400
        assert report.module_dim_sums == {2: 207, 3: 588}
        assert report.span_rank_shifted == 587
        assert report.span_rank_with_ones == 588
        assert report.rank_method == "modular-certificate/modular-certificate"
        assert report.support_union == (
            (5, 1),
            (4, 2),
            (4, 1, 1),
            (3, 3),
            (3, 2, 1),
            (3, 1, 1, 1),
        )

    def test_undershooting_profile_falls_back_to_elimination(self, monkeypatch):
        # mod 2 and 251 each miss one pivot, so neither bound is met
        _undershooting_ranks(monkeypatch)
        eliminated, real_bareiss = [], linalg.bareiss_rank

        def recording(rows):
            eliminated.append(type(rows))
            return real_bareiss(rows)

        monkeypatch.setattr(linalg, "bareiss_rank", recording)
        report = depth_conjecture_dims(4, 1)
        assert report.span_rank_shifted == 22
        assert report.span_rank_with_ones == 23
        assert report.rank_method == "fraction-free-elimination/fraction-free-elimination"
        # the elimination reads the dense rows the family route built once
        assert eliminated == [np.ndarray]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            depth_conjecture_dims(5, 3)
        with pytest.raises(ValueError):
            depth_conjecture_dims(3, 2)
        with pytest.raises(DegreeRangeError):
            depth_conjecture_dims(7, 1)
