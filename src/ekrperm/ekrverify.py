"""Exact verification of the incidence-matrix lemmas and the classification.

H is the n! x (n-1)^2 matrix whose (pi, (i,j)) entry is 1 when pi(i) = j,
both coordinates running over 1..n-1, held as one array of the one-positions
of each row; N is its derangement rows, W its diagonal columns, the multiples
of n, and M is N off W.  Every lemma reads only a block of G_H = [H | 1]^T
[H | 1] or of G_N = [N | 1]^T [N | 1], cached per degree (bordered_grams):
H^T H has a closed form, M has full column rank, the kernel of [M | 1] is one
line and, N being zero on W, ker N is spanned by W's unit vectors.  Together
these pin down every maximum independent set of the derangement graph as a
point-stabilizing family.  H's rows are read only by the cross-checks at
n <= 5 and by classify_maximum_sets, which certifies once that G_H has full
rank and then checks each set's predicted coordinates.  The point basis
(k = 1) and the depth spans (k = t + 1) read their constraint families
through one span route, _family_span: the supports, their union and both
ranks, certified on the families' own indicator rows.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING, NamedTuple

from . import linalg
from .chartab import dimension
from .permgroup import (
    MAX_DENSE_DEGREE,
    MAX_INCIDENCE_DEGREE,
    Partition,
    need_degree,
    partition_depth,
    partitions_of,
)
from .scheme import (
    constraint_families,
    group_data,
    image_table,
    point_family,
    shifted_character_sums,
)

if TYPE_CHECKING:
    import numpy as np

rank = linalg.bareiss_rank


def __getattr__(name: str):
    # graphs' search, read from graphs when read (PEP 562), so that lemmas and
    # conjecture run no graphs body; kept for ekrbench/test_selftest.py's pin
    if name == "max_independent_sets":
        from .graphs import max_independent_sets

        return max_independent_sets
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Incidence(NamedTuple):
    """H and its derangement rows N, as index arrays.

    Column (i, j) of H, 1 <= i, j <= n-1, is (i-1)(n-1) + j-1.  Row r of ones
    (rows in permutation-rank order) holds, for each position i < n, the
    column (i, pi(i)), or the width (n-1)^2, no column, when pi(i) = n.  N is
    the rows derangement_ranks.  W's columns (i, i), (i-1)n, the multiples of
    n, meet no derangement row; M is N on the other (n-1)(n-2) columns.
    """

    n: int
    ones: np.ndarray
    derangement_ranks: np.ndarray


def incidence(n: int) -> Incidence:
    """H of degree n, read off scheme.image_table: all permutations at once."""
    import numpy as np

    need_degree("incidence", n, 1, MAX_INCIDENCE_DEGREE)
    images = image_table(n)
    points = np.arange(n - 1)
    body = images[:, :-1]
    ones = np.where(body < n - 1, points * (n - 1) + body, (n - 1) ** 2)
    derangement_ranks = np.flatnonzero((images != np.arange(n)).all(axis=1))
    return Incidence(n, ones, derangement_ranks)


def _dense(ones, width: int):
    """The 0/1 rows, as one int64 array, whose one-positions are the rows of ones."""
    import numpy as np

    dense = np.zeros((len(ones), width + 1), dtype=np.int64)
    dense[np.arange(len(ones))[:, None], ones] = 1
    return dense[:, :width]


def _gram(ones, width: int) -> np.ndarray:
    """[X | ones]^T [X | ones] for the 0/1 rows X whose one-positions are ones.

    An entry equal to the width is no column.  For each ordered pair (i, j)
    of ones' position columns, one bincount over a * (width + 1) + b, a from
    column i and b from column j, counts the rows' pairs there, into one key
    array of a row count reused for every pair; the pairs that meet the width
    fill its own row and column.  Those are overwritten by the Gram row of the
    all-ones column: the column sums (the diagonal), and the row count.
    """
    import numpy as np

    side = width + 1
    gram = np.zeros(side * side, dtype=np.int64)
    keys = np.empty(len(ones), dtype=np.intp)
    for i in range(ones.shape[1]):
        for j in range(ones.shape[1]):
            np.multiply(ones[:, i], side, out=keys)
            keys += ones[:, j]
            gram += np.bincount(keys, minlength=side * side)
    gram = gram.reshape(side, side)
    sums = gram.diagonal().copy()
    sums[width] = len(ones)
    gram[width] = gram[:, width] = sums
    return gram


@lru_cache(maxsize=None)
def bordered_grams(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(G_H, G_N): the read-only Gram matrices of [H | ones] and [N | ones]."""
    inc = incidence(n)
    width = (n - 1) ** 2
    g_h, g_n = _gram(inc.ones, width), _gram(inc.ones[inc.derangement_ranks], width)
    g_h.flags.writeable = g_n.flags.writeable = False
    return g_h, g_n


def _m_columns(n: int) -> np.ndarray:
    """H's columns off W's multiples of n, which are M's, then the border (n-1)^2."""
    import numpy as np

    return np.flatnonzero(np.arange((n - 1) ** 2 + 1) % n)


def expected_gram(n: int) -> list[list[int]]:
    """(n-1)! I + (n-2)! (K x K): the closed form for H^T H."""
    import numpy as np

    k = 1 - np.eye(n - 1, dtype=np.int64)
    identity = np.eye((n - 1) ** 2, dtype=np.int64)
    return (factorial(n - 2) * np.kron(k, k) + factorial(n - 1) * identity).tolist()


def gram_check(n: int) -> tuple[bool, list[list[int]]]:
    """Compare H^T H, the block of G_H off the border, against the closed form."""
    need_degree("gram_check", n, 2)
    gram = bordered_grams(n)[0][:-1, :-1].tolist()
    return gram == expected_gram(n), gram


def pi_ab(a: int, b: int, n: int) -> tuple[int, ...]:
    """Images of the derangement sending a to n and each other i to i+b, skipping n.

    For i != a the image is i+b when that stays below n, and wraps to
    i+b+1 mod n otherwise; the image of n is whatever value remains.
    """
    if not (1 <= a <= n - 1 and 1 <= b <= n - 2):
        raise ValueError(f"need 1 <= a <= n-1 and 1 <= b <= n-2, got ({a}, {b})")
    points = list(range(1, n + 1))
    images = [
        n if i == a else i + b if i + b < n else (i + b + 1) % n for i in range(1, n)
    ]
    images.append(next(v for v in points if v not in images))
    if sorted(images) != points or any(map(int.__eq__, images, points)):
        raise AssertionError(f"pi_ab({a},{b}) is not a derangement")
    return tuple(images)


def pi_ab_submatrix(n: int):
    """Rows pi_ab of M against columns (i, i+j mod n-1), both in con lex order.

    Returns (matrix, expected, equal) where expected is K_{n-1} x I_{n-2}.
    """
    import numpy as np

    need_degree("pi_ab_submatrix", n, 3)
    pairs = [(i, j) for i in range(1, n) for j in range(1, n - 1)]
    # each pi_ab is a derangement, a row of N, and each column (i, i+j mod n-1)
    # of H is off the diagonal: so the rows and columns selected meet inside M,
    # and an entry is 1 when pi_ab sends i to i+j mod n-1, as in incidence
    images = np.array([pi_ab(a, b, n) for a, b in pairs])
    points = [i - 1 for i, _ in pairs]
    values = [(i + j - 1) % (n - 1) + 1 for i, j in pairs]
    rows = (images[:, points] == values).astype(np.int64)
    k = 1 - np.eye(n - 1, dtype=np.int64)
    expected = np.kron(k, np.eye(n - 2, dtype=np.int64))
    return rows.tolist(), expected.tolist(), bool(np.array_equal(rows, expected))


def _full_column_rank_check(n: int, which: int, columns):
    """(rank, rank == width) for X, H (which = 0) or N (1) on its columns.

    bordered_grams(n)[which] on columns is X^T X: integral, of X's rational
    rank, at most the width, which linalg.certified_rank gives exactly.  At
    degrees up to 5 X's rows are read to recompute the rank as a cross-check.
    """
    gram = bordered_grams(n)[which]
    r, _ = linalg.certified_rank(gram[columns][:, columns], len(columns))
    if n <= 5:
        inc = incidence(n)
        ones = inc.ones[inc.derangement_ranks] if which else inc.ones
        dense = _dense(ones, (n - 1) ** 2)[:, columns].tolist()
        if linalg.bareiss_rank(dense) != r:
            raise AssertionError("Gram rank disagrees with direct elimination")
    return r, r == len(columns)


@lru_cache(maxsize=None)  # read by lemmas and by kernel_membership_check
def rank_M_check(n: int) -> tuple[int, bool]:
    """rank(M) = (n-1)(n-2), read on G_N without W's rows and the border."""
    return _full_column_rank_check(n, 1, _m_columns(n)[:-1])


def rank_H_check(n: int) -> tuple[int, bool]:
    """rank(H) = (n-1)^2, read on H^T H, the block of G_H off the border."""
    return _full_column_rank_check(n, 0, range((n - 1) ** 2))


def bordered_kernel_check(n: int) -> bool:
    """Kernel of [M | ones] is spanned by v = (1, ..., 1, -(n-2)).

    G = [M | ones]^T [M | ones] is G_N off W's rows and columns.  As
    v^T G v = |[M | ones] v|^2, the exact integer product G v = 0 puts v in
    the kernel, capping the rank at the width (n-1)(n-2); a certified rank of
    G equal to the width proves the kernel is that line.  Otherwise the check
    fails: the vector misses a row, or the kernel is wider than a line.
    """
    need_degree("bordered_kernel_check", n, 3)
    columns = _m_columns(n)
    gram = bordered_grams(n)[1][columns][:, columns]
    if (gram[:, :-1].sum(axis=1) != (n - 2) * gram[:, -1]).any():
        return False
    return linalg.certified_rank(gram, len(gram) - 1)[0] == len(gram) - 1


def kernel_membership_check(n: int) -> bool:
    """H maps ker(N) into the span of W's columns, certified without sampling.

    When G_N is zero on W's diagonal entries, no row of N meets W, so ker N
    is span{e_c : c in W} plus the kernel of M; when M also has full column
    rank (rank_M_check), ker N = span{e_c : c in W}, and H e_c is column c of
    H, in the span of W's columns.  The check fails when either premise does,
    a row meeting W voiding the certificate; and a kernel wider than W's unit
    vectors holds a vector off W, which H (rank_H_check) maps outside it.
    """
    if bordered_grams(n)[1].diagonal()[:-1:n].any():
        return False
    return rank_M_check(n)[1]


def _family_span(families, n: int):
    """(supports, union, rank S, rank [S; ones], method) of an (f, m) rank array.

    Row i of S is s_i = n! x_i - m ones, for the 0/1 indicator x_i of family
    i, which has no trivial component: its supports, by class, are the
    nonzero entries of scheme.shifted_character_sums, whose Parseval check
    raises AssertionError on a repeated member, and union is the shapes they
    meet, descending.  S lies in the union's eigenspaces, so the sum of their
    dim^2 caps rank S.  Each s_i has coordinate sum 0 while ones has sum n!:
    ones lies outside span S, and span (S + ones) = span (X + ones).  Hence
    rank [S; ones] = rank [X; ones] = rank S + 1, and one certified rank of
    the 0/1 rows [X; ones], packed mod 2 straight from the families' ranks
    by linalg.certified_family_rank, against the cap plus one gives both.
    """
    gd = group_data(n)
    supports = shifted_character_sums(families, n) != 0
    met = supports.any(axis=0).nonzero()[0]
    union = tuple(sorted((gd.classes[c].cycle_type for c in met), reverse=True))
    cap = sum(dimension(shape) ** 2 for shape in union)
    with_ones, method = linalg.certified_family_rank(families, gd.order, cap + 1)
    return supports, union, with_ones - 1, with_ones, method


class BasisCheckReport(NamedTuple):
    n: int
    supports_ok: bool
    rank_shifted: int
    rank_with_ones: int
    dimension_match: bool


def basis_check(n: int) -> BasisCheckReport:
    """The (n-1)^2 shifted point-family indicators form a basis of one eigenspace.

    Checks: each indicator minus ones/n has its whole weight on the
    standard-module eigenspace; the shifted vectors are linearly independent;
    the all-ones vector is outside their span; the count matches dim^2.
    The families S_{i->j} with i, j < n are the k = 1 rows of
    scheme.constraint_families, read as (n, n, m) with the last position
    and the last value dropped, and _family_span reads their supports and
    both ranks off the families themselves.
    """
    need_degree("basis_check", n, 1, MAX_DENSE_DEGREE)
    gd = group_data(n)
    standard = (n - 1, 1)
    m = factorial(n - 1)
    families = constraint_families(n, 1).reshape(n, n, m)[:-1, :-1].reshape(-1, m)
    is_standard = [cls.cycle_type == standard for cls in gd.classes]
    supports, _, rank_shifted, rank_with_ones, _ = _family_span(families, n)
    return BasisCheckReport(
        n=n,
        supports_ok=bool((supports == is_standard).all()),
        rank_shifted=rank_shifted,
        rank_with_ones=rank_with_ones,
        dimension_match=(n - 1) ** 2 == dimension(standard) ** 2,
    )


class SetClassification(NamedTuple):
    """How one maximum independent set matches the canonical catalogue."""

    family_key: tuple[int, int] | None
    translated_to: tuple[int, int] | None
    case: int | None
    recovered_coefficient: int | None
    coordinates_ok: bool


class ClassificationReport(NamedTuple):
    n: int
    alpha: int
    total_sets: int
    records: tuple[SetClassification, ...]
    violations: tuple[int, ...]

    @property
    def all_canonical(self) -> bool:
        return not self.violations


def classify_maximum_sets(n: int, search_result=None) -> ClassificationReport:
    """Match every maximum independent set, a row of search_result.ranks, to a coset.

    A row of distinct ranks must be a coset S_{i->j}, read by
    scheme.point_family, or it is a violation; so must the set translated
    by its first member's inverse to contain the identity, whose indicator is
    written exactly in the columns of [H | ones]: stabilizing a point i < n is
    case 1 (the column (i,i), coefficient 0); stabilizing the last point is
    case 2 (every column of H, border coefficient -(n-2)).  G_H, the Gram
    matrix of [H | ones], certified of full rank once per call, shows that
    these coordinates are the only ones, so one product checks every set's
    predicted coordinates against every row of H.  A rank deficit raises
    AssertionError; a failed prediction is a violation.
    """
    import numpy as np

    if search_result is None:
        from .graphs import max_independent_sets

        search_result = max_independent_sets(n)
    gd = group_data(n)
    h = incidence(n)
    width = (n - 1) ** 2
    full, _ = linalg.certified_rank(bordered_grams(n)[0], width + 1)
    if full != width + 1:
        raise AssertionError("[H | ones] must have full column rank")
    ranks = np.asarray(search_result.ranks, dtype=np.intp)
    distinct = np.diff(np.sort(ranks, axis=1)).all(axis=1).tolist()
    # ranks of members[0]^-1 p, over the members p of each set
    translated = gd.compose_ranks(gd.inv[ranks[:, :1]], ranks)
    # column k: set k's predicted coordinates in [H | ones], 0 if it has none
    coordinates = np.zeros((width + 1, len(ranks)), dtype=np.int64)
    keys = []
    for k, row in enumerate(ranks):
        family_key = point_family(gd.images[row]) if distinct[k] else None
        fixed = point_family(gd.images[translated[k]]) if family_key else None
        case = None if fixed is None else 1 if fixed[0] == fixed[1] < n else 2
        if case == 1:
            coordinates[(fixed[0] - 1) * n, k] = 1  # W's column (i, i)
        elif case == 2:
            coordinates[:, k] = [1] * width + [-(n - 2)]
        keys.append((family_key, fixed, case))
    indicators = np.zeros((len(ranks), gd.order), dtype=np.int64)
    indicators[np.arange(len(ranks))[:, None], translated] = 1
    bordered = np.ones((gd.order, width + 1), dtype=np.int64)
    bordered[:, :width] = _dense(h.ones, width)  # [H | ones] as one 0/1 array
    matches = ((bordered @ coordinates).T == indicators).all(axis=1).tolist()
    records = tuple(
        SetClassification(key, fixed, case, 0 if case == 1 else -(n - 2), True)
        if case and ok
        else SetClassification(key, fixed, None, None, False)
        for (key, fixed, case), ok in zip(keys, matches)
    )
    return ClassificationReport(
        n=n,
        alpha=search_result.alpha,
        total_sets=len(records),
        records=records,
        violations=tuple(k for k, r in enumerate(records) if not r.coordinates_ok),
    )


class DepthReport(NamedTuple):
    """Span dimensions of the shifted constraint-family indicators vs eigenspaces."""

    n: int
    t: int
    family_count: int
    module_dim_sums: dict[int, int]
    span_rank_shifted: int
    span_rank_with_ones: int
    rank_method: str
    support_union: tuple[Partition, ...]
    supports_within_depth: dict[int, bool]
    agreement: dict[str, bool]


def depth_conjecture_dims(n: int, t: int = 1) -> DepthReport:
    """Compare the span of the shifted (t+1)-constraint families with eigenspaces.

    Families are all S_A for constraint sets A of size t+1; each indicator is
    shifted by its density so the trivial component vanishes.  Both depth
    readings (<= t and <= t+1) are reported, along with the exact rank of the
    span with and without the all-ones vector adjoined.

    The families are the rows of scheme.constraint_families(n, t+1), and
    _family_span, basis_check's route too, reads their supports, the union
    of those, and both ranks, certified from the 0/1 indicator rows against
    the dimension of the union.
    """
    if not 1 <= t <= 2:
        raise ValueError(f"need t in {{1, 2}}, got {t}")
    need_degree("depth_conjecture_dims", n, 1, MAX_DENSE_DEGREE)
    if t + 1 >= n:
        raise ValueError("constraint sets must leave at least one free point")
    families = constraint_families(n, t + 1)
    _, union, span_rank_shifted, span_rank_with_ones, method = _family_span(
        families, n
    )
    module_dim_sums = {}
    for depth in (t, t + 1):
        module_dim_sums[depth] = sum(
            dimension(shape) ** 2
            for shape in partitions_of(n)
            if partition_depth(shape) <= depth
        )
    supports_within = {
        depth: all(partition_depth(shape) <= depth for shape in union)
        for depth in (t, t + 1)
    }
    agreement = {}
    for depth in (t, t + 1):
        total = module_dim_sums[depth]
        agreement[f"shifted_equals_depth_{depth}_sum_minus_top"] = (
            span_rank_shifted == total - 1
        )
        agreement[f"with_ones_equals_depth_{depth}_sum"] = (
            span_rank_with_ones == total
        )
    return DepthReport(
        n=n,
        t=t,
        family_count=len(families),
        module_dim_sums=module_dim_sums,
        span_rank_shifted=span_rank_shifted,
        span_rank_with_ones=span_rank_with_ones,
        rank_method=f"{method}/{method}",
        support_union=union,
        supports_within_depth=supports_within,
        agreement=agreement,
    )
