"""Exact verification of the incidence-matrix lemmas and the classification.

H is the n! x (n-1)^2 matrix whose (pi, (i,j)) entry is 1 when pi(i) = j,
both coordinates running over 1..n-1.  Its Gram matrix has a closed form; its
derangement rows split into a full-column-rank block M and a zero block; the
kernel of [M | ones] is one-dimensional.  Together these pin down every
maximum independent set of the derangement graph as a point-stabilizing
family, which classify_maximum_sets re-derives set by set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import linalg
from .chartab import dimension
from .errors import DegreeRangeError
from .graphs import Family, all_point_families, family, max_independent_sets
from .permgroup import (
    Partition,
    Permutation,
    compose,
    inverse,
    partition_depth,
    partitions_of,
    rank_permutation,
)
from .scheme import (
    MAX_DENSE_DEGREE,
    class_quadratic_forms,
    group_data,
    module_quadratic_form,
)

MAX_INCIDENCE_DEGREE = 7

rank = linalg.bareiss_rank


@dataclass(frozen=True)
class IncidenceH:
    """Position-value incidence matrix over 1..n-1, rows in permutation-rank order."""

    n: int
    columns: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]

    def column(self, i: int, j: int) -> list[int]:
        idx = self.columns.index((i, j))
        return [row[idx] for row in self.rows]


@lru_cache(maxsize=None)
def build_H(n: int) -> IncidenceH:
    if not 2 <= n <= MAX_INCIDENCE_DEGREE:
        raise DegreeRangeError(
            f"incidence matrices are supported for 2 <= n <= {MAX_INCIDENCE_DEGREE}"
        )
    columns = tuple((i, j) for i in range(1, n) for j in range(1, n))
    width = (n - 1) ** 2
    rows = []
    for images in itertools.permutations(range(1, n + 1)):
        row = [0] * width
        for i in range(1, n):
            j = images[i - 1]
            if j <= n - 1:
                row[(i - 1) * (n - 1) + (j - 1)] = 1
        rows.append(tuple(row))
    return IncidenceH(n=n, columns=columns, rows=tuple(rows))


def expected_gram(n: int) -> list[list[int]]:
    """(n-1)! I + (n-2)! (K x K): the closed form for H^T H."""
    k = linalg.complete_graph_matrix(n - 1)
    kk = linalg.kron(k, k)
    width = (n - 1) ** 2
    return [
        [
            factorial(n - 2) * kk[a][b] + (factorial(n - 1) if a == b else 0)
            for b in range(width)
        ]
        for a in range(width)
    ]


def gram_check(n: int) -> tuple[bool, list[list[int]]]:
    """Compare H^T H, accumulated row by row, against the closed form."""
    h = build_H(n)
    width = (n - 1) ** 2
    gram = [[0] * width for _ in range(width)]
    for row in h.rows:
        ones = [idx for idx, v in enumerate(row) if v]
        for a in ones:
            for b in ones:
                gram[a][b] += 1
    return gram == expected_gram(n), gram


@dataclass(frozen=True)
class BlockDecomposition:
    """Derangement rows of H split by diagonal vs off-diagonal columns.

    N holds the full derangement rows, M their off-diagonal part (their
    diagonal part is zero), and W the diagonal columns over all of S(n).
    """

    n: int
    derangement_ranks: tuple[int, ...]
    diagonal_columns: tuple[tuple[int, int], ...]
    off_diagonal_columns: tuple[tuple[int, int], ...]
    N: tuple[tuple[int, ...], ...]
    M: tuple[tuple[int, ...], ...]
    W: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def blocks(n: int) -> BlockDecomposition:
    h = build_H(n)
    diag = tuple(col for col in h.columns if col[0] == col[1])
    off = tuple(col for col in h.columns if col[0] != col[1])
    diag_idx = [h.columns.index(c) for c in diag]
    off_idx = [h.columns.index(c) for c in off]
    der_ranks = []
    for r, images in enumerate(itertools.permutations(range(1, n + 1))):
        if all(images[i] != i + 1 for i in range(n)):
            der_ranks.append(r)
    N = tuple(h.rows[r] for r in der_ranks)
    M = tuple(tuple(row[c] for c in off_idx) for row in N)
    W = tuple(tuple(row[c] for c in diag_idx) for row in h.rows)
    for row in N:
        if any(row[c] for c in diag_idx):
            raise AssertionError("a derangement row meets a diagonal column")
    for row in M:
        if sum(row) != n - 2:
            raise AssertionError("an off-diagonal derangement row must have n-2 ones")
    identity_row = h.rows[0]
    if [identity_row[c] for c in diag_idx] != [1] * (n - 1) or any(
        identity_row[c] for c in off_idx
    ):
        raise AssertionError("identity row must be all ones on the diagonal block")
    return BlockDecomposition(
        n=n,
        derangement_ranks=tuple(der_ranks),
        diagonal_columns=diag,
        off_diagonal_columns=off,
        N=N,
        M=M,
        W=W,
    )


def pi_ab(a: int, b: int, n: int) -> Permutation:
    """The derangement sending a to n and every other i to i+b, skipping n.

    For i != a the image is i+b when that stays below n, and wraps to
    i+b+1 mod n otherwise; the image of n is whatever value remains.
    """
    if not (1 <= a <= n - 1 and 1 <= b <= n - 2):
        raise ValueError(f"need 1 <= a <= n-1 and 1 <= b <= n-2, got ({a}, {b})")
    images = [0] * n
    used = set()
    for i in range(1, n):
        if i == a:
            value = n
        elif i + b < n:
            value = i + b
        else:
            value = (i + b + 1) % n
        images[i - 1] = value
        used.add(value)
    images[n - 1] = next(v for v in range(1, n + 1) if v not in used)
    p = Permutation(tuple(images))
    if any(p.images[i] == i + 1 for i in range(n)):
        raise AssertionError(f"pi_ab({a},{b}) has a fixed point")
    return p


def pi_ab_submatrix(n: int):
    """Rows pi_ab of M against columns (i, i+j mod n-1), both in con lex order.

    Returns (matrix, expected, equal) where expected is K_{n-1} x I_{n-2}.
    """
    dec = blocks(n)
    column_order = []
    for i in range(1, n):
        for j in range(1, n - 1):
            jp = (i + j - 1) % (n - 1) + 1
            column_order.append(dec.off_diagonal_columns.index((i, jp)))
    h = build_H(n)
    off_idx = [h.columns.index(c) for c in dec.off_diagonal_columns]
    rows = []
    for a in range(1, n):
        for b in range(1, n - 1):
            p = pi_ab(a, b, n)
            full = h.rows[rank_permutation(p)]
            m_row = [full[c] for c in off_idx]
            rows.append([m_row[c] for c in column_order])
    expected = linalg.kron(
        linalg.complete_graph_matrix(n - 1), linalg.identity_matrix(n - 2)
    )
    return rows, expected, rows == expected


def rank_M_check(n: int) -> tuple[int, bool]:
    """rank(M) = (n-1)(n-2), via the Gram matrix of M's columns.

    M^T M is integral and has the same rational rank as M; at degrees up to 5
    the rank is recomputed from M directly as a cross-check.
    """
    dec = blocks(n)
    cols = linalg.transpose(dec.M)
    gram = linalg.gram_matrix(cols)
    r = linalg.bareiss_rank(gram)
    if n <= 5:
        direct = linalg.bareiss_rank([list(row) for row in dec.M])
        if direct != r:
            raise AssertionError("Gram rank disagrees with direct elimination")
    return r, r == (n - 1) * (n - 2)


def rank_H_check(n: int) -> tuple[int, bool]:
    """rank(H) = (n-1)^2, via the Gram matrix (with a direct check at small n)."""
    _, gram = gram_check(n)
    r = linalg.bareiss_rank(gram)
    if n <= 5:
        h = build_H(n)
        direct = linalg.bareiss_rank([list(row) for row in h.rows])
        if direct != r:
            raise AssertionError("Gram rank disagrees with direct elimination")
    return r, r == (n - 1) ** 2


def bordered_kernel_check(n: int):
    """Kernel of [M | ones] is spanned by (1, ..., 1, -(n-2)).

    The kernel is computed from the bordered Gram matrix, then every basis
    vector is verified against the actual bordered matrix, exactly.
    """
    dec = blocks(n)
    bordered = [list(row) + [1] for row in dec.M]
    cols = linalg.transpose(bordered)
    gram = linalg.gram_matrix(cols)
    basis = linalg.kernel_basis(gram)
    for vec in basis:
        if any(sum(a * v for a, v in zip(row, vec)) != 0 for row in bordered):
            raise AssertionError("Gram kernel vector is not in the matrix kernel")
    width = (n - 1) * (n - 2)
    expected = [1] * width + [-(n - 2)]
    ok = len(basis) == 1 and _proportional(basis[0], expected)
    return basis, ok


def _proportional(u, v) -> bool:
    pairs = [(a, b) for a, b in zip(u, v) if a or b]
    if not pairs or any((a == 0) != (b == 0) for a, b in pairs):
        return False
    a0, b0 = pairs[0]
    return all(a * b0 == b * a0 for a, b in pairs)


def kernel_membership_check(n: int, trials: int = 20, seed: int = 987) -> bool:
    """Random vectors in ker(N) are mapped by H into the span of W's columns.

    ker(N) is found through N^T N (same kernel over the rationals), each basis
    vector re-verified against N itself; membership of H y in the column span
    of W is a rank comparison of bordered Gram matrices.
    """
    h = build_H(n)
    dec = blocks(n)
    gram = linalg.gram_matrix(linalg.transpose(dec.N))
    basis = linalg.kernel_basis(gram)
    if len(basis) != (n - 1) ** 2 - (n - 1) * (n - 2):
        raise AssertionError("unexpected kernel dimension for the derangement rows")
    for vec in basis:
        if any(sum(a * v for a, v in zip(row, vec)) != 0 for row in dec.N):
            raise AssertionError("Gram kernel vector is not in ker(N)")
    w_cols = linalg.transpose(dec.W)
    w_gram = linalg.gram_matrix(w_cols)
    w_rank = linalg.bareiss_rank(w_gram)
    rng = random.Random(seed)
    h_rows = [list(row) for row in h.rows]
    for _ in range(trials):
        coeffs = [rng.randint(-9, 9) for _ in basis]
        y = [
            sum(c * vec[k] for c, vec in zip(coeffs, basis))
            for k in range(len(basis[0]))
        ]
        hy = [sum(a * b for a, b in zip(row, y)) for row in h_rows]
        bordered = w_cols + [hy]
        bordered_rank = linalg.bareiss_rank(linalg.gram_matrix(bordered))
        if bordered_rank != w_rank:
            return False
    return True


def module_support(members, n: int, shift: Fraction | None = None) -> dict[Partition, Fraction]:
    """Exact squared norm of each eigenspace component of the shifted indicator.

    The vector is the 0/1 indicator of the member set minus shift * ones
    (default shift 1/n).  Because the idempotents are symmetric, each
    component's squared norm equals the quadratic form x^T E x, which only
    needs the pair counts of the member set; nothing of size n! is built.
    """
    if n > MAX_DENSE_DEGREE:
        raise DegreeRangeError(f"module support needs degree at most {MAX_DENSE_DEGREE}")
    if shift is None:
        shift = Fraction(1, n)
    gd = group_data(n)
    members = list(members)
    size = len(members)
    vec = [0] * gd.order
    for p in members:
        r = gd.rank_of(p)
        if vec[r]:
            raise ValueError(f"repeated member {p}")
        vec[r] = 1
    qforms = class_quadratic_forms(vec, n)
    order = gd.order
    adjusted = [
        q - 2 * shift * cls.size * size + shift * shift * cls.size * order
        for q, cls in zip(qforms, gd.classes)
    ]
    out: dict[Partition, Fraction] = {}
    total = Fraction(0)
    for cls in gd.classes:
        shape = cls.cycle_type
        value = module_quadratic_form(shape, adjusted, n)
        out[shape] = value
        total += value
    expected_norm = size - 2 * shift * size + shift * shift * order
    if total != expected_norm:
        raise AssertionError("eigenspace norms do not add up to the vector norm")
    return out


def support_set(supports: dict[Partition, Fraction]) -> tuple[Partition, ...]:
    return tuple(shape for shape, value in supports.items() if value != 0)


@dataclass(frozen=True)
class BasisCheckReport:
    n: int
    supports_ok: bool
    rank_shifted: int
    rank_with_ones: int
    dimension_match: bool

    @property
    def ok(self) -> bool:
        return (
            self.supports_ok
            and self.rank_shifted == (self.n - 1) ** 2
            and self.rank_with_ones == (self.n - 1) ** 2 + 1
            and self.dimension_match
        )


def basis_check(n: int) -> BasisCheckReport:
    """The (n-1)^2 shifted point-family indicators form a basis of one eigenspace.

    Checks: each indicator minus ones/n has its whole weight on the
    standard-module eigenspace; the shifted vectors are linearly independent;
    the all-ones vector is outside their span; the count matches dim^2.
    """
    if n > MAX_DENSE_DEGREE:
        raise DegreeRangeError(f"basis check needs degree at most {MAX_DENSE_DEGREE}")
    gd = group_data(n)
    standard = (n - 1, 1)
    supports_ok = True
    vectors = []
    for i in range(1, n):
        for j in range(1, n):
            fam = family([(i, j)], n)
            supports = module_support(fam.members, n)
            if support_set(supports) != (standard,):
                supports_ok = False
            indicator = [0] * gd.order
            for p in fam.members:
                indicator[gd.rank_of(p)] = 1
            vectors.append([n * v - 1 for v in indicator])  # scaled shift by ones/n
    rank_shifted = linalg.bareiss_rank(vectors)
    with_ones = vectors + [[1] * gd.order]
    rank_with_ones = linalg.bareiss_rank(with_ones)
    dimension_match = (n - 1) ** 2 == dimension(standard) ** 2
    return BasisCheckReport(
        n=n,
        supports_ok=supports_ok,
        rank_shifted=rank_shifted,
        rank_with_ones=rank_with_ones,
        dimension_match=dimension_match,
    )


@dataclass(frozen=True)
class SetClassification:
    """How one maximum independent set matches the canonical catalogue."""

    family_key: tuple[int, int] | None
    translated_to: tuple[int, int] | None
    case: int | None
    recovered_coefficient: Fraction | None
    coordinates_ok: bool


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    alpha: int
    total_sets: int
    records: tuple[SetClassification, ...]
    violations: tuple[int, ...]

    @property
    def all_canonical(self) -> bool:
        return not self.violations


def classify_maximum_sets(n: int, search_result=None) -> ClassificationReport:
    """Match every maximum independent set against the point families.

    Each set is also translated to contain the identity and its indicator is
    solved exactly against [H | ones]: stabilizing a point below n lands in
    case 1 (a single diagonal column, coefficient 0); stabilizing the last
    point lands in case 2 with ones coordinates and border coefficient
    -(n-2).
    """
    if search_result is None:
        search_result = max_independent_sets(n)
    gd = group_data(n)
    h = build_H(n)
    families = {
        key: frozenset(gd.rank_of(p) for p in fam.members)
        for key, fam in all_point_families(n).items()
    }
    h_with_ones = [list(row) + [1] for row in h.rows]
    diag_cols = {h.columns.index((i, i)): i for i in range(1, n)}
    records = []
    violations = []
    for idx, members in enumerate(search_result.sets):
        ranks = frozenset(gd.rank_of(p) for p in members)
        family_key = next(
            (key for key, fam in families.items() if fam == ranks), None
        )
        if family_key is None:
            violations.append(idx)
            records.append(SetClassification(None, None, None, None, False))
            continue
        g_inv = inverse(members[0])
        translated = sorted(compose(g_inv, p).images for p in members)
        translated_ranks = [gd.index[images] for images in translated]
        fixed = next(
            key
            for key, fam in families.items()
            if fam == frozenset(translated_ranks)
        )
        indicator = [0] * gd.order
        for r in translated_ranks:
            indicator[r] = 1
        solution = linalg.solve(h_with_ones, indicator)
        if solution is None:
            violations.append(idx)
            records.append(SetClassification(family_key, fixed, None, None, False))
            continue
        coefficient = solution[-1]
        body = solution[:-1]
        if coefficient == 0:
            case = 1
            expect_col = h.columns.index((fixed[0], fixed[0]))
            ok = (
                fixed[0] == fixed[1] != n
                and all(
                    (v == 1) if k == expect_col else (v == 0)
                    for k, v in enumerate(body)
                )
            )
        else:
            case = 2
            ok = (
                fixed == (n, n)
                and coefficient == Fraction(-(n - 2))
                and all(v == 1 for v in body)
            )
        if not ok:
            violations.append(idx)
        records.append(
            SetClassification(family_key, fixed, case, coefficient, ok)
        )
    return ClassificationReport(
        n=n,
        alpha=search_result.alpha,
        total_sets=len(search_result.sets),
        records=tuple(records),
        violations=tuple(violations),
    )


def enumerate_constraint_sets(n: int, k: int) -> list[tuple[tuple[int, int], ...]]:
    """All sets of k position-value constraints with distinct positions and values."""
    out = []
    for xs in itertools.combinations(range(1, n + 1), k):
        for ys in itertools.permutations(range(1, n + 1), k):
            out.append(tuple(sorted(zip(xs, ys))))
    return out


@dataclass(frozen=True)
class DepthReport:
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
    """
    if not 1 <= t <= 2:
        raise ValueError(f"need t in {{1, 2}}, got {t}")
    if n > MAX_DENSE_DEGREE:
        raise DegreeRangeError(f"degree at most {MAX_DENSE_DEGREE} supported")
    if t + 1 >= n:
        raise ValueError("constraint sets must leave at least one free point")
    gd = group_data(n)
    order = gd.order
    constraint_sets = enumerate_constraint_sets(n, t + 1)
    size = factorial(n - (t + 1))
    shift = Fraction(size, order)
    union: set[Partition] = set()
    rows = []
    for pairs in constraint_sets:
        fam = family(pairs, n)
        if fam.size != size:
            raise AssertionError(f"family {pairs} has {fam.size} members, not {size}")
        supports = module_support(fam.members, n, shift=shift)
        union.update(support_set(supports))
        indicator = [0] * order
        for p in fam.members:
            indicator[gd.rank_of(p)] = 1
        rows.append([order * v - size for v in indicator])  # scaled by n!
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
    # The observed supports prove the span lies inside those eigenspaces, so
    # their total dimension is a certified cap for the modular rank bound.
    union_dim = sum(dimension(shape) ** 2 for shape in union)
    span_rank_shifted, method = linalg.certified_rank(rows, upper_bound=union_dim)
    with_ones = rows + [[1] * order]
    span_rank_with_ones, method_ones = linalg.certified_rank(
        with_ones, upper_bound=union_dim + 1
    )
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
        family_count=len(constraint_sets),
        module_dim_sums=module_dim_sums,
        span_rank_shifted=span_rank_shifted,
        span_rank_with_ones=span_rank_with_ones,
        rank_method=f"{method}/{method_ones}",
        support_union=tuple(sorted(union, reverse=True)),
        supports_within_depth=supports_within,
        agreement=agreement,
    )
