"""The conjugacy-class association scheme of a symmetric group.

The scheme on S(n) has one class per cycle type; the common eigenspaces are
the isotypic components of the group algebra, one per partition of n, with
dimension dim(shape)^2.  Their eigenvalues come from chartab.union_spectrum,
which ratio_bound reads.

A family's weight on each eigenspace, x^T E x for its indicator x, is read
from integer counts of ordered member pairs by the cycle type of p^-1 q,
paired with the character: families are rank arrays, and only the identity
check takes 0/1 vectors indexed by rank.  Nothing here touches floating point.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .chartab import character_table, union_spectrum
from .errors import FamilyValidationError
from .permgroup import (
    MAX_DENSE_DEGREE,
    Partition,
    conjugacy_classes,
    cycle_type_of_images,
    first_agreement_violation,
    image_rows,
    image_table,
    need_degree,
    one_line,
    rank_images,
)

if TYPE_CHECKING:
    from fractions import Fraction

MAX_GROUP_DEGREE = 7
# Pairs of permutations classed per block by _class_counts.
BLOCK_PAIRS = 1 << 15


class GroupData:
    """The class scheme of one symmetric group, as rank-indexed NumPy arrays.

    images is the shared permgroup.image_table, inv[r] the rank of the
    inverse of the rank-r permutation and type_of[r] the index of its
    conjugacy class in the shared partition order, from the cycle walk
    permgroup.cycle_type_of_images.  Products of permutations come from one
    composition kernel (permgroup.rank_images ranks the products and the
    inverses), which mult reads.  The class of p^-1 q comes from the relation
    table alone, so the degree stops at MAX_GROUP_DEGREE, where that table is
    5040^2 bytes.
    """

    def __init__(self, n: int):
        import numpy as np

        need_degree("GroupData", n, 1, MAX_GROUP_DEGREE)
        self.n = n
        self.order = factorial(n)
        self.images = image_table(n)
        self.inv = rank_images(np.argsort(self.images, axis=1).T)
        self.classes = conjugacy_classes(n)
        self.class_index = {cls.cycle_type: k for k, cls in enumerate(self.classes)}
        walked = map(cycle_type_of_images, (self.images + 1).tolist())
        self.type_of = np.array([self.class_index[c] for c in walked], dtype=np.int8)
        self._mult: list[list[int]] | None = None

    def compose_ranks(self, a, b):
        """Ranks of perm(a) composed with perm(b), for rank arrays that broadcast.

        The result has the broadcast shape of a and b, so a column against a
        row, [[r] for r in a] with b, gives every pair.  Products are formed
        on images by one gather, images[a][images[b]] pair by pair, and ranked
        by rank_images, in one pass of about 2n + 8 bytes a pair.
        """
        import numpy as np

        a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
        # plane k holds perm(a)(perm(b)(k)), 0-based, from one (..., n) gather
        return rank_images(
            np.moveaxis(self.images[a[..., None], self.images[b]], -1, 0)
        )

    @cached_property
    def relations(self):
        """The read-only (n!, n!) int8 table of the class of perm(a)^-1 perm(b).

        Row 0 is type_of.  For an adjacent transposition s, (a s)^-1 b =
        s a^-1 b is conjugate to a^-1 (b s), so row rank(a s) is row a read
        through b -> rank(b s).  Every rank c but the identity's has a first
        descent i, c(i) > c(i+1); swapping it gives c s_i, of lower rank, so
        the rows fill in rank order, one gather each.  Built on first use:
        about 2 ms and 518,400 bytes at n = 6, about 30 ms and 24 MiB at n = 7.
        """
        import numpy as np

        planes = self.images.T
        # swap[i][b] = rank of perm(b) s_i: images i and i+1 of b exchanged
        swap = np.empty((self.n - 1, self.order), dtype=np.intp)
        for i in range(self.n - 1):
            order = np.arange(self.n)
            order[[i, i + 1]] = i + 1, i
            swap[i] = rank_images(planes[order])
        # each rank c > 0 in turn: its first i with c(i) > c(i+1), and c s_i
        later = np.arange(1, self.order)
        descent = (np.diff(self.images[1:], axis=1, append=self.n) < 0).argmax(1)
        parents = swap[descent, later]
        table = np.empty((self.order, self.order), dtype=np.int8)
        table[0] = self.type_of
        for c, parent, i in zip(later.tolist(), parents.tolist(), descent.tolist()):
            table[c] = table[parent][swap[i]]
        table.flags.writeable = False
        return table

    def quotient_classes(self, a, b):
        """Class index of perm(a)^-1 perm(b), for rank arrays that broadcast.

        One flat take at a * n! + b on the raveled relation table.
        """
        import numpy as np

        flat = np.asarray(a, np.intp) * self.order + np.asarray(b, np.intp)
        return np.take(self.relations.ravel(), flat)

    @property
    def mult(self) -> list[list[int]]:
        """mult[a][b] = rank of (perm a composed with perm b)."""
        if self._mult is None:
            need_degree("GroupData.mult", self.n, 1, MAX_DENSE_DEGREE)
            shared = list(range(self.order))  # one int object per rank
            self._mult = [
                list(map(shared.__getitem__, row.tolist()))
                for row in self.compose_ranks([[r] for r in shared], shared)
            ]
        return self._mult


@lru_cache(maxsize=None)
def group_data(n: int) -> GroupData:
    return GroupData(n)


def ratio_bound(n: int, t: int = 0) -> Fraction:
    """Hoffman bound n!/(1 - valency/least) on independent sets, exactly."""
    from fractions import Fraction

    need_degree("ratio_bound", n, 2)
    spectrum = union_spectrum(n, t)
    tau, _ = spectrum.least()
    if tau >= 0:
        raise AssertionError("least eigenvalue should be negative")
    return Fraction(factorial(n)) / (1 - Fraction(spectrum.valency, tau))


def _class_counts(rank_lists, n: int):
    """Ordered member pairs (p, q) of each family counted by the class of p^-1 q.

    One int64 row per family of distinct ranks, in class order, the diagonal
    p = q in the identity class.  Families of one size m are read in blocks
    of F families by R member rows by all m members, F * R * m near
    BLOCK_PAIRS, and each block is counted by one bincount, class C of the
    block's family f at label f * k + C for the k classes.  This is the one
    loop over blocks of pairs: quotient_classes takes each block whole.
    """
    import numpy as np

    gd = group_data(n)
    k = len(gd.classes)
    out = np.zeros((len(rank_lists), k), dtype=np.int64)
    by_size: dict[int, list[int]] = {}
    for f, ranks in enumerate(rank_lists):
        by_size.setdefault(len(ranks), []).append(f)
    for m, batch in by_size.items():
        ranks = np.array([rank_lists[f] for f in batch], dtype=np.intp)
        ranks = ranks.reshape(len(batch), m)
        rows = max(1, min(m, BLOCK_PAIRS // max(1, m)))
        step = max(1, BLOCK_PAIRS // (rows * max(1, m)))
        # int32 labels: each block's sum takes half the bytes of intp
        offsets = np.arange(0, k * step, k, dtype=np.int32)[:, None, None]
        for start in range(0, len(batch), step):
            block = ranks[start : start + step]
            labels, members = offsets[: len(block)], block[:, None]
            for r in range(0, m, rows):
                classes = gd.quotient_classes(block[:, r : r + rows, None], members)
                classes = (classes + labels).ravel()
                counts = np.bincount(classes, minlength=k * len(block))
                out[batch[start : start + step]] += counts.reshape(-1, k)
    return out


def class_quadratic_forms(vectors, n: int) -> list[list[int]]:
    """x^T A_C x for every class C, one list of integers per 0/1 vector.

    For a 0/1 vector x with support S, x^T A_C x counts the ordered pairs
    (p, q) of S with p^-1 q in C, the diagonal p = q in the identity class:
    _class_counts of the supports.  A vector whose length is not n!, or with
    an entry that is not the int (or bool) 0 or 1, raises ValueError.
    """
    import numpy as np

    gd = group_data(n)
    vectors = list(vectors)
    for x in vectors:
        if len(x) != gd.order:
            raise ValueError(f"vector length {len(x)} != {gd.order}")
        if not set(map(type, x)) <= {int, bool} or not set(x) <= {0, 1}:
            raise ValueError("class quadratic forms need 0/1 vectors")
    return _class_counts([np.flatnonzero(x) for x in vectors], n).tolist()


def _character_sums(qforms, sizes, n: int):
    """chi_shape . q for every row q of class counts, as int64 rows in class order.

    The rows of the character table follow the class order, so column j of
    the result belongs to shape j.  x^T E x = dim/n! * chi . q is the squared
    norm of E x, so a negative sum raises AssertionError.  So do sums that
    break Parseval, sum over shapes of dim * chi . q = n! |x|^2, where
    |x|^2 = sizes[f] for the 0/1 vector of row f (a repeated member breaks it).
    """
    import numpy as np

    table = np.array(character_table(n).values, dtype=np.int64)
    sums = np.asarray(qforms, dtype=np.int64) @ table.T
    if (sums < 0).any():
        raise AssertionError("idempotent quadratic form must be nonnegative")
    # the identity class comes last, where each character is its dimension
    if not np.array_equal(sums @ table[:, -1], factorial(n) * np.asarray(sizes)):
        raise AssertionError("eigenspace norms do not add up to the vector norm")
    return sums


def shifted_character_sums(rank_lists, n: int):
    """chi . q of each family's density-shifted indicator, as int64 rows.

    A family is a sequence of m distinct ranks.  Its indicator x less m/n!
    times ones has no trivial component and every other component of x, so
    row f holds, in class order, n!/dim times each component's squared norm:
    chi . q for the _class_counts q of the family, and 0 for the trivial
    shape.  The sums pass through _character_sums and its checks.
    """
    gd = group_data(n)
    counts = _class_counts(rank_lists, n)
    out = _character_sums(counts, [len(ranks) for ranks in rank_lists], n)
    out[:, gd.class_index[(n,)]] = 0
    return out


def fundamental_identity_check(pairs, n: int) -> list[tuple[Fraction, Fraction]]:
    """Both sides of the scheme identity for every 0/1 (x, y) of pairs, in order.

    Left: sum over classes (including the identity class) of
    x^T A_C x * y^T A_C y / (n! * |C|).  Right: sum over partitions of
    x^T E x * y^T E y / dim^2, which is (chi . q_x)(chi . q_y) / n!^2 since
    x^T E x = dim/n! * chi . q_x.  Both sides are one integer sum over the
    two form vectors, divided by n!^2, with the products in Python ints.  The
    iterable is read one pair at a time, so the vectors held at once do not
    grow with the number of pairs.
    """
    from fractions import Fraction

    gd = group_data(n)
    scale = gd.order * gd.order
    # 1/(n! |C|) = (n!/|C|) / n!^2
    weights = [gd.order // cls.size for cls in gd.classes]
    identity = gd.class_index[(1,) * n]
    sides = []
    for x, y in pairs:
        qx, qy = forms = class_quadratic_forms([x, y], n)
        ex, ey = _character_sums(forms, [qx[identity], qy[identity]], n).tolist()
        lhs = sum(a * b * w for a, b, w in zip(qx, qy, weights))
        sides.append((Fraction(lhs, scale), Fraction(sum(map(mul, ex, ey)), scale)))
    return sides


def _validated_rows(family, t, want_clique):
    """family as one (m, k) array of 1-based images, once its rows and pairs pass."""
    rows = image_rows(family)
    bad = first_agreement_violation(rows, t, want_clique)
    if bad is None:
        return rows
    p, q, a = one_line(rows[bad[0]]), one_line(rows[bad[1]]), bad[2]
    if a == rows.shape[1]:
        raise FamilyValidationError(f"repeated member {p}")
    kind = "a clique" if want_clique else "independent"
    raise FamilyValidationError(
        f"not {kind} at threshold {t}: {p} and {q} agree on {a} points"
    )


class CliqueCocliqueReport(NamedTuple):
    """Outcome of the clique-coclique product bound for one clique/coclique pair."""

    n: int
    t: int
    clique_size: int
    independent_size: int
    product: int
    bound: int
    tight: bool
    # For tight pairs up to MAX_GROUP_DEGREE: per nontrivial partition, whether
    # the projections of the two characteristic vectors are nonzero.  At most
    # one of each pair may be nonzero when the bound is met with equality.
    supports: tuple[tuple[Partition, bool, bool], ...] | None
    corollary_ok: bool | None


def clique_coclique_check(
    clique, independent, n: int, t: int = 0
) -> CliqueCocliqueReport:
    """Validate both families and evaluate |C| * |S| <= n! with exact arithmetic.

    Each family is an (m, n) array of 1-based images, read by
    permgroup.image_rows: another shape, or a row that is no permutation,
    raises ValueError.  Both families' pairs are validated before their
    degrees, and a degree other than n raises ValueError.  A tight pair's
    supports, up to MAX_GROUP_DEGREE, are the nonzero entries of
    shifted_character_sums on the families' ranks (the shift moves only the
    trivial entry, left out).
    """
    clique = _validated_rows(clique, t, want_clique=True)
    independent = _validated_rows(independent, t, want_clique=False)
    for rows in (clique, independent):
        if len(rows) and rows.shape[1] != n:
            raise ValueError(
                f"member {one_line(rows[0])} has degree {rows.shape[1]}, not {n}"
            )
    product = len(clique) * len(independent)
    bound = factorial(n)
    tight = product == bound
    supports = None
    corollary_ok = None
    if tight and n <= MAX_GROUP_DEGREE:
        gd = group_data(n)
        ranks = [rank_images(rows.T - 1) for rows in (clique, independent)]
        ex, ey = shifted_character_sums(ranks, n).tolist()
        rows = [
            (cls.cycle_type, a > 0, b > 0)
            for cls, a, b in zip(gd.classes, ex, ey)
            if cls.cycle_type != (n,)
        ]
        corollary_ok = not any(a and b for _, a, b in rows)
        supports = tuple(rows)
    return CliqueCocliqueReport(
        n=n,
        t=t,
        clique_size=len(clique),
        independent_size=len(independent),
        product=product,
        bound=bound,
        tight=tight,
        supports=supports,
        corollary_ok=corollary_ok,
    )

