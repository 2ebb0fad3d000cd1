"""The image arrays of symmetric groups and their conjugacy-class scheme.

The image-array layer: every permutation of 1..n as one row of the cached
(n!, n) image table, in lexicographic rank order; the ranking of image rows,
the one row check, the one agreement count and pairwise validator, the one
coset test and the constraint families S_A, by rank and as image rows.
Everything that holds permutations in NumPy arrays reads them from here,
so permgroup stays pure Python for the NumPy-free commands.

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

import itertools
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
    need_degree,
    one_line,
)

if TYPE_CHECKING:
    from fractions import Fraction

MAX_GROUP_DEGREE = 7
# rank_images counts in int64, which holds every rank below 20! but not 21!.
MAX_RANK_DEGREE = 20
# Pairs of permutations classed per block by _class_counts.
BLOCK_PAIRS = 1 << 15
# Member pairs compared per block by first_agreement_violation.
AGREEMENT_BLOCK_PAIRS = 1 << 16


@lru_cache(maxsize=None)
def image_table(n: int):
    """0-based images of every permutation of 1..n, one read-only int8 row per rank."""
    import numpy as np

    table = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8,
        count=n * factorial(n),
    ).reshape(-1, n)
    table.flags.writeable = False
    return table


def rank_images(planes):
    """Lexicographic ranks of the permutations whose 0-based images are planes.

    planes[k] holds the images of k+1, all planes of one shape, and so does
    the result: the Lehmer code, digit k the count of later images below
    image k, combined in int64 by Horner's rule, so a degree len(planes)
    above MAX_RANK_DEGREE raises DegreeRangeError.  The planes are read
    from one contiguous copy, as a transposed image table is strided.
    """
    import numpy as np

    planes = np.ascontiguousarray(planes)
    n = len(planes)
    need_degree("rank_images", n, 0, MAX_RANK_DEGREE)
    ranks = np.zeros(planes.shape[1:], dtype=np.int64)
    for k in range(n - 1):
        ranks *= n - k
        ranks += (planes[k + 1 :] < planes[k]).sum(0, dtype=np.int8)
    return ranks


def image_rows(members):
    """members as an (m, n) array of 1-based images, one row per member.

    An array of any other shape, or with a row that is not a permutation of
    1..n, raises ValueError.
    """
    import numpy as np

    members = np.asarray(members)
    if members.ndim != 2:
        raise ValueError(f"need an (m, n) image array, got shape {members.shape}")
    n = members.shape[1]
    wrong = (np.sort(members, axis=1) != np.arange(1, n + 1)).any(axis=1)
    if wrong.any():
        row = one_line(members[np.flatnonzero(wrong)[0]])
        raise ValueError(f"member {row} is not a permutation of 1..{n}")
    return members


def agreement_counts(rows, cols):
    """agree[i, j] = points where rows[i] and cols[j] agree, in the dtype of rows."""
    import numpy as np

    agree = np.zeros((len(rows), len(cols)), dtype=rows.dtype)
    for k in range(rows.shape[1]):
        agree += rows[:, k, None] == cols[:, k]
    return agree


def first_agreement_violation(members, t: int, clique: bool):
    """(i, j, agreements) for the first failing pair i < j in (i, j) order, or None.

    A pair fails when repeated or on the wrong side of t: a clique needs at most
    t agreements, an independent set more.  members is read by image_rows, and
    its images are compared by agreement_counts, in row blocks.
    """
    import numpy as np

    images = image_rows(members)
    m, n = images.shape
    images = images.astype(np.min_scalar_type(n), copy=False)
    lo = 0
    while lo < m - 1:
        later = images[lo + 1 :]
        hi = min(m - 1, lo + max(1, AGREEMENT_BLOCK_PAIRS // len(later)))
        agree = agreement_counts(images[lo:hi], later)
        bad = (agree == n) | ((agree > t) if clique else (agree <= t))
        # row r is member lo+r and column c member lo+1+c, a later one if c >= r
        bad &= np.arange(len(later)) >= np.arange(hi - lo)[:, None]
        if bad.any():
            r, c = divmod(int(bad.argmax()), len(later))
            return lo + r, lo + 1 + c, int(agree[r, c])
        lo = hi
    return None


def point_family(images) -> tuple[int, int] | None:
    """(i, j), 1-based, when the rows are exactly the coset S_{i->j}; else None.

    images is the (m, n) array of the 0-based images of m pairwise-distinct
    permutations, a row each as in image_table.  They are S_{i->j} when m is
    (n-1)! and column i is constant at j: the first constant column is the
    first such (i, j) in row-major order.
    """
    import numpy as np

    images = np.asarray(images)
    constant = np.flatnonzero((images == images[:1]).all(axis=0))
    if len(images) != factorial(images.shape[1] - 1) or not len(constant):
        return None
    return int(constant[0]) + 1, int(images[0, constant[0]]) + 1


def constraint_families(n: int, k: int):
    """Ascending ranks of every family S_A with |A| = k, one row per A.

    S_A holds the permutations of 1..n sending x to y for every pair of A.
    The rows run over the position sets xs in itertools.combinations order
    and, within one, over the value tuples in lexicographic order: a stable
    argsort of the ranks keyed by image_table(n)[:, xs], read as base-n
    digits, lines up the (n-k)! members of each value tuple in rank order.
    A row that holds more than one value tuple raises AssertionError, and a
    k outside 1..n raises ValueError.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    import numpy as np

    table = image_table(n)
    blocks = []
    for xs in itertools.combinations(range(n), k):
        keys = np.ravel_multi_index(table[:, xs].T, (n,) * k)
        order = np.argsort(keys, kind="stable").reshape(-1, factorial(n - k))
        if (keys[order] != keys[order[:, :1]]).any():
            raise AssertionError(f"a family on positions {xs} mixes value tuples")
        blocks.append(order)
    return np.concatenate(blocks)


def constraint_rows(n: int, constraints):
    """The 1-based image rows of S_A, in rank order, for a set A of (x, y) pairs.

    Row r fills the free positions with the free values in the order of row r
    of image_table(n - |A|); both ascend, so the rows keep rank order, and
    only the (n - |A|)! members are built, at any degree.  Fewer than 1 or
    more than n-1 pairs, a point outside 1..n, or two pairs that share a
    point raise ValueError.
    """
    import numpy as np

    pairs = tuple(sorted((int(x), int(y)) for x, y in constraints))
    if not 1 <= len(pairs) < n:
        raise ValueError(f"need between 1 and {n - 1} constraints, got {len(pairs)}")
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    for v in xs + ys:
        if not 1 <= v <= n:
            raise ValueError(f"constraint value {v} outside 1..{n}")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError(f"conflicting constraints: {pairs}")
    free_positions = [x - 1 for x in range(1, n + 1) if x not in xs]
    free_values = np.array([y for y in range(1, n + 1) if y not in ys])
    table = image_table(n - len(pairs))
    rows = np.empty((len(table), n), dtype=np.intp)
    rows[:, free_positions] = free_values[table]
    rows[:, np.subtract(xs, 1)] = ys
    return rows


class GroupData:
    """The class scheme of one symmetric group, as rank-indexed NumPy arrays.

    images is the shared image_table, inv[r] the rank of the inverse of the
    rank-r permutation and type_of[r] the index of its conjugacy class in
    the shared partition order, from the cycle walk
    permgroup.cycle_type_of_images.  Products of permutations come from one
    composition kernel (rank_images ranks the products and the inverses),
    which mult reads.  The class of p^-1 q comes from the relation
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


def _class_counts(families, n: int):
    """Ordered member pairs (p, q) of each family counted by the class of p^-1 q.

    families is one (f, m) rank array, m distinct ranks a row, read without a
    copy; the result is one int64 row per family, in class order, the
    diagonal p = q in the identity class.  The pairs are read in one of two
    ways, chosen by m alone.  Dense families, whose m * m pairs fill a block
    by themselves (m * m >= BLOCK_PAIRS), are read as gathered relation rows,
    relations[members[r : r + R]][:, members], R rows taking about
    8 * BLOCK_PAIRS bytes of the table (the whole of a family at n = 6, 52
    rows at n = 7), each block counted class by class.  Smaller families are
    read in flat blocks of F = BLOCK_PAIRS // (m * m) whole rows,
    quotient_classes taking each block's F * m * m pairs at once and one
    bincount counting them, class C of row f at label f * k + C.
    """
    import numpy as np

    families = np.asarray(families, dtype=np.intp)
    gd = group_data(n)
    k = len(gd.classes)
    m = families.shape[1]
    out = np.zeros((len(families), k), dtype=np.int64)
    if m * m >= BLOCK_PAIRS:
        rows = max(1, 8 * BLOCK_PAIRS // gd.order)
        for counts, members in zip(out, families):
            for r in range(0, m, rows):
                block = gd.relations[members[r : r + rows]][:, members]
                counts += [np.count_nonzero(block == c) for c in range(k)]
        return out
    step = BLOCK_PAIRS // max(1, m * m)
    for start in range(0, len(families), step):
        block = families[start : start + step]
        # int32 labels: each block's sum takes half the bytes of intp
        labels = np.arange(0, k * len(block), k, dtype=np.int32)[:, None, None]
        classes = gd.quotient_classes(block[:, :, None], block[:, None])
        counts = np.bincount((classes + labels).ravel(), minlength=k * len(block))
        out[start : start + step] = counts.reshape(-1, k)
    return out


def class_quadratic_forms(vectors, n: int) -> list[list[int]]:
    """x^T A_C x for every class C, one list of integers per 0/1 vector.

    For a 0/1 vector x with support S, x^T A_C x counts the ordered pairs
    (p, q) of S with p^-1 q in C, the diagonal p = q in the identity class:
    _class_counts of each support, one (1, m) array a call.  A vector whose
    length is not n!, or with an entry that is not the int (or bool) 0 or 1,
    raises ValueError.
    """
    import numpy as np

    gd = group_data(n)
    vectors = list(vectors)
    for x in vectors:
        if len(x) != gd.order:
            raise ValueError(f"vector length {len(x)} != {gd.order}")
        if not set(map(type, x)) <= {int, bool} or not set(x) <= {0, 1}:
            raise ValueError("class quadratic forms need 0/1 vectors")
    return [_class_counts([np.flatnonzero(x)], n)[0].tolist() for x in vectors]


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


def shifted_character_sums(families, n: int):
    """chi . q of each family's density-shifted indicator, as int64 rows.

    families is one (f, m) rank array, as _class_counts reads it.  A family's
    indicator x less m/n! times ones has no trivial component and every
    other component of x, so row f holds, in class order, n!/dim times each
    component's squared norm: chi . q for the _class_counts q of the family,
    and 0 for the trivial shape.  The sums pass through _character_sums and
    its checks, with |x|^2 = m read off the shape, so (0, m) gives (0, k).
    """
    import numpy as np

    families = np.asarray(families, dtype=np.intp)
    gd = group_data(n)
    counts = _class_counts(families, n)
    out = _character_sums(counts, [families.shape[1]] * len(families), n)
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

    Each family is an (m, n) array of 1-based images, read by image_rows:
    another shape, or a row that is no permutation,
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
        ranks = [rank_images(rows.T - 1)[None] for rows in (clique, independent)]
        ex, ey = [shifted_character_sums(r, n)[0].tolist() for r in ranks]
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

