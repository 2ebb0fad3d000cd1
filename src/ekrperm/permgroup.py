"""Symmetric group basics: permutations, partitions, cycle types, conjugacy classes.

Permutations act on the points 1..n and are stored in one-line notation, so
``p.images[i-1]`` is the image of ``i``.  Composition is ``compose(p, q)(i) =
p(q(i))``.  Counts are Python integers, but for the int64 ranks of rank_images
and the small-integer arrays of agreement_counts.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .errors import DegreeRangeError

Partition = tuple[int, ...]
CycleType = tuple[int, ...]

# Member pairs compared per block by first_agreement_violation.
AGREEMENT_BLOCK_PAIRS = 1 << 16

# Degree caps of the other modules, kept here because every run loads this
# module and the command table reads them.  6 caps GroupData.mult (relations
# reach 7), and by cost search, classify, conjecture, identity-check, basis_check.
MAX_DENSE_DEGREE = 6
# The explicit n! x (n-1)^2 incidence matrices of ekrverify stop here.
MAX_INCIDENCE_DEGREE = 8
# The quotient's walk visits every derangement, D(n) of them; D(11) is 15 million.
MAX_QUOTIENT_DEGREE = 10
# rank_images counts in int64, which holds every rank below 20! but not 21!.
MAX_RANK_DEGREE = 20


class _OneLine(NamedTuple):
    images: tuple[int, ...]


class Permutation(_OneLine):
    """A permutation of 1..n in one-line notation."""

    __slots__ = ()

    def __new__(cls, images):
        n = len(images)
        if n < 1:
            raise ValueError("a permutation needs degree at least 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        return self.images[point - 1]

    def __str__(self) -> str:
        return one_line(self.images)


def one_line(images) -> str:
    """One-line notation of a sequence of images, as in "4,3,1,2".

    It also labels a partition or cycle type by its parts, as in "3,1".
    """
    return ",".join(map(str, images))


def identity(n: int) -> Permutation:
    need_degree("identity", n, 1)
    return Permutation(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation mapping i to p(q(i))."""
    if p.degree != q.degree:
        raise ValueError("degrees differ")
    pi = p.images
    return Permutation(tuple(pi[v - 1] for v in q.images))


def inverse(p: Permutation) -> Permutation:
    out = [0] * p.degree
    for i, v in enumerate(p.images, start=1):
        out[v - 1] = i
    return Permutation(tuple(out))


def agreements(p: Permutation, q: Permutation) -> int:
    """Number of points where p and q agree."""
    if p.degree != q.degree:
        raise ValueError("degrees differ")
    return sum(1 for a, b in zip(p.images, q.images) if a == b)


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


def cycle_type_of_images(images: tuple[int, ...]) -> CycleType:
    """Multiset of the cycle lengths of a permutation's images, sorted descending."""
    n = len(images)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j - 1]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


# ASCII digits between optional whitespace; int() also reads a sign, an
# underscore and the digits of other scripts
_NUMBER = re.compile(r"\s*([0-9]+)\s*")


def _numbers(text: str) -> list[int] | None:
    """The comma-separated numbers of text, or None for a token not _NUMBER."""
    tokens = [_NUMBER.fullmatch(tok) for tok in text.split(",")]
    return [int(tok[1]) for tok in tokens] if all(tokens) else None


def parse_one_line(text: str) -> Permutation:
    """Parse one-line notation like "4,3,1,2".

    Whitespace may surround each number but not split one: "1 2,3" is an error,
    as is any token other than ASCII digits ("+3", "2_0").
    """
    images = _numbers(text)
    if images is None:
        raise ValueError(f"bad one-line permutation {text!r}")
    return Permutation(tuple(images))


_CYCLES = re.compile(r"\s*(?:\([^()]*\)\s*)*")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like "(1,4,2,3)" or "(1,2)(3,4)".

    Points absent from every cycle are fixed; the degree must be given because
    it cannot be inferred from the cycles alone.  Whitespace may surround each
    number and each cycle, but not split a number: "(1 2)" is an error, as is
    any token other than ASCII digits ("(1,+2)", "(1,2_0)").
    """
    if text.count("(") != text.count(")"):
        raise ValueError(f"unbalanced cycle notation {text!r}")
    if not _CYCLES.fullmatch(text):
        raise ValueError(f"bad cycle notation {text!r}")
    images = list(range(1, degree + 1))
    moved: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        points = _numbers(body) if body.strip() else []
        if points is None:
            raise ValueError(f"bad cycle notation {text!r}")
        if len(points) != len(set(points)):
            raise ValueError(f"repeated point inside a cycle in {text!r}")
        for pt in points:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} outside 1..{degree}")
            if pt in moved:
                raise ValueError(f"point {pt} appears in two cycles in {text!r}")
            moved.add(pt)
        for i, pt in enumerate(points):
            images[pt - 1] = points[(i + 1) % len(points)]
    return Permutation(tuple(images))


def rank_permutation(p: Permutation) -> int:
    """Position of p among all degree-n permutations in lexicographic order."""
    images = p.images
    n = p.degree
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if images[j] < images[i])
        rank += smaller * factorial(n - 1 - i)
    return rank


def unrank_permutation(rank: int, n: int) -> Permutation:
    """Inverse of rank_permutation for degree n."""
    need_degree("unrank_permutation", n, 1)
    if not 0 <= rank < factorial(n):
        raise ValueError(f"rank {rank} outside 0..{factorial(n) - 1}")
    available = list(range(1, n + 1))
    images = []
    for i in range(n):
        f = factorial(n - 1 - i)
        idx, rank = divmod(rank, f)
        images.append(available.pop(idx))
    return Permutation(tuple(images))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order: (n,) first, (1,)*n last."""
    need_degree("partitions_of", n, 1)
    out = []
    parts = [n]
    while True:
        out.append(tuple(parts))
        k = len(parts) - 1
        while k >= 0 and parts[k] == 1:
            k -= 1
        if k < 0:
            break
        redistribute = len(parts) - 1 - k + 1
        value = parts[k] - 1
        parts = parts[:k] + [value]
        while redistribute > 0:
            chunk = min(value, redistribute)
            parts.append(chunk)
            redistribute -= chunk
    return tuple(out)


def partition_depth(shape: Partition) -> int:
    """Number of boxes outside the first row."""
    return sum(shape) - shape[0]


def class_size(shape: CycleType) -> int:
    """Size of the conjugacy class of S(n) with the given cycle type."""
    n = sum(shape)
    denom = 1
    mult: dict[int, int] = {}
    for part in shape:
        if part < 1:
            raise ValueError(f"bad cycle type {shape}")
        mult[part] = mult.get(part, 0) + 1
    for length, m in mult.items():
        denom *= length**m * factorial(m)
    return factorial(n) // denom


class ClassInfo(NamedTuple):
    """One conjugacy class of S(n)."""

    cycle_type: CycleType
    size: int

    @property
    def fixed_points(self) -> int:
        return sum(1 for part in self.cycle_type if part == 1)


@lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> tuple[ClassInfo, ...]:
    """All classes of S(n), ordered like partitions_of(n)."""
    return tuple(ClassInfo(shape, class_size(shape)) for shape in partitions_of(n))


def need_degree(what: str, n: int, lo: int, hi: int | None = None, name="n") -> None:
    """Raise DegreeRangeError unless lo <= n <= hi, or lo <= n when hi is None."""
    if n < lo or hi is not None and n > hi:
        span = f"of at least {lo}" if hi is None else f"from {lo} to {hi}"
        raise DegreeRangeError(f"{what} takes {name} {span}, got {n}")


def need_threshold(n: int, t: int) -> None:
    """Raise ValueError unless 0 <= t < n: t is an agreement threshold in S(n)."""
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got t={t}, n={n}")


def classes_with_few_fixed_points(n: int, t: int) -> tuple[ClassInfo, ...]:
    """The classes the threshold-t graph joins: their members fix at most t points.

    The identity fixes all n points, more than any t that need_threshold admits.
    """
    need_threshold(n, t)
    return tuple(cls for cls in conjugacy_classes(n) if cls.fixed_points <= t)


@lru_cache(maxsize=None)
def derangement_count(n: int) -> int:
    """Number of fixed-point-free permutations of 1..n."""
    need_degree("derangement_count", n, 1)
    previous, current = 1, 0  # D(0), D(1)
    for k in range(2, n + 1):
        previous, current = current, (k - 1) * (current + previous)
    return current


@lru_cache(maxsize=None)
def derangements_by_last_image(n: int) -> tuple[int, ...]:
    """Entry w counts the derangements of 1..n sending n to w, from a walk of them.

    Entries 0 and n are 0.  The walk gives the points 1, 2, ... in turn a free
    image other than itself (bit v of free marks image v unused), and the last
    two points the two images left, both ways round, so it meets each
    derangement once: a brute-force witness against derangement_count.
    """
    counts = [0] * (n + 1)

    def place(i: int, free: int) -> None:
        if i == n - 1:  # images a < b are left, and b <= n
            a = (free & -free).bit_length() - 1
            b = free.bit_length() - 1
            counts[b] += b != n  # n - 1 to a, n to b; a == n - 1 only when b == n
            counts[a] += b != n - 1  # n - 1 to b, n to a < n
            return
        options = free & ~(1 << i)
        while options:
            low = options & -options
            options ^= low
            place(i + 1, free ^ low)

    if n > 1:  # the one permutation of 1 point fixes it
        place(1, (1 << (n + 1)) - 2)
    return tuple(counts)


def stabilizer_coset_count(n: int) -> int:
    """The n^2 cosets S_{i->j} of S(n), but 2 at n = 2, where S_{1->1} = S_{2->2}."""
    return 2 if n == 2 else n * n


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
