"""Symmetric group basics: partitions, cycle types, conjugacy classes, guards.

A permutation of the points 1..n is the sequence of its images in one-line
notation, so ``images[i-1]`` is the image of ``i``.  Everything here is pure
Python on Python integers and imports no NumPy: spectrum, chartab and
derangements read this module and compile no array code.  The (m, n) image
arrays, their ranks and the constraint families are scheme's.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .errors import DegreeRangeError

Partition = tuple[int, ...]
CycleType = tuple[int, ...]

# Degree caps of the other modules, kept here because every run loads this
# module and the command table reads them.  6 caps GroupData.mult (relations
# reach 7), and by cost search, classify, conjecture, identity-check, basis_check.
MAX_DENSE_DEGREE = 6
# The explicit n! x (n-1)^2 incidence matrices of ekrverify stop here.
MAX_INCIDENCE_DEGREE = 8
# The quotient's walk visits every derangement, D(n) of them; D(11) is 15 million.
MAX_QUOTIENT_DEGREE = 10


def one_line(images) -> str:
    """One-line notation of a sequence of images, as in "4,3,1,2".

    It also labels a partition or cycle type by its parts, as in "3,1".
    """
    return ",".join(map(str, images))


def agreements(p, q) -> int:
    """Number of points where the image sequences p and q agree."""
    if len(p) != len(q):
        raise ValueError("degrees differ")
    return sum(a == b for a, b in zip(p, q))


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
