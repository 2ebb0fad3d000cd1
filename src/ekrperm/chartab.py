"""Ordinary character tables of symmetric groups, in exact integers.

Character values come from the Murnaghan-Nakayama rule run forward on bead
masks (a shape's beta-set as the bits of an int): one memoized dict per cycle
suffix holds chi of every shape its strips reach, so columns share suffixes.
Dimensions come from the hook length formula, and the skew counts
f^{shape/(m)} from one packed table per degree, built one box at a time.
The spectra of the agreement graphs (union_spectrum) are inclusion-exclusion
sums of those counts over fixed points, with no sum over classes; the
division by dim must be exact (enforced).  Each orthogonality relation is one
packed big-int sum per row, with no NumPy (_orthonormal).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb, factorial, isqrt, prod
from operator import add, mul
from typing import NamedTuple

from .permgroup import (
    CycleType,
    Partition,
    class_size,
    classes_with_few_fixed_points,
    need_degree,
    one_line,
    partitions_of,
)

# Larger tables are fine, but outside the tested envelope.
MAX_TABLE_DEGREE = 12


def conjugate_partition(shape: Partition) -> Partition:
    """Column lengths of shape, in one walk up from its last row.

    The parts are sorted, so row i (from 1) is the lowest row of each column
    it reaches past the columns of the rows below it: those have length i.
    """
    out: list[int] = []
    for i in range(len(shape), 0, -1):
        out += [i] * (shape[i - 1] - len(out))
    return tuple(out)


def dimension(shape: Partition) -> int:
    """Dimension of the irreducible module labelled by shape (hook formula)."""
    conj = conjugate_partition(shape)
    hooks = prod(
        row - j + conj[j] - i - 1 for i, row in enumerate(shape) for j in range(row)
    )
    return factorial(sum(shape)) // hooks


def _add_strips(level: dict[int, int], k: int) -> dict[int, int]:
    """{bead mask: sum of the values reaching it} after adding a k-cell strip.

    A bead moves from b to an empty b + k, signed by how many beads it jumps.
    """
    out: dict[int, int] = {}
    for beads, value in level.items():
        movable = beads & ~(beads >> k)
        while movable:
            low = movable & -movable
            movable ^= low
            key = beads ^ low ^ (low << k)
            odd = k > 1 and (beads & ((low << k) - (low << 1))).bit_count() & 1
            out[key] = out.get(key, 0) + (-value if odd else value)
    return out


@lru_cache(maxsize=None)
def _skew_table(n: int) -> tuple[int, dict[int, int]]:
    """(w, {bead mask: packed}) over the shapes of n cells, with n beads.

    Digit m of packed, w bits wide, is f^{shape/(m)}: boxes are added one at
    a time from the empty shape, and the row (m) is seeded at digit m.  Each
    count is at most dim(shape) <= sqrt(n!), so no digit carries.
    """
    w = (isqrt(factorial(n)) + 1).bit_length() + 1
    level = {(1 << n) - 1: 1}
    for s in range(1, n + 1):
        level = _add_strips(level, 1)
        level[_beads((s,), n)] += 1 << (w * s)
    return w, level


def _skew_row_counts(shape: Partition) -> tuple[int, ...]:
    w, table = _skew_table(sum(shape))
    packed, digit = table[_beads(shape, sum(shape))], (1 << w) - 1
    return tuple(packed >> (w * m) & digit for m in range(max(shape, default=0) + 1))


def skew_row_tableaux(shape: Partition) -> tuple[int, ...]:
    """f^{shape/(m)}, the standard tableaux of shape less m cells of row 1.

    Entry m for m = 0..shape[0], so entry 0 is dim(shape); 0 for larger m.
    """
    if shape:
        _validate_shape(shape)
    return _skew_row_counts(tuple(shape))


class SchemeSpectrum(NamedTuple):
    """Spectrum of a union of class graphs, one eigenvalue per partition."""

    n: int
    t: int
    partitions: tuple[Partition, ...]
    eigenvalues: tuple[int, ...]
    multiplicities: tuple[int, ...]
    valency: int

    def eigenvalue(self, shape: Partition) -> int:
        return self.eigenvalues[self.partitions.index(tuple(shape))]

    def least(self) -> tuple[int, tuple[Partition, ...]]:
        value = min(self.eigenvalues)
        pairs = zip(self.partitions, self.eigenvalues)
        return value, tuple(shape for shape, ev in pairs if ev == value)


def union_spectrum(n: int, t: int = 0) -> SchemeSpectrum:
    """Spectrum of the graph joining permutations that agree in at most t points.

    The characters of the permutations fixing a given k-set sum to
    (n-k)! f^{shape/(n-k)}, so by inclusion-exclusion over the fixed points
    dim * eig_t(shape) = sum_{f <= t} sum_{k >= f} (-1)^(k-f) C(k, f)
    (n!/k!) f^{shape/(n-k)}.  A nonzero remainder of the division by dim, or
    a trivial eigenvalue that differs from the valency summed over class
    sizes, raises AssertionError.
    """
    valency = sum(cls.size for cls in classes_with_few_fixed_points(n, t))
    parts = partitions_of(n)
    # weights[m]: the coefficient of f^{shape/(m)}, for k = n - m fixed points
    weights = [
        sum((-1) ** (k - f) * comb(k, f) for f in range(min(t, k) + 1))
        * (factorial(n) // factorial(k))
        for k in range(n, -1, -1)
    ]
    eigenvalues, multiplicities = [], []
    for shape in parts:
        counts = _skew_row_counts(shape)  # counts[0] is f^{shape/()} = dim
        eigenvalue, remainder = divmod(sum(map(mul, weights, counts)), counts[0])
        if remainder:
            raise AssertionError(f"eigenvalue of {shape} is not an integer")
        eigenvalues.append(eigenvalue)
        multiplicities.append(counts[0] ** 2)
    if sum(multiplicities) != factorial(n):
        raise AssertionError("eigenspace dimensions do not add up to n!")
    if eigenvalues[0] != valency:  # trivial eigenspace carries the valency
        raise AssertionError("trivial eigenvalue differs from the valency")
    return SchemeSpectrum(
        n, t, parts, tuple(eigenvalues), tuple(multiplicities), valency
    )


def _validate_shape(shape: Partition) -> None:
    if not shape or any(a < 1 for a in shape):
        raise ValueError(f"bad partition {shape}")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {shape}")


def _beads(shape: Partition, n: int) -> int:
    """The beta-set of shape with n beads: bit shape[i] + n - 1 - i for i < n."""
    empty = (1 << (n - len(shape))) - 1  # the beads of the parts of size 0
    return empty | sum(1 << (part + n - 1 - i) for i, part in enumerate(shape))


@lru_cache(maxsize=None)
def _murnaghan_nakayama(n: int, cycles: Partition) -> dict[int, int]:
    """{bead mask: chi(cycles)} over the shapes of sum(cycles) cells, n beads.

    Strips of lengths cycles[-1], ..., cycles[0] are added to the empty shape
    in turn, so every suffix of cycles is one memoized dict.
    """
    if not cycles:
        return {(1 << n) - 1: 1}
    return _add_strips(_murnaghan_nakayama(n, cycles[1:]), cycles[0])


def character_value(shape: Partition, cycles: CycleType) -> int:
    """Irreducible character of shape evaluated on the class of cycle type cycles."""
    _validate_shape(shape)
    _validate_shape(cycles)
    if sum(shape) != sum(cycles):
        raise ValueError(f"size mismatch: {shape} vs {cycles}")
    column = _murnaghan_nakayama(sum(shape), tuple(sorted(cycles, reverse=True)))
    return column.get(_beads(shape, sum(shape)), 0)


class CharacterTable(NamedTuple):
    """Square table of character values, rows and columns in partition order."""

    n: int
    partitions: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]

    def row_index(self, shape: Partition) -> int:
        return self.partitions.index(tuple(shape))

    def value(self, shape: Partition, cycles: CycleType) -> int:
        return self.values[self.row_index(shape)][self.partitions.index(tuple(cycles))]

    def dimension(self, shape: Partition) -> int:
        return self.value(shape, (1,) * self.n)


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """Full character table of S(n); rows and columns in reverse-lex order."""
    need_degree("character_table", n, 1, MAX_TABLE_DEGREE)
    parts = partitions_of(n)
    masks = [_beads(shape, n) for shape in parts]  # valid shapes: no checks
    columns = [map(_murnaghan_nakayama(n, mu).get, masks, repeat(0)) for mu in parts]
    values = tuple(zip(*columns))
    for shape, row in zip(parts, values):
        if row[-1] != dimension(shape):  # the last column is the identity's
            raise AssertionError(
                f"identity column disagrees with the hook formula at {shape}"
            )
    return CharacterTable(n, parts, values)


def _orthonormal(rows, weights, norms) -> bool:
    """sum_C weights[C] rows[a][C] rows[b][C] is norms[a] when a == b, else 0.

    Column C packs into one int, weights[C] * sum_b rows[b][C] << (s*b), so
    the base-2^s digits of sum_C rows[a][C] * packed[C] are the pairings of
    row a with every row b.  Each pairing less its expected value is at most
    bound = max|norm| + sum|weight| * max|entry|^2 in absolute value, which
    is below 2^(s-2) for s = bound.bit_length() + 2 rounded up to whole
    bytes; an int has one expansion in signed base-2^s digits below 2^(s-1),
    so the sum is norms[a] << (s*a) exactly when every pairing of row a is
    as expected: an exact test, one big-int sum per row.  A column packs in
    linear time: each entry, at most bound in absolute value, plus half =
    2^(s-1) is one fixed-width base-2^s digit, the digits are read as one
    int.from_bytes, and half in every digit is taken off again.
    """
    entry = max(abs(x) for row in rows for x in row)
    bound = max(map(abs, norms)) + sum(map(abs, weights)) * entry**2
    width = (bound.bit_length() + 9) // 8  # bytes per digit
    s, half = 8 * width, 1 << (8 * width - 1)
    halves = int.from_bytes(half.to_bytes(width, "little") * len(rows), "little")

    def pack(column) -> int:  # sum_b column[b] << (s*b)
        shifted = map(add, column, repeat(half))  # each in 0..2^s-1
        digits = map(int.to_bytes, shifted, repeat(width), repeat("little"))
        return int.from_bytes(b"".join(digits), "little") - halves

    packed = [weight * pack(column) for weight, column in zip(weights, zip(*rows))]
    return all(
        sum(map(mul, row, packed)) == norm << (s * a)
        for a, (row, norm) in enumerate(zip(rows, norms))
    )


def check_row_orthogonality(table: CharacterTable) -> bool:
    """First orthogonality relation, exactly, for every pair of rows."""
    sizes = list(map(class_size, table.partitions))
    return _orthonormal(table.values, sizes, [factorial(table.n)] * len(sizes))


def check_column_orthogonality(table: CharacterTable) -> bool:
    """Second orthogonality relation, exactly, for every pair of columns."""
    order = factorial(table.n)
    norms = [order // class_size(ct) for ct in table.partitions]
    return _orthonormal(list(zip(*table.values)), [1] * len(norms), norms)


def table_to_csv(table: CharacterTable) -> str:
    """Render the table as CSV with partition labels on both axes."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["partition/cycle_type"] + list(map(one_line, table.partitions)))
    for shape, row in zip(table.partitions, table.values):
        writer.writerow([one_line(shape)] + [str(v) for v in row])
    return buf.getvalue()
