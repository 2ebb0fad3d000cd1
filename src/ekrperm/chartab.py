"""Ordinary character tables of symmetric groups.

Character values are computed by the Murnaghan-Nakayama border-strip
recursion, memoized on (shape, remaining cycle lengths).  Dimensions come from
the hook length formula, and the skew counts f^{shape/(m)} by removing one
corner at a time, memoized on the shape.  Everything is an exact integer.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import DegreeRangeError
from .permgroup import CycleType, Partition, class_size, partitions_of

# Table sizes grow like the partition count; the recursion is fine well past
# this, but larger degrees are outside the tested envelope.
MAX_TABLE_DEGREE = 12


def conjugate_partition(shape: Partition) -> Partition:
    if not shape:
        return ()
    out = []
    for j in range(shape[0]):
        out.append(sum(1 for part in shape if part > j))
    return tuple(out)


def hook_lengths(shape: Partition) -> list[list[int]]:
    conj = conjugate_partition(shape)
    return [
        [(row - j) + (conj[j] - i) - 1 for j in range(row)]
        for i, row in enumerate(shape)
    ]


def dimension(shape: Partition) -> int:
    """Dimension of the irreducible module labelled by shape (hook formula)."""
    n = sum(shape)
    product = 1
    for row in hook_lengths(shape):
        for h in row:
            product *= h
    return factorial(n) // product


@lru_cache(maxsize=None)
def _skew_row_counts(shape: Partition) -> tuple[int, ...]:
    if len(shape) <= 1:  # every filling of one row is standard
        return (1,) * (sum(shape) + 1)
    counts = [0] * (shape[0] + 1)
    for i, part in enumerate(shape):
        if i + 1 == len(shape) or shape[i + 1] < part:  # a corner ends row i
            smaller = tuple(p for p in shape[:i] + (part - 1,) + shape[i + 1 :] if p)
            # removable while smaller still contains (m): the range of its counts
            for m, count in enumerate(_skew_row_counts(smaller)):
                counts[m] += count
    return tuple(counts)


def skew_row_tableaux(shape: Partition) -> tuple[int, ...]:
    """f^{shape/(m)}, the standard tableaux of shape less m cells of row 1.

    Entry m for m = 0..shape[0], so entry 0 is dim(shape); 0 for larger m.
    """
    if shape:
        _validate_shape(shape)
    return _skew_row_counts(tuple(shape))


def _validate_shape(shape: Partition) -> None:
    if not shape or any(a < 1 for a in shape):
        raise ValueError(f"bad partition {shape}")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {shape}")


@lru_cache(maxsize=None)
def _murnaghan_nakayama(shape: Partition, cycles: Partition) -> int:
    if not cycles:
        return 1 if not shape else 0
    if not shape:
        return 0
    strip = cycles[0]
    rest = cycles[1:]
    k = len(shape)
    beta = [shape[i] + k - 1 - i for i in range(k)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        sign = -1 if sum(1 for c in beta if nb < c < b) % 2 else 1
        new_beta = sorted((nb if j == i else beta[j] for j in range(k)), reverse=True)
        new_shape = tuple(
            v for v in (new_beta[j] - (k - 1 - j) for j in range(k)) if v > 0
        )
        total += sign * _murnaghan_nakayama(new_shape, rest)
    return total


def character_value(shape: Partition, cycles: CycleType) -> int:
    """Irreducible character of shape evaluated on the class of cycle type cycles."""
    _validate_shape(shape)
    _validate_shape(cycles)
    if sum(shape) != sum(cycles):
        raise ValueError(f"size mismatch: {shape} vs {cycles}")
    return _murnaghan_nakayama(tuple(shape), tuple(sorted(cycles, reverse=True)))


def n_cycle_character(shape: Partition) -> int:
    """Character value on the single-n-cycle class: +-1 on hooks, 0 otherwise."""
    n = sum(shape)
    value = character_value(shape, (n,))
    if value not in (-1, 0, 1):
        raise AssertionError(f"n-cycle character of {shape} is {value}, not in -1..1")
    is_hook = len(shape) == 1 or shape[1] == 1
    if (value != 0) != is_hook:
        raise AssertionError(
            f"n-cycle character of {shape} must be nonzero exactly on hooks"
        )
    return value


@dataclass(frozen=True)
class CharacterTable:
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
    if not 1 <= n <= MAX_TABLE_DEGREE:
        raise DegreeRangeError(
            f"character tables are supported for 1 <= n <= {MAX_TABLE_DEGREE}, got {n}"
        )
    parts = partitions_of(n)
    values = tuple(
        tuple(character_value(shape, cycles) for cycles in parts) for shape in parts
    )
    table = CharacterTable(n, parts, values)
    for shape in parts:
        if table.dimension(shape) != dimension(shape):
            raise AssertionError(
                f"identity column disagrees with the hook formula at {shape}"
            )
    return table


def check_row_orthogonality(table: CharacterTable) -> bool:
    """First orthogonality relation, exactly, for every pair of rows."""
    order = factorial(table.n)
    sizes = [class_size(ct) for ct in table.partitions]
    for a, row_a in enumerate(table.values):
        for b, row_b in enumerate(table.values):
            total = sum(s * x * y for s, x, y in zip(sizes, row_a, row_b))
            if total != (order if a == b else 0):
                return False
    return True


def check_column_orthogonality(table: CharacterTable) -> bool:
    """Second orthogonality relation, exactly, for every pair of columns."""
    order = factorial(table.n)
    sizes = [class_size(ct) for ct in table.partitions]
    k = len(table.partitions)
    for a in range(k):
        for b in range(k):
            total = sum(row[a] * row[b] for row in table.values)
            if total * sizes[a] != (order if a == b else 0):
                return False
    return True


def table_to_csv(table: CharacterTable) -> str:
    """Render the table as CSV with partition labels on both axes."""

    def label(shape: Partition) -> str:
        return ",".join(str(part) for part in shape)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["partition/cycle_type"] + [label(ct) for ct in table.partitions])
    for shape, row in zip(table.partitions, table.values):
        writer.writerow([label(shape)] + [str(v) for v in row])
    return buf.getvalue()
