"""Exact linear algebra over the rationals, on integer matrices.

Matrices are lists of equal-length rows of Python ints or bools or NumPy
integers; each entry is read through operator.index, so a float or a
fraction (even a whole one) raises TypeError.  One fraction-free
Gauss-Jordan elimination (Bareiss's integer-preserving scheme, carried
above the pivots as well as below) serves rank and kernel: it keeps every
entry an integer throughout and returns the reduced row echelon form as an
integer matrix over one common denominator.  A fast modular elimination
(exact integer arithmetic mod a prime) provides certified rank lower bounds
for every leading block of rows of a large integer matrix at once.  Each
pivot updates only the columns where the pivot row is nonzero: 443,057
cells for the 0/1 rows of the n = 6, t = 2 depth span, where every column
from the pivot on would be 8,394,183.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import index

# the two largest primes below 2**15: residues fit int16, products int32
_RANK_PRIMES = (32749, 32719)
_RESIDUE_BLOCK = 64  # rows reduced at a time into the int16 working copy


def rref(rows) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form, fraction-free: (m, pivots, d) with RREF == m / d.

    Every step replaces each other row by
    (pivot * row - factor * pivot_row) / previous pivot, a division that is
    always exact, so all pivot entries end equal to d and the pivot columns
    are zero elsewhere.  The pivot of each column is its first nonzero row at
    or below the current one.
    """
    m = [list(map(index, row)) for row in rows]
    pivots: list[int] = []
    if not m:
        return m, pivots, 1
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row_r = m[r]
        pivot = row_r[col]
        for i in range(n_rows):
            if i == r:
                continue
            row_i = m[i]
            factor = row_i[col]
            if factor:
                m[i] = [(pivot * a - factor * b) // prev for a, b in zip(row_i, row_r)]
            elif pivot != prev:
                m[i] = [pivot * a // prev for a in row_i]
        pivots.append(col)
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return m, pivots, prev


def bareiss_rank(rows) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return len(rref(rows)[1])


def kernel_basis(rows) -> list[list[int]]:
    """Integer basis of the right kernel; each vector is verified against the matrix.

    The vector for a free column holds d there and -m[r][free] at the pivot
    column of row r, which is the RREF kernel vector scaled by d.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    m, pivots, d = rref(rows)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [0] * n_cols
        vec[free] = d
        for r, col in enumerate(pivots):
            vec[col] = -m[r][free]
        basis.append(vec)
    int_rows = [list(map(index, row)) for row in rows]
    for vec in basis:
        for row in int_rows:
            if sum(a * b for a, b in zip(row, vec)) != 0:
                raise AssertionError("kernel vector fails the defining equations")
    return basis


def rank_profile_mod_p(int_rows, p: int) -> list[int]:
    """Indices of the rows that are independent of the rows before them, mod p.

    The transpose is eliminated column by column; its pivot columns are the
    row rank profile whichever row each pivot is taken from, so the pivots
    among the first k rows number exactly the rank of those k rows over the
    field of p elements, and the length of the list is the rank of the whole
    matrix.  The one working copy is an int16 transpose of residues, filled
    from blocks of _RESIDUE_BLOCK rows reduced in int64 (in Python ints for
    entries past int64), so an integer array is never widened whole.  Each
    pivot updates only the other live rows, and in them only the columns
    where the pivot row is nonzero; the products are formed in int32, exact
    because (p - 1)**2 < 2**30.  p must be a prime below 2**15: ValueError
    for a modulus out of range, or for a pivot without an inverse mod p.
    """
    import numpy as np

    if not 2 <= p < 2**15:
        raise ValueError(f"need a modulus 2 <= p < 2**15, got {p}")
    if not len(int_rows):
        return []
    rows = np.asarray(int_rows)
    if rows.dtype.kind not in "biu" or rows.dtype == np.uint64:
        # Python ints past int64, which NumPy reads as objects or floats
        rows = np.asarray(int_rows, dtype=object)
    wide = object if rows.dtype == object else np.int64
    a = np.empty(rows.shape[::-1], dtype=np.int16)
    for start in range(0, len(rows), _RESIDUE_BLOCK):
        stop = start + _RESIDUE_BLOCK
        a[:, start:stop] = np.remainder(rows[start:stop], p, dtype=wide).T
    pivots: list[int] = []
    for col in range(a.shape[1]):
        live = a[:, col].nonzero()[0]
        if not len(live):
            continue
        # Any live row may pivot; the last is taken.  On the n = 6, t = 2
        # indicator rows that updates 443,057 cells; the first, 456,489.
        # Live rows are zero left of col, so lead starts at the pivot entry.
        row = a[live[-1]]
        nz = row.nonzero()[0]
        lead = row[nz]
        # a pivoted row is zeroed, so it is never live again
        row.fill(0)
        # Fermat's inverse; a pivot it fails to invert means p is not prime,
        # where a nonzero residue need not certify a nonzero minor
        pivot = int(lead[0])
        inverse = pow(pivot, p - 2, p)
        if pivot * inverse % p != 1:
            raise ValueError(f"{pivot} has no inverse mod {p}: p is not prime")
        if len(live) > 1:
            idx = live[:-1, None], nz
            block = a[idx]
            factor = np.multiply(block[:, 0], inverse, dtype=np.int32)
            factor %= p
            update = np.multiply.outer(factor, lead)
            np.subtract(block, update, out=update)
            update %= p
            a[idx] = update
        pivots.append(col)
        if len(pivots) == len(a):
            break
    return pivots


def certified_ranks(int_rows, bounds) -> list[tuple[int, str]]:
    """Exact ranks of leading row blocks, certified by one modular rank profile.

    bounds holds (k, upper_bound) pairs: the rank of the first k rows is
    wanted, and upper_bound (or None) is a proven cap on it.  A nonzero r x r
    minor mod p proves rank >= r over the rationals, so a modular rank that
    meets its cap is the exact rank.  The primes are tried in turn, each
    giving every block's modular rank from one profile, until every cap is
    met.  A modular rank above its cap raises; a cap still unmet falls back
    to fraction-free elimination of that block.  Returns one (rank, method)
    per pair.
    """
    best = [0] * len(bounds)
    for p in _RANK_PRIMES:
        profile = rank_profile_mod_p(int_rows, p)
        for i, (k, upper_bound) in enumerate(bounds):
            modular = bisect_left(profile, k)
            if upper_bound is not None and modular > upper_bound:
                raise AssertionError(
                    f"modular rank {modular} exceeds the proven upper bound {upper_bound}"
                )
            best[i] = max(best[i], modular)
        if all(r == upper_bound for r, (_, upper_bound) in zip(best, bounds)):
            break
    out = []
    for r, (k, upper_bound) in zip(best, bounds):
        if r == upper_bound:
            out.append((r, "modular-certificate"))
            continue
        exact = bareiss_rank(int_rows[:k])
        if exact < r:
            raise AssertionError(f"exact rank {exact} is below the modular rank {r}")
        if upper_bound is not None and exact > upper_bound:
            raise AssertionError(
                f"exact rank {exact} exceeds the proven upper bound {upper_bound}"
            )
        out.append((exact, "fraction-free-elimination"))
    return out
