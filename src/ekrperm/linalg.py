"""Exact linear algebra over the rationals, on integer matrices.

Matrices are lists of equal-length rows of Python ints or bools, or NumPy
integer arrays; each entry is read as an integer, so a float or a fraction
(even a whole one) raises TypeError.  Every rank is certified by one of two
methods.  A modular elimination (exact integer arithmetic mod a prime)
gives the rank profile of an integer matrix, the mod-p rank of every
leading block of rows at once; a modular rank that meets a proven cap is
the exact rank.  Short of the cap, one fraction-free forward elimination
(Bareiss's integer-preserving scheme) gives the rank exactly.  Each matrix
kind has one modulus.  An integer matrix, in the reports a Gram block of
side at most (n - 1)**2 + 1, is reduced mod 251 into one int64 transpose of
residues, 8 bytes per entry.  A family matrix, the 0/1 rows [X; ones] given
by the one-positions of X's rows, is reduced mod 2: each row is packed
straight from its positions into one Python int of bits and XORed against a
basis of such ints, so no copy of the matrix is held (for the 2,401 x 720
rows of the n = 6, t = 2 depth span the basis is 588 ints of 720 bits);
only a family short of its cap is built densely, and its residues then take
8 bytes per entry.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import index, or_

_RANK_PRIME = 251  # the largest prime below 2**8


def bareiss_rank(rows) -> int:
    """Rank over the rationals via fraction-free forward elimination.

    Each row below the pivot becomes (pivot * row - factor * pivot_row) /
    previous pivot, a division that is always exact, so every entry stays an
    integer.  The pivot of each column is its first nonzero row at or below
    the current one.
    """
    m = [list(map(index, row)) for row in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        pivot = top[col]
        for i in range(rank + 1, len(m)):
            factor = m[i][col]
            m[i] = [(pivot * a - factor * b) // prev for a, b in zip(m[i], top)]
        prev = pivot
        rank += 1
    return rank


def rank_profile_mod_p(int_rows, p: int) -> list[int]:
    """Indices of the rows that are independent of the rows before them, mod p.

    The pivots among the first k rows number exactly the rank of those k
    rows over the field of p elements, and the length of the list is the
    rank of the whole matrix.  int_rows is read once with np.asarray; rows
    NumPy cannot read as integers are read again as objects through
    operator.index, so ints past int64 stay exact and a float, a NaN or a
    Fraction raises TypeError.  The residues are held in one int64
    transpose, eliminated column by column; its pivot columns are the row
    rank profile whichever row each pivot is taken from.  Each pivot updates
    every other live row in full, exactly, since (p - 1)**2 < 2**30.  p must
    be a prime below 2**15: ValueError for a modulus out of range, or for a
    pivot without an inverse mod p.
    """
    import numpy as np

    if not 2 <= p < 2**15:
        raise ValueError(f"need a modulus 2 <= p < 2**15, got {p}")
    if not len(int_rows):
        return []
    rows = np.asarray(int_rows)
    if rows.dtype.kind not in "biu" or rows.dtype == np.uint64:
        # Python ints past int64, which NumPy reads as objects or floats
        rows = np.frompyfunc(index, 1, 1)(np.asarray(int_rows, dtype=object)) % p
        rows = rows.astype(np.int64)
    a = np.remainder(rows.T, p, dtype=np.int64)
    pivots = []
    for col in range(a.shape[1]):
        live = a[:, col].nonzero()[0]
        if not len(live):
            continue
        # any live row may pivot; the last is taken
        row, rest = a[live[-1]], live[:-1]
        # Fermat's inverse; a pivot it fails to invert means p is not prime,
        # where a nonzero residue need not certify a nonzero minor
        pivot = int(row[col])
        inverse = pow(pivot, p - 2, p)
        if pivot * inverse % p != 1:
            raise ValueError(f"{pivot} has no inverse mod {p}: p is not prime")
        factor = a[rest, col] * inverse % p
        a[rest] = (a[rest] - np.multiply.outer(factor, row)) % p
        # a pivoted row is zeroed, so it is never live again
        row.fill(0)
        pivots.append(col)
        if len(pivots) == len(a):
            break
    return pivots


def certified_rank(int_rows, cap: int) -> tuple[int, str]:
    """(rank, method): the exact rank of int_rows, at most the proven cap.

    A nonzero r x r minor mod p proves rank >= r over the rationals, so a
    rank mod 251 (rank_profile_mod_p) that meets the cap is the exact rank,
    and the method is "modular-certificate".  Short of the cap the rows are
    eliminated fraction-free, and the method is "fraction-free-elimination".
    A rank above the cap, or an exact rank below the modular one, raises
    AssertionError.
    """
    modular = len(rank_profile_mod_p(int_rows, _RANK_PRIME))
    if modular > cap:
        raise AssertionError(f"modular rank {modular} exceeds the proven upper bound {cap}")
    if modular == cap:
        return modular, "modular-certificate"
    exact = bareiss_rank(int_rows)
    if exact < modular:
        raise AssertionError(f"exact rank {exact} is below the modular rank {modular}")
    if exact > cap:
        raise AssertionError(f"exact rank {exact} exceeds the proven upper bound {cap}")
    return exact, "fraction-free-elimination"


def _rank_mod_2(packed) -> int:
    """The rank mod 2 of rows packed into Python ints, bit c for column c.

    Each row is XORed against the independent rows before it, kept by top
    bit, until it is zero or has a top bit none of them has, when it joins
    them.
    """
    basis: dict[int, int] = {}
    for bits in packed:
        while bits and (reducer := basis.get(bits.bit_length())):
            bits ^= reducer
        if bits:
            basis[bits.bit_length()] = bits
    return len(basis)


def certified_family_rank(positions, width: int, cap: int) -> tuple[int, str]:
    """(rank, method): the exact rank of the 0/1 rows [X; ones], at most cap.

    Row i of X is 1 at positions[i] and 0 elsewhere in its width columns,
    for a (rows, k) integer array positions, and the last row is all ones.
    Each row is packed straight from its positions into one Python int, the
    ones row being (1 << width) - 1, and ranked mod 2 (_rank_mod_2) with no
    copy of the matrix held.  An odd minor is a nonzero integer minor, so a
    rank mod 2 that meets the cap is the exact rank: "modular-certificate".
    Short of it, [X; ones] is built once as a dense int8 array and ranked
    by certified_rank.  A rank mod 2 above the cap, or an exact rank below
    it, raises AssertionError.
    """
    packed = (reduce(or_, map((1).__lshift__, row.tolist()), 0) for row in positions)
    modular = _rank_mod_2(chain(packed, [(1 << width) - 1]))
    if modular > cap:
        raise AssertionError(f"modular rank {modular} exceeds the proven upper bound {cap}")
    if modular == cap:
        return modular, "modular-certificate"
    import numpy as np

    rows = np.zeros((len(positions) + 1, width), dtype=np.int8)
    rows[-1] = 1
    rows[np.arange(len(positions))[:, None], positions] = 1
    exact, method = certified_rank(rows, cap)
    if exact < modular:
        raise AssertionError(f"exact rank {exact} is below the modular rank {modular}")
    return exact, method
