"""Exact linear algebra over the rationals, on integer matrices.

Matrices are lists of equal-length rows of Python ints or bools or NumPy
integers, or sequences that serve such rows by index and by slice; each
entry is read through operator.index, so a float or a fraction (even a
whole one) raises TypeError.  Every rank is certified by one of two methods.
A fast modular elimination (exact integer arithmetic mod a prime) gives the
rank profile of a large integer matrix, the mod-p rank of every leading
block of rows at once; a modular rank that meets a proven cap is the exact
rank.  Short of the cap, one fraction-free forward elimination (Bareiss's
integer-preserving scheme) gives the rank exactly.  Each matrix kind has one
modulus.  An integer matrix is reduced mod 251 a block of rows at a time
into one working copy of residues, one byte per entry, and each pivot
updates only the columns where the pivot row is nonzero.  A family matrix,
the 0/1 rows [X; ones] given by the one-positions of X's rows, is reduced
mod 2: each row is packed straight from its positions into one Python int
of bits and XORed against a basis of such ints, so no copy of the matrix is
held (for the 2,401 x 720 rows of the n = 6, t = 2 depth span the basis is
588 ints of 720 bits); only a family short of its cap is built densely.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import index, or_

# the largest prime below 2**8: residues fit uint8, and products int32
_RANK_PRIME = 251
_RESIDUE_BLOCK = 64  # rows read and reduced at a time


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


def _residue_blocks(int_rows, p: int):
    """(start, residues) for each slice of _RESIDUE_BLOCK rows from start.

    Each slice is reduced in the narrowest signed dtype, int16 or wider,
    that holds its entries and p, so int_rows is never widened whole.  A
    slice NumPy cannot read as integers is read again as objects through
    operator.index: ints past int64 stay exact, and a float, a NaN or a
    Fraction raises TypeError.
    """
    import numpy as np

    for start in range(0, len(int_rows), _RESIDUE_BLOCK):
        chunk = slice(start, start + _RESIDUE_BLOCK)
        rows = np.asarray(int_rows[chunk])
        if rows.dtype.kind not in "biu" or rows.dtype == np.uint64:
            # Python ints past int64, which NumPy reads as objects or floats
            rows = np.frompyfunc(index, 1, 1)(np.asarray(int_rows[chunk], dtype=object))
        wide = object if rows.dtype == object else np.promote_types(rows.dtype, np.int16)
        yield start, np.remainder(rows, p, dtype=wide)


def rank_profile_mod_p(int_rows, p: int) -> list[int]:
    """Indices of the rows that are independent of the rows before them, mod p.

    The pivots among the first k rows number exactly the rank of those k
    rows over the field of p elements, and the length of the list is the
    rank of the whole matrix.  int_rows is any sized sequence of rows that
    slices, read one slice of _RESIDUE_BLOCK rows at a time (_residue_blocks;
    a non-integer entry raises TypeError).  The transpose is eliminated
    column by column; its pivot columns are the row rank profile whichever
    row each pivot is taken from.  Its one working copy is a transpose of
    residues in the narrowest unsigned dtype that holds p - 1, one byte per
    entry for p < 2**8.  Each pivot updates only the other live rows, and in
    them only the columns where the pivot row is nonzero; the products are
    formed in int32, exact because (p - 1)**2 < 2**30.  p must be a prime
    below 2**15: ValueError for a modulus out of range, or for a pivot
    without an inverse mod p.
    """
    import numpy as np

    if not 2 <= p < 2**15:
        raise ValueError(f"need a modulus 2 <= p < 2**15, got {p}")
    if not len(int_rows):
        return []
    width, pivots = len(int_rows[0]), []
    a = np.empty((width, len(int_rows)), dtype=np.min_scalar_type(p - 1))
    for start, residues in _residue_blocks(int_rows, p):
        a[:, start : start + len(residues)] = residues.T
    for col in range(a.shape[1]):
        live = a[:, col].nonzero()[0]
        if not len(live):
            continue
        # Any live row may pivot; the last is taken.  On the n = 6, t = 2
        # indicator rows mod 251 that updates 443,057 cells; the first,
        # 456,489.
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
