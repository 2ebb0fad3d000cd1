"""Exact linear algebra over the rationals, on integer matrices.

Matrices are lists of equal-length rows of Python ints or bools or NumPy
integers, or sequences that serve such rows by index and by slice
(IndicatorRows); each entry is read through operator.index, so a float or a
fraction (even a whole one) raises TypeError.  Every rank is certified by
one of two methods.  A fast modular elimination (exact integer arithmetic
mod a prime) gives the rank profile of a large integer matrix, the mod-p
rank of every leading block of rows at once; a modular rank that meets a
proven cap is the exact rank.  Short of the cap, one fraction-free forward
elimination (Bareiss's integer-preserving scheme) gives the rank exactly.
The modular elimination reads its rows a block at a time.  Mod 2, the
first modulus tried for the 0/1 IndicatorRows, each row is packed into one
Python int of bits and XORed against a basis of such ints, so no working
copy of residues is held: for the 2,401 x 720 rows of the n = 6, t = 2
depth span the basis is 588 ints of 720 bits.  Mod the primes 251 and
32749, tried for every matrix, the rows go into one working copy of
residues, one byte per entry at 251 and two at 32749, and each pivot
updates only the columns where the pivot row is nonzero.
"""

from __future__ import annotations

from operator import index

# the largest primes below 2**8 and 2**15: residues fit uint8, then uint16,
# and products int32; IndicatorRows try 2 before them
_RANK_PRIMES = (251, 32749)
_RESIDUE_BLOCK = 64  # rows read and reduced at a time


class IndicatorRows:
    """The 0/1 matrix [X; ones], held as the one-positions of X's rows.

    Row i of X is 1 at positions[i] and 0 elsewhere in its width columns,
    for a (rows, k) integer array positions, and the last row is all ones.
    A slice is built as one int8 array and an int index gives one row, so
    rank_profile_mod_p reads the matrix a block at a time with no dense copy,
    and bareiss_rank can still iterate the rows.  Its entries are 0/1 by
    construction, so certified_rank tries the modulus 2 on it first.
    """

    def __init__(self, positions, width: int):
        self.positions, self.width = positions, width

    def __len__(self) -> int:
        return len(self.positions) + 1

    def __getitem__(self, key):
        import numpy as np

        if not isinstance(key, slice):
            at = range(len(self))[key]  # IndexError past the end stops iteration
            return self[at : at + 1][0]
        picked = np.arange(len(self))[key]
        in_x = picked < len(self.positions)
        rows = np.zeros((len(picked), self.width), dtype=np.int8)
        rows[~in_x] = 1
        rows[np.flatnonzero(in_x)[:, None], self.positions[picked[in_x]]] = 1
        return rows


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
    a non-integer entry raises TypeError).  At p = 2 each row is packed
    little-endian into one Python int and XORed against the independent
    rows before it, kept by top bit, until it is zero or has a top bit none
    of them has, when it joins them; no working copy of the matrix is held,
    and no row is read once the profile is as long as the width.  At any
    other p the transpose is eliminated column by column; its pivot columns
    are the row rank profile whichever row each pivot is taken from.  Its
    one working copy is a transpose of residues in the narrowest unsigned
    dtype that holds p - 1, one byte per entry for p < 2**8.  Each pivot
    updates only the other live rows, and in them only the columns where
    the pivot row is nonzero; the products are formed in int32, exact
    because (p - 1)**2 < 2**30.  p must be a prime below 2**15: ValueError
    for a modulus out of range, or for a pivot without an inverse mod p.
    """
    import numpy as np

    if not 2 <= p < 2**15:
        raise ValueError(f"need a modulus 2 <= p < 2**15, got {p}")
    if not len(int_rows):
        return []
    width, pivots = len(int_rows[0]), []
    if p == 2:
        basis: dict[int, int] = {}  # independent rows reduced, by top bit
        for start, residues in _residue_blocks(int_rows, 2):
            packed = np.packbits(residues != 0, axis=1, bitorder="little")
            for i, row in enumerate(packed):
                bits = int.from_bytes(row, "little")
                while bits and (reducer := basis.get(bits.bit_length())):
                    bits ^= reducer
                if bits:
                    basis[bits.bit_length()] = bits
                    pivots.append(start + i)
                    if len(pivots) == width:
                        return pivots
        return pivots
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
    modular rank that meets the cap is the exact rank, and the method is
    "modular-certificate".  The primes are tried in turn until one meets it:
    for IndicatorRows 2 first, whose rows pack into one int of bits each,
    and for every matrix 251, whose residues take one byte each, then 32749;
    int_rows is read again for each, a slice at a time (rank_profile_mod_p).
    An odd minor is nonzero, so mod 2 certifies as soundly as 251.  Short of
    the cap the rows are eliminated fraction-free, and the method is
    "fraction-free-elimination".  A rank above the cap, or an exact rank
    below a modular one, raises AssertionError.
    """
    best = 0
    moduli = (2, *_RANK_PRIMES) if isinstance(int_rows, IndicatorRows) else _RANK_PRIMES
    for p in moduli:
        best = max(best, len(rank_profile_mod_p(int_rows, p)))
        if best > cap:
            raise AssertionError(f"modular rank {best} exceeds the proven upper bound {cap}")
        if best == cap:
            return best, "modular-certificate"
    exact = bareiss_rank(int_rows)
    if exact < best:
        raise AssertionError(f"exact rank {exact} is below the modular rank {best}")
    if exact > cap:
        raise AssertionError(f"exact rank {exact} exceeds the proven upper bound {cap}")
    return exact, "fraction-free-elimination"
