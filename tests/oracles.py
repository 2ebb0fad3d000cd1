"""Independent small-degree oracles used to pin expected values in the tests.

Nothing here imports the package under test.  Characters are recovered by
counting tabloids fixed by class representatives and orthogonalizing the
permutation characters; spectra are certified from an explicitly built
adjacency matrix with a fraction-free Gaussian elimination; solutions and
kernels are read off a reduced row echelon form in Fractions.  Slow is fine:
most run at degrees 7 and below.  Two run further, as references for the
package's forward strip tables: character values by removing border strips
(to degree 20) and skew counts by removing corners (to degree 30).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb, factorial, lcm


def partitions_descending(n: int, max_part: int | None = None):
    """Partitions of n with parts at most max_part, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_descending(n - first, first):
            yield (first,) + rest


def partition_count(n: int) -> int:
    total = 0
    for _ in partitions_descending(n):
        total += 1
    return total


def partitions_reverse_lex(n: int) -> list[tuple[int, ...]]:
    return sorted(partitions_descending(n), reverse=True)


def compose(p, q) -> tuple[int, ...]:
    """Images of the permutation sending i to p(q(i)), both given by their images."""
    return tuple(p[v - 1] for v in q)


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def rank_permutation(images) -> int:
    """Position of images among the permutations of 1..n in lexicographic order."""
    n = len(images)
    return sum(
        sum(1 for later in images[i + 1 :] if later < images[i]) * factorial(n - 1 - i)
        for i in range(n)
    )


def unrank_permutation(rank: int, n: int) -> tuple[int, ...]:
    """The images of the permutation of rank rank, as rank_permutation counts."""
    available = list(range(1, n + 1))
    images = []
    for i in range(n):
        index, rank = divmod(rank, factorial(n - 1 - i))
        images.append(available.pop(index))
    return tuple(images)


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Images of the permutation of 1..n written in cycles, as "(1,4,2,3)(5,6)"."""
    images = list(range(1, n + 1))
    for body in re.findall(r"\(([^()]*)\)", text):
        points = [int(v) for v in body.split(",")]
        for i, point in enumerate(points):
            images[point - 1] = points[(i + 1) % len(points)]
    return tuple(images)


def cycle_type_of(images: tuple[int, ...]) -> tuple[int, ...]:
    n = len(images)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j - 1]
            length += 1
        out.append(length)
    out.sort(reverse=True)
    return tuple(out)


def classes_by_enumeration(n: int):
    """(cycle_type -> size, cycle_type -> some member) by walking all of S(n)."""
    sizes: dict[tuple[int, ...], int] = {}
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for images in itertools.permutations(range(1, n + 1)):
        ct = cycle_type_of(images)
        sizes[ct] = sizes.get(ct, 0) + 1
        reps.setdefault(ct, images)
    return sizes, reps


def tabloids(n: int, shape: tuple[int, ...]):
    """Ordered tuples of disjoint blocks with the shape's row sizes."""

    def rec(remaining: frozenset, rows: tuple):
        idx = len(rows)
        if idx == len(shape):
            yield rows
            return
        size = shape[idx]
        items = sorted(remaining)
        for block in itertools.combinations(items, size):
            yield from rec(remaining - frozenset(block), rows + (frozenset(block),))

    yield from rec(frozenset(range(1, n + 1)), ())


def fixed_tabloid_count(shape: tuple[int, ...], images: tuple[int, ...]) -> int:
    count = 0
    for rows in tabloids(len(images), shape):
        if all(frozenset(images[x - 1] for x in row) == row for row in rows):
            count += 1
    return count


def brute_force_character_table(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Irreducible characters keyed by partition, values in class order.

    The permutation characters (fixed tabloid counts) are orthogonalized in
    reverse-lexicographic partition order, which only ever subtracts
    characters of earlier partitions; the result must come out with norm one
    at every step or the oracle itself is wrong.
    """
    parts = partitions_reverse_lex(n)
    sizes, reps = classes_by_enumeration(n)
    order = factorial(n)

    def inner(a, b) -> Fraction:
        return Fraction(
            sum(sizes[ct] * x * y for ct, x, y in zip(parts, a, b)), order
        )

    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    done: list[tuple[int, ...]] = []
    for shape in parts:
        vec = [fixed_tabloid_count(shape, reps[ct]) for ct in parts]
        for prev in done:
            coeff = inner(vec, table[prev])
            assert coeff.denominator == 1 and coeff >= 0, (shape, prev, coeff)
            vec = [v - int(coeff) * w for v, w in zip(vec, table[prev])]
        norm = inner(vec, vec)
        assert norm == 1, (shape, norm)
        table[shape] = tuple(vec)
        done.append(shape)
    return table


def frobenius_character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """One character value by the Frobenius formula.

    chi^shape(cycles) is the coefficient of x^(shape + delta) in the
    Vandermonde determinant a_delta times the power sums p_m(x) over the cycle
    lengths m, in len(shape) variables with delta = (k-1, ..., 1, 0).  The
    power-sum product is expanded as a dict of exponent tuples; a monomial
    x^e meets the determinant's term of sign(s) x^s exactly when
    shape + delta - e is a permutation s of delta.
    """
    k = len(shape)
    poly = {(0,) * k: 1}
    for m in cycles:
        grown: dict[tuple[int, ...], int] = {}
        for exps, coeff in poly.items():
            for i in range(k):
                key = exps[:i] + (exps[i] + m,) + exps[i + 1 :]
                grown[key] = grown.get(key, 0) + coeff
        poly = grown
    delta = list(range(k - 1, -1, -1))
    target = [part + d for part, d in zip(shape, delta)]
    total = 0
    for exps, coeff in poly.items():
        perm = [x - e for x, e in zip(target, exps)]
        if sorted(perm, reverse=True) != delta:
            continue
        # inversions against the decreasing order of delta
        inversions = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] < perm[j]
        )
        total += (-1) ** inversions * coeff
    return total


def skew_tableaux_over_row(m: int, n: int) -> dict[tuple[int, ...], int]:
    """shape -> standard fillings of shape/(m), for every shape of n cells.

    Every chain of shapes that adds one cell at a time, from the row (m) up
    to n cells, is walked one by one; each ends at its shape.  With m = 0 the
    counts are the standard tableaux, the dimensions.
    """
    counts: dict[tuple[int, ...], int] = {}

    def grow(shape: tuple[int, ...], cells: int) -> None:
        if cells == n:
            counts[shape] = counts.get(shape, 0) + 1
            return
        for i in range(len(shape) + 1):
            length = shape[i] if i < len(shape) else 0
            if i == 0 or shape[i - 1] > length:
                grow(shape[:i] + (length + 1,) + shape[i + 1 :], cells + 1)

    grow((m,) if m else (), m)
    return counts


def strip_removal_table(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """shape -> its characters on the classes in partitions_reverse_lex order.

    One value at a time by the Murnaghan-Nakayama recursion on beta-sets: the
    shape is a bit mask with n beads, bit shape[i] + n - 1 - i for part i and
    bits 0.. for the missing parts.  Removing a border strip of k = cycles[0]
    cells moves a bead from b down to an empty b - k, with the parity of the
    beads it passes as its sign; the empty shape is the mask 2^n - 1.  Each
    (mask, remaining cycles) is memoised for this one table.
    """
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def chi(beads: int, cycles: tuple[int, ...]) -> int:
        if not cycles:
            return int(beads == (1 << n) - 1)
        if (beads, cycles) not in memo:
            k, total = cycles[0], 0
            movable = beads & ~(beads << k) & -(1 << k)  # bead at b, b - k empty
            while movable:
                low = movable & -movable
                movable ^= low
                value = chi(beads ^ low ^ (low >> k), cycles[1:])
                passed = (beads & (low - (low >> k))).bit_count()
                total += -value if passed & 1 else value
            memo[beads, cycles] = total
        return memo[beads, cycles]

    def beta(shape: tuple[int, ...]) -> int:
        mask = (1 << (n - len(shape))) - 1
        for i, part in enumerate(shape):
            mask |= 1 << (part + n - 1 - i)
        return mask

    classes = partitions_reverse_lex(n)
    return {shape: tuple(chi(beta(shape), c) for c in classes) for shape in classes}


def corner_removal_counts(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """shape -> (f^{shape/(m)} for m = 0..shape[0]), for every shape of <= n cells.

    f^{shape/(m)} sums f^{smaller/(m)} over the shapes one corner smaller that
    still contain the row (m); a single row counts 1 for every m.
    """
    counts: dict[tuple[int, ...], tuple[int, ...]] = {}
    for size in range(n + 1):
        for shape in partitions_descending(size):
            if len(shape) <= 1:
                counts[shape] = (1,) * (size + 1)
                continue
            total = [0] * (shape[0] + 1)
            for i, part in enumerate(shape):
                if i == len(shape) - 1 or shape[i + 1] < part:  # a corner
                    smaller = shape[:i] + (part - 1,) * (part > 1) + shape[i + 1 :]
                    for m, count in enumerate(counts[smaller]):
                        total[m] += count
            counts[shape] = tuple(total)
    return counts


def derangements_by_inclusion_exclusion(n: int) -> int:
    return sum((-1) ** k * factorial(n) // factorial(k) for k in range(n + 1))


def derangements_ending_at(n: int) -> tuple[int, ...]:
    """Entry w counts the derangements of 1..n sending n to w (entries 0 and n are 0).

    With n sent to w != n, the points 1..n-1 go onto the n-1 values other than
    w, and the n-2 points other than w must not go to themselves: by
    inclusion-exclusion over r of those fixed, sum (-1)^r C(n-2, r) (n-1-r)!.
    """
    each = sum(
        (-1) ** r * comb(n - 2, r) * factorial(n - 1 - r) for r in range(n - 1)
    )
    return (0,) + (each,) * (n - 1) + (0,) if n > 1 else (0, 0)


def derangement_gram(n: int) -> list[list[int]]:
    """[N | 1]^T [N | 1] by counting, N the derangement rows of H.

    Column (i, j), i, j < n, is (i-1)(n-1) + j-1, and a derangement's row is 1
    at (i, pi(i)) for every i < n with pi(i) < n.  Entry (c, d) counts the
    derangements with both one-positions c and d, the border column those
    with c, and the corner all D(n) of them.
    """
    width = (n - 1) ** 2
    gram = [[0] * (width + 1) for _ in range(width + 1)]
    for images in itertools.permutations(range(1, n + 1)):
        if any(v == i for i, v in enumerate(images, 1)):
            continue
        ones = [(i - 1) * (n - 1) + v - 1 for i, v in enumerate(images[:-1], 1) if v < n]
        for c in ones:
            for d in ones:
                gram[c][d] += 1
            gram[c][width] += 1
            gram[width][c] += 1
        gram[width][width] += 1
    return gram


def gaussian_rank(matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination.

    Each row is first multiplied by the common denominator of its entries,
    which leaves the rank unchanged; every later division is exact.
    """
    rows = []
    for row in matrix:
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        rows.append([int(v * scale) for v in row])
    rank, previous = 0, 1
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        lead = top[col]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            factor = row[col]
            rows[r] = [(lead * v - factor * w) // previous for v, w in zip(row, top)]
        previous = lead
        rank += 1
    return rank


def _reduced_echelon(matrix):
    """Reduced row echelon form in Fractions: (rows, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                factor = row[col]
                rows[i] = [v - factor * w for v, w in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


def solve(matrix, rhs):
    """One exact solution x of matrix * x = rhs in Fractions, or None.

    The coordinates at the columns without a pivot are 0.
    """
    n_cols = len(matrix[0])
    rows, pivots = _reduced_echelon([list(row) + [b] for row, b in zip(matrix, rhs)])
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, col in enumerate(pivots):
        x[col] = rows[r][n_cols]
    return x


def kernel(matrix):
    """A basis of the right kernel in Fractions, one vector per free column."""
    n_cols = len(matrix[0])
    rows, pivots = _reduced_echelon(matrix)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        basis.append(vec)
    return basis


def characteristic_vector(members, n: int) -> list[int]:
    """0/1 vector over the lex-ordered permutations of 1..n for a set of them.

    Each member is given by its one-line images.  A member that is no
    permutation of 1..n, or a repeated one, raises ValueError.
    """
    position = {p: r for r, p in enumerate(itertools.permutations(range(1, n + 1)))}
    vec = [0] * len(position)
    for member in members:
        images = tuple(member)
        if images not in position:
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        if vec[position[images]]:
            raise ValueError(f"repeated member {images}")
        vec[position[images]] = 1
    return vec


def derangement_adjacency(n: int):
    """Adjacency matrix of the derangement graph over lex-ordered permutations."""
    perms = list(itertools.permutations(range(1, n + 1)))
    size = len(perms)
    matrix = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            if a != b and all(x != y for x, y in zip(perms[a], perms[b])):
                matrix[a][b] = 1
    return matrix


def certify_spectrum(n: int, pairs: list[tuple[int, int]]) -> bool:
    """Check claimed (eigenvalue, multiplicity) pairs against rank(A - eI).

    rank(A - eI) = n! - m proves the eigenspace of e has dimension exactly m;
    multiplicities summing to n! then prove the claimed list is complete.
    """
    matrix = derangement_adjacency(n)
    size = len(matrix)
    if sum(m for _, m in pairs) != size:
        return False
    if len({e for e, _ in pairs}) != len(pairs):
        return False
    for eigenvalue, multiplicity in pairs:
        shifted = [
            [matrix[i][j] - (eigenvalue if i == j else 0) for j in range(size)]
            for i in range(size)
        ]
        if gaussian_rank(shifted) != size - multiplicity:
            return False
    return True
