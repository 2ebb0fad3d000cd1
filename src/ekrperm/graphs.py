"""Agreement graphs on symmetric groups: cliques, cocliques, exhaustive search.

Vertices are the permutations of 1..n; two are adjacent in the threshold-t
graph when they agree in at most t points.  At t=0 this is the derangement
graph.  Cliques of size n come from Latin squares and from decompositions of
the complete digraph into directed Hamilton cycles; cliques of size n(n-1) in
the threshold-1 graph come from the affine maps of a finite field.
"""

from __future__ import annotations

import re
from math import factorial
from typing import TYPE_CHECKING, NamedTuple

from .errors import UnsupportedConstructionError
from .permgroup import (
    MAX_DENSE_DEGREE,
    MAX_QUOTIENT_DEGREE,
    classes_with_few_fixed_points,
    derangement_count,
    derangements_by_last_image,
    need_degree,
    one_line,
)
from .scheme import (
    first_agreement_violation,
    group_data,
    image_rows,
    rank_images,
)

if TYPE_CHECKING:
    import numpy as np


def _adjacency_masks(n: int, t: int) -> list[int]:
    """Bit q of mask p is set when p != q agree in at most t points; p is a rank.

    p and q agree where p^-1 q has a fixed point, so the masks read the class
    of every p^-1 q off the relation table (GroupData.relations) and look it
    up among classes_with_few_fixed_points(n, t), whose guard checks t.
    """
    import numpy as np

    joined = classes_with_few_fixed_points(n, t)
    gd = group_data(n)
    few = np.array([cls in joined for cls in gd.classes])
    adjacent = few[gd.relations]
    # bit r of a little-endian packed row is column r
    packed = np.packbits(adjacent, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def validate_clique(members, t: int = 0) -> tuple[bool, tuple | None]:
    """Pairwise check of image rows: (ok, the first failing pair of rows or None).

    A row that is no permutation raises ValueError, from scheme.image_rows.
    """
    bad = first_agreement_violation(members, t, clique=True)
    return (True, None) if bad is None else (False, (members[bad[0]], members[bad[1]]))


def validate_family(members, t: int = 0) -> tuple[bool, tuple | None]:
    """As validate_clique, for an independent set: pairs agree in more than t points."""
    bad = first_agreement_violation(members, t, clique=False)
    return (True, None) if bad is None else (False, (members[bad[0]], members[bad[1]]))


class CliqueCertificate(NamedTuple):
    """A built clique in the threshold-t graph, and whether it validated."""

    n: int
    t: int
    construction: str
    members: np.ndarray  # (size, n) intp, read-only, one row of 1-based images each
    validated: bool

    @property
    def size(self) -> int:
        return len(self.members)


def _certify(members, n, t, construction) -> CliqueCertificate:
    """The image rows as a certificate; validated: permutations of 1..n, a clique."""
    members.flags.writeable = False
    try:
        ok = validate_clique(members, t)[0]
    except ValueError:  # a row that is no permutation
        ok = False
    return CliqueCertificate(
        n=n, t=t, construction=construction, members=members, validated=ok
    )


def latin_clique(n: int) -> CliqueCertificate:
    """Rows of the cyclic Latin square: row k sends i to i+k mod n."""
    import numpy as np

    need_degree("latin_clique", n, 2)
    k = np.arange(n, dtype=np.intp)
    return _certify((k[:, None] + k) % n + 1, n, 0, "cyclic-latin")


def _complete_latin_square(rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Extend a Latin rectangle to a full square, one row per perfect matching.

    Each column keeps its missing symbols from row to row, and they are
    sorted once per row for the augmenting-path search.
    """
    rows = list(rows)
    missing = [set(range(1, n + 1)) - {row[c] for row in rows} for c in range(n)]
    while len(rows) < n:
        options = [sorted(symbols) for symbols in missing]
        match_col: dict[int, int] = {}  # symbol -> column
        match_sym: dict[int, int] = {}  # column -> symbol

        def try_assign(col: int, seen: set[int]) -> bool:
            for sym in options[col]:
                if sym in seen:
                    continue
                seen.add(sym)
                if sym not in match_col or try_assign(match_col[sym], seen):
                    match_col[sym] = col
                    match_sym[col] = sym
                    return True
            return False

        for col in range(n):
            if not try_assign(col, set()):
                raise AssertionError("Latin rectangle completion failed")
        rows.append(tuple(match_sym[col] for col in range(n)))
        for symbols, sym in zip(missing, rows[-1]):
            symbols.discard(sym)
    return rows


def odd_n_latin_clique(n: int) -> CliqueCertificate:
    """Latin-square clique for odd n whose second row is an odd permutation.

    First row is the identity; second sends 1,2,3,4,...,n to
    2,1,n,3,...,n-1; remaining rows are filled in by repeated perfect
    matchings between columns and unused symbols.
    """
    import numpy as np

    if n < 5 or n % 2 == 0:
        raise UnsupportedConstructionError(
            f"the prescribed-row Latin clique needs odd degree >= 5, got {n}"
        )
    first = tuple(range(1, n + 1))
    second = (2, 1, n) + tuple(range(3, n - 1 + 1))
    if sorted(second) != list(first):
        raise AssertionError("the prescribed second row is not a permutation")
    square = _complete_latin_square([first, second], n)
    return _certify(np.array(square, dtype=np.intp), n, 0, "odd-latin")


def _walecki_cycles(n: int) -> list[list[int]]:
    """Directed Hamilton cycle decomposition of the complete digraph, odd n.

    The classical zigzag path on the ring 0..n-2 plus a hub vertex gives
    (n-1)/2 edge-disjoint undirected Hamilton cycles; traversing each in both
    directions yields n-1 arc-disjoint directed cycles.
    """
    m = (n - 1) // 2
    ring = n - 1
    base = [0]
    for i in range(1, m):
        base.extend([i, ring - i])
    base.append(m)
    cycles = []
    for j in range(m):
        seq = [n] + [(x + j) % ring + 1 for x in base]
        cycles.append(seq)
        cycles.append([seq[0]] + seq[1:][::-1])
    return cycles


# Seven arc-disjoint directed Hamilton cycles of the complete digraph on 8
# vertices (no formula here covers an even degree); cycle_decomposition_clique
# checks that they use every arc exactly once.
_DEGREE_8_CYCLES = (
    (1, 2, 6, 5, 4, 8, 3, 7),
    (1, 3, 6, 7, 2, 4, 5, 8),
    (1, 6, 4, 2, 3, 8, 7, 5),
    (1, 8, 2, 7, 4, 3, 5, 6),
    (1, 4, 7, 8, 6, 2, 5, 3),
    (1, 5, 7, 6, 3, 2, 8, 4),
    (1, 7, 3, 4, 6, 8, 5, 2),
)


def cycle_decomposition_clique(n: int) -> CliqueCertificate:
    """Identity plus the n-1 successor permutations of a Hamilton decomposition.

    The complete digraph on n vertices splits into n-1 directed Hamilton
    cycles for every n >= 3 except 4 and 6.  Arc-disjointness makes the n
    successor maps pairwise agree nowhere.  Only even degree 8 is tabulated.
    """
    import numpy as np

    need_degree("cycle_decomposition_clique", n, 2)
    if n in (4, 6):
        raise UnsupportedConstructionError(
            f"the complete digraph on {n} vertices has no Hamilton decomposition"
        )
    if n % 2 == 1:
        cycles = _walecki_cycles(n)
    elif n == 8:
        cycles = _DEGREE_8_CYCLES
    else:
        raise UnsupportedConstructionError(
            f"no Hamilton decomposition is tabulated at even degree {n}"
        )
    members = np.zeros((len(cycles) + 1, n), dtype=np.intp)
    members[0] = np.arange(1, n + 1)
    for row, seq in zip(members[1:], cycles):
        row[np.subtract(seq, 1)] = np.roll(seq, -1)  # v's image is its successor
    # column v, v and its successors, is 1..n for every v iff each arc is used once
    if len(members) != n or (np.sort(members, axis=0) != members[0][:, None]).any():
        raise AssertionError("the Hamilton cycles do not use every arc exactly once")
    return _certify(members, n, 0, "hamilton-decomposition")


# q = p^k -> (p, little-endian coefficients of a monic irreducible degree-k
# polynomial over GF(p)); a prime q is the degree-1 case, with the polynomial x.
_FIELD_POLYS = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}
_AFFINE_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def _field(q: int):
    """(add, mul), the (q, q) tables of GF(q), element a read as base-p digits.

    The digits a_i are the coefficients of a polynomial over GF(p), reduced
    modulo the monic polynomial of _FIELD_POLYS.  shifted[i][a] holds the
    digits of x^i a, each one the last shifted by x with its x^k term folded
    back through that polynomial, so the product a b sums b_i x^i a.
    """
    import numpy as np

    p, poly = _FIELD_POLYS.get(q, (q, (0, 1)))
    k = len(poly) - 1
    weights = p ** np.arange(k)
    digits = np.arange(q)[:, None] // weights % p  # digits[a, i] = a_i
    shifted = [digits]
    for _ in range(k - 1):
        last = shifted[-1]
        times_x = np.pad(last[:, :-1], ((0, 0), (1, 0))) - last[:, -1:] * poly[:k]
        shifted.append(times_x % p)
    add = (digits[:, None] + digits) % p @ weights
    mul = np.einsum("bi,iak->abk", digits, np.array(shifted)) % p @ weights
    return add, mul


def affine_clique(q: int) -> CliqueCertificate:
    """The q(q-1) maps x -> a*x + b over GF(q) as a clique at threshold 1.

    Two distinct affine maps agree in at most one point, so the family is a
    clique in the agreement-at-most-1 graph on q points.  Row (a, b), a > 0,
    holds a*x + b for x = 0..q-1, read off the field's tables.
    """
    import numpy as np

    if q not in _AFFINE_SIZES:
        raise UnsupportedConstructionError(
            f"affine cliques are built for q in {_AFFINE_SIZES}, got {q}"
        )
    add, mul = _field(q)
    members = 1 + add[mul[1:, None, :], np.arange(q)[:, None]].reshape(-1, q)
    if len(set(map(tuple, members.tolist()))) != q * (q - 1):
        raise AssertionError("affine maps are not distinct")
    return _certify(members, q, 1, "affine")


class EquitableQuotient(NamedTuple):
    """Edge counts between a point-stabilizing family and its complement."""

    n: int
    matrix: tuple[tuple[int, int], tuple[int, int]]
    eigenvalues: tuple[int, int]
    cell_sizes: tuple[int, int]
    equitable: bool
    matches_closed_form: bool


def equitable_quotient(n: int) -> EquitableQuotient:
    """Quotient of the derangement graph over {maps fixing n, the rest}.

    Edge counts are taken directly: a neighbour pi*g of pi fixes n exactly
    when g(n) = pi^-1(n), so counting derangements by their image of n gives
    every vertex's count into the first cell.  The partition is equitable
    when those counts are constant on each cell, read from the point 1.
    """
    need_degree("equitable_quotient", n, 2, MAX_QUOTIENT_DEGREE)
    counts = derangements_by_last_image(n)
    # rows and eigenvalues read the walk alone (s, not derangement_count)
    s, c, q = sum(counts), counts[n], counts[1]
    return EquitableQuotient(
        n=n,
        matrix=((c, s - c), (q, s - q)),
        # the eigenvalues of [[c, s - c], [q, s - q]]
        eigenvalues=(s, c - q),
        cell_sizes=(factorial(n - 1), factorial(n) - factorial(n - 1)),
        equitable=len(set(counts[1:n])) == 1,
        matches_closed_form=q * (n - 1) == derangement_count(n),
    )


def latin_coset_cover(n: int) -> list[tuple[int, ...]]:
    """Right cosets of the cyclic Latin clique, ascending, by their least members."""
    import numpy as np

    gd = group_data(n)
    clique = latin_clique(n)
    if not clique.validated:
        raise AssertionError("the cyclic Latin clique is not a clique")
    clique_ranks = rank_images(clique.members)
    # row v lists the ranks of r * v over the clique members r, ascending
    rows = np.sort(gd.compose_ranks(clique_ranks, np.arange(gd.order)[:, None]), axis=1)
    cosets = rows[rows[:, 0] == np.arange(gd.order)]
    # they partition S(n) into n!/n cliques: as many cosets as that cover it
    if len(cosets) != gd.order // n or not np.bincount(cosets.ravel()).all():
        raise AssertionError("the cosets do not partition S(n)")
    return [tuple(coset) for coset in cosets.tolist()]


class SearchResult(NamedTuple):
    """Exhaustive catalogue of the maximum independent sets at threshold 0."""

    n: int
    t: int
    alpha: int
    omega: int
    ranks: np.ndarray  # (count, alpha) intp, one sorted row of member ranks per set

    @property
    def count(self) -> int:
        return len(self.ranks)

    @property
    def tight(self) -> bool:
        return self.alpha * self.omega == factorial(self.n)


def _enumerate_transversals(
    coset_masks: list[int], nonadj: list[int], allowed: int, chosen: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All ways to pick one pairwise-nonadjacent vertex from every coset.

    Every coset with one allowed vertex is taken at once, each pick checked
    against those before it, until none is forced; the walk then branches on
    the first open coset with the fewest allowed vertices.
    """
    while True:
        rest, forced = [], []
        for mask in coset_masks:
            candidates = mask & allowed
            if not candidates:
                return []
            (rest if candidates & (candidates - 1) else forced).append(candidates)
        coset_masks = rest
        if not forced:
            break
        for low in forced:
            if not low & allowed:  # an earlier pick is adjacent to it
                return []
            allowed &= nonadj[low.bit_length() - 1]
            chosen += (low.bit_length() - 1,)
    if not rest:
        return [chosen]
    candidates = min(rest, key=int.bit_count)
    rest.remove(candidates)  # the cosets are disjoint: no other mask equals it
    out = []
    while candidates:
        low = candidates & -candidates
        v = low.bit_length() - 1
        candidates ^= low
        out.extend(
            _enumerate_transversals(rest, nonadj, allowed & nonadj[v], chosen + (v,))
        )
    return out


# The search result of each degree, which does not depend on the workers.
_catalogues: dict[int, SearchResult] = {}


def max_independent_sets(n: int, t: int = 0, workers: int = 1) -> SearchResult:
    """Exhaustively enumerate the maximum independent sets of the derangement graph.

    The right cosets of the cyclic Latin clique partition the vertices into
    n!/n cliques, so no independent set beats (n-1)!; the family fixing the
    last point reaches it.  Every maximum set therefore picks exactly one
    vertex per coset, and those transversals are enumerated completely; that
    family must be among them, and each one is validated.  One walk serves
    every worker count: its root branches are mapped in process, or over a
    pool of workers.  A degree is searched once per process; its read-only
    ranks are then shared.
    """
    if t != 0:
        raise UnsupportedConstructionError("exhaustive search is implemented for t=0")
    need_degree("max_independent_sets", n, 2, MAX_DENSE_DEGREE)
    if n in _catalogues:
        return _catalogues[n]
    import numpy as np

    gd = group_data(n)
    masks = _adjacency_masks(n, 0)
    full = (1 << gd.order) - 1
    nonadj = [full & ~m for m in masks]
    first, *others = latin_coset_cover(n)
    # a coset's ranks are distinct, so its mask is the sum of their bits
    rest = [sum(1 << v for v in coset) for coset in others]
    seed = np.flatnonzero(gd.images[:, -1] == n)  # S_{n->n}, ascending
    alpha = len(seed)  # floor (n-1)! met; coset cover shows it is also a cap
    # the walk's root takes the first coset, all of it allowed, and branches on
    # its members in ascending order; map takes one iterable per argument
    branches = zip(*[(rest, nonadj, nonadj[v], (v,)) for v in first])
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_enumerate_transversals, *branches))
    else:
        chunks = map(_enumerate_transversals, *branches)
    found = [chosen for chunk in chunks for chosen in chunk]
    # every transversal has one member per coset, alpha in all
    ranks = np.array(sorted(map(sorted, found)), dtype=np.intp).reshape(-1, alpha)
    if not (ranks == seed).all(axis=1).any():
        raise AssertionError("the seed family was not rediscovered")
    for row in ranks:
        bad = first_agreement_violation(gd.images[row], 0, clique=False)
        if bad is not None:
            raise AssertionError(
                f"search produced a dependent set: ranks {row[bad[0]]}, {row[bad[1]]}"
            )
    ranks.flags.writeable = False
    _catalogues[n] = SearchResult(n=n, t=0, alpha=alpha, omega=n, ranks=ranks)
    return _catalogues[n]


def write_family(members, path: str) -> None:
    """One line per image row; rows image_rows rejects raise before path opens."""
    rows = image_rows(members).astype(int).tolist()  # float or bool rows as ints
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(one_line(row) + "\n" for row in rows)


# ASCII digits between optional whitespace; int() also reads a sign, an
# underscore and the digits of other scripts
_NUMBER = re.compile(r"\s*([0-9]+)\s*")


def parse_one_line(text: str) -> tuple[int, ...]:
    """The images of one-line notation like "4,3,1,2", a permutation of 1..n.

    Whitespace may surround each number but not split one: "1 2,3" is an error,
    as is any token other than ASCII digits ("+3", "2_0").
    """
    tokens = [_NUMBER.fullmatch(tok) for tok in text.split(",")]
    if not all(tokens):
        raise ValueError(f"bad one-line permutation {text!r}")
    images = tuple(int(tok[1]) for tok in tokens)
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
    return images


def read_family(path: str, n: int) -> np.ndarray:
    """The (m, n) intp image rows of path's nonblank lines, each of degree n."""
    import numpy as np

    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            images = parse_one_line(line)
            if len(images) != n:
                raise ValueError(f"expected degree {n}, found {one_line(images)}")
            rows.append(images)
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)
