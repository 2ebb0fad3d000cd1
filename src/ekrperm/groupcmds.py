"""Report handlers for the subcommands that read the group tables.

bounds, clique, search, classify, lemmas, conjecture, identity-check,
quotient, validate and verify-all build cliques, group tables, searches and
incidence matrices; cli finds their handlers here, so a spectrum, chartab or
derangements run compiles none of this.  Each handler returns (result,
checks) and takes its parsed arguments as keywords, as cli's own do.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from math import factorial

from . import chartab, permgroup
from .cli import (
    _CLIQUE_CONSTRUCTIONS,
    _params_label,
    check,
    ekrverify,
    exact,
    graphs,
    run_chartab,
    run_derangements,
    run_least_eigenvalue,
    run_spectrum,
    scheme,
)
from .errors import UnsupportedConstructionError


# The clique --method, by threshold t, whose construction is sharply
# (t+1)-transitive: its n!/(n-t-1)! members form a clique at threshold t, and
# its size times that of the stabiliser of t+1 points, a coclique, is n!.
_SHARPLY_TRANSITIVE = {0: "latin", 1: "affine"}


def run_bounds(n: int, t: int):
    if t not in _SHARPLY_TRANSITIVE or n < t + 2:
        raise UnsupportedConstructionError(
            "bounds need a sharply (t+1)-transitive clique, built for t in"
            f" {sorted(_SHARPLY_TRANSITIVE)}, and n >= t + 2 for a point that the"
            f" coclique leaves free; got t={t}, n={n}"
        )
    clique = getattr(graphs, _CLIQUE_CONSTRUCTIONS[_SHARPLY_TRANSITIVE[t]])(n)
    coclique = scheme.constraint_rows(n, [(k, k) for k in range(1, t + 2)])
    report = scheme.clique_coclique_check(clique.members, coclique, n, t)
    ratio = scheme.ratio_bound(n, t)
    checks = [
        check("product-meets-bound", report.tight, product=exact(report.product)),
    ]
    if report.corollary_ok is not None:
        checks.append(check("tight-pair-supports-disjoint", report.corollary_ok))
    if t == 0:
        checks.append(check("ratio-bound-is-(n-1)!", ratio == factorial(n - 1)))
    result = {
        "n": n,
        "t": t,
        "clique_size": report.clique_size,
        "independent_size": report.independent_size,
        "product": exact(report.product),
        "bound": exact(report.bound),
        "tight": report.tight,
        "ratio_bound": exact(ratio),
    }
    if report.supports is not None:
        result["supports"] = [
            {
                "partition": permgroup.one_line(shape),
                "clique_nonzero": cx,
                "independent_nonzero": cy,
            }
            for shape, cx, cy in report.supports
        ]
    return result, checks


def run_clique(n: int, method: str):
    certificate = getattr(graphs, _CLIQUE_CONSTRUCTIONS[method])(n)
    expected = factorial(n) // factorial(n - certificate.t - 1)
    checks = [
        check("pairwise-validated", certificate.validated),
        check("expected-size", certificate.size == expected, size=certificate.size),
    ]
    result = {
        "n": n,
        "t": certificate.t,
        "construction": certificate.construction,
        "size": certificate.size,
        "members": [permgroup.one_line(row) for row in certificate.members.tolist()],
    }
    return result, checks


def run_search(n: int, t: int, workers: int):
    found = graphs.max_independent_sets(n, t, workers=workers)
    images = scheme.image_table(n)
    strings = list(map(permgroup.one_line, (images + 1).tolist()))
    checks = [
        check(
            "alpha-is-(n-1)!",
            found.alpha == factorial(n - 1),
            alpha=exact(found.alpha),
        ),
        check("product-tight", found.tight),
        check(
            "count-matches-stabilizer-catalogue",
            found.count == permgroup.stabilizer_coset_count(n),
            count=found.count,
            expected=permgroup.stabilizer_coset_count(n),
        ),
        check(  # the search validates each set, so its members are distinct
            "all-sets-are-stabilizer-cosets",
            all(scheme.point_family(images[row]) is not None for row in found.ranks),
        ),
    ]
    result = {
        "n": n,
        "t": t,
        "alpha": exact(found.alpha),
        "omega": exact(found.omega),
        "tight": found.tight,
        "sets": [[strings[r] for r in row] for row in found.ranks.tolist()],
    }
    return result, checks


def run_classify(n: int):
    report = ekrverify.classify_maximum_sets(n)
    sets = [
        {
            "family": list(r.family_key) if r.family_key else None,
            "translated_to": list(r.translated_to) if r.translated_to else None,
            "case": r.case,
            # a record has a coefficient exactly when it has a case
            "border_coefficient": exact(r.recovered_coefficient) if r.case else None,
            "coordinates_ok": r.coordinates_ok,
        }
        for r in report.records
    ]
    checks = [
        check("all-sets-canonical", report.all_canonical),
        check(
            "count-matches-catalogue",
            report.total_sets == permgroup.stabilizer_coset_count(n),
            count=report.total_sets,
        ),
        check("coordinate-recovery", all(r.coordinates_ok for r in report.records)),
    ]
    result = {
        "n": n,
        "alpha": exact(report.alpha),
        "total_sets": report.total_sets,
        "sets": sets,
    }
    return result, checks


def run_lemmas(n: int):
    checks = [check("gram-identity", ekrverify.gram_check(n)[0])]
    rank_h, ok_h = ekrverify.rank_H_check(n)
    checks.append(check("rank-H-is-(n-1)^2", ok_h, rank=rank_h))
    rank_m, ok_m = ekrverify.rank_M_check(n)
    checks.append(check("rank-M-is-(n-1)(n-2)", ok_m, rank=rank_m))
    _, _, sub_ok = ekrverify.pi_ab_submatrix(n)
    checks.append(check("selected-rows-give-K-kron-I", sub_ok))
    bordered_ok = ekrverify.bordered_kernel_check(n)
    checks.append(check("bordered-kernel-spanned-by-expected-vector", bordered_ok))
    in_w = ekrverify.kernel_membership_check(n)
    checks.append(check("kernel-vectors-map-into-diagonal-column-space", in_w))
    skipped = []
    if n <= permgroup.MAX_DENSE_DEGREE:
        basis = ekrverify.basis_check(n)
        checks.append(check("point-family-supports-standard-only", basis.supports_ok))
        checks.append(
            check(
                "shifted-point-families-have-full-rank",
                basis.rank_shifted == (n - 1) ** 2,
                rank=basis.rank_shifted,
            )
        )
        checks.append(
            check(
                "ones-outside-span",
                basis.rank_with_ones == (n - 1) ** 2 + 1,
                rank=basis.rank_with_ones,
            )
        )
        checks.append(check("dimension-matches-square", basis.dimension_match))
    else:
        skipped = ["point-family-supports", "basis-rank"]
    result = {"n": n, "skipped": skipped}
    return result, checks


def run_conjecture(n: int, t: int):
    report = ekrverify.depth_conjecture_dims(n, t)
    within = report.supports_within_depth
    checks = [check(f"supports-within-depth-{t + 1}", within[t + 1])]
    result = {
        "n": n,
        "t": t,
        "selected_depth": t + 1,
        "family_count": report.family_count,
        "module_dim_sums": {
            str(d): exact(v) for d, v in sorted(report.module_dim_sums.items())
        },
        "span_rank_shifted": exact(report.span_rank_shifted),
        "span_rank_with_ones": exact(report.span_rank_with_ones),
        "rank_method": report.rank_method,
        "support_union": [permgroup.one_line(s) for s in report.support_union],
        "supports_within_depth": {str(d): v for d, v in sorted(within.items())},
        "agreement": dict(report.agreement),
    }
    return result, checks


def _coin_flips(rng: random.Random):
    """rng.randint(0, 1), drawn again and again, as one endless iterator.

    randint(0, 1) draws getrandbits(2) until the value is below 2.  These are
    the same draws, so the stream and the generator's state stay the same,
    but the loop runs in C.
    """
    return filter((2).__gt__, iter(partial(rng.getrandbits, 2), None))


def run_identity_check(n: int, trials: int, seed: int, t: int):
    flips = _coin_flips(random.Random(seed))
    order = factorial(n)

    def draws():  # x, then y, per trial from the one generator
        for _ in range(trials):
            x = list(itertools.islice(flips, order))
            y = list(itertools.islice(flips, order))
            yield x, y

    sides = scheme.fundamental_identity_check(draws(), n)
    sample = sides[0]
    all_equal = all(lhs == rhs for lhs, rhs in sides)
    checks = [check("identity-holds-exactly", all_equal, trials=trials)]
    result = {
        "n": n,
        "t": t,
        "trials": trials,
        "seed": seed,
        "first_trial": {"lhs": exact(sample[0]), "rhs": exact(sample[1])},
    }
    return result, checks


def run_quotient(n: int):
    quotient = graphs.equitable_quotient(n)
    d = permgroup.derangement_count(n)
    checks = [
        check("partition-is-equitable", quotient.equitable),
        check("matches-closed-form", quotient.matches_closed_form),
        check(
            "eigenvalues-are-d-and--d/(n-1)",
            quotient.eigenvalues == (d, -(d // (n - 1))) and d % (n - 1) == 0,
        ),
        check("row-sums-equal-valency", all(sum(row) == d for row in quotient.matrix)),
    ]
    result = {
        "n": n,
        "matrix": [[exact(v) for v in row] for row in quotient.matrix],
        "eigenvalues": [exact(v) for v in quotient.eigenvalues],
        "cell_sizes": [exact(v) for v in quotient.cell_sizes],
    }
    return result, checks


def run_validate(n: int, family: str, t: int):
    members = graphs.read_family(family, n)
    ok, witness = graphs.validate_family(members, t)
    checks = [check("family-is-independent", ok, threshold=t)]
    result = {
        "n": n,
        "t": t,
        "size": len(members),
        "witness": [permgroup.one_line(row) for row in witness] if witness else None,
    }
    return result, checks


def run_clique_characters(n: int):
    """Every non-standard character sums to nonzero over some clique at degree n.

    The cliques are the Hamilton-cycle one (every n but 4 and 6) and, for odd
    n >= 5, the odd-Latin one; over each of them the standard character
    (n-1, 1) must sum to zero.
    """
    cliques = []
    if n not in (4, 6):
        cliques.append(graphs.cycle_decomposition_clique(n))
    if n % 2 == 1 and n >= 5:
        cliques.append(graphs.odd_n_latin_clique(n))
    if not all(clique.validated for clique in cliques):
        raise AssertionError("a clique construction produced a non-clique")
    table = chartab.character_table(n)
    # each member's column of the table, its cycle type walked once
    column = table.partitions.index
    columns = [
        [column(permgroup.cycle_type_of_images(row)) for row in c.members.tolist()]
        for c in cliques
    ]
    sums = [
        {
            shape: sum(values[k] for k in cols)
            for shape, values in zip(table.partitions, table.values)
        }
        for cols in columns
    ]
    standard = (n - 1, 1)
    covered = all(
        any(s[shape] != 0 for s in sums)
        for shape in table.partitions
        if shape != standard
    )
    checks = [
        check("nonzero-off-standard", covered),
        check("zero-on-standard", all(s[standard] == 0 for s in sums)),
    ]
    return {"n": n, "cliques": [c.construction for c in cliques]}, checks


# verify-all's sections in report order: label, handler, degrees, the t that
# the parameters show (None: n alone) and keyword options, where "workers"
# takes verify-all's own --workers.  The degrees are the sections' own, not
# cli.COMMANDS' ranges, so widening a range leaves the report as it is.
SECTIONS = (
    ("derangements", run_derangements, range(1, 10), None, {}),
    ("chartab", run_chartab, range(2, 9), None, {}),
    ("spectrum", run_spectrum, range(2, 10), 0, {}),
    ("least-eigenvalue", run_least_eigenvalue, range(2, 9), None, {}),
    ("quotient", run_quotient, range(2, 9), None, {}),
    ("clique-latin", run_clique, range(2, 9), None, {"method": "latin"}),
    ("clique-odd-latin", run_clique, (5, 7, 9), None, {"method": "odd-latin"}),
    ("clique-cycles", run_clique, (3, 5, 7, 8), None, {"method": "cycles"}),
    ("clique-characters", run_clique_characters, (7, 8, 9), None, {}),
    ("bounds", run_bounds, range(2, 7), 0, {}),
    ("bounds", run_bounds, (3, 4, 5), 1, {}),
    # classify reads the catalogue that search leaves in graphs' cache
    ("search", run_search, range(3, 7), 0, {"workers": None}),
    ("classify", run_classify, range(3, 7), None, {}),
    ("identity-check", run_identity_check, (4, 5), 0, {"trials": 20, "seed": 2024}),
    ("lemmas", run_lemmas, range(3, 8), None, {}),
    ("conjecture", run_conjecture, (4, 5, 6), 1, {}),
)


def run_verify_all(max_n: int, workers: int):
    sections, checks = [], []
    for label, handler, degrees, t, options in SECTIONS:
        options = {k: workers if k == "workers" else v for k, v in options.items()}
        for n in [d for d in degrees if d <= max_n]:
            params = {"n": n} if t is None else {"n": n, "t": t}
            _, section_checks = handler(**params, **options)
            ok = all(c["pass"] for c in section_checks)
            sections.append({"section": label, "parameters": params, "pass": ok})
            prefix = f"{label}[{_params_label(params)}]:"
            checks.extend({**c, "name": prefix + c["name"]} for c in section_checks)
    return {"max_n": max_n, "sections": sections}, checks
